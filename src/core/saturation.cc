#include "core/saturation.h"

#include <algorithm>

#include "core/exhaustive.h"

namespace certfix {

namespace {

using RhsValue = MasterIndex::RhsValue;
using RhsSummary = MasterIndex::RhsSummary;

// A master-pool id not yet bridged this check.
constexpr ValueId kUnbridged = static_cast<ValueId>(-2);
// Tags a probe-cache key word holding the input-pool id of a value the
// master pool lacks, so it never equals a master-pool id.
constexpr uint64_t kAbsentTag = uint64_t{1} << 32;

// One attribute during a run: its current value — the input cell, or the
// master summary value a move of this run fixed it to — with the
// master-pool id and the hash filled in on first use.
struct Cell {
  const Value* value = nullptr;
  ValueId master_id = kUnbridged;  // kInvalidValueId: absent from Dm
  bool fixed = false;
  bool hashed = false;
  uint64_t hash = 0;
};

// One rule's non-empty answer in a round.
struct Block {
  AttrId attr;
  size_t rule_idx;
  const RhsSummary* answer;
};

// One proposal kept past its round: a move of the full run, or a
// distinct value offered for the excluded attribute.
struct Proposal {
  AttrId attr;
  size_t rule_idx;
  const RhsValue* rv;
};

// One cached probe; its key is `keys[key_at, key_at + |lhs|)`.
struct CacheEntry {
  int32_t next;  // next entry of the same rule, -1 at the end
  uint32_t key_at;
  const RhsSummary* answer;
};

// Scratch of one check, kept per thread so that steady-state checks reuse
// its capacity instead of allocating.
struct Scratch {
  std::vector<Cell> input;  // the input tuple; lazy fields persist per check
  std::vector<Cell> cur;    // the running saturation
  std::vector<Block> round;
  std::vector<Proposal> moves;
  std::vector<Proposal> excluded;
  std::vector<int32_t> head;  // per rule: newest cache entry, -1 if none
  std::vector<CacheEntry> entries;
  std::vector<uint64_t> keys;
  IdKey ids;
  std::vector<uint64_t> hashes;
};

const RhsSummary& EmptySummary() {
  static const RhsSummary kEmpty;
  return kEmpty;
}

// The state of one Saturate / CheckUniqueFix call: the input cells, the
// probe cache, and the runs made from them. It borrows the calling
// thread's scratch, so a thread holds at most one Check at a time.
class Check {
 public:
  Check(const RuleSet& rules, const MasterIndex& index, const Tuple& t,
        PoolBridge* bridge, ProbeLog* probes)
      : rules_(rules), index_(index), t_(t), bridge_(bridge),
        probes_(probes) {
    thread_local Scratch scratch;
    s_ = &scratch;
    s_->input.assign(t.size(), Cell{});
    for (size_t a = 0; a < t.size(); ++a) {
      s_->input[a].value = &t.at(static_cast<AttrId>(a));
    }
    s_->head.assign(rules.size(), -1);
    s_->entries.clear();
    s_->keys.clear();
  }

  // One saturation from z0 that never validates `excluded` (< 0: the full
  // run). Returns the covered set; same-round conflicts go to
  // `conflicts`. The full run leaves its moves in moves(), an excluded run
  // the distinct values offered for `excluded` in excluded().
  AttrSet Run(AttrSet z0, int excluded, std::vector<FixConflict>* conflicts);

  const std::vector<Proposal>& moves() const { return s_->moves; }
  const std::vector<Proposal>& excluded() const { return s_->excluded; }

 private:
  ValueId MasterId(AttrId a) {
    Cell& c = s_->cur[a];
    if (c.master_id == kUnbridged) {
      c.master_id = bridge_->Translate(t_.id_at(a));
      s_->input[a].master_id = c.master_id;  // only input cells are lazy
    }
    return c.master_id;
  }

  uint64_t HashOf(AttrId a) {
    Cell& c = s_->cur[a];
    if (!c.hashed) {
      c.hash = c.value->Hash();
      c.hashed = true;
      if (!c.fixed) {
        s_->input[a].hash = c.hash;
        s_->input[a].hashed = true;
      }
    }
    return c.hash;
  }

  bool Matches(const PatternTuple& pattern) const {
    for (const auto& [attr, pv] : pattern.cells()) {
      if (!pv.Matches(*s_->cur[attr].value)) return false;
    }
    return true;
  }

  const RhsSummary& Probe(size_t rule_idx, const std::vector<AttrId>& lhs);

  const RuleSet& rules_;
  const MasterIndex& index_;
  const Tuple& t_;
  PoolBridge* bridge_;
  ProbeLog* probes_;
  Scratch* s_;
};

const RhsSummary& Check::Probe(size_t rule_idx,
                               const std::vector<AttrId>& lhs) {
  // The key goes to the end of the arena first; a hit takes it back off.
  std::vector<uint64_t>& keys = s_->keys;
  const size_t at = keys.size();
  const size_t n = lhs.size();
  bool present = true;
  for (AttrId a : lhs) {
    const ValueId id = MasterId(a);
    if (id == kInvalidValueId) {
      present = false;
      keys.push_back(kAbsentTag | t_.id_at(a));
    } else {
      keys.push_back(id);
    }
  }
  for (int32_t e = s_->head[rule_idx]; e >= 0; e = s_->entries[e].next) {
    const CacheEntry& entry = s_->entries[e];
    if (std::equal(keys.begin() + at, keys.end(),
                   keys.begin() + entry.key_at)) {
      keys.resize(at);
      return *entry.answer;
    }
  }
  // The single master-data read of the whole engine. Recording the probe
  // even when the answer is empty matters: a later master insert creating
  // this key must invalidate the tuple.
  const RhsSummary* answer = &EmptySummary();
  if (present) {
    s_->ids.resize(n);
    for (size_t k = 0; k < n; ++k) {
      s_->ids[k] = static_cast<ValueId>(keys[at + k]);
    }
    answer = &index_.RhsValuesByKey(rule_idx, s_->ids);
  }
  if (probes_ != nullptr) {
    s_->hashes.clear();
    for (AttrId a : lhs) s_->hashes.push_back(HashOf(a));
    probes_->Add(ProbeKeyHash(rule_idx, s_->hashes));
  }
  s_->entries.push_back(CacheEntry{s_->head[rule_idx],
                                   static_cast<uint32_t>(at), answer});
  s_->head[rule_idx] = static_cast<int32_t>(s_->entries.size() - 1);
  return *answer;
}

AttrSet Check::Run(AttrSet z0, int excluded,
                   std::vector<FixConflict>* conflicts) {
  s_->cur = s_->input;
  s_->moves.clear();
  s_->excluded.clear();
  AttrSet z = z0;
  std::vector<Block>& round = s_->round;
  bool changed = true;
  while (changed) {
    changed = false;
    round.clear();
    for (size_t i = 0; i < rules_.size(); ++i) {
      const EditingRule& rule = rules_.at(i);
      if (z.Contains(rule.rhs())) continue;
      if (!rule.premise_set().SubsetOf(z)) continue;
      if (!Matches(rule.pattern())) continue;
      const RhsSummary& answer = Probe(i, rule.lhs());
      if (!answer.empty()) round.push_back(Block{rule.rhs(), i, &answer});
    }
    // Group by attribute, rules in index order within a group. Rule
    // indexes are distinct, so this is a stable sort by attribute.
    std::sort(round.begin(), round.end(), [](const Block& x, const Block& y) {
      return x.attr != y.attr ? x.attr < y.attr : x.rule_idx < y.rule_idx;
    });
    for (size_t g = 0; g < round.size();) {
      const AttrId attr = round[g].attr;
      size_t end = g + 1;
      while (end < round.size() && round[end].attr == attr) ++end;
      if (static_cast<int>(attr) == excluded) {
        // Every distinct value proposed for the excluded attribute, with
        // the first rule proposing it.
        for (size_t k = g; k < end; ++k) {
          for (const RhsValue& rv : *round[k].answer) {
            bool seen = false;
            for (const Proposal& p : s_->excluded) seen |= p.rv->id == rv.id;
            if (!seen) {
              s_->excluded.push_back(Proposal{attr, round[k].rule_idx, &rv});
            }
          }
        }
        g = end;
        continue;
      }
      // Same-round conflict check: all proposals must agree. Proposed
      // values are compared by master-pool id — every proposal comes out
      // of the same MasterIndex, so id equality is value equality.
      const Proposal first{attr, round[g].rule_idx, &round[g].answer->front()};
      for (size_t k = g; k < end; ++k) {
        for (const RhsValue& rv : *round[k].answer) {
          if (rv.id == first.rv->id) continue;
          conflicts->push_back(FixConflict{attr, first.rv->value, rv.value,
                                           first.rule_idx, round[k].rule_idx});
        }
      }
      // Apply the first proposal even under conflict so the covered set
      // stays maximal; callers treat `unique == false` as inconsistent.
      s_->cur[attr] = Cell{&first.rv->value, first.rv->id, /*fixed=*/true};
      z.Add(attr);
      if (excluded < 0) s_->moves.push_back(first);
      changed = true;
      g = end;
    }
  }
  return z;
}

// The full run's result: its moves applied to a copy of t, interning each
// fixed value into t's pool once, in step order.
SaturationResult Materialize(const Tuple& t, AttrSet covered,
                             std::vector<FixConflict> conflicts,
                             const std::vector<Proposal>& moves) {
  SaturationResult result;
  result.fixed = t;
  result.covered = covered;
  result.unique = conflicts.empty();
  result.conflicts = std::move(conflicts);
  result.steps.reserve(moves.size());
  for (const Proposal& m : moves) {
    result.fixed.Set(m.attr, m.rv->value);
    result.steps.push_back(FixMove{m.rule_idx, m.rv->row, m.attr, m.rv->value});
  }
  return result;
}

}  // namespace

const std::set<Value>& Saturator::Dom() const {
  if (dom_hint_ != nullptr) return *dom_hint_;
  std::lock_guard<std::mutex> lock(dom_mutex_);
  if (!dom_cache_.has_value()) {
    dom_cache_ = ActiveDomain(*rules_, *dm_);
  }
  return *dom_cache_;
}

std::vector<size_t> Saturator::FirstRoundProbeRules(AttrSet z0) const {
  std::vector<size_t> out;
  for (size_t i = 0; i < rules_->size(); ++i) {
    const EditingRule& rule = rules_->at(i);
    if (z0.Contains(rule.rhs())) continue;
    if (!rule.premise_set().SubsetOf(z0)) continue;
    if (rule.lhs().empty()) continue;  // probes the all-rows summary
    out.push_back(i);
  }
  return out;
}

std::string FixConflict::ToString(const SchemaPtr& schema) const {
  std::string name = schema ? schema->attr_name(attr) : std::to_string(attr);
  return "conflict on " + name + ": '" + value_a.ToString() + "' (rule #" +
         std::to_string(rule_a) + ") vs '" + value_b.ToString() +
         "' (rule #" + std::to_string(rule_b) + ")";
}

SaturationResult Saturator::Saturate(const Tuple& t, AttrSet z0) const {
  PoolBridge bridge(t.pool().get(), index_->pool().get());
  Check check(*rules_, *index_, t, &bridge, nullptr);
  std::vector<FixConflict> conflicts;
  AttrSet covered = check.Run(z0, -1, &conflicts);
  return Materialize(t, covered, std::move(conflicts), check.moves());
}

SaturationResult Saturator::CheckUniqueFix(const Tuple& t, AttrSet z0,
                                           PoolBridge* bridge,
                                           ProbeLog* probes) const {
  const ValuePool* from = t.pool().get();
  const ValuePool* to = index_->pool().get();
  PoolBridge local(from, to);
  if (bridge == nullptr || !bridge->Covers(from, to)) bridge = &local;
  Check check(*rules_, *index_, t, bridge, probes);
  std::vector<FixConflict> conflicts;
  AttrSet covered = check.Run(z0, -1, &conflicts);
  SaturationResult full =
      Materialize(t, covered, std::move(conflicts), check.moves());
  if (!full.unique) return full;
  // Cross-round conflicts: for each attribute B that some move validated,
  // collect every value proposed for B by moves whose premises do not
  // depend on B. Two distinct values means two distinct maximal fixes.
  for (AttrId b : covered.Minus(z0).ToVector()) {
    check.Run(z0, static_cast<int>(b), &full.conflicts);
    if (!full.conflicts.empty()) {
      // Conflict on another attribute surfaced under this order; report.
      full.unique = false;
      return full;
    }
    const std::vector<Proposal>& proposals = check.excluded();
    if (proposals.size() > 1) {
      full.unique = false;
      full.conflicts.push_back(FixConflict{b, proposals[0].rv->value,
                                           proposals[1].rv->value,
                                           proposals[0].rule_idx,
                                           proposals[1].rule_idx});
      return full;
    }
  }
  return full;
}

}  // namespace certfix
