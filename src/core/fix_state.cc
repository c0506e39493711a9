#include "core/fix_state.h"

namespace certfix {

namespace {

// FNV-1a over the rule index and the projected cell hashes. The input and
// master sides feed equal value lists for matching probes, so both hash
// functions below must combine identically.
constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

inline uint64_t Mix(uint64_t h, uint64_t x) {
  h ^= x;
  h *= kFnvPrime;
  return h;
}

}  // namespace

uint64_t ProbeKeyHash(size_t rule_idx,
                      const std::vector<uint64_t>& cell_hashes) {
  uint64_t h = Mix(kFnvOffset, static_cast<uint64_t>(rule_idx));
  for (uint64_t c : cell_hashes) h = Mix(h, c);
  return h;
}

uint64_t MasterProbeKeyHash(size_t rule_idx, const Relation& dm, size_t row,
                            const std::vector<AttrId>& attrs) {
  uint64_t h = Mix(kFnvOffset, static_cast<uint64_t>(rule_idx));
  for (AttrId a : attrs) h = Mix(h, dm.Cell(row, a).Hash());
  return h;
}

bool FixState::IsEnabled(const RuleSet& rules, const Relation& dm,
                         const FixMove& move) const {
  const EditingRule& rule = rules.at(move.rule_idx);
  if (!rule.premise_set().SubsetOf(z_)) return false;
  if (z_.Contains(rule.rhs())) return false;
  const Tuple& tm = dm.at(move.master_idx);
  return rule.AppliesTo(tuple_, tm);
}

std::vector<FixMove> FixState::EnabledMoves(const RuleSet& rules,
                                            const MasterIndex& index) const {
  std::vector<FixMove> moves;
  PoolBridge bridge(tuple_.pool().get(), index.pool().get());
  for (size_t i = 0; i < rules.size(); ++i) {
    const EditingRule& rule = rules.at(i);
    if (!rule.premise_set().SubsetOf(z_)) continue;
    if (z_.Contains(rule.rhs())) continue;
    if (!rule.pattern().Matches(tuple_)) continue;
    for (size_t m : index.Candidates(i, tuple_, &bridge)) {
      moves.push_back(FixMove{i, m, rule.rhs(),
                              index.master().Cell(m, rule.rhsm())});
    }
  }
  return moves;
}

void FixState::Apply(const RuleSet& rules, const FixMove& move) {
  const EditingRule& rule = rules.at(move.rule_idx);
  tuple_.Set(rule.rhs(), move.value);
  z_.Add(rule.rhs());
  applied_.push_back(move);
}

}  // namespace certfix
