/// \file saturation.h
/// \brief Batch saturation engine: computes fixes, covered sets, and exact
/// unique-fix decisions (the PTIME algorithm behind Theorem 4).
///
/// Semantics recap (Sect. 3): starting from a validated set Z0, a move
/// (phi, tm) may fire when premise(phi) is validated and rhs(phi) is not;
/// firing validates rhs(phi) with tm[Bm]. Enabling depends only on
/// validated values and is monotone, so (a) a full batch saturation reaches
/// the maximal covered set, and (b) the fix is unique iff for every
/// attribute B, the *B-excluded* saturation (never validating B) proposes
/// at most one distinct value for B. Any move that actually fires targeting
/// B has B-independent premises, which makes (b) exact. See DESIGN.md 2.1.

#ifndef CERTFIX_CORE_SATURATION_H_
#define CERTFIX_CORE_SATURATION_H_

#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/fix_state.h"
#include "core/master_index.h"

namespace certfix {

/// \brief Two moves proposing distinct values for one attribute.
struct FixConflict {
  AttrId attr = 0;
  Value value_a;
  Value value_b;
  size_t rule_a = 0;
  size_t rule_b = 0;
  std::string ToString(const SchemaPtr& schema) const;
};

/// \brief Outcome of saturating a tuple.
struct SaturationResult {
  Tuple fixed;                       ///< Tuple after all applied moves.
  AttrSet covered;                   ///< Z0 plus every attribute fixed.
  bool unique = true;                ///< No conflicting proposals found.
  std::vector<FixMove> steps;        ///< Moves applied, in round order.
  std::vector<FixConflict> conflicts;

  /// Certain fix: unique and covering all of R (Sect. 3).
  bool CertainOver(const SchemaPtr& schema) const {
    return unique && covered == schema->AllAttrs();
  }
};

/// \brief Saturation engine bound to (Sigma, Dm) plus its hash indexes.
///
/// A check saturates on ids in per-thread scratch state: each attribute
/// holds a pointer to its current value (the input cell, or the master
/// summary value a move fixed it to), its master-pool id, bridged lazily
/// once per check, and its Value::Hash(), computed lazily for the probe
/// log. Runs copy no tuple and intern nothing; only the result of the full
/// run is materialized, once, at its end.
///
/// Thread safety: a fully constructed Saturator is safe for concurrent
/// use — Saturate / CheckUniqueFix keep all mutable state on the stack or
/// in thread-local scratch, the referenced RuleSet / Relation / MasterIndex
/// are never written, and the one lazily initialized member (the Dom()
/// cache) is guarded by a mutex — with ONE storage-layer caveat: the full
/// run's result interns its fixed values, once, into the *input tuple's*
/// ValuePool, which is not synchronized (value_pool.h). Concurrent
/// saturations are therefore safe only when each thread's input tuples
/// use a thread-owned pool — the parallel BatchRepair rebases every
/// shard's rows into a shard-local pool for exactly this reason.
/// Saturating tuples of one shared relation from multiple threads without
/// rebasing is a data race. (Single-threaded callers are unaffected, though
/// note that saturating rel.at(i) may append fix values to rel's pool — an
/// append-only, content-invisible mutation.) SetDomHint must not race with
/// readers.
class Saturator {
 public:
  Saturator(const RuleSet& rules, const Relation& dm,
            const MasterIndex& index)
      : rules_(&rules), dm_(&dm), index_(&index) {}

  /// Full saturation: applies rounds of enabled moves until fixpoint.
  /// Detects same-round conflicts only; `unique` is a *necessary* check
  /// here, the complete check is CheckUniqueFix below.
  SaturationResult Saturate(const Tuple& t, AttrSet z0) const;

  /// Exact unique-fix decision (and the fix itself when unique): full
  /// saturation plus one B-excluded saturation (never validating B) per
  /// covered target attribute B, stopping at the first conflict. Mirrors
  /// the consistency algorithm in the proof of Theorem 4.
  ///
  /// The result is the full run's: `fixed`, `covered` and `steps`, plus
  /// every conflict found. A conflict from an excluded run names the two
  /// rules that proposed distinct values for B, or, when the excluded run
  /// itself met a same-round conflict, that run's conflicts.
  ///
  /// `bridge`, when given, must translate t's pool into the master pool;
  /// long-lived callers (BatchRepair shards) pass one bridge across many
  /// rows so each distinct input value is hashed once per shard, not once
  /// per row. Null (or a bridge over other pools) builds a per-call
  /// bridge. Each (rule, key) is probed once per check, across the full
  /// and the excluded runs. `probes`, when given, receives one hash per
  /// distinct probe, keys absent from the master included — the
  /// dependency set the incremental engine invalidates on (fix_state.h).
  SaturationResult CheckUniqueFix(const Tuple& t, AttrSet z0,
                                  PoolBridge* bridge = nullptr,
                                  ProbeLog* probes = nullptr) const;

  const RuleSet& rules() const { return *rules_; }
  const Relation& master() const { return *dm_; }
  const MasterIndex& index() const { return *index_; }

  /// Rules whose premises `z0` already validates (and with a non-empty
  /// lhs): exactly the rules round 1 of every saturation from `z0`
  /// probes the master for. Engines hand this list to
  /// MasterIndex::PrefetchRhsProbes when staging a block of tuples.
  std::vector<size_t> FirstRoundProbeRules(AttrSet z0) const;

  /// Active domain of (Sigma, Dm), computed once and cached. A hint set
  /// via SetDomHint (e.g. by Suggest, which creates short-lived saturators
  /// over refined rule sets) takes precedence; any superset of the true
  /// active domain is sound for fresh-value generation.
  const std::set<Value>& Dom() const;
  void SetDomHint(const std::set<Value>* dom) { dom_hint_ = dom; }

 private:
  const RuleSet* rules_;
  const Relation* dm_;
  const MasterIndex* index_;
  const std::set<Value>* dom_hint_ = nullptr;
  mutable std::mutex dom_mutex_;  ///< guards dom_cache_ initialization
  mutable std::optional<std::set<Value>> dom_cache_;
};

}  // namespace certfix

#endif  // CERTFIX_CORE_SATURATION_H_
