/// \file fix_state.h
/// \brief Single-step fix semantics: states, enabled moves, and application
/// (the t ->((Z,Tc),phi,tm) t' relation of Sect. 3).

#ifndef CERTFIX_CORE_FIX_STATE_H_
#define CERTFIX_CORE_FIX_STATE_H_

#include <string>
#include <vector>

#include "core/master_index.h"
#include "relational/attr_set.h"
#include "rules/rule_set.h"

namespace certfix {

/// \brief One justified rule application: rule `rule_idx` with master tuple
/// `master_idx` sets attribute `attr` to `value`.
struct FixMove {
  size_t rule_idx = 0;
  size_t master_idx = 0;
  AttrId attr = 0;
  Value value;
};

/// \brief Dependency record of one repair: every distinct master-index
/// probe the saturation performed, as (rule, key-values) hashes.
///
/// A repair is a deterministic function of the input tuple, Z0, Sigma, and
/// the answers to the RhsValues probes it issues; if none of a tuple's
/// recorded probes has a changed answer after a master-data delta, replaying
/// the repair takes the identical path and produces the identical fix. The
/// incremental engine (src/incremental/) therefore re-repairs exactly the
/// tuples holding an affected probe hash. Hash collisions only ever
/// over-invalidate (an extra re-repair), never under-invalidate.
///
/// Saturator::CheckUniqueFix probes each (rule, key) once per check, across
/// its full and excluded runs, so it adds one hash per distinct probe —
/// keys absent from the master included — and never a duplicate.
struct ProbeLog {
  std::vector<uint64_t> hashes;

  void Add(uint64_t h) { hashes.push_back(h); }
  void Clear() { hashes.clear(); }
};

/// Hash of one probe: rule `rule_idx` keyed by t[attrs] (input side,
/// `attrs` = lhs(phi)), given as the cell hashes t[attrs[k]].Hash() in
/// list order. Must stay consistent with MasterProbeKeyHash — equal value
/// lists under the same rule produce equal hashes, which is what ties a
/// recorded input-side probe to a master-side row projection.
uint64_t ProbeKeyHash(size_t rule_idx,
                      const std::vector<uint64_t>& cell_hashes);

/// Hash of the probe key a master row answers for rule `rule_idx`:
/// dm[row][attrs] with `attrs` = lhsm(phi). |lhs| == |lhsm| and the
/// correspondence is positional, so a master row matches a recorded probe
/// iff the value lists are equal — iff the hashes are equal (modulo
/// collisions, which are sound).
uint64_t MasterProbeKeyHash(size_t rule_idx, const Relation& dm, size_t row,
                            const std::vector<AttrId>& attrs);

/// \brief The evolving state of a fixing process: the current tuple and the
/// validated attribute set Z. Z only grows; an attribute's value changes at
/// most once (when it enters Z via a move) — the monotonicity that makes
/// the uniqueness analysis of saturation.h exact.
class FixState {
 public:
  FixState(Tuple t, AttrSet z0) : tuple_(std::move(t)), z_(z0), z0_(z0) {}

  const Tuple& tuple() const { return tuple_; }
  AttrSet validated() const { return z_; }
  AttrSet initial() const { return z0_; }
  const std::vector<FixMove>& applied() const { return applied_; }

  /// A move is enabled iff premise(phi) is validated, rhs(phi) is not,
  /// t matches tp, and t[X] = tm[Xm] (Sect. 3's justified application).
  bool IsEnabled(const RuleSet& rules, const Relation& dm,
                 const FixMove& move) const;

  /// All enabled moves under the current state.
  std::vector<FixMove> EnabledMoves(const RuleSet& rules,
                                    const MasterIndex& index) const;

  /// Applies an enabled move: t[B] := tm[Bm], Z := Z + {B}.
  void Apply(const RuleSet& rules, const FixMove& move);

  /// True if no move is enabled (the fixpoint condition of Sect. 3).
  bool IsFixpoint(const RuleSet& rules, const MasterIndex& index) const {
    return EnabledMoves(rules, index).empty();
  }

 private:
  Tuple tuple_;
  AttrSet z_;
  AttrSet z0_;
  std::vector<FixMove> applied_;
};

}  // namespace certfix

#endif  // CERTFIX_CORE_FIX_STATE_H_
