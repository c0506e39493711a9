/// \file master_index.h
/// \brief Per-rule hash indexes into the master relation.

#ifndef CERTFIX_CORE_MASTER_INDEX_H_
#define CERTFIX_CORE_MASTER_INDEX_H_

#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "relational/flat_key_index.h"
#include "relational/key_index.h"
#include "rules/rule_set.h"

namespace certfix {

/// \brief Which hash-table implementation backs the master indexes.
///
/// kFlat is the default everywhere; kMap keeps the node-based
/// std::unordered_map path alive as the A/B oracle the differential
/// suites and `--index=map` runs compare against.
enum class IndexKind {
  kFlat,  ///< cache-line-bucketed open addressing (flat_key_index.h)
  kMap,   ///< legacy node-based std::unordered_map
};

/// \brief Indexes Dm so that, for each rule phi and input tuple t, the
/// master tuples tm with tm[Xm] = t[X] are found in constant time
/// (the hash tables of Sect. 5.1's complexity analysis).
///
/// Two structures per distinct key:
///  * a row index (key -> master row positions), shared by rules with the
///    same Xm list;
///  * a value summary (key -> distinct tm[Bm] values with one
///    representative row), shared by rules with the same (Xm, Bm). The
///    saturation engine consumes summaries, so a key matching thousands of
///    master rows costs O(#distinct values), not O(#rows).
///
/// The sharing constructor reuses the structures of an existing index for
/// a refined rule set (e.g. Sigma_t[Z], whose rules keep their Xm/Bm),
/// avoiding any O(|Dm|) work per Suggest call.
///
/// Thread safety: all index structures are built in the constructor and
/// never mutated afterwards; Candidates / RhsValues are pure lookups, so
/// a fully constructed MasterIndex is safe for concurrent read-only use
/// (the parallel BatchRepair shards share one instance). A PoolBridge
/// passed to the probe calls is per-thread state owned by the caller.
class MasterIndex {
 public:
  /// One distinct rhs value tm[Bm] with its master-pool id and a
  /// representative master row carrying it. The id lets the saturation
  /// engine compare proposals as integers.
  struct RhsValue {
    Value value;
    ValueId id = kNullValueId;
    size_t row = 0;
  };
  using RhsSummary = std::vector<RhsValue>;

  MasterIndex(const RuleSet& rules, const Relation& dm,
              IndexKind kind = IndexKind::kFlat);
  /// Shares row indexes and value summaries with `share_from` (must be
  /// built over the same Dm; the kind is inherited); only genuinely new
  /// (Xm, Bm) combinations are built fresh.
  MasterIndex(const RuleSet& rules, const Relation& dm,
              const MasterIndex& share_from);

  /// Master-row positions applicable to rule `rule_idx` given t's current
  /// values on lhs(phi) (pattern matching on t is the caller's concern).
  /// `bridge`, when given, must translate t's pool into the master pool.
  /// The span views index-owned storage and stays valid while the index
  /// lives.
  RowSpan Candidates(size_t rule_idx, const Tuple& t,
                     PoolBridge* bridge = nullptr) const;

  /// Distinct values tm[Bm] over the master rows whose Xm ids equal `key`
  /// (t[X] already projected into master-pool ids, in lhs order), each
  /// with one representative row. Size > 1 means conflicting master
  /// proposals. The index's one probe path: the saturation engine keys its
  /// per-check probe cache on these ids and calls this directly.
  const RhsSummary& RhsValuesByKey(size_t rule_idx, const IdKey& key) const;

  /// RhsValuesByKey on t's projection onto lhs(phi); empty when some
  /// projected value is absent from the master pool.
  const RhsSummary& RhsValues(size_t rule_idx, const Tuple& t,
                              PoolBridge* bridge = nullptr) const;

  /// Issues software prefetches for the value-summary buckets the given
  /// rules would probe on `t` — the staging half of the batched-probe
  /// pipeline (no-op on the map path). Callers pass the rules whose
  /// premises the trusted set already validates (round 1 of every
  /// saturation; see Saturator::FirstRoundProbeRules).
  void PrefetchRhsProbes(const Tuple& t, const std::vector<size_t>& rule_idxs,
                         PoolBridge* bridge = nullptr) const;

  const Relation& master() const { return *dm_; }
  /// The master relation's value pool (bridge targets point here).
  const PoolPtr& pool() const { return dm_->pool(); }
  size_t num_rules() const { return rule_to_index_.size(); }
  IndexKind kind() const { return kind_; }

 private:
  struct ValueIndex {
    // key (master-pool ids) -> distinct (value, id, representative row).
    // Exactly one of the two representations is populated, per kind.
    // contract-lint: allow(idkey-map) legacy kMap path, the flat A/B oracle
    std::unordered_map<IdKey, RhsSummary, IdKeyHash> map;
    FlatIdTable table;                  // flat path: key -> summaries slot
    std::vector<RhsSummary> summaries;  // flat path payload target
    RhsSummary all_rows_summary;        // for empty-X rules
  };

  void Build(const RuleSet& rules, const MasterIndex* share_from);
  static std::shared_ptr<ValueIndex> BuildValueIndex(
      const Relation& dm, const std::vector<AttrId>& xm, AttrId bm,
      IndexKind kind);

  const Relation* dm_;
  IndexKind kind_ = IndexKind::kFlat;
  std::vector<std::shared_ptr<KeyIndex>> indexes_;           // kMap
  std::vector<std::shared_ptr<FlatKeyIndex>> flat_indexes_;  // kFlat
  std::vector<std::shared_ptr<ValueIndex>> value_indexes_;
  std::map<std::vector<AttrId>, int> key_ids_;
  std::map<std::pair<std::vector<AttrId>, AttrId>, int> value_ids_;
  std::vector<int> rule_to_index_;        // -1 for empty-X rules
  std::vector<int> rule_to_value_;        // always >= 0
  std::vector<std::vector<AttrId>> probe_;  // per-rule X list
  std::vector<size_t> all_rows_;            // used by empty-X rules
  static const RhsSummary kEmptySummary;
};

}  // namespace certfix

#endif  // CERTFIX_CORE_MASTER_INDEX_H_
