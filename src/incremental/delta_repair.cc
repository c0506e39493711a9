#include "incremental/delta_repair.h"

#include <algorithm>

#include "analysis/analyzer.h"
#include "core/repair_memo.h"
#include "telemetry/trace.h"
#include "util/thread_pool.h"

namespace certfix {

namespace {
/// Jobs staged per probe block (see batch_repair.cc): one PopBatch hands
/// a worker up to this many tuples whose memo and master-index buckets
/// are prefetched together before any repair runs.
constexpr size_t kProbeBlock = 32;
}  // namespace

DeltaMetrics::DeltaMetrics() {
  telemetry::Registry* reg = telemetry::Registry::Global();
  deltas_applied = reg->GetCounter("delta.deltas_applied");
  tuples_repaired = reg->GetCounter("delta.tuples_repaired");
  tuples_invalidated = reg->GetCounter("delta.tuples_invalidated");
  master_rebuilds = reg->GetCounter("delta.master_rebuilds");
  noop_updates = reg->GetCounter("delta.noop_updates");
  memo_hits = reg->GetCounter("delta.memo_hits");
  memo_misses = reg->GetCounter("delta.memo_misses");
  pool_recycles = reg->GetCounter("delta.pool_recycles");
  fully_covered = reg->GetGauge("delta.fully_covered");
  partial = reg->GetGauge("delta.partial");
  untouched = reg->GetGauge("delta.untouched");
  conflicting = reg->GetGauge("delta.conflicting");
  cells_changed = reg->GetGauge("delta.cells_changed");
  max_reorder_global = reg->GetMaxGauge("delta.max_reorder");
  baseline.deltas_applied = deltas_applied->Value();
  baseline.tuples_repaired = tuples_repaired->Value();
  baseline.tuples_invalidated = tuples_invalidated->Value();
  baseline.master_rebuilds = master_rebuilds->Value();
  baseline.noop_updates = noop_updates->Value();
  baseline.memo_hits = memo_hits->Value();
  baseline.memo_misses = memo_misses->Value();
  baseline.pool_recycles = pool_recycles->Value();
  baseline.fully_covered = static_cast<uint64_t>(fully_covered->Value());
  baseline.partial = static_cast<uint64_t>(partial->Value());
  baseline.untouched = static_cast<uint64_t>(untouched->Value());
  baseline.conflicting = static_cast<uint64_t>(conflicting->Value());
  baseline.cells_changed = static_cast<uint64_t>(cells_changed->Value());
}

DeltaRepairStats DeltaMetrics::Snapshot(uint64_t rows) const {
  DeltaRepairStats s;
  s.deltas_applied = deltas_applied->Value() - baseline.deltas_applied;
  s.tuples_repaired = tuples_repaired->Value() - baseline.tuples_repaired;
  s.tuples_invalidated =
      tuples_invalidated->Value() - baseline.tuples_invalidated;
  s.master_rebuilds = master_rebuilds->Value() - baseline.master_rebuilds;
  s.noop_updates = noop_updates->Value() - baseline.noop_updates;
  s.rows = rows;
  s.fully_covered =
      static_cast<uint64_t>(fully_covered->Value()) - baseline.fully_covered;
  s.partial = static_cast<uint64_t>(partial->Value()) - baseline.partial;
  s.untouched =
      static_cast<uint64_t>(untouched->Value()) - baseline.untouched;
  s.conflicting =
      static_cast<uint64_t>(conflicting->Value()) - baseline.conflicting;
  s.cells_changed =
      static_cast<uint64_t>(cells_changed->Value()) - baseline.cells_changed;
  s.memo_hits = memo_hits->Value() - baseline.memo_hits;
  s.memo_misses = memo_misses->Value() - baseline.memo_misses;
  s.max_reorder = max_reorder.Value();
  s.pool_recycles = pool_recycles->Value() - baseline.pool_recycles;
  return s;
}

namespace {
/// Private master copy for the copying constructor: the engine mutates
/// its master on kMaster* deltas, and the single-writer pool contract
/// forbids sharing the caller's pool for that.
Relation CopyToPrivatePool(const Relation& master) {
  Relation copy(master.schema());
  copy.Reserve(master.size());
  for (size_t i = 0; i < master.size(); ++i) {
    (void)copy.Append(master.at(i));  // same schema by construction
  }
  return copy;
}
}  // namespace

DeltaRepairEngine::DeltaRepairEngine(const RuleSet& rules,
                                     const Relation& master, AttrSet trusted,
                                     DeltaRepairOptions options)
    : DeltaRepairEngine(rules, CopyToPrivatePool(master), trusted, options) {}

DeltaRepairEngine::DeltaRepairEngine(const RuleSet& rules, Relation&& master,
                                     AttrSet trusted,
                                     DeltaRepairOptions options)
    : rules_(&rules),
      schema_(rules.r_schema()),
      master_schema_(rules.rm_schema()),
      trusted_(trusted),
      all_(rules.r_schema()->AllAttrs()),
      options_(options),
      graph_(rules),
      summary_(graph_, trusted),
      master_(std::move(master)),
      input_(schema_),
      repaired_(schema_) {
  index_ = std::make_unique<MasterIndex>(*rules_, master_, options_.index_kind);
  sat_ = std::make_unique<Saturator>(*rules_, master_, *index_);

  // The analyze_first gate runs before any worker exists: a strict
  // rejection leaves the engine inert with the verdict in
  // precheck_status_ — every mutator returns it via CheckLive.
  precheck_status_ = GateRuleset(*sat_, trusted_, options_.analyze_first,
                                 "DeltaRepairEngine");
  if (!precheck_status_.ok()) return;

  size_t shards = options_.num_shards == 0 ? DefaultParallelism()
                                           : options_.num_shards;
  shards = std::min(shards, std::max<size_t>(16, 2 * DefaultParallelism()));
  if (options_.queue_capacity < 1) options_.queue_capacity = 1;
  if (shards > 1) {
    window_ = static_cast<uint64_t>(shards) * options_.queue_capacity;
    queues_.reserve(shards);
    for (size_t s = 0; s < shards; ++s) {
      queues_.push_back(
          std::make_unique<BoundedQueue<Job>>(options_.queue_capacity));
    }
    workers_.reserve(shards);
    try {
      for (size_t s = 0; s < shards; ++s) {
        workers_.emplace_back([this, s] { WorkerLoop(s); });
      }
    } catch (const std::system_error&) {
      // Thread-resource exhaustion mid-spawn (same stance as the stream
      // engine): run with the workers that did start, or fall back to the
      // inline path when none did.
      queues_.resize(workers_.size());
      window_ = static_cast<uint64_t>(queues_.size()) * options_.queue_capacity;
    }
  }
}

DeltaRepairEngine::~DeltaRepairEngine() {
  for (auto& q : queues_) q->Close();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

size_t DeltaRepairEngine::num_shards() const {
  return queues_.empty() ? 1 : queues_.size();
}

Status DeltaRepairEngine::CheckLive() {
  if (!precheck_status_.ok()) return precheck_status_;
  std::lock_guard<std::mutex> lock(merge_mutex_);
  if (failed_) {
    return Status::Internal(
        "delta engine worker failed; Flush() rethrows the cause");
  }
  return Status::OK();
}

Status DeltaRepairEngine::MasterSchemaCheck(const Tuple& t) const {
  if (t.schema().get() != master_schema_.get() &&
      !t.schema()->Equals(*master_schema_)) {
    return Status::InvalidArgument(
        "tuple schema does not match master schema " + master_schema_->name());
  }
  return Status::OK();
}

Status DeltaRepairEngine::InputSchemaCheck(const Tuple& t) const {
  if (t.schema().get() != schema_.get() && !t.schema()->Equals(*schema_)) {
    return Status::InvalidArgument("tuple schema does not match relation " +
                                   schema_->name());
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Pipeline

bool DeltaRepairEngine::Admit(uint64_t* seq) {
  if (workers_.empty()) {
    *seq = next_seq_++;
    return true;
  }
  std::unique_lock<std::mutex> lock(merge_mutex_);
  if (in_flight_ >= window_) {
    progress_.wait(lock, [this] { return in_flight_ < window_ || failed_; });
  }
  if (failed_) return false;
  *seq = next_seq_++;
  ++in_flight_;
  return true;
}

Status DeltaRepairEngine::EnqueueRepair(uint32_t slot) {
  CERTFIX_SPAN("delta.ingest");
  metrics_.tuples_repaired->Increment();
  Job job;
  job.slot = slot;
  job.epoch = sat_epoch_;
  job.sat = sat_.get();
  job.flush = memo_flush_head_;
  job.values.reserve(schema_->num_attrs());
  for (size_t a = 0; a < schema_->num_attrs(); ++a) {
    job.values.push_back(input_.Cell(slot, static_cast<AttrId>(a)));
  }
  if (!Admit(&job.seq)) {
    return Status::Internal("delta engine worker failed");
  }
  if (workers_.empty()) {
    RepairInline(job);
    return Status::OK();
  }
  if (!queues_[slot % queues_.size()]->Push(std::move(job))) {
    std::lock_guard<std::mutex> lock(merge_mutex_);
    --in_flight_;
    return Status::Internal("delta engine worker failed");
  }
  return Status::OK();
}

void DeltaRepairEngine::ApplyMemoFlush(RepairMemo* memo,
                                       const MemoFlush* head,
                                       uint64_t last_epoch) {
  if (memo->entries() == 0) return;  // nothing cached, nothing stale
  // Collect the nodes published since this repair context last ran. The
  // chain is newest-first; epochs are consecutive, so completeness means
  // the oldest collected node is exactly last_epoch + 1.
  std::vector<const MemoFlush*> nodes;
  for (const MemoFlush* n = head; n != nullptr && n->epoch > last_epoch;
       n = n->prev.get()) {
    nodes.push_back(n);
  }
  if (nodes.empty() || nodes.back()->epoch != last_epoch + 1) {
    // The depth cap cut the chain before it reached us: some invalidation
    // is unrecoverable, so drop everything rather than risk a stale hit.
    memo->Clear();
    return;
  }
  for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) {
    memo->FlushProbes((*it)->hashes);
  }
}

void DeltaRepairEngine::RepairInline(const Job& job) {
  CERTFIX_SPAN("delta.shard_repair");
  if (options_.use_memo && local_memo_ == nullptr) {
    local_memo_ = std::make_unique<RepairMemo>(*rules_, trusted_);
  }
  if (local_pool_ == nullptr) local_pool_ = std::make_shared<ValuePool>();
  if (local_epoch_ != job.epoch || local_bridge_ == nullptr) {
    // Master rebuilt: the pool (and the memo keyed on its ids) survive;
    // only the bridge cache and the flushed memo entries go. The caller
    // thread runs this, so reading memo_flush_head_ directly is safe.
    local_bridge_ = std::make_unique<PoolBridge>(
        local_pool_.get(), job.sat->index().pool().get());
    if (local_memo_ != nullptr) {
      ApplyMemoFlush(local_memo_.get(), memo_flush_head_.get(), local_epoch_);
    }
    local_epoch_ = job.epoch;
  }
  if (local_pool_->size() > options_.pool_recycle_values) {
    local_pool_ = std::make_shared<ValuePool>();
    local_bridge_ = std::make_unique<PoolBridge>(
        local_pool_.get(), job.sat->index().pool().get());
    if (local_memo_ != nullptr) local_memo_->Clear();
    metrics_.pool_recycles->Increment();
  }
  Tuple row(schema_, local_pool_);
  for (size_t a = 0; a < job.values.size(); ++a) {
    row.Set(static_cast<AttrId>(a), job.values[a]);
  }
  ProbeLog probes;
  const uint64_t hits_before =
      local_memo_ != nullptr ? local_memo_->hits() : 0;
  TupleRepair r = RepairOneTuple(*job.sat, row, trusted_, all_,
                                 local_bridge_.get(), &probes,
                                 local_memo_.get());
  Done done;
  done.seq = job.seq;
  done.slot = job.slot;
  done.report = r.report;
  done.probes = std::move(probes.hashes);
  if (local_memo_ != nullptr) {
    done.memo = local_memo_->hits() > hits_before ? 1 : 0;
  }
  const Tuple& emit = r.report.conflicting() ? row : r.fixed;
  done.fixed.reserve(schema_->num_attrs());
  for (size_t a = 0; a < schema_->num_attrs(); ++a) {
    done.fixed.push_back(emit.at(static_cast<AttrId>(a)));
  }
  std::lock_guard<std::mutex> lock(merge_mutex_);
  ApplyResult(done);
  ++next_apply_;
}

void DeltaRepairEngine::WorkerLoop(size_t shard) {
  try {
    PoolPtr pool = std::make_shared<ValuePool>();
    std::unique_ptr<PoolBridge> bridge;
    std::unique_ptr<RepairMemo> memo;
    if (options_.use_memo) {
      memo = std::make_unique<RepairMemo>(*rules_, trusted_);
    }
    uint64_t epoch = ~0ULL;
    std::vector<size_t> first_round;
    std::vector<Job> batch;
    std::vector<Tuple> rows;
    ProbeLog probes;
    batch.reserve(kProbeBlock);
    rows.reserve(kProbeBlock);
    while (queues_[shard]->PopBatch(&batch, kProbeBlock) > 0) {
      CERTFIX_SPAN("delta.shard_repair");
      // Master deltas drain the pipeline before the epoch advances, so a
      // ring never holds jobs of two epochs at once — one check covers
      // the whole batch.
      const Saturator& sat = *batch.front().sat;
      if (epoch != batch.front().epoch || bridge == nullptr) {
        // New epoch = the master (and its pool) changed under a rebuild
        // barrier; the ring's mutex published the new saturator. The
        // shard pool (and the memo keyed on its ids) survive — only the
        // bridge cache and the flushed memo entries go.
        bridge = std::make_unique<PoolBridge>(pool.get(),
                                              sat.index().pool().get());
        if (memo != nullptr) {
          ApplyMemoFlush(memo.get(), batch.front().flush.get(), epoch);
        }
        epoch = batch.front().epoch;
        first_round = sat.FirstRoundProbeRules(trusted_);
      }
      // The recycle check runs once per batch, before any row is built:
      // a mid-batch reset would mix pools within one staged block.
      if (pool->size() > options_.pool_recycle_values) {
        pool = std::make_shared<ValuePool>();
        bridge = std::make_unique<PoolBridge>(pool.get(),
                                              sat.index().pool().get());
        if (memo != nullptr) memo->Clear();
        metrics_.pool_recycles->Increment();
      }
      // Stage: materialize the batch's rows, prefetching each row's memo
      // bucket and round-1 value-summary buckets...
      for (Job& job : batch) {
        Tuple row(schema_, pool);
        for (size_t a = 0; a < job.values.size(); ++a) {
          row.Set(static_cast<AttrId>(a), std::move(job.values[a]));
        }
        if (memo != nullptr) memo->Prefetch(row);
        sat.index().PrefetchRhsProbes(row, first_round, bridge.get());
        rows.push_back(std::move(row));
      }
      // ...then resolve: repair in seq order while lines are in flight.
      for (size_t j = 0; j < rows.size(); ++j) {
        const Tuple& row = rows[j];
        probes.Clear();
        const uint64_t hits_before = memo != nullptr ? memo->hits() : 0;
        TupleRepair r = RepairOneTuple(sat, row, trusted_, all_,
                                       bridge.get(), &probes, memo.get());
        Done done;
        done.seq = batch[j].seq;
        done.slot = batch[j].slot;
        done.report = r.report;
        // An exact-size copy; the log keeps its capacity for the next row.
        done.probes = probes.hashes;
        if (memo != nullptr) {
          done.memo = memo->hits() > hits_before ? 1 : 0;
        }
        // Results cross the merge boundary as owned Values (conflicting
        // rows re-emit their input), exactly like the stream engine's
        // records.
        const Tuple& emit = r.report.conflicting() ? row : r.fixed;
        done.fixed.reserve(schema_->num_attrs());
        for (size_t a = 0; a < schema_->num_attrs(); ++a) {
          done.fixed.push_back(emit.at(static_cast<AttrId>(a)));
        }
        ApplyOrdered(std::move(done));
      }
      batch.clear();
      rows.clear();
    }
  } catch (...) {
    Fail(std::current_exception());
  }
}

void DeltaRepairEngine::ApplyOrdered(Done done) {
  CERTFIX_SPAN("delta.merge");
  std::unique_lock<std::mutex> lock(merge_mutex_);
  pending_.emplace(done.seq, std::move(done));
  metrics_.NoteReorderDepth(pending_.size());
  uint64_t applied = 0;
  while (!pending_.empty() && pending_.begin()->first == next_apply_) {
    Done d = std::move(pending_.begin()->second);
    pending_.erase(pending_.begin());
    ApplyResult(d);
    ++next_apply_;
    ++applied;
  }
  if (applied > 0) {
    in_flight_ -= applied;
    progress_.notify_all();
  }
}

void DeltaRepairEngine::AddClass(uint8_t cls, int delta) {
  switch (static_cast<FixClass>(cls)) {
    case FixClass::kFullyCovered:
      metrics_.fully_covered->Add(delta);
      break;
    case FixClass::kPartial:
      metrics_.partial->Add(delta);
      break;
    case FixClass::kUntouched:
      metrics_.untouched->Add(delta);
      break;
    case FixClass::kConflicting:
      metrics_.conflicting->Add(delta);
      break;
  }
}

void DeltaRepairEngine::UnregisterProbes(uint32_t slot) {
  for (uint64_t h : slot_probes_[slot]) {
    auto it = probe_to_slots_.find(h);
    if (it == probe_to_slots_.end()) continue;
    auto& v = it->second;
    v.erase(std::remove(v.begin(), v.end(), slot), v.end());
    if (v.empty()) probe_to_slots_.erase(it);
  }
  slot_probes_[slot] = std::vector<uint64_t>();  // dead slots keep nothing
}

void DeltaRepairEngine::ApplyResult(Done& d) {
  uint32_t slot = d.slot;
  // Memo tallies count every finished repair, even one whose slot died
  // in flight — they measure saturation work saved, not live state.
  if (d.memo == 1) metrics_.memo_hits->Increment();
  if (d.memo == 0) metrics_.memo_misses->Increment();
  if (slot_class_[slot] == kDeadClass) {
    return;  // deleted while the repair was in flight
  }
  UnregisterProbes(slot);
  std::sort(d.probes.begin(), d.probes.end());
  d.probes.erase(std::unique(d.probes.begin(), d.probes.end()),
                 d.probes.end());
  d.probes.shrink_to_fit();  // held per live row: keep no slack
  for (uint64_t h : d.probes) probe_to_slots_[h].push_back(slot);
  slot_probes_[slot] = std::move(d.probes);

  for (size_t a = 0; a < d.fixed.size(); ++a) {
    AttrId attr = static_cast<AttrId>(a);
    if (repaired_.Cell(slot, attr) != d.fixed[a]) {
      repaired_.SetCell(slot, attr, std::move(d.fixed[a]));
    }
  }

  if (slot_class_[slot] != kPendingClass) AddClass(slot_class_[slot], -1);
  slot_class_[slot] = static_cast<uint8_t>(d.report.kind);
  AddClass(slot_class_[slot], +1);
  metrics_.cells_changed->Add(static_cast<int64_t>(d.report.cells_changed) -
                              slot_cells_[slot]);
  slot_cells_[slot] = static_cast<uint32_t>(d.report.cells_changed);
}

void DeltaRepairEngine::Fail(std::exception_ptr error) {
  {
    std::lock_guard<std::mutex> lock(merge_mutex_);
    if (!first_error_) first_error_ = error;
    failed_ = true;
  }
  progress_.notify_all();
  for (auto& q : queues_) q->Close();
}

void DeltaRepairEngine::DrainPipeline() {
  if (!workers_.empty()) {
    std::unique_lock<std::mutex> lock(merge_mutex_);
    progress_.wait(lock, [this] { return in_flight_ == 0 || failed_; });
  }
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(merge_mutex_);
    error = first_error_;
    first_error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

void DeltaRepairEngine::Flush() {
  Status st = EnsureIndexFresh();  // may enqueue invalidated re-repairs
  DrainPipeline();
  if (!st.ok()) {
    throw std::runtime_error(st.ToString());
  }
}

// ---------------------------------------------------------------------------
// Input deltas

Status DeltaRepairEngine::EnsureIndexFresh() {
  if (!index_stale_) return Status::OK();
  CERTFIX_SPAN("delta.rebuild");
  // A master delta staled the index. The pipeline is already quiescent
  // (master mutations drain it), so no worker can be probing the old one.
  index_ = std::make_unique<MasterIndex>(*rules_, master_, options_.index_kind);
  sat_ = std::make_unique<Saturator>(*rules_, master_, *index_);
  ++sat_epoch_;
  metrics_.master_rebuilds->Increment();
  index_stale_ = false;
  if (options_.use_memo) {
    // Publish this epoch's memo invalidation. A node exists for every
    // epoch — even an empty one — so a worker can prove its flush chain
    // is gapless down to the epoch it last saw.
    auto node = std::make_shared<MemoFlush>();
    node->epoch = sat_epoch_;
    node->hashes = std::move(pending_memo_flush_);
    pending_memo_flush_.clear();
    node->prev = memo_flush_head_;
    memo_flush_head_ = std::move(node);
    // Cap the chain. The cut mutates a node others may hold refs to, but
    // the pipeline is quiescent here (master deltas drained it) and no
    // worker dereferences its chain outside batch start, so nothing
    // races; workers cut off simply Clear() when they next run.
    MemoFlush* n = memo_flush_head_.get();
    for (size_t depth = 1; n->prev != nullptr; ++depth) {
      if (depth >= kMaxFlushChain) {
        n->prev.reset();
        break;
      }
      n = n->prev.get();
    }
  }
  std::vector<uint32_t> dirty(dirty_slots_.begin(), dirty_slots_.end());
  dirty_slots_.clear();
  metrics_.tuples_invalidated->Add(dirty.size());
  for (uint32_t slot : dirty) {
    CERTFIX_RETURN_IF_ERROR(EnqueueRepair(slot));
  }
  return Status::OK();
}

Status DeltaRepairEngine::Insert(const Tuple& t) {
  CERTFIX_RETURN_IF_ERROR(CheckLive());
  CERTFIX_RETURN_IF_ERROR(EnsureIndexFresh());
  uint32_t slot = static_cast<uint32_t>(input_.size());
  CERTFIX_RETURN_IF_ERROR(input_.Append(t));
  {
    std::lock_guard<std::mutex> lock(merge_mutex_);
    // Placeholder: input values until the job lands.
    repaired_.Append(t);  // contract-lint: allow(status-discard) schema-checked on entry
    slot_probes_.emplace_back();
    slot_class_.push_back(kPendingClass);
    slot_cells_.push_back(0);
  }
  order_.push_back(slot);
  metrics_.deltas_applied->Increment();
  return EnqueueRepair(slot);
}

Status DeltaRepairEngine::Update(size_t pos, const Tuple& t) {
  CERTFIX_RETURN_IF_ERROR(CheckLive());
  if (pos >= order_.size()) {
    return Status::InvalidArgument("update position " + std::to_string(pos) +
                                   " out of range (rows: " +
                                   std::to_string(order_.size()) + ")");
  }
  // Unlike Insert (where Relation::Append validates), UpdateRow indexes
  // the tuple by this schema's attrs unchecked — validate here.
  CERTFIX_RETURN_IF_ERROR(InputSchemaCheck(t));
  CERTFIX_RETURN_IF_ERROR(EnsureIndexFresh());
  uint32_t slot = order_[pos];
  AttrSet changed = input_.UpdateRow(slot, t);
  metrics_.deltas_applied->Increment();
  if (changed.Empty()) {
    // Cell-level dirty tracking: the row is byte-identical, its repair is
    // still exact — nothing to invalidate.
    metrics_.noop_updates->Increment();
    return Status::OK();
  }
  return EnqueueRepair(slot);
}

Status DeltaRepairEngine::Delete(size_t pos) {
  CERTFIX_RETURN_IF_ERROR(CheckLive());
  if (pos >= order_.size()) {
    return Status::InvalidArgument("delete position " + std::to_string(pos) +
                                   " out of range (rows: " +
                                   std::to_string(order_.size()) + ")");
  }
  uint32_t slot = order_[pos];
  order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(pos));
  dirty_slots_.erase(slot);
  {
    std::lock_guard<std::mutex> lock(merge_mutex_);
    UnregisterProbes(slot);
    if (slot_class_[slot] != kPendingClass) AddClass(slot_class_[slot], -1);
    metrics_.cells_changed->Add(-static_cast<int64_t>(slot_cells_[slot]));
    slot_cells_[slot] = 0;
    slot_class_[slot] = kDeadClass;
  }
  metrics_.deltas_applied->Increment();
  return Status::OK();
}

Status DeltaRepairEngine::Load(const Relation& input) {
  for (size_t i = 0; i < input.size(); ++i) {
    CERTFIX_RETURN_IF_ERROR(Insert(input.at(i)));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Master deltas

void DeltaRepairEngine::InvalidateMasterRow(
    size_t row, const std::vector<size_t>& rule_idxs) {
  for (size_t i : rule_idxs) {
    uint64_t h = MasterProbeKeyHash(i, master_, row, rules_->at(i).lhsm());
    // Every affected hash joins the next epoch's memo flush, whether or
    // not a live slot depends on it right now: shard memos also hold
    // entries for rows since deleted or updated, and for rows on rings
    // this thread knows nothing about.
    if (options_.use_memo) pending_memo_flush_.push_back(h);
    auto it = probe_to_slots_.find(h);
    if (it == probe_to_slots_.end()) continue;
    for (uint32_t slot : it->second) {
      if (slot_class_[slot] != kDeadClass) dirty_slots_.insert(slot);
    }
  }
}

Status DeltaRepairEngine::MasterInsert(const Tuple& t) {
  CERTFIX_RETURN_IF_ERROR(CheckLive());
  CERTFIX_RETURN_IF_ERROR(MasterSchemaCheck(t));
  DrainPipeline();
  CERTFIX_RETURN_IF_ERROR(master_.Append(t));
  {
    // A new master row can answer any rule's probe for its key.
    std::lock_guard<std::mutex> lock(merge_mutex_);
    std::vector<size_t> every(rules_->size());
    for (size_t i = 0; i < every.size(); ++i) every[i] = i;
    InvalidateMasterRow(master_.size() - 1, every);
  }
  index_stale_ = true;
  metrics_.deltas_applied->Increment();
  return Status::OK();
}

Status DeltaRepairEngine::MasterUpdate(size_t pos, const Tuple& t) {
  CERTFIX_RETURN_IF_ERROR(CheckLive());
  CERTFIX_RETURN_IF_ERROR(MasterSchemaCheck(t));
  if (pos >= master_.size()) {
    return Status::InvalidArgument(
        "master update position " + std::to_string(pos) +
        " out of range (rows: " + std::to_string(master_.size()) + ")");
  }
  // The changed mask only *reads* master_ cells (workers never write the
  // master), so a self-identical upsert is detected and skipped without
  // paying the drain barrier. Mutating master_ below does require
  // quiescence: interning into its pool would race worker probes.
  AttrSet changed;
  for (size_t a = 0; a < master_schema_->num_attrs(); ++a) {
    AttrId attr = static_cast<AttrId>(a);
    if (master_.Cell(pos, attr) != t.at(attr)) changed.Add(attr);
  }
  metrics_.deltas_applied->Increment();
  if (changed.Empty()) {
    metrics_.noop_updates->Increment();
    return Status::OK();
  }
  DrainPipeline();
  // Only rules whose master side reads a changed attribute can answer
  // differently — and only for the row's old or new key. The summary's
  // precomputed per-attribute rule lists front the graph walk here.
  std::vector<size_t> affected = summary_.RulesReadingMasterAttrs(changed);
  {
    std::lock_guard<std::mutex> lock(merge_mutex_);
    InvalidateMasterRow(pos, affected);  // old projections
  }
  master_.UpdateRow(pos, t);
  {
    std::lock_guard<std::mutex> lock(merge_mutex_);
    InvalidateMasterRow(pos, affected);  // new projections
  }
  if (!affected.empty()) index_stale_ = true;
  return Status::OK();
}

Status DeltaRepairEngine::MasterDelete(size_t pos) {
  CERTFIX_RETURN_IF_ERROR(CheckLive());
  if (pos >= master_.size()) {
    return Status::InvalidArgument(
        "master delete position " + std::to_string(pos) +
        " out of range (rows: " + std::to_string(master_.size()) + ")");
  }
  DrainPipeline();
  {
    std::lock_guard<std::mutex> lock(merge_mutex_);
    std::vector<size_t> every(rules_->size());
    for (size_t i = 0; i < every.size(); ++i) every[i] = i;
    InvalidateMasterRow(pos, every);
  }
  // Relations have no erase; rebuild the master without the row. The
  // MasterIndex rebuild right after is O(|Dm|) anyway. Old index/saturator
  // reference the dropped relation — destroy them before it goes away.
  index_.reset();
  sat_.reset();
  Relation next(master_schema_);
  next.Reserve(master_.size() - 1);
  for (size_t i = 0; i < master_.size(); ++i) {
    if (i != pos) next.Append(master_.at(i));
  }
  master_ = std::move(next);
  index_stale_ = true;
  metrics_.deltas_applied->Increment();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Parse-level entry points

Status DeltaRepairEngine::Apply(const Delta& delta) {
  switch (delta.kind) {
    case DeltaKind::kInsert: {
      CERTFIX_ASSIGN_OR_RETURN(Tuple t,
                               Tuple::FromStrings(schema_, delta.fields));
      return Insert(t);
    }
    case DeltaKind::kUpdate: {
      CERTFIX_ASSIGN_OR_RETURN(Tuple t,
                               Tuple::FromStrings(schema_, delta.fields));
      return Update(delta.row, t);
    }
    case DeltaKind::kDelete:
      return Delete(delta.row);
    case DeltaKind::kMasterInsert: {
      CERTFIX_ASSIGN_OR_RETURN(
          Tuple t, Tuple::FromStrings(master_schema_, delta.fields));
      return MasterInsert(t);
    }
    case DeltaKind::kMasterUpdate: {
      CERTFIX_ASSIGN_OR_RETURN(
          Tuple t, Tuple::FromStrings(master_schema_, delta.fields));
      return MasterUpdate(delta.row, t);
    }
    case DeltaKind::kMasterDelete:
      return MasterDelete(delta.row);
  }
  return Status::InvalidArgument("unknown delta kind");
}

Status DeltaRepairEngine::ApplyAll(DeltaSource* source) {
  Delta delta;
  for (;;) {
    CERTFIX_ASSIGN_OR_RETURN(bool got, source->Next(&delta));
    if (!got) return Status::OK();
    CERTFIX_RETURN_IF_ERROR(Apply(delta));
  }
}

// ---------------------------------------------------------------------------
// Reads

Relation DeltaRepairEngine::SnapshotRepaired() {
  Flush();
  CERTFIX_SPAN("delta.sink");
  Relation out(schema_);
  out.Reserve(order_.size());
  for (uint32_t slot : order_) out.Append(repaired_.at(slot));
  return out;
}

Relation DeltaRepairEngine::SnapshotInput() {
  Flush();
  Relation out(schema_);
  out.Reserve(order_.size());
  for (uint32_t slot : order_) out.Append(input_.at(slot));
  return out;
}

std::vector<size_t> DeltaRepairEngine::ConflictPositions() {
  Flush();
  std::vector<size_t> out;
  for (size_t pos = 0; pos < order_.size(); ++pos) {
    if (slot_class_[order_[pos]] ==
        static_cast<uint8_t>(FixClass::kConflicting)) {
      out.push_back(pos);
    }
  }
  return out;
}

DeltaRepairStats DeltaRepairEngine::stats() {
  Flush();
  return metrics_.Snapshot(order_.size());
}

}  // namespace certfix
