/// \file certbench.cc
/// \brief The repository benchmark: three workloads, each driving one
/// user-facing front end in-process through the public functions the
/// CLI composes (src/tools/cli.cc).
///
///   certbench gen --workload W --seed N [--scale X] --dir DIR
///       Generates the workload's scenario (workload/scenario.h, hosp)
///       and writes master.csv, input.csv, deltas.log, rules.rules and
///       trusted into DIR. Run as its own process, so the measured
///       process sees only these files and its peak RSS is its own.
///
///   certbench run --workload W --seed N --seconds S --trace 0|1
///                 --dir DIR --work WORK [--trace-out PATH]
///                 [--perturb-oracle]
///       Loads DIR through the CLI loaders, measures for S seconds and
///       prints one JSON line last: the end-to-end metrics (--trace 0)
///       or the per-layer metrics (--trace 1). Every output is
///       byte-compared with a from-scratch BatchRepair outside the timed
///       region; a divergence fails every operation and exits 1.
///
/// Workloads (README.md explains why each exists):
///   stream-hot     StreamRepairEngine, 2 shards; 10^3 master rows,
///                  10^5 input rows; closed loop, then open loop.
///   batch-cold     BatchRepair, 1 thread; 10^5 master rows, 4x10^4
///                  input rows.
///   durable-churn  DurableSession, fsync on, 2 shards; 10^4 master rows,
///                  10^4 input rows, 10^4 deltas.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_lib.h"
#include "core/batch_repair.h"
#include "core/master_index.h"
#include "core/repair_memo.h"
#include "core/repair_tuple.h"
#include "core/saturation.h"
#include "incremental/delta_repair.h"
#include "incremental/durable_session.h"
#include "relational/csv.h"
#include "relational/csv_stream.h"
#include "rules/rule_parser.h"
#include "storage/columnar.h"
#include "storage/wal.h"
#include "stream/sink.h"
#include "stream/stream_repair.h"
#include "workload/scenario.h"

namespace certbench {
namespace {

using namespace certfix;  // NOLINT(build/namespaces)
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Fixed workload parameters.

/// Phase B of stream-hot pushes on this absolute schedule: about 40% of
/// the closed-loop rate of 2 shards on a 4-core x86 host, so the pipeline
/// has headroom and latency measures the pipeline, not a backlog.
constexpr double kOpenLoopRowsPerS = 20000;
/// Each pass pushes this share of the input closed loop (phase A), then
/// the rest open loop (phase B: 4x10^4 rows, 2 s at that rate).
constexpr double kClosedLoopShare = 0.6;
constexpr size_t kShards = 2;
/// durable-churn rotates its snapshot every this many WAL appends; 10^4
/// deltas leave a 1000-record WAL tail for recovery to replay.
constexpr size_t kSnapshotEvery = 3000;
/// Set-up runs at least this often per run; setup_s is their median.
constexpr size_t kMinSetups = 5;
/// Per-tuple replays (probes, CheckUniqueFix, memo) stop after this many
/// input rows; the stream replay of the other workloads after
/// kStreamReplayCap.
constexpr size_t kReplayCap = 10000;
constexpr size_t kStreamReplayCap = 20000;
/// Stream spans cover this many PushStrings calls each.
constexpr size_t kPushesPerSpan = 1024;

// ---------------------------------------------------------------------------
// Arguments and errors.

struct Args {
  std::string command;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1.0;
  std::string dir;
  std::string work;
  std::string trace_out;
  bool perturb_oracle = false;
};

[[noreturn]] void Fail(const std::string& msg) { throw std::runtime_error(msg); }

void Must(const Status& st, const std::string& what) {
  if (!st.ok()) Fail(what + ": " + st.ToString());
}

template <typename T>
T Must(Result<T> r, const std::string& what) {
  if (!r.ok()) Fail(what + ": " + r.status().ToString());
  return std::move(r).ValueOrDie();
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  if (argc < 2) Fail("usage: certbench gen|run --workload W --seed N ...");
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key == "--perturb-oracle") {
      a.perturb_oracle = true;
      continue;
    }
    if (i + 1 >= argc) Fail("flag " + key + " needs a value");
    std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--scale") {
      a.scale = std::stod(val);
    } else if (key == "--dir") {
      a.dir = val;
    } else if (key == "--work") {
      a.work = val;
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      Fail("unknown flag " + key);
    }
  }
  if (a.dir.empty()) Fail("--dir is required");
  if (!(a.scale > 0)) Fail("--scale must be positive");
  return a;
}

// ---------------------------------------------------------------------------
// Scenario generation (the `gen` command).

ScenarioSpec SpecFor(const Args& a) {
  ScenarioSpec spec;
  spec.name = a.workload;
  spec.workload = "hosp";
  spec.seed = a.seed;
  auto scaled = [&a](double n, size_t floor) {
    return std::max(floor, static_cast<size_t>(n * a.scale + 0.5));
  };
  if (a.workload == "stream-hot") {
    spec.master_rows = scaled(1e3, 20);
    spec.initial_rows = scaled(1e5, 100);
    spec.num_deltas = scaled(300, 50);  // replays only
    spec.duplicate_rate = 0.8;
    spec.arrival.master_ratio = 0.02;
  } else if (a.workload == "batch-cold") {
    spec.master_rows = scaled(1e5, 20);
    spec.initial_rows = scaled(4e4, 100);
    spec.num_deltas = scaled(1e3, 50);  // replays only
    spec.duplicate_rate = 0.6;
    spec.arrival.master_ratio = 0.01;
  } else if (a.workload == "durable-churn") {
    spec.master_rows = scaled(1e4, 20);
    spec.initial_rows = scaled(1e4, 100);
    spec.num_deltas = scaled(1e4, 100);
    spec.popularity.kind = PopularityKind::kZipf;
    spec.popularity.alpha = 1.2;
    spec.arrival.master_ratio = 0.005;
    spec.master_noise_rate = 0.2;
  } else {
    Fail("unknown workload '" + a.workload +
         "' (want stream-hot|batch-cold|durable-churn)");
  }
  return spec;
}

void WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) Fail("cannot write " + path);
}

std::string ReadText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Fail("cannot read " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

size_t CountMasterDeltas(const std::vector<Delta>& deltas) {
  return static_cast<size_t>(std::count_if(
      deltas.begin(), deltas.end(),
      [](const Delta& d) { return IsMasterDelta(d.kind); }));
}

/// The workload's scenario for the benchmark seed. durable-churn's cost
/// follows its master-delta count, which the generator draws per step
/// (about 50 +- 7 of 10^4); it takes the first scenario seed, derived
/// from the benchmark seed, whose log holds exactly master_ratio x deltas
/// of them, so every seed exercises the same master churn.
Scenario GenerateFor(const Args& a) {
  ScenarioSpec spec = SpecFor(a);
  if (a.workload != "durable-churn") {
    return Must(GenerateScenario(spec), "generate scenario");
  }
  const size_t want = static_cast<size_t>(
      static_cast<double>(spec.num_deltas) * spec.arrival.master_ratio + 0.5);
  for (uint64_t attempt = 0; attempt < 1000; ++attempt) {
    spec.seed = a.seed * 1000 + attempt;
    Scenario sc = Must(GenerateScenario(spec), "generate scenario");
    if (CountMasterDeltas(sc.deltas) == want) return sc;
  }
  Fail("no scenario seed gives " + std::to_string(want) + " master deltas");
}

int CmdGen(const Args& a) {
  Scenario sc = GenerateFor(a);
  fs::create_directories(a.dir);
  Must(WriteCsvFile(sc.master, a.dir + "/master.csv"), "write master");
  Must(WriteCsvFile(sc.initial, a.dir + "/input.csv"), "write input");
  std::ostringstream log;
  Must(WriteDeltaLog(sc.spec.name, sc.spec.seed, sc.deltas, log),
       "write deltas");
  WriteText(a.dir + "/deltas.log", log.str());
  WriteText(a.dir + "/rules.rules", RulesToDsl(sc.rules));
  std::string trusted;
  for (const std::string& name : sc.trusted_names) {
    trusted += (trusted.empty() ? "" : ",") + name;
  }
  WriteText(a.dir + "/trusted", trusted);
  std::cout << "generated " << a.workload << " seed " << a.seed
            << " (scenario seed " << sc.spec.seed
            << "): master_rows=" << sc.master.size()
            << " input_rows=" << sc.initial.size()
            << " deltas=" << sc.deltas.size()
            << " master_deltas=" << CountMasterDeltas(sc.deltas) << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// Loading, as the CLI does it: master with an inferred all-string schema,
// rules parsed against it, input read under the master's schema.

struct Loaded {
  Relation master;
  RuleSet rules;
  AttrSet trusted;
  const SchemaPtr& schema() const { return master.schema(); }
};

/// Heap-allocated: the index and saturators hold pointers into it.
std::unique_ptr<Loaded> LoadCommon(const std::string& dir) {
  auto in = std::make_unique<Loaded>();
  in->master = Must(ReadCsvFileInferSchema("Master", dir + "/master.csv"),
                    "read master");
  in->rules = Must(ParseRules(ReadText(dir + "/rules.rules"), in->schema(),
                              in->schema()),
                   "parse rules");
  std::vector<std::string> names;
  std::stringstream trusted(ReadText(dir + "/trusted"));
  for (std::string name; std::getline(trusted, name, ',');) {
    names.push_back(name);
  }
  in->trusted = AttrSet::FromVector(
      Must(in->schema()->Resolve(names), "resolve trusted attributes"));
  return in;
}

Relation LoadInput(const Loaded& in, const std::string& dir) {
  return Must(ReadCsvFile(in.schema(), dir + "/input.csv"), "read input");
}

std::vector<std::vector<std::string>> LoadInputRows(const Loaded& in,
                                                    const std::string& dir) {
  std::ifstream file(dir + "/input.csv");
  if (!file) Fail("cannot read " + dir + "/input.csv");
  CsvTupleSource source(in.schema(), file);
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> fields;
  while (Must(source.Next(&fields), "read input rows")) rows.push_back(fields);
  return rows;
}

std::vector<Delta> LoadDeltas(const Loaded& in, const std::string& dir) {
  std::unique_ptr<DeltaSource> source = Must(
      storage::OpenDeltaLog(in.schema(), in.schema(), dir + "/deltas.log"),
      "open delta log");
  std::vector<Delta> deltas;
  Delta d;
  while (Must(source->Next(&d), "read delta")) deltas.push_back(d);
  return deltas;
}

std::string CsvBytes(const Relation& rel) {
  std::ostringstream out;
  Must(WriteCsv(rel, out), "render csv");
  return out.str();
}

/// The oracle: a from-scratch BatchRepair (1 thread, no memo) of
/// `input` against `master`, rendered by WriteCsv.
std::string OracleBytes(const RuleSet& rules, const Relation& master,
                        const Relation& input, AttrSet trusted) {
  MasterIndex index(rules, master);
  Saturator sat(rules, master, index);
  RepairOptions options;
  options.num_threads = 1;
  options.use_memo = false;
  return CsvBytes(BatchRepair(sat, options).Repair(input, trusted).repaired);
}

// ---------------------------------------------------------------------------
// The run: metrics, counters, spans.

struct Run {
  Args args;
  SpanRecorder spans;
  std::vector<double> setup_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::vector<std::string> info;
  std::vector<std::string> errors;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Info(const std::string& key, double value) {
    std::ostringstream s;
    s << key << "=" << value;
    info.push_back(s.str());
  }
  double Deadline() const { return args.trace ? args.seconds / 2 : args.seconds; }
};

double SecondsSince(int64_t t0) { return static_cast<double>(NowNs() - t0) / 1e9; }

/// Paces a timed loop: the first iteration always runs; another starts
/// only if, at the last iteration's duration, it ends before `seconds`.
class Pacer {
 public:
  explicit Pacer(double seconds) : start_(NowNs()), seconds_(seconds) {}

  bool Next() {
    int64_t now = NowNs();
    if (last_ != 0) {
      double lap = static_cast<double>(now - last_) / 1e9;
      if (SecondsSince(start_) + lap > seconds_) return false;
    }
    last_ = now;
    return true;
  }

 private:
  int64_t start_;
  int64_t last_ = 0;
  double seconds_;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Reports the untraced passes: the end-to-end metrics in an untraced
/// run. The latency pair is a per-layer metric of the traced run: on a
/// shared host it does not repeat closely enough to carry a bound.
void ReportPasses(Run* run, double peak_rss_mb, double ops_per_s,
                  double latency_p50_us, double latency_tail_us) {
  run->Info("latency_p50_us", latency_p50_us);
  run->Info("latency_tail_us", latency_tail_us);
  if (!run->args.trace) {
    run->Metric("peak_rss_mb", peak_rss_mb, "MB");
    run->Metric("ops_per_s", ops_per_s, "1/s");
  } else {
    run->Metric("latency_p50_us", latency_p50_us, "us");
    run->Metric("latency_tail_us", latency_tail_us, "us");
  }
}

/// unattributed_pct and trace.overhead_pct from the traced pass.
void TelemetryMetrics(Run* run, double untraced_ops_per_s,
                      double traced_ops_per_s) {
  std::map<std::string, double> self = run->spans.SelfNsByLayer();
  double total = 0;
  std::ostringstream line;
  line << "self_ms:";
  for (const auto& [layer, ns] : self) {
    total += ns;
    line << " " << layer << "=" << ns / 1e6;
  }
  run->info.push_back(line.str());
  run->Metric("unattributed_pct", 100 * Ratio(self["bench"], total), "%");
  run->Metric("trace.overhead_pct",
              100 * (Ratio(untraced_ops_per_s, traced_ops_per_s) - 1), "%");
}

// ---------------------------------------------------------------------------
// Stream passes (stream-hot, and the stream replay of the others).

/// Records each record's completion time, then forwards to `inner`.
class TimedSink : public StreamSink {
 public:
  TimedSink(StreamSink* inner, size_t n) : inner_(inner), done_(n, 0) {}
  void Emit(const StreamRecord& record) override {
    inner_->Emit(record);
    done_[record.seq] = NowNs();
    emitted_.fetch_add(1, std::memory_order_release);
  }
  /// Blocks until `n` records have been emitted.
  void WaitFor(size_t n) const {
    while (emitted_.load(std::memory_order_acquire) < n) {
      std::this_thread::yield();
    }
  }
  /// Completion times, by seq (0 = never emitted). Read after Finish.
  const std::vector<int64_t>& done() const { return done_; }

 private:
  StreamSink* inner_;
  std::vector<int64_t> done_;
  std::atomic<size_t> emitted_{0};
};

struct StreamPass {
  size_t rows = 0;
  double rows_per_s = 0;     ///< closed-loop part
  double push_ns = 0;        ///< time inside PushStrings (traced passes only)
  uint64_t refused = 0;
  StreamSnapshot snap;
  OpenLoopResult open_loop;  ///< open-loop part
  uint64_t output_hash = 0;  ///< Fnv1a of the sink's CSV bytes
};

void WaitUntil(int64_t t_ns) {
  for (;;) {
    int64_t left = t_ns - NowNs();
    if (left <= 0) return;
    if (left > 200000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 100000));
    } else {
      std::this_thread::yield();
    }
  }
}

/// One pass of a fresh engine with `shards` shards over the first `n`
/// rows. Rows [0, closed_n) are pushed closed loop, as fast as admitted
/// (phase A); once all of them have reached the sink, rows [closed_n, n)
/// are pushed open loop on the fixed schedule `rate` rows/s (phase B),
/// so phase B runs on a warm memo and an empty pipeline. The sink
/// renders CSV into a hash (`perturb`: see HashingBuf).
StreamPass RunStream(const Saturator& sat, AttrSet trusted,
                     const std::vector<std::vector<std::string>>& rows,
                     size_t n, size_t closed_n, size_t shards, double rate,
                     SpanRecorder* spans, bool perturb) {
  StreamPass pass;
  pass.rows = n;
  HashingBuf hashed(perturb);
  std::ostream out(&hashed);
  CsvStreamSink csv(sat.master().schema(), out);
  TimedSink timed(&csv, n);
  std::vector<int64_t> due(n - closed_n), sent(n - closed_n);
  StreamOptions options;
  options.num_shards = shards;
  const bool traced = spans->enabled();
  int64_t t0 = NowNs();
  {
    ScopedSpan root(spans, "stream pass", "bench");
    std::unique_ptr<StreamRepairEngine> engine;
    {
      ScopedSpan s(spans, "StreamRepairEngine()", "stream");
      engine =
          std::make_unique<StreamRepairEngine>(sat, trusted, &timed, options);
    }
    OpenLoopSchedule schedule;
    for (size_t begin = 0; begin < n; begin += kPushesPerSpan) {
      ScopedSpan s(spans, "PushStrings", "stream");
      size_t end = std::min(n, begin + kPushesPerSpan);
      for (size_t i = begin; i < end; ++i) {
        if (i >= closed_n) {
          if (i == closed_n) {
            timed.WaitFor(closed_n);
            schedule = {NowNs() + 1000000, rate};
          }
          due[i - closed_n] = schedule.DueNs(i - closed_n);
          WaitUntil(due[i - closed_n]);
          sent[i - closed_n] = NowNs();
        }
        int64_t p0 = traced ? NowNs() : 0;
        if (!engine->PushStrings(rows[i]).ok()) ++pass.refused;
        if (traced) pass.push_ns += static_cast<double>(NowNs() - p0);
      }
    }
    ScopedSpan s(spans, "StreamRepairEngine::Finish", "stream");
    pass.snap = engine->Finish();
  }
  if (closed_n > 0 && timed.done()[closed_n - 1] > 0) {
    pass.rows_per_s = static_cast<double>(closed_n) /
                      (static_cast<double>(timed.done()[closed_n - 1] - t0) / 1e9);
  }
  pass.open_loop = ComputeOpenLoop(
      due, sent,
      std::vector<int64_t>(timed.done().begin() + static_cast<long>(closed_n),
                           timed.done().end()));
  pass.output_hash = hashed.hash();
  return pass;
}

uint64_t StreamFailures(const StreamPass& p, size_t n) {
  uint64_t missing = n - std::min<uint64_t>(n, p.snap.tuples_out);
  return std::max<uint64_t>(p.refused + p.open_loop.missing, missing);
}

// ---------------------------------------------------------------------------
// Per-layer replays, run after the timed passes of a traced run. Each
// calls one public function alone on the workload's own inputs.

struct ReplayInputs {
  const Loaded* in;
  const Relation* input;
  const std::vector<Delta>* deltas;
  const std::vector<std::vector<std::string>>* rows;
  const Saturator* sat;
};

void ReplayRelational(Run* run, const ReplayInputs& r) {
  const std::string& dir = run->args.dir;
  int64_t t0 = NowNs();
  Relation input = LoadInput(*r.in, dir);
  run->Metric("relational.csv_read_rows_per_s",
              static_cast<double>(input.size()) / SecondsSince(t0), "1/s");
  std::string path = run->args.work + "/replay.csv";
  t0 = NowNs();
  Must(WriteCsvFile(input, path), "write csv");
  run->Metric("relational.csv_write_rows_per_s",
              static_cast<double>(input.size()) / SecondsSince(t0), "1/s");
  fs::remove(path);

  std::unique_ptr<DeltaSource> source = Must(
      storage::OpenDeltaLog(r.in->schema(), r.in->schema(), dir + "/deltas.log"),
      "open delta log");
  Delta d;
  size_t count = 0;
  t0 = NowNs();
  while (Must(source->Next(&d), "read delta")) ++count;
  run->Metric("delta_source.next_ns",
              Ratio(static_cast<double>(NowNs() - t0), count), "ns");
}

void ReplayCore(Run* run, const ReplayInputs& r) {
  const Loaded& in = *r.in;
  std::vector<double> build_ms;
  for (int i = 0; i < 3; ++i) {
    int64_t t0 = NowNs();
    MasterIndex index(in.rules, in.master);
    build_ms.push_back(SecondsSince(t0) * 1e3);
  }
  run->Metric("master_index.build_ms", Median(build_ms), "ms");

  const Relation& input = *r.input;
  const size_t n = std::min(input.size(), kReplayCap);
  std::vector<Tuple> tuples;
  tuples.reserve(n);
  for (size_t i = 0; i < n; ++i) tuples.push_back(input.at(i));
  const MasterIndex& index = r.sat->index();

  PoolBridge probe_bridge(input.pool().get(), in.master.pool().get());
  size_t sink = 0;
  int64_t t0 = NowNs();
  for (size_t rule = 0; rule < index.num_rules(); ++rule) {
    for (const Tuple& t : tuples) {
      sink += index.RhsValues(rule, t, &probe_bridge).size();
    }
  }
  run->Metric("master_index.probe_ns",
              Ratio(static_cast<double>(NowNs() - t0),
                    static_cast<double>(index.num_rules() * n)),
              "ns");
  // Printing the probe results keeps the compiler from eliding the probes.
  run->Info("probe_results", static_cast<double>(sink));

  PoolBridge check_bridge(input.pool().get(), in.master.pool().get());
  std::vector<double> check_us;
  double probes = 0;
  for (const Tuple& t : tuples) {
    ProbeLog log;
    int64_t c0 = NowNs();
    r.sat->CheckUniqueFix(t, in.trusted, &check_bridge, &log);
    check_us.push_back(static_cast<double>(NowNs() - c0) / 1e3);
    probes += static_cast<double>(log.hashes.size());
  }
  run->Metric("saturation.check_p50_us", Percentile(check_us, 50), "us");
  run->Metric("saturation.check_p99_us", Percentile(check_us, 99), "us");
  run->Metric("saturation.probes_per_check", Ratio(probes, n), "count");

  RepairMemo memo(in.rules, in.trusted);
  PoolBridge memo_bridge(input.pool().get(), in.master.pool().get());
  AttrSet all = in.schema()->AllAttrs();
  std::vector<double> hit_ns, miss_ns;
  for (const Tuple& t : tuples) {
    uint64_t hits = memo.hits();
    int64_t m0 = NowNs();
    RepairOneTuple(*r.sat, t, in.trusted, all, &memo_bridge, nullptr, &memo);
    double ns = static_cast<double>(NowNs() - m0);
    (memo.hits() > hits ? hit_ns : miss_ns).push_back(ns);
  }
  run->Metric("memo.hit_ns", Median(hit_ns), "ns");
  run->Metric("memo.miss_us", Median(miss_ns) / 1e3, "us");
}

void ReplayBatch(Run* run, const ReplayInputs& r) {
  RepairOptions options;
  options.num_threads = 1;
  int64_t t0 = NowNs();
  BatchRepair(*r.sat, options).Repair(*r.input, r.in->trusted);
  run->Metric("batch.repair_s", SecondsSince(t0), "s");
}

void StreamLayerMetrics(Run* run, const StreamPass& two_shards,
                        const StreamPass& one_shard,
                        const StreamPass& open_loop) {
  run->Metric("stream.backpressure_waits",
              static_cast<double>(two_shards.snap.backpressure_waits), "count");
  run->Metric("stream.max_reorder",
              static_cast<double>(two_shards.snap.max_reorder), "count");
  run->Metric("stream.open_loop_lag_ms", open_loop.open_loop.max_lateness_ms,
              "ms");
  run->Metric("stream.speedup_2v1",
              Ratio(two_shards.rows_per_s, one_shard.rows_per_s), "ratio");
}

/// The stream replay of batch-cold and durable-churn: closed loop at 2
/// shards (traced, for push time) and at 1 shard, then a pass whose last
/// 40% of rows run open loop at 40% of the 2-shard rate.
void ReplayStream(Run* run, const ReplayInputs& r) {
  size_t n = std::min(r.rows->size(), kStreamReplayCap);
  SpanRecorder off;
  SpanRecorder on;
  on.set_enabled(true);
  StreamPass two =
      RunStream(*r.sat, r.in->trusted, *r.rows, n, n, kShards, 0, &on, false);
  StreamPass one =
      RunStream(*r.sat, r.in->trusted, *r.rows, n, n, 1, 0, &off, false);
  StreamPass open =
      RunStream(*r.sat, r.in->trusted, *r.rows, n,
                static_cast<size_t>(kClosedLoopShare * n), kShards,
                0.4 * two.rows_per_s, &off, false);
  run->failed += StreamFailures(two, n) + StreamFailures(one, n) +
                 StreamFailures(open, n);
  run->Metric("stream.push_blocked_us", two.push_ns / 1e3 / n, "us");
  StreamLayerMetrics(run, two, one, open);
}

/// DeltaRepairEngine::Apply with no WAL over the workload's delta log.
void ReplayDelta(Run* run, const ReplayInputs& r) {
  DeltaRepairOptions options;
  options.num_shards = kShards;
  DeltaRepairEngine engine(r.in->rules, r.in->master, r.in->trusted, options);
  Must(engine.Load(*r.input), "delta engine load");
  DeltaRepairStats before = engine.stats();
  std::vector<double> input_us, master_ms, after_ms;
  size_t master_deltas = 0;
  bool after_master = false;
  for (const Delta& d : *r.deltas) {
    int64_t t0 = NowNs();
    Status st = engine.Apply(d);
    double ns = static_cast<double>(NowNs() - t0);
    if (!st.ok()) ++run->failed;
    if (IsMasterDelta(d.kind)) {
      ++master_deltas;
      master_ms.push_back(ns / 1e6);
      after_master = true;
    } else if (after_master) {
      after_ms.push_back(ns / 1e6);
      after_master = false;
    } else {
      input_us.push_back(ns / 1e3);
    }
  }
  DeltaRepairStats after = engine.stats();
  double n = static_cast<double>(r.deltas->size());
  run->Metric("delta.input_apply_p50_us", Percentile(input_us, 50), "us");
  run->Metric("delta.input_apply_p99_us", Percentile(input_us, 99), "us");
  run->Metric("delta.master_apply_ms", Median(master_ms), "ms");
  run->Metric("delta.after_master_apply_ms", Median(after_ms), "ms");
  run->Metric("delta.repairs_per_delta",
              Ratio(static_cast<double>(after.tuples_repaired -
                                        before.tuples_repaired), n),
              "count");
  run->Metric("delta.invalidated_per_master_delta",
              Ratio(static_cast<double>(after.tuples_invalidated -
                                        before.tuples_invalidated),
                    static_cast<double>(master_deltas)),
              "count");
  run->Metric("delta.master_rebuilds",
              static_cast<double>(after.master_rebuilds - before.master_rebuilds),
              "count");
}

DurableOptions ChurnOptions() {
  DurableOptions options;
  options.engine.num_shards = kShards;
  options.snapshot_every = kSnapshotEvery;
  options.sync_every_append = true;
  return options;
}

/// Rotation and recovery of a durable session over the workload's own
/// master, input and delta log (batch-cold and stream-hot).
void ReplayDurable(Run* run, const ReplayInputs& r) {
  std::string dir = run->args.work + "/replay-session";
  fs::remove_all(dir);
  {
    std::unique_ptr<DurableSession> session =
        Must(DurableSession::Create(dir, r.in->rules, r.in->master, *r.input,
                                    r.in->trusted, ChurnOptions()),
             "create session");
    for (const Delta& d : *r.deltas) {
      if (!session->Apply(d).ok()) ++run->failed;
    }
    session->engine().Flush();
  }
  int64_t t0 = NowNs();
  std::unique_ptr<DurableSession> opened =
      Must(DurableSession::Open(dir, ChurnOptions()), "open session");
  opened->engine().Flush();
  run->Metric("durable.recover_s", SecondsSince(t0), "s");
  t0 = NowNs();
  Must(opened->WriteSnapshot(), "write snapshot");
  run->Metric("durable.snapshot_ms", SecondsSince(t0) * 1e3, "ms");
  opened.reset();
  fs::remove_all(dir);
}

void ReplayStorage(Run* run, const ReplayInputs& r) {
  std::string wal_path = run->args.work + "/replay.wal";
  storage::WalWriterOptions options;
  options.sync_every_append = false;
  std::unique_ptr<storage::WalWriter> wal =
      Must(storage::WalWriter::Create(wal_path, options), "create wal");
  uint64_t start = wal->tail_offset();
  std::vector<double> append_us, sync_us;
  for (const Delta& d : *r.deltas) {
    int64_t t0 = NowNs();
    Must(wal->Append(d), "wal append");
    int64_t t1 = NowNs();
    Must(wal->Sync(), "wal sync");
    append_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    sync_us.push_back(static_cast<double>(NowNs() - t1) / 1e3);
  }
  run->Metric("wal.append_us", Median(append_us), "us");
  run->Metric("wal.sync_us", Median(sync_us), "us");
  run->Metric("wal.bytes_per_delta",
              Ratio(static_cast<double>(wal->tail_offset() - start),
                    static_cast<double>(r.deltas->size())),
              "B");
  wal.reset();
  fs::remove(wal_path);

  double write_ms = 0, read_ms = 0, bytes = 0, cells = 0;
  for (const Relation* rel : {&r.in->master, r.input}) {
    std::string path = run->args.work + "/replay.col";
    int64_t t0 = NowNs();
    Must(storage::WriteColumnar(*rel, path), "write columnar");
    write_ms += SecondsSince(t0) * 1e3;
    t0 = NowNs();
    storage::ColumnarLoadInfo info;
    Relation back = Must(storage::ReadColumnar(path, {}, &info), "read columnar");
    read_ms += SecondsSince(t0) * 1e3;
    if (back.size() != rel->size()) Fail("columnar round trip lost rows");
    bytes += static_cast<double>(info.file_bytes);
    cells += static_cast<double>(rel->size() * rel->schema()->num_attrs());
    fs::remove(path);
  }
  run->Metric("columnar.write_ms", write_ms, "ms");
  run->Metric("columnar.read_ms", read_ms, "ms");
  run->Metric("columnar.bytes_per_cell", Ratio(bytes, cells), "B");
}

using Replay = void (*)(Run*, const ReplayInputs&);

/// Runs each replay in turn, noting how long it took.
void RunReplays(Run* run, const ReplayInputs& r,
                std::initializer_list<std::pair<const char*, Replay>> replays) {
  for (const auto& [name, replay] : replays) {
    int64_t t0 = NowNs();
    replay(run, r);
    run->Info(std::string("replay_s.") + name, SecondsSince(t0));
  }
}

// ---------------------------------------------------------------------------
// batch-cold: the `repair` front end at 1 thread.

struct BatchSetup {
  std::unique_ptr<Loaded> in;
  std::unique_ptr<MasterIndex> index;
  std::unique_ptr<Saturator> sat;
  std::unique_ptr<BatchRepair> engine;
};

void SetupBatch(Run* run, BatchSetup* s) {
  *s = BatchSetup();  // free the previous set-up first
  int64_t t0 = NowNs();
  s->in = LoadCommon(run->args.dir);
  s->index = std::make_unique<MasterIndex>(s->in->rules, s->in->master);
  s->sat = std::make_unique<Saturator>(s->in->rules, s->in->master, *s->index);
  RepairOptions options;
  options.num_threads = 1;
  s->engine = std::make_unique<BatchRepair>(*s->sat, options);
  run->setup_s.push_back(SecondsSince(t0));
}

struct BatchJob {
  double rows_per_s = 0;
  double job_us = 0;
  double repair_s = 0;
  size_t rows = 0;
  double memo_hit_ratio = 0;
};

BatchJob RunBatchJob(Run* run, const BatchSetup& s, OracleGate* gate) {
  const std::string out_path = run->args.work + "/repaired.csv";
  SpanRecorder* spans = &run->spans;
  BatchJob job;
  int64_t t0 = NowNs();
  {
    ScopedSpan root(spans, "repair job", "bench");
    Relation input;
    {
      ScopedSpan span(spans, "ReadCsvFile", "relational");
      input = LoadInput(*s.in, run->args.dir);
    }
    int64_t r0 = NowNs();
    Result<BatchRepairResult> result = Status::Internal("not run");
    {
      ScopedSpan span(spans, "BatchRepair::Repair", "core");
      result = s.engine->RepairChecked(input, s.in->trusted);
    }
    job.repair_s = SecondsSince(r0);
    job.rows = input.size();
    if (!result.ok()) {
      run->failed += input.size();
      run->errors.push_back(result.status().ToString());
    } else {
      ScopedSpan span(spans, "WriteCsvFile", "relational");
      Must(WriteCsvFile(result->repaired, out_path), "write output");
      job.memo_hit_ratio =
          Ratio(result->memo_hits, result->memo_hits + result->memo_misses);
    }
  }
  double secs = SecondsSince(t0);
  job.job_us = secs * 1e6;
  job.rows_per_s = static_cast<double>(job.rows) / secs;
  run->attempted += job.rows;
  gate->Add(ReadText(out_path));
  return job;
}

std::string BatchCold(Run* run) {
  BatchSetup s;
  for (size_t i = 0; i < kMinSetups; ++i) SetupBatch(run, &s);
  OracleGate gate(run->args.perturb_oracle);
  std::vector<BatchJob> jobs;
  for (Pacer pace(run->Deadline()); pace.Next();) {
    jobs.push_back(RunBatchJob(run, s, &gate));
  }
  auto collect = [](const std::vector<BatchJob>& js, double BatchJob::*f) {
    std::vector<double> v;
    for (const BatchJob& j : js) v.push_back(j.*f);
    return v;
  };
  std::vector<double> rates = collect(jobs, &BatchJob::rows_per_s);
  std::vector<double> job_us = collect(jobs, &BatchJob::job_us);
  run->Info("input_rows", static_cast<double>(jobs.front().rows));
  run->Info("master_rows", static_cast<double>(s.in->master.size()));
  run->Info("memo_hit_ratio", jobs.front().memo_hit_ratio);
  run->Info("master_rebuilds", 0);
  run->Info("jobs", static_cast<double>(jobs.size()));
  ReportPasses(run, PeakRssMb(), Median(rates), Median(job_us),
               *std::max_element(job_us.begin(), job_us.end()));
  if (run->args.trace) {
    run->spans.set_enabled(true);
    std::vector<BatchJob> traced;
    for (size_t i = 0; i < jobs.size(); ++i) {
      traced.push_back(RunBatchJob(run, s, &gate));
    }
    run->spans.set_enabled(false);
    TelemetryMetrics(run, Median(rates),
                     Median(collect(traced, &BatchJob::rows_per_s)));
    run->Metric("batch.repair_s", Median(collect(jobs, &BatchJob::repair_s)),
                "s");
    run->Metric("memo.hit_ratio", jobs.front().memo_hit_ratio, "ratio");
    Relation input = LoadInput(*s.in, run->args.dir);
    std::vector<Delta> deltas = LoadDeltas(*s.in, run->args.dir);
    std::vector<std::vector<std::string>> rows =
        LoadInputRows(*s.in, run->args.dir);
    ReplayInputs r{s.in.get(), &input, &deltas, &rows, s.sat.get()};
    RunReplays(run, r,
               {{"relational", ReplayRelational}, {"core", ReplayCore},
                {"stream", ReplayStream}, {"delta", ReplayDelta},
                {"durable", ReplayDurable}, {"storage", ReplayStorage}});
  }
  Relation input = LoadInput(*s.in, run->args.dir);
  return gate.Check(OracleBytes(s.in->rules, s.in->master, input, s.in->trusted));
}

// ---------------------------------------------------------------------------
// stream-hot: the `repair-stream` front end at 2 shards.

struct StreamSetup {
  std::unique_ptr<Loaded> in;
  std::unique_ptr<MasterIndex> index;
  std::unique_ptr<Saturator> sat;
  std::vector<std::vector<std::string>> rows;
};

void SetupStream(Run* run, StreamSetup* s) {
  *s = StreamSetup();
  int64_t t0 = NowNs();
  s->in = LoadCommon(run->args.dir);
  s->rows = LoadInputRows(*s->in, run->args.dir);
  s->index = std::make_unique<MasterIndex>(s->in->rules, s->in->master);
  s->sat = std::make_unique<Saturator>(s->in->rules, s->in->master, *s->index);
  run->setup_s.push_back(SecondsSince(t0));
}

std::string StreamHot(Run* run) {
  StreamSetup s;
  for (size_t i = 0; i < kMinSetups; ++i) SetupStream(run, &s);
  const size_t n = s.rows.size();
  const size_t closed_n = static_cast<size_t>(kClosedLoopShare * n);
  const bool perturb = run->args.perturb_oracle;
  OracleGate gate(perturb);
  std::vector<StreamPass> passes;
  auto record = [&](StreamPass pass, std::vector<StreamPass>* into) {
    run->attempted += pass.rows;
    run->failed += StreamFailures(pass, pass.rows);
    gate.AddHash(pass.output_hash, pass.rows);
    into->push_back(std::move(pass));
  };
  auto closed_pass = [&](size_t shards, SpanRecorder* spans) {
    return RunStream(*s.sat, s.in->trusted, s.rows, n, n, shards, 0, spans,
                     perturb);
  };
  for (Pacer pace(run->Deadline()); pace.Next();) {
    record(RunStream(*s.sat, s.in->trusted, s.rows, n, closed_n, kShards,
                     kOpenLoopRowsPerS, &run->spans, perturb),
           &passes);
  }
  std::vector<double> rates, p50_us, p99_us, lag_ms;
  for (const StreamPass& p : passes) {
    rates.push_back(p.rows_per_s);
    p50_us.push_back(Percentile(p.open_loop.latency_us, 50));
    p99_us.push_back(Percentile(p.open_loop.latency_us, 99));
    lag_ms.push_back(p.open_loop.max_lateness_ms);
  }
  const StreamSnapshot& snap = passes.front().snap;
  double hit_ratio = Ratio(snap.memo_hits, snap.memo_hits + snap.memo_misses);
  run->Info("input_rows", static_cast<double>(n));
  run->Info("master_rows", static_cast<double>(s.in->master.size()));
  run->Info("memo_hit_ratio", hit_ratio);
  run->Info("master_rebuilds", 0);
  run->Info("closed_loop_rows", static_cast<double>(closed_n));
  run->Info("open_loop_rows_per_s", kOpenLoopRowsPerS);
  run->Info("open_loop_max_lag_ms", *std::max_element(lag_ms.begin(), lag_ms.end()));
  run->Info("passes", static_cast<double>(passes.size()));
  ReportPasses(run, PeakRssMb(), Median(rates), Median(p50_us),
               Median(p99_us));
  if (run->args.trace) {
    run->spans.set_enabled(true);
    std::vector<double> traced_rates, push_us;
    std::vector<StreamPass> traced;
    for (size_t i = 0; i < passes.size(); ++i) {
      StreamPass p = closed_pass(kShards, &run->spans);
      traced_rates.push_back(p.rows_per_s);
      push_us.push_back(p.push_ns / 1e3 / static_cast<double>(n));
      record(std::move(p), &traced);
    }
    run->spans.set_enabled(false);
    TelemetryMetrics(run, Median(rates), Median(traced_rates));
    SpanRecorder off;
    std::vector<StreamPass> one;
    record(closed_pass(1, &off), &one);
    StreamPass median_lag = passes.front();
    median_lag.open_loop.max_lateness_ms = Median(lag_ms);
    run->Metric("stream.push_blocked_us", Median(push_us), "us");
    StreamLayerMetrics(run, traced.front(), one.front(), median_lag);
    run->Metric("memo.hit_ratio", hit_ratio, "ratio");
    Relation input = LoadInput(*s.in, run->args.dir);
    std::vector<Delta> deltas = LoadDeltas(*s.in, run->args.dir);
    ReplayInputs r{s.in.get(), &input, &deltas, &s.rows, s.sat.get()};
    RunReplays(run, r,
               {{"relational", ReplayRelational}, {"core", ReplayCore},
                {"batch", ReplayBatch}, {"delta", ReplayDelta},
                {"durable", ReplayDurable}, {"storage", ReplayStorage}});
  }
  Relation input = LoadInput(*s.in, run->args.dir);
  return gate.Check(OracleBytes(s.in->rules, s.in->master, input, s.in->trusted));
}

// ---------------------------------------------------------------------------
// durable-churn: the `repair-deltas --wal` front end, fsync on.

struct ChurnSetup {
  std::unique_ptr<Loaded> in;
  std::vector<Delta> deltas;
  std::unique_ptr<DurableSession> session;
  std::string dir;
};

void SetupChurn(Run* run, ChurnSetup* s, size_t k) {
  *s = ChurnSetup();
  s->dir = run->args.work + "/session-" + std::to_string(k);
  fs::remove_all(s->dir);
  int64_t t0 = NowNs();
  s->in = LoadCommon(run->args.dir);
  Relation input = LoadInput(*s->in, run->args.dir);
  s->deltas = LoadDeltas(*s->in, run->args.dir);
  s->session = Must(DurableSession::Create(s->dir, s->in->rules, s->in->master,
                                           input, s->in->trusted,
                                           ChurnOptions()),
                    "create session");
  run->setup_s.push_back(SecondsSince(t0));
}

struct ChurnPass {
  double deltas_per_s = 0;
  double ack_p50_us = 0;
  double ack_p999_us = 0;
  double recover_s = 0;
  DeltaRepairStats stats;
};

/// Applies every delta closed-loop, timing each ack; then closes the
/// session, reopens it from its directory and checks both states.
ChurnPass RunChurn(Run* run, ChurnSetup* s, OracleGate* gate) {
  SpanRecorder* spans = &run->spans;
  ChurnPass pass;
  DurableSession& session = *s->session;
  std::vector<double> ack_us;
  ack_us.reserve(s->deltas.size());
  int64_t t0 = NowNs();
  {
    ScopedSpan root(spans, "apply pass", "bench");
    for (const Delta& d : s->deltas) {
      ScopedSpan span(spans, "DurableSession::Apply", "incremental");
      int64_t a0 = NowNs();
      Status st = session.Apply(d);
      ack_us.push_back(static_cast<double>(NowNs() - a0) / 1e3);
      if (!st.ok()) {
        ++run->failed;
        if (run->errors.size() < 5) run->errors.push_back(st.ToString());
      }
    }
    ScopedSpan span(spans, "DeltaRepairEngine::Flush", "incremental");
    session.engine().Flush();
  }
  pass.deltas_per_s = static_cast<double>(s->deltas.size()) / SecondsSince(t0);
  pass.ack_p50_us = Percentile(ack_us, 50);
  pass.ack_p999_us = Percentile(ack_us, 99.9);
  run->attempted += s->deltas.size();
  pass.stats = session.engine().stats();
  std::string live = CsvBytes(session.engine().SnapshotRepaired());
  s->session.reset();

  int64_t r0 = NowNs();
  std::unique_ptr<DurableSession> recovered =
      Must(DurableSession::Open(s->dir, ChurnOptions()), "recover session");
  recovered->engine().Flush();
  pass.recover_s = SecondsSince(r0);
  std::string back = CsvBytes(recovered->engine().SnapshotRepaired());
  if (back != live) {
    run->errors.push_back("recovered session differs from the live one: " +
                          DescribeDiff(back, live));
    run->failed += s->deltas.size();
  }
  s->session = std::move(recovered);
  gate->Add(std::move(live));
  return pass;
}

std::string ChurnOracle(const Loaded& in, const std::string& dir,
                        const std::vector<Delta>& deltas) {
  std::vector<std::vector<std::string>> input_rows =
      RenderRows(LoadInput(in, dir));
  std::vector<std::vector<std::string>> master_rows = RenderRows(in.master);
  Must(ApplyDeltaLog(deltas, &input_rows, &master_rows), "replay delta log");
  Relation master = Must(RelationFromRows(in.schema(), master_rows), "master");
  Relation input = Must(RelationFromRows(in.schema(), input_rows), "input");
  return OracleBytes(in.rules, master, input, in.trusted);
}

std::string DurableChurn(Run* run) {
  ChurnSetup s;
  OracleGate gate(run->args.perturb_oracle);
  std::vector<ChurnPass> passes;
  for (Pacer pace(run->Deadline()); pace.Next();) {
    SetupChurn(run, &s, passes.size());
    passes.push_back(RunChurn(run, &s, &gate));
    s.session.reset();
    fs::remove_all(s.dir);
  }
  const double peak_rss = PeakRssMb();
  std::vector<double> rates, p50_us, p999_us, recover_s;
  for (const ChurnPass& p : passes) {
    rates.push_back(p.deltas_per_s);
    p50_us.push_back(p.ack_p50_us);
    p999_us.push_back(p.ack_p999_us);
    recover_s.push_back(p.recover_s);
  }
  const DeltaRepairStats& st = passes.front().stats;
  double hit_ratio = Ratio(st.memo_hits, st.memo_hits + st.memo_misses);
  run->Info("input_rows", static_cast<double>(LoadInput(*s.in, run->args.dir).size()));
  run->Info("master_rows", static_cast<double>(s.in->master.size()));
  run->Info("deltas", static_cast<double>(s.deltas.size()));
  run->Info("master_deltas", static_cast<double>(CountMasterDeltas(s.deltas)));
  run->Info("memo_hit_ratio", hit_ratio);
  run->Info("master_rebuilds", static_cast<double>(st.master_rebuilds));
  run->Info("invalidated", static_cast<double>(st.tuples_invalidated));
  run->Info("passes", static_cast<double>(passes.size()));
  ReportPasses(run, peak_rss, Median(rates), Median(p50_us), Median(p999_us));
  if (run->args.trace) {
    std::vector<double> traced_rates;
    for (size_t i = 0; i < passes.size(); ++i) {
      SetupChurn(run, &s, passes.size() + i);
      run->spans.set_enabled(true);
      traced_rates.push_back(RunChurn(run, &s, &gate).deltas_per_s);
      run->spans.set_enabled(false);
      if (i + 1 < passes.size()) {
        s.session.reset();
        fs::remove_all(s.dir);
      }
    }
    TelemetryMetrics(run, Median(rates), Median(traced_rates));
    run->Metric("memo.hit_ratio", hit_ratio, "ratio");
    run->Metric("durable.recover_s", Median(recover_s), "s");
    int64_t w0 = NowNs();
    Must(s.session->WriteSnapshot(), "write snapshot");
    run->Metric("durable.snapshot_ms", SecondsSince(w0) * 1e3, "ms");
    s.session.reset();
    fs::remove_all(s.dir);
    Relation input = LoadInput(*s.in, run->args.dir);
    std::vector<std::vector<std::string>> rows =
        LoadInputRows(*s.in, run->args.dir);
    MasterIndex index(s.in->rules, s.in->master);
    Saturator sat(s.in->rules, s.in->master, index);
    ReplayInputs r{s.in.get(), &input, &s.deltas, &rows, &sat};
    RunReplays(run, r,
               {{"relational", ReplayRelational}, {"core", ReplayCore},
                {"batch", ReplayBatch}, {"stream", ReplayStream},
                {"delta", ReplayDelta}, {"storage", ReplayStorage}});
  }
  s.session.reset();
  fs::remove_all(s.dir);
  while (run->setup_s.size() < kMinSetups) {
    SetupChurn(run, &s, 1000 + run->setup_s.size());
    s.session.reset();
    fs::remove_all(s.dir);
  }
  return gate.Check(ChurnOracle(*s.in, run->args.dir, s.deltas));
}

// ---------------------------------------------------------------------------

/// Prints the info line, then the result JSON as the last stdout line.
/// A failed oracle gate fails every attempted operation.
void PrintResult(const Run& run, bool oracle_ok, bool correct) {
  std::cout << "certbench: workload=" << run.args.workload
            << " seed=" << run.args.seed;
  for (const std::string& kv : run.info) std::cout << " " << kv;
  std::cout << "\n";
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << run.attempted << ", \"failed\": "
       << (oracle_ok ? run.failed : run.attempted) << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : run.metrics) {
    json << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
         << metric.first << ", \"unit\": \"" << metric.second << "\"}";
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

int CmdRun(const Args& args) {
  Run run;
  run.args = args;
  if (run.args.work.empty()) run.args.work = args.dir + "/work";
  fs::create_directories(run.args.work);
  std::string diff;
  if (args.workload == "batch-cold") {
    diff = BatchCold(&run);
  } else if (args.workload == "stream-hot") {
    diff = StreamHot(&run);
  } else if (args.workload == "durable-churn") {
    diff = DurableChurn(&run);
  } else {
    Fail("unknown workload '" + args.workload + "'");
  }
  if (!args.trace) run.Metric("setup_s", Median(run.setup_s), "s");
  run.Info("setups", static_cast<double>(run.setup_s.size()));
  if (args.trace && !args.trace_out.empty()) {
    WriteText(args.trace_out, run.spans.ChromeJson());
    run.info.push_back("trace=" + args.trace_out);
  }
  if (!diff.empty()) run.errors.push_back("oracle gate: " + diff);
  for (const std::string& e : run.errors) std::cerr << "certbench: " << e << "\n";
  const bool correct = diff.empty() && run.failed == 0;
  PrintResult(run, diff.empty(), correct);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace certbench

int main(int argc, char** argv) {
  try {
    certbench::Args args = certbench::ParseArgs(argc, argv);
    if (args.command == "gen") return certbench::CmdGen(args);
    if (args.command == "run") return certbench::CmdRun(args);
    certbench::Fail("unknown command '" + args.command + "' (want gen|run)");
  } catch (const std::exception& e) {
    std::cerr << "certbench: " << e.what() << "\n";
    return 2;
  }
}
