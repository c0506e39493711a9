/// \file bench_lib.h
/// \brief The benchmark's own measurement helpers, kept apart from the
/// workload code so the self-test can check them on synthetic inputs:
/// order statistics, the open-loop latency/lateness arithmetic, the span
/// recorder behind the traced run, and the oracle byte comparison.

#ifndef CERTBENCH_BENCH_LIB_H_
#define CERTBENCH_BENCH_LIB_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <streambuf>
#include <utility>
#include <string>
#include <vector>

namespace certbench {

/// Steady-clock nanoseconds (the only clock the benchmark reads).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of `v` (mean of the two middle values for even sizes); 0 when
/// empty.
double Median(std::vector<double> v);

/// Nearest-rank percentile, `p` in [0, 100]: the smallest sample with at
/// least p% of the samples at or below it. 0 when empty.
double Percentile(std::vector<double> v, double p);

/// Process peak resident set size so far, in MiB (getrusage max RSS).
double PeakRssMb();

/// \brief Open-loop schedule: op i is due at t0 + i / rate.
struct OpenLoopSchedule {
  int64_t t0_ns = 0;
  double rate_per_s = 1.0;

  int64_t DueNs(size_t i) const {
    return t0_ns + static_cast<int64_t>(static_cast<double>(i) * 1e9 /
                                        rate_per_s);
  }
};

/// \brief What an open-loop run measured.
struct OpenLoopResult {
  /// Per op, completion minus due time, in microseconds — so a stall
  /// also charges the ops queued behind it.
  std::vector<double> latency_us;
  /// How late the producer started an op, worst case, in milliseconds.
  double max_lateness_ms = 0;
  /// Ops that never completed (done time 0). Counted as failures.
  size_t missing = 0;
};

/// Latency and producer lateness from the due, send-start and completion
/// timestamps of each op (all steady-clock ns; equal sizes). Early
/// sends count as zero lateness.
OpenLoopResult ComputeOpenLoop(const std::vector<int64_t>& due_ns,
                               const std::vector<int64_t>& sent_ns,
                               const std::vector<int64_t>& done_ns);

/// \brief One recorded span: a call into a layer, with its parent.
struct SpanEvent {
  const char* name = nullptr;   ///< string literal
  const char* layer = nullptr;  ///< src/ module name, or "bench"
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  ///< index of the enclosing span, -1 for roots
};

/// \brief Span recorder for the traced run. Spans are recorded from the
/// benchmark's main thread only, around its calls into the program's
/// public functions; nesting follows the call stack, so each span's
/// parent is the span open when it began. Spans live in a growable
/// vector until export, so none is ever dropped. Disabled recorders cost
/// one branch per span.
class SpanRecorder {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span and returns its index (-1 when disabled).
  int Begin(const char* name, const char* layer);
  void End(int index);

  const std::vector<SpanEvent>& spans() const { return spans_; }

  /// Chrome trace-event JSON ("X" complete events, microseconds), with
  /// each span's index and parent index under "args". Loads in Perfetto.
  std::string ChromeJson() const;

  /// Self time (duration minus the time covered by direct children) per
  /// layer, in nanoseconds.
  std::map<std::string, double> SelfNsByLayer() const;

 private:
  bool enabled_ = false;
  std::vector<SpanEvent> spans_;
  std::vector<int32_t> open_;
};

/// \brief RAII span on a recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, const char* layer)
      : rec_(rec), index_(rec->Begin(name, layer)) {}
  ~ScopedSpan() { rec_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int index_;
};

/// Byte comparison for the oracle gate: empty when equal, else a short
/// description of the first differing line.
std::string DescribeDiff(const std::string& got, const std::string& want);

/// Changes the first cell of the first data row of CSV text `csv` (the
/// self-check that the oracle gate trips on one changed cell).
void PerturbFirstCell(std::string* csv);

/// Length of the header record plus the first `rows` data records of
/// RFC-4180 CSV text `csv` (quoted fields may hold newlines); the whole
/// text when it has fewer records.
size_t CsvPrefixEnd(const std::string& csv, size_t rows);

/// 64-bit FNV-1a of `bytes`, continuing from `h` (start with the default).
uint64_t Fnv1a(const char* bytes, size_t n,
               uint64_t h = 14695981039346656037ull);
inline uint64_t Fnv1a(const std::string& s) { return Fnv1a(s.data(), s.size()); }

/// \brief Output stream buffer that keeps only the FNV-1a hash of what is
/// written, so a stream's output can be checked without holding it. With
/// `perturb`, it hashes an extra "X" after the first newline: the first
/// cell of the first CSV data row changes, as PerturbFirstCell does.
class HashingBuf : public std::streambuf {
 public:
  explicit HashingBuf(bool perturb) : perturb_(perturb) {}
  uint64_t hash() const { return hash_; }

 protected:
  int_type overflow(int_type ch) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;

 private:
  void Put(const char* s, size_t n);

  bool perturb_;
  uint64_t hash_ = Fnv1a(nullptr, 0);
};

/// \brief Collects the hash of every front-end output of a run, then
/// compares them all with the oracle's output.
class OracleGate {
 public:
  /// With `perturb`, each output added whole has one cell changed first.
  explicit OracleGate(bool perturb) : perturb_(perturb) {}

  /// Adds a whole output; the last one is kept to describe a difference.
  void Add(std::string output);
  /// Adds an output known only by its Fnv1a hash (see HashingBuf) that
  /// covers the CSV header plus the first `rows` data rows.
  void AddHash(uint64_t hash, size_t rows) { hashes_.push_back({hash, rows}); }

  /// "" when every collected output equals `want` byte for byte, else
  /// what differs.
  std::string Check(const std::string& want) const;

 private:
  static constexpr size_t kAllRows = static_cast<size_t>(-1);

  bool perturb_;
  /// (hash, data rows covered) of every output, in order.
  std::vector<std::pair<uint64_t, size_t>> hashes_;
  std::string last_;  ///< the last whole output, for diffs
};

}  // namespace certbench

#endif  // CERTBENCH_BENCH_LIB_H_
