/// \file selftest.cc
/// \brief Checks of the benchmark's own arithmetic on synthetic inputs:
/// order statistics, open-loop latency and lateness against a known
/// schedule, span parents and self time, and the oracle gate. Exits 0
/// when every check holds; prints each failed check and exits 1 if not.

#include <cmath>
#include <cstdio>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_lib.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what.c_str());
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestOrderStatistics() {
  using certbench::Median;
  using certbench::Percentile;
  Expect(Median({}) == 0, "median of nothing is 0");
  Expect(Median({3, 1, 2}) == 2, "odd median");
  Expect(Median({4, 1, 3, 2}) == 2.5, "even median");
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  Expect(Percentile(v, 50) == 500, "p50 of 1..1000 is 500");
  Expect(Percentile(v, 99) == 990, "p99 of 1..1000 is 990");
  Expect(Percentile(v, 99.9) == 999, "p99.9 of 1..1000 is 999");
  Expect(Percentile(v, 100) == 1000, "p100 is the maximum");
  Expect(Percentile(v, 0) == 1, "p0 is the minimum");
}

void TestOpenLoop() {
  // 1000 ops/s from t0 = 5 s: op i is due at 5 s + i ms.
  certbench::OpenLoopSchedule schedule{5000000000, 1000};
  Expect(schedule.DueNs(0) == 5000000000, "op 0 is due at t0");
  Expect(schedule.DueNs(7) == 5007000000, "op 7 is due 7 ms after t0");

  // Op 0 sent on time and done after 100 us. Op 1 sent 2 ms late (the
  // producer stalled) and done 50 us later: its latency counts the stall
  // from its due time. Op 2 sent early counts as zero lateness. Op 3
  // never completes.
  std::vector<int64_t> due = {schedule.DueNs(0), schedule.DueNs(1),
                              schedule.DueNs(2), schedule.DueNs(3)};
  std::vector<int64_t> sent = {due[0], due[1] + 2000000, due[2] - 500,
                               due[3]};
  std::vector<int64_t> done = {due[0] + 100000, sent[1] + 50000,
                               due[2] + 10000, 0};
  certbench::OpenLoopResult r = certbench::ComputeOpenLoop(due, sent, done);
  Expect(r.latency_us.size() == 3, "three completed ops have latencies");
  Expect(r.missing == 1, "one op never completed");
  Expect(Near(r.latency_us[0], 100), "on-time op: latency 100 us");
  Expect(Near(r.latency_us[1], 2050), "late op: latency includes the stall");
  Expect(Near(r.latency_us[2], 10), "early op: latency from its due time");
  Expect(Near(r.max_lateness_ms, 2), "producer ran at most 2 ms late");
}

void TestSpans() {
  certbench::SpanRecorder rec;
  {
    certbench::ScopedSpan off(&rec, "ignored", "bench");
  }
  Expect(rec.spans().empty(), "a disabled recorder records nothing");
  rec.set_enabled(true);
  {
    certbench::ScopedSpan root(&rec, "root", "bench");
    {
      certbench::ScopedSpan a(&rec, "a", "core");
      certbench::ScopedSpan b(&rec, "b", "storage");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    certbench::ScopedSpan c(&rec, "c", "core");
  }
  const auto& spans = rec.spans();
  Expect(spans.size() == 4, "four spans recorded");
  Expect(spans[0].parent == -1, "root has no parent");
  Expect(spans[1].parent == 0, "a's parent is root");
  Expect(spans[2].parent == 1, "b's parent is a");
  Expect(spans[3].parent == 0, "c's parent is root");
  auto self = rec.SelfNsByLayer();
  double total = 0;
  for (const auto& [layer, ns] : self) {
    Expect(ns >= 0, "self time of " + layer + " is not negative");
    total += ns;
  }
  double root_ns = static_cast<double>(spans[0].end_ns - spans[0].begin_ns);
  Expect(Near(total, root_ns), "self times add up to the root's duration");
  Expect(self["storage"] >= 2e6, "b's 2 ms sleep is storage self time");
  Expect(self["core"] < self["storage"], "a's self time excludes b");
  std::string json = rec.ChromeJson();
  Expect(json.find("\"parent\":1") != std::string::npos,
         "the Chrome trace carries parent links");
}

void TestOracleGate() {
  const std::string want = "a,b\n1,2\n3,4\n";
  certbench::OracleGate same(false);
  same.Add(want);
  same.Add(want);
  Expect(same.Check(want).empty(), "identical outputs pass the gate");

  certbench::OracleGate perturbed(true);
  perturbed.Add(want);
  std::string diff = perturbed.Check(want);
  Expect(!diff.empty(), "a perturbed cell trips the gate");
  Expect(diff.find("line 2") != std::string::npos,
         "the gate names the differing line: " + diff);

  // A quoted field spanning lines is one record; a hashed output of the
  // header plus one data row matches that prefix of the oracle's bytes.
  const std::string quoted = "a,b\n\"x\ny\",2\n3,4\n";
  Expect(certbench::CsvPrefixEnd(quoted, 1) == 12,
         "the prefix ends after the record, not the quoted newline");
  Expect(certbench::CsvPrefixEnd(quoted, 5) == quoted.size(),
         "a prefix longer than the text is the whole text");
  certbench::OracleGate prefix(false);
  prefix.AddHash(certbench::Fnv1a(quoted.substr(0, 12)), 1);
  Expect(prefix.Check(quoted).empty(), "a hashed prefix output passes");
  prefix.AddHash(certbench::Fnv1a(quoted.substr(0, 11)), 1);
  Expect(!prefix.Check(quoted).empty(), "a truncated hashed output trips");

  certbench::HashingBuf buf(true);
  std::ostream out(&buf);
  out << want;
  std::string perturbed_want = want;
  certbench::PerturbFirstCell(&perturbed_want);
  Expect(buf.hash() == certbench::Fnv1a(perturbed_want),
         "HashingBuf perturbs the same cell as PerturbFirstCell");

  certbench::OracleGate early(false);
  early.Add("a,b\n1,9\n3,4\n");
  early.Add(want);
  Expect(!early.Check(want).empty(), "an earlier wrong output trips the gate");
  Expect(!certbench::OracleGate(false).Check(want).empty(),
         "a run with no output fails the gate");
}

}  // namespace

int main() {
  TestOrderStatistics();
  TestOpenLoop();
  TestSpans();
  TestOracleGate();
  if (failures == 0) std::printf("certbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
