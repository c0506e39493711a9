#include "bench_lib.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

namespace certbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // The epsilon keeps p99.9 of 1000 samples at rank 999 despite rounding.
  double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()) - 1e-9);
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

OpenLoopResult ComputeOpenLoop(const std::vector<int64_t>& due_ns,
                               const std::vector<int64_t>& sent_ns,
                               const std::vector<int64_t>& done_ns) {
  OpenLoopResult out;
  out.latency_us.reserve(due_ns.size());
  int64_t worst_late = 0;
  for (size_t i = 0; i < due_ns.size(); ++i) {
    worst_late = std::max(worst_late, sent_ns[i] - due_ns[i]);
    if (done_ns[i] == 0) {
      ++out.missing;
      continue;
    }
    out.latency_us.push_back(static_cast<double>(done_ns[i] - due_ns[i]) /
                             1e3);
  }
  out.max_lateness_ms = static_cast<double>(worst_late) / 1e6;
  return out;
}

int SpanRecorder::Begin(const char* name, const char* layer) {
  if (!enabled_) return -1;
  SpanEvent ev;
  ev.name = name;
  ev.layer = layer;
  ev.parent = open_.empty() ? -1 : open_.back();
  ev.begin_ns = NowNs();
  spans_.push_back(ev);
  int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanRecorder::End(int index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  // Spans close in stack order (ScopedSpan); pop through `index`.
  while (!open_.empty()) {
    int top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

std::string SpanRecorder::ChromeJson() const {
  std::ostringstream out;
  out.precision(15);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  int64_t base = spans_.empty() ? 0 : spans_.front().begin_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanEvent& s = spans_[i];
    if (i > 0) out << ",";
    out << "\n{\"name\":\"" << s.name << "\",\"cat\":\"" << s.layer
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(s.begin_ns - base) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.begin_ns) / 1e3
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
  return out.str();
}

std::map<std::string, double> SpanRecorder::SelfNsByLayer() const {
  std::vector<double> child_ns(spans_.size(), 0);
  for (const SpanEvent& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.begin_ns);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanEvent& s = spans_[i];
    self[s.layer] += static_cast<double>(s.end_ns - s.begin_ns) - child_ns[i];
  }
  return self;
}

std::string DescribeDiff(const std::string& got, const std::string& want) {
  if (got == want) return "";
  size_t pos = 0;
  while (pos < got.size() && pos < want.size() && got[pos] == want[pos]) {
    ++pos;
  }
  size_t line = static_cast<size_t>(
      std::count(got.begin(), got.begin() + static_cast<long>(pos), '\n'));
  auto line_at = [pos](const std::string& s) {
    size_t begin = s.rfind('\n', pos == 0 ? 0 : pos - 1);
    begin = begin == std::string::npos || pos == 0 ? 0 : begin + 1;
    size_t end = s.find('\n', begin);
    return s.substr(begin, end == std::string::npos ? end : end - begin);
  };
  std::ostringstream out;
  out << "output differs from the oracle at line " << line + 1 << " (got "
      << got.size() << " bytes, want " << want.size() << "): got \""
      << line_at(got) << "\" want \"" << line_at(want) << "\"";
  return out.str();
}

void PerturbFirstCell(std::string* csv) {
  size_t row = csv->find('\n');
  if (row == std::string::npos || row + 1 >= csv->size()) {
    csv->append("perturbed\n");
    return;
  }
  csv->insert(row + 1, "X");
}

size_t CsvPrefixEnd(const std::string& csv, size_t rows) {
  bool quoted = false;
  size_t records = 0;
  for (size_t i = 0; i < csv.size(); ++i) {
    if (csv[i] == '"') {
      quoted = !quoted;  // an escaped "" toggles twice
    } else if (csv[i] == '\n' && !quoted && records++ == rows) {
      return i + 1;
    }
  }
  return csv.size();
}

uint64_t Fnv1a(const char* bytes, size_t n, uint64_t h) {
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(bytes[i]);
    h *= 1099511628211ull;
  }
  return h;
}

void HashingBuf::Put(const char* s, size_t n) {
  if (perturb_) {
    const char* nl = static_cast<const char*>(std::memchr(s, '\n', n));
    if (nl != nullptr) {
      size_t head = static_cast<size_t>(nl - s) + 1;
      hash_ = Fnv1a("X", 1, Fnv1a(s, head, hash_));
      perturb_ = false;
      s += head;
      n -= head;
    }
  }
  hash_ = Fnv1a(s, n, hash_);
}

HashingBuf::int_type HashingBuf::overflow(int_type ch) {
  if (!traits_type::eq_int_type(ch, traits_type::eof())) {
    char c = traits_type::to_char_type(ch);
    Put(&c, 1);
  }
  return traits_type::not_eof(ch);
}

std::streamsize HashingBuf::xsputn(const char* s, std::streamsize n) {
  Put(s, static_cast<size_t>(n));
  return n;
}

void OracleGate::Add(std::string output) {
  if (perturb_) PerturbFirstCell(&output);
  hashes_.push_back({Fnv1a(output), kAllRows});
  last_ = std::move(output);
}

std::string OracleGate::Check(const std::string& want) const {
  if (hashes_.empty()) return "no output was collected";
  if (!last_.empty()) {
    std::string diff = DescribeDiff(last_, want);
    if (!diff.empty()) return diff;
  }
  for (size_t i = 0; i < hashes_.size(); ++i) {
    size_t end = CsvPrefixEnd(want, hashes_[i].second);
    if (hashes_[i].first != Fnv1a(want.data(), end)) {
      return "output " + std::to_string(i + 1) + " of " +
             std::to_string(hashes_.size()) + " differs from the oracle";
    }
  }
  return "";
}

}  // namespace certbench
