#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <unordered_set>

namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

uint64_t Rng::Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }

double Rng::Exponential(double rate) { return -std::log1p(-Uniform()) / rate; }

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

std::vector<simdx::VertexId> PickSources(const simdx::Graph& g, size_t count,
                                         Rng& rng) {
  std::vector<simdx::VertexId> sources;
  std::unordered_set<simdx::VertexId> seen;
  while (sources.size() < count) {
    const auto v = static_cast<simdx::VertexId>(rng.Below(g.vertex_count()));
    if (g.OutDegree(v) > 0 && seen.insert(v).second) {
      sources.push_back(v);
    }
  }
  return sources;
}

namespace {

template <typename T>
uint64_t Fnv(const std::vector<T>& v, uint64_t h) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(v.data());
  for (size_t i = 0; i < v.size() * sizeof(T); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ull;
  }
  return h;
}

}  // namespace

uint64_t GraphDigest(const simdx::Graph& g) {
  uint64_t h = 1469598103934665603ull;
  h = Fnv(g.out().row_offsets(), h);
  h = Fnv(g.out().col_indices(), h);
  return Fnv(g.out().weights(), h);
}

ProcSample SampleProc() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcSample s;
  s.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  s.ctx_switches = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  s.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return s;
}

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit, uint64_t samples) {
  metrics_[name] = Metric{value, unit, samples};
}

std::string Report::Json(bool correct, uint64_t attempted,
                         uint64_t failed) const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    os << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
       << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \"" << m.unit
       << "\", \"samples\": " << m.samples << '}';
    first = false;
  }
  os << "}}";
  return os.str();
}

uint64_t Tracer::Add(const char* name, uint64_t parent, uint64_t request_id,
                     int64_t start_ns, int64_t end_ns) {
  if (!enabled_) {
    return 0;
  }
  spans_.push_back(Span{parent, name, request_id, start_ns, end_ns});
  return spans_.size();
}

uint64_t Tracer::Begin(const char* name, uint64_t parent, uint64_t request_id) {
  const int64_t now = NowNs();
  return Add(name, parent, request_id, now, now);
}

void Tracer::End(uint64_t id) { SetEnd(id, NowNs()); }

void Tracer::SetEnd(uint64_t id, int64_t end_ns) {
  if (id != 0) {
    spans_[id - 1].end_ns = end_ns;
  }
}

std::map<std::string, Tracer::SelfTime> Tracer::SelfTimes() const {
  // Children intervals per parent, clipped to the parent and merged, so
  // overlapping children (pipelined requests) are not subtracted twice.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent != 0) {
      children[s.parent - 1].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, double> total_ms;
  std::map<std::string, SelfTime> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = s.start_ns;
    for (auto [a, b] : kids) {
      a = std::max(a, cursor);
      b = std::min(b, s.end_ns);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    total_ms[s.name] += MsBetween(s.start_ns, s.end_ns) - covered / 1e6;
    ++out[s.name].spans;
  }
  for (auto& [name, self] : out) {
    self.mean_ms = total_ms[name] / static_cast<double>(self.spans);
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream f(path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << "{\"id\": " << i + 1 << ", \"parent\": " << s.parent
      << ", \"name\": \"" << s.name << "\", \"request_id\": " << s.request_id
      << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
      << "}\n";
  }
  return static_cast<bool>(f);
}

bool SetupDone(const std::vector<double>& setup_ms) {
  double total_ms = 0.0;
  for (const double ms : setup_ms) {
    total_ms += ms;
  }
  return setup_ms.size() >= 50 || (setup_ms.size() >= 3 && total_ms >= 1000.0);
}

void SetProcMetrics(const ProcSample& before, const ProcSample& after,
                    Report* report) {
  report->Set("proc.cpu_s", after.cpu_s - before.cpu_s, "s", 1);
  report->Set("proc.ctx_switches",
              static_cast<double>(after.ctx_switches - before.ctx_switches),
              "count", 1);
}

void FinishTrace(const Tracer& tracer, const Options& options,
                 Report* report) {
  if (!tracer.enabled()) {
    return;
  }
  for (const auto& [name, self] : tracer.SelfTimes()) {
    report->Set("self_ms." + name, self.mean_ms, "ms", self.spans);
  }
  report->Set("trace.spans", static_cast<double>(tracer.size()), "count", 1);
  if (!options.trace_out.empty() && !tracer.Write(options.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 options.trace_out.c_str());
  }
}

}  // namespace perfbench
