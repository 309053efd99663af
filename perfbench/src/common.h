// Shared pieces of the perfbench driver: clocks, a seeded generator,
// percentiles, process counters, the metric report and the in-memory span
// recorder. Everything here measures from outside libsimdx: the library is
// only ever called through its public functions.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double MsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

// SplitMix64: a small generator whose output is fixed by the standard-free
// arithmetic below, so one seed gives the same inputs on every toolchain.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double Uniform();  // [0, 1)
  uint64_t Below(uint64_t n);
  double Exponential(double rate);

 private:
  uint64_t state_;
};

// Nearest-rank percentile (p in [0, 100]) of an unsorted sample; 0 when
// the sample is empty.
double Percentile(std::vector<double> values, double p);

// `count` distinct vertices with at least one out-edge, drawn from `rng`.
std::vector<simdx::VertexId> PickSources(const simdx::Graph& g, size_t count,
                                         Rng& rng);

// FNV-1a over the CSR arrays: equal digests mean the same graph was built.
uint64_t GraphDigest(const simdx::Graph& g);

// Process-wide counters from getrusage(RUSAGE_SELF).
struct ProcSample {
  double cpu_s = 0.0;  // user + system
  uint64_t ctx_switches = 0;  // voluntary + involuntary
  double max_rss_mb = 0.0;
};
ProcSample SampleProc();

// CPU time of the whole process (all threads), in ms.
double ProcessCpuMs();

// Every metric a workload computed. The driver script selects the ones
// BENCHMARK.json lists for the run's mode and prints them.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t samples);
  // One JSON object: {"correct", "attempted", "failed", "metrics": {name:
  // {"value", "unit", "samples"}}}.
  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
    uint64_t samples = 0;
  };
  std::map<std::string, Metric> metrics_;
};

// Spans recorded in memory at the benchmark's own layer boundaries and
// written out once, at exit. A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  // Records a finished span; returns its id (0 when disabled). `parent` 0
  // is the root; `request_id` ties the spans of one wire request together.
  uint64_t Add(const char* name, uint64_t parent, uint64_t request_id,
               int64_t start_ns, int64_t end_ns);
  // Opens a span whose end is set later with End (for parents, whose
  // children are recorded before they finish).
  uint64_t Begin(const char* name, uint64_t parent, uint64_t request_id);
  void End(uint64_t id);
  void SetEnd(uint64_t id, int64_t end_ns);

  size_t size() const { return spans_.size(); }
  // Mean self time per span name (ms): a span's duration minus the part of
  // it its children cover. Also the span count per name.
  struct SelfTime {
    double mean_ms = 0.0;
    uint64_t spans = 0;
  };
  std::map<std::string, SelfTime> SelfTimes() const;
  // JSON lines, one span each. False when the file cannot be written.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    uint64_t parent = 0;
    const char* name = "";
    uint64_t request_id = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };
  bool enabled_;
  std::vector<Span> spans_;  // id = index + 1
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // span file, written at exit when tracing
  std::string socket_path;  // serve: UDS listener path
};

// Totals the last JSON line reports. A workload sets `drift` when an
// exact count failed to repeat; that and any wrong answer make the run
// exit non-zero. `failed` also counts requests that got no answer.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  bool drift = false;
};

// Workload entry points; each fills `report` with every metric it can
// compute and returns false on a set-up error.
bool RunEngineWorkload(const Options& options, Report* report,
                       Outcome* outcome);
bool RunServeWorkload(const Options& options, Report* report,
                      Outcome* outcome);

// Set-up is repeated, and setup_s is the median: at least three times and
// until a second of set-up has been measured, at most 50 times.
bool SetupDone(const std::vector<double>& setup_ms);

// proc.cpu_s and proc.ctx_switches over a measured window.
void SetProcMetrics(const ProcSample& before, const ProcSample& after,
                    Report* report);

// Writes spans and per-layer self times for a traced run.
void FinishTrace(const Tracer& tracer, const Options& options,
                 Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
