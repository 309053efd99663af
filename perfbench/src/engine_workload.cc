// The `social` and `road` workloads: one caller runs BFS then SSSP from
// each source of a seeded list, in a closed loop, through the public
// RunBfs/RunSssp entry points. `social` (RMAT-18) has a few fat iterations
// per run, so per-edge work dominates; `road` (a 1000x100 grid) has ~1k thin
// iterations per run, so per-iteration fixed cost dominates. A per-edge win
// should move only `social`, a per-iteration win only `road`.
//
// As in the paper and Graph500, the graph is a fixed dataset and --seed
// draws the sources: the generator seed would otherwise move every timing
// with the graph's structure.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <thread>

#include "algos/algos.h"
#include "baselines/cpu_reference.h"
#include "common.h"
#include "core/fingerprint.h"
#include "core/parallel.h"
#include "graph/generators.h"

namespace perfbench {
namespace {

using simdx::Graph;
using simdx::VertexId;

constexpr size_t kSources = 128;     // the job list
constexpr size_t kWarmupJobs = 4;    // untimed, before the loop
constexpr size_t kT1Sources = 12;    // traced run: host_threads=1 subset
constexpr size_t kMinPasses = 2;     // every question repeats at least once

simdx::EdgeList Generate(const std::string& workload) {
  if (workload == "social") {
    return simdx::GenerateRmat(18, 8, /*seed=*/18);
  }
  return simdx::GenerateGridRoad(1000, 100, /*seed=*/1000);
}

// The exact, host-independent part of one run: must repeat bit for bit.
struct Exact {
  uint32_t iterations = 0;
  uint64_t edges = 0;
  double sim_ms = 0.0;
  std::string filter_pattern;
  std::string direction_pattern;
  uint64_t record_candidates = 0;
  uint64_t records_buffered = 0;
  uint64_t values = 0;  // FNV-1a of the answer bytes
  bool ok = false;

  bool operator==(const Exact&) const = default;
};

struct RunSample {
  bool sssp = false;
  double wall_ms = 0.0;
  bool traced = false;
  double cpu_ms = 0.0;  // traced runs only
  simdx::ThreadPool::SubmitTelemetry pool;  // traced runs only (deltas)
  uint32_t iterations = 0;
  uint64_t edges = 0;
};

Exact ExactOf(const simdx::RunResult<uint32_t>& r) {
  Exact e;
  e.iterations = r.stats.iterations;
  e.edges = r.stats.total_edges_processed;
  e.sim_ms = r.stats.time.ms;
  e.filter_pattern = r.stats.filter_pattern;
  e.direction_pattern = r.stats.direction_pattern;
  e.record_candidates = r.stats.push_record_candidates;
  e.records_buffered = r.stats.push_records_buffered;
  e.values = simdx::ValueBytesFingerprint(r.values.data(),
                                          r.values.size() * sizeof(uint32_t));
  e.ok = r.stats.ok();
  return e;
}

simdx::RunResult<uint32_t> RunKind(const Graph& g, VertexId source, bool sssp,
                                   const simdx::EngineOptions& options) {
  const simdx::DeviceSpec device = simdx::MakeK40();
  return sssp ? simdx::RunSssp(g, source, device, options)
              : simdx::RunBfs(g, source, device, options);
}

uint64_t CountChar(const std::string& s, char c) {
  return static_cast<uint64_t>(std::count(s.begin(), s.end(), c));
}

}  // namespace

bool RunEngineWorkload(const Options& options, Report* report,
                       Outcome* outcome) {
  Tracer tracer(options.trace);
  const uint64_t workload_span = tracer.Begin("workload", 0, 0);

  // ---- Set-up: generate + build, repeated; every repeat must build the
  // same graph.
  std::vector<double> setup_ms, generate_ms, build_ms;
  std::optional<Graph> graph;
  uint64_t digest = 0;
  for (int r = 0; !SetupDone(setup_ms); ++r) {
    graph.reset();
    const uint64_t setup_span = tracer.Begin("setup", workload_span, 0);
    const int64_t t0 = NowNs();
    simdx::EdgeList edges = Generate(options.workload);
    const int64_t t1 = NowNs();
    graph.emplace(Graph::FromEdges(std::move(edges), /*directed=*/false));
    const int64_t t2 = NowNs();
    tracer.Add("graph.generate", setup_span, 0, t0, t1);
    tracer.Add("graph.build", setup_span, 0, t1, t2);
    tracer.End(setup_span);
    setup_ms.push_back(MsBetween(t0, t2));
    generate_ms.push_back(MsBetween(t0, t1));
    build_ms.push_back(MsBetween(t1, t2));
    const uint64_t d = GraphDigest(*graph);
    if (r > 0 && d != digest) {
      std::printf("DRIFT: set-up %d built a different graph\n", r);
      outcome->drift = true;
    }
    digest = d;
  }
  const Graph& g = *graph;

  Rng rng(options.seed * 0x2545F4914F6CDD1Dull + 17);
  const std::vector<VertexId> sources = PickSources(g, kSources, rng);
  simdx::EngineOptions engine_options;
  engine_options.host_threads = std::max(1u, std::thread::hardware_concurrency());

  // First result of each (source, kind): the reference every later run of
  // the same question must repeat exactly.
  std::vector<std::optional<Exact>> reference(2 * kSources);
  auto check = [&](size_t index, bool sssp, const Exact& e) {
    auto& ref = reference[2 * index + (sssp ? 1 : 0)];
    if (!ref) {
      ref = e;
      return true;
    }
    return *ref == e;
  };
  uint64_t drifted_runs = 0;

  for (size_t i = 0; i < kWarmupJobs; ++i) {
    for (const bool sssp : {false, true}) {
      check(i, sssp, ExactOf(RunKind(g, sources[i], sssp, engine_options)));
    }
  }

  // ---- Timed loop: whole jobs until the time is up, at least kMinPasses
  // passes. In a traced run every other job is traced, alternating by pass
  // so each source is seen both ways; the untraced half prices tracing.
  std::vector<RunSample> samples;
  std::vector<double> job_ms_traced, job_ms_plain;
  const ProcSample proc_before = SampleProc();
  const int64_t loop_start = NowNs();
  const int64_t loop_budget = static_cast<int64_t>(options.seconds * 1e9);
  size_t jobs = 0;
  while (jobs < kMinPasses * kSources || NowNs() - loop_start < loop_budget) {
    const size_t index = jobs % kSources;
    const size_t pass = jobs / kSources;
    const bool traced = tracer.enabled() && (index + pass) % 2 == 0;
    const uint64_t job_span =
        traced ? tracer.Begin("job", workload_span, jobs + 1) : 0;
    double job_ms = 0.0;
    for (const bool sssp : {false, true}) {
      RunSample s;
      s.sssp = sssp;
      s.traced = traced;
      const auto pool0 = simdx::ThreadPool::Global().telemetry();
      const double cpu0 = traced ? ProcessCpuMs() : 0.0;
      const int64_t t0 = NowNs();
      const auto result = RunKind(g, sources[index], sssp, engine_options);
      const int64_t t1 = NowNs();
      if (traced) {
        s.cpu_ms = ProcessCpuMs() - cpu0;
        const auto pool1 = simdx::ThreadPool::Global().telemetry();
        s.pool.submits = pool1.submits - pool0.submits;
        s.pool.contended_submits =
            pool1.contended_submits - pool0.contended_submits;
        s.pool.inline_runs = pool1.inline_runs - pool0.inline_runs;
        tracer.Add("engine.run", job_span, jobs + 1, t0, t1);
      }
      s.wall_ms = MsBetween(t0, t1);
      s.iterations = result.stats.iterations;
      s.edges = result.stats.total_edges_processed;
      job_ms += s.wall_ms;
      samples.push_back(s);
      if (!check(index, sssp, ExactOf(result))) {
        ++drifted_runs;
      }
    }
    tracer.End(job_span);
    if (tracer.enabled()) {
      (traced ? job_ms_traced : job_ms_plain).push_back(job_ms);
    }
    ++jobs;
  }
  const ProcSample proc_after = SampleProc();  // also the peak RSS

  // ---- Oracles, outside the timed region: every source's reference answer
  // against the CPU reference implementations, a few sources at a time. A
  // wrong reference fails every timed run of that question.
  std::vector<char> wrong(2 * kSources, 0);
  std::vector<std::thread> oracle_threads;
  const unsigned oracle_count = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  for (unsigned t = 0; t < oracle_count; ++t) {
    oracle_threads.emplace_back([&, t] {
      for (size_t i = t; i < kSources; i += oracle_count) {
        const auto levels = simdx::CpuBfsLevels(g, sources[i]);
        const auto dist = simdx::CpuDijkstra(g, sources[i]);
        const Exact& bfs = *reference[2 * i];
        const Exact& sssp = *reference[2 * i + 1];
        wrong[2 * i] = !bfs.ok || bfs.values != simdx::ValueBytesFingerprint(
                                                    levels.data(),
                                                    levels.size() * sizeof(uint32_t));
        wrong[2 * i + 1] = !sssp.ok || sssp.values != simdx::ValueBytesFingerprint(
                                                          dist.data(),
                                                          dist.size() * sizeof(uint32_t));
      }
    });
  }
  for (auto& t : oracle_threads) {
    t.join();
  }
  uint64_t wrong_runs = 0;
  for (size_t j = 0; j < samples.size(); ++j) {
    const size_t index = (j / 2) % kSources;
    wrong_runs += wrong[2 * index + (samples[j].sssp ? 1 : 0)] ? 1 : 0;
  }
  outcome->attempted = samples.size();
  outcome->wrong = wrong_runs;
  outcome->failed = std::min<uint64_t>(samples.size(), wrong_runs + drifted_runs);
  if (drifted_runs > 0) {
    std::printf("DRIFT: %llu runs did not repeat their first run's counts\n",
                static_cast<unsigned long long>(drifted_runs));
    outcome->drift = true;
  }
  std::printf("oracle: %zu of %zu answers checked (100%%), %llu wrong\n",
              samples.size(), samples.size(),
              static_cast<unsigned long long>(wrong_runs));

  // ---- Thread-scaling baseline (traced run only): a subset rerun at
  // host_threads=1, which must also reproduce the reference counts.
  std::vector<double> t1_bfs, t1_sssp;
  double t1_total = 0.0, tn_total = 0.0;
  if (tracer.enabled()) {
    simdx::EngineOptions serial = engine_options;
    serial.host_threads = 1;
    for (size_t i = 0; i < kT1Sources; ++i) {
      for (const bool sssp : {false, true}) {
        const int64_t t0 = NowNs();
        const auto result = RunKind(g, sources[i], sssp, serial);
        const double ms = MsBetween(t0, NowNs());
        (sssp ? t1_sssp : t1_bfs).push_back(ms);
        t1_total += ms;
        if (!check(i, sssp, ExactOf(result))) {
          std::printf("DRIFT: host_threads=1 changed the counts of source %zu\n", i);
          outcome->drift = true;
        }
        std::vector<double> tn;
        for (size_t j = 0; j < samples.size(); ++j) {
          if ((j / 2) % kSources == i && samples[j].sssp == sssp) {
            tn.push_back(samples[j].wall_ms);
          }
        }
        tn_total += Percentile(tn, 50);
      }
    }
  }
  tracer.End(workload_span);

  // ---- End-to-end metrics over questions: each (source, kind) has run
  // once per pass, and its time is the best of those runs. On a shared VM
  // a parallel run's wall time moves in phases lasting seconds to minutes,
  // which only ever add time; the best of several passes keeps them out,
  // and the percentiles across questions keep what users see: some sources
  // cost more than others.
  std::vector<std::vector<double>> runs_ms(2 * kSources);
  for (size_t j = 0; j < samples.size(); ++j) {
    runs_ms[j % (2 * kSources)].push_back(samples[j].wall_ms);
  }
  std::vector<double> bfs_ms, sssp_ms, job_ms;
  double question_ms = 0.0;
  uint64_t question_edges = 0;
  for (size_t k = 0; k < runs_ms.size(); ++k) {
    const double ms = *std::min_element(runs_ms[k].begin(), runs_ms[k].end());
    (k % 2 == 1 ? sssp_ms : bfs_ms).push_back(ms);
    question_ms += ms;
    question_edges += reference[k]->edges;
  }
  for (size_t i = 0; i < kSources; ++i) {
    job_ms.push_back(bfs_ms[i] + sssp_ms[i]);
  }
  const uint64_t per_kind = samples.size() / 2;
  report->Set("bfs_ms.p50", Percentile(bfs_ms, 50), "ms", per_kind);
  report->Set("bfs_ms.p90", Percentile(bfs_ms, 90), "ms", per_kind);
  report->Set("sssp_ms.p50", Percentile(sssp_ms, 50), "ms", per_kind);
  report->Set("sssp_ms.p90", Percentile(sssp_ms, 90), "ms", per_kind);
  report->Set("medges_per_s",
              static_cast<double>(question_edges) / question_ms / 1e3,
              "Medges/s", samples.size());
  // One closed-loop caller has one load level, so the low and high
  // latencies are the same distribution: the job, BFS then SSSP from one
  // source.
  for (const char* step : {"lat_low", "lat_high"}) {
    report->Set(std::string(step) + ".p50", Percentile(job_ms, 50), "ms",
                per_kind);
    report->Set(std::string(step) + ".p99", Percentile(job_ms, 99), "ms",
                per_kind);
  }
  // Engine time only: every answer was correct or the run exits non-zero.
  const double runs_per_s = static_cast<double>(runs_ms.size()) / (question_ms / 1e3);
  report->Set("goodput_qps", runs_per_s, "1/s", samples.size());
  report->Set("slo_qps", runs_per_s, "1/s", samples.size());

  double sim_bfs = 0.0, sim_sssp = 0.0;
  uint64_t iterations = 0, push = 0, pull = 0, ballot = 0, online = 0;
  uint64_t candidates = 0, buffered = 0;
  for (size_t k = 0; k < reference.size(); ++k) {
    const Exact& e = *reference[k];
    (k % 2 == 1 ? sim_sssp : sim_bfs) += e.sim_ms;
    iterations += e.iterations;
    push += CountChar(e.direction_pattern, 'p');
    pull += CountChar(e.direction_pattern, 'P');
    ballot += CountChar(e.filter_pattern, 'B');
    online += CountChar(e.filter_pattern, 'O');
    candidates += e.record_candidates;
    buffered += e.records_buffered;
  }
  report->Set("sim_ms", sim_bfs + sim_sssp, "ms", reference.size());
  report->Set("setup_s", Percentile(setup_ms, 50) / 1e3, "s", setup_ms.size());

  // ---- Per-layer metrics.
  report->Set("graph.generate_ms", Percentile(generate_ms, 50), "ms",
              generate_ms.size());
  report->Set("graph.build_ms", Percentile(build_ms, 50), "ms", build_ms.size());
  report->Set("graph.vertices", g.vertex_count(), "count", 1);
  report->Set("graph.edges", static_cast<double>(g.edge_count()), "count", 1);
  report->Set("sim.bfs_ms", sim_bfs, "ms", kSources);
  report->Set("sim.sssp_ms", sim_sssp, "ms", kSources);
  // Counts over one pass of the job list (exact for a seed).
  report->Set("engine.iterations", static_cast<double>(iterations), "count",
              reference.size());
  report->Set("engine.push_iterations", static_cast<double>(push), "count",
              reference.size());
  report->Set("engine.pull_iterations", static_cast<double>(pull), "count",
              reference.size());
  report->Set("engine.ballot_iterations", static_cast<double>(ballot), "count",
              reference.size());
  report->Set("engine.online_iterations", static_cast<double>(online), "count",
              reference.size());
  report->Set("engine.push_record_candidates", static_cast<double>(candidates),
              "count", reference.size());
  report->Set("engine.push_records_buffered", static_cast<double>(buffered),
              "count", reference.size());

  // Host-side rates from the traced runs.
  std::vector<double> bfs_cpu, sssp_cpu;
  double traced_wall = 0.0, traced_cpu = 0.0;
  uint64_t traced_runs = 0, traced_iterations = 0, traced_edges = 0;
  simdx::ThreadPool::SubmitTelemetry pool;
  for (const RunSample& s : samples) {
    if (!s.traced) {
      continue;
    }
    (s.sssp ? sssp_cpu : bfs_cpu).push_back(s.cpu_ms);
    traced_wall += s.wall_ms;
    traced_cpu += s.cpu_ms;
    ++traced_runs;
    traced_iterations += s.iterations;
    traced_edges += s.edges;
    pool.submits += s.pool.submits;
    pool.contended_submits += s.pool.contended_submits;
    pool.inline_runs += s.pool.inline_runs;
  }
  if (traced_runs > 0) {
    const double runs = static_cast<double>(traced_runs);
    report->Set("engine.cpu_per_wall", traced_cpu / traced_wall, "ratio",
                traced_runs);
    report->Set("engine.bfs.cpu_ms.p50", Percentile(bfs_cpu, 50), "ms",
                bfs_cpu.size());
    report->Set("engine.sssp.cpu_ms.p50", Percentile(sssp_cpu, 50), "ms",
                sssp_cpu.size());
    report->Set("engine.us_per_iteration",
                traced_wall * 1e3 / static_cast<double>(traced_iterations), "us",
                traced_iterations);
    report->Set("engine.ns_per_edge",
                traced_wall * 1e6 / static_cast<double>(traced_edges), "ns",
                traced_edges);
    report->Set("pool.submits", static_cast<double>(pool.submits) / runs,
                "1/op", traced_runs);
    report->Set("pool.contended_submits",
                static_cast<double>(pool.contended_submits) / runs, "1/op",
                traced_runs);
    report->Set("pool.inline_runs", static_cast<double>(pool.inline_runs) / runs,
                "1/op", traced_runs);
    report->Set("pool.submits_per_iteration",
                static_cast<double>(pool.submits) /
                    static_cast<double>(traced_iterations),
                "ratio", traced_iterations);
    report->Set("engine.t1.bfs_ms.p50", Percentile(t1_bfs, 50), "ms",
                t1_bfs.size());
    report->Set("engine.t1.sssp_ms.p50", Percentile(t1_sssp, 50), "ms",
                t1_sssp.size());
    report->Set("engine.speedup_vs_t1", t1_total / tn_total, "ratio",
                t1_bfs.size() + t1_sssp.size());
    const double plain = Percentile(job_ms_plain, 50);
    report->Set("trace.overhead_frac",
                plain > 0.0 ? Percentile(job_ms_traced, 50) / plain - 1.0 : 0.0,
                "frac", job_ms_traced.size() + job_ms_plain.size());
  }
  SetProcMetrics(proc_before, proc_after, report);
  report->Set("proc.cpu_us_per_query",
              (proc_after.cpu_s - proc_before.cpu_s) * 1e6 /
                  static_cast<double>(samples.size()),
              "us", samples.size());
  report->Set("failed_frac",
              static_cast<double>(outcome->failed) /
                  static_cast<double>(outcome->attempted),
              "frac", outcome->attempted);
  report->Set("ok_frac",
              1.0 - static_cast<double>(outcome->failed) /
                        static_cast<double>(outcome->attempted),
              "frac", outcome->attempted);
  report->Set("peak_rss_mb", proc_after.max_rss_mb, "MB", 1);
  FinishTrace(tracer, options, report);
  return true;
}

}  // namespace perfbench
