// The `serve` workload: an open loop of seeded Poisson arrivals, sent by one
// generator thread over a few pipelined non-blocking UDS connections to an
// in-process SocketServer over GraphService. Engine time per query is
// 0.1-10 ms on this graph (0.01 ms for a cache hit), so admission, queueing, batching, the result
// cache, the codec and the dispatch loop are a large share of what a client
// waits for; the engine workloads bypass all of them.
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <thread>
#include <tuple>

#include "algos/algos.h"
#include "common.h"
#include "core/fingerprint.h"
#include "core/parallel.h"
#include "graph/generators.h"
#include "service/codec.h"
#include "service/server.h"
#include "service/service.h"

namespace perfbench {
namespace {

namespace svc = simdx::service;
namespace wire = simdx::service::wire;
using simdx::Graph;
using simdx::VertexId;

constexpr int kConnections = 4;
// The graph is a fixed dataset; --seed draws the traffic. On a 4k-vertex
// RMAT graph the hub structure, and with it every latency mode, moves a
// lot from one generator seed to the next.
constexpr uint64_t kGraphSeed = 12;
// The latency limit on p99, fixed when the benchmark was created. A failed
// request counts as missing it.
constexpr double kLimitMs = 40.0;
constexpr double kTimeoutMs = 5000.0;  // a reply later than this is a failure
constexpr double kMaxFailedFrac = 0.01;

// The load ladder: fixed absolute rates, frozen when the benchmark was
// created, each measured for its share of --seconds. The knee was near
// 3600 requests/s on the 4-vCPU box the benchmark was made on: `low` sits
// near a quarter of it, `high` under half of it (closer to the knee,
// queueing amplified the host's scheduling noise until the tails spread by
// more than any bound allows), and the last step well above it, so that a
// capacity gain can show in slo_qps. No step sits close enough to the knee
// for noise to flip slo_qps between neighbours.
struct Step {
  const char* name;
  double rate;   // offered requests per second
  double share;  // of --seconds
};
constexpr Step kLadder[] = {
    {"warmup", 800, 0.03}, {"low", 800, 0.28},  {"r1200", 1200, 0.08},
    {"high", 1600, 0.38},  {"r4800", 4800, 0.1},
};
constexpr size_t kLow = 1, kHigh = 3;  // step 0 warms up, unreported

// The mix. A share of BFS re-asks a Zipf-hot source set (the cache's
// case); PPR is rare and slow, so p50 falls inside BFS's latency mode and
// p99 inside PPR's. PPR latency is bimodal (a run alone, or queued behind
// another); at 1.5% p99 sits in the lower third of it, clear of the gap.
constexpr double kBfsWeight = 0.625, kSsspWeight = 0.30, kPprWeight = 0.015;
constexpr double kHotBfsShare = 0.2;
constexpr size_t kHotSources = 16;
constexpr uint32_t kMinK = 2, kMaxK = 17;

enum class Status : uint8_t {
  kPending, kOk, kWrongAnswer, kNotOk, kRejected, kTimeout, kTransport,
};

struct Request {
  size_t step = 0;
  int64_t offset_ns = 0;  // from the step's start
  svc::QueryKind kind = svc::QueryKind::kBfs;
  VertexId source = 0;
  uint32_t k = 0;
  // Filled in by the run.
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  Status status = Status::kPending;
  uint8_t served = 0;
  double queue_ms = 0.0;
  double run_ms = 0.0;
  uint64_t value_fingerprint = 0;
  double encode_us = 0.0;
  double decode_us = 0.0;
  size_t oracle = 0;  // index into the distinct-question table

  double latency_ms() const {
    return status == Status::kOk ? MsBetween(due_ns, done_ns)
                                 : std::numeric_limits<double>::infinity();
  }
};

using Question = std::tuple<uint8_t, VertexId, uint32_t>;  // kind, source, k

// The median, over kBlocks consecutive blocks of a step's requests (in
// arrival order), of each block's percentile: a slow phase of the host in
// one block does not set the step's tail. Every block of a reported step
// keeps at least ten requests beyond p99.
constexpr size_t kBlocks = 5;
double BlockPercentile(const std::vector<double>& latencies, double p) {
  std::vector<double> per_block;
  const size_t n = latencies.size();
  for (size_t b = 0; b < kBlocks; ++b) {
    per_block.push_back(Percentile(
        std::vector<double>(latencies.begin() + static_cast<ptrdiff_t>(b * n / kBlocks),
                            latencies.begin() + static_cast<ptrdiff_t>((b + 1) * n / kBlocks)),
        p));
  }
  return Percentile(per_block, 50);
}

std::vector<Request> MakeSchedule(const Graph& g, const Options& options,
                                  Rng& rng) {
  const std::vector<VertexId> hot = PickSources(g, kHotSources, rng);
  std::vector<VertexId> live;
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    if (g.OutDegree(v) > 0) {
      live.push_back(v);
    }
  }
  double zipf_total = 0.0;
  for (size_t i = 0; i < kHotSources; ++i) {
    zipf_total += 1.0 / static_cast<double>(i + 1);
  }
  std::vector<Request> schedule;
  for (size_t s = 0; s < std::size(kLadder); ++s) {
    const double span_s = options.seconds * kLadder[s].share;
    double t = rng.Exponential(kLadder[s].rate);
    while (t < span_s) {
      Request r;
      r.step = s;
      r.offset_ns = static_cast<int64_t>(t * 1e9);
      const double pick = rng.Uniform();
      r.source = live[rng.Below(live.size())];
      if (pick < kBfsWeight) {
        r.kind = svc::QueryKind::kBfs;
        if (rng.Uniform() < kHotBfsShare) {
          double z = rng.Uniform() * zipf_total;
          size_t i = 0;
          while (i + 1 < kHotSources && (z -= 1.0 / static_cast<double>(i + 1)) > 0) {
            ++i;
          }
          r.source = hot[i];
        }
      } else if (pick < kBfsWeight + kSsspWeight) {
        r.kind = svc::QueryKind::kSssp;
      } else if (pick < kBfsWeight + kSsspWeight + kPprWeight) {
        r.kind = svc::QueryKind::kPpr;
      } else {
        r.kind = svc::QueryKind::kKCore;
        r.source = 0;
        r.k = kMinK + static_cast<uint32_t>(rng.Below(kMaxK - kMinK + 1));
      }
      schedule.push_back(r);
      t += rng.Exponential(kLadder[s].rate);
    }
  }
  return schedule;
}

struct OracleAnswer {
  uint64_t value_fingerprint = 0;
  double sim_ms = 0.0;
  uint64_t edges = 0;
  bool ok = false;
};

// One-shot runs of every distinct question, spread over a few threads. The
// engine options are the service's, so each answer is the value-level
// oracle for a solo, batched or cached reply to the same question.
std::vector<OracleAnswer> ComputeOracles(const Graph& g,
                                         const std::vector<Question>& questions,
                                         const simdx::EngineOptions& options) {
  std::vector<OracleAnswer> answers(questions.size());
  std::atomic<size_t> next{0};
  auto work = [&] {
    const simdx::DeviceSpec device = simdx::MakeK40();
    for (size_t i = next++; i < questions.size(); i = next++) {
      const auto [kind, source, k] = questions[i];
      OracleAnswer& a = answers[i];
      auto take = [&](const auto& r) {
        a.value_fingerprint = simdx::ValueBytesFingerprint(
            r.values.data(), r.values.size() * sizeof(r.values[0]));
        a.sim_ms = r.stats.time.ms;
        a.edges = r.stats.total_edges_processed;
        a.ok = r.stats.ok();
      };
      switch (static_cast<svc::QueryKind>(kind)) {
        case svc::QueryKind::kBfs:
          take(simdx::RunBfs(g, source, device, options));
          break;
        case svc::QueryKind::kSssp:
          take(simdx::RunSssp(g, source, device, options));
          break;
        case svc::QueryKind::kPpr:
          take(simdx::RunPpr(g, source, device, options));
          break;
        case svc::QueryKind::kKCore:
          take(simdx::RunKCore(g, k, device, options));
          break;
        case svc::QueryKind::kCount:
          break;
      }
    }
  };
  const unsigned threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads; ++t) {
    pool.emplace_back(work);
  }
  work();
  for (auto& t : pool) {
    t.join();
  }
  return answers;
}

// Everything set-up builds; members are destroyed server first.
struct Deployment {
  std::unique_ptr<Graph> graph;
  std::unique_ptr<svc::GraphService> service;
  std::unique_ptr<svc::SocketServer> server;
};

wire::RequestFrame FrameOf(const Request& r, size_t index) {
  wire::RequestFrame f;
  f.request_id = index + 1;
  f.kind = static_cast<uint8_t>(r.kind);
  f.source = r.source;
  f.k = r.kind == svc::QueryKind::kKCore ? r.k : 16;
  return f;
}

svc::ServiceOptions MakeServiceOptions() {
  svc::ServiceOptions o;
  o.workers = 2;
  // Deep enough that no ladder step sheds: overload shows as latency.
  o.queue_capacity = 8192;
  o.engine.host_threads = 1;
  o.batch_max = 64;
  o.cache_capacity = 1024;
  return o;
}

// The generator's side of the connections.
struct Connection {
  int fd = -1;
  std::vector<uint8_t> out;
  size_t out_pos = 0;
  wire::FrameDecoder decoder;
};

class Client {
 public:
  Client(std::vector<Request>& requests, Tracer& tracer)
      : requests_(requests), tracer_(tracer) {}
  ~Client() {
    for (Connection& c : conns_) {
      if (c.fd >= 0) {
        ::close(c.fd);
      }
    }
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool Connect(const std::string& path) {
    for (int i = 0; i < kConnections; ++i) {
      Connection& c = conns_[i];
      c.fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
      if (c.fd < 0 || ::connect(c.fd, reinterpret_cast<const sockaddr*>(&addr),
                                sizeof(addr)) != 0) {
        std::printf("serve: connect %s: %s\n", path.c_str(), std::strerror(errno));
        return false;
      }
    }
    return true;
  }

  // Sends requests [first, last) on their schedule from now, then waits for
  // every reply or its timeout. Returns the requests still outstanding when
  // the last one was sent (the backlog check).
  size_t RunStep(size_t first, size_t last, uint64_t step_span) {
    const int64_t base = NowNs() + 1000000;  // 1 ms lead
    for (size_t i = first; i < last; ++i) {
      requests_[i].due_ns = base + requests_[i].offset_ns;
    }
    step_span_ = step_span;
    size_t next = first;
    size_t oldest = first;  // no request before it is still pending
    size_t backlog = 0;
    int64_t last_scan = base;
    while (true) {
      int64_t now = NowNs();
      while (next < last && requests_[next].due_ns <= now) {
        Send(next++);
        if (next == last) {
          backlog = outstanding_;
        }
        now = NowNs();
      }
      if (now - last_scan > 10000000) {
        oldest = ExpireTimeouts(oldest, next, now);
        last_scan = now;
      }
      if (next == last && outstanding_ == 0) {
        return backlog;
      }
      const int64_t wait_ns =
          next < last ? std::max<int64_t>(0, requests_[next].due_ns - now)
                      : 10000000;
      pollfd fds[kConnections];
      for (int i = 0; i < kConnections; ++i) {
        const Connection& c = conns_[i];
        fds[i].fd = c.fd;
        fds[i].events = static_cast<short>(
            POLLIN | (c.out_pos < c.out.size() ? POLLOUT : 0));
        fds[i].revents = 0;
      }
      const timespec ts{static_cast<time_t>(wait_ns / 1000000000),
                        static_cast<long>(wait_ns % 1000000000)};
      if (::ppoll(fds, kConnections, &ts, nullptr) <= 0) {
        continue;
      }
      for (int i = 0; i < kConnections; ++i) {
        if (conns_[i].fd < 0) {
          continue;
        }
        if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
          Receive(i);
        }
        if (conns_[i].fd >= 0 && (fds[i].revents & POLLOUT)) {
          Flush(i);
        }
      }
    }
  }

  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t bytes_received() const { return bytes_received_; }
  uint64_t request_bytes_encoded() const { return request_bytes_encoded_; }

 private:
  void Send(size_t index) {
    Request& r = requests_[index];
    const int conn_index = static_cast<int>(index % kConnections);
    Connection& c = conns_[conn_index];
    const int64_t t0 = NowNs();
    if (c.fd < 0) {
      Finish(index, Status::kTransport, t0);
      return;
    }
    const size_t before = c.out.size();
    wire::EncodeRequest(FrameOf(r, index), &c.out);
    const int64_t t1 = NowNs();
    request_bytes_encoded_ += c.out.size() - before;
    r.sent_ns = t1;
    r.encode_us = static_cast<double>(t1 - t0) / 1e3;
    ++outstanding_;
    Flush(conn_index);
    const int64_t t2 = NowNs();
    if (Traced(index)) {
      // The request span is recorded at completion; its children now.
      tracer_.Add("codec.encode", RequestSpan(index), index + 1, t0, t1);
      tracer_.Add("socket.send", RequestSpan(index), index + 1, t1, t2);
    }
  }

  void Flush(int conn_index) {
    Connection& c = conns_[conn_index];
    while (c.fd >= 0 && c.out_pos < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_pos,
                               c.out.size() - c.out_pos, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        c.out_pos += static_cast<size_t>(n);
        bytes_sent_ += static_cast<uint64_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      } else if (!(n < 0 && errno == EINTR)) {
        Drop(conn_index);
        return;
      }
    }
    c.out.clear();
    c.out_pos = 0;
  }

  void Receive(int conn_index) {
    Connection& c = conns_[conn_index];
    uint8_t buf[65536];
    const int64_t t0 = NowNs();
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      return;
    }
    if (n <= 0) {
      Drop(conn_index);
      return;
    }
    bytes_received_ += static_cast<uint64_t>(n);
    c.decoder.Feed(buf, static_cast<size_t>(n));
    while (true) {
      const int64_t d0 = NowNs();
      const wire::DecodeStatus st = c.decoder.Next(&frame_);
      const int64_t d1 = NowNs();
      if (st == wire::DecodeStatus::kNeedMore) {
        return;
      }
      if (st != wire::DecodeStatus::kOk) {
        std::printf("serve: decode error %s\n", wire::ToString(st));
        Drop(conn_index);
        return;
      }
      const uint64_t id = frame_.type == wire::MsgType::kResponse
                              ? frame_.response.request_id
                              : frame_.reject.request_id;
      if (id != 0 && id <= requests_.size() &&
          requests_[id - 1].status == Status::kTimeout) {
        continue;  // already failed; its late reply changes nothing
      }
      if (id == 0 || id > requests_.size() ||
          requests_[id - 1].status != Status::kPending ||
          requests_[id - 1].sent_ns == 0) {
        std::printf("serve: reply for unknown request %llu\n",
                    static_cast<unsigned long long>(id));
        ++unmatched_replies_;
        continue;
      }
      const size_t index = id - 1;
      Request& r = requests_[index];
      r.decode_us = static_cast<double>(d1 - d0) / 1e3;
      if (frame_.type == wire::MsgType::kResponse) {
        const wire::ResponseFrame& resp = frame_.response;
        r.served = resp.served;
        r.queue_ms = resp.queue_ms;
        r.run_ms = resp.run_ms;
        r.value_fingerprint = resp.value_fingerprint;
        const auto outcome = static_cast<simdx::RunOutcome>(resp.outcome);
        const bool ok = resp.kind == static_cast<uint8_t>(r.kind) &&
                        (outcome == simdx::RunOutcome::kCompleted ||
                         outcome == simdx::RunOutcome::kResumed);
        Finish(index, ok ? Status::kOk : Status::kNotOk, d1);
      } else {
        Finish(index, Status::kRejected, d1);
      }
      if (Traced(index)) {
        const uint64_t parent = RequestSpan(index);
        tracer_.Add("socket.recv", parent, id, t0, d1);
        // The server reports durations only; they are placed ending where
        // the client started reading the reply.
        const int64_t run_start = t0 - static_cast<int64_t>(r.run_ms * 1e6);
        tracer_.Add("service.run", parent, id, run_start, t0);
        tracer_.Add("service.queue", parent, id,
                    run_start - static_cast<int64_t>(r.queue_ms * 1e6), run_start);
      }
    }
  }

  // A connection that failed fails every request still pending on it.
  void Drop(int conn_index) {
    Connection& c = conns_[conn_index];
    std::printf("serve: connection %d lost\n", conn_index);
    ::close(c.fd);
    c.fd = -1;
    const int64_t now = NowNs();
    for (size_t i = static_cast<size_t>(conn_index); i < requests_.size();
         i += kConnections) {
      if (requests_[i].status == Status::kPending && requests_[i].sent_ns != 0) {
        Finish(i, Status::kTransport, now);
      }
    }
  }

  // Fails the requests in [oldest, next) older than the timeout; returns
  // the first one still pending.
  size_t ExpireTimeouts(size_t oldest, size_t next, int64_t now) {
    for (size_t i = oldest; i < next; ++i) {
      Request& r = requests_[i];
      if (r.status == Status::kPending && MsBetween(r.due_ns, now) > kTimeoutMs) {
        Finish(i, Status::kTimeout, now);
      }
    }
    while (oldest < next && requests_[oldest].status != Status::kPending) {
      ++oldest;
    }
    return oldest;
  }

  void Finish(size_t index, Status status, int64_t now) {
    Request& r = requests_[index];
    r.status = status;
    r.done_ns = now;
    if (r.sent_ns != 0) {
      --outstanding_;
    }
  }

  // Every other request is traced; the rest price the tracing.
  bool Traced(size_t index) const { return tracer_.enabled() && index % 2 == 0; }

  uint64_t RequestSpan(size_t index) {
    auto it = request_spans_.find(index);
    if (it == request_spans_.end()) {
      const Request& r = requests_[index];
      it = request_spans_
               .emplace(index, tracer_.Add("request", step_span_, index + 1,
                                           r.due_ns, r.due_ns))
               .first;
    }
    return it->second;
  }

 public:
  // Closes the request spans once every reply is in.
  void CloseRequestSpans() {
    for (const auto& [index, span] : request_spans_) {
      const Request& r = requests_[index];
      tracer_.SetEnd(span, r.done_ns);
    }
  }
  uint64_t unmatched_replies() const { return unmatched_replies_; }

 private:
  std::vector<Request>& requests_;
  Tracer& tracer_;
  Connection conns_[kConnections];
  wire::Frame frame_;
  size_t outstanding_ = 0;
  uint64_t step_span_ = 0;
  std::map<size_t, uint64_t> request_spans_;
  uint64_t bytes_sent_ = 0;
  uint64_t bytes_received_ = 0;
  uint64_t request_bytes_encoded_ = 0;
  uint64_t unmatched_replies_ = 0;
};

}  // namespace

bool RunServeWorkload(const Options& options, Report* report,
                      Outcome* outcome) {
  Tracer tracer(options.trace);
  const uint64_t workload_span = tracer.Begin("workload", 0, 0);
  const svc::ServiceOptions service_options = MakeServiceOptions();

  // ---- Set-up: graph, service and server, repeated; setup_s is the median.
  std::vector<double> setup_ms, generate_ms, build_ms;
  Deployment d;
  uint64_t digest = 0;
  for (int rep = 0; !SetupDone(setup_ms); ++rep) {
    d.server.reset();
    d.service.reset();
    d.graph.reset();
    const uint64_t setup_span = tracer.Begin("setup", workload_span, 0);
    const int64_t t0 = NowNs();
    simdx::EdgeList edges = simdx::GenerateRmat(12, 8, kGraphSeed);
    const int64_t t1 = NowNs();
    d.graph = std::make_unique<Graph>(
        Graph::FromEdges(std::move(edges), /*directed=*/false));
    const int64_t t2 = NowNs();
    d.service = std::make_unique<svc::GraphService>(*d.graph, service_options);
    svc::ServerOptions server_options;
    server_options.uds_path = options.socket_path;
    d.server = std::make_unique<svc::SocketServer>(*d.service, server_options);
    std::string error;
    if (!d.server->Start(&error)) {
      std::printf("serve: server start failed: %s\n", error.c_str());
      return false;
    }
    const int64_t t3 = NowNs();
    tracer.Add("graph.generate", setup_span, 0, t0, t1);
    tracer.Add("graph.build", setup_span, 0, t1, t2);
    tracer.End(setup_span);
    setup_ms.push_back(MsBetween(t0, t3));
    generate_ms.push_back(MsBetween(t0, t1));
    build_ms.push_back(MsBetween(t1, t2));
    const uint64_t dg = GraphDigest(*d.graph);
    if (rep > 0 && dg != digest) {
      std::printf("DRIFT: set-up %d built a different graph\n", rep);
      outcome->drift = true;
    }
    digest = dg;
  }
  const Graph& g = *d.graph;

  Rng rng(options.seed * 0x2545F4914F6CDD1Dull + 29);
  std::vector<Request> requests = MakeSchedule(g, options, rng);
  uint64_t expected_request_bytes = 0;
  {
    std::vector<uint8_t> scratch;
    for (size_t i = 0; i < requests.size(); ++i) {
      scratch.clear();
      wire::EncodeRequest(FrameOf(requests[i], i), &scratch);
      expected_request_bytes += scratch.size();
    }
  }

  // ---- The ladder.
  std::vector<size_t> step_begin(std::size(kLadder) + 1, requests.size());
  for (size_t i = requests.size(); i-- > 0;) {
    step_begin[requests[i].step] = i;
  }
  for (size_t s = std::size(kLadder); s-- > 0;) {
    step_begin[s] = std::min(step_begin[s], step_begin[s + 1]);
  }
  std::vector<size_t> backlog(std::size(kLadder), 0);
  const auto pool_before = simdx::ThreadPool::Global().telemetry();
  ProcSample proc_before, proc_after, low_before, low_after;
  {
    Client client(requests, tracer);
    if (!client.Connect(options.socket_path)) {
      return false;
    }
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    proc_before = SampleProc();
    for (size_t s = 0; s < std::size(kLadder); ++s) {
      const uint64_t step_span = tracer.Begin("step", workload_span, 0);
      if (s == kLow) low_before = SampleProc();
      backlog[s] = client.RunStep(step_begin[s], step_begin[s + 1], step_span);
      if (s == kLow) low_after = SampleProc();
      tracer.End(step_span);
    }
    proc_after = SampleProc();
    client.CloseRequestSpans();
    if (client.request_bytes_encoded() != expected_request_bytes) {
      std::printf("DRIFT: encoded %llu request bytes, the schedule has %llu\n",
                  static_cast<unsigned long long>(client.request_bytes_encoded()),
                  static_cast<unsigned long long>(expected_request_bytes));
      outcome->drift = true;
    }
    report->Set("codec.request_bytes", static_cast<double>(client.bytes_sent()),
                "B", requests.size());
    report->Set("codec.response_bytes",
                static_cast<double>(client.bytes_received()), "B",
                requests.size());
    if (client.unmatched_replies() > 0) {
      outcome->drift = true;
    }
    // Cross-layer byte identities: what the client sent is what the server
    // read, and the other way round (unless a reply came after its timeout,
    // when the client had stopped reading).
    d.server->Drain(kTimeoutMs);
    const svc::ServerStats ss = d.server->stats();
    const bool timed_out = std::any_of(requests.begin(), requests.end(), [](const Request& r) {
      return r.status == Status::kTimeout;
    });
    if (ss.bytes_rx != client.bytes_sent() ||
        (!timed_out && ss.bytes_tx != client.bytes_received())) {
      std::printf("DRIFT: bytes client tx/rx %llu/%llu, server rx/tx %llu/%llu\n",
                  static_cast<unsigned long long>(client.bytes_sent()),
                  static_cast<unsigned long long>(client.bytes_received()),
                  static_cast<unsigned long long>(ss.bytes_rx),
                  static_cast<unsigned long long>(ss.bytes_tx));
      outcome->drift = true;
    }
    report->Set("server.requests", static_cast<double>(ss.requests), "count", 1);
    report->Set("server.rejects", static_cast<double>(ss.rejects), "count", 1);
    report->Set("server.pipeline_rejects",
                static_cast<double>(ss.pipeline_rejects), "count", 1);
    report->Set("server.bytes_tx", static_cast<double>(ss.bytes_tx), "B", 1);
  }
  const auto pool_after = simdx::ThreadPool::Global().telemetry();
  // Before the oracle threads run: their allocations are not the server's.
  const double peak_rss_mb = SampleProc().max_rss_mb;
  d.service->Drain();
  const svc::ServiceStats st = d.service->stats();
  tracer.End(workload_span);

  // Ledger identities of the drained service.
  const uint64_t verdicts =
      st.admitted + st.shed_queue_full + st.shed_deadline + st.rejected_invalid;
  const uint64_t outcomes = st.completed + st.faulted + st.cancelled +
                            st.deadline_exceeded + st.sink_failed;
  if (st.submitted != verdicts || st.admitted != outcomes) {
    std::printf("LEDGER: submitted %llu != verdicts %llu or admitted %llu != "
                "outcomes %llu\n",
                static_cast<unsigned long long>(st.submitted),
                static_cast<unsigned long long>(verdicts),
                static_cast<unsigned long long>(st.admitted),
                static_cast<unsigned long long>(outcomes));
    outcome->drift = true;
  }

  // ---- Oracles, outside the timed region: every distinct question once.
  std::map<Question, size_t> index_of;
  std::vector<Question> questions;
  for (Request& r : requests) {
    const Question q{static_cast<uint8_t>(r.kind), r.source, r.k};
    auto [it, fresh] = index_of.emplace(q, questions.size());
    if (fresh) {
      questions.push_back(q);
    }
    r.oracle = it->second;
  }
  const std::vector<OracleAnswer> oracle =
      ComputeOracles(g, questions, service_options.engine);
  uint64_t by_status[static_cast<size_t>(Status::kTransport) + 1] = {};
  for (Request& r : requests) {
    const OracleAnswer& a = oracle[r.oracle];
    if (r.status == Status::kOk && (!a.ok || a.value_fingerprint != r.value_fingerprint)) {
      r.status = Status::kWrongAnswer;
    }
    ++by_status[static_cast<size_t>(r.status)];
  }
  const uint64_t wrong = by_status[static_cast<size_t>(Status::kWrongAnswer)];
  const uint64_t failed =
      requests.size() - by_status[static_cast<size_t>(Status::kOk)];
  outcome->attempted = requests.size();
  outcome->failed = failed;
  outcome->wrong = wrong;
  std::printf("failed: %llu (wrong answer %llu, run not ok %llu, rejected %llu, "
              "timed out %llu, transport %llu)\n",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(wrong),
              static_cast<unsigned long long>(by_status[static_cast<size_t>(Status::kNotOk)]),
              static_cast<unsigned long long>(by_status[static_cast<size_t>(Status::kRejected)]),
              static_cast<unsigned long long>(by_status[static_cast<size_t>(Status::kTimeout)]),
              static_cast<unsigned long long>(by_status[static_cast<size_t>(Status::kTransport)]));
  std::printf("oracle: %zu of %zu answers checked (100%%) against %zu one-shot "
              "runs, %llu wrong\n",
              requests.size(), requests.size(), questions.size(),
              static_cast<unsigned long long>(wrong));

  // ---- Per-step latency, failures and the SLO ladder.
  auto step_latencies = [&](size_t s) {
    std::vector<double> v;
    for (size_t i = step_begin[s]; i < step_begin[s + 1]; ++i) {
      v.push_back(requests[i].latency_ms());
    }
    return v;
  };
  double slo_qps = 0.0;
  for (size_t s = kLow; s < std::size(kLadder); ++s) {
    const std::vector<double> lat = step_latencies(s);
    uint64_t step_failed = 0;
    for (size_t i = step_begin[s]; i < step_begin[s + 1]; ++i) {
      step_failed += requests[i].status == Status::kOk ? 0 : 1;
    }
    const double p99 = Percentile(lat, 99);
    const double failed_frac =
        lat.empty() ? 1.0 : static_cast<double>(step_failed) / static_cast<double>(lat.size());
    // A growing backlog: more in flight when the last request left than the
    // rate could keep within the limit.
    const bool backlog_ok =
        static_cast<double>(backlog[s]) <= kLadder[s].rate * kLimitMs / 1e3 + 16;
    const bool meets = p99 <= kLimitMs && failed_frac <= kMaxFailedFrac && backlog_ok;
    if (meets) {
      slo_qps = kLadder[s].rate;
    }
    std::printf("step %-6s %5.0f qps: n=%zu p50=%.3f p99=%.3f ms failed=%llu "
                "backlog=%zu %s\n",
                kLadder[s].name, kLadder[s].rate, lat.size(), Percentile(lat, 50),
                p99, static_cast<unsigned long long>(step_failed), backlog[s],
                meets ? "meets limit" : "misses limit");
  }

  // ---- End-to-end metrics.
  const std::vector<double> low = step_latencies(kLow);
  const std::vector<double> high = step_latencies(kHigh);
  report->Set("lat_low.p50", BlockPercentile(low, 50), "ms", low.size());
  report->Set("lat_low.p99", BlockPercentile(low, 99), "ms", low.size());
  report->Set("lat_high.p50", BlockPercentile(high, 50), "ms", high.size());
  report->Set("lat_high.p99", BlockPercentile(high, 99), "ms", high.size());
  // Per-kind latency at `low`: at `high` the kinds' tails are set by rare
  // PPR pile-ups and spread too much from run to run to gate on.
  std::vector<double> kind_ms[svc::kQueryKindCount];
  for (size_t i = step_begin[kLow]; i < step_begin[kLow + 1]; ++i) {
    kind_ms[static_cast<uint8_t>(requests[i].kind)].push_back(
        requests[i].latency_ms());
  }
  uint64_t good = 0, high_edges = 0;
  std::vector<double> queue_ms, run_ms;
  uint64_t cached = 0, batched = 0, answered = 0;
  for (size_t i = step_begin[kHigh]; i < step_begin[kHigh + 1]; ++i) {
    const Request& r = requests[i];
    if (r.latency_ms() <= kLimitMs) {
      ++good;
    }
    if (r.status == Status::kOk) {
      high_edges += oracle[r.oracle].edges;
      queue_ms.push_back(r.queue_ms);
      run_ms.push_back(r.run_ms);
      ++answered;
      cached += r.served == static_cast<uint8_t>(svc::ServedBy::kCache) ? 1 : 0;
      batched += r.served == static_cast<uint8_t>(svc::ServedBy::kBatched) ? 1 : 0;
    }
  }
  const double high_s = options.seconds * kLadder[kHigh].share;
  const auto& bfs = kind_ms[static_cast<uint8_t>(svc::QueryKind::kBfs)];
  const auto& sssp = kind_ms[static_cast<uint8_t>(svc::QueryKind::kSssp)];
  report->Set("bfs_ms.p50", BlockPercentile(bfs, 50), "ms", bfs.size());
  report->Set("bfs_ms.p90", BlockPercentile(bfs, 90), "ms", bfs.size());
  report->Set("sssp_ms.p50", BlockPercentile(sssp, 50), "ms", sssp.size());
  report->Set("sssp_ms.p90", BlockPercentile(sssp, 90), "ms", sssp.size());
  report->Set("goodput_qps", static_cast<double>(good) / high_s, "1/s", high.size());
  report->Set("slo_qps", slo_qps, "1/s", std::size(kLadder) - 1);
  report->Set("medges_per_s", static_cast<double>(high_edges) / high_s / 1e6,
              "Medges/s", answered);
  double sim_bfs = 0.0, sim_sssp = 0.0, sim_total = 0.0;
  for (size_t q = 0; q < questions.size(); ++q) {
    sim_total += oracle[q].sim_ms;
    const auto kind = static_cast<svc::QueryKind>(std::get<0>(questions[q]));
    sim_bfs += kind == svc::QueryKind::kBfs ? oracle[q].sim_ms : 0.0;
    sim_sssp += kind == svc::QueryKind::kSssp ? oracle[q].sim_ms : 0.0;
  }
  report->Set("sim_ms", sim_total, "ms", questions.size());
  report->Set("setup_s", Percentile(setup_ms, 50) / 1e3, "s", setup_ms.size());
  report->Set("ok_frac",
              1.0 - static_cast<double>(failed) / static_cast<double>(requests.size()),
              "frac", requests.size());
  report->Set("failed_frac",
              static_cast<double>(failed) / static_cast<double>(requests.size()),
              "frac", requests.size());
  report->Set("peak_rss_mb", peak_rss_mb, "MB", 1);

  // ---- Per-layer metrics.
  report->Set("graph.generate_ms", Percentile(generate_ms, 50), "ms",
              generate_ms.size());
  report->Set("graph.build_ms", Percentile(build_ms, 50), "ms", build_ms.size());
  report->Set("graph.vertices", g.vertex_count(), "count", 1);
  report->Set("graph.edges", static_cast<double>(g.edge_count()), "count", 1);
  report->Set("sim.bfs_ms", sim_bfs, "ms", questions.size());
  report->Set("sim.sssp_ms", sim_sssp, "ms", questions.size());
  report->Set("service.queue_ms.p50", Percentile(queue_ms, 50), "ms", answered);
  report->Set("service.queue_ms.p99", Percentile(queue_ms, 99), "ms", answered);
  report->Set("service.run_ms.p50", Percentile(run_ms, 50), "ms", answered);
  report->Set("service.run_ms.p99", Percentile(run_ms, 99), "ms", answered);
  const double n_answered = std::max<double>(1.0, static_cast<double>(answered));
  report->Set("service.served.cache_frac", static_cast<double>(cached) / n_answered,
              "frac", answered);
  report->Set("service.served.batched_frac",
              static_cast<double>(batched) / n_answered, "frac", answered);
  report->Set("service.batch_size.mean",
              st.batches == 0 ? 0.0
                              : static_cast<double>(st.batched_queries) /
                                    static_cast<double>(st.batches),
              "count", st.batches);
  const uint64_t lookups = st.cache_hits + st.cache_misses;
  report->Set("service.cache.hit_rate",
              lookups == 0 ? 0.0
                           : static_cast<double>(st.cache_hits) /
                                 static_cast<double>(lookups),
              "frac", lookups);
  report->Set("service.cache.evictions", static_cast<double>(st.cache_evictions),
              "count", 1);
  report->Set("service.shed", static_cast<double>(st.shed_queue_full + st.shed_deadline),
              "count", 1);
  report->Set("service.retries", static_cast<double>(st.retries), "count", 1);
  report->Set("service.ladder_transitions", static_cast<double>(st.ladder.size()),
              "count", 1);

  std::vector<double> transport, encode_us, decode_us, late_ms;
  for (size_t i = step_begin[kLow]; i < step_begin[kLow + 1]; ++i) {
    const Request& r = requests[i];
    if (r.status == Status::kOk) {
      transport.push_back(r.latency_ms() - r.queue_ms - r.run_ms);
    }
  }
  for (const Request& r : requests) {
    if (r.sent_ns != 0) {
      encode_us.push_back(r.encode_us);
      late_ms.push_back(MsBetween(r.due_ns, r.sent_ns));
    }
    if (r.status == Status::kOk || r.status == Status::kWrongAnswer) {
      decode_us.push_back(r.decode_us);
    }
  }
  report->Set("transport.ms.p50", Percentile(transport, 50), "ms", transport.size());
  report->Set("transport.ms.p99", Percentile(transport, 99), "ms", transport.size());
  report->Set("codec.encode_us.p50", Percentile(encode_us, 50), "us", encode_us.size());
  report->Set("codec.decode_us.p50", Percentile(decode_us, 50), "us", decode_us.size());
  report->Set("gen.late_ms.p99", Percentile(late_ms, 99), "ms", late_ms.size());
  report->Set("gen.late_ms.max", Percentile(late_ms, 100), "ms", late_ms.size());
  const double n_requests = static_cast<double>(requests.size());
  report->Set("pool.submits",
              static_cast<double>(pool_after.submits - pool_before.submits) / n_requests,
              "1/op", requests.size());
  report->Set("pool.contended_submits",
              static_cast<double>(pool_after.contended_submits -
                                  pool_before.contended_submits) / n_requests,
              "1/op", requests.size());
  report->Set("pool.inline_runs",
              static_cast<double>(pool_after.inline_runs - pool_before.inline_runs) /
                  n_requests,
              "1/op", requests.size());
  SetProcMetrics(proc_before, proc_after, report);
  // CPU per query at the low step prices the dispatch loop's polling.
  const uint64_t low_n = step_begin[kLow + 1] - step_begin[kLow];
  report->Set("proc.cpu_us_per_query",
              (low_after.cpu_s - low_before.cpu_s) * 1e6 / static_cast<double>(low_n),
              "us", low_n);
  if (tracer.enabled()) {
    std::vector<double> traced, plain;
    for (size_t i = step_begin[kLow]; i < step_begin[kLow + 1]; ++i) {
      (i % 2 == 0 ? traced : plain).push_back(requests[i].latency_ms());
    }
    const double p = Percentile(plain, 50);
    report->Set("trace.overhead_frac", p > 0.0 ? Percentile(traced, 50) / p - 1.0 : 0.0,
                "frac", traced.size() + plain.size());
  }
  FinishTrace(tracer, options, report);
  return true;
}

}  // namespace perfbench
