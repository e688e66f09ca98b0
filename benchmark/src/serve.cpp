/// \file serve.cpp
/// serve_mixed and serve_overload: an open-loop load generator against an
/// in-process net::Server over loopback. Frames are pipelined on one
/// connection through the public encode_solve_request / extract_frame /
/// decode_solve_response functions (the blocking net::Client would close
/// the loop), each request is timed from when it was due, and every
/// remote period is checked against an in-process ground-truth solve.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>
#include <thread>

#include "pmcast/scenario.hpp"
#include "pmcast/server.hpp"
#include "workloads.hpp"

namespace pmbench {
namespace {

/// Fixed once when the benchmark was defined (README: calibration).
constexpr double kMixedRate = 600.0;        ///< requests/s, serve_mixed
constexpr double kOverloadRate = 1200.0;    ///< requests/s, serve_overload
constexpr double kHotFraction = 0.9;
constexpr int kHotPool = 48;
constexpr int kNodes = 10;
/// Set-up warms its server with this many instances of a fixed seed, with
/// pruning off, so that set-up time follows neither the workload seed's
/// draw nor the timing of the pruning race.
constexpr int kWarmUpPool = 12;
constexpr std::uint64_t kWarmUpSeed = 0x5eed;
/// Goodput latency limit, inside the latency distribution: near the cold
/// requests' p75 and 100x the cache-hit median (README: calibration).
constexpr double kLatencyLimitMs = 20.0;
/// serve_overload deadlines: most callers allow kOverloadDeadlineMs, a
/// latency-critical share only kTightDeadlineMs.
constexpr double kOverloadDeadlineMs = 100.0;
constexpr double kTightDeadlineMs = 1.0;
constexpr double kTightFraction = 0.2;
constexpr int kOverloadMaxInFlight = 8;
/// A serve run is invalid when the generator's p99 lateness exceeds this.
constexpr double kMaxLatenessMs = 50.0;
/// The sender spins through the last stretch before each due time.
constexpr std::chrono::microseconds kSpinWindow{200};
/// How long to wait for answers after the last request was due.
constexpr double kGraceMs = 5'000.0;

const scenario::Family kFamilies[] = {
    scenario::Family::Tiers, scenario::Family::FatTree, scenario::Family::Star,
    scenario::Family::Grid};

/// The instance as the server sees it: the wire carries the canonical
/// encoding (edges sorted), and edge order can break heuristic ties, so the
/// ground truth is solved on the decoded problem.
Problem serve_instance(std::uint64_t seed, std::uint64_t stream,
                       std::size_t i) {
  scenario::ScenarioSpec spec;
  spec.family = kFamilies[i % std::size(kFamilies)];
  spec.nodes = kNodes;
  spec.seed = mix_seed(seed, stream, i);
  spec.target_density = (i / std::size(kFamilies)) % 2 == 0 ? 0.3 : 0.5;
  spec.policy = scenario::TargetPolicy::LeafBiased;
  net::WireRequest request;
  request.problem = scenario::generate_scenario(spec).problem;
  net::Frame frame;
  std::size_t consumed = 0;
  std::string error;
  const std::vector<std::uint8_t> bytes = net::encode_solve_request(request);
  if (net::extract_frame(bytes, &frame, &consumed, &error) ==
      net::FrameStatus::kOk) {
    if (Result<net::WireRequest> decoded = net::decode_solve_request(frame);
        decoded.ok()) {
      return std::move(decoded->problem);
    }
  }
  return std::move(request.problem);  // the mismatch check will flag it
}

enum class State { kPending, kOk, kShed, kExpired, kError };

struct Request {
  bool hot = false;
  bool tight = false;        ///< serve_overload: carries the tight deadline
  std::size_t instance = 0;  ///< index into the pool (hot) or cold set
  Clock::time_point due, sent, recv, decoded;
  State state = State::kPending;
  net::WireResponse response;
  std::string error;
};

struct Inputs {
  std::vector<Problem> pool, cold;
  std::vector<double> pool_truth;
  std::vector<Request> schedule;       ///< due offsets filled at run time
  /// Cold ground truth, solved after the run for the answered instances
  /// (0 = not solved yet).
  std::vector<double> cold_truth;
  std::vector<std::vector<std::uint8_t>> frames;  ///< one per request
  double rate = 0.0;
};

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool send_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// One in-process server on an ephemeral loopback port, run on its own
/// thread; drained and joined on destruction.
class LiveServer {
 public:
  LiveServer(const net::ServerOptions& options) : server_(options) {}
  ~LiveServer() {
    if (thread_.joinable()) {
      server_.request_drain();
      thread_.join();
    }
  }
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  Status start() {
    Status status = server_.start();
    if (status.ok()) thread_ = std::thread([this] { server_.run(); });
    return status;
  }
  std::uint16_t port() const { return server_.port(); }

 private:
  net::Server server_;
  std::thread thread_;
};

/// The server's workers: one core is left to the event loop and the load
/// generator's two threads, which share the box. With every core given to
/// workers, cold solves starved the event loop and the median (a cache hit)
/// moved by up to 2x between runs.
int server_workers(const Context& ctx) { return std::max(1, ctx.threads - 1); }

net::ServerOptions server_options(const Context& ctx, bool overload) {
  net::ServerOptions options;
  options.service.threads = server_workers(ctx);
  if (overload) {
    options.brownout.enabled = true;
    options.global_max_in_flight = kOverloadMaxInFlight;
  }
  return options;
}

net::WireRequest wire_request(const Problem& problem, std::uint64_t id,
                              bool overload, bool tight) {
  net::WireRequest request;
  request.request_id = id;
  request.problem = problem;
  if (overload) {
    request.deadline_ms = tight ? kTightDeadlineMs : kOverloadDeadlineMs;
  } else {
    request.no_deadline = true;
  }
  return request;
}

/// Solve every pool instance once through \p port, from one blocking
/// client per server worker: a measured phase starts with a primed cache
/// and admission estimate.
bool warm_up(std::uint16_t port, const std::vector<Problem>& pool,
             std::optional<PruningPolicy> pruning, int clients) {
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Result<net::Client> client = net::Client::connect("127.0.0.1", port);
      if (!client.ok()) {
        ok = false;
        return;
      }
      for (std::size_t i = c; i < pool.size(); i += clients) {
        SolveRequest request;
        request.problem = pool[i];
        request.deadline_ms = SolveRequest::kNoDeadline;
        request.pruning = pruning;
        if (!client->solve(request).ok()) ok = false;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return ok;
}

/// Start \p server and warm it up with \p pool.
bool start_and_warm(const Context& ctx, const std::vector<Problem>& pool,
                    std::optional<PruningPolicy> pruning, LiveServer* server,
                    Report* report) {
  if (Status s = server->start(); !s.ok()) {
    report->error("serve: server failed to start: " + s.to_string());
    return false;
  }
  if (!warm_up(server->port(), pool, pruning, server_workers(ctx))) {
    report->error("serve: warm-up against the server failed");
    return false;
  }
  return true;
}

struct PhaseResult {
  std::vector<Request> requests;
  net::ServerWireStats stats;
  std::uint64_t evictions = 0;
  bool stats_ok = false;
};

/// Record request \p i's spans as soon as its reply is decoded, on the
/// receiver thread, so a traced phase pays for its tracing.
void trace_request(Tracer* tracer, const Request& r, std::size_t i) {
  const int root = tracer->add("serve.request", r.due, r.decoded, -1, i + 1);
  tracer->add("loadgen.lateness", r.due, r.sent, root, i + 1);
  const int wire = tracer->add("net.server", r.sent, r.recv, root, i + 1);
  tracer->add("loadgen.receive", r.recv, r.decoded, root, i + 1);
  if (r.state == State::kOk) {
    // Server-reported split, anchored at the arrival of the reply.
    const Clock::time_point solve_start = r.recv - ms_duration(r.response.solve_ms);
    tracer->add("api.service.queue", r.recv - ms_duration(r.response.total_ms),
                solve_start, wire, i + 1);
    tracer->add("runtime.portfolio", solve_start, r.recv, wire, i + 1);
  }
}

/// One measured open-loop phase against a fresh server.
PhaseResult run_phase(const Context& ctx, bool overload, const Inputs& in,
                      Tracer* tracer, Report* report) {
  PhaseResult out;
  out.requests = in.schedule;
  LiveServer server(server_options(ctx, overload));
  if (!start_and_warm(ctx, in.pool, std::nullopt, &server, report)) return out;
  const int fd = connect_loopback(server.port());
  if (fd < 0) {
    report->error("serve: cannot connect to the server");
    return out;
  }

  std::vector<Request>& reqs = out.requests;
  const std::size_t n = reqs.size();
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  const auto interval = std::chrono::duration<double>(1.0 / in.rate);
  for (std::size_t i = 0; i < n; ++i) {
    reqs[i].due = t0 + std::chrono::duration_cast<Clock::duration>(interval * i);
  }
  std::atomic<std::size_t> answered{0};
  // Requests [0, sent) have their send time written (release/acquire).
  std::atomic<std::size_t> sent{0};

  // Receiver: peel frames off the byte stream and settle their requests.
  std::thread receiver([&] {
    std::vector<std::uint8_t> buffer;
    std::uint8_t chunk[1 << 16];
    while (answered.load(std::memory_order_relaxed) < n) {
      const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) return;
      const Clock::time_point recv_time = Clock::now();
      buffer.insert(buffer.end(), chunk, chunk + got);
      std::size_t offset = 0;
      for (;;) {
        net::Frame frame;
        std::size_t consumed = 0;
        std::string error;
        const net::FrameStatus status = net::extract_frame(
            std::span<const std::uint8_t>(buffer).subspan(offset), &frame,
            &consumed, &error);
        if (status == net::FrameStatus::kNeedMore) break;
        if (status == net::FrameStatus::kMalformed) return;
        offset += consumed;
        const std::uint64_t id = frame.header.request_id;
        if (id == 0 || id > sent.load(std::memory_order_acquire)) continue;
        Request& r = reqs[id - 1];
        r.recv = recv_time;
        if (frame.header.type == net::MessageType::kSolveResponse) {
          Result<net::WireResponse> decoded = net::decode_solve_response(frame);
          if (decoded.ok()) {
            r.state = State::kOk;
            r.response = std::move(*decoded);
          } else {
            r.state = State::kError;
            r.error = decoded.status().to_string();
          }
        } else {
          Result<net::WireErrorMessage> decoded = net::decode_error(frame);
          if (!decoded.ok()) {
            r.state = State::kError;
            r.error = decoded.status().to_string();
          } else if (decoded->code == net::WireError::kOverloaded) {
            r.state = State::kShed;
          } else if (decoded->code == net::WireError::kDeadlineExceeded) {
            r.state = State::kExpired;
          } else {
            r.state = State::kError;
            r.error = decoded->to_status().to_string();
          }
        }
        r.decoded = Clock::now();
        if (tracer != nullptr) trace_request(tracer, r, id - 1);
        answered.fetch_add(1, std::memory_order_relaxed);
      }
      buffer.erase(buffer.begin(), buffer.begin() + static_cast<long>(offset));
    }
  });

  // Sender: one frame per due time, never waiting for replies.
  std::thread sender([&] {
    for (std::size_t i = 0; i < n; ++i) {
      // Sleep to just short of the due time, then spin: a timer wake-up
      // alone lands 50-100 us late with a spread that varied run to run.
      std::this_thread::sleep_until(reqs[i].due - kSpinWindow);
      while (Clock::now() < reqs[i].due) {
      }
      reqs[i].sent = Clock::now();
      sent.store(i + 1, std::memory_order_release);
      if (!send_all(fd, in.frames[i])) return;
    }
  });
  sender.join();

  const Clock::time_point give_up =
      reqs.back().due + std::chrono::milliseconds(static_cast<int>(kGraceMs));
  while (answered.load(std::memory_order_relaxed) < n && Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ::shutdown(fd, SHUT_RDWR);
  receiver.join();
  ::close(fd);

  Result<net::Client> client = net::Client::connect("127.0.0.1", server.port());
  if (client.ok()) {
    Result<net::ServerWireStats> stats = client->stats();
    Result<net::ServerWireTrace> trace = client->trace();
    if (stats.ok() && trace.ok()) {
      out.stats = *stats;
      for (const net::WireShardHeat& h : trace->shard_heat) out.evictions += h.evictions;
      out.stats_ok = true;
    }
  }
  if (!out.stats_ok) report->error("serve: could not fetch server stats");
  return out;
}

struct Figures {
  double latency_p50 = 0, latency_p99 = 0, goodput = 0, period_ratio = 0;
  double lateness_p99 = 0, hot_p50 = 0, cold_p50 = 0, cold_p75 = 0;
  double mean_gap = 0;
  long long ok = 0, shed = 0, expired = 0, failed = 0, brownout = 0;
};

Figures summarise(const Inputs& in,
                  const PhaseResult& phase, Report* report,
                  PortfolioLedger* ledger) {
  Figures f;
  std::vector<double> latency, hot, cold, lateness, ratios, gaps;
  long long unanswered = 0, errors = 0, wrong = 0;
  std::size_t first_unanswered = 0;
  std::string first_error;
  long long good = 0;
  for (std::size_t i = 0; i < phase.requests.size(); ++i) {
    const Request& r = phase.requests[i];
    if (r.state != State::kPending || r.sent != Clock::time_point{}) {
      lateness.push_back(ms_between(r.due, r.sent));
    }
    switch (r.state) {
      case State::kShed: ++f.shed; continue;
      case State::kExpired: ++f.expired; continue;
      case State::kPending:
        ++f.failed;
        if (unanswered++ == 0) first_unanswered = i + 1;
        continue;
      case State::kError:
        ++f.failed;
        if (errors++ == 0) first_error = r.error;
        continue;
      case State::kOk: break;
    }
    const net::WireResponse& w = r.response;
    const double truth = r.hot ? in.pool_truth[r.instance] : in.cold_truth[r.instance];
    // Full-portfolio answers must reproduce the ground truth; a brownout or
    // deadline-cut answer may only be worse, never better.
    const bool full = w.brownout == 0 && w.skipped == 0;
    const bool right = full ? close_rel(w.period, truth, 1e-9)
                            : std::isfinite(w.period) &&
                                  w.period >= truth * (1.0 - 1e-9);
    if (!right) {
      ++f.failed;
      if (wrong++ < 5) {
        report->error("serve: request " + std::to_string(i + 1) + " period " +
                      std::to_string(w.period) + " != ground truth " +
                      std::to_string(truth));
      }
      continue;
    }
    ++f.ok;
    if (w.brownout != 0) ++f.brownout;
    const double ms = ms_between(r.due, r.decoded);
    latency.push_back(ms);
    (r.hot ? hot : cold).push_back(ms);
    if (ms <= kLatencyLimitMs) ++good;
    double best_tree = std::numeric_limits<double>::infinity();
    for (const net::WireOutcome& o : w.outcomes) {
      if (o.strategy < 8 && is_tree_heuristic(static_cast<StrategyId>(o.strategy)) &&
          o.state == static_cast<std::uint8_t>(OutcomeState::Certified)) {
        best_tree = std::min(best_tree, o.period);
      }
    }
    if (std::isfinite(best_tree)) ratios.push_back(w.period / best_tree);
    if (w.proven_lower_bound > 0.0) gaps.push_back(w.period / w.proven_lower_bound);
    if (ledger != nullptr) ledger->add(w);
  }
  if (unanswered > 0) {
    report->error("serve: " + std::to_string(unanswered) +
                  " requests unanswered at the end of the run (first: " +
                  std::to_string(first_unanswered) + ")");
  }
  if (errors > 0) {
    report->error("serve: " + std::to_string(errors) +
                  " requests failed (first: " + first_error + ")");
  }
  if (wrong > 5) {
    report->error("serve: " + std::to_string(wrong) + " wrong answers in all");
  }
  f.latency_p50 = percentile(latency, 0.5);
  f.latency_p99 = percentile(latency, 0.99);
  f.hot_p50 = percentile(hot, 0.5);
  f.cold_p50 = percentile(cold, 0.5);
  f.cold_p75 = percentile(cold, 0.75);
  f.lateness_p99 = percentile(lateness, 0.99);
  f.goodput = good / (static_cast<double>(phase.requests.size()) / in.rate);
  f.period_ratio = mean(ratios);
  f.mean_gap = mean(gaps);
  return f;
}

/// Ground truth: solve \p problems locally, in-process (a response does
/// not depend on the worker count).
std::vector<double> solve_truth(const Context& ctx,
                                const std::vector<Problem>& problems,
                                Report* report) {
  ServiceOptions options;
  options.threads = ctx.threads;
  Service truth(options);
  std::vector<SolveRequest> requests;
  for (const Problem& p : problems) {
    SolveRequest request;
    request.problem = p;
    requests.push_back(std::move(request));
  }
  std::vector<double> periods;
  for (const Result<SolveResponse>& r : truth.solve_batch(std::move(requests))) {
    if (!r.ok()) report->error("serve: ground-truth solve failed");
    periods.push_back(r.ok() ? r->period : 0.0);
  }
  return periods;
}

/// Generate the inputs and pre-encode every request frame. Ground truth is
/// solved outside the timed set-up: the hot pool's before the run, the cold
/// instances' after it.
Inputs make_inputs(const Context& ctx, bool overload) {
  Inputs in;
  in.rate = overload ? kOverloadRate : kMixedRate;
  const std::size_t n = static_cast<std::size_t>(in.rate * ctx.seconds);
  for (int i = 0; i < kHotPool; ++i) in.pool.push_back(serve_instance(ctx.seed, 5, i));
  in.schedule.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t draw = mix_seed(ctx.seed, 7, i);
    Request& r = in.schedule[i];
    r.hot = static_cast<double>(draw % 1'000'000) < kHotFraction * 1e6;
    r.tight = static_cast<double>((draw >> 40) % 1'000) < kTightFraction * 1e3;
    if (r.hot) {
      r.instance = static_cast<std::size_t>((draw >> 20) % kHotPool);
    } else {
      r.instance = in.cold.size();
      in.cold.push_back(serve_instance(ctx.seed, 6, in.cold.size()));
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Request& r = in.schedule[i];
    in.frames.push_back(net::encode_solve_request(
        wire_request(r.hot ? in.pool[r.instance] : in.cold[r.instance], i + 1,
                     overload, r.tight)));
  }
  in.cold_truth.assign(in.cold.size(), 0.0);
  return in;
}

/// Solve the ground truth of every cold instance that got an answer in
/// \p phases (each cold instance is requested once per phase).
void verify_cold(const Context& ctx, const std::vector<const PhaseResult*>& phases,
                 Inputs* in, Report* report) {
  std::vector<char> wanted(in->cold.size(), 0);
  for (const PhaseResult* phase : phases) {
    for (const Request& r : phase->requests) {
      if (!r.hot && r.state == State::kOk) wanted[r.instance] = 1;
    }
  }
  std::vector<Problem> problems;
  std::vector<std::size_t> index;
  for (std::size_t i = 0; i < wanted.size(); ++i) {
    if (wanted[i] && in->cold_truth[i] == 0.0) {
      problems.push_back(in->cold[i]);
      index.push_back(i);
    }
  }
  const std::vector<double> periods = solve_truth(ctx, problems, report);
  for (std::size_t k = 0; k < index.size(); ++k) in->cold_truth[index[k]] = periods[k];
}

}  // namespace

void run_serve(const Context& ctx, bool overload, Report* report,
               Tracer* tracer) {
  // Set-up, repeated: instance generation, frame encoding, and a server
  // started, warmed up with a fixed pool and drained. Each measured phase
  // then starts its own server and warms it with the seed's hot pool.
  std::vector<Problem> warm_pool;
  for (int i = 0; i < kWarmUpPool; ++i) {
    warm_pool.push_back(serve_instance(kWarmUpSeed, 5, i));
  }
  std::vector<double> setup_s;
  Inputs in;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const Clock::time_point t0 = Clock::now();
    in = make_inputs(ctx, overload);
    {
      LiveServer server(server_options(ctx, overload));
      start_and_warm(ctx, warm_pool, PruningPolicy::Off, &server, report);
    }
    setup_s.push_back(ms_since(t0) / 1000.0);
  }
  in.pool_truth = solve_truth(ctx, in.pool, report);

  PhaseResult phase = run_phase(ctx, overload, in, nullptr, report);
  PhaseResult traced;
  PortfolioLedger ledger;
  if (tracer != nullptr) traced = run_phase(ctx, overload, in, tracer, report);
  verify_cold(ctx, {&phase, &traced}, &in, report);
  Figures f = summarise(in, phase, report, nullptr);
  const double n = static_cast<double>(phase.requests.size());
  report->attempted = static_cast<long long>(phase.requests.size());
  report->failed = f.failed;

  report->note("latency_p50_ms", f.latency_p50, "ms");
  report->e2e("goodput_rps", f.goodput, "1/s");
  report->e2e("period_ratio", f.period_ratio, "ratio");
  report->e2e("setup_s", median(setup_s), "s");
  report->note("latency_p99_ms", f.latency_p99, "ms");
  report->note("offered_rps", in.rate, "1/s");
  report->note("shed_ratio", n > 0 ? f.shed / n : 0.0, "ratio");
  report->note("expired_ratio", n > 0 ? f.expired / n : 0.0, "ratio");
  report->note("failed_ratio", n > 0 ? f.failed / n : 0.0, "ratio");
  report->note("brownout_answers", static_cast<double>(f.brownout), "count");
  report->note("lateness_p99_ms", f.lateness_p99, "ms");
  report->note("hot_latency_p50_ms", f.hot_p50, "ms");
  report->note("cold_latency_p50_ms", f.cold_p50, "ms");
  report->note("cold_latency_p75_ms", f.cold_p75, "ms");
  report->note("cold_instances", static_cast<double>(in.cold.size()), "count");

  // Honest open loop: a generator that fell behind measured itself.
  if (f.lateness_p99 > kMaxLatenessMs) {
    report->error("invalid run: generator p99 lateness " +
                  std::to_string(f.lateness_p99) + " ms exceeds " +
                  std::to_string(kMaxLatenessMs) + " ms");
  }
  // Path-coverage tripwires.
  const net::ServerWireStats& s = phase.stats;
  if (phase.stats_ok) {
    if (!overload) {
      if (s.cache_hits == 0) report->error("tripwire: serve_mixed saw no cache hits");
      if (s.cache_misses == 0) report->error("tripwire: serve_mixed saw no cold inserts");
      if (s.total_shed() != 0 || f.shed != 0) {
        report->error("tripwire: serve_mixed shed requests");
      }
    } else {
      if (s.shed_deadline == 0) report->error("tripwire: serve_overload saw no deadline sheds");
      if (s.shed_in_flight == 0) report->error("tripwire: serve_overload saw no in-flight sheds");
      if (s.brownout_admitted == 0) report->error("tripwire: serve_overload saw no brownout admits");
    }
  }

  if (tracer == nullptr) return;

  Figures tf = summarise(in, traced, report, &ledger);
  ledger.report(report);
  std::vector<double> transit, queue;
  std::vector<Problem> codec_problems;
  std::vector<net::WireResponse> codec_responses;
  for (const Request& r : traced.requests) {
    if (r.state != State::kOk) continue;
    transit.push_back(ms_between(r.sent, r.recv) - r.response.total_ms);
    queue.push_back(r.response.queue_ms);
    codec_problems.push_back(r.hot ? in.pool[r.instance] : in.cold[r.instance]);
    codec_responses.push_back(r.response);
  }
  probe_codec(codec_problems, codec_responses, tracer, report);
  const net::ServerWireStats& ts = traced.stats;
  const double decided = static_cast<double>(ts.requests_admitted + ts.total_shed());
  report->layer("net.server.transit_ms_p50", percentile(transit, 0.5), "ms");
  report->layer("net.server.transit_ms_p99", percentile(transit, 0.99), "ms");
  report->layer("api.service.queue_ms_p50", percentile(queue, 0.5), "ms");
  report->layer("api.service.queue_ms_p99", percentile(queue, 0.99), "ms");
  report->layer("runtime.cache.hit_ratio", ts.cache_hit_rate(), "ratio");
  report->layer("runtime.cache.evictions", static_cast<double>(traced.evictions),
                "count");
  report->layer("net.admission.admit_ratio",
                decided > 0 ? ts.requests_admitted / decided : 0.0, "ratio");
  report->layer("net.admission.shed_deadline", static_cast<double>(ts.shed_deadline),
                "count");
  report->layer("net.admission.shed_in_flight",
                static_cast<double>(ts.shed_in_flight), "count");
  report->layer("net.admission.brownout_admitted",
                static_cast<double>(ts.brownout_admitted), "count");
  report->layer("quality.mean_gap", tf.mean_gap, "ratio");
  report->layer("serve.hot.latency_ms_p50", tf.hot_p50, "ms");
  report->layer("serve.cold.latency_ms_p50", tf.cold_p50, "ms");
  report->layer("loadgen.lateness_ms_p99", tf.lateness_p99, "ms");
  report->layer("request.latency_ms_p50", f.latency_p50, "ms");
  report->layer("request.latency_ms_tail", f.latency_p99, "ms");
  report->layer("trace.overhead_ms", tf.latency_p50 - f.latency_p50, "ms");

  // Latency accounting per request class: the medians of the parts a
  // request crosses against the class's latency median.
  for (bool hot_class : {true, false}) {
    std::vector<double> lat, late, tr, qu, so, de;
    for (const Request& r : traced.requests) {
      if (r.state != State::kOk || r.hot != hot_class) continue;
      lat.push_back(ms_between(r.due, r.decoded));
      late.push_back(ms_between(r.due, r.sent));
      tr.push_back(ms_between(r.sent, r.recv) - r.response.total_ms);
      qu.push_back(r.response.queue_ms);
      so.push_back(r.response.solve_ms);
      de.push_back(ms_between(r.recv, r.decoded));
    }
    const double sum =
        median(late) + median(tr) + median(qu) + median(so) + median(de);
    const double l50 = median(lat);
    std::printf("# accounting %-4s: latency_p50 %.3f ms vs lateness %.3f + "
                "transit %.3f + queue %.3f + solve %.3f + receive %.3f = %.3f "
                "(residual %+.1f%%)\n",
                hot_class ? "hot" : "cold", l50, median(late), median(tr),
                median(qu), median(so), median(de), sum,
                l50 > 0 ? 100.0 * (l50 - sum) / l50 : 0.0);
  }

  // Direct calls on the workload's own instances: the first 8 of the pool.
  std::vector<Problem> sample(in.pool.begin(), in.pool.begin() + 8);
  probe_layers(sample, ProbePlan{}, tracer, report);
}

}  // namespace pmbench
