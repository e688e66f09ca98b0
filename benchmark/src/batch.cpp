/// \file batch.cpp
/// batch_cold: one submitter streams unique seeded n=10 instances of all
/// six scenario families into an in-process Service (default options,
/// threads = nproc). No transport, and the result cache only misses: the
/// portfolio's LP heuristics and the LP kernel carry the time.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>

#include "pmcast/scenario.hpp"
#include "workloads.hpp"

namespace pmbench {
namespace {

constexpr int kNodes = 10;
/// Geometric instances run at n=8: at n=10 their solve time had a
/// coefficient of variation of 1.4-1.8 and a 5-11 s tail, so the seed's
/// instance mix, not the code, set the figures.
constexpr int kGeometricNodes = 8;
/// The warm-up wave is the same for every workload seed and runs with
/// pruning off, so set-up time follows neither the seed's draw nor the
/// timing of the pruning race. Without pruning an n=10 wave takes ~2 s,
/// an n=8 one ~0.4 s.
constexpr std::uint64_t kWarmUpSeed = 0x5eed;
constexpr int kWarmUpNodes = 8;
/// Latency limit for goodput: an answer later than this after submission
/// does not count as good.
constexpr double kLatencyLimitMs = 10'000.0;

scenario::ScenarioSpec batch_spec(std::uint64_t seed, std::uint64_t stream,
                                  std::size_t i, int nodes) {
  static const scenario::TargetPolicy kPolicies[] = {
      scenario::TargetPolicy::Uniform, scenario::TargetPolicy::LeafBiased,
      scenario::TargetPolicy::Hotspot};
  static const double kDensities[] = {0.3, 0.5};
  const std::vector<scenario::Family> families = scenario::all_families();
  scenario::ScenarioSpec spec;
  spec.family = families[i % families.size()];
  spec.nodes = spec.family == scenario::Family::Geometric
                   ? std::min(nodes, kGeometricNodes)
                   : nodes;
  spec.seed = mix_seed(seed, stream, i);
  const std::size_t round = i / families.size();
  spec.target_density = kDensities[round % 2];
  spec.policy = kPolicies[(round / 3) % 3];
  if (spec.family == scenario::Family::Grid) spec.torus = (round % 2) == 1;
  if (round % 4 == 3) {
    spec.costs.degrade_fraction = 0.15;
    spec.costs.degrade_factor = 6.0;
  }
  return spec;
}

struct Answer {
  Clock::time_point submitted;
  Clock::time_point delivered;
  bool done = false;
  Result<SolveResponse> result = Status(StatusCode::kInternal, "pending");
};

struct Phase {
  std::vector<Answer> answers;  ///< one per submitted instance
  double seconds = 0.0;         ///< window length
};

/// Record one answer's spans as it is delivered, on the delivering thread,
/// so a traced phase pays for its tracing. Request span = submit ->
/// delivery; children: queue wait, then the portfolio with one span per
/// strategy arm.
void trace_answer(Tracer* tracer, Clock::time_point submitted,
                  Clock::time_point delivered, const SolveResponse& r,
                  std::size_t i) {
  const int req =
      tracer->add("api.service.request", submitted, delivered, -1, i + 1);
  const Clock::time_point solve_start =
      delivered - ms_duration(r.timing.solve_ms);
  tracer->add("api.service.queue", submitted, solve_start, req, i + 1);
  const int portfolio =
      tracer->add("runtime.portfolio", solve_start, delivered, req, i + 1);
  add_strategy_spans(tracer, r, solve_start, portfolio, i + 1);
}

/// Stream the corpus through \p service for \p seconds with at most
/// \p window requests in flight. Requests still running when the window
/// closes are cancelled and left out of every figure (a straggler must not
/// set the wall time).
Phase stream_corpus(Service& service, const std::vector<Problem>& corpus,
                    double seconds, std::size_t window, Tracer* tracer) {
  Phase phase;
  phase.answers.resize(corpus.size());
  std::mutex mutex;  // guards in_flight, answers[*].done/delivered/result
  std::condition_variable cv;
  std::size_t in_flight = 0;
  std::vector<SolveBatch> batches;

  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::size_t submitted = 0;
  while (submitted < corpus.size()) {
    {
      std::unique_lock<std::mutex> lock(mutex);
      if (!cv.wait_until(lock, end, [&] { return in_flight < window; })) break;
      ++in_flight;
    }
    // Hold handles of in-flight requests only: a finished batch keeps its
    // request and result alive, which would bill this harness's memory to
    // the program's peak heap.
    std::erase_if(batches, [](const SolveBatch& b) { return b.done(); });
    const std::size_t i = submitted++;
    phase.answers[i].submitted = Clock::now();
    SolveRequest request;
    request.problem = corpus[i];
    std::vector<SolveRequest> one;
    one.push_back(std::move(request));
    batches.push_back(service.submit_batch(
        std::move(one),
        [&, i](std::size_t, const Result<SolveResponse>& result) {
          const Clock::time_point now = Clock::now();
          if (tracer != nullptr && result.ok() && now <= end) {
            trace_answer(tracer, phase.answers[i].submitted, now, *result, i);
          }
          std::lock_guard<std::mutex> lock(mutex);
          phase.answers[i].delivered = now;
          phase.answers[i].result = result;
          phase.answers[i].done = now <= end;
          --in_flight;
          cv.notify_all();
        }));
  }
  std::this_thread::sleep_until(end);
  for (SolveBatch& batch : batches) batch.cancel();
  for (SolveBatch& batch : batches) batch.wait_all();
  phase.answers.resize(submitted);
  phase.seconds = seconds;
  return phase;
}

struct PhaseFigures {
  double latency_p50 = 0.0, latency_p90 = 0.0, goodput = 0.0;
  double solve_p50 = 0.0, period_ratio = 0.0, mean_gap = 0.0;
  long long attempted = 0, failed = 0;
  long long cancelled = 0;  ///< still running when the window closed
};

/// Check every answer and summarise one phase. Wrong answers go to
/// report->errors (and count as failed).
PhaseFigures check_phase(const Phase& phase, const std::vector<Problem>& corpus,
                         Report* report, PortfolioLedger* ledger,
                         long long* as_certified, long long* lp_pruned) {
  PhaseFigures f;
  std::vector<double> latency, solve, ratios, gaps;
  long long good = 0;
  for (std::size_t i = 0; i < phase.answers.size(); ++i) {
    const Answer& a = phase.answers[i];
    if (!a.done) {
      ++f.cancelled;
      continue;
    }
    ++f.attempted;
    if (!a.result.ok()) {
      ++f.failed;
      report->error("batch_cold: instance " + std::to_string(i) +
                    " failed: " + a.result.status().to_string());
      continue;
    }
    const SolveResponse& r = *a.result;
    const double lb = r.pruning.proven_lower_bound;
    const double targets = static_cast<double>(corpus[i].targets.size());
    if (!(lb > 0.0) || r.period < lb * (1.0 - 1e-9) ||
        r.period > targets * lb * (1.0 + 1e-9)) {
      ++f.failed;
      report->error("batch_cold: instance " + std::to_string(i) + " period " +
                    std::to_string(r.period) + " outside [LB, |T|*LB] with LB " +
                    std::to_string(lb));
      continue;
    }
    const double ms = ms_between(a.submitted, a.delivered);
    latency.push_back(ms);
    if (ms <= kLatencyLimitMs) ++good;
    solve.push_back(r.timing.solve_ms);
    gaps.push_back(r.period / lb);
    double best_tree = std::numeric_limits<double>::infinity();
    for (const StrategyOutcome& o : r.outcomes) {
      if (is_tree_heuristic(o.strategy) && o.state == OutcomeState::Certified) {
        best_tree = std::min(best_tree, o.period);
      }
      if (o.strategy == StrategyId::AugmentedSources &&
          o.state == OutcomeState::Certified) {
        ++*as_certified;
      }
      if ((o.strategy == StrategyId::ReducedBroadcast ||
           o.strategy == StrategyId::AugmentedMulticast) &&
          o.state == OutcomeState::Pruned) {
        ++*lp_pruned;
      }
    }
    if (std::isfinite(best_tree)) ratios.push_back(r.period / best_tree);
    if (ledger != nullptr) ledger->add(r);
  }
  f.latency_p50 = percentile(latency, 0.5);
  f.latency_p90 = percentile(latency, 0.9);
  f.solve_p50 = percentile(solve, 0.5);
  f.goodput = good / phase.seconds;
  f.period_ratio = mean(ratios);
  f.mean_gap = mean(gaps);
  return f;
}

}  // namespace

void run_batch_cold(const Context& ctx, Report* report, Tracer* tracer) {
  ServiceOptions options;
  options.threads = ctx.threads;
  const std::size_t window = 2 * static_cast<std::size_t>(ctx.threads);
  // Headroom: ~8x the solve rate measured when the benchmark was defined.
  const std::size_t corpus_size =
      static_cast<std::size_t>(std::max(1.0, ctx.seconds) * 400.0);

  // Set-up, repeated: corpus generation, Service start, and a warm-up wave
  // of two fixed instances per family, never part of the corpus.
  std::vector<double> setup_s;
  std::vector<Problem> corpus;
  std::unique_ptr<Service> service;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const Clock::time_point t0 = Clock::now();
    corpus.clear();
    for (std::size_t i = 0; i < corpus_size; ++i) {
      corpus.push_back(
          scenario::generate_scenario(batch_spec(ctx.seed, 1, i, kNodes)).problem);
    }
    service = std::make_unique<Service>(options);
    std::vector<SolveRequest> warm;
    for (std::size_t i = 0; i < 2 * scenario::all_families().size(); ++i) {
      SolveRequest request;
      request.problem = scenario::generate_scenario(
                            batch_spec(kWarmUpSeed, 2, i, kWarmUpNodes))
                            .problem;
      request.pruning = PruningPolicy::Off;
      warm.push_back(std::move(request));
    }
    for (const Result<SolveResponse>& r : service->solve_batch(std::move(warm))) {
      if (!r.ok()) report->error("batch_cold: warm-up solve failed");
    }
    setup_s.push_back(ms_since(t0) / 1000.0);
  }

  long long as_certified = 0, lp_pruned = 0;
  Phase phase = stream_corpus(*service, corpus, ctx.seconds, window, nullptr);
  PhaseFigures fig = check_phase(phase, corpus, report, nullptr, &as_certified,
                                 &lp_pruned);
  report->attempted = fig.attempted;
  report->failed = fig.failed;

  report->note("latency_p50_ms", fig.latency_p50, "ms");
  report->note("latency_p90_ms", fig.latency_p90, "ms");
  report->e2e("goodput_rps", fig.goodput, "1/s");
  report->e2e("period_ratio", fig.period_ratio, "ratio");
  report->e2e("setup_s", median(setup_s), "s");
  report->note("solves_per_s", fig.goodput, "1/s");
  report->note("solve_p50_ms", fig.solve_p50, "ms");
  report->note("mean_gap", fig.mean_gap, "ratio");
  report->note("failed_ratio",
               fig.attempted > 0 ? double(fig.failed) / fig.attempted : 0.0,
               "ratio");
  report->note("instances", static_cast<double>(fig.attempted), "count");
  report->note("cancelled_at_window_end", static_cast<double>(fig.cancelled),
               "count");
  if (phase.answers.size() == corpus.size()) {
    report->error("batch_cold: corpus exhausted before the run length; "
                  "raise the corpus size");
  }

  // Path-coverage tripwire: augmented_sources must certify, and the
  // cooperative race must prune some of the other LP heuristics.
  if (as_certified == 0) {
    report->error("tripwire: augmented_sources never certified");
  }
  if (lp_pruned == 0) {
    report->error("tripwire: no reduced_broadcast/augmented_multicast arm "
                  "was pruned");
  }

  if (tracer == nullptr) return;

  // Traced run: the same corpus through a fresh Service with spans on.
  service = std::make_unique<Service>(options);
  PortfolioLedger ledger;
  long long ignore_a = 0, ignore_b = 0;
  Phase traced = stream_corpus(*service, corpus, ctx.seconds, window, tracer);
  PhaseFigures tfig =
      check_phase(traced, corpus, report, &ledger, &ignore_a, &ignore_b);
  ledger.report(report);
  report->layer("quality.mean_gap", tfig.mean_gap, "ratio");
  report->layer("request.latency_ms_p50", fig.latency_p50, "ms");
  report->layer("request.latency_ms_tail", fig.latency_p90, "ms");
  report->layer("trace.overhead_ms", tfig.latency_p50 - fig.latency_p50, "ms");
  report->layer("runtime.cache.hit_ratio",
                service->cache_metrics().hit_rate(), "ratio");
  report->layer("runtime.cache.evictions",
                static_cast<double>(service->cache_metrics().evictions),
                "count");

  // Direct calls on the workload's own instances: two per family.
  std::vector<Problem> sample(corpus.begin(),
                              corpus.begin() + 2 * scenario::all_families().size());
  probe_layers(sample, ProbePlan{}, tracer, report);
  std::vector<net::WireResponse> responses;
  std::vector<Problem> codec_problems;
  for (std::size_t i = 0; i < traced.answers.size(); ++i) {
    if (traced.answers[i].result.ok()) {
      codec_problems.push_back(corpus[i]);
      responses.push_back(
          net::make_wire_response(i + 1, *traced.answers[i].result, 0.0));
    }
  }
  probe_codec(codec_problems, responses, tracer, report);
}

}  // namespace pmbench
