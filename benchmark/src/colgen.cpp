/// \file colgen.cpp
/// colgen_large: a fixed set of large power_law instances (n = 200)
/// certified one at a time through an in-process Service
/// with the exact strategy routed to column generation
/// (limits.colgen_max_nodes = n), allowlist {mcph, pruned_dijkstra, kmb,
/// exact} and pruning off. Column generation, the long Devex master in the
/// LP kernel and certificate verification carry the time; the LP
/// heuristics and the transport are bypassed.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "pmcast/scenario.hpp"
#include "workloads.hpp"

namespace pmbench {
namespace {

/// Instance size, kept below n=300..400 on purpose: power_law n=300 had a
/// per-instance coefficient of variation of 0.63 (0.4-2.5 s) and n=250 0.48,
/// while n=200 runs at 0.29, so a run's figures follow the code rather than
/// the seed's draw. Geometric instances were dropped: the auto-connect
/// radius gives ~8000 edges at n=300 and took 0.3-196 s per instance, and a
/// fixed radius of 0.09 still varied 20x.
/// Default Deterministic pruning is excluded because its Multicast-LB probe
/// did not finish in 300 s at power_law n=300.
constexpr int kNodes = 200;
/// The warm-up instance is the same for every workload seed, so set-up
/// time does not follow the seed's draw.
constexpr std::uint64_t kWarmUpSeed = 0x5eed;
/// Latency limit for goodput, per instance.
constexpr double kLatencyLimitMs = 30'000.0;

Problem colgen_instance(std::uint64_t seed, std::size_t i) {
  scenario::ScenarioSpec spec;
  spec.family = scenario::Family::PowerLaw;
  spec.nodes = kNodes;
  spec.policy = scenario::TargetPolicy::Uniform;
  spec.target_density = 0.3;
  spec.seed = mix_seed(seed, 3, i);
  return scenario::generate_scenario(spec).problem;
}

SolveRequest colgen_request(const Problem& problem) {
  SolveRequest request;
  request.problem = problem;
  request.strategies = {StrategyId::Mcph, StrategyId::PrunedDijkstra,
                        StrategyId::Kmb, StrategyId::Exact};
  request.pruning = PruningPolicy::Off;
  request.limits.colgen_max_nodes = problem.graph.node_count();
  return request;
}

struct Solved {
  double wall_ms = 0.0;
  Result<SolveResponse> result = Status(StatusCode::kInternal, "not run");
};

std::vector<Solved> certify_set(Service& service,
                                const std::vector<Problem>& set,
                                Tracer* tracer) {
  std::vector<Solved> out;
  for (std::size_t i = 0; i < set.size(); ++i) {
    Solved s;
    const Clock::time_point t0 = Clock::now();
    s.result = service.solve(colgen_request(set[i]));
    const Clock::time_point t1 = Clock::now();
    s.wall_ms = ms_between(t0, t1);
    if (tracer != nullptr && s.result.ok()) {
      const int req = tracer->add("api.service.request", t0, t1, -1, i + 1);
      add_strategy_spans(tracer, *s.result, t0, req, i + 1);
    }
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace

void run_colgen_large(const Context& ctx, Report* report, Tracer* tracer) {
  ServiceOptions options;
  options.threads = ctx.threads;
  // Set size scales with the run length (four instances per second of
  // run length), never with the speed of the code under test.
  const std::size_t set_size =
      static_cast<std::size_t>(std::max(1.0, 4.0 * ctx.seconds));

  std::vector<double> setup_s;
  std::vector<Problem> set;
  std::unique_ptr<Service> service;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const Clock::time_point t0 = Clock::now();
    set.clear();
    for (std::size_t i = 0; i < set_size; ++i) {
      set.push_back(colgen_instance(ctx.seed, i));
    }
    service = std::make_unique<Service>(options);
    // Warm-up: one column-generation solve the size of the set's, never
    // part of the set.
    if (!service->solve(colgen_request(colgen_instance(kWarmUpSeed, 0)))
             .ok()) {
      report->error("colgen_large: warm-up solve failed");
    }
    setup_s.push_back(ms_since(t0) / 1000.0);
  }

  auto check = [&](const std::vector<Solved>& solved, PortfolioLedger* ledger,
                   std::vector<double>* wall, std::vector<double>* ratios) {
    long long failed = 0;
    for (std::size_t i = 0; i < solved.size(); ++i) {
      const Solved& s = solved[i];
      if (!s.result.ok()) {
        ++failed;
        report->error("colgen_large: instance " + std::to_string(i) +
                      " failed: " + s.result.status().to_string());
        continue;
      }
      const SolveResponse& r = *s.result;
      double best_seed = std::numeric_limits<double>::infinity();
      const StrategyOutcome* exact = nullptr;
      for (const StrategyOutcome& o : r.outcomes) {
        if (is_tree_heuristic(o.strategy) && o.state == OutcomeState::Certified) {
          best_seed = std::min(best_seed, o.period);
        }
        if (o.strategy == StrategyId::Exact) exact = &o;
      }
      if (!std::isfinite(best_seed) || r.period > best_seed * (1.0 + 1e-9)) {
        ++failed;
        report->error("colgen_large: instance " + std::to_string(i) +
                      " certified period " + std::to_string(r.period) +
                      " is worse than the best seed heuristic " +
                      std::to_string(best_seed));
        continue;
      }
      // Path-coverage tripwire: every instance is solved by the pricing
      // loop, never by enumeration or a skipped exact arm.
      if (exact == nullptr || exact->state != OutcomeState::Certified ||
          exact->lp.master_iterations <= 0) {
        report->error("tripwire: colgen_large instance " + std::to_string(i) +
                      " was not certified by column generation");
      }
      wall->push_back(s.wall_ms);
      ratios->push_back(r.period / best_seed);
      if (ledger != nullptr) ledger->add(r);
    }
    return failed;
  };

  const Clock::time_point start = Clock::now();
  std::vector<Solved> solved = certify_set(*service, set, nullptr);
  const double certify_s = ms_since(start) / 1000.0;
  std::vector<double> wall, ratios;
  report->attempted = static_cast<long long>(solved.size());
  report->failed = check(solved, nullptr, &wall, &ratios);
  long long good = 0;
  for (double ms : wall) good += ms <= kLatencyLimitMs ? 1 : 0;

  report->note("latency_p50_ms", median(wall), "ms");
  report->note("latency_p90_ms", percentile(wall, 0.9), "ms");
  report->e2e("goodput_rps", certify_s > 0.0 ? good / certify_s : 0.0, "1/s");
  report->e2e("period_ratio", mean(ratios), "ratio");
  report->e2e("setup_s", median(setup_s), "s");
  report->note("certify_s", certify_s, "s");
  report->note("instances", static_cast<double>(set.size()), "count");
  report->note("failed_ratio",
               solved.empty() ? 0.0 : double(report->failed) / solved.size(),
               "ratio");

  if (tracer == nullptr) return;

  service = std::make_unique<Service>(options);
  PortfolioLedger ledger;
  std::vector<double> twall, tratios;
  const Clock::time_point tstart = Clock::now();
  std::vector<Solved> traced = certify_set(*service, set, tracer);
  const double traced_certify_s = ms_since(tstart) / 1000.0;
  check(traced, &ledger, &twall, &tratios);
  ledger.report(report);
  report->layer("request.latency_ms_p50", median(wall), "ms");
  report->layer("request.latency_ms_tail", percentile(wall, 0.9), "ms");
  report->layer("trace.overhead_ms", median(twall) - median(wall), "ms");
  report->note("traced certify_s", traced_certify_s, "s");

  // Direct calls: column generation, verify_certificate on every CG tree
  // set (part of the correctness gate), schedule build and validation.
  ProbePlan plan;
  plan.formulations = false;
  plan.lp_heuristics = false;
  plan.colgen = true;
  probe_layers(set, plan, tracer, report);
  std::vector<net::WireResponse> responses;
  std::vector<Problem> codec_problems;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    if (traced[i].result.ok()) {
      codec_problems.push_back(set[i]);
      responses.push_back(net::make_wire_response(i + 1, *traced[i].result, 0.0));
    }
  }
  probe_codec(codec_problems, responses, tracer, report);
}

}  // namespace pmbench
