/// \file layers.cpp
/// The per-layer ledger: the metric catalog, portfolio accounting from
/// responses, and direct timed calls into the core/lp/sched layers.

#include <algorithm>
#include <cstdio>
#include <map>
#include <span>

#include "pmcast/core.hpp"
#include "pmcast/graph.hpp"
#include "pmcast/sched.hpp"
#include "pmcast/server.hpp"
#include "workloads.hpp"

namespace pmbench {

const std::vector<std::pair<std::string, std::string>>& per_layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog = [] {
    std::vector<std::pair<std::string, std::string>> c = {
        {"net.protocol.encode_us", "us"},
        {"net.protocol.decode_us", "us"},
        {"net.protocol.request_bytes", "bytes"},
        {"net.protocol.response_bytes", "bytes"},
        {"graph.hash.key_us", "us"},
        {"net.server.transit_ms_p50", "ms"},
        {"net.server.transit_ms_p99", "ms"},
        {"runtime.cache.hit_ratio", "ratio"},
        {"runtime.cache.evictions", "count"},
        {"api.service.queue_ms_p50", "ms"},
        {"api.service.queue_ms_p99", "ms"},
        {"net.admission.admit_ratio", "ratio"},
        {"net.admission.shed_deadline", "count"},
        {"net.admission.shed_in_flight", "count"},
        {"net.admission.brownout_admitted", "count"},
        {"runtime.portfolio.solve_ms_p50", "ms"},
        {"runtime.portfolio.solve_ms_p99", "ms"},
    };
    for (StrategyId id : all_strategy_ids()) {
      c.push_back({std::string("runtime.portfolio.strategy_ms.") +
                       strategy_id_name(id),
                   "ms"});
    }
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"runtime.portfolio.pruned_ratio", "ratio"},
        {"runtime.portfolio.wasted_ms_ratio", "ratio"},
        {"runtime.portfolio.early_win_cancels", "count"},
        {"runtime.portfolio.lb_probe_iterations", "count"},
        {"core.tree_heuristics.ms", "ms"},
        {"core.formulations.lb_ms", "ms"},
        {"core.formulations.lb_iterations", "count"},
        {"core.formulations.ub_ms", "ms"},
        {"core.lp_heuristics.augmented_sources_ms", "ms"},
        {"core.lp_heuristics.reduced_broadcast_ms", "ms"},
        {"core.lp_heuristics.augmented_multicast_ms", "ms"},
        {"core.lp_heuristics.lp_solves", "count"},
        {"lp.resolve.warm_hit_ratio", "ratio"},
        {"lp.resolve.cold_fallbacks", "count"},
        {"lp.simplex.iterations", "count"},
        {"lp.simplex.us_per_iteration", "us"},
        {"core.exact.colgen_ms", "ms"},
        {"core.exact.pricing_ms", "ms"},
        {"core.exact.masters", "count"},
        {"core.exact.columns_priced", "count"},
        {"core.certificate.verify_ms", "ms"},
        {"core.tree.schedule_ms", "ms"},
        {"sched.schedule.validate_ms", "ms"},
        {"quality.mean_gap", "ratio"},
        {"serve.hot.latency_ms_p50", "ms"},
        {"serve.cold.latency_ms_p50", "ms"},
        {"loadgen.lateness_ms_p99", "ms"},
        {"request.latency_ms_p50", "ms"},
        {"request.latency_ms_tail", "ms"},
        {"trace.overhead_ms", "ms"},
        {"memory.peak_heap_mb", "MiB"},
        {"memory.peak_rss_mb", "MiB"},
    };
    c.insert(c.end(), rest.begin(), rest.end());
    return c;
  }();
  return catalog;
}

void complete_per_layer(Report* report) {
  std::map<std::string, Metric> have;
  for (Metric& m : report->per_layer) have[m.name] = m;
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : per_layer_catalog()) {
    auto it = have.find(name);
    ordered.push_back(it != have.end() ? it->second : Metric{name, 0.0, unit});
  }
  report->per_layer = std::move(ordered);
}

bool is_tree_heuristic(StrategyId id) {
  return id == StrategyId::Mcph || id == StrategyId::PrunedDijkstra ||
         id == StrategyId::Kmb;
}

// ------------------------------------------------------------ portfolio --

void PortfolioLedger::add_solve(double solve_ms,
                                const std::vector<Outcome>& outcomes) {
  solve_ms_.push_back(solve_ms);
  for (const Outcome& o : outcomes) {
    strategy_ms_[static_cast<int>(o.strategy)] += o.elapsed_ms;
    ++outcomes_;
    if (o.state == OutcomeState::Pruned) {
      ++pruned_;
      continue;
    }
    all_ms_ += o.elapsed_ms;
    if (!o.winner) wasted_ms_ += o.elapsed_ms;
  }
}

void PortfolioLedger::add(const SolveResponse& response) {
  if (response.provenance.from_cache || response.provenance.coalesced) return;
  std::vector<Outcome> outcomes;
  for (const StrategyOutcome& o : response.outcomes) {
    outcomes.push_back({o.strategy, o.state, o.elapsed_ms,
                        o.strategy == response.winner});
  }
  early_win_cancels_ += response.pruning.early_win_cancels;
  lb_probe_iterations_ += response.pruning.lb_probe_iterations;
  add_solve(response.timing.solve_ms, outcomes);
}

void PortfolioLedger::add(const net::WireResponse& response) {
  if (response.from_cache != 0 || response.coalesced != 0) return;
  std::vector<Outcome> outcomes;
  for (const net::WireOutcome& o : response.outcomes) {
    if (o.strategy >= 8 || o.state > 3) continue;
    outcomes.push_back({static_cast<StrategyId>(o.strategy),
                        static_cast<OutcomeState>(o.state), o.elapsed_ms,
                        o.strategy == response.winner});
  }
  add_solve(response.solve_ms, outcomes);
}

void PortfolioLedger::report(Report* report) const {
  const double solves = std::max<double>(1.0, solve_ms_.size());
  report->layer("runtime.portfolio.solve_ms_p50", percentile(solve_ms_, 0.5),
                "ms");
  report->layer("runtime.portfolio.solve_ms_p99", percentile(solve_ms_, 0.99),
                "ms");
  for (StrategyId id : all_strategy_ids()) {
    report->layer(std::string("runtime.portfolio.strategy_ms.") +
                      strategy_id_name(id),
                  strategy_ms_[static_cast<int>(id)] / solves, "ms");
  }
  report->layer("runtime.portfolio.pruned_ratio",
                outcomes_ > 0 ? static_cast<double>(pruned_) / outcomes_ : 0.0,
                "ratio");
  report->layer("runtime.portfolio.wasted_ms_ratio",
                all_ms_ > 0.0 ? wasted_ms_ / all_ms_ : 0.0, "ratio");
  report->layer("runtime.portfolio.early_win_cancels",
                static_cast<double>(early_win_cancels_) / solves, "count");
  report->layer("runtime.portfolio.lb_probe_iterations",
                static_cast<double>(lb_probe_iterations_) / solves, "count");
}

// ------------------------------------------------------- direct probes --

namespace {

/// Accumulates one metric as a per-instance mean.
struct Acc {
  double sum = 0.0;
  void add(double v) { sum += v; }
  double per(std::size_t n) const { return n == 0 ? 0.0 : sum / n; }
};

core::WeightedTreeSet single_tree_set(const Problem& problem,
                                      const core::MulticastTree& tree) {
  core::WeightedTreeSet set;
  set.trees.push_back(tree);
  set.rates.push_back(1.0 / core::tree_period(problem.graph, tree));
  return set;
}

}  // namespace

void probe_layers(const std::vector<Problem>& sample, const ProbePlan& plan,
                  Tracer* tracer, Report* report) {
  Acc hash_us, tree_ms, lb_ms, lb_iters, ub_ms, as_ms, rb_ms, am_ms, lp_solves;
  Acc cg_ms, pricing_ms, masters, columns, verify_ms, schedule_ms, validate_ms;
  Acc cold_fallbacks, simplex_iters;
  double lp_ms = 0.0, warm = 0.0, solves = 0.0;

  for (std::size_t i = 0; i < sample.size(); ++i) {
    const Problem& p = sample[i];
    const std::uint64_t rid = i + 1;
    const int root =
        tracer != nullptr ? tracer->open("probe", Clock::now(), -1, rid) : -1;

    constexpr int kHashReps = 50;
    hash_us.add(1000.0 / kHashReps *
                timed(tracer, "graph.hash", root, rid, [&] {
                  for (int r = 0; r < kHashReps; ++r) {
                    volatile std::uint64_t sink =
                        instance_key(p.graph, p.source, p.targets).lo;
                    (void)sink;
                  }
                }));

    std::optional<core::MulticastTree> best_tree;
    tree_ms.add(timed(tracer, "core.tree_heuristics", root, rid, [&] {
      for (auto* heuristic : {&core::mcph, &core::pruned_dijkstra, &core::kmb}) {
        std::optional<core::MulticastTree> tree = (*heuristic)(p);
        if (tree && (!best_tree || core::tree_period(p.graph, *tree) <
                                       core::tree_period(p.graph, *best_tree))) {
          best_tree = std::move(tree);
        }
      }
    }));

    if (plan.formulations) {
      core::FlowSolution lb, ub;
      const double t_lb = timed(tracer, "core.formulations.lb", root, rid,
                                [&] { lb = core::solve_multicast_lb(p); });
      const double t_ub = timed(tracer, "core.formulations.ub", root, rid,
                                [&] { ub = core::solve_multicast_ub(p); });
      lb_ms.add(t_lb);
      ub_ms.add(t_ub);
      lb_iters.add(lb.iterations);
      lp_ms += t_lb + t_ub;
      simplex_iters.add(lb.iterations + ub.iterations);
    }

    if (plan.lp_heuristics) {
      auto account = [&](const lp::ResolveStats& s, int lp_count, double ms) {
        lp_solves.add(lp_count);
        cold_fallbacks.add(s.cold_fallbacks);
        simplex_iters.add(static_cast<double>(s.iterations));
        warm += s.warm_starts;
        solves += s.solves;
        lp_ms += ms;
      };
      core::AugmentedSourcesResult as;
      const double t_as = timed(tracer, "core.lp_heuristics.augmented_sources",
                                root, rid, [&] { as = core::augmented_sources(p); });
      as_ms.add(t_as);
      account(as.lp_stats, as.lp_solves, t_as);
      core::PlatformHeuristicResult rb, am;
      const double t_rb = timed(tracer, "core.lp_heuristics.reduced_broadcast",
                                root, rid, [&] { rb = core::reduced_broadcast(p); });
      rb_ms.add(t_rb);
      account(rb.lp_stats, rb.lp_solves, t_rb);
      const double t_am =
          timed(tracer, "core.lp_heuristics.augmented_multicast", root, rid,
                [&] { am = core::augmented_multicast(p); });
      am_ms.add(t_am);
      account(am.lp_stats, am.lp_solves, t_am);
    }

    // The tree set to certify: the column-generation combination where that
    // layer is measured, else the best tree heuristic's single tree.
    core::WeightedTreeSet set;
    if (plan.colgen) {
      core::ExactSolution cg;
      const double t_cg = timed(tracer, "core.exact.colgen", root, rid, [&] {
        cg = core::column_generation_throughput(p);
      });
      cg_ms.add(t_cg);
      pricing_ms.add(cg.lp.pricing_ms);
      masters.add(cg.lp.master_iterations);
      columns.add(cg.lp.columns_priced);
      cold_fallbacks.add(cg.lp.cold_fallbacks);
      simplex_iters.add(static_cast<double>(cg.lp.iterations));
      warm += cg.lp.warm_starts;
      solves += cg.lp.solves;
      lp_ms += t_cg - cg.lp.pricing_ms;
      if (!cg.ok) {
        report->error("colgen probe: column generation failed on probe " +
                      std::to_string(rid));
        continue;
      }
      set = std::move(cg.combination);
    } else if (best_tree) {
      set = single_tree_set(p, *best_tree);
    } else {
      report->error("probe: no tree heuristic produced a tree");
      continue;
    }

    core::CertificateResult cert;
    verify_ms.add(timed(tracer, "core.certificate.verify", root, rid, [&] {
      cert = core::verify_certificate(p, set, 0);
    }));
    if (!cert.valid) {
      report->error("probe " + std::to_string(rid) +
                    ": verify_certificate rejected the tree set: " + cert.reason);
    }
    core::TreeSchedule ts;
    schedule_ms.add(timed(tracer, "core.tree.schedule", root, rid, [&] {
      ts = core::build_tree_schedule(p.graph, set, p.targets);
    }));
    std::string diag;
    validate_ms.add(timed(tracer, "sched.schedule.validate", root, rid, [&] {
      diag = sched::validate_schedule(ts.schedule, p.graph.node_count());
    }));
    if (!diag.empty()) {
      report->error("probe " + std::to_string(rid) +
                    ": schedule failed validation: " + diag);
    }
    if (tracer != nullptr) tracer->close(root, Clock::now());
  }

  const std::size_t n = sample.size();
  report->layer("graph.hash.key_us", hash_us.per(n), "us");
  report->layer("core.tree_heuristics.ms", tree_ms.per(n), "ms");
  report->layer("core.formulations.lb_ms", lb_ms.per(n), "ms");
  report->layer("core.formulations.lb_iterations", lb_iters.per(n), "count");
  report->layer("core.formulations.ub_ms", ub_ms.per(n), "ms");
  report->layer("core.lp_heuristics.augmented_sources_ms", as_ms.per(n), "ms");
  report->layer("core.lp_heuristics.reduced_broadcast_ms", rb_ms.per(n), "ms");
  report->layer("core.lp_heuristics.augmented_multicast_ms", am_ms.per(n), "ms");
  report->layer("core.lp_heuristics.lp_solves", lp_solves.per(n), "count");
  report->layer("lp.resolve.warm_hit_ratio", solves > 0 ? warm / solves : 0.0,
                "ratio");
  report->layer("lp.resolve.cold_fallbacks", cold_fallbacks.per(n), "count");
  report->layer("lp.simplex.iterations", simplex_iters.per(n), "count");
  report->layer("lp.simplex.us_per_iteration",
                simplex_iters.sum > 0 ? lp_ms * 1000.0 / simplex_iters.sum : 0.0,
                "us");
  report->layer("core.exact.colgen_ms", cg_ms.per(n), "ms");
  report->layer("core.exact.pricing_ms", pricing_ms.per(n), "ms");
  report->layer("core.exact.masters", masters.per(n), "count");
  report->layer("core.exact.columns_priced", columns.per(n), "count");
  report->layer("core.certificate.verify_ms", verify_ms.per(n), "ms");
  report->layer("core.tree.schedule_ms", schedule_ms.per(n), "ms");
  report->layer("sched.schedule.validate_ms", validate_ms.per(n), "ms");
}

void probe_codec(const std::vector<Problem>& problems,
                 const std::vector<net::WireResponse>& responses,
                 Tracer* tracer, Report* report) {
  Acc encode_us, decode_us, req_bytes, resp_bytes;
  const std::size_t n = std::min(problems.size(), responses.size());
  for (std::size_t i = 0; i < n; ++i) {
    net::WireRequest request;
    request.request_id = i + 1;
    request.problem = problems[i];
    std::vector<std::uint8_t> bytes;
    encode_us.add(1000.0 * timed(tracer, "net.protocol.encode", -1, i + 1, [&] {
      bytes = net::encode_solve_request(request);
    }));
    req_bytes.add(static_cast<double>(bytes.size()));

    std::vector<std::uint8_t> reply = net::encode_solve_response(responses[i]);
    resp_bytes.add(static_cast<double>(reply.size()));
    bool decoded = false;
    decode_us.add(1000.0 * timed(tracer, "net.protocol.decode", -1, i + 1, [&] {
      net::Frame frame;
      std::size_t consumed = 0;
      std::string error;
      if (net::extract_frame(reply, &frame, &consumed, &error) ==
          net::FrameStatus::kOk) {
        decoded = net::decode_solve_response(frame).ok();
      }
    }));
    if (!decoded) report->error("codec probe: response did not round-trip");
  }
  report->layer("net.protocol.encode_us", encode_us.per(n), "us");
  report->layer("net.protocol.decode_us", decode_us.per(n), "us");
  report->layer("net.protocol.request_bytes", req_bytes.per(n), "bytes");
  report->layer("net.protocol.response_bytes", resp_bytes.per(n), "bytes");
}

void add_strategy_spans(Tracer* tracer, const SolveResponse& response,
                        Clock::time_point start, int parent,
                        std::uint64_t request) {
  for (const StrategyOutcome& o : response.outcomes) {
    if (o.elapsed_ms <= 0.0) continue;
    tracer->add(std::string("runtime.portfolio.strategy.") +
                    strategy_id_name(o.strategy),
                start, start + ms_duration(o.elapsed_ms), parent, request);
  }
}

void print_self_times(const Tracer& tracer) {
  std::vector<SelfTime> rows = tracer.self_times();
  double total_self = 0.0;
  for (const SelfTime& r : rows) total_self += r.self_ms;
  std::printf("# self time by span (%zu spans; self = duration minus the part "
              "its children cover)\n",
              tracer.size());
  std::printf("#   %-44s %8s %12s %12s %7s\n", "span", "count", "total_ms",
              "self_ms", "self%");
  for (const SelfTime& r : rows) {
    std::printf("#   %-44s %8zu %12.3f %12.3f %6.1f%%\n", r.name.c_str(),
                r.count, r.total_ms, r.self_ms,
                total_self > 0.0 ? 100.0 * r.self_ms / total_self : 0.0);
  }
}

}  // namespace pmbench
