#include "runtime/portfolio.hpp"

#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "core/certificate.hpp"
#include "core/exact.hpp"
#include "core/flows.hpp"
#include "core/formulations.hpp"
#include "core/lp_heuristics.hpp"
#include "core/tree.hpp"
#include "core/tree_heuristics.hpp"

namespace pmcast::runtime {
namespace {

using core::MulticastProblem;

/// Pruning a platform heuristic against the scatter bound needs a safety
/// margin: its certified value is scatter-UB on a sub-platform, which is
/// >= the full-platform scatter LP value *mathematically*, but the
/// realised schedule may undercut the LP value by rationalisation dust
/// (build_flow_schedule drops cycle flow below its decomposition
/// tolerance). The margin is orders of magnitude above that dust, so
/// `incumbent < scatter_ub * (1 - margin)` still proves strict dominance.
constexpr double kDominanceMargin = 1e-4;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Is \p strategy certified via scatter on a reduced platform? Those
/// candidates can never beat the full-platform Multicast-UB LP value
/// (scatter is monotone under node removal), which is what the
/// scatter-bound dominance cut trades on.
bool certifies_via_sub_scatter(Strategy strategy) {
  return strategy == Strategy::ReducedBroadcast ||
         strategy == Strategy::AugmentedMulticast;
}

/// Early-win: a strategy launched before this one certified at (or below)
/// the proven lower bound. Everything this strategy could certify is >=
/// that bound, so it can at best tie — and ties break on launch order.
bool early_win_cuts(const IncumbentSnapshot& snap, int launch_index) {
  return snap.early_win_from < launch_index &&
         snap.best_certified <= snap.proven_lb;
}

/// Dominance for the sub-scatter strategies (see certifies_via_sub_scatter).
/// An unpublished scatter bound (infinity) must never cut: the comparison
/// is only meaningful once MulticastUb has actually solved the LP.
bool scatter_bound_cuts(const IncumbentSnapshot& snap) {
  return snap.scatter_ub < kInfinity &&
         snap.best_certified < snap.scatter_ub * (1.0 - kDominanceMargin);
}

/// Which timeline event a finished strategy maps to.
TraceEventKind terminal_event(const CandidateOutcome& out) {
  switch (out.state) {
    case CandidateState::Certified: return TraceEventKind::Certified;
    case CandidateState::Failed: return TraceEventKind::Failed;
    case CandidateState::Skipped:
      return is_pruned(out.skip_reason) ? TraceEventKind::Pruned
                                        : TraceEventKind::Skipped;
  }
  return TraceEventKind::Failed;
}

/// Checkpoint-gap measurement state shared by every LP solve of one
/// strategy. Allocated only when tracing is enabled, so a disabled tracer
/// adds zero heap traffic to the hot path.
struct CheckpointProbe {
  Clock::time_point prev{};
  bool first = true;
};

/// Record the latency since the previous LP checkpoint (and, once, the
/// FirstLpCheckpoint timeline event). Called from inside the simplex
/// checkpoint hook, i.e. every lp::SolverOptions::checkpoint_every
/// iterations.
void record_checkpoint(Tracer* tracer, CheckpointProbe* probe, int slot,
                       std::uint8_t strategy) {
  if (probe == nullptr) return;
  const Clock::time_point now = Clock::now();
  if (probe->first) {
    probe->first = false;
    tracer->event(TraceEventKind::FirstLpCheckpoint, slot, strategy, 0.0);
  } else {
    tracer->checkpoint_gap(
        std::chrono::duration<double, std::micro>(now - probe->prev).count());
  }
  probe->prev = now;
}

/// Certify a tree candidate: rate 1/period saturates the bottleneck port,
/// so the certificate's throughput reproduces 1/tree_period exactly.
void certify_tree(const MulticastProblem& problem,
                  const core::MulticastTree& tree, int simulate_periods,
                  CandidateOutcome& out) {
  double period = core::tree_period(problem.graph, tree);
  out.bound_period = period;
  if (!(period > 0.0) || period == kInfinity) {
    out.state = CandidateState::Failed;
    out.detail = "degenerate tree period";
    return;
  }
  core::WeightedTreeSet set;
  set.trees = {tree};
  set.rates = {1.0 / period};
  auto cert = core::verify_certificate(problem, set, simulate_periods);
  if (!cert.valid || cert.throughput <= 0.0) {
    out.state = CandidateState::Failed;
    out.detail = "certificate rejected: " + cert.reason;
    return;
  }
  out.state = CandidateState::Certified;
  out.period = 1.0 / cert.throughput;
}

/// Fill a Skipped outcome for a strategy a deadline or a cancellation
/// stopped \p where ("mid-solve" or "mid-heuristic").
void mark_budget_stop(CandidateOutcome& out, const BudgetGuard& guard,
                      const char* where) {
  const bool cancelled = guard.cancelled();
  out.state = CandidateState::Skipped;
  out.skip_reason =
      cancelled ? SkipReason::Cancelled : SkipReason::DeadlineExpired;
  out.detail = std::string(cancelled ? "cancelled " : "deadline expired ") +
               where;
}

/// Certify a scatter (Multicast-UB style) solution by reconstructing its
/// periodic schedule and statically validating it.
void certify_flow(const MulticastProblem& problem,
                  const core::FlowSolution& solution, CandidateOutcome& out) {
  out.bound_period = solution.period;
  out.lp.solves += 1;
  out.lp.iterations += solution.iterations;
  if (!solution.ok()) {
    out.state = CandidateState::Failed;
    out.detail = "LP did not reach optimality";
    return;
  }
  core::FlowSchedule fs = core::build_flow_schedule(problem, solution);
  if (!fs.schedule.ok) {
    out.state = CandidateState::Failed;
    out.detail = "flow schedule orchestration failed";
    return;
  }
  std::string err =
      sched::validate_schedule(fs.schedule, problem.graph.node_count());
  if (!err.empty()) {
    out.state = CandidateState::Failed;
    out.detail = "schedule invalid: " + err;
    return;
  }
  out.state = CandidateState::Certified;
  out.period = fs.period;
}

/// The platform heuristics (Figs. 6/7) return a node mask plus a
/// Broadcast-EB period whose constructive broadcast schedule is prior work
/// [6,5], not part of this library. We keep that value as the advisory
/// bound and certify the candidate with what we *can* reconstruct: the
/// scatter bound restricted to the reduced platform.
void certify_platform(const MulticastProblem& problem,
                      const core::PlatformHeuristicResult& result,
                      const core::FormulationOptions& lp_options,
                      const BudgetGuard& guard, CandidateOutcome& out) {
  out.bound_period = result.period;
  if (!result.ok) {
    out.state = CandidateState::Failed;
    out.detail = "platform heuristic failed";
    return;
  }
  auto sub = problem.graph.induced_subgraph(result.platform);
  NodeId sub_source = sub.old_to_new[static_cast<size_t>(problem.source)];
  std::vector<NodeId> sub_targets;
  sub_targets.reserve(problem.targets.size());
  for (NodeId t : problem.targets) {
    NodeId mapped = sub.old_to_new[static_cast<size_t>(t)];
    if (mapped == kInvalidNode) {
      out.state = CandidateState::Failed;
      out.detail = "platform mask dropped a target";
      return;
    }
    sub_targets.push_back(mapped);
  }
  if (sub_source == kInvalidNode) {
    out.state = CandidateState::Failed;
    out.detail = "platform mask dropped the source";
    return;
  }
  MulticastProblem sub_problem(std::move(sub.graph), sub_source,
                               std::move(sub_targets));
  if (!sub_problem.feasible()) {
    out.state = CandidateState::Failed;
    out.detail = "reduced platform disconnects a target";
    return;
  }
  core::FlowSolution ub = core::solve_multicast_ub(sub_problem, lp_options);
  if (lp::is_interrupted(ub.status)) {
    out.lp.solves += 1;
    out.lp.iterations += ub.iterations;
    mark_budget_stop(out, guard, "mid-solve");
    return;
  }
  certify_flow(sub_problem, ub, out);
  out.bound_period = result.period;  // certify_flow overwrote it with UB's
  if (out.state == CandidateState::Certified) {
    out.detail = "certified via scatter on the reduced platform; "
                 "Broadcast-EB bound is advisory";
  }
}

/// Column-generation variant of the exact strategy for instances above the
/// enumeration ceiling: a restricted master over priced trees
/// (core::column_generation_throughput) instead of the exponential sweep.
/// The combination it returns is certified end-to-end exactly like the
/// enumerated one; bound_period is advisory because heuristic pricing
/// makes the master value a strong lower bound on throughput, not a
/// proven optimum.
void run_exact_colgen(const MulticastProblem& problem,
                      const PortfolioOptions& options,
                      const BudgetGuard& guard,
                      const std::function<lp::CheckpointAction()>& checkpoint,
                      CandidateOutcome& out) {
  core::ColumnGenLimits limits;
  limits.should_abort = [&guard] { return guard.expired(); };
  limits.solver.checkpoint = checkpoint;
  core::ExactSolution cg = core::column_generation_throughput(problem, limits);
  out.lp.merge(cg.lp);
  // A budget stop with a usable anytime combination still certifies below;
  // only an abort before the first optimal master lands here.
  if (cg.aborted && !(cg.ok && cg.throughput > 0.0)) {
    mark_budget_stop(out, guard, "mid-solve");
    return;
  }
  if (!cg.ok || cg.throughput <= 0.0) {
    out.state = CandidateState::Skipped;
    out.skip_reason = SkipReason::Inapplicable;
    out.detail = "column generation produced no usable combination";
    return;
  }
  out.bound_period = 1.0 / cg.throughput;
  auto cert = core::verify_certificate(problem, cg.combination,
                                       options.simulate_periods);
  if (!cert.valid || cert.throughput <= 0.0) {
    out.state = CandidateState::Failed;
    out.detail = "certificate rejected: " + cert.reason;
    return;
  }
  out.state = CandidateState::Certified;
  out.period = 1.0 / cert.throughput;
  out.detail = "certified via column generation (" +
               std::to_string(cg.lp.columns_priced) +
               std::string(cg.aborted ? " columns priced, budget stop)"
                                      : " columns priced)") +
               "; bound is advisory";
}

void run_exact(const MulticastProblem& problem,
               const PortfolioOptions& options, const BudgetGuard& guard,
               const std::function<lp::CheckpointAction()>& checkpoint,
               CandidateOutcome& out) {
  // Guard against sentinel-valued budgets (SolveBudget::inherit()) that
  // reach a solve without being resolve()d against engine defaults:
  // "inherit" must never mean "skip everything" / "enumerate nothing".
  const SolveBudget defaults;
  const int max_nodes = options.budget.exact_max_nodes >= 0
                            ? options.budget.exact_max_nodes
                            : defaults.exact_max_nodes;
  const std::size_t max_trees = options.budget.exact_max_trees > 0
                                    ? options.budget.exact_max_trees
                                    : defaults.exact_max_trees;
  if (problem.graph.node_count() > max_nodes) {
    // Too large to enumerate; the column-generation solver picks instances
    // up to colgen_max_nodes instead of skipping. Off (0) by default so
    // the enumeration-only portfolio is unchanged unless opted in.
    const int colgen_max = options.budget.colgen_max_nodes >= 0
                               ? options.budget.colgen_max_nodes
                               : defaults.colgen_max_nodes;
    if (problem.graph.node_count() <= colgen_max) {
      run_exact_colgen(problem, options, guard, checkpoint, out);
      return;
    }
    out.state = CandidateState::Skipped;
    out.skip_reason = SkipReason::Inapplicable;
    out.detail = "instance above exact_max_nodes";
    return;
  }
  core::EnumerationLimits limits;
  limits.max_trees = max_trees;
  limits.should_abort = [&guard] { return guard.expired(); };
  limits.solver.checkpoint = checkpoint;
  core::ExactSolution exact = core::exact_optimal_throughput(problem, limits);
  out.lp.solves += exact.lp_iterations > 0 ? 1 : 0;
  out.lp.iterations += exact.lp_iterations;
  if (exact.aborted) {
    mark_budget_stop(out, guard, "mid-solve");
    return;
  }
  if (!exact.ok) {
    out.state = CandidateState::Skipped;
    out.skip_reason = SkipReason::EnumerationLimit;
    out.detail = "tree enumeration limit exceeded";
    return;
  }
  out.bound_period =
      exact.throughput > 0.0 ? 1.0 / exact.throughput : kInfinity;
  auto cert = core::verify_certificate(problem, exact.combination,
                                       options.simulate_periods);
  if (!cert.valid || cert.throughput <= 0.0) {
    out.state = CandidateState::Failed;
    out.detail = "certificate rejected: " + cert.reason;
    return;
  }
  out.state = CandidateState::Certified;
  // The rationalised realisation may differ from the LP optimum by the
  // rationalisation error; report what the validated schedule achieves.
  out.period = 1.0 / cert.throughput;
}

}  // namespace

const char* strategy_name(Strategy s) {
  switch (s) {
    case Strategy::Mcph: return "mcph";
    case Strategy::PrunedDijkstra: return "pruned_dijkstra";
    case Strategy::Kmb: return "kmb";
    case Strategy::MulticastUb: return "multicast_ub";
    case Strategy::AugmentedSources: return "augmented_sources";
    case Strategy::ReducedBroadcast: return "reduced_broadcast";
    case Strategy::AugmentedMulticast: return "augmented_multicast";
    case Strategy::Exact: return "exact";
  }
  return "?";
}

std::vector<Strategy> all_strategies() {
  return {Strategy::Mcph,             Strategy::PrunedDijkstra,
          Strategy::Kmb,              Strategy::MulticastUb,
          Strategy::AugmentedSources, Strategy::ReducedBroadcast,
          Strategy::AugmentedMulticast, Strategy::Exact};
}

namespace {

/// The body of run_strategy; the public wrapper adds the Launch/terminal
/// timeline events around it so no early return can skip them.
CandidateOutcome run_strategy_impl(const core::MulticastProblem& problem,
                                   Strategy strategy,
                                   const PortfolioOptions& options,
                                   const BudgetGuard& guard,
                                   const StrategyEnv* env, Tracer* tracer) {
  CandidateOutcome out;
  out.strategy = strategy;
  if (guard.expired()) {
    out.state = CandidateState::Skipped;
    out.skip_reason = guard.cancelled() ? SkipReason::Cancelled
                                        : SkipReason::DeadlineExpired;
    out.detail = "budget exhausted before start";
    return out;
  }

  // --- start-of-strategy pruning checks (null `shared` = pruning off) -----
  Incumbent* shared = env != nullptr ? env->shared : nullptr;
  const int launch_index = env != nullptr ? env->launch_index : 0;
  if (shared != nullptr) {
    const IncumbentSnapshot& snap = env->view;
    const bool early_win = early_win_cuts(snap, launch_index);
    if (tracer != nullptr) {
      // Miss margin: how far the incumbent still is from the proven LB
      // (infinite while either side is missing).
      tracer->predicate(CutPredicate::EarlyWin, early_win,
                        snap.proven_lb > 0.0
                            ? snap.best_certified - snap.proven_lb
                            : kInfinity);
    }
    if (early_win) {
      out.state = CandidateState::Skipped;
      out.skip_reason = SkipReason::EarlyWin;
      out.detail = "incumbent already meets the proven lower bound";
      return out;
    }
    if (certifies_via_sub_scatter(strategy)) {
      const bool cut = scatter_bound_cuts(snap);
      if (tracer != nullptr) {
        tracer->predicate(CutPredicate::SubScatter, cut,
                          snap.scatter_ub < kInfinity
                              ? snap.best_certified -
                                    snap.scatter_ub * (1.0 - kDominanceMargin)
                              : kInfinity);
      }
      if (cut) {
        out.state = CandidateState::Skipped;
        out.skip_reason = SkipReason::Dominated;
        out.detail = "certifies via sub-platform scatter, which cannot beat "
                     "the incumbent (below the full-platform scatter bound)";
        return out;
      }
    }
  }

  // --- cooperative hooks shared by every solve of this strategy -----------
  auto checkpoint = budget_checkpoint(guard, tracer, launch_index,
                                      static_cast<std::uint8_t>(strategy));
  core::FormulationOptions lp_options;
  lp_options.solver.checkpoint = checkpoint;
  core::HeuristicOptions heuristic_options;
  heuristic_options.lp = lp_options;
  heuristic_options.control.should_abort = [&guard] {
    return guard.expired();
  };
  if (shared != nullptr) {
    // LB-convergence cut for the greedy descents: once the heuristic's
    // current accepted period meets the proven lower bound, no remaining
    // probe can be accepted (acceptance is strict improvement, achievable
    // periods are >= the bound), so the rest of the descent is skipped.
    // The view is the barrier-fenced stage snapshot and the trajectory is
    // a pure function of the instance, so the cut fires identically
    // across thread counts.
    const double proven_lb = env->view.proven_lb;
    heuristic_options.control.converged = [proven_lb,
                                           tracer](double current) -> bool {
      const bool hit = proven_lb > 0.0 && current <= proven_lb;
      if (tracer != nullptr) {
        tracer->predicate(CutPredicate::ProbePoll, hit,
                          proven_lb > 0.0 ? current - proven_lb : kInfinity);
      }
      return hit;
    };
  }

  // Map a heuristic's abort flag onto the outcome. Returns true when the
  // strategy was interrupted and must not be certified.
  auto finish_heuristic = [&](bool aborted, int probes_skipped) {
    out.prune.probes_skipped += probes_skipped;
    if (aborted) mark_budget_stop(out, guard, "mid-heuristic");
    return aborted;
  };

  Clock::time_point start = Clock::now();
  switch (strategy) {
    case Strategy::Mcph:
    case Strategy::PrunedDijkstra:
    case Strategy::Kmb: {
      auto tree = strategy == Strategy::Mcph ? core::mcph(problem)
                  : strategy == Strategy::PrunedDijkstra
                      ? core::pruned_dijkstra(problem)
                      : core::kmb(problem);
      if (!tree) {
        out.state = CandidateState::Failed;
        out.detail = "no spanning tree found";
      } else {
        certify_tree(problem, *tree, options.simulate_periods, out);
      }
      break;
    }
    case Strategy::MulticastUb: {
      core::FlowSolution ub = core::solve_multicast_ub(problem, lp_options);
      if (lp::is_interrupted(ub.status)) {
        out.lp.solves += 1;
        out.lp.iterations += ub.iterations;
        // bound_period keeps its "no bound" default: an interrupted solve
        // never assigned ub.period, which still holds FlowSolution's 0.0.
        mark_budget_stop(out, guard, "mid-solve");
        break;
      }
      if (shared != nullptr && ub.ok()) {
        // The full-platform scatter LP value: the dominance reference for
        // the sub-scatter strategies of the next stage.
        shared->publish_scatter_ub(ub.period);
        // The certified value equals the LP value up to rationalisation
        // dust, so an incumbent strictly below the margined bound makes
        // the schedule reconstruction pointless.
        const IncumbentSnapshot& snap = env->view;
        const double threshold = ub.period * (1.0 - kDominanceMargin);
        const bool cut = snap.best_certified < threshold;
        if (tracer != nullptr) {
          tracer->predicate(CutPredicate::ReconstructSkip, cut,
                            snap.best_certified - threshold);
        }
        if (cut) {
          out.lp.solves += 1;
          out.lp.iterations += ub.iterations;
          out.bound_period = ub.period;
          out.state = CandidateState::Skipped;
          out.skip_reason = SkipReason::Dominated;
          out.detail = "scatter bound already beaten by the incumbent; "
                       "schedule reconstruction skipped";
          break;
        }
      }
      certify_flow(problem, ub, out);
      break;
    }
    case Strategy::AugmentedSources: {
      auto as = core::augmented_sources(problem, heuristic_options);
      out.bound_period = as.period;
      out.lp.merge(as.lp_stats);
      if (finish_heuristic(as.aborted, as.probes_skipped)) break;
      if (!as.ok) {
        out.state = CandidateState::Failed;
        out.detail = "augmented_sources failed";
        break;
      }
      core::FlowSchedule fs =
          core::build_multisource_schedule(problem, as.sources, as.solution);
      if (!fs.schedule.ok) {
        out.state = CandidateState::Failed;
        out.detail = "multisource schedule orchestration failed";
        break;
      }
      std::string err =
          sched::validate_schedule(fs.schedule, problem.graph.node_count());
      if (!err.empty()) {
        out.state = CandidateState::Failed;
        out.detail = "schedule invalid: " + err;
        break;
      }
      out.state = CandidateState::Certified;
      out.period = fs.period;
      break;
    }
    case Strategy::ReducedBroadcast:
    case Strategy::AugmentedMulticast: {
      auto platform = strategy == Strategy::ReducedBroadcast
                          ? core::reduced_broadcast(problem, heuristic_options)
                          : core::augmented_multicast(problem,
                                                      heuristic_options);
      out.lp.merge(platform.lp_stats);
      if (finish_heuristic(platform.aborted, platform.probes_skipped)) {
        out.bound_period = platform.period;
        break;
      }
      certify_platform(problem, platform, lp_options, guard, out);
      break;
    }
    case Strategy::Exact:
      run_exact(problem, options, guard, checkpoint, out);
      break;
  }
  out.elapsed_ms = ms_since(start);

  // --- publish ------------------------------------------------------------
  if (shared != nullptr && out.state == CandidateState::Certified) {
    shared->publish_certified(out.period, launch_index);
  }
  return out;
}

}  // namespace

CandidateOutcome run_strategy(const core::MulticastProblem& problem,
                              Strategy strategy,
                              const PortfolioOptions& options,
                              const BudgetGuard& guard,
                              const StrategyEnv* env) {
  Tracer* tracer = env != nullptr ? env->tracer : nullptr;
  const int slot = env != nullptr ? env->launch_index : 0;
  if (tracer != nullptr) {
    tracer->event(TraceEventKind::Launch, slot,
                  static_cast<std::uint8_t>(strategy), 0.0);
  }
  CandidateOutcome out =
      run_strategy_impl(problem, strategy, options, guard, env, tracer);
  if (tracer != nullptr) {
    const double value = out.state == CandidateState::Certified
                             ? out.period
                             : (out.bound_period < kInfinity ? out.bound_period
                                                             : 0.0);
    tracer->event(terminal_event(out), slot,
                  static_cast<std::uint8_t>(strategy), value);
  }
  return out;
}

int strategy_stage(Strategy strategy) {
  switch (strategy) {
    case Strategy::Mcph:
    case Strategy::PrunedDijkstra:
    case Strategy::Kmb:
      return 0;
    case Strategy::MulticastUb:
    case Strategy::Exact:
      return 1;
    case Strategy::AugmentedSources:
    case Strategy::ReducedBroadcast:
    case Strategy::AugmentedMulticast:
      return 2;
  }
  return 2;
}

std::function<lp::CheckpointAction()> budget_checkpoint(
    const BudgetGuard& guard, Tracer* tracer, int slot,
    std::uint8_t strategy) {
  // Checkpoint-gap measurement (and the FirstLpCheckpoint event) for the
  // latency histogram; heap-free unless tracing is on.
  std::shared_ptr<CheckpointProbe> probe;
  if (tracer != nullptr && tracer->enabled()) {
    probe = std::make_shared<CheckpointProbe>();
  }
  return [&guard, tracer, probe, slot, strategy]() -> lp::CheckpointAction {
    record_checkpoint(tracer, probe.get(), slot, strategy);
    return guard.expired() ? lp::CheckpointAction::Abort
                           : lp::CheckpointAction::Continue;
  };
}

}  // namespace pmcast::runtime
