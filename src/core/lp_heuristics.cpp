#include "core/lp_heuristics.hpp"

#include <algorithm>
#include <cassert>

namespace pmcast::core {
namespace {

constexpr double kImprovementTol = 1e-9;

std::vector<NodeId> sorted_by_score(const std::vector<NodeId>& candidates,
                                    const std::vector<double>& score,
                                    bool ascending) {
  std::vector<NodeId> sorted = candidates;
  std::stable_sort(sorted.begin(), sorted.end(), [&](NodeId a, NodeId b) {
    double sa = score[static_cast<size_t>(a)];
    double sb = score[static_cast<size_t>(b)];
    return ascending ? sa < sb : sa > sb;
  });
  return sorted;
}

/// Between-probe poll of the runtime's cooperative controls. Abort
/// (deadline/cancel) outranks Converge: convergence only says the
/// remaining probes are futile, not that the result is unwanted.
enum class ProbeVerdict { Run, Abort, Converge };

ProbeVerdict poll(const ProbeControl& control, double current) {
  if (control.should_abort && control.should_abort()) {
    return ProbeVerdict::Abort;
  }
  if (control.converged && current < kInfinity && control.converged(current)) {
    return ProbeVerdict::Converge;
  }
  return ProbeVerdict::Run;
}

/// Between-probe stop check shared by the three greedy loops: applies the
/// poll verdict to the result flags and accounts the probes of this round
/// that will not run. Returns true when the heuristic must stop.
template <typename Result>
bool stop_requested(const ProbeControl& control, int planned, int probed,
                    Result& result) {
  switch (poll(control, result.period)) {
    case ProbeVerdict::Run:
      return false;
    case ProbeVerdict::Abort:
      result.aborted = true;
      break;
    case ProbeVerdict::Converge:
      // Keep ok/period: the heuristic's current value stands, only the
      // provably futile remainder of the descent is skipped.
      result.converged = true;
      break;
  }
  result.probes_skipped += planned - probed;
  return true;
}

/// Post-solve stop check: true when the probe's LP was interrupted by a
/// checkpoint (flags recorded, remaining probes accounted).
template <typename Result>
bool probe_interrupted(lp::SolveStatus status, int planned, int probed,
                       Result& result) {
  if (!lp::is_interrupted(status)) return false;
  result.aborted = true;
  result.probes_skipped += planned - probed;
  return true;
}

}  // namespace

PlatformHeuristicResult reduced_broadcast(const MulticastProblem& problem,
                                          const HeuristicOptions& options) {
  PlatformHeuristicResult result;
  const Digraph& g = problem.graph;
  std::vector<char> target_mask = problem.target_mask();
  result.platform.assign(static_cast<size_t>(g.node_count()), 1);

  // One persistent masked Broadcast-EB program; every probe of the greedy
  // descent is a bound-only re-solve of it (warm-started unless disabled).
  MaskedBroadcastEb eb(g, problem.source, options.lp);
  eb.set_warm_start(options.warm_start);

  std::optional<double> current = eb.solve(result.platform);
  ++result.lp_solves;
  if (!current) {
    result.aborted = lp::is_interrupted(eb.last_status());
    result.lp_stats = eb.stats();
    return result;
  }
  result.ok = true;
  result.period = *current;
  std::vector<double> inflow = eb.inflow_scores();
  lp::Basis accepted = eb.checkpoint();

  for (int round = 0; round < options.max_rounds; ++round) {
    // Removable nodes: in the platform, neither source nor target, sorted by
    // increasing inflow (they contribute least to the propagation).
    std::vector<NodeId> removable;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (result.platform[static_cast<size_t>(v)] && v != problem.source &&
          !target_mask[static_cast<size_t>(v)]) {
        removable.push_back(v);
      }
    }
    std::vector<NodeId> order =
        sorted_by_score(removable, inflow, /*ascending=*/true);
    const int planned = std::min(static_cast<int>(order.size()),
                                 options.max_candidates);

    bool improved = false;
    int probed = 0;
    for (NodeId m : order) {
      if (stop_requested(options.control, planned, probed, result)) {
        result.lp_stats = eb.stats();
        return result;
      }
      if (++probed > options.max_candidates) break;
      std::vector<char> trial = result.platform;
      trial[static_cast<size_t>(m)] = 0;
      eb.restore(accepted);
      std::optional<double> candidate = eb.solve(trial);
      ++result.lp_solves;
      if (!candidate &&
          probe_interrupted(eb.last_status(), planned, probed, result)) {
        result.lp_stats = eb.stats();
        return result;
      }
      if (candidate && *candidate < result.period - kImprovementTol) {
        result.platform = std::move(trial);
        result.period = *candidate;
        inflow = eb.inflow_scores();
        accepted = eb.checkpoint();
        improved = true;
        break;
      }
    }
    if (!improved) break;
  }
  result.lp_stats = eb.stats();
  return result;
}

PlatformHeuristicResult augmented_multicast(const MulticastProblem& problem,
                                            const HeuristicOptions& options) {
  PlatformHeuristicResult result;
  const Digraph& g = problem.graph;
  std::vector<char> target_mask = problem.target_mask();

  // Scores come from the Multicast-LB solution on the full platform and
  // stay fixed (Fig. 7 sorts against that one solution).
  FlowSolution lb = solve_multicast_lb(problem, options.lp);
  ++result.lp_solves;
  result.lp_stats.solves += 1;
  result.lp_stats.iterations += lb.iterations;
  if (lp::is_interrupted(lb.status)) {
    result.aborted = true;
    return result;
  }
  std::vector<double> inflow(static_cast<size_t>(g.node_count()), 0.0);
  if (lb.ok()) {
    for (NodeId v = 0; v < g.node_count(); ++v) {
      inflow[static_cast<size_t>(v)] = lb.node_inflow(g, v);
    }
  }

  result.platform = target_mask;
  result.platform[static_cast<size_t>(problem.source)] = 1;

  MaskedBroadcastEb eb(g, problem.source, options.lp);
  eb.set_warm_start(options.warm_start);

  // Connectivity phase. The paper's "<=" acceptance admits nodes while the
  // sub-platform broadcast is still infinite; since Broadcast-EB of a
  // disconnected platform is +inf *without solving any LP* (reachability
  // short-circuit), we run that phase to completion here: keep adding the
  // highest-inflow missing node until every kept node is reachable.
  auto connected = [&](const std::vector<char>& keep) {
    return g.reaches_all(problem.source, keep, keep);
  };
  {
    std::vector<NodeId> addable;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (!result.platform[static_cast<size_t>(v)]) addable.push_back(v);
    }
    std::vector<NodeId> order =
        sorted_by_score(addable, inflow, /*ascending=*/false);
    size_t next = 0;
    while (!connected(result.platform) && next < order.size()) {
      result.platform[static_cast<size_t>(order[next++])] = 1;
    }
  }
  lp::Basis accepted;
  {
    std::optional<double> initial = eb.solve(result.platform);
    ++result.lp_solves;
    if (!initial && lp::is_interrupted(eb.last_status())) {
      result.aborted = true;
      result.lp_stats.merge(eb.stats());
      return result;
    }
    if (initial) {
      result.ok = true;
      result.period = *initial;
      accepted = eb.checkpoint();
    }
  }

  for (int round = 0; round < options.max_rounds; ++round) {
    std::vector<NodeId> addable;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (!result.platform[static_cast<size_t>(v)]) addable.push_back(v);
    }
    std::vector<NodeId> order =
        sorted_by_score(addable, inflow, /*ascending=*/false);
    const int planned = std::min(static_cast<int>(order.size()),
                                 options.max_candidates);

    bool improved = false;
    int probed = 0;
    for (NodeId m : order) {
      if (stop_requested(options.control, planned, probed, result)) {
        result.lp_stats.merge(eb.stats());
        return result;
      }
      if (++probed > options.max_candidates) break;
      std::vector<char> trial = result.platform;
      trial[static_cast<size_t>(m)] = 1;
      if (!accepted.empty()) eb.restore(accepted);
      std::optional<double> candidate = eb.solve(trial);
      ++result.lp_solves;
      if (!candidate &&
          probe_interrupted(eb.last_status(), planned, probed, result)) {
        result.lp_stats.merge(eb.stats());
        return result;
      }
      // While the sub-platform is still disconnected (period infinite) the
      // paper's "<=" acceptance keeps adding high-inflow nodes; once finite
      // we demand strict improvement (see header note).
      bool accept = result.period == kInfinity
                        ? true
                        : candidate &&
                              *candidate < result.period - kImprovementTol;
      if (accept) {
        result.platform = std::move(trial);
        if (candidate) {
          result.period = *candidate;
          result.ok = true;
          accepted = eb.checkpoint();
        }
        improved = true;
        break;
      }
    }
    if (!improved) break;
  }
  result.lp_stats.merge(eb.stats());
  return result;
}

AugmentedSourcesResult augmented_sources(const MulticastProblem& problem,
                                         const HeuristicOptions& options) {
  AugmentedSourcesResult result;
  const Digraph& g = problem.graph;

  // One persistent solver for the whole promotion sequence: all candidate
  // programs of a round share the commodity layout, so probes 2..k of each
  // round warm-start from the previous probe's basis. Accepted promotions
  // grow the program (more commodities) and re-run cold automatically.
  lp::IncrementalSimplex solver(options.lp.solver);
  auto solve_ms = [&](std::span<const NodeId> sources) {
    if (!options.warm_start) solver.reset();
    return solve_multisource_ub_incremental(problem, sources, options.lp,
                                            solver);
  };

  result.sources = {problem.source};
  result.solution = solve_ms(result.sources);
  ++result.lp_solves;
  if (!result.solution.ok()) {
    result.aborted = lp::is_interrupted(result.solution.status);
    result.lp_stats = solver.stats();
    return result;
  }
  result.ok = true;
  result.period = result.solution.period;

  for (int round = 0; round < options.max_rounds; ++round) {
    std::vector<char> is_source(static_cast<size_t>(g.node_count()), 0);
    for (NodeId s : result.sources) is_source[static_cast<size_t>(s)] = 1;
    std::vector<NodeId> candidates;
    std::vector<double> inflow(static_cast<size_t>(g.node_count()), 0.0);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (!is_source[static_cast<size_t>(v)]) {
        candidates.push_back(v);
        inflow[static_cast<size_t>(v)] = result.solution.node_inflow(g, v);
      }
    }
    std::vector<NodeId> order =
        sorted_by_score(candidates, inflow, /*ascending=*/false);
    const int planned = std::min(static_cast<int>(order.size()),
                                 options.max_candidates);

    bool improved = false;
    int probed = 0;
    for (NodeId m : order) {
      if (stop_requested(options.control, planned, probed, result)) {
        result.lp_stats = solver.stats();
        return result;
      }
      if (++probed > options.max_candidates) break;
      std::vector<NodeId> trial = result.sources;
      trial.push_back(m);
      MultiSourceSolution candidate = solve_ms(trial);
      ++result.lp_solves;
      if (probe_interrupted(candidate.status, planned, probed, result)) {
        result.lp_stats = solver.stats();
        return result;
      }
      if (candidate.ok() &&
          candidate.period < result.period - kImprovementTol) {
        result.sources = std::move(trial);
        result.period = candidate.period;
        result.solution = std::move(candidate);
        improved = true;
        break;
      }
    }
    if (!improved) break;
  }
  result.lp_stats = solver.stats();
  return result;
}

}  // namespace pmcast::core
