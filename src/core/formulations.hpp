#pragma once
/// \file formulations.hpp
/// The paper's LP formulations (Section 5.1):
///
///  * Multicast-LB — per-target unit flows x_i^{jk}; the load of an edge is
///    the *maximum* fraction over targets (optimistic sharing: every packet
///    on the edge is a sub-message of the largest one). Lower bound on the
///    achievable period; not achievable in general (Fig. 4).
///  * Multicast-UB — same flows, but the edge load is the *sum* over
///    targets (a scatter: as if every target received a distinct message).
///    Always achievable, hence an upper bound; at most |Ptarget| times the
///    lower bound (tight, Fig. 5).
///  * Broadcast-EB — Multicast-LB with every node a target; this value is
///    achievable by prior work [Beaumont et al., IPDPS'04], in polynomial
///    time, and is the paper's "broadcast the whole platform" heuristic.
///  * MulticastMultiSource-UB — the UB formulation generalised to an
///    ordered set of intermediate sources (Section 5.2.3): source s_i first
///    acquires the full message from earlier sources, then helps serve the
///    targets. Scatter aggregation keeps it reconstructible.
///
/// All programs minimise the period T* of a unit-size message under the
/// one-port constraints (7,8,9). The t and n variables of the paper are
/// folded into the rows (DESIGN.md §5).

#include <optional>
#include <vector>

#include "core/problem.hpp"
#include "lp/resolve.hpp"
#include "lp/simplex.hpp"

namespace pmcast::core {

/// How the per-target fractions on an edge aggregate into the edge load
/// n_jk: Max = equation (10') (lower bound), Sum = equation (10) (upper
/// bound / scatter).
enum class EdgeAggregation { Max, Sum };

/// Solution of one of the single-source formulations.
struct FlowSolution {
  lp::SolveStatus status = lp::SolveStatus::Numerical;
  double period = 0.0;  ///< optimal T*; throughput = 1/period

  /// x[t][e] = fraction of target t's message crossing edge e
  /// (t indexes MulticastProblem::targets).
  std::vector<std::vector<double>> x;
  /// n[e] = total edge load (per the chosen aggregation).
  std::vector<double> edge_load;

  /// Simplex iterations of the underlying LP solve.
  int iterations = 0;

  bool ok() const { return status == lp::SolveStatus::Optimal; }

  /// Sum over targets of the flow entering node m — the heuristics' score
  /// for how much node m contributes to the propagation (Section 5.2).
  double node_inflow(const Digraph& g, NodeId m) const;
};

struct FormulationOptions {
  lp::SolverOptions solver;
};

/// Multicast-LB(P, Ptarget): lower bound on the period.
FlowSolution solve_multicast_lb(const MulticastProblem& problem,
                                const FormulationOptions& options = {});

/// Multicast-UB(P, Ptarget): achievable scatter-style upper bound.
FlowSolution solve_multicast_ub(const MulticastProblem& problem,
                                const FormulationOptions& options = {});

/// Broadcast-EB(P): optimal broadcast period of the whole platform
/// (Multicast-LB with all nodes as targets — achievable per [6,5]).
FlowSolution solve_broadcast_eb(const Digraph& graph, NodeId source,
                                const FormulationOptions& options = {});

/// Broadcast-EB on the sub-platform induced by \p keep (the source must be
/// kept). Returns nullopt when some kept node is unreachable from the
/// source inside the sub-platform (the paper's "+infinity" convention).
std::optional<double> broadcast_eb_period(const Digraph& graph, NodeId source,
                                          std::span<const char> keep,
                                          const FormulationOptions& options = {});

/// Broadcast-EB over node masks of one fixed platform — the warm-started
/// substrate of the platform heuristics (Figs. 6/7). The LP is built once
/// on the full graph; "remove node v" is expressed with *data* edits only
/// (pin v's flow/load variables to zero, turn v's emission/arrival rows
/// into 0-rows), so consecutive solves keep the simplex basis and eta file
/// (lp::IncrementalSimplex). The masked program restricted to a keep-set is
/// equivalent to Broadcast-EB on the induced sub-platform: every dropped
/// constraint row degenerates to 0 = 0.
class MaskedBroadcastEb {
 public:
  MaskedBroadcastEb(const Digraph& graph, NodeId source,
                    const FormulationOptions& options = {});

  /// Broadcast-EB period of the sub-platform induced by \p keep (the
  /// source must be kept). Returns nullopt when some kept node is
  /// unreachable inside the mask (the paper's "+infinity" convention —
  /// detected by BFS, no LP is solved) or the LP fails.
  std::optional<double> solve(std::span<const char> keep);

  /// Inflow score of node \p v in the last successful solve (original
  /// node ids; zero for masked-out nodes).
  double inflow(NodeId v) const { return inflow_[static_cast<size_t>(v)]; }
  const std::vector<double>& inflow_scores() const { return inflow_; }

  /// Warm-starting on by default; off re-solves every mask cold (used by
  /// the differential suite and the cold arm of the benches).
  void set_warm_start(bool warm) { warm_ = warm; }

  /// Status of the most recent solve() that reached the LP (Aborted when
  /// a solver checkpoint stopped it — callers use this
  /// to tell an interrupted probe from a genuinely failed one). The
  /// no-LP reachability shortcut reports Optimal: "+infinity" is a
  /// definitive answer, not a failure.
  lp::SolveStatus last_status() const { return last_status_; }

  /// Basis snapshot of the last successful solve. The greedy heuristics
  /// checkpoint the *accepted* platform and restore before every probe, so
  /// each probe warm-starts one node-flip away from a known-good basis
  /// instead of chaining through rejected probes.
  lp::Basis checkpoint() const { return solver_.last_basis(); }
  void restore(lp::Basis basis) {
    if (warm_) solver_.set_start_basis(std::move(basis));
  }

  const lp::ResolveStats& stats() const { return solver_.stats(); }

 private:
  const Digraph* graph_;
  NodeId source_;
  bool warm_ = true;

  std::vector<NodeId> targets_;       ///< commodity t -> target node
  std::vector<int> emission_row_;     ///< per commodity
  std::vector<int> arrival_row_;      ///< per commodity
  std::vector<char> banned_;          ///< t*E+e: statically pinned to zero

  lp::ResolvableModel model_;
  lp::IncrementalSimplex solver_;
  std::vector<double> inflow_;
  lp::SolveStatus last_status_ = lp::SolveStatus::Numerical;
};

/// Solution of MulticastMultiSource-UB.
struct MultiSourceSolution {
  lp::SolveStatus status = lp::SolveStatus::Numerical;
  double period = 0.0;

  /// Commodity k is (origin_index o, destination node d): flows[k][e].
  struct Commodity {
    int origin = 0;       ///< index into the ordered source list
    NodeId dest = kInvalidNode;
  };
  std::vector<Commodity> commodities;
  std::vector<std::vector<double>> flows;

  bool ok() const { return status == lp::SolveStatus::Optimal; }
  double node_inflow(const Digraph& g, NodeId m) const;
};

/// MulticastMultiSource-UB(P, Ptarget, Psource): \p sources is the ordered
/// list of intermediate sources, sources[0] being the original source.
MultiSourceSolution solve_multisource_ub(
    const MulticastProblem& problem, std::span<const NodeId> sources,
    const FormulationOptions& options = {});

/// As above, but solved through \p solver so consecutive same-shape
/// programs (Fig. 8 probes one candidate promotion at a time, all trials
/// of a round sharing the commodity layout) warm-start from the previous
/// basis. Iteration/warm counters accumulate in solver.stats().
MultiSourceSolution solve_multisource_ub_incremental(
    const MulticastProblem& problem, std::span<const NodeId> sources,
    const FormulationOptions& options, lp::IncrementalSimplex& solver);

}  // namespace pmcast::core
