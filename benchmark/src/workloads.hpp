#pragma once
/// \file workloads.hpp
/// The four workloads of the repo benchmark and the per-layer ledger they
/// share. See benchmark/README.md for why each workload exists and which
/// layer metric should move which end-to-end metric.

#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "pmcast/client.hpp"
#include "pmcast/pmcast.hpp"

namespace pmbench {

using namespace pmcast;

/// Run one workload. With \p tracer null the run is the untraced one that
/// fills Report::end_to_end; with a tracer it also fills Report::per_layer.
void run_serve(const Context& ctx, bool overload, Report* report,
               Tracer* tracer);
void run_batch_cold(const Context& ctx, Report* report, Tracer* tracer);
void run_colgen_large(const Context& ctx, Report* report, Tracer* tracer);

/// Every per-layer metric (name, unit) in report order. A traced run
/// reports all of them; a layer its workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_catalog();
/// Reorder \p report's per-layer metrics into catalog order, adding the
/// missing ones as 0.
void complete_per_layer(Report* report);

/// The tree-heuristic arms, used as the seed-heuristic baseline of
/// period_ratio (certified period / best tree-heuristic period).
bool is_tree_heuristic(StrategyId id);

/// Portfolio-level accounting over uncached solves, fed either from
/// in-process SolveResponses or from wire responses.
class PortfolioLedger {
 public:
  void add(const SolveResponse& response);
  void add(const net::WireResponse& response);
  /// runtime.portfolio.* metrics.
  void report(Report* report) const;

 private:
  struct Outcome {
    StrategyId strategy;
    OutcomeState state;
    double elapsed_ms;
    bool winner;
  };
  void add_solve(double solve_ms, const std::vector<Outcome>& outcomes);

  std::vector<double> solve_ms_;
  double strategy_ms_[8] = {};
  long long outcomes_ = 0;
  long long pruned_ = 0;
  double all_ms_ = 0.0;
  double wasted_ms_ = 0.0;
  long long early_win_cancels_ = 0;
  long long lb_probe_iterations_ = 0;
};

/// Which direct per-layer calls make sense on a workload's instances (the
/// flow LPs and LP heuristics do not finish at colgen_large sizes; column
/// generation is the colgen_large workload's own layer).
struct ProbePlan {
  bool formulations = true;
  bool lp_heuristics = true;
  bool colgen = false;
};

/// Direct, timed calls into the core/lp/sched layers on \p sample, under a
/// "probe" root span per instance. Fills core.*, lp.*, sched.* and
/// graph.hash.* metrics; a tree set that fails verify_certificate or a
/// schedule that fails validation is a report error.
void probe_layers(const std::vector<Problem>& sample, const ProbePlan& plan,
                  Tracer* tracer, Report* report);

/// net.protocol.* figures from direct calls, the same on every workload:
/// encode each request, then encode and decode the response the workload
/// got for it.
void probe_codec(const std::vector<Problem>& problems,
                 const std::vector<net::WireResponse>& responses,
                 Tracer* tracer, Report* report);

/// Record one span per strategy outcome of \p response under \p parent,
/// all anchored at \p start: responses carry each arm's duration, not its
/// launch offset.
void add_strategy_spans(Tracer* tracer, const SolveResponse& response,
                        Clock::time_point start, int parent,
                        std::uint64_t request);

/// Print the traced run's self-time table.
void print_self_times(const Tracer& tracer);

}  // namespace pmbench
