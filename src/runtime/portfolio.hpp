#pragma once
/// \file portfolio.hpp
/// The solver portfolio: race every applicable strategy of the library on
/// one instance and return the best *certified* period.
///
/// Rationale (CP-Router-style cheap-vs-expensive routing): the paper's
/// strategies span three orders of magnitude in cost — tree heuristics are
/// microseconds, the LP refinement heuristics are dozens of LP solves, the
/// exact tree-enumeration LP is exponential. No single choice wins on every
/// instance, so the runtime runs them all (subject to budget) and lets the
/// certificates arbitrate.
///
/// Every candidate must earn its period through the proof pipeline before
/// it can win:
///  * tree strategies      -> WeightedTreeSet -> core::verify_certificate
///  * flow/LP strategies   -> schedule reconstruction -> sched::validate_schedule
/// The two platform heuristics (reduced broadcast / augmented multicast)
/// report a Broadcast-EB value whose constructive schedule lives in prior
/// work, not in this library; they are certified here by re-solving the
/// scatter bound on their reduced platform and validating *that* schedule,
/// and their EB value is kept as an advisory bound (bound_period).
///
/// Determinism: with no deadline, every strategy is a pure function of the
/// instance, candidates land in fixed slots, and ties break by strategy
/// order — the result is bit-identical across 1, 2 or 8 threads.
///
/// Cooperative pruning (PruningPolicy, runtime/incumbent.hpp): the race
/// shares incumbent bounds so provably-dominated work is cut — the
/// platform heuristics are skipped once a cheaper candidate beats the
/// full-platform scatter bound, and every strategy stops once a certified
/// candidate meets the proven Multicast-LB lower bound. Every cut is sound
/// (the pruned work provably could not have changed the winner or its
/// period), and PruningPolicy::Deterministic stages the race behind
/// barriers so even the per-candidate outcomes are bit-identical across
/// thread counts.
/// Deadlines interrupt LP solves mid-flight through the simplex
/// checkpoint hook.
///
/// The race itself is driven by PortfolioEngine (engine.hpp); this header
/// holds its vocabulary and the one-strategy step it fans out.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/problem.hpp"
#include "lp/resolve.hpp"
#include "runtime/budget.hpp"
#include "runtime/incumbent.hpp"
#include "runtime/trace.hpp"

namespace pmcast::runtime {

enum class Strategy {
  Mcph = 0,            ///< paper Fig. 9 tree heuristic
  PrunedDijkstra,      ///< Steiner baseline
  Kmb,                 ///< Steiner baseline (distance network)
  MulticastUb,         ///< LP scatter bound, always reconstructible
  AugmentedSources,    ///< paper Fig. 8 multisource heuristic
  ReducedBroadcast,    ///< paper Fig. 6 platform heuristic
  AugmentedMulticast,  ///< paper Fig. 7 platform heuristic
  Exact,               ///< tree-enumeration LP (small instances only)
};

const char* strategy_name(Strategy s);

/// All strategies in launch order: cheap and certain first, so tight
/// budgets still produce a certified answer.
std::vector<Strategy> all_strategies();

enum class CandidateState {
  Certified,  ///< period realised as a schedule and validated
  Failed,     ///< strategy did not produce a certifiable result
  Skipped,    ///< budget/deadline/cancellation or inapplicable (e.g. Exact
              ///< on a large instance)
};

/// Why a candidate was Skipped — structured so upper layers (the Service
/// facade's Status classification) never have to match detail strings.
enum class SkipReason {
  NotSkipped = 0,
  Inapplicable,      ///< strategy doesn't apply (instance above exact size)
  EnumerationLimit,  ///< exact solver hit its tree-enumeration cap
  DeadlineExpired,   ///< wall-clock deadline hit, possibly mid-LP-solve
  Cancelled,         ///< cancellation token fired
  Dominated,         ///< provably cannot beat the incumbent (pruned)
  EarlyWin,          ///< incumbent already meets the proven lower bound
};

/// True for the two cooperative-pruning skip reasons.
inline bool is_pruned(SkipReason reason) {
  return reason == SkipReason::Dominated || reason == SkipReason::EarlyWin;
}

/// Per-candidate cooperative-pruning counters.
struct PruneCounters {
  int probes_skipped = 0;  ///< heuristic probes not run (LB convergence)
};

struct CandidateOutcome {
  Strategy strategy = Strategy::Mcph;
  CandidateState state = CandidateState::Skipped;
  SkipReason skip_reason = SkipReason::NotSkipped;
  double period = kInfinity;        ///< certified period (time per multicast)
  double bound_period = kInfinity;  ///< strategy's own claimed/advisory value
  double elapsed_ms = 0.0;
  /// LP sequence counters (solves, warm-start hits, eta reuses, fallbacks,
  /// simplex iterations); all-zero for strategies that solve no LPs.
  lp::ResolveStats lp;
  PruneCounters prune;              ///< cooperative-pruning counters
  std::string detail;               ///< failure reason / certification note
};

struct PortfolioOptions {
  /// Strategies to race; empty means all_strategies().
  std::vector<Strategy> strategies;
  SolveBudget budget;
  /// Extra discrete-event replay periods for tree certificates (0 = the
  /// static checks only; they already include the König orchestration).
  int simulate_periods = 0;
  /// Cooperative pruning across the race (see runtime/incumbent.hpp).
  PruningPolicy pruning = PruningPolicy::Deterministic;
  /// Caller-proven lower bound on any achievable period for this instance
  /// (e.g. from a previous solve of a relaxation); 0 = none. Seeds the
  /// incumbent's proven LB, enabling early-win cuts from the start.
  double known_lower_bound = 0.0;
  /// Tracing/profiling detail recorded into PortfolioResult::trace (see
  /// runtime/trace.hpp). Counters is cheap enough to stay on by default;
  /// Off removes every atomic/clock/allocation from the trace path.
  TraceDetail trace = TraceDetail::Counters;
};

/// Race-level pruning summary, aggregated over the candidates.
struct PruningSummary {
  int strategies_pruned = 0;   ///< candidates skipped as Dominated
  int early_win_cancels = 0;   ///< candidates skipped/stopped as EarlyWin
  int probes_skipped = 0;      ///< heuristic probes not run
  long long lb_probe_iterations = 0;  ///< simplex iterations spent proving
                                      ///< the Multicast-LB lower bound
  double proven_lb = 0.0;      ///< best proven lower bound (0 = none)
};

struct PortfolioResult {
  bool ok = false;             ///< at least one strategy certified
  double period = kInfinity;   ///< best certified period
  Strategy winner = Strategy::Mcph;
  std::vector<CandidateOutcome> candidates;  ///< indexed by launch order
  PruningSummary pruning;
  /// What the tracer recorded for this race (detail == Off when tracing
  /// was disabled; see PortfolioOptions::trace).
  TraceSummary trace;
  double elapsed_ms = 0.0;
  bool from_cache = false;  ///< served from the engine's LRU cache
  bool coalesced = false;   ///< duplicate within a batch, copied from leader
};

/// The cooperative-pruning environment of one run_strategy call. `view` is
/// the barrier-fenced snapshot every pruning predicate decides on;
/// `shared` is where a finishing strategy publishes its bounds, and null
/// disables pruning entirely (deadline checkpoints remain).
struct StrategyEnv {
  Incumbent* shared = nullptr;
  IncumbentSnapshot view;
  int launch_index = 0;
  /// Race-wide tracer (null or disabled = record nothing). Shared by all
  /// strategies of the race; each strategy owns its launch-index slot.
  Tracer* tracer = nullptr;
};

/// Run one strategy to completion on \p problem (pure, thread-safe).
/// Deadlines and cancellation are enforced inside LP solves and the exact
/// enumeration through cooperative checkpoints: an expired deadline makes
/// the strategy return Skipped/DeadlineExpired within one checkpoint
/// interval instead of running the solve to completion.
CandidateOutcome run_strategy(const core::MulticastProblem& problem,
                              Strategy strategy,
                              const PortfolioOptions& options,
                              const BudgetGuard& guard,
                              const StrategyEnv* env = nullptr);

/// The simplex checkpoint hook of one strategy's LP solves (or, with
/// \p slot -1, of the race's Multicast-LB probe): Abort once \p guard
/// expires. With an enabled \p tracer it also feeds the checkpoint
/// latency histogram and, once, the slot's FirstLpCheckpoint event.
/// \p guard is captured by reference and must outlive the solves.
std::function<lp::CheckpointAction()> budget_checkpoint(
    const BudgetGuard& guard, Tracer* tracer, int slot,
    std::uint8_t strategy);

/// The deterministic launch stage of a strategy: 0 = tree heuristics,
/// 1 = bound providers (Multicast-UB, exact), 2 = LP refinement
/// heuristics. PruningPolicy::Deterministic runs the race stage by stage
/// (a barrier between stages) so pruning decisions depend only on which
/// strategies ran, never on timing.
int strategy_stage(Strategy strategy);

}  // namespace pmcast::runtime
