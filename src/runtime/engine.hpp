#pragma once
/// \file engine.hpp
/// The batch-serving layer of the runtime: a PortfolioEngine owns the
/// work-stealing pool and the LRU result cache and exposes an async-first
/// submission surface — submit_batch() streams each request's result
/// through a callback as it certifies — plus blocking
/// solve()/solve_batch() conveniences layered on top. It is the one driver
/// of the portfolio race: solve_portfolio() below is a blocking call on an
/// inline, cache-less engine.
///
/// A batch is served in four steps:
///  1. *Cache lookup* — every request's canonical instance key
///     (graph/hash.hpp) is probed against the LRU cache; hits are
///     delivered immediately, on the submitting thread.
///  2. *Coalescing* — misses with identical keys are grouped; one leader
///     per group is solved, followers receive a copy (coalesced flag set).
///     A coalesced group runs under its leader's cancellation tokens (the
///     leader is the first occurrence in the batch) but its *most
///     permissive* member's deadline — a follower with a later or
///     explicitly-unlimited deadline widens the group's, mirroring the
///     priority escalation.
///  3. *Fan-out* — every (leader, strategy) pair becomes one pool task, so
///     strategy-level parallelism spans request boundaries and the pool
///     stays saturated even when one straggler request is left. Groups are
///     dispatched in descending RequestOptions::priority order. Under
///     PruningPolicy::Deterministic a group's tasks go out stage by stage
///     (trees, then bound providers, then LP refinement heuristics): the
///     task that completes a stage freezes the group's incumbent snapshot
///     and submits the next stage, so pruning decisions depend only on
///     which strategies ran — never on timing — while tasks of *different*
///     groups still interleave freely and keep the pool saturated.
///  4. *Streaming delivery* — when the last strategy of a group finishes,
///     the group's result is assembled, cached and delivered (leader
///     first, then followers) through the batch callback; other requests
///     keep running. No barrier: time-to-first-result is one request's
///     solve time, not the whole batch's.
///
/// Budget semantics: deadlines are anchored when the batch enters the
/// engine and enforced cooperatively at checkpoint granularity — between
/// strategies, between a strategy's LP probes, and every few dozen simplex
/// iterations inside an LP solve — so an expired deadline surfaces within
/// one checkpoint interval. Nothing is ever killed mid-pivot.
/// Cancellation is cooperative through the same checkpoints, per request
/// (RequestOptions::cancel) or per batch (SolveTicket::cancel()).

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "core/problem.hpp"
#include "runtime/budget.hpp"
#include "runtime/cache.hpp"
#include "runtime/portfolio.hpp"
#include "runtime/thread_pool.hpp"

namespace pmcast::runtime {

struct EngineOptions {
  /// Worker threads of the pool. 0 = no workers, everything runs inline on
  /// the calling thread (deterministic debugging mode).
  int threads = 1;
  /// Result-cache capacity in entries; 0 disables caching.
  std::size_t cache_capacity = 1024;
  /// Portfolio configuration shared by every request (strategy set,
  /// default budget, certificate replay periods).
  PortfolioOptions portfolio;
};

/// Per-request knobs layered on top of EngineOptions::portfolio. This is
/// the runtime mirror of the facade's pmcast::SolveRequest.
struct RequestOptions {
  /// Sentinel-aware budget merged over the engine default: deadline_ms 0,
  /// exact_max_nodes < 0 and exact_max_trees 0 each inherit. Careful:
  /// assigning a default-constructed SolveBudget{} here is NOT "inherit"
  /// — it carries the concrete engine defaults (9 / 200k) and overrides
  /// an engine configured differently. Use SolveBudget::inherit().
  SolveBudget budget = SolveBudget::inherit();
  /// Strategy allowlist; empty inherits the engine portfolio.
  std::vector<Strategy> strategies;
  /// Higher-priority requests are dispatched to the pool first.
  int priority = 0;
  /// Cooperative cancellation; request_stop() makes not-yet-started
  /// strategies of this request skip.
  CancellationToken cancel;
  /// Cooperative-pruning override; nullopt inherits the engine portfolio's
  /// policy. A coalesced group runs under its leader's policy.
  std::optional<PruningPolicy> pruning;
  /// Caller-proven lower bound on the achievable period (0 = none); seeds
  /// the race's incumbent so early-win cuts can fire from the start.
  double known_lower_bound = 0.0;
};

namespace detail {
struct EngineBatchState;  // defined in engine.cpp
struct EngineGroup;       // defined in engine.cpp
}

/// Streaming delivery: called once per request with its batch index, as
/// results become available. Callbacks are serialized; cache hits fire on
/// the submitting thread, the rest on whichever thread finishes a group's
/// last strategy (the submitting thread itself when threads == 0). A
/// callback must not block on its own ticket.
using BatchCallback =
    std::function<void(std::size_t index, const PortfolioResult& result)>;

/// Handle to one in-flight batch. Copyable; copies share the state, which
/// outlives the engine's interest in it (tasks hold shared ownership).
class SolveTicket {
 public:
  SolveTicket() = default;

  bool valid() const { return state_ != nullptr; }
  std::size_t size() const;
  /// Results delivered so far.
  std::size_t completed() const;
  bool done() const;
  /// Block until every result is delivered (including callbacks).
  void wait();
  /// Wait up to \p timeout_ms; true iff the batch completed.
  bool wait_for(double timeout_ms);
  /// Cooperatively cancel every request of the batch.
  void cancel();
  bool ready(std::size_t index) const;
  /// Block until request \p index is delivered, then copy its result out.
  PortfolioResult result(std::size_t index) const;
  /// wait(), then move all results out (one-shot). Index-aligned. The
  /// ticket stays done(); result(i) afterwards returns moved-from values.
  std::vector<PortfolioResult> take_all();

 private:
  friend class PortfolioEngine;
  explicit SolveTicket(std::shared_ptr<detail::EngineBatchState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::EngineBatchState> state_;
};

class PortfolioEngine {
 public:
  explicit PortfolioEngine(EngineOptions options = {});

  /// Async-first entry point: dispatch the batch and return immediately
  /// (with 0 worker threads everything runs inline first). Problems and
  /// requests are copied into the batch state; the spans need not outlive
  /// the call.
  SolveTicket submit_batch(std::span<const core::MulticastProblem> problems,
                           std::span<const RequestOptions> requests = {},
                           BatchCallback on_result = {});

  /// Solve one instance (cache-aware). Blocks until done.
  PortfolioResult solve(const core::MulticastProblem& problem,
                        const RequestOptions& request = {});

  /// Blocking batch; results align index-for-index with \p problems.
  /// \p requests may be empty or shorter than \p problems — requests
  /// without a matching entry use the engine defaults.
  std::vector<PortfolioResult> solve_batch(
      std::span<const core::MulticastProblem> problems,
      std::span<const RequestOptions> requests = {});

  CacheStats cache_stats() const { return cache_.stats(); }
  /// Per-shard heat counters of the result cache (index == shard id).
  std::vector<CacheStats> cache_shard_stats() const {
    return cache_.shard_stats();
  }
  void clear_cache() { cache_.clear(); }
  int thread_count() const { return pool_.thread_count(); }
  /// Cumulative trace merged over every group this engine has finished.
  /// Counters only — timelines stay on the individual PortfolioResults
  /// (their timestamps share no origin across races).
  TraceSummary trace_summary() const;

 private:
  /// Submit one group's current stage onto the pool (envs refreshed from
  /// a barrier-fenced incumbent snapshot first).
  void dispatch_stage(std::shared_ptr<detail::EngineBatchState> state,
                      detail::EngineGroup* group);
  /// Called by every finished stage task; the one that completes the
  /// stage advances it (next dispatch_stage or final delivery).
  void complete_stage_task(
      const std::shared_ptr<detail::EngineBatchState>& state,
      detail::EngineGroup* group);

  EngineOptions options_;
  // Declared before the pool so they outlive it: the pool's destructor
  // drains in-flight submit_batch() tasks, which still touch the cache
  // and the cumulative trace.
  ResultCache cache_;
  mutable std::mutex trace_mutex_;
  TraceSummary trace_;
  ThreadPool pool_;
};

/// Race the portfolio once on the calling thread (a PortfolioEngine with
/// no workers and no cache) and return when every strategy has finished
/// or been skipped. An instance with an unreachable target fails every
/// strategy without racing.
PortfolioResult solve_portfolio(const core::MulticastProblem& problem,
                                const PortfolioOptions& options = {},
                                CancellationToken cancel = {});

}  // namespace pmcast::runtime
