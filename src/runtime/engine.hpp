#pragma once
/// \file engine.hpp
/// The batch-serving layer of the runtime: a PortfolioEngine owns the
/// work-stealing pool and the LRU result cache and exposes an async-first
/// submission surface — submit_batch() hands each request's result to a
/// callback as it certifies — plus blocking solve()/solve_batch()
/// conveniences layered on top. Requests are the public pmcast::SolveRequest;
/// the engine stores no results, it moves each one into the callback. It is
/// the one driver of the portfolio race: solve_portfolio() below is a
/// blocking call on an inline, cache-less engine.
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
///     dispatched in descending SolveRequest::priority order. Under
///     PruningPolicy::Deterministic a group's tasks go out stage by stage
///     (trees, then bound providers, then LP refinement heuristics): the
///     task that completes a stage freezes the group's incumbent snapshot
///     and submits the next stage, so pruning decisions depend only on
///     which strategies ran — never on timing — while tasks of *different*
///     groups still interleave freely and keep the pool saturated.
///  4. *Streaming delivery* — when the last strategy of a group finishes,
///     the group's result is assembled, cached when complete and delivered
///     (leader first, then followers) through the batch callback; other
///     requests keep running. No barrier: time-to-first-result is one
///     request's solve time, not the whole batch's.
///
/// Budget semantics: deadlines are anchored when the batch enters the
/// engine and enforced cooperatively at checkpoint granularity — between
/// strategies, between a strategy's LP probes, and every few dozen simplex
/// iterations inside an LP solve — so an expired deadline surfaces within
/// one checkpoint interval. Nothing is ever killed mid-pivot.
/// Cancellation is cooperative through the same checkpoints, per request
/// (SolveRequest::cancel) or per batch (the token given to submit_batch()).

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/problem.hpp"
#include "pmcast/request.hpp"
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

namespace detail {
struct EngineBatchState;  // defined in engine.cpp
struct EngineGroup;       // defined in engine.cpp
}

/// Streaming delivery: called once per request with its batch index, as
/// results become available, and handed the result by move. Cache hits
/// fire on the submitting thread, the rest on whichever thread finishes a
/// group's last strategy (the submitting thread itself when threads == 0),
/// so calls for different indices may run concurrently.
using BatchCallback =
    std::function<void(std::size_t index, PortfolioResult&& result)>;

class PortfolioEngine {
 public:
  explicit PortfolioEngine(EngineOptions options = {});

  /// Async-first entry point: dispatch the batch and return immediately
  /// (with 0 worker threads everything runs inline first). Each request's
  /// problem is moved into the batch. \p batch_cancel stops every request
  /// of the batch cooperatively.
  void submit_batch(std::vector<SolveRequest> requests,
                    BatchCallback on_result,
                    CancellationToken batch_cancel = {});

  /// Solve one request (cache-aware). Blocks until done.
  PortfolioResult solve(SolveRequest request);

  /// Blocking batch; results align index-for-index with \p requests.
  std::vector<PortfolioResult> solve_batch(std::vector<SolveRequest> requests);

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
  SolveTrace trace_summary() const;

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
  /// Assemble the group's result, cache it when complete, and deliver it
  /// to the leader and then every follower.
  void finish_group(detail::EngineBatchState& state,
                    detail::EngineGroup& group);

  EngineOptions options_;
  // Declared before the pool so they outlive it: the pool's destructor
  // drains in-flight submit_batch() tasks, which still touch the cache
  // and the cumulative trace.
  ResultCache cache_;
  mutable std::mutex trace_mutex_;
  SolveTrace trace_;
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
