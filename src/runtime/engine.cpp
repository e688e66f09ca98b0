#include "runtime/engine.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "core/formulations.hpp"
#include "graph/hash.hpp"

namespace pmcast::runtime {
namespace {

/// Two certified periods within this *relative* distance are a tie, broken
/// on launch order. This is the certification pipeline's own numeric
/// tolerance: two candidates evaluating the same optimum can disagree by
/// floating dust (observed ~1e-15 relative between an LP-derived bound and
/// a schedule-derived period), and letting such dust pick the winner makes
/// the result depend on whether a pruning cut stopped the later candidate —
/// exactly the Det-vs-Off divergence the differential suite forbids.
constexpr double kWinnerTieTol = 1e-9;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// The stage plan for one race: indices into \p strategies, grouped by
/// strategy_stage() with empty stages dropped under Deterministic, one
/// flat stage under Off (the blind fan-out).
std::vector<std::vector<std::size_t>> plan_stages(
    const std::vector<Strategy>& strategies, PruningPolicy policy) {
  std::vector<std::vector<std::size_t>> stages;
  if (policy == PruningPolicy::Deterministic) {
    stages.assign(3, {});
    for (std::size_t i = 0; i < strategies.size(); ++i) {
      stages[static_cast<std::size_t>(strategy_stage(strategies[i]))]
          .push_back(i);
    }
    std::erase_if(stages, [](const auto& s) { return s.empty(); });
  } else {
    stages.emplace_back(strategies.size());
    for (std::size_t i = 0; i < strategies.size(); ++i) stages[0][i] = i;
  }
  return stages;
}

/// Solve Multicast-LB of \p problem (deadline-checkpointed through
/// \p guard) and publish the value as \p incumbent's proven lower bound —
/// the one extra LP a pruning race pays. Returns the simplex iterations
/// spent.
long long run_lb_probe(const core::MulticastProblem& problem,
                       const BudgetGuard& guard, Incumbent& incumbent,
                       Tracer* tracer) {
  core::FormulationOptions lp_options;
  // The LB probe has no strategy slot; it only feeds the latency
  // histogram (slot -1 makes the timeline event a no-op).
  lp_options.solver.checkpoint =
      budget_checkpoint(guard, tracer, /*slot=*/-1, /*strategy=*/0xFF);
  core::FlowSolution lb = core::solve_multicast_lb(problem, lp_options);
  if (lb.ok()) {
    // Publish the LP value as reported. An earlier revision deflated it by
    // 1e-7 to guard against the simplex overshooting the true optimum by
    // tolerance dust — but certified periods are *achievable*, hence >=
    // the true lower bound, so the deflation made "certified <= proven_lb"
    // (the early-win predicate) unsatisfiable on every instance: the cut
    // was dead code, confirmed by the tracer's miss margins clustering at
    // exactly lb * 1e-7. Overshoot dust is bounded by fp rounding of the
    // objective evaluation (~1e-13 relative), far below the 1e-9
    // acceptance tolerance the heuristics use, and the differential suite
    // (Deterministic vs Off bit-identity on the golden corpus) guards the
    // soundness empirically.
    incumbent.publish_lower_bound(lb.period);
  }
  return lb.iterations;
}

/// Pick winner/ok/period out of completed candidate slots and aggregate
/// the per-candidate pruning counters.
PortfolioResult assemble_result(std::vector<CandidateOutcome> candidates) {
  PortfolioResult result;
  result.candidates = std::move(candidates);
  for (const CandidateOutcome& c : result.candidates) {
    if (c.state == CandidateState::Certified) {
      // A later candidate must improve by more than the tie tolerance to
      // displace the incumbent winner: exact ties AND sub-tolerance dust
      // stay on the earlier (cheaper) strategy, which makes the winner
      // independent of completion order, thread count, and whether a
      // pruning cut stopped a candidate that could only tie.
      if (c.period < result.period * (1.0 - kWinnerTieTol)) {
        result.period = c.period;
        result.winner = c.strategy;
        result.ok = true;
      }
    } else if (c.state == CandidateState::Skipped) {
      if (c.skip_reason == SkipReason::Dominated) {
        ++result.pruning.strategies_pruned;
      } else if (c.skip_reason == SkipReason::EarlyWin) {
        ++result.pruning.early_win_cancels;
      }
    }
    result.pruning.probes_skipped += c.prune.probes_skipped;
  }
  return result;
}

}  // namespace

namespace detail {

/// One coalesced group: the leader's problem raced by the portfolio,
/// followers waiting for a copy. Strategy tasks write their outcome slot
/// lock-free; the task that decrements `stage_remaining` to zero owns the
/// stage transition (acq_rel ordering makes every slot visible to it):
/// it re-publishes the stage's certified bounds, freezes the incumbent
/// snapshot and submits the next stage — or assembles and delivers when
/// the last stage is done.
struct EngineGroup {
  std::size_t leader = 0;
  core::MulticastProblem problem;  // copy: tasks outlive the caller's span
  InstanceKey key;
  std::vector<std::size_t> followers;
  PortfolioOptions options;
  BudgetGuard guard;
  std::vector<Strategy> strategies;
  std::vector<CandidateOutcome> outcomes;
  int priority = 0;

  // --- cooperative pruning state (see runtime/incumbent.hpp) ---
  Incumbent incumbent;
  std::vector<std::vector<std::size_t>> stages;  ///< slot indices per stage
  std::size_t next_stage = 0;       ///< only touched by the stage owner
  std::atomic<std::size_t> stage_remaining{0};
  std::vector<StrategyEnv> envs;    ///< per slot, refreshed per stage
  bool lb_probe_pending = false;    ///< stage 0 carries the LB probe task
  long long lb_probe_iterations = 0;

  /// Race-wide tracer; allocated only when the group's options ask for a
  /// nonzero detail, so a disabled trace adds no heap traffic. Groups are
  /// held by unique_ptr, so the address is stable for the tasks.
  std::unique_ptr<Tracer> tracer;
};

struct EngineBatchState {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<PortfolioResult> results;
  std::vector<char> ready;
  std::size_t delivered = 0;

  /// Serializes user callbacks; never held together with `mutex`.
  std::mutex callback_mutex;
  BatchCallback on_result;

  CancellationToken batch_cancel;
  Clock::time_point start;
  std::vector<std::unique_ptr<EngineGroup>> groups;
  ResultCache* cache = nullptr;
  /// Engine-wide cumulative trace (both owned by the engine, which
  /// outlives every task of this batch).
  TraceSummary* engine_trace = nullptr;
  std::mutex* engine_trace_mutex = nullptr;

  /// Publish one request's result and fire the callback. The callback
  /// gets a copy so a concurrent result()/take_all() cannot race it;
  /// `delivered` is bumped only after the callback returns, so wait()
  /// also waits for callbacks.
  void deliver(std::size_t index, PortfolioResult result) {
    PortfolioResult callback_copy;
    {
      std::lock_guard<std::mutex> lock(mutex);
      results[index] = std::move(result);
      ready[index] = 1;
      if (on_result) callback_copy = results[index];
    }
    cv.notify_all();
    if (on_result) {
      std::lock_guard<std::mutex> lock(callback_mutex);
      on_result(index, callback_copy);
    }
    BatchCallback retired;
    {
      std::lock_guard<std::mutex> lock(mutex);
      ++delivered;
      if (delivered == results.size()) {
        // Last delivery: the callback can never fire again. Drop it now —
        // a caller-supplied callback may (indirectly) own the ticket that
        // owns this state, and that reference cycle would leak the batch
        // once the caller's handles are gone. Every deliverer bumps
        // `delivered` only after its callback phase, so nobody can still
        // be about to invoke it.
        retired = std::move(on_result);
        on_result = nullptr;
      }
    }
    cv.notify_all();
    // `retired` (and anything it captured) is destroyed here, outside the
    // locks; the running task's shared_ptr keeps this state alive.
  }

  void finish_group(EngineGroup& group) {
    PortfolioResult result = assemble_result(std::move(group.outcomes));
    result.pruning.lb_probe_iterations = group.lb_probe_iterations;
    result.pruning.proven_lb = group.incumbent.proven_lb();
    if (group.tracer != nullptr) {
      result.trace = group.tracer->summary();
      if (engine_trace != nullptr) {
        std::lock_guard<std::mutex> lock(*engine_trace_mutex);
        engine_trace->merge(result.trace);
      }
    }
    result.elapsed_ms = ms_since(start);
    if (cache != nullptr) cache->put(group.key, result);
    // Leader first, then followers — the order the doc comment promises.
    if (group.followers.empty()) {
      deliver(group.leader, std::move(result));
      return;
    }
    deliver(group.leader, result);
    for (std::size_t f : group.followers) {
      PortfolioResult copy = result;
      copy.coalesced = true;
      deliver(f, std::move(copy));
    }
  }
};

}  // namespace detail

using detail::EngineBatchState;
using detail::EngineGroup;

std::size_t SolveTicket::size() const {
  return state_ == nullptr ? 0 : state_->results.size();
}

std::size_t SolveTicket::completed() const {
  if (state_ == nullptr) return 0;
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->delivered;
}

bool SolveTicket::done() const {
  if (state_ == nullptr) return true;
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->delivered == state_->results.size();
}

void SolveTicket::wait() {
  if (state_ == nullptr) return;
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [&] {
    return state_->delivered == state_->results.size();
  });
}

bool SolveTicket::wait_for(double timeout_ms) {
  if (state_ == nullptr) return true;
  std::unique_lock<std::mutex> lock(state_->mutex);
  return state_->cv.wait_for(
      lock, std::chrono::duration<double, std::milli>(timeout_ms),
      [&] { return state_->delivered == state_->results.size(); });
}

void SolveTicket::cancel() {
  if (state_ != nullptr) state_->batch_cancel.request_stop();
}

bool SolveTicket::ready(std::size_t index) const {
  if (state_ == nullptr || index >= state_->results.size()) return false;
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->ready[index] != 0;
}

PortfolioResult SolveTicket::result(std::size_t index) const {
  PortfolioResult out;
  if (state_ == nullptr || index >= state_->results.size()) return out;
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [&] { return state_->ready[index] != 0; });
  return state_->results[index];
}

std::vector<PortfolioResult> SolveTicket::take_all() {
  wait();
  if (state_ == nullptr) return {};
  std::lock_guard<std::mutex> lock(state_->mutex);
  // Move element-wise, keeping results.size() intact: done()/wait() on
  // this or a copied ticket must stay true (delivered == size), they
  // just observe moved-from values after a take.
  std::vector<PortfolioResult> out(state_->results.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = std::move(state_->results[i]);
  }
  return out;
}

PortfolioEngine::PortfolioEngine(EngineOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_capacity),
      pool_(options_.threads) {}

SolveTicket PortfolioEngine::submit_batch(
    std::span<const core::MulticastProblem> problems,
    std::span<const RequestOptions> requests, BatchCallback on_result) {
  auto state = std::make_shared<EngineBatchState>();
  const std::size_t n = problems.size();
  state->results.resize(n);
  state->ready.assign(n, 0);
  state->start = Clock::now();
  state->cache = &cache_;
  state->engine_trace = &trace_;
  state->engine_trace_mutex = &trace_mutex_;
  // An empty batch never delivers, so never store the callback for one —
  // a callback that (indirectly) owns the ticket would leak the state.
  if (n == 0) return SolveTicket(state);
  state->on_result = std::move(on_result);

  // Requests beyond the span's end get defaults, so a shorter (or empty)
  // span is safe rather than an out-of-bounds read.
  const RequestOptions default_request;
  auto request_of = [&](std::size_t i) -> const RequestOptions& {
    return i < requests.size() ? requests[i] : default_request;
  };

  // Steps 1+2: cache probe (hits delivered immediately, in batch order),
  // then coalesce the remaining misses by canonical key. Leaders keep
  // batch order, which makes coalescing deterministic.
  std::unordered_map<InstanceKey, EngineGroup*> group_of_key;
  for (std::size_t i = 0; i < n; ++i) {
    const core::MulticastProblem& p = problems[i];
    InstanceKey key = instance_key(p.graph, p.source, p.targets);
    if (auto hit = cache_.get(key)) {
      state->deliver(i, std::move(*hit));
      continue;
    }
    auto it = group_of_key.find(key);
    if (it != group_of_key.end()) {
      it->second->followers.push_back(i);
      // The group inherits its most urgent member's priority and its most
      // permissive member's deadline, not just the leader's: a
      // high-priority duplicate must not queue behind lower-priority
      // groups, and a follower that asked for a later deadline — or
      // explicitly for none (SolveBudget::kNoDeadline) — must not be
      // starved by a deadline-bound leader.
      const RequestOptions& follower = request_of(i);
      it->second->priority =
          std::max(it->second->priority, follower.priority);
      SolveBudget fbudget =
          follower.budget.resolve(options_.portfolio.budget);
      Clock::time_point fdeadline = fbudget.deadline_from(state->start);
      if (fdeadline > it->second->guard.deadline) {
        it->second->guard.deadline = fdeadline;
        it->second->options.budget.deadline_ms = fbudget.deadline_ms;
      }
      continue;
    }
    auto group = std::make_unique<EngineGroup>();
    group->leader = i;
    group->problem = p;
    group->key = key;
    group->options = options_.portfolio;
    const RequestOptions& req = request_of(i);
    group->options.budget = req.budget.resolve(options_.portfolio.budget);
    if (!req.strategies.empty()) group->options.strategies = req.strategies;
    if (req.pruning.has_value()) group->options.pruning = *req.pruning;
    if (req.known_lower_bound > group->options.known_lower_bound) {
      group->options.known_lower_bound = req.known_lower_bound;
    }
    group->guard = BudgetGuard{group->options.budget.deadline_from(state->start),
                               req.cancel, state->batch_cancel};
    group->strategies = group->options.strategies.empty()
                            ? all_strategies()
                            : group->options.strategies;
    group->outcomes.resize(group->strategies.size());
    group->envs.resize(group->strategies.size());
    group->priority = req.priority;
    if (group->options.trace != TraceDetail::Off) {
      group->tracer = std::make_unique<Tracer>(group->options.trace,
                                               group->strategies.size());
    }

    if (!p.feasible()) {
      // No strategy can reach every target: fail them all without racing.
      // The empty stage plan makes dispatch deliver the group at once.
      for (std::size_t s = 0; s < group->strategies.size(); ++s) {
        group->outcomes[s].strategy = group->strategies[s];
        group->outcomes[s].state = CandidateState::Failed;
        group->outcomes[s].detail = "infeasible instance: unreachable target";
      }
    } else {
      // Stage plan: Deterministic races stage by stage behind barriers;
      // Off keeps the flat fan-out.
      group->stages = plan_stages(group->strategies, group->options.pruning);
      if (group->options.pruning != PruningPolicy::Off) {
        group->lb_probe_pending = true;
        if (group->options.known_lower_bound > 0.0) {
          group->incumbent.publish_lower_bound(
              group->options.known_lower_bound);
        }
      }
    }
    group_of_key.emplace(key, group.get());
    state->groups.push_back(std::move(group));
  }

  // Step 3: fan each group's first stage onto the pool, highest priority
  // first (stable on batch order for ties). The pool serves submissions
  // roughly in order, so priority maps to dispatch order; later stages are
  // submitted by each group's stage owner as the race progresses.
  std::vector<EngineGroup*> dispatch;
  dispatch.reserve(state->groups.size());
  for (auto& group : state->groups) dispatch.push_back(group.get());
  std::stable_sort(dispatch.begin(), dispatch.end(),
                   [](const EngineGroup* a, const EngineGroup* b) {
                     return a->priority > b->priority;
                   });
  for (EngineGroup* group : dispatch) {
    if (group->stages.empty()) {
      state->finish_group(*group);  // infeasible: nothing to race
    } else {
      dispatch_stage(state, group);
    }
  }
  return SolveTicket(state);
}

void PortfolioEngine::dispatch_stage(
    std::shared_ptr<detail::EngineBatchState> state,
    detail::EngineGroup* group) {
  const std::vector<std::size_t>& stage = group->stages[group->next_stage];
  // Every strategy of the stage decides on the same barrier-fenced
  // snapshot; Off races without an incumbent.
  const IncumbentSnapshot view = group->incumbent.freeze();
  Incumbent* shared = group->options.pruning != PruningPolicy::Off
                          ? &group->incumbent
                          : nullptr;
  for (std::size_t s : stage) {
    group->envs[s] = StrategyEnv{shared, view, static_cast<int>(s),
                                 group->tracer.get()};
  }
  const bool with_lb_probe = group->lb_probe_pending;
  group->lb_probe_pending = false;
  group->stage_remaining.store(stage.size() + (with_lb_probe ? 1 : 0),
                               std::memory_order_relaxed);
  // Each task keeps the batch state alive; with 0 workers submit() runs
  // the task inline, so small engines stay deterministic.
  if (with_lb_probe) {
    pool_.submit([this, state, group] {
      group->lb_probe_iterations += run_lb_probe(
          group->problem, group->guard, group->incumbent,
          group->tracer.get());
      complete_stage_task(state, group);
    });
  }
  for (std::size_t s : stage) {
    pool_.submit([this, state, group, s] {
      group->outcomes[s] = run_strategy(group->problem,
                                        group->strategies[s],
                                        group->options, group->guard,
                                        &group->envs[s]);
      complete_stage_task(state, group);
    });
  }
}

void PortfolioEngine::complete_stage_task(
    const std::shared_ptr<detail::EngineBatchState>& state,
    detail::EngineGroup* group) {
  if (group->stage_remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) {
    return;
  }
  // Stage owner: everything in the stage (and every earlier stage) is
  // visible. Re-publish certified bounds behind the barrier so a
  // certification that raced the LB probe gets its early-win signal
  // honoured (monotone, hence idempotent).
  if (group->options.pruning == PruningPolicy::Deterministic) {
    for (std::size_t s : group->stages[group->next_stage]) {
      const CandidateOutcome& out = group->outcomes[s];
      if (out.state == CandidateState::Certified) {
        group->incumbent.publish_certified(out.period, static_cast<int>(s));
      }
    }
  }
  ++group->next_stage;
  if (group->next_stage < group->stages.size()) {
    dispatch_stage(state, group);
    return;
  }
  state->finish_group(*group);
}

TraceSummary PortfolioEngine::trace_summary() const {
  std::lock_guard<std::mutex> lock(trace_mutex_);
  return trace_;
}

PortfolioResult PortfolioEngine::solve(const core::MulticastProblem& problem,
                                       const RequestOptions& request) {
  auto results = solve_batch({&problem, 1}, {&request, 1});
  return std::move(results.front());
}

std::vector<PortfolioResult> PortfolioEngine::solve_batch(
    std::span<const core::MulticastProblem> problems,
    std::span<const RequestOptions> requests) {
  return submit_batch(problems, requests).take_all();
}

PortfolioResult solve_portfolio(const core::MulticastProblem& problem,
                                const PortfolioOptions& options,
                                CancellationToken cancel) {
  EngineOptions engine_options;
  engine_options.threads = 0;  // inline on the caller
  engine_options.cache_capacity = 0;
  engine_options.portfolio = options;
  PortfolioEngine engine(std::move(engine_options));
  RequestOptions request;
  request.cancel = std::move(cancel);
  return engine.solve(problem, request);
}

}  // namespace pmcast::runtime
