/// \file service.cpp
/// Implementation of the pmcast v1 Service facade (pmcast/service.hpp):
/// request validation, StrategyId <-> runtime::Strategy mapping,
/// PortfolioResult -> Result<SolveResponse> translation, and the shared
/// batch state behind SolveFuture/SolveBatch. All engine mechanics
/// (caching, coalescing, fan-out, streaming) live in runtime/engine.cpp;
/// this layer only adapts types and classifies failures into Status codes.

#include "pmcast/service.hpp"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <utility>

#include "pmcast/problem.hpp"
#include "runtime/runtime.hpp"

namespace pmcast {
namespace {

// The public StrategyId mirrors the runtime enum one-to-one; the facade
// converts by value.
static_assert(
    static_cast<int>(StrategyId::Mcph) ==
            static_cast<int>(runtime::Strategy::Mcph) &&
        static_cast<int>(StrategyId::PrunedDijkstra) ==
            static_cast<int>(runtime::Strategy::PrunedDijkstra) &&
        static_cast<int>(StrategyId::Kmb) ==
            static_cast<int>(runtime::Strategy::Kmb) &&
        static_cast<int>(StrategyId::MulticastUb) ==
            static_cast<int>(runtime::Strategy::MulticastUb) &&
        static_cast<int>(StrategyId::AugmentedSources) ==
            static_cast<int>(runtime::Strategy::AugmentedSources) &&
        static_cast<int>(StrategyId::ReducedBroadcast) ==
            static_cast<int>(runtime::Strategy::ReducedBroadcast) &&
        static_cast<int>(StrategyId::AugmentedMulticast) ==
            static_cast<int>(runtime::Strategy::AugmentedMulticast) &&
        static_cast<int>(StrategyId::Exact) ==
            static_cast<int>(runtime::Strategy::Exact),
    "StrategyId must mirror runtime::Strategy");

static_assert(
    static_cast<int>(PruningPolicy::Off) ==
            static_cast<int>(runtime::PruningPolicy::Off) &&
        static_cast<int>(PruningPolicy::Deterministic) ==
            static_cast<int>(runtime::PruningPolicy::Deterministic),
    "PruningPolicy must mirror runtime::PruningPolicy");

static_assert(
    static_cast<int>(TraceDetail::Off) ==
            static_cast<int>(runtime::TraceDetail::Off) &&
        static_cast<int>(TraceDetail::Counters) ==
            static_cast<int>(runtime::TraceDetail::Counters) &&
        static_cast<int>(TraceDetail::Timeline) ==
            static_cast<int>(runtime::TraceDetail::Timeline),
    "TraceDetail must mirror runtime::TraceDetail");

static_assert(
    static_cast<int>(TraceEventKind::Launch) ==
            static_cast<int>(runtime::TraceEventKind::Launch) &&
        static_cast<int>(TraceEventKind::FirstLpCheckpoint) ==
            static_cast<int>(runtime::TraceEventKind::FirstLpCheckpoint) &&
        static_cast<int>(TraceEventKind::Certified) ==
            static_cast<int>(runtime::TraceEventKind::Certified) &&
        static_cast<int>(TraceEventKind::Pruned) ==
            static_cast<int>(runtime::TraceEventKind::Pruned) &&
        static_cast<int>(TraceEventKind::Skipped) ==
            static_cast<int>(runtime::TraceEventKind::Skipped) &&
        static_cast<int>(TraceEventKind::Failed) ==
            static_cast<int>(runtime::TraceEventKind::Failed),
    "TraceEventKind must mirror runtime::TraceEventKind");

runtime::Strategy to_runtime(StrategyId id) {
  return static_cast<runtime::Strategy>(static_cast<int>(id));
}

runtime::PruningPolicy to_runtime(PruningPolicy policy) {
  return static_cast<runtime::PruningPolicy>(static_cast<int>(policy));
}

runtime::TraceDetail to_runtime(TraceDetail detail) {
  return static_cast<runtime::TraceDetail>(static_cast<int>(detail));
}

StrategyId to_public(runtime::Strategy s) {
  return static_cast<StrategyId>(static_cast<int>(s));
}

std::vector<runtime::Strategy> to_runtime(
    const std::vector<StrategyId>& ids) {
  std::vector<runtime::Strategy> out;
  out.reserve(ids.size());
  for (StrategyId id : ids) out.push_back(to_runtime(id));
  return out;
}

/// Flatten a runtime trace summary into the public SolveTrace. Cheap for
/// the Off/Counters common cases (the histogram copy is 16 integers).
SolveTrace to_public(const runtime::TraceSummary& trace) {
  SolveTrace out;
  out.detail = static_cast<TraceDetail>(static_cast<int>(trace.detail));
  if (trace.detail == runtime::TraceDetail::Off) return out;
  auto predicate = [&](runtime::CutPredicate p) {
    CutPredicateTrace t;
    const runtime::PredicateTrace& src = trace.predicate(p);
    t.evaluated = src.evaluated;
    t.hits = src.hits;
    t.closest_miss = src.closest_miss;
    return t;
  };
  out.sub_scatter = predicate(runtime::CutPredicate::SubScatter);
  out.early_win = predicate(runtime::CutPredicate::EarlyWin);
  out.probe_poll = predicate(runtime::CutPredicate::ProbePoll);
  out.reconstruct_skip = predicate(runtime::CutPredicate::ReconstructSkip);
  out.checkpoint_hist.assign(trace.checkpoint_hist.begin(),
                             trace.checkpoint_hist.end());
  out.checkpoint_polls = trace.checkpoint_polls;
  out.checkpoint_total_us = trace.checkpoint_total_us;
  out.checkpoint_max_us = trace.checkpoint_max_us;
  out.timeline.reserve(trace.timeline.size());
  for (const runtime::TraceEvent& e : trace.timeline) {
    TraceTimelineEvent event;
    event.kind = static_cast<TraceEventKind>(static_cast<int>(e.kind));
    event.strategy = static_cast<StrategyId>(static_cast<int>(e.strategy));
    event.slot = e.slot;
    event.thread = e.thread;
    event.t_us = e.t_us;
    event.value = e.value;
    out.timeline.push_back(event);
  }
  return out;
}

OutcomeState to_public(runtime::CandidateState state,
                       runtime::SkipReason reason) {
  switch (state) {
    case runtime::CandidateState::Certified: return OutcomeState::Certified;
    case runtime::CandidateState::Failed: return OutcomeState::Failed;
    case runtime::CandidateState::Skipped:
      return runtime::is_pruned(reason) ? OutcomeState::Pruned
                                        : OutcomeState::Skipped;
  }
  return OutcomeState::Skipped;
}

using FacadeClock = std::chrono::steady_clock;

double ms_since(FacadeClock::time_point start) {
  return std::chrono::duration<double, std::milli>(FacadeClock::now() - start)
      .count();
}

/// Per-request context the classifier needs after the solve finished.
struct RequestMeta {
  double effective_deadline_ms = 0.0;
  CancelToken cancel;
};

}  // namespace

namespace detail {

struct BatchState {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::optional<Result<SolveResponse>>> slots;
  std::size_t delivered = 0;

  /// Serializes facade callbacks; never held together with `mutex`.
  std::mutex callback_mutex;
  ResultCallback on_result;

  FacadeClock::time_point start;
  std::vector<RequestMeta> meta;
  std::vector<std::size_t> engine_to_facade;
  runtime::SolveTicket ticket;  ///< set under `mutex` after engine dispatch
  bool cancel_requested = false;

  void deliver(std::size_t index, Result<SolveResponse> result) {
    std::optional<Result<SolveResponse>> callback_copy;
    {
      std::lock_guard<std::mutex> lock(mutex);
      slots[index] = std::move(result);
      if (on_result) callback_copy = slots[index];
    }
    cv.notify_all();
    if (callback_copy) {
      std::lock_guard<std::mutex> lock(callback_mutex);
      on_result(index, *callback_copy);
    }
    ResultCallback retired;
    {
      std::lock_guard<std::mutex> lock(mutex);
      ++delivered;
      if (delivered == slots.size()) {
        // Last delivery: drop the user callback so anything it captured
        // (including, via this batch's handle, this very state) is
        // released — otherwise a handle-capturing callback would leak the
        // batch. Safe: every deliverer bumps `delivered` only after its
        // callback phase.
        retired = std::move(on_result);
        on_result = nullptr;
      }
    }
    cv.notify_all();
  }

  bool was_cancelled(std::size_t index) {
    std::lock_guard<std::mutex> lock(mutex);
    return cancel_requested || meta[index].cancel.stop_requested();
  }
};

}  // namespace detail

using detail::BatchState;

namespace {

/// Translate a finished portfolio run into the public result: a certified
/// response, or a classified Status when nothing certified.
Result<SolveResponse> to_response(const runtime::PortfolioResult& run,
                                  const RequestMeta& meta, bool cancelled,
                                  double total_ms) {
  if (!run.ok) {
    bool budget_starved = false;
    std::string first_failure;
    for (const runtime::CandidateOutcome& c : run.candidates) {
      if (c.skip_reason == runtime::SkipReason::DeadlineExpired ||
          c.skip_reason == runtime::SkipReason::Cancelled) {
        budget_starved = true;
      }
      if (first_failure.empty() &&
          c.state == runtime::CandidateState::Failed) {
        first_failure = std::string(runtime::strategy_name(c.strategy)) +
                        ": " + c.detail;
      }
    }
    if (cancelled) {
      return Status(StatusCode::kCancelled,
                    "request cancelled before any strategy certified");
    }
    if (budget_starved && meta.effective_deadline_ms > 0.0) {
      return Status(StatusCode::kDeadlineExceeded,
                    "deadline of " + std::to_string(meta.effective_deadline_ms) +
                        " ms expired before any strategy certified");
    }
    if (budget_starved) {
      // No deadline and not this request's own token: a coalesced group
      // runs under its leader's budget, so the leader was cancelled.
      return Status(StatusCode::kCancelled,
                    "request cancelled (via the coalesced leader's token) "
                    "before any strategy certified");
    }
    return Status(StatusCode::kInternal,
                  first_failure.empty()
                      ? "no strategy produced a certified result"
                      : "no strategy produced a certified result; first "
                        "failure — " + first_failure);
  }

  SolveResponse response;
  response.period = run.period;
  response.winner = to_public(run.winner);
  response.outcomes.reserve(run.candidates.size());
  for (const runtime::CandidateOutcome& c : run.candidates) {
    StrategyOutcome out;
    out.strategy = to_public(c.strategy);
    out.state = to_public(c.state, c.skip_reason);
    out.period = c.period;
    out.bound_period = c.bound_period;
    out.elapsed_ms = c.elapsed_ms;
    out.lp.solves = c.lp.solves;
    out.lp.warm_starts = c.lp.warm_starts;
    out.lp.eta_reuses = c.lp.eta_reuses;
    out.lp.cold_fallbacks = c.lp.cold_fallbacks;
    out.lp.iterations = c.lp.iterations;
    out.lp.columns_priced = c.lp.columns_priced;
    out.lp.master_iterations = c.lp.master_iterations;
    out.lp.pricing_ms = c.lp.pricing_ms;
    out.prune.probes_skipped = c.prune.probes_skipped;
    out.detail = c.detail;
    switch (out.state) {
      case OutcomeState::Certified:
        ++response.certificate.certified;
        break;
      case OutcomeState::Failed:
        ++response.certificate.failed;
        break;
      case OutcomeState::Skipped:
        ++response.certificate.skipped;
        break;
      case OutcomeState::Pruned:
        ++response.certificate.pruned;
        break;
    }
    response.outcomes.push_back(std::move(out));
    if (c.strategy == run.winner &&
        c.state == runtime::CandidateState::Certified) {
      response.certificate.winner_detail = c.detail;
    }
  }
  response.pruning.strategies_pruned = run.pruning.strategies_pruned;
  response.pruning.early_win_cancels = run.pruning.early_win_cancels;
  response.pruning.probes_skipped = run.pruning.probes_skipped;
  response.pruning.lb_probe_iterations = run.pruning.lb_probe_iterations;
  response.pruning.proven_lower_bound = run.pruning.proven_lb;
  response.trace = to_public(run.trace);
  response.provenance.from_cache = run.from_cache;
  response.provenance.coalesced = run.coalesced;
  response.timing.solve_ms = run.from_cache ? 0.0 : run.elapsed_ms;
  response.timing.total_ms = total_ms;
  return response;
}

}  // namespace

// ------------------------------------------------------------ SolveFuture --

bool SolveFuture::ready() const {
  if (state_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->slots[index_].has_value();
}

void SolveFuture::wait() const {
  if (state_ == nullptr) return;
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [&] { return state_->slots[index_].has_value(); });
}

bool SolveFuture::wait_for(double timeout_ms) const {
  if (state_ == nullptr) return false;
  std::unique_lock<std::mutex> lock(state_->mutex);
  return state_->cv.wait_for(
      lock, std::chrono::duration<double, std::milli>(timeout_ms),
      [&] { return state_->slots[index_].has_value(); });
}

Result<SolveResponse> SolveFuture::get() const {
  if (state_ == nullptr) {
    return Status(StatusCode::kInvalidArgument,
                  "get() on a default-constructed SolveFuture");
  }
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [&] { return state_->slots[index_].has_value(); });
  return *state_->slots[index_];
}

void SolveFuture::cancel() {
  if (state_ == nullptr) return;
  CancelToken token;
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    token = state_->meta[index_].cancel;
  }
  token.request_stop();
}

// ------------------------------------------------------------- SolveBatch --

std::size_t SolveBatch::size() const {
  return state_ == nullptr ? 0 : state_->slots.size();
}

std::size_t SolveBatch::completed() const {
  if (state_ == nullptr) return 0;
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->delivered;
}

bool SolveBatch::done() const {
  if (state_ == nullptr) return true;
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->delivered == state_->slots.size();
}

void SolveBatch::wait_all() {
  if (state_ == nullptr) return;
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock,
                  [&] { return state_->delivered == state_->slots.size(); });
}

bool SolveBatch::wait_all_for(double timeout_ms) {
  if (state_ == nullptr) return true;
  std::unique_lock<std::mutex> lock(state_->mutex);
  return state_->cv.wait_for(
      lock, std::chrono::duration<double, std::milli>(timeout_ms),
      [&] { return state_->delivered == state_->slots.size(); });
}

void SolveBatch::cancel() {
  if (state_ == nullptr) return;
  runtime::SolveTicket ticket;
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    state_->cancel_requested = true;
    ticket = state_->ticket;
  }
  ticket.cancel();
}

bool SolveBatch::ready(std::size_t index) const {
  if (state_ == nullptr || index >= state_->slots.size()) return false;
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->slots[index].has_value();
}

Result<SolveResponse> SolveBatch::get(std::size_t index) const {
  if (state_ == nullptr || index >= state_->slots.size()) {
    return Status(StatusCode::kInvalidArgument,
                  "get(" + std::to_string(index) +
                      ") out of range for this batch");
  }
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [&] { return state_->slots[index].has_value(); });
  return *state_->slots[index];
}

SolveFuture SolveBatch::future(std::size_t index) const {
  if (state_ == nullptr || index >= state_->slots.size()) {
    return SolveFuture();
  }
  return SolveFuture(state_, index);
}

// ---------------------------------------------------------------- Service --

struct Service::Impl {
  ServiceOptions options;
  runtime::PortfolioEngine engine;

  static runtime::EngineOptions engine_options(const ServiceOptions& o) {
    runtime::EngineOptions eo;
    eo.threads = o.threads;
    eo.cache_capacity = o.cache_capacity;
    eo.portfolio.budget.deadline_ms = o.default_deadline_ms;
    eo.portfolio.budget.exact_max_nodes = o.exact_max_nodes;
    eo.portfolio.budget.exact_max_trees = o.exact_max_trees;
    eo.portfolio.budget.colgen_max_nodes = o.colgen_max_nodes;
    eo.portfolio.simulate_periods = o.simulate_periods;
    eo.portfolio.strategies = to_runtime(o.strategies);
    eo.portfolio.pruning = to_runtime(o.pruning);
    eo.portfolio.trace = to_runtime(o.trace);
    return eo;
  }

  explicit Impl(ServiceOptions o)
      : options(std::move(o)), engine(engine_options(options)) {}
};

Service::Service(ServiceOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Service::~Service() = default;
Service::Service(Service&&) noexcept = default;
Service& Service::operator=(Service&&) noexcept = default;

SolveBatch Service::submit_batch(std::vector<SolveRequest> requests,
                                 ResultCallback on_result) {
  auto state = std::make_shared<BatchState>();
  const std::size_t n = requests.size();
  state->slots.resize(n);
  state->on_result = std::move(on_result);
  state->start = FacadeClock::now();
  state->meta.resize(n);

  std::vector<core::MulticastProblem> problems;
  std::vector<runtime::RequestOptions> engine_requests;
  std::vector<std::pair<std::size_t, Status>> rejected;
  problems.reserve(n);
  engine_requests.reserve(n);

  for (std::size_t i = 0; i < n; ++i) {
    SolveRequest& req = requests[i];
    RequestMeta& meta = state->meta[i];
    // Positive = the request's own deadline; 0 inherits the service
    // default; negative (SolveRequest::kNoDeadline) = explicitly none.
    meta.effective_deadline_ms = req.deadline_ms > 0.0
                                     ? req.deadline_ms
                                 : req.deadline_ms < 0.0
                                     ? 0.0
                                     : impl_->options.default_deadline_ms;
    meta.cancel = req.cancel;

    Status valid = validate_problem(req.problem);
    if (valid.ok() && !req.problem.feasible()) {
      valid = Status(StatusCode::kFailedPrecondition,
                     "infeasible instance: at least one target is "
                     "unreachable from the source");
    }
    if (!valid.ok()) {
      rejected.emplace_back(i, std::move(valid));
      continue;
    }

    runtime::RequestOptions ro;
    ro.budget.deadline_ms = req.deadline_ms;
    ro.budget.exact_max_nodes = req.limits.exact_max_nodes;
    ro.budget.exact_max_trees = req.limits.exact_max_trees;
    ro.budget.colgen_max_nodes = req.limits.colgen_max_nodes;
    ro.strategies = to_runtime(req.strategies);
    ro.priority = req.priority;
    ro.cancel = req.cancel;
    if (req.pruning.has_value()) ro.pruning = to_runtime(*req.pruning);
    ro.known_lower_bound = req.known_lower_bound;
    engine_requests.push_back(std::move(ro));
    state->engine_to_facade.push_back(i);
    problems.push_back(std::move(req.problem));
  }

  // Rejections resolve first, on the submitting thread, in index order —
  // before any engine work is dispatched.
  for (auto& [index, status] : rejected) {
    state->deliver(index, std::move(status));
  }

  runtime::SolveTicket ticket = impl_->engine.submit_batch(
      problems, engine_requests,
      [state](std::size_t engine_index,
              const runtime::PortfolioResult& result) {
        std::size_t index = state->engine_to_facade[engine_index];
        bool cancelled = state->was_cancelled(index);
        state->deliver(index,
                       to_response(result, state->meta[index], cancelled,
                                   ms_since(state->start)));
      });
  {
    std::lock_guard<std::mutex> lock(state->mutex);
    state->ticket = std::move(ticket);
  }
  return SolveBatch(state);
}

SolveFuture Service::submit(SolveRequest request) {
  std::vector<SolveRequest> batch;
  batch.push_back(std::move(request));
  return submit_batch(std::move(batch)).future(0);
}

Result<SolveResponse> Service::solve(const SolveRequest& request) {
  return submit(request).get();
}

std::vector<Result<SolveResponse>> Service::solve_batch(
    std::vector<SolveRequest> requests) {
  SolveBatch batch = submit_batch(std::move(requests));
  batch.wait_all();
  // The handle dies with this frame, so move the responses out instead
  // of copying per-strategy outcome vectors through get().
  std::vector<Result<SolveResponse>> results;
  results.reserve(batch.size());
  std::lock_guard<std::mutex> lock(batch.state_->mutex);
  for (auto& slot : batch.state_->slots) {
    results.push_back(std::move(*slot));
  }
  return results;
}

CacheMetrics Service::cache_metrics() const {
  runtime::CacheStats stats = impl_->engine.cache_stats();
  CacheMetrics metrics;
  metrics.hits = stats.hits;
  metrics.misses = stats.misses;
  metrics.evictions = stats.evictions;
  metrics.entries = stats.entries;
  metrics.shards = stats.shards;
  std::vector<runtime::CacheStats> shards = impl_->engine.cache_shard_stats();
  metrics.shard_heat.reserve(shards.size());
  for (const runtime::CacheStats& s : shards) {
    metrics.shard_heat.push_back(
        CacheMetrics::ShardHeat{s.hits, s.misses, s.evictions, s.entries});
  }
  return metrics;
}

SolveTrace Service::aggregate_trace() const {
  return to_public(impl_->engine.trace_summary());
}

void Service::clear_cache() { impl_->engine.clear_cache(); }

int Service::thread_count() const { return impl_->engine.thread_count(); }

}  // namespace pmcast
