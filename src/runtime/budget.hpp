#pragma once
/// \file budget.hpp
/// Budget control for portfolio runs: wall-clock deadlines, work limits and
/// cooperative cancellation. A SolveBudget is checked before a strategy
/// starts, between a strategy's LP probes, and — through the simplex
/// checkpoint hook (lp::SolverOptions::checkpoint) — every few dozen
/// iterations *inside* an LP solve, so overruns are bounded by one
/// checkpoint interval. The engine still never kills a thread: every stop
/// is cooperative, at a pivot boundary.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>

namespace pmcast::runtime {

using Clock = std::chrono::steady_clock;

/// Cooperative cancellation flag, shareable across requests and threads.
/// request_stop() is sticky; strategies poll stop_requested() at their
/// checkpoints and bail out early.
class CancellationToken {
 public:
  CancellationToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void request_stop() const { flag_->store(true, std::memory_order_relaxed); }
  bool stop_requested() const {
    return flag_->load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Budget for one portfolio run: a wall-clock deadline plus limits on the
/// expensive exact solver. The default-constructed budget is the *engine*
/// default (unlimited wall clock, bounded exact solver); inherit() is the
/// *request* default, where every field defers to the engine's budget —
/// resolve() merges the two. This is the single carrier of deadline and
/// exact limits inside the runtime; the engine turns a SolveRequest's
/// deadline_ms and limits into one in a single place (engine.cpp).
struct SolveBudget {
  /// Explicit "no deadline" sentinel for deadline_ms. Distinct from 0.0,
  /// which on a request budget means "inherit the engine default": a
  /// request carrying kNoDeadline opts out of any engine-default deadline
  /// through resolve(), which 0.0 could never express (any negative value
  /// behaves the same; kNoDeadline is the canonical spelling).
  static constexpr double kNoDeadline = -1.0;

  /// Wall-clock budget in milliseconds. 0 = unlimited on an engine budget
  /// and "inherit the engine default" on a request budget; kNoDeadline
  /// (negative) = explicitly unlimited, overriding any engine default. The
  /// deadline is anchored when the request enters the engine (see
  /// deadline_from()).
  double deadline_ms = 0.0;

  /// Instances larger than this skip the exact enumeration strategy.
  /// Negative on a request budget = inherit.
  int exact_max_nodes = 9;
  /// Tree-enumeration abort limit for the exact strategy. 0 on a request
  /// budget = inherit.
  std::size_t exact_max_trees = 200'000;

  /// Instances above exact_max_nodes but at most this many nodes route the
  /// exact strategy to the column-generation solver (restricted master +
  /// pricing oracle) instead of skipping. 0 disables column generation —
  /// the engine default, keeping small-instance results bit-identical to
  /// the enumeration-only portfolio; negative on a request budget =
  /// inherit.
  int colgen_max_nodes = 0;

  /// Request-level budget with every field deferring to the engine's.
  static SolveBudget inherit() {
    SolveBudget budget;
    budget.deadline_ms = 0.0;
    budget.exact_max_nodes = -1;
    budget.exact_max_trees = 0;
    budget.colgen_max_nodes = -1;
    return budget;
  }

  /// Merge this (request-level, sentinel-aware) budget over \p base:
  /// 0.0 inherits the base deadline, a positive value overrides it, and
  /// kNoDeadline (negative) clears it — the explicit unlimited opt-out.
  SolveBudget resolve(const SolveBudget& base) const {
    SolveBudget merged = base;
    if (deadline_ms > 0.0 || deadline_ms < 0.0) {
      merged.deadline_ms = deadline_ms;
    }
    if (exact_max_nodes >= 0) merged.exact_max_nodes = exact_max_nodes;
    if (exact_max_trees > 0) merged.exact_max_trees = exact_max_trees;
    if (colgen_max_nodes >= 0) merged.colgen_max_nodes = colgen_max_nodes;
    return merged;
  }

  Clock::time_point deadline_from(Clock::time_point start) const {
    // Both the 0.0 "unlimited/inherit-nothing" case and the explicit
    // kNoDeadline sentinel mean "never expires" here.
    if (deadline_ms <= 0.0) return Clock::time_point::max();
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(deadline_ms));
  }
};

/// The live view a running strategy checks: deadline passed or cancelled?
/// Carries two tokens so one request can be stopped either individually
/// (its own token) or collectively (the owning batch's token).
struct BudgetGuard {
  Clock::time_point deadline = Clock::time_point::max();
  CancellationToken cancel;        ///< per-request token
  CancellationToken batch_cancel;  ///< owning batch's token

  /// The two expiry causes, split so outcomes can classify precisely
  /// (DeadlineExpired vs Cancelled) instead of reporting a generic
  /// budget event.
  bool cancelled() const {
    return cancel.stop_requested() || batch_cancel.stop_requested();
  }
  bool deadline_passed() const {
    return deadline != Clock::time_point::max() && Clock::now() >= deadline;
  }

  bool expired() const { return cancelled() || deadline_passed(); }
};

}  // namespace pmcast::runtime
