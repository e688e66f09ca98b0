#pragma once
/// \file trace.hpp
/// Lightweight always-on tracing/profiling for the portfolio runtime.
///
/// The tracer answers the questions the bench counters cannot: which cut
/// predicates actually fire, *how close* each miss was, how long the LP
/// solvers go between budget checkpoints, and when each strategy launched,
/// saw its first LP checkpoint, and reached a terminal state. PR 5 shipped
/// pruning counters that read zero across the whole bench corpus
/// (early_win_cancels, probes_skipped); this layer exists so that kind of
/// dead code is a five-minute diagnosis instead of an archaeology dig.
///
/// Three detail levels (TraceDetail):
///
///   Off       nothing is recorded. Every Tracer method early-returns on a
///             single enum compare: no clock reads, no atomic traffic, and
///             exactly zero heap allocations anywhere in the hot path.
///   Counters  (default) cut-predicate accounting + checkpoint latency
///             histogram. Cost per record is one or two relaxed atomic
///             bumps; checkpoint gaps add one steady_clock read per
///             checkpoint (every 32 simplex iterations).
///   Timeline  Counters plus per-strategy event timelines with monotonic
///             timestamps and (hashed) thread ids. The only level that
///             allocates while recording: one fixed-size event buffer per
///             strategy slot, sized at construction.
///
/// summary() allocates only for what it returns: the 16-bucket histogram
/// above Off, and the timeline at Timeline.
///
/// Thread-safety contract: predicate() and checkpoint_gap() may be called
/// from any number of threads concurrently. event() is single-writer *per
/// slot* — each strategy slot is owned by the one pool task running that
/// strategy, which matches how the engine hands out launch indices.
/// summary() may race with writers (it is acquire-correct), though the
/// runtime only calls it after the race has joined.
///
/// The recorded vocabulary is the public one (pmcast/response.hpp):
/// TraceDetail, TraceEventKind, and the SolveTrace that summary() returns.

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "pmcast/response.hpp"

namespace pmcast::runtime {

/// The cut predicates the runtime evaluates while racing a portfolio.
enum class CutPredicate : std::uint8_t {
  /// Start-of-strategy sub-scatter dominance: the incumbent already beats
  /// the published scatter upper bound by more than the dominance margin.
  SubScatter = 0,
  /// Start-of-strategy early win: a strategy launched earlier certified a
  /// period that meets the proven lower bound, so later launches are moot.
  EarlyWin = 1,
  /// Between-probe polls inside the LP heuristics: the LB-convergence cut
  /// that skips provably futile probes.
  ProbePoll = 2,
  /// MulticastUb mid-strategy check: skip schedule reconstruction when the
  /// bound it just computed is already dominated.
  ReconstructSkip = 3,
};

inline constexpr int kCutPredicateCount = 4;

/// Checkpoint latency histogram: bucket 0 counts gaps below 1us, bucket i
/// (i >= 1) counts gaps in [2^(i-1), 2^i) us, and the last bucket absorbs
/// everything above 2^(kCheckpointBuckets-2) us (~16ms).
inline constexpr int kCheckpointBuckets = 16;

/// Fold \p trace's counters into \p total (histogram adds, closest_miss
/// takes the min, max gap takes the max, detail becomes the max). A
/// detail-Off \p trace adds nothing, so \p total keeps an empty histogram
/// until the first enabled trace sizes it. Timelines are not merged:
/// timestamps from different races share no origin.
void merge(SolveTrace& total, const SolveTrace& trace);

/// The recorder. One Tracer lives for the duration of one portfolio race
/// (or, in the engine, one coalesced group). All recording methods are
/// no-ops at TraceDetail::Off.
class Tracer {
 public:
  /// Per-slot event capacity: Launch + FirstLpCheckpoint + terminal, with
  /// one spare. Overflow silently drops (never blocks, never allocates).
  static constexpr int kMaxEventsPerSlot = 4;

  Tracer() = default;  ///< disabled tracer (TraceDetail::Off)
  Tracer(TraceDetail detail, std::size_t slots);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  TraceDetail detail() const { return detail_; }
  bool enabled() const { return detail_ != TraceDetail::Off; }

  /// Record one evaluation of \p predicate. On a miss, \p miss_margin says
  /// how far the predicate was from firing (same units as the quantity it
  /// compares); non-finite or negative margins are accepted and ignored,
  /// so call sites can pass "infinity" when no bound existed yet.
  void predicate(CutPredicate predicate, bool hit, double miss_margin);

  /// Record the gap between two consecutive LP budget checkpoints.
  void checkpoint_gap(double gap_us);

  /// Append a timeline event for \p slot (single writer per slot).
  void event(TraceEventKind kind, int slot, StrategyId strategy,
             double value);

  /// Microseconds since this tracer was constructed (0 when disabled).
  double now_us() const;

  /// A plain-value snapshot of everything recorded; the CutPredicate
  /// cells map onto SolveTrace's four named predicate fields.
  SolveTrace summary() const;

 private:
  struct PredicateCell {
    std::atomic<std::uint64_t> evaluated{0};
    std::atomic<std::uint64_t> hits{0};
    /// Bit pattern of the closest finite miss. Nonnegative doubles order
    /// the same as their bit patterns, so min() is an integer CAS loop.
    std::atomic<std::uint64_t> closest_miss_bits{
        std::bit_cast<std::uint64_t>(
            std::numeric_limits<double>::infinity())};
  };

  struct SlotEvents {
    std::array<TraceTimelineEvent, kMaxEventsPerSlot> events{};
    std::atomic<std::uint32_t> count{0};
  };

  TraceDetail detail_ = TraceDetail::Off;
  std::chrono::steady_clock::time_point origin_{};
  std::array<PredicateCell, kCutPredicateCount> predicates_{};
  std::array<std::atomic<std::uint64_t>, kCheckpointBuckets> hist_{};
  std::atomic<std::uint64_t> polls_{0};
  std::atomic<std::uint64_t> total_gap_ns_{0};
  std::atomic<std::uint64_t> max_gap_bits_{0};
  /// Timeline detail only; empty (no heap) otherwise.
  std::vector<SlotEvents> slots_;
};

}  // namespace pmcast::runtime
