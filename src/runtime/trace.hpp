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
///             allocates: one fixed-size event buffer per strategy slot,
///             sized at construction.
///
/// Thread-safety contract: predicate() and checkpoint_gap() may be called
/// from any number of threads concurrently. event() is single-writer *per
/// slot* — each strategy slot is owned by the one pool task running that
/// strategy, which matches how the engine hands out launch indices.
/// summary() may race with writers (it is acquire-correct), though the
/// runtime only calls it after the race has joined.
///
/// This header deliberately does not include portfolio.hpp: strategies are
/// carried as raw uint8 so the tracer can be used from any layer without
/// an include cycle.

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace pmcast::runtime {

enum class TraceDetail : std::uint8_t {
  Off = 0,       ///< record nothing; zero heap, zero atomics, zero clocks
  Counters = 1,  ///< predicate accounting + checkpoint latency histogram
  Timeline = 2,  ///< Counters plus per-strategy event timelines
};

const char* trace_detail_name(TraceDetail detail);

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

const char* cut_predicate_name(CutPredicate predicate);

enum class TraceEventKind : std::uint8_t {
  Launch = 0,            ///< strategy task started executing
  FirstLpCheckpoint = 1, ///< first in-LP budget checkpoint (LP warm-up over)
  Certified = 2,         ///< strategy certified a period (event value)
  Pruned = 3,            ///< strategy cut before/while running
  Skipped = 4,           ///< strategy never ran usefully (budget, filter)
  Failed = 5,            ///< strategy finished without a certificate
};

const char* trace_event_name(TraceEventKind kind);

/// One timeline entry. Timestamps are microseconds since the tracer was
/// constructed (steady clock, monotonic within one race).
struct TraceEvent {
  double t_us = 0.0;
  /// Kind-specific payload: certified period for Certified, the bound
  /// period for Pruned/Skipped/Failed when one exists, else 0.
  double value = 0.0;
  std::uint32_t thread = 0;  ///< hashed std::this_thread id
  TraceEventKind kind = TraceEventKind::Launch;
  std::uint8_t strategy = 0;  ///< StrategyId as raw uint8
  std::int16_t slot = 0;      ///< launch index within the race
};

/// Accounting for one cut predicate.
struct PredicateTrace {
  std::uint64_t evaluated = 0;
  std::uint64_t hits = 0;
  /// Smallest finite nonnegative margin by which the predicate missed —
  /// "how close it came to firing". Infinity when every evaluation hit or
  /// no finite margin was recorded.
  double closest_miss = std::numeric_limits<double>::infinity();

  std::uint64_t misses() const { return evaluated - hits; }
};

/// Checkpoint latency histogram: bucket 0 counts gaps below 1us, bucket i
/// (i >= 1) counts gaps in [2^(i-1), 2^i) us, and the last bucket absorbs
/// everything above 2^(kCheckpointBuckets-2) us (~16ms).
inline constexpr int kCheckpointBuckets = 16;

/// A plain-value snapshot of everything a Tracer recorded. Cheap to copy,
/// safe to cache alongside a PortfolioResult.
struct TraceSummary {
  TraceDetail detail = TraceDetail::Off;
  std::array<PredicateTrace, kCutPredicateCount> predicates{};
  std::array<std::uint64_t, kCheckpointBuckets> checkpoint_hist{};
  std::uint64_t checkpoint_polls = 0;
  double checkpoint_total_us = 0.0;
  double checkpoint_max_us = 0.0;
  /// Timeline detail only; sorted by timestamp. Engine-level merges drop
  /// timelines (timestamps from different races share no origin).
  std::vector<TraceEvent> timeline;

  const PredicateTrace& predicate(CutPredicate p) const {
    return predicates[static_cast<std::size_t>(p)];
  }
  double checkpoint_mean_us() const {
    return checkpoint_polls == 0
               ? 0.0
               : checkpoint_total_us / static_cast<double>(checkpoint_polls);
  }

  /// Fold another summary's counters into this one (histogram adds,
  /// closest_miss takes the min, max gap takes the max). Timelines are
  /// intentionally not merged; detail becomes the max of the two.
  void merge(const TraceSummary& other);
};

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
  bool timeline_enabled() const { return detail_ == TraceDetail::Timeline; }

  /// Record one evaluation of \p predicate. On a miss, \p miss_margin says
  /// how far the predicate was from firing (same units as the quantity it
  /// compares); non-finite or negative margins are accepted and ignored,
  /// so call sites can pass "infinity" when no bound existed yet.
  void predicate(CutPredicate predicate, bool hit, double miss_margin);

  /// Record the gap between two consecutive LP budget checkpoints.
  void checkpoint_gap(double gap_us);

  /// Append a timeline event for \p slot (single writer per slot).
  void event(TraceEventKind kind, int slot, std::uint8_t strategy,
             double value);

  /// Microseconds since this tracer was constructed (0 when disabled).
  double now_us() const;

  TraceSummary summary() const;

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
    std::array<TraceEvent, kMaxEventsPerSlot> events{};
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
