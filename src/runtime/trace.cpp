#include "runtime/trace.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <thread>

namespace pmcast::runtime {

namespace {

std::uint32_t hashed_thread_id() {
  const std::size_t h =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

/// Map a checkpoint gap in microseconds onto its histogram bucket.
int gap_bucket(double gap_us) {
  if (!(gap_us >= 1.0)) return 0;  // also catches NaN / negatives
  const int exponent = std::ilogb(gap_us);  // floor(log2), gap_us >= 1
  return std::min(exponent + 1, kCheckpointBuckets - 1);
}

}  // namespace

void merge(SolveTrace& total, const SolveTrace& trace) {
  if (trace.detail == TraceDetail::Off) return;
  total.detail = std::max(total.detail, trace.detail);
  auto add = [](CutPredicateTrace& into, const CutPredicateTrace& from) {
    into.evaluated += from.evaluated;
    into.hits += from.hits;
    into.closest_miss = std::min(into.closest_miss, from.closest_miss);
  };
  add(total.sub_scatter, trace.sub_scatter);
  add(total.early_win, trace.early_win);
  add(total.probe_poll, trace.probe_poll);
  add(total.reconstruct_skip, trace.reconstruct_skip);
  total.checkpoint_hist.resize(kCheckpointBuckets);
  for (std::size_t b = 0; b < trace.checkpoint_hist.size(); ++b) {
    total.checkpoint_hist[b] += trace.checkpoint_hist[b];
  }
  total.checkpoint_polls += trace.checkpoint_polls;
  total.checkpoint_total_us += trace.checkpoint_total_us;
  total.checkpoint_max_us =
      std::max(total.checkpoint_max_us, trace.checkpoint_max_us);
}

Tracer::Tracer(TraceDetail detail, std::size_t slots) : detail_(detail) {
  if (detail_ == TraceDetail::Off) return;
  origin_ = std::chrono::steady_clock::now();
  if (detail_ == TraceDetail::Timeline) {
    slots_ = std::vector<SlotEvents>(slots);
  }
}

double Tracer::now_us() const {
  if (detail_ == TraceDetail::Off) return 0.0;
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

void Tracer::predicate(CutPredicate predicate, bool hit, double miss_margin) {
  if (detail_ == TraceDetail::Off) return;
  PredicateCell& cell = predicates_[static_cast<std::size_t>(predicate)];
  cell.evaluated.fetch_add(1, std::memory_order_relaxed);
  if (hit) {
    cell.hits.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (!std::isfinite(miss_margin) || miss_margin < 0.0) return;
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(miss_margin);
  std::uint64_t current = cell.closest_miss_bits.load(std::memory_order_relaxed);
  while (bits < current &&
         !cell.closest_miss_bits.compare_exchange_weak(
             current, bits, std::memory_order_relaxed)) {
  }
}

void Tracer::checkpoint_gap(double gap_us) {
  if (detail_ == TraceDetail::Off) return;
  if (!std::isfinite(gap_us) || gap_us < 0.0) return;
  polls_.fetch_add(1, std::memory_order_relaxed);
  total_gap_ns_.fetch_add(static_cast<std::uint64_t>(gap_us * 1e3),
                          std::memory_order_relaxed);
  hist_[gap_bucket(gap_us)].fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(gap_us);
  std::uint64_t current = max_gap_bits_.load(std::memory_order_relaxed);
  while (bits > current &&
         !max_gap_bits_.compare_exchange_weak(current, bits,
                                              std::memory_order_relaxed)) {
  }
}

void Tracer::event(TraceEventKind kind, int slot, StrategyId strategy,
                   double value) {
  if (detail_ != TraceDetail::Timeline) return;
  if (slot < 0 || static_cast<std::size_t>(slot) >= slots_.size()) return;
  SlotEvents& cell = slots_[static_cast<std::size_t>(slot)];
  const std::uint32_t count = cell.count.load(std::memory_order_relaxed);
  if (count >= kMaxEventsPerSlot) return;  // drop, never block
  TraceTimelineEvent& event = cell.events[count];
  event.kind = kind;
  event.strategy = strategy;
  event.slot = slot;
  event.thread = hashed_thread_id();
  event.t_us = now_us();
  event.value = value;
  // Publish after the payload is fully written (summary() acquires).
  cell.count.store(count + 1, std::memory_order_release);
}

SolveTrace Tracer::summary() const {
  SolveTrace out;
  out.detail = detail_;
  if (detail_ == TraceDetail::Off) return out;
  auto predicate = [this](CutPredicate p) {
    const PredicateCell& cell = predicates_[static_cast<std::size_t>(p)];
    CutPredicateTrace t;
    t.evaluated = cell.evaluated.load(std::memory_order_relaxed);
    t.hits = cell.hits.load(std::memory_order_relaxed);
    t.closest_miss = std::bit_cast<double>(
        cell.closest_miss_bits.load(std::memory_order_relaxed));
    return t;
  };
  out.sub_scatter = predicate(CutPredicate::SubScatter);
  out.early_win = predicate(CutPredicate::EarlyWin);
  out.probe_poll = predicate(CutPredicate::ProbePoll);
  out.reconstruct_skip = predicate(CutPredicate::ReconstructSkip);
  out.checkpoint_hist.reserve(kCheckpointBuckets);
  for (const std::atomic<std::uint64_t>& bucket : hist_) {
    out.checkpoint_hist.push_back(bucket.load(std::memory_order_relaxed));
  }
  out.checkpoint_polls = polls_.load(std::memory_order_relaxed);
  out.checkpoint_total_us =
      static_cast<double>(total_gap_ns_.load(std::memory_order_relaxed)) / 1e3;
  out.checkpoint_max_us = std::bit_cast<double>(
      max_gap_bits_.load(std::memory_order_relaxed));
  if (out.checkpoint_polls == 0) out.checkpoint_max_us = 0.0;
  if (detail_ == TraceDetail::Timeline) {
    for (const SlotEvents& cell : slots_) {
      const std::uint32_t count = cell.count.load(std::memory_order_acquire);
      for (std::uint32_t i = 0; i < count; ++i) {
        out.timeline.push_back(cell.events[i]);
      }
    }
    std::stable_sort(out.timeline.begin(), out.timeline.end(),
                     [](const TraceTimelineEvent& a,
                        const TraceTimelineEvent& b) {
                       return a.t_us < b.t_us;
                     });
  }
  return out;
}

}  // namespace pmcast::runtime
