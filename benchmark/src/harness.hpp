#pragma once
/// \file harness.hpp
/// Shared plumbing of the repo benchmark: clocks and order statistics, the
/// in-memory span recorder of the traced run, and the metric report every
/// workload fills in.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace pmbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
inline double ms_since(Clock::time_point from) {
  return ms_between(from, Clock::now());
}
/// A duration in ms (from a response's timing fields) as a clock duration.
inline Clock::duration ms_duration(double ms) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}
double mean(const std::vector<double>& values);

/// Peak resident set size of this process in MiB (getrusage). Varies
/// run to run with how many malloc arenas the threads happened to touch.
double peak_rss_mb();

/// Samples the bytes malloc has handed out (mallinfo2, all arenas) on a
/// background thread and keeps the peak: the memory the program holds,
/// without the arena-count noise of RSS.
class HeapMonitor {
 public:
  HeapMonitor();
  ~HeapMonitor();
  HeapMonitor(const HeapMonitor&) = delete;
  HeapMonitor& operator=(const HeapMonitor&) = delete;

  /// Peak in-use heap so far, in MiB.
  double peak_mb();

 private:
  void sample();

  mutable std::mutex mutex_;  ///< guards peak_bytes_ and stop_
  std::condition_variable cv_;
  double peak_bytes_ = 0.0;
  bool stop_ = false;
  std::thread thread_;
};

/// One timed span of the traced run: a call into one layer, or a request.
struct Span {
  std::string name;
  double start_us = 0.0;  ///< microseconds since the tracer's epoch
  double end_us = 0.0;
  int parent = -1;        ///< index of the enclosing span, -1 for a root
  std::uint64_t request = 0;
};

/// Self time of one span name: its spans' durations minus the part of each
/// interval its child spans cover.
struct SelfTime {
  std::string name;
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// Keeps spans in memory (thread-safe) and writes them out at the end of
/// the run. A null Tracer* everywhere means "tracing off": the untraced
/// runs never touch a clock on its behalf.
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  int add(std::string name, Clock::time_point start, Clock::time_point end,
          int parent = -1, std::uint64_t request = 0);
  /// Open a span whose end is set later by close() (a parent of spans
  /// recorded in between).
  int open(std::string name, Clock::time_point start, int parent = -1,
           std::uint64_t request = 0) {
    return add(std::move(name), start, start, parent, request);
  }
  void close(int span, Clock::time_point end);
  std::vector<SelfTime> self_times() const;
  /// Write every span as a JSON array. Returns false on an I/O error.
  bool write_json(const std::string& path) const;
  std::size_t size() const;

 private:
  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

  Clock::time_point epoch_;
  mutable std::mutex mutex_;  ///< guards spans_
  std::vector<Span> spans_;
};

/// Times one call into a layer and records it as a span when tracing is on.
/// Returns the call's wall time in ms either way.
template <typename Fn>
double timed(Tracer* tracer, const char* name, int parent,
             std::uint64_t request, Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  const Clock::time_point t1 = Clock::now();
  if (tracer != nullptr) tracer->add(name, t0, t1, parent, request);
  return ms_between(t0, t1);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run reports.
struct Report {
  /// Contract metrics: end-to-end with tracing off, per-layer when traced.
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Extra named figures printed for humans (never in the JSON line).
  std::vector<Metric> info;
  long long attempted = 0;
  long long failed = 0;
  /// Wrong answers, tripped tripwires, invalid runs: any entry makes the
  /// run incorrect and the process exit nonzero.
  std::vector<std::string> errors;

  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit) {
    info.push_back({std::move(name), value, std::move(unit)});
  }
  void error(std::string message) { errors.push_back(std::move(message)); }
};

/// Each workload times its set-up this many times and reports the median:
/// one identical ~0.2 s solve varied by +-15% from run to run on a 4-vCPU
/// VM.
constexpr int kSetupRepeats = 7;

/// Command-line context shared by every workload.
struct Context {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  int threads = 1;  ///< std::thread::hardware_concurrency(), at least 1
};

/// True when \p a and \p b agree within \p rel relative tolerance.
bool close_rel(double a, double b, double rel);

/// Stable 64-bit mix used to derive per-instance seeds from the workload
/// seed (splitmix64 finaliser).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream,
                       std::uint64_t index);

}  // namespace pmbench
