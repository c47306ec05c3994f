// Metrics registry: counters, gauges and log-bucketed timing histograms
// over the SIMULATED clock.
//
// The registry is the numeric counterpart of the span tracing in comm/: where
// a trace answers "what happened when on rank r", the registry answers "how
// much, how often, how long" across a whole run — per-layer forward/backward
// time distributions, GEMM FLOP totals, trainer loss — without storing one
// record per event. A World owns one Registry; recording is gated by
// World::enable_metrics() so the disabled path costs a single branch.
//
// All durations are simulated seconds (SimClock), never host wall-clock:
// histograms over the virtual timeline are reproducible run to run.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/sim_clock.hpp"

namespace tsr::obs {

/// Histogram with power-of-two buckets starting at 1 ns: bucket i counts
/// samples in [2^i ns, 2^(i+1) ns); bucket 0 also absorbs anything smaller.
/// 64 buckets span far past any simulated makespan.
struct HistogramData {
  static constexpr int kBuckets = 64;

  std::int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::array<std::int64_t, kBuckets> buckets{};

  void observe(double value);
  /// Accumulates `other` into this histogram: counts, buckets and extrema
  /// merge exactly; `sum` adds in call order, so merging shards in a fixed
  /// order yields a bit-deterministic total.
  void merge_from(const HistogramData& other);
  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
  /// Quantile estimate from the log-bucketed counts: locates the bucket of
  /// the ceil(q*count)-th sample and interpolates linearly inside it, then
  /// clamps to the exact [min, max] so degenerate histograms (empty, single
  /// sample, all-one-bucket) return exact values instead of bucket midpoints.
  /// The relative error is bounded by the bucket width (a factor of 2).
  /// q outside [0, 1] is clamped; an empty histogram returns 0.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }
  /// Lower bound of bucket i in seconds.
  static double bucket_floor(int i);
  /// Bucket index a value of `seconds` falls into.
  static int bucket_of(double seconds);
};

/// Immutable copy of a registry's state, safe to read outside the lock.
struct Snapshot {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramData> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  /// Multi-line human-readable dump.
  std::string to_string() const;
};

/// Thread-safe named-metric store. Ranks of a virtual cluster record
/// concurrently; names are shared, so a histogram aggregates all ranks'
/// samples of the same operation.
///
/// Recordings are sharded per SPMD rank (rt::current_spmd_rank; recordings
/// from outside any rank land in a dedicated extra shard) and snapshot()
/// reduces the shards in fixed rank order. Within one rank the sample
/// sequence is program order — deterministic — so the reduced histogram
/// `sum` is bit-identical across scheduler backends and worker counts even
/// though double addition is not associative. This is what lets the
/// run-report diff gate compare rollups exactly instead of over a
/// noise floor.
class Registry {
 public:
  Registry() : Registry(1) {}
  /// `ranks` rank shards plus one shard for recordings outside any rank.
  explicit Registry(int ranks);

  void counter_add(const std::string& name, std::int64_t delta = 1);
  void gauge_set(const std::string& name, double value);
  /// Gauge that keeps the maximum of all recorded values.
  void gauge_max(const std::string& name, double value);
  void histogram_observe(const std::string& name, double value);

  Snapshot snapshot() const;
  void reset();

 private:
  struct GaugeCell {
    double value = 0.0;
    bool max_combined = false;  ///< recorded via gauge_max: merge by max
  };
  struct Shard {
    std::map<std::string, std::int64_t> counters;
    std::map<std::string, GaugeCell> gauges;
    std::map<std::string, HistogramData> histograms;
  };

  Shard& shard_of_caller();

  mutable std::mutex mu_;
  std::vector<Shard> shards_;  ///< [0, ranks) per rank, back() = external
};

/// RAII timer recording one histogram sample of simulated elapsed time.
/// Null registry or clock makes it a no-op, so call sites need no branching;
/// timers nest freely (each records its own inclusive duration). `name` must
/// outlive the timer (call sites pass literals); the metric's std::string is
/// built only when a registry records it, so a disabled timer never
/// allocates.
class ScopedTimer {
 public:
  ScopedTimer(Registry* registry, const rt::SimClock* clock, const char* name)
      : registry_(registry),
        clock_(clock),
        name_(name),
        t0_(clock != nullptr ? clock->now() : 0.0) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ScopedTimer(ScopedTimer&& other) noexcept
      : registry_(other.registry_),
        clock_(other.clock_),
        name_(other.name_),
        t0_(other.t0_) {
    other.registry_ = nullptr;
  }

  ~ScopedTimer() {
    if (registry_ != nullptr && clock_ != nullptr) {
      registry_->histogram_observe(name_, clock_->now() - t0_);
    }
  }

 private:
  Registry* registry_;
  const rt::SimClock* clock_;
  const char* name_;
  double t0_;
};

}  // namespace tsr::obs
