// Metrics registry: named counters, gauges, and log-linear histograms.
//
// The registry unifies the simulator's ad-hoc counters behind one named
// namespace. It holds live values only; the time-series sampler
// (obs/timeseries.h) reads it at a fixed sim-time cadence and is the one
// export path — --timeseries at its own interval, --metrics_json at the
// monitoring-epoch interval. Three metric kinds:
//  * Counters — monotonically increasing uint64. Either owned by the
//    registry (AddCounter) or registered by const pointer onto a counter
//    that some subsystem already maintains (RegisterCounter); the latter
//    keeps existing accounting (TrafficCounters, router drop counts) as the
//    single source of truth.
//  * Gauges — sampled on demand through a callback (pending events, open
//    episodes, in-flight copies).
//  * Histograms — HDR-style log-linear distributions (LogLinearHistogram
//    below), fixed-size array storage, used for delivery delay and hop RTT.
//
// Recording into a histogram is two array writes and a handful of integer
// ops — no allocation, no floating point — so it is safe on the per-event
// hot path.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace dcrd {

// Raw-bucket view of a LogLinearHistogram: non-empty [lo, hi, count]
// buckets plus the scalar summary. A snapshot round-trips losslessly —
// AbsorbSnapshot rebuilds identical bucket contents — so distributions
// can be rebuilt offline (e.g. one time-series window's bucket deltas)
// without re-running anything.
struct HistogramSnapshot {
  struct Bucket {
    std::uint64_t lo = 0;   // BucketLo of the source bucket (its identity)
    std::uint64_t hi = 0;   // BucketHi, carried for readers/validation
    std::uint64_t count = 0;
  };
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max = 0;
  std::vector<Bucket> buckets;  // non-empty buckets, ascending lo
};

// Log-linear ("HDR-style") histogram over non-negative integer values.
//
// Values below 32 get exact unit-width buckets; above that, each power-of-
// two octave is split into 32 linear sub-buckets, so the relative width of
// any bucket is at most 1/32 (~3.1%). 60 octave groups cover the full
// uint64 range in 1920 fixed buckets of std::array storage — no allocation
// ever, Clear() is a memset.
class LogLinearHistogram {
 public:
  static constexpr int kSubBucketBits = 5;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;       // 32
  static constexpr int kGroups = 60;
  static constexpr int kBucketCount = kGroups * kSubBuckets;    // 1920

  // Maps a value to its bucket. Exact for v < 32; log-linear above.
  static int BucketIndex(std::uint64_t v);
  // Smallest value landing in bucket `index`.
  static std::uint64_t BucketLo(int index);
  // Largest value landing in bucket `index` (inclusive).
  static std::uint64_t BucketHi(int index);

  // Records one observation. Negative values clamp to zero (delay math can
  // produce -0-adjacent values from integer rounding; they mean "now").
  void Record(std::int64_t value) {
    const std::uint64_t v =
        value < 0 ? 0u : static_cast<std::uint64_t>(value);
    ++buckets_[static_cast<std::size_t>(BucketIndex(v))];
    ++count_;
    sum_ += v;
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  // Undefined (0 / max) when count() == 0; callers check count() first.
  [[nodiscard]] std::uint64_t min() const { return min_; }
  [[nodiscard]] std::uint64_t max() const { return max_; }
  [[nodiscard]] std::uint64_t CountAt(int index) const {
    return buckets_[static_cast<std::size_t>(index)];
  }

  // Nearest-rank quantile (same rank rule as stats.cc's Quantile, pinned
  // against it by the regression tests). Returns the matched bucket's
  // midpoint clamped into [min(), max()], so exact-width buckets report
  // exact values and wide buckets err by at most half a bucket (~1.6%).
  [[nodiscard]] std::uint64_t ValueAtQuantile(double q) const;

  // Adds `other`'s contents into this histogram. Exact: bucket counts, sum
  // and count add; min/max combine — merging per-rep histograms yields the
  // same quantiles as recording every sample into one histogram.
  void MergeFrom(const LogLinearHistogram& other);

  // Raw-bucket export/import (see HistogramSnapshot). AbsorbSnapshot maps
  // each bucket back by its lo value and adds its count; snapshots produced
  // by Snapshot() merge exactly.
  [[nodiscard]] HistogramSnapshot Snapshot() const;
  void AbsorbSnapshot(const HistogramSnapshot& snapshot);

  void Clear();

 private:
  std::array<std::uint64_t, kBucketCount> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

// How one metric combines across engine shards when per-shard time series
// are folded into a single document (MergeTimeSeriesStores, DESIGN.md §14):
//  * kSum — disjoint owner-only quantities (deliveries, traffic counters,
//    in-flight copies). Non-owner shards contribute exactly 0, so the sum
//    over shards is byte-identical to the 1-shard value.
//  * kReplicated — quantities every shard computes identically from pure
//    functions of config/seed/epoch (published pairs, link up/gray state).
//    Shard 0 speaks for all; summing would count them N times.
// Histograms are always kSum (deliveries and RTT samples land on the owner
// shard only).
enum class MergePolicy { kSum, kReplicated };

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Creates a registry-owned counter cell. The returned pointer is stable
  // for the registry's lifetime; increment it directly.
  std::uint64_t* AddCounter(std::string name,
                            MergePolicy policy = MergePolicy::kSum);

  // Registers an externally owned counter by const pointer. The source must
  // outlive the registry; it stays the single source of truth and is read
  // at sample time.
  void RegisterCounter(std::string name, const std::uint64_t* source,
                       MergePolicy policy = MergePolicy::kSum);

  // Registers a gauge read via `sample` at sample time.
  void RegisterGauge(std::string name, std::function<std::uint64_t()> sample,
                     MergePolicy policy = MergePolicy::kSum);

  // Creates a registry-owned histogram. Stable pointer, record directly.
  LogLinearHistogram* AddHistogram(std::string name);

  // Read access for the time-series sampler (obs/timeseries.h): metric
  // counts, names, policies, and live values, in registration order.
  [[nodiscard]] std::size_t counter_count() const { return counters_.size(); }
  [[nodiscard]] const std::string& counter_name(std::size_t i) const {
    return counters_[i].name;
  }
  [[nodiscard]] MergePolicy counter_policy(std::size_t i) const {
    return counters_[i].policy;
  }
  [[nodiscard]] std::uint64_t counter_value(std::size_t i) const {
    return counters_[i].value();
  }
  [[nodiscard]] std::size_t gauge_count() const { return gauges_.size(); }
  [[nodiscard]] const std::string& gauge_name(std::size_t i) const {
    return gauges_[i].name;
  }
  [[nodiscard]] MergePolicy gauge_policy(std::size_t i) const {
    return gauges_[i].policy;
  }
  [[nodiscard]] std::uint64_t gauge_value(std::size_t i) const {
    return gauges_[i].sample();
  }
  [[nodiscard]] std::size_t histogram_count() const {
    return histograms_.size();
  }
  [[nodiscard]] const std::string& histogram_name(std::size_t i) const {
    return histograms_[i].name;
  }
  [[nodiscard]] const LogLinearHistogram& histogram(std::size_t i) const {
    return histograms_[i].histogram;
  }

 private:
  struct Counter {
    std::string name;
    std::uint64_t owned = 0;              // cell for AddCounter counters
    const std::uint64_t* source = nullptr;  // external for RegisterCounter
    MergePolicy policy = MergePolicy::kSum;
    [[nodiscard]] std::uint64_t value() const {
      return source != nullptr ? *source : owned;
    }
  };
  struct Gauge {
    std::string name;
    std::function<std::uint64_t()> sample;
    MergePolicy policy = MergePolicy::kSum;
  };
  struct Histogram {
    std::string name;
    LogLinearHistogram histogram;
  };

  // deques: stable element addresses across Add*/Register* calls.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
};

}  // namespace dcrd
