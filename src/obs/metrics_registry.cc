#include "obs/metrics_registry.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.h"

namespace dcrd {

int LogLinearHistogram::BucketIndex(std::uint64_t v) {
  if (v < kSubBuckets) return static_cast<int>(v);
  const int msb = 63 - std::countl_zero(v);
  return (msb - (kSubBucketBits - 1)) * kSubBuckets +
         static_cast<int>((v >> (msb - kSubBucketBits)) & (kSubBuckets - 1));
}

std::uint64_t LogLinearHistogram::BucketLo(int index) {
  DCRD_CHECK(index >= 0 && index < kBucketCount);
  const int group = index / kSubBuckets;
  const int sub = index % kSubBuckets;
  if (group == 0) return static_cast<std::uint64_t>(sub);
  return static_cast<std::uint64_t>(kSubBuckets + sub) << (group - 1);
}

std::uint64_t LogLinearHistogram::BucketHi(int index) {
  DCRD_CHECK(index >= 0 && index < kBucketCount);
  if (index + 1 == kBucketCount) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return BucketLo(index + 1) - 1;
}

std::uint64_t LogLinearHistogram::ValueAtQuantile(double q) const {
  if (count_ == 0) return 0;
  // Nearest-rank with the same epsilon guard as stats.cc's Quantile, so the
  // histogram and the scalar path agree on which sample a quantile names.
  const double h = q * static_cast<double>(count_);
  std::uint64_t rank =
      h <= 1.0 ? 0 : static_cast<std::uint64_t>(std::ceil(h - 1e-9)) - 1;
  if (rank >= count_) rank = count_ - 1;

  std::uint64_t cumulative = 0;
  for (int i = 0; i < kBucketCount; ++i) {
    cumulative += buckets_[static_cast<std::size_t>(i)];
    if (cumulative > rank) {
      const std::uint64_t lo = BucketLo(i);
      const std::uint64_t hi = BucketHi(i);
      std::uint64_t value = lo + (hi - lo) / 2;
      value = std::clamp(value, min_, max_);
      return value;
    }
  }
  return max_;
}

void LogLinearHistogram::MergeFrom(const LogLinearHistogram& other) {
  for (int i = 0; i < kBucketCount; ++i) {
    buckets_[static_cast<std::size_t>(i)] +=
        other.buckets_[static_cast<std::size_t>(i)];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.count_ > 0) {
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }
}

HistogramSnapshot LogLinearHistogram::Snapshot() const {
  HistogramSnapshot snapshot;
  snapshot.count = count_;
  snapshot.sum = sum_;
  snapshot.min = min_;
  snapshot.max = max_;
  for (int i = 0; i < kBucketCount; ++i) {
    const std::uint64_t n = buckets_[static_cast<std::size_t>(i)];
    if (n == 0) continue;
    snapshot.buckets.push_back({BucketLo(i), BucketHi(i), n});
  }
  return snapshot;
}

void LogLinearHistogram::AbsorbSnapshot(const HistogramSnapshot& snapshot) {
  for (const HistogramSnapshot::Bucket& bucket : snapshot.buckets) {
    // A bucket's lo value lands in that same bucket, so BucketIndex(lo)
    // recovers the index exactly.
    buckets_[static_cast<std::size_t>(BucketIndex(bucket.lo))] +=
        bucket.count;
  }
  count_ += snapshot.count;
  sum_ += snapshot.sum;
  if (snapshot.count > 0) {
    if (snapshot.min < min_) min_ = snapshot.min;
    if (snapshot.max > max_) max_ = snapshot.max;
  }
}

void LogLinearHistogram::Clear() {
  buckets_.fill(0);
  count_ = 0;
  sum_ = 0;
  min_ = std::numeric_limits<std::uint64_t>::max();
  max_ = 0;
}

std::uint64_t* MetricsRegistry::AddCounter(std::string name,
                                           MergePolicy policy) {
  Counter& counter = counters_.emplace_back();
  counter.name = std::move(name);
  counter.policy = policy;
  return &counter.owned;
}

void MetricsRegistry::RegisterCounter(std::string name,
                                      const std::uint64_t* source,
                                      MergePolicy policy) {
  DCRD_CHECK(source != nullptr);
  Counter& counter = counters_.emplace_back();
  counter.name = std::move(name);
  counter.source = source;
  counter.policy = policy;
}

void MetricsRegistry::RegisterGauge(std::string name,
                                    std::function<std::uint64_t()> sample,
                                    MergePolicy policy) {
  DCRD_CHECK(sample != nullptr);
  Gauge& gauge = gauges_.emplace_back();
  gauge.name = std::move(name);
  gauge.sample = std::move(sample);
  gauge.policy = policy;
}

LogLinearHistogram* MetricsRegistry::AddHistogram(std::string name) {
  Histogram& histogram = histograms_.emplace_back();
  histogram.name = std::move(name);
  return &histogram.histogram;
}

}  // namespace dcrd
