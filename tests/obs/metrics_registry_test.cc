// Metrics registry: log-linear histogram bucket math and quantiles (pinned
// against sim/stats.h's scalar Quantile). Counter and gauge reads are
// covered through the time-series sampler (timeseries_test.cc).
#include "obs/metrics_registry.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/stats.h"

namespace dcrd {
namespace {

TEST(LogLinearHistogramTest, BucketIndexIsExactBelow32) {
  for (std::uint64_t v = 0; v < 32; ++v) {
    const int index = LogLinearHistogram::BucketIndex(v);
    EXPECT_EQ(index, static_cast<int>(v));
    EXPECT_EQ(LogLinearHistogram::BucketLo(index), v);
    EXPECT_EQ(LogLinearHistogram::BucketHi(index), v);
  }
}

TEST(LogLinearHistogramTest, BucketBoundsContainTheValue) {
  const std::uint64_t samples[] = {32,     33,    63,     64,        100,
                                  1023,   1024,  999999, 1u << 20,  (1u << 20) + 1,
                                  std::uint64_t{1} << 40};
  for (const std::uint64_t v : samples) {
    const int index = LogLinearHistogram::BucketIndex(v);
    EXPECT_GE(v, LogLinearHistogram::BucketLo(index)) << v;
    EXPECT_LE(v, LogLinearHistogram::BucketHi(index)) << v;
  }
}

TEST(LogLinearHistogramTest, RelativeBucketWidthIsAtMostOneThirtySecond) {
  for (const std::uint64_t v :
       {std::uint64_t{32}, std::uint64_t{1000}, std::uint64_t{123456789},
        std::uint64_t{1} << 50}) {
    const int index = LogLinearHistogram::BucketIndex(v);
    const std::uint64_t lo = LogLinearHistogram::BucketLo(index);
    const std::uint64_t hi = LogLinearHistogram::BucketHi(index);
    EXPECT_LE(hi - lo + 1, lo / 32 + 1) << v;
  }
}

TEST(LogLinearHistogramTest, TracksCountSumMinMax) {
  LogLinearHistogram h;
  h.Record(5);
  h.Record(10);
  h.Record(3);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 18u);
  EXPECT_EQ(h.min(), 3u);
  EXPECT_EQ(h.max(), 10u);
  h.Clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
}

TEST(LogLinearHistogramTest, NegativeValuesClampToZero) {
  LogLinearHistogram h;
  h.Record(-7);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.CountAt(0), 1u);
}

TEST(LogLinearHistogramTest, QuantilesExactForSmallValues) {
  // Values < 32 land in exact unit buckets, so quantiles must be exact.
  LogLinearHistogram h;
  for (int v = 1; v <= 20; ++v) h.Record(v);
  EXPECT_EQ(h.ValueAtQuantile(0.0), 1u);
  EXPECT_EQ(h.ValueAtQuantile(0.5), 10u);
  EXPECT_EQ(h.ValueAtQuantile(0.95), 19u);
  EXPECT_EQ(h.ValueAtQuantile(1.0), 20u);
}

TEST(LogLinearHistogramTest, QuantilesAgreeWithScalarQuantile) {
  // Same nearest-rank rule as stats.cc's Quantile; on wide buckets the
  // histogram may err by at most half a bucket width (~1.6% relative).
  LogLinearHistogram h;
  std::vector<double> scalar;
  std::uint64_t v = 3;
  for (int i = 0; i < 1000; ++i) {
    v = v * 1664525 + 1013904223;  // deterministic LCG spread
    const std::uint64_t sample = v % 1000000;
    h.Record(static_cast<std::int64_t>(sample));
    scalar.push_back(static_cast<double>(sample));
  }
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const double exact = Quantile(scalar, q);
    const double approx = static_cast<double>(h.ValueAtQuantile(q));
    EXPECT_NEAR(approx, exact, exact / 32.0 + 1.0) << "q=" << q;
  }
}

TEST(LogLinearHistogramTest, SingleSampleReportsItselfAtEveryQuantile) {
  LogLinearHistogram h;
  h.Record(123456);
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    // Midpoint clamps into [min, max] == [123456, 123456].
    EXPECT_EQ(h.ValueAtQuantile(q), 123456u) << q;
  }
}

}  // namespace
}  // namespace dcrd
