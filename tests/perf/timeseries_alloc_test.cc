// Regression test for the time-series sampler's zero-steady-state-
// allocation property (DESIGN.md §14). Construction reserves every column
// against the sample budget; after that, each SampleNow() — counter deltas,
// gauge reads, histogram bucket diffs, broker health — must run without
// touching the heap allocator, or enabling --timeseries would perturb the
// allocator state figure runs are benchmarked under.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "event/scheduler.h"
#include "obs/metrics_registry.h"
#include "obs/timeseries.h"
#include "support/alloc_counter.h"

namespace dcrd {
namespace {

using test::AllocProbe;

TEST(TimeSeriesAllocTest, SamplingIsAllocationFreeAfterConstruction) {
  MetricsRegistry registry;
  std::uint64_t* work = registry.AddCounter("test.work");
  std::uint64_t level = 0;
  registry.RegisterGauge("test.level", [&level] { return level; });
  LogLinearHistogram* delay = registry.AddHistogram("test.delay_us");

  Scheduler scheduler;
  TimeSeriesConfig config;
  config.interval = SimDuration::Seconds(1);
  config.end = SimTime::FromMicros(300 * 1000000LL);
  config.node_count = 64;
  std::vector<BrokerHealth> health_model(64);
  // Construction takes the baseline sample and reserves the full budget.
  TimeSeriesSampler sampler(
      registry, scheduler, config,
      [&health_model](std::vector<BrokerHealth>& out) {
        out = health_model;  // same size: copies in place, no allocation
      });

  // Warm-up: the chain schedules its next event while the current action
  // is still in flight, so the action slab grows to two slots on the first
  // firing — a one-time cost, like the scheduler tests' warm-up rounds.
  scheduler.RunUntil(SimTime::FromMicros(2 * 1000000LL));

  // Steady state: mutate every metric kind between samples, spreading
  // histogram values across bucket groups so the delta pool keeps filling.
  AllocProbe probe;
  std::uint64_t lcg = 7;
  for (int s = 3; s <= 200; ++s) {
    lcg = lcg * 1664525 + 1013904223;
    *work += lcg & 1023;
    level = lcg % 17;
    for (int i = 0; i < 8; ++i) {
      lcg = lcg * 1664525 + 1013904223;
      delay->Record(static_cast<std::int64_t>(lcg % 10000000));
    }
    health_model[lcg % 64].pending_copies = s;
    scheduler.RunUntil(SimTime::FromMicros(s * 1000000LL));
  }
  const auto delta = probe.delta();
  EXPECT_EQ(delta.allocations, 0u)
      << "198 sampling rounds allocated " << delta.bytes << " bytes";
  EXPECT_EQ(sampler.store().samples(), 201u);
}

TEST(TimeSeriesAllocTest, EpochCadenceWindowTouchingMostBucketsStaysFree) {
  // --metrics_json samples at the monitoring epoch (300 s by default). One
  // such window can touch a large share of the 1920 histogram buckets; the
  // delta pool must be reserved for that up front, not grown mid-run.
  MetricsRegistry registry;
  LogLinearHistogram* delay = registry.AddHistogram("test.delay_us");

  Scheduler scheduler;
  TimeSeriesConfig config;
  config.interval = SimDuration::Seconds(300);
  config.end = SimTime::FromMicros(1800 * 1000000LL);
  TimeSeriesSampler sampler(registry, scheduler, config);
  // Warm-up through the first epoch sample (see above).
  scheduler.RunUntil(SimTime::FromMicros(300 * 1000000LL));

  AllocProbe probe;
  // One observation at each of the lowest kTouched buckets' lo value.
  constexpr int kTouched = 1200;
  for (int b = 0; b < kTouched; ++b) {
    delay->Record(static_cast<std::int64_t>(LogLinearHistogram::BucketLo(b)));
  }
  scheduler.RunUntil(SimTime::FromMicros(600 * 1000000LL));
  const auto delta = probe.delta();
  EXPECT_EQ(delta.allocations, 0u)
      << "an epoch window touching " << kTouched << " buckets allocated "
      << delta.bytes << " bytes";

  const TimeSeriesStore::HistogramDeltas& deltas =
      sampler.store().histogram_deltas[0];
  ASSERT_EQ(sampler.store().samples(), 3u);
  EXPECT_GE(deltas.end_offset[2] - deltas.end_offset[1], 1000u);
}

}  // namespace
}  // namespace dcrd
