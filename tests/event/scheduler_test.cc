#include "event/scheduler.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace dcrd {
namespace {

TEST(SchedulerTest, StartsAtZeroAndEmpty) {
  Scheduler scheduler;
  EXPECT_EQ(scheduler.now(), SimTime::Zero());
  EXPECT_TRUE(scheduler.empty());
  EXPECT_FALSE(scheduler.Step());
}

TEST(SchedulerTest, ExecutesInTimeOrder) {
  Scheduler scheduler;
  std::vector<int> order;
  scheduler.ScheduleAt(SimTime::FromMicros(30), [&] { order.push_back(3); });
  scheduler.ScheduleAt(SimTime::FromMicros(10), [&] { order.push_back(1); });
  scheduler.ScheduleAt(SimTime::FromMicros(20), [&] { order.push_back(2); });
  scheduler.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(scheduler.now(), SimTime::FromMicros(30));
}

TEST(SchedulerTest, TiesBreakInSchedulingOrder) {
  Scheduler scheduler;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    scheduler.ScheduleAt(SimTime::FromMicros(100),
                         [&order, i] { order.push_back(i); });
  }
  scheduler.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SchedulerTest, ClockAdvancesDuringExecution) {
  Scheduler scheduler;
  SimTime observed;
  scheduler.ScheduleAfter(SimDuration::Millis(5),
                          [&] { observed = scheduler.now(); });
  scheduler.Run();
  EXPECT_EQ(observed, SimTime::FromMicros(5000));
}

TEST(SchedulerTest, EventsMayScheduleMoreEvents) {
  Scheduler scheduler;
  int fired = 0;
  std::function<void()> chain = [&] {
    if (++fired < 10) scheduler.ScheduleAfter(SimDuration::Millis(1), chain);
  };
  scheduler.ScheduleAfter(SimDuration::Millis(1), chain);
  scheduler.Run();
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(scheduler.now(), SimTime::FromMicros(10'000));
}

TEST(SchedulerTest, CancelPreventsExecution) {
  Scheduler scheduler;
  bool ran = false;
  const EventHandle handle =
      scheduler.ScheduleAfter(SimDuration::Millis(1), [&] { ran = true; });
  EXPECT_TRUE(scheduler.Cancel(handle));
  scheduler.Run();
  EXPECT_FALSE(ran);
}

TEST(SchedulerTest, CancelTwiceReturnsFalse) {
  Scheduler scheduler;
  const EventHandle handle =
      scheduler.ScheduleAfter(SimDuration::Millis(1), [] {});
  EXPECT_TRUE(scheduler.Cancel(handle));
  EXPECT_FALSE(scheduler.Cancel(handle));
}

TEST(SchedulerTest, CancelAfterExecutionReturnsFalse) {
  Scheduler scheduler;
  const EventHandle handle =
      scheduler.ScheduleAfter(SimDuration::Millis(1), [] {});
  scheduler.Run();
  EXPECT_FALSE(scheduler.Cancel(handle));
}

TEST(SchedulerTest, DefaultHandleCancelIsNoop) {
  Scheduler scheduler;
  EventHandle handle;
  EXPECT_FALSE(handle.valid());
  EXPECT_FALSE(scheduler.Cancel(handle));
}

TEST(SchedulerTest, PendingCountExcludesTombstones) {
  Scheduler scheduler;
  const EventHandle a = scheduler.ScheduleAfter(SimDuration::Millis(1), [] {});
  scheduler.ScheduleAfter(SimDuration::Millis(2), [] {});
  EXPECT_EQ(scheduler.pending_count(), 2U);
  scheduler.Cancel(a);
  EXPECT_EQ(scheduler.pending_count(), 1U);
}

TEST(SchedulerTest, RunUntilStopsAtDeadline) {
  Scheduler scheduler;
  std::vector<int> order;
  scheduler.ScheduleAt(SimTime::FromMicros(10), [&] { order.push_back(1); });
  scheduler.ScheduleAt(SimTime::FromMicros(20), [&] { order.push_back(2); });
  scheduler.ScheduleAt(SimTime::FromMicros(30), [&] { order.push_back(3); });
  scheduler.RunUntil(SimTime::FromMicros(20));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(scheduler.now(), SimTime::FromMicros(20));
  EXPECT_EQ(scheduler.pending_count(), 1U);
}

TEST(SchedulerTest, RunUntilAdvancesClockPastLastEvent) {
  Scheduler scheduler;
  scheduler.ScheduleAt(SimTime::FromMicros(5), [] {});
  scheduler.RunUntil(SimTime::FromMicros(1000));
  EXPECT_EQ(scheduler.now(), SimTime::FromMicros(1000));
}

TEST(SchedulerTest, RunUntilIncludesDeadlineEvents) {
  Scheduler scheduler;
  bool ran = false;
  scheduler.ScheduleAt(SimTime::FromMicros(100), [&] { ran = true; });
  scheduler.RunUntil(SimTime::FromMicros(100));
  EXPECT_TRUE(ran);
}

TEST(SchedulerTest, CountsExecutedEvents) {
  Scheduler scheduler;
  for (int i = 0; i < 7; ++i) {
    scheduler.ScheduleAfter(SimDuration::Micros(i + 1), [] {});
  }
  EXPECT_EQ(scheduler.Run(), 7U);
  EXPECT_EQ(scheduler.events_executed(), 7U);
}

TEST(SchedulerTest, CancelFromWithinAnEvent) {
  Scheduler scheduler;
  bool second_ran = false;
  EventHandle second;
  scheduler.ScheduleAt(SimTime::FromMicros(1),
                       [&] { scheduler.Cancel(second); });
  second = scheduler.ScheduleAt(SimTime::FromMicros(2),
                                [&] { second_ran = true; });
  scheduler.Run();
  EXPECT_FALSE(second_ran);
}

TEST(SchedulerTest, StaleHandleToReusedSlotFailsCancel) {
  // ABA regression: once a handle's slot is freed and reacquired by a later
  // event, the stale handle's generation no longer matches. Cancelling it
  // must fail — and must not kill the slot's new occupant.
  Scheduler scheduler;
  const EventHandle stale =
      scheduler.ScheduleAfter(SimDuration::Millis(1), [] {});
  ASSERT_TRUE(scheduler.Cancel(stale));  // frees the slot

  // With one slot on the free list, the next schedule reuses it.
  bool reused_ran = false;
  const EventHandle reused =
      scheduler.ScheduleAfter(SimDuration::Millis(1),
                              [&reused_ran] { reused_ran = true; });
  EXPECT_FALSE(scheduler.Cancel(stale));
  scheduler.Run();
  EXPECT_TRUE(reused_ran);
  (void)reused;
}

TEST(SchedulerTest, StaleHandleSurvivesManyReuseGenerations) {
  // Drive one slot through many acquire/release generations; every retired
  // handle must stay dead even as the generation counter climbs.
  Scheduler scheduler;
  std::vector<EventHandle> retired;
  for (int i = 0; i < 64; ++i) {
    const EventHandle handle =
        scheduler.ScheduleAfter(SimDuration::Millis(1), [] {});
    ASSERT_TRUE(scheduler.Cancel(handle));
    retired.push_back(handle);
  }
  int executed = 0;
  scheduler.ScheduleAfter(SimDuration::Millis(1), [&executed] { ++executed; });
  for (const EventHandle handle : retired) {
    EXPECT_FALSE(scheduler.Cancel(handle));
  }
  scheduler.Run();
  EXPECT_EQ(executed, 1);
}

TEST(SchedulerTest, ZeroDelayRearmFiresSameTickAfterEarlierEvents) {
  // A zero-delay re-arm lands at the instant being dispatched; it must fire
  // in that same instant, after everything scheduled before it.
  Scheduler scheduler;
  std::vector<int> order;
  scheduler.ScheduleAt(SimTime::FromMicros(10), [&] {
    order.push_back(1);
    if (order.size() == 1) {
      scheduler.RearmCurrentAfter(SimDuration::Micros(0));
    }
  });
  scheduler.ScheduleAt(SimTime::FromMicros(10), [&] { order.push_back(2); });
  scheduler.Run();
  // The re-armed copy takes a fresh seq at re-arm time, so it follows the
  // same-tick event scheduled earlier.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1}));
  EXPECT_EQ(scheduler.now(), SimTime::FromMicros(10));
}

TEST(SchedulerTest, RearmChainAcrossLongDelaysKeepsFiring) {
  // The RTO-chain shape stretched far apart: each firing re-arms its own
  // slot three simulated hours out, while a near event interleaves.
  Scheduler scheduler;
  const SimDuration gap = SimDuration::Seconds(3 * 3600);
  std::vector<std::int64_t> fired_at;
  scheduler.ScheduleAfter(gap, [&] {
    fired_at.push_back(scheduler.now().micros());
    if (fired_at.size() < 5) scheduler.RearmCurrentAfter(gap);
  });
  bool near_ran = false;
  scheduler.ScheduleAfter(SimDuration::Micros(7), [&] { near_ran = true; });
  scheduler.Run();
  EXPECT_TRUE(near_ran);
  ASSERT_EQ(fired_at.size(), 5u);
  for (std::size_t i = 0; i < fired_at.size(); ++i) {
    EXPECT_EQ(fired_at[i], static_cast<std::int64_t>(i + 1) * gap.micros());
  }
}

TEST(SchedulerTest, CancelledFarFutureEventNeverRuns) {
  Scheduler scheduler;
  constexpr std::int64_t kFar = std::int64_t{1} << 33;  // ~2.4 simulated h
  bool far_ran = false;
  bool near_ran = false;
  const EventHandle far = scheduler.ScheduleAt(SimTime::FromMicros(kFar + 1),
                                               [&] { far_ran = true; });
  scheduler.ScheduleAt(SimTime::FromMicros(kFar + 2),
                       [&] { near_ran = true; });
  EXPECT_TRUE(scheduler.Cancel(far));
  scheduler.Run();
  EXPECT_FALSE(far_ran);
  EXPECT_TRUE(near_ran);
  EXPECT_EQ(scheduler.now(), SimTime::FromMicros(kFar + 2));
}

TEST(SchedulerTest, StaleEntryOfReusedSlotFiresOnlyTheNewOccupant) {
  // Cancelling leaves the heap entry stale in place but frees the action
  // slot; the very next schedule reuses that slot with a bumped generation
  // at the same instant. At dispatch the stale entry surfaces first and
  // must be filtered by the generation probe — not fire the slot's new
  // occupant early or twice.
  Scheduler scheduler;
  int fired = 0;
  const EventHandle stale =
      scheduler.ScheduleAt(SimTime::FromMicros(100), [&] { fired += 100; });
  ASSERT_TRUE(scheduler.Cancel(stale));
  scheduler.ScheduleAt(SimTime::FromMicros(100), [&] { fired += 1; });
  EXPECT_FALSE(scheduler.Cancel(stale));
  EXPECT_EQ(scheduler.Run(), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(SchedulerTest, RunUntilMidRunThenResume) {
  // Stopping at a deadline must neither lose nor reorder what is left, and
  // an event scheduled behind the remaining ones still runs first.
  Scheduler scheduler;
  std::vector<int> order;
  scheduler.ScheduleAt(SimTime::FromMicros(100), [&] { order.push_back(1); });
  scheduler.ScheduleAt(SimTime::FromMicros(300), [&] { order.push_back(2); });
  scheduler.ScheduleAt(SimTime::FromMicros(5000), [&] { order.push_back(3); });
  scheduler.RunUntil(SimTime::FromMicros(200));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(scheduler.now(), SimTime::FromMicros(200));
  scheduler.ScheduleAt(SimTime::FromMicros(250), [&] { order.push_back(4); });
  scheduler.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 4, 2, 3}));
}

TEST(SchedulerTest, ReservePreGrowsWithoutChangingBehavior) {
  const auto run = [](bool reserve) {
    Scheduler scheduler;
    if (reserve) scheduler.Reserve(4096);
    std::vector<int> order;
    for (int i = 0; i < 4096; ++i) {
      scheduler.ScheduleAfter(SimDuration::Micros(1 + i % 977),
                              [&order, i] { order.push_back(i); });
    }
    EXPECT_EQ(scheduler.Run(), 4096u);
    return order;
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(SchedulerTest, RunBeforeRunsOnlyEventsStrictlyBeforeTheHorizon) {
  Scheduler scheduler;
  std::vector<int> order;
  scheduler.ScheduleAt(SimTime::FromMicros(10), [&] { order.push_back(1); });
  scheduler.ScheduleAt(SimTime::FromMicros(20), [&] { order.push_back(2); });
  scheduler.ScheduleAt(SimTime::FromMicros(30), [&] { order.push_back(3); });
  scheduler.ScheduleAt(SimTime::FromMicros(40), [&] { order.push_back(4); });
  EXPECT_EQ(scheduler.RunBefore(SimTime::FromMicros(30)), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(scheduler.pending_count(), 2u);
  // A horizon at or behind the next event runs nothing.
  EXPECT_EQ(scheduler.RunBefore(SimTime::FromMicros(30)), 0u);
  EXPECT_EQ(scheduler.RunBefore(SimTime::FromMicros(31)), 1u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SchedulerTest, RunBeforeLeavesTheClockAtTheLastExecutedEvent) {
  Scheduler scheduler;
  scheduler.ScheduleAt(SimTime::FromMicros(20), [] {});
  scheduler.ScheduleAt(SimTime::FromMicros(90), [] {});
  scheduler.RunBefore(SimTime::FromMicros(50));
  EXPECT_EQ(scheduler.now(), SimTime::FromMicros(20));  // not the horizon
  // Nothing before the horizon: the clock does not move at all.
  scheduler.RunBefore(SimTime::FromMicros(60));
  EXPECT_EQ(scheduler.now(), SimTime::FromMicros(20));
}

TEST(SchedulerTest, KeyedInjectionAtTheHorizonSortsByCanonicalKey) {
  // The sharded window loop: after RunBefore(H), the exchange injects
  // events at times >= H under their creator's key. One created earlier
  // (smaller k1) must run before a local event already queued for H.
  Scheduler scheduler;
  const SimTime horizon = SimTime::FromMicros(30);
  std::vector<int> order;
  scheduler.ScheduleAt(SimTime::FromMicros(20), [&] {
    order.push_back(1);
    // Queued at scheduling time 20 under the engine origin.
    scheduler.ScheduleAt(horizon, [&] { order.push_back(3); });
  });
  scheduler.RunBefore(horizon);
  ASSERT_EQ(order, (std::vector<int>{1}));
  // Created at time 15 by broker 3 on another shard.
  scheduler.ScheduleKeyed(horizon, Scheduler::PackK1(15, 3), 0,
                          [&] { order.push_back(2); });
  scheduler.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SchedulerTest, NextEventTimeIsALowerBoundPastACancelledFront) {
  Scheduler scheduler;
  EXPECT_EQ(scheduler.NextEventTime(), SimTime::Max());
  const EventHandle front =
      scheduler.ScheduleAt(SimTime::FromMicros(10), [] {});
  scheduler.ScheduleAt(SimTime::FromMicros(50), [] {});
  ASSERT_TRUE(scheduler.Cancel(front));
  // The stale front may still be reported, but never anything later than
  // the next live event.
  EXPECT_LE(scheduler.NextEventTime(), SimTime::FromMicros(50));
  EXPECT_GE(scheduler.NextEventTime(), scheduler.now());
  // Dispatch skips the stale entry, and the bound then advances.
  EXPECT_EQ(scheduler.RunBefore(SimTime::FromMicros(20)), 0u);
  EXPECT_EQ(scheduler.NextEventTime(), SimTime::FromMicros(50));
}

TEST(SchedulerDeathTest, SchedulingInThePastAborts) {
  Scheduler scheduler;
  scheduler.ScheduleAt(SimTime::FromMicros(10), [] {});
  scheduler.Run();
  EXPECT_DEATH(scheduler.ScheduleAt(SimTime::FromMicros(5), [] {}),
               "scheduling into the past");
}

}  // namespace
}  // namespace dcrd
