// Regression test for the DCRD router's allocation profile. Once the
// per-broker processed sets, the episode slab and each recycled episode's
// buffers have reached the run's high-water mark, a forwarding epoch —
// publish, per-hop dedup, episode open/close, next-hop grouping, ACK
// timeouts, tried hops and upstream reroutes — allocates next to nothing:
// every send copy is narrowed into the router's scratch packet and copied
// into a recycled transport slot. A monitoring-epoch rebuild allocates per
// topic and per distinct subscriber, never per (table, node). Everything is
// seeded, so the tests are deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "dcrd/dcrd_router.h"
#include "graph/topology.h"
#include "routing/test_harness.h"
#include "support/alloc_counter.h"

namespace dcrd {
namespace {

using test::AllocProbe;
using testing::RouterHarness;

// Recycled buffers (episode slots, pending and wire slots) still grow now
// and then past warm-up: slots are reused LIFO, so a slot can meet its
// longest routing path late. Allowed on at most one send in this many.
constexpr std::uint64_t kSendsPerGrowth = 16;

// Counts deliveries without storing them (RecordingSink's vector would
// allocate inside the measured region).
class CountingSink final : public DeliverySink {
 public:
  void OnDelivered(const Message&, NodeId, SimTime) override { ++count_; }
  [[nodiscard]] std::uint64_t count() const { return count_; }

 private:
  std::uint64_t count_ = 0;
};

struct EpochResult {
  std::uint64_t sends = 0;  // SendReliable calls: first transmissions
  std::uint64_t delivered = 0;
};

// One monitoring epoch: rebuild (outside any probe the caller holds — the
// tables are control-plane state), then `messages` publishes 20 ms apart,
// drained to quiescence.
EpochResult RunEpoch(RouterHarness& h, DcrdRouter& router,
                     const CountingSink& sink, TopicId topic, int messages,
                     AllocProbe* probe_after_rebuild) {
  router.Rebuild(h.monitor.view());
  if (probe_after_rebuild != nullptr) *probe_after_rebuild = AllocProbe();
  const TransportStats before = router.transport_stats();
  const std::uint64_t delivered_before = sink.count();
  for (int i = 0; i < messages; ++i) {
    h.PublishVia(router, topic);
    h.scheduler.RunUntil(h.scheduler.now() + SimDuration::Millis(20));
  }
  h.scheduler.Run();
  const TransportStats after = router.transport_stats();
  return EpochResult{
      (after.transmissions - after.retransmissions) -
          (before.transmissions - before.retransmissions),
      sink.count() - delivered_before};
}

TEST(DcrdRouterAllocTest, ForwardingEpochAllocatesOnlySendCopies) {
  // A five-broker line at 20% loss with m = 2: hops go silent, subscribers
  // are marked tried, packets are rerouted upstream and dropped at the
  // publisher, and a rerouted-back packet re-opens processed entries.
  RouterHarness h(Line(5, SimDuration::Millis(5)), 0.0, 0.2, /*seed=*/11);
  const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
  for (std::uint32_t v = 1; v < 5; ++v) {
    h.subscriptions.AddSubscription(topic, NodeId(v),
                                    SimDuration::Millis(500));
  }
  CountingSink sink;
  RouterContext context = h.Context(/*m=*/2);
  context.sink = &sink;
  DcrdRouter router(context);

  // Warm-up epochs at twice the measured load: every processed set, slab
  // and dense table grows past anything the measured epoch needs, and both
  // transport dedup generations reach that size too.
  for (int epoch = 0; epoch < 3; ++epoch) {
    const EpochResult warm = RunEpoch(h, router, sink, topic, 400, nullptr);
    ASSERT_GT(warm.delivered, 0U);
  }

  AllocProbe probe;
  const EpochResult measured = RunEpoch(h, router, sink, topic, 200, &probe);
  const auto delta = probe.delta();
  ASSERT_GT(measured.sends, 200U);
  EXPECT_GT(router.dropped_undeliverable(), 0U)
      << "the loss rate no longer exhausts any sending list";
  EXPECT_LE(delta.allocations, measured.sends / kSendsPerGrowth)
      << delta.allocations << " allocations (" << delta.bytes
      << " bytes) for " << measured.sends << " sends";
  EXPECT_EQ(router.open_episodes(), 0U);
}

// Allocations one monitoring-epoch rebuild may make once the previous epoch
// has sized the tables: one shortest-delay tree per topic (the publisher's
// distances) and per distinct subscriber (its sweep order), each tree with
// its few result vectors and its heap's growth steps, the sort of each
// subscriber's sweep order, plus the kernel's scratch and the rebuild's
// work list. Nothing may scale with tables x nodes: every (topic,
// subscriber) table is rewritten in place.
constexpr std::uint64_t kAllocationsPerTree = 24;
constexpr std::uint64_t kAllocationsFixed = 16;

TEST(DcrdRouterAllocTest, RebuildAllocatesPerTopicAndSubscriberOnly) {
  Rng rng(7);
  RouterHarness h(RandomConnected(60, 6, rng), 0.0, 0.0, /*seed=*/3);
  // Four topics from different publishers over overlapping subscriber
  // sets: most subscribers hold tables in several topics.
  constexpr std::uint32_t kTopics = 4;
  std::vector<bool> subscribed(h.graph.node_count(), false);
  std::uint64_t tables = 0;
  for (std::uint32_t t = 0; t < kTopics; ++t) {
    const TopicId topic = h.subscriptions.AddTopic(NodeId(t * 15));
    for (std::uint32_t v = 0; v < h.graph.node_count(); ++v) {
      if ((v + t) % 3 == 0) continue;
      h.subscriptions.AddSubscription(topic, NodeId(v),
                                      SimDuration::Millis(100 + 50 * t));
      subscribed[v] = true;
      ++tables;
    }
  }
  const auto distinct = static_cast<std::uint64_t>(
      std::count(subscribed.begin(), subscribed.end(), true));
  DcrdRouter router(h.Context(/*m=*/2));
  router.Rebuild(h.monitor.view());  // warm-up: sizes every table slot

  AllocProbe probe;
  router.Rebuild(h.monitor.view());
  const auto delta = probe.delta();
  const std::uint64_t bound =
      kAllocationsPerTree * (kTopics + distinct) + kAllocationsFixed;
  EXPECT_LE(delta.allocations, bound)
      << delta.allocations << " allocations (" << delta.bytes
      << " bytes) for " << tables << " tables over "
      << h.graph.node_count() << " nodes";
  // The bound must stay far below the per-(table, node) scale it guards.
  ASSERT_LT(bound, tables * h.graph.node_count() / 4);
}

}  // namespace
}  // namespace dcrd
