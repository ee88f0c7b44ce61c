// Algorithm 2's per-broker duplicate suppression: each broker takes on a
// (message, subscriber) responsibility at most once per epoch on a fresh
// visit. These tests pin what the processed set keys on and when it is
// voided, independently of how it is stored.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "dcrd/dcrd_router.h"
#include "graph/topology.h"
#include "routing/test_harness.h"

namespace dcrd {
namespace {

using testing::RouterHarness;

Packet PacketFor(MessageId id, std::uint8_t flow_label = 0) {
  Message message;
  message.id = id;
  Packet packet(message, {});
  packet.set_flow_label(flow_label);
  return packet;
}

// Seed whose failure process keeps `dead` down and every other link of
// `graph` up for the first `seconds` seconds (and, with `recover_after`,
// has every link up in the second after).
std::uint64_t SeedWithDeadLink(const Graph& graph, LinkId dead, double pf,
                               int outage_epochs, int seconds,
                               bool recover_after) {
  for (std::uint64_t seed = 0; seed < 500'000; ++seed) {
    const FailureSchedule schedule(seed, pf, SimDuration::Seconds(1),
                                   outage_epochs);
    bool ok = true;
    for (int s = 0; s <= seconds && ok; ++s) {
      const SimTime t = SimTime::FromMicros(s * 1'000'000LL);
      const bool dead_phase = s < seconds;
      if (!dead_phase && !recover_after) break;
      for (std::size_t e = 0; e < graph.edge_count() && ok; ++e) {
        const LinkId link(static_cast<LinkId::underlying_type>(e));
        const bool want_up = !(dead_phase && link == dead);
        ok = schedule.IsUp(link, t) == want_up;
      }
    }
    if (ok) return seed;
  }
  ADD_FAILURE() << "no seed with the requested outage found";
  return 0;
}

// Line 0-1-2 plus the detour 0-3-2: node 1's only way to 2 is direct.
Graph LineWithDetour() {
  Graph graph(4);
  graph.AddEdge(NodeId(0), NodeId(1), SimDuration::Millis(1));
  graph.AddEdge(NodeId(1), NodeId(2), SimDuration::Millis(1));
  graph.AddEdge(NodeId(0), NodeId(3), SimDuration::Millis(20));
  graph.AddEdge(NodeId(3), NodeId(2), SimDuration::Millis(20));
  return graph;
}

TEST(ProcessedDedupTest, ReroutedBackPacketReopensResponsibilities) {
  // The publisher takes on (m, 2) when it publishes. When 1-2 is dead, node
  // 1 bounces the packet back: the publisher's entry already exists, yet
  // the rerouted-back copy must be handled again — via the detour.
  const Graph graph = LineWithDetour();
  const LinkId link12 = *graph.FindEdge(NodeId(1), NodeId(2));
  const std::uint64_t seed = SeedWithDeadLink(graph, link12, 0.3, 1, 3,
                                              /*recover_after=*/false);
  RouterHarness h(LineWithDetour(), 0.3, 0.0, seed);
  const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
  h.subscriptions.AddSubscription(topic, NodeId(2), SimDuration::Millis(200));
  DcrdRouter router(h.Context());
  router.Rebuild(h.monitor.view());
  const Message message = h.PublishVia(router, topic);
  const Packet packet = PacketFor(message.id);
  EXPECT_TRUE(router.HasProcessed(NodeId(0), packet, NodeId(2)));
  h.scheduler.Run();

  EXPECT_EQ(h.sink.CountFor(message.id), 1U);
  EXPECT_EQ(router.dropped_undeliverable(), 0U);
  // 0-1, 1-2 (silent), the reroute 1-0, then 0-3 and 3-2.
  EXPECT_EQ(h.network.counters(TrafficClass::kData).attempted, 5U);
  for (const std::uint32_t v : {0U, 1U, 2U, 3U}) {
    EXPECT_TRUE(router.HasProcessed(NodeId(v), packet, NodeId(2))) << v;
  }
  // The key is exact: nothing else was marked.
  EXPECT_FALSE(router.HasProcessed(NodeId(1), packet, NodeId(3)));
  EXPECT_FALSE(router.HasProcessed(NodeId(1), PacketFor(message.id, 1),
                                   NodeId(2)));
}

TEST(ProcessedDedupTest, PersistenceRetryIsNotDedupedAgainstItsFirstAttempt) {
  // Line 0-1-2 with 1-2 down for the first two seconds: node 1 takes on the
  // first attempt's (m, 2) and fails it; each persisted retry carries a new
  // flow label, is fresh at node 1, and the one after the outage arrives.
  const Graph graph = Line(3, SimDuration::Millis(10));
  const LinkId link12 = *graph.FindEdge(NodeId(1), NodeId(2));
  const std::uint64_t seed = SeedWithDeadLink(graph, link12, 0.25, 2, 2,
                                              /*recover_after=*/true);
  RouterHarness h(Line(3, SimDuration::Millis(10)), 0.25, 0.0, seed);
  OverlayNetwork network(
      h.graph, h.scheduler,
      FailureSchedule(seed, 0.25, SimDuration::Seconds(1), 2),
      OverlayNetworkConfig{}, Rng(seed));
  const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
  h.subscriptions.AddSubscription(topic, NodeId(2), SimDuration::Millis(100));
  DcrdConfig config;
  config.enable_persistence = true;
  RouterContext context = h.Context();
  context.network = &network;
  DcrdRouter router(context, config);
  router.Rebuild(h.monitor.view());
  const Message message = h.PublishVia(router, topic);
  h.scheduler.Run();

  ASSERT_TRUE(h.sink.Delivered(message.id, NodeId(2)));
  EXPECT_GE(h.sink.ArrivalOf(message.id, NodeId(2)),
            SimTime::Zero() + SimDuration::Seconds(2));
  const std::uint64_t generations = router.persistence_retries() + 1;
  ASSERT_GE(generations, 2U);
  for (std::uint64_t g = 0; g < generations; ++g) {
    const Packet attempt =
        PacketFor(message.id, static_cast<std::uint8_t>(g));
    EXPECT_TRUE(router.HasProcessed(NodeId(0), attempt, NodeId(2))) << g;
    EXPECT_TRUE(router.HasProcessed(NodeId(1), attempt, NodeId(2))) << g;
  }
  EXPECT_FALSE(router.HasProcessed(
      NodeId(1), PacketFor(message.id, static_cast<std::uint8_t>(generations)),
      NodeId(2)));
}

// Runs one message over the loss-free line 0-1-2-3 to every other broker.
struct LineRun {
  RouterHarness h{Line(4, SimDuration::Millis(5)), 0.0, 0.0};
  TopicId topic = h.subscriptions.AddTopic(NodeId(0));
  DcrdRouter router{[this] {
    for (const std::uint32_t v : {1U, 2U, 3U}) {
      h.subscriptions.AddSubscription(topic, NodeId(v),
                                      SimDuration::Millis(100));
    }
    return h.Context();
  }()};
  Packet packet;

  LineRun() {
    router.Rebuild(h.monitor.view());
    packet = PacketFor(h.PublishVia(router, topic).id);
    h.scheduler.Run();
  }
};

TEST(ProcessedDedupTest, BrokerCrashVoidsOnlyTheCrashedBrokersEntries) {
  LineRun run;
  // Broker v took on the subscribers at or beyond it.
  for (const std::uint32_t v : {0U, 1U, 2U, 3U}) {
    for (std::uint32_t s = 1; s < 4; ++s) {
      EXPECT_EQ(run.router.HasProcessed(NodeId(v), run.packet, NodeId(s)),
                s >= v)
          << v << " " << s;
    }
  }
  run.router.OnBrokerCrash(NodeId(1));
  for (std::uint32_t s = 1; s < 4; ++s) {
    EXPECT_FALSE(run.router.HasProcessed(NodeId(1), run.packet, NodeId(s)));
    EXPECT_TRUE(run.router.HasProcessed(NodeId(0), run.packet, NodeId(s)));
  }
  EXPECT_TRUE(run.router.HasProcessed(NodeId(2), run.packet, NodeId(2)));
  EXPECT_TRUE(run.router.HasProcessed(NodeId(2), run.packet, NodeId(3)));
  EXPECT_TRUE(run.router.HasProcessed(NodeId(3), run.packet, NodeId(3)));
}

TEST(ProcessedDedupTest, RebuildClearsEveryBroker) {
  LineRun run;
  ASSERT_TRUE(run.router.HasProcessed(NodeId(3), run.packet, NodeId(3)));
  run.router.Rebuild(run.h.monitor.view());
  for (std::uint32_t v = 0; v < 4; ++v) {
    for (std::uint32_t s = 1; s < 4; ++s) {
      EXPECT_FALSE(run.router.HasProcessed(NodeId(v), run.packet, NodeId(s)));
    }
  }
  // The next epoch delivers the same message id again: nothing stale
  // suppresses it.
  run.h.next_message_id = run.packet.message().id.value;
  const Message again = run.h.PublishVia(run.router, run.topic);
  run.h.scheduler.Run();
  EXPECT_EQ(run.h.sink.CountFor(again.id), 6U);
}

TEST(ProcessedDedupTest, KeysAreExactAcrossTheFullRange) {
  const std::uint64_t max_id =
      (std::uint64_t{1} << DcrdRouter::kKeyMessageBits) - 1;
  const std::uint64_t high_bit = std::uint64_t{1}
                                 << (DcrdRouter::kKeyMessageBits - 1);
  const std::uint32_t max_node =
      (1U << DcrdRouter::kKeySubscriberBits) - 1;
  std::set<std::uint64_t> keys;
  std::size_t combos = 0;
  for (const std::uint64_t id :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{255},
        std::uint64_t{256}, high_bit, high_bit + 1, max_id - 1, max_id}) {
    for (const std::uint8_t flow : {0, 1, 255}) {
      for (const std::uint32_t s : {0U, 1U, 255U, 256U, max_node - 1,
                                    max_node}) {
        keys.insert(DcrdRouter::ProcessedKey(PacketFor(MessageId(id), flow),
                                             NodeId(s)));
        ++combos;
      }
    }
  }
  EXPECT_EQ(keys.size(), combos);
}

TEST(ProcessedDedupTest, LargestNodeAndHighBitMessageIdsDoNotCollide) {
  // A broker with the largest id the key admits subscribes; two messages
  // whose ids differ only in the key's top message bit must both arrive —
  // a collision would suppress the second at the subscriber.
  const std::uint32_t last = (1U << DcrdRouter::kKeySubscriberBits) - 1;
  Graph graph(last + 1);
  graph.AddEdge(NodeId(0), NodeId(last), SimDuration::Millis(1));
  RouterHarness h(std::move(graph), 0.0, 0.0);
  const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
  h.subscriptions.AddSubscription(topic, NodeId(last),
                                  SimDuration::Millis(100));
  DcrdRouter router(h.Context());
  router.Rebuild(h.monitor.view());
  const std::uint64_t high_bit = std::uint64_t{1}
                                 << (DcrdRouter::kKeyMessageBits - 1);
  h.next_message_id = 7;
  const Message low = h.PublishVia(router, topic);
  h.scheduler.Run();
  h.next_message_id = 7 + high_bit;
  const Message high = h.PublishVia(router, topic);
  h.scheduler.Run();
  EXPECT_TRUE(h.sink.Delivered(low.id, NodeId(last)));
  EXPECT_TRUE(h.sink.Delivered(high.id, NodeId(last)));
  EXPECT_TRUE(router.HasProcessed(NodeId(last), PacketFor(high.id),
                                  NodeId(last)));
}

TEST(ProcessedDedupDeathTest, OutOfRangeKeyPartsDie) {
  RouterHarness h(Line(2, SimDuration::Millis(1)), 0.0, 0.0);
  const TopicId topic = h.subscriptions.AddTopic(NodeId(0));
  h.subscriptions.AddSubscription(topic, NodeId(1), SimDuration::Millis(100));
  DcrdRouter router(h.Context());
  router.Rebuild(h.monitor.view());
  h.next_message_id = std::uint64_t{1} << DcrdRouter::kKeyMessageBits;
  EXPECT_DEATH(h.PublishVia(router, topic), "exceeds the dedup key");
  EXPECT_DEATH(
      (void)DcrdRouter::ProcessedKey(
          PacketFor(MessageId(1)),
          NodeId(1U << DcrdRouter::kKeySubscriberBits)),
      "exceeds the dedup key");
}

}  // namespace
}  // namespace dcrd
