// Regression test for the DCRD router's allocation profile. Once the
// per-broker processed sets, the episode slab and each recycled episode's
// buffers have reached the run's high-water mark, a forwarding epoch —
// publish, per-hop dedup, episode open/close, next-hop grouping, ACK
// timeouts, tried hops and upstream reroutes — allocates nothing but the
// per-send Packet copy the router hands to HopTransport::SendReliable: that
// copy's destination buffer and routing-path buffer. Everything is seeded,
// so the test is deterministic.
#include <gtest/gtest.h>

#include <cstdint>

#include "dcrd/dcrd_router.h"
#include "graph/topology.h"
#include "routing/test_harness.h"
#include "support/alloc_counter.h"

namespace dcrd {
namespace {

using test::AllocProbe;
using testing::RouterHarness;

// The two buffers of each send copy: destinations and routing path.
constexpr std::uint64_t kAllocationsPerSend = 2;
// Recycled buffers (episode slots, wire slots) still grow now and then past
// warm-up: slots are reused LIFO, so a slot can meet its longest routing
// path late. Allowed on at most one send in this many.
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
  EXPECT_LE(delta.allocations,
            kAllocationsPerSend * measured.sends +
                measured.sends / kSendsPerGrowth)
      << delta.allocations << " allocations (" << delta.bytes
      << " bytes) for " << measured.sends << " sends";
  EXPECT_EQ(router.open_episodes(), 0U);
}

}  // namespace
}  // namespace dcrd
