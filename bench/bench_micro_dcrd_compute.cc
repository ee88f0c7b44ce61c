// Microbenchmark: the DCRD <d,r> fixed point and sending-list build.
//
// This is the per-epoch cost that dominates large-N DCRD runs (Fig. 5):
// one table per (topic, subscriber) pair, built by one DrKernel per
// rebuild. BM_DcrdRebuild times the whole DcrdRouter::Rebuild at Fig. 5's
// largest size and is the control plane's entry in the CI perf gate.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "dcrd/dcrd_router.h"
#include "dcrd/dr_computation.h"
#include "event/scheduler.h"
#include "graph/shortest_path.h"
#include "graph/topology.h"
#include "net/failure_schedule.h"
#include "net/link_monitor.h"
#include "net/overlay_network.h"
#include "pubsub/publisher.h"
#include "pubsub/subscriptions.h"

namespace {

using namespace dcrd;

struct Fixture {
  Graph graph;
  FailureSchedule failures{123, 0.06};
  LinkMonitor monitor;
  std::vector<double> publisher_dist;

  explicit Fixture(std::size_t nodes)
      : graph([&] {
          Rng rng(5);
          return RandomConnected(nodes, 8, rng);
        }()),
        monitor(graph, failures, LinkMonitorConfig{}, Rng(17)) {
    monitor.MeasureAt(SimTime::Zero());
    publisher_dist = MonitoredDistancesFrom(graph, monitor.view(), NodeId(0));
  }
};

void BM_ComputeDestinationTables(benchmark::State& state) {
  Fixture fixture(static_cast<std::size_t>(state.range(0)));
  const NodeId subscriber(
      static_cast<NodeId::underlying_type>(state.range(0) - 1));
  const double deadline_us =
      3.0 * fixture.publisher_dist[subscriber.underlying()];
  DrComputationConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeDestinationTables(
        fixture.graph, fixture.monitor.view(), subscriber, deadline_us,
        fixture.publisher_dist, config));
  }
}
BENCHMARK(BM_ComputeDestinationTables)->Arg(20)->Arg(80)->Arg(160);

void BM_Theorem1SortAndCombine(benchmark::State& state) {
  // The inner loop of every sweep: sort candidates, fold Eq. 3.
  Rng rng(9);
  std::vector<ViaEntry> entries;
  for (int i = 0; i < 10; ++i) {
    entries.push_back(ViaEntry{NodeId(static_cast<NodeId::underlying_type>(i)),
                               LinkId(static_cast<LinkId::underlying_type>(i)),
                               rng.NextDoubleInRange(10'000, 90'000),
                               rng.NextDoubleInRange(0.5, 1.0)});
  }
  for (auto _ : state) {
    std::vector<ViaEntry> copy = entries;
    SortByTheorem1(copy);
    benchmark::DoNotOptimize(CombineOrdered(copy));
  }
}
BENCHMARK(BM_Theorem1SortAndCombine);

class NullSink final : public DeliverySink {
 public:
  void OnDelivered(const Message&, NodeId, SimTime) override {}
};

// A Fig. 5-shaped overlay: 160 brokers of degree 8 at Pf 0.06, 10 topics on
// distinct publishers, every other broker subscribing to each topic with
// probability 0.4 and a deadline of three times the shortest-path delay.
struct RebuildFixture {
  static constexpr std::size_t kBrokers = 160;
  static constexpr std::uint32_t kTopics = 10;

  Graph graph;
  Scheduler scheduler;
  FailureSchedule failures{123, 0.06};
  OverlayNetwork network;
  LinkMonitor monitor;
  SubscriptionTable subscriptions;
  NullSink sink;
  std::size_t tables = 0;

  RebuildFixture()
      : graph([] {
          Rng rng(5);
          return RandomConnected(kBrokers, 8, rng);
        }()),
        network(graph, scheduler, failures, 0.0, Rng(11)),
        monitor(graph, failures, LinkMonitorConfig{}, Rng(17)) {
    monitor.MeasureAt(SimTime::Zero());
    Rng rng(23);
    for (std::uint32_t t = 0; t < kTopics; ++t) {
      const NodeId publisher(t * (kBrokers / kTopics));
      const TopicId topic = subscriptions.AddTopic(publisher);
      const PathTree tree = ShortestDelayTree(graph, publisher);
      for (std::uint32_t v = 0; v < kBrokers; ++v) {
        if (NodeId(v) == publisher || !rng.NextBernoulli(0.4)) continue;
        subscriptions.AddSubscription(topic, NodeId(v),
                                      tree.distance[v] * 3);
        ++tables;
      }
    }
  }

  [[nodiscard]] RouterContext Context() {
    RouterContext context;
    context.network = &network;
    context.subscriptions = &subscriptions;
    context.sink = &sink;
    return context;
  }
};

void BM_DcrdRebuild(benchmark::State& state) {
  RebuildFixture fixture;
  DcrdRouter router(fixture.Context());
  router.Rebuild(fixture.monitor.view());  // sizes the recycled tables
  for (auto _ : state) {
    router.Rebuild(fixture.monitor.view());
    benchmark::ClobberMemory();
  }
  // Items are (topic, subscriber) tables.
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fixture.tables));
}
BENCHMARK(BM_DcrdRebuild)->Unit(benchmark::kMillisecond);

}  // namespace
