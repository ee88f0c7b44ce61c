#include "dcrd/dr_computation.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/topology.h"
#include "net/failure_schedule.h"

namespace dcrd {
namespace {

// Builds a MonitoredView straight from ground truth with uniform gamma.
MonitoredView PerfectView(const Graph& graph, double gamma = 1.0) {
  std::vector<SimDuration> alphas;
  std::vector<double> gammas;
  for (std::size_t e = 0; e < graph.edge_count(); ++e) {
    alphas.push_back(graph.edge(LinkId(static_cast<LinkId::underlying_type>(e))).delay);
    gammas.push_back(gamma);
  }
  return MonitoredView(std::move(alphas), std::move(gammas));
}

TEST(MonitoredDistancesTest, MatchesDijkstra) {
  const Graph graph = Line(4, SimDuration::Millis(10));
  const MonitoredView view = PerfectView(graph);
  const auto dist = MonitoredDistancesFrom(graph, view, NodeId(0));
  EXPECT_DOUBLE_EQ(dist[0], 0.0);
  EXPECT_DOUBLE_EQ(dist[1], 10'000.0);
  EXPECT_DOUBLE_EQ(dist[3], 30'000.0);
}

TEST(DrComputationTest, LineGraphReliableLinks) {
  // On a reliable line, d equals the shortest-path delay and r = 1.
  const Graph graph = Line(4, SimDuration::Millis(10));
  const MonitoredView view = PerfectView(graph);
  const auto dist = MonitoredDistancesFrom(graph, view, NodeId(0));
  const auto tables = ComputeDestinationTables(graph, view, NodeId(3),
                                               1e9, dist, {});
  EXPECT_TRUE(tables.converged);
  EXPECT_DOUBLE_EQ(tables.per_node[3].dr.d_us, 0.0);
  EXPECT_DOUBLE_EQ(tables.per_node[3].dr.r, 1.0);
  EXPECT_NEAR(tables.per_node[2].dr.d_us, 10'000.0, 1.0);
  EXPECT_NEAR(tables.per_node[0].dr.d_us, 30'000.0, 1.0);
  EXPECT_DOUBLE_EQ(tables.per_node[0].dr.r, 1.0);
}

TEST(DrComputationTest, SubscriberSeedIsZeroOne) {
  const Graph graph = Line(3, SimDuration::Millis(10));
  const MonitoredView view = PerfectView(graph);
  const auto dist = MonitoredDistancesFrom(graph, view, NodeId(0));
  const auto tables = ComputeDestinationTables(graph, view, NodeId(2),
                                               1e9, dist, {});
  EXPECT_EQ(tables.per_node[2].dr, (DR{0.0, 1.0}));
  EXPECT_TRUE(tables.per_node[2].primary.empty());
}

TEST(DrComputationTest, SendingListSortedByTheorem1) {
  Rng rng(3);
  const Graph graph = RandomConnected(12, 5, rng);
  const MonitoredView view = PerfectView(graph, 0.9);
  const auto dist = MonitoredDistancesFrom(graph, view, NodeId(0));
  const auto tables = ComputeDestinationTables(graph, view, NodeId(11),
                                               1e9, dist, {});
  for (std::size_t v = 0; v < graph.node_count(); ++v) {
    const auto& list = tables.per_node[v].primary;
    for (std::size_t k = 0; k + 1 < list.size(); ++k) {
      EXPECT_LE(list[k].d_via_us * list[k + 1].r_via,
                list[k + 1].d_via_us * list[k].r_via + 1e-6)
          << "node " << v << " entry " << k;
    }
  }
}

TEST(DrComputationTest, EligibilityFiltersOnBudget) {
  // Line 0-1-2-3, subscriber 3. Node 1's neighbours are 0 (d=inf via? no:
  // d_0 is finite but large) and 2 (d=10ms). With budget(1) = 15ms the
  // entry via node 0 (d_0 = 30ms > 15ms) is excluded from the primary list
  // and lands on the fallback list.
  const Graph graph = Line(4, SimDuration::Millis(10));
  const MonitoredView view = PerfectView(graph);
  std::vector<double> publisher_dist = {0.0, 10'000.0, 20'000.0, 30'000.0};
  const double deadline = 25'000.0;  // budget(1) = 15ms, budget(2) = 5ms
  DrComputationConfig config;
  const auto tables = ComputeDestinationTables(graph, view, NodeId(3),
                                               deadline, publisher_dist,
                                               config);
  const auto& node1 = tables.per_node[1];
  ASSERT_EQ(node1.primary.size(), 1U);
  EXPECT_EQ(node1.primary[0].neighbor, NodeId(2));
  ASSERT_EQ(node1.fallback.size(), 1U);
  EXPECT_EQ(node1.fallback[0].neighbor, NodeId(0));
}

TEST(DrComputationTest, FallbackDisabledLeavesListEmpty) {
  const Graph graph = Line(4, SimDuration::Millis(10));
  const MonitoredView view = PerfectView(graph);
  std::vector<double> publisher_dist = {0.0, 10'000.0, 20'000.0, 30'000.0};
  DrComputationConfig config;
  config.build_fallback = false;
  const auto tables = ComputeDestinationTables(graph, view, NodeId(3),
                                               25'000.0, publisher_dist,
                                               config);
  EXPECT_TRUE(tables.per_node[1].fallback.empty());
}

TEST(DrComputationTest, UnreachableBudgetKillsList) {
  // Deadline smaller than any path: nobody qualifies; r = 0 everywhere
  // except the subscriber.
  const Graph graph = Line(3, SimDuration::Millis(10));
  const MonitoredView view = PerfectView(graph);
  std::vector<double> publisher_dist = {0.0, 10'000.0, 20'000.0};
  const auto tables = ComputeDestinationTables(graph, view, NodeId(2),
                                               /*deadline=*/1.0,
                                               publisher_dist, {});
  EXPECT_FALSE(tables.per_node[0].dr.reachable());
  EXPECT_TRUE(tables.per_node[0].primary.empty());
}

TEST(DrComputationTest, UnreliableLinksLowerR) {
  // Line 0-1-2 toward subscriber 2 with gamma = 0.9 everywhere. Node 1's
  // sending list is {2, 0} (the paper's recursion admits the neighbour
  // behind you; forwarding-time loop prevention is what stops actual
  // loops), so the fixed point solves
  //   r_1 = 1 - (1 - 0.9)(1 - 0.9 r_0),   r_0 = 0.9 r_1
  // giving r_1 = 0.9 / (1 - 0.081) and r_0 = 0.9 r_1 — above the pure
  // chain values 0.9 / 0.81 but strictly below 1.
  const Graph graph = Line(3, SimDuration::Millis(10));
  const MonitoredView view = PerfectView(graph, 0.9);
  const auto dist = MonitoredDistancesFrom(graph, view, NodeId(0));
  const auto tables = ComputeDestinationTables(graph, view, NodeId(2),
                                               1e9, dist, {});
  const double r1 = 0.9 / (1 - 0.081);
  EXPECT_NEAR(tables.per_node[1].dr.r, r1, 1e-6);
  EXPECT_NEAR(tables.per_node[0].dr.r, 0.9 * r1, 1e-6);
  EXPECT_GT(tables.per_node[1].dr.r, 0.9);
  EXPECT_LT(tables.per_node[1].dr.r, 1.0);
}

TEST(DrComputationTest, RedundantPathsRaiseR) {
  // Diamond 0->{1,2}->3: with gamma=0.9 everywhere node 0 reaches 3 via two
  // disjoint 2-hop routes; r must exceed the single-path 0.81.
  Graph graph(4);
  graph.AddEdge(NodeId(0), NodeId(1), SimDuration::Millis(10));
  graph.AddEdge(NodeId(1), NodeId(3), SimDuration::Millis(10));
  graph.AddEdge(NodeId(0), NodeId(2), SimDuration::Millis(12));
  graph.AddEdge(NodeId(2), NodeId(3), SimDuration::Millis(12));
  const MonitoredView view = PerfectView(graph, 0.9);
  const auto dist = MonitoredDistancesFrom(graph, view, NodeId(0));
  const auto tables = ComputeDestinationTables(graph, view, NodeId(3),
                                               1e9, dist, {});
  EXPECT_GT(tables.per_node[0].dr.r, 0.81);
  ASSERT_EQ(tables.per_node[0].primary.size(), 2U);
  EXPECT_EQ(tables.per_node[0].primary[0].neighbor, NodeId(1));
}

TEST(DrComputationTest, MTransmissionsRaiseRAndDelay) {
  const Graph graph = Line(3, SimDuration::Millis(10));
  const MonitoredView view = PerfectView(graph, 0.8);
  const auto dist = MonitoredDistancesFrom(graph, view, NodeId(0));
  DrComputationConfig m1, m2;
  m1.max_transmissions = 1;
  m2.max_transmissions = 2;
  const auto t1 = ComputeDestinationTables(graph, view, NodeId(2), 1e9, dist, m1);
  const auto t2 = ComputeDestinationTables(graph, view, NodeId(2), 1e9, dist, m2);
  EXPECT_GT(t2.per_node[0].dr.r, t1.per_node[0].dr.r);
  EXPECT_GT(t2.per_node[0].dr.d_us, t1.per_node[0].dr.d_us);
}

TEST(DrComputationTest, ConvergesOnCyclicTopologies) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(seed);
    const Graph graph = RandomConnected(20, 6, rng);
    const MonitoredView view = PerfectView(graph, 0.95);
    const auto dist = MonitoredDistancesFrom(graph, view, NodeId(0));
    const auto tables = ComputeDestinationTables(graph, view, NodeId(19),
                                                 300'000.0, dist, {});
    EXPECT_TRUE(tables.converged) << "seed " << seed;
    EXPECT_LT(tables.sweeps_used, 64);
    // Everybody with a list within budget can reach the subscriber.
    for (std::size_t v = 0; v < 20; ++v) {
      if (!tables.per_node[v].primary.empty()) {
        EXPECT_TRUE(tables.per_node[v].dr.reachable());
        EXPECT_GT(tables.per_node[v].dr.r, 0.0);
        EXPECT_LE(tables.per_node[v].dr.r, 1.0 + 1e-12);
      }
    }
  }
}

TEST(DrComputationTest, DLowerBoundedByShortestPath) {
  // The expected delay can never beat the monitored shortest-path delay.
  Rng rng(9);
  const Graph graph = RandomConnected(15, 5, rng);
  const MonitoredView view = PerfectView(graph, 0.9);
  const auto to_sub = MonitoredDistancesFrom(graph, view, NodeId(14));
  const auto dist = MonitoredDistancesFrom(graph, view, NodeId(0));
  const auto tables = ComputeDestinationTables(graph, view, NodeId(14),
                                               1e9, dist, {});
  for (std::size_t v = 0; v < 15; ++v) {
    if (tables.per_node[v].dr.reachable()) {
      EXPECT_GE(tables.per_node[v].dr.d_us, to_sub[v] - 1.0) << "node " << v;
    }
  }
}


// --- Differential check of the DrKernel against a reference model ----------
//
// The reference is the straightforward algorithm the kernel replaced: every
// call lifts each link again (Eq. 1) on every neighbour visit, re-solves the
// sweep order and the unconstrained fixed point, and sorts through
// std::stable_partition + std::stable_sort into fresh vectors. The kernel
// must reproduce it bit for bit.
namespace reference {

bool Usable(const ViaEntry& e) {
  return e.r_via > 0.0 && e.d_via_us < kInfiniteDelay;
}

// The ordering policies' comparators over usable entries.
bool Less(OrderingPolicy policy, const ViaEntry& a, const ViaEntry& b) {
  switch (policy) {
    case OrderingPolicy::kTheorem1: {
      const double lhs = a.d_via_us / a.r_via;
      const double rhs = b.d_via_us / b.r_via;
      if (lhs != rhs) return lhs < rhs;
      return a.neighbor < b.neighbor;
    }
    case OrderingPolicy::kDelayFirst:
      if (a.d_via_us != b.d_via_us) return a.d_via_us < b.d_via_us;
      return a.neighbor < b.neighbor;
    case OrderingPolicy::kReliabilityFirst:
      if (a.r_via != b.r_via) return a.r_via > b.r_via;
      return a.neighbor < b.neighbor;
  }
  return false;
}

void SortByPolicy(std::vector<ViaEntry>& entries, OrderingPolicy policy) {
  const auto usable_end =
      std::stable_partition(entries.begin(), entries.end(), Usable);
  std::stable_sort(entries.begin(), usable_end,
                   [policy](const ViaEntry& a, const ViaEntry& b) {
                     return Less(policy, a, b);
                   });
}

std::vector<ViaEntry> CollectEligible(const Graph& graph,
                                      const MonitoredView& view,
                                      const std::vector<DR>& dr, NodeId x,
                                      double budget_us, int m,
                                      OrderingPolicy ordering) {
  std::vector<ViaEntry> eligible;
  for (const Neighbor& nb : graph.neighbors(x)) {
    const DR& dr_i = dr[nb.peer.underlying()];
    if (!dr_i.reachable() || !(dr_i.d_us < budget_us)) continue;
    const LinkModel single{static_cast<double>(view.alpha(nb.link).micros()),
                           view.gamma(nb.link)};
    const LinkModel lifted = MTransmissionModel(single, m);
    if (lifted.gamma <= 0.0) continue;
    eligible.push_back(LiftAcrossLink(nb.peer, nb.link, lifted, dr_i));
  }
  reference::SortByPolicy(eligible, ordering);
  return eligible;
}

struct FixedPoint {
  std::vector<DR> dr;
  int sweeps_used = 0;
  bool converged = false;
};

FixedPoint SolveFixedPoint(const Graph& graph, const MonitoredView& view,
                           NodeId subscriber,
                           const std::vector<double>& budget_us,
                           const std::vector<std::uint32_t>& order,
                           const DrComputationConfig& config) {
  FixedPoint result;
  result.dr.assign(graph.node_count(), DR{});
  result.dr[subscriber.underlying()] = DR{0.0, 1.0};
  for (; result.sweeps_used < config.max_sweeps && !result.converged;
       ++result.sweeps_used) {
    double max_delta = 0.0;
    for (std::uint32_t idx : order) {
      const NodeId x(idx);
      if (x == subscriber) continue;
      const DR updated = CombineOrdered(
          CollectEligible(graph, view, result.dr, x, budget_us[idx],
                          config.max_transmissions, config.ordering));
      const DR previous = result.dr[idx];
      if (updated.reachable() != previous.reachable()) {
        max_delta = kInfiniteDelay;
      } else if (updated.reachable()) {
        max_delta = std::max(max_delta, std::abs(updated.d_us - previous.d_us));
        max_delta =
            std::max(max_delta, std::abs(updated.r - previous.r) * 1e6);
      }
      result.dr[idx] = updated;
    }
    result.converged = max_delta <= config.tolerance_us;
  }
  return result;
}

DestinationTables Compute(const Graph& graph, const MonitoredView& view,
                          NodeId subscriber, double deadline_us,
                          const std::vector<double>& publisher_dist_us,
                          const DrComputationConfig& config) {
  const std::size_t n = graph.node_count();
  DestinationTables tables;
  tables.subscriber = subscriber;
  tables.deadline_us = deadline_us;
  tables.budget_us.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    tables.budget_us[i] = deadline_us - publisher_dist_us[i];
  }
  tables.budget_us[subscriber.underlying()] =
      std::max(tables.budget_us[subscriber.underlying()], 1.0);

  const std::vector<double> to_subscriber =
      MonitoredDistancesFrom(graph, view, subscriber);
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0U);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return to_subscriber[a] < to_subscriber[b];
                   });

  const FixedPoint constrained =
      SolveFixedPoint(graph, view, subscriber, tables.budget_us, order, config);
  tables.sweeps_used = constrained.sweeps_used;
  tables.converged = constrained.converged;
  FixedPoint unconstrained;
  if (config.build_fallback) {
    unconstrained = SolveFixedPoint(graph, view, subscriber,
                                    std::vector<double>(n, kInfiniteDelay),
                                    order, config);
  }

  tables.per_node.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId x(static_cast<NodeId::underlying_type>(i));
    NodeTables& node = tables.per_node[i];
    if (x == subscriber) {
      node.dr = DR{0.0, 1.0};
      continue;
    }
    node.dr = constrained.dr[i];
    node.primary =
        CollectEligible(graph, view, constrained.dr, x, tables.budget_us[i],
                        config.max_transmissions, config.ordering);
    if (config.build_fallback) {
      std::vector<ViaEntry> fallback = CollectEligible(
          graph, view, unconstrained.dr, x, kInfiniteDelay,
          config.max_transmissions, config.ordering);
      std::erase_if(fallback, [&](const ViaEntry& entry) {
        return std::any_of(node.primary.begin(), node.primary.end(),
                           [&](const ViaEntry& p) {
                             return p.neighbor == entry.neighbor;
                           });
      });
      node.fallback = std::move(fallback);
    }
  }
  return tables;
}

}  // namespace reference

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool SameList(const std::vector<ViaEntry>& a, const std::vector<ViaEntry>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k].neighbor != b[k].neighbor || a[k].link != b[k].link ||
        !SameBits(a[k].d_via_us, b[k].d_via_us) ||
        !SameBits(a[k].r_via, b[k].r_via)) {
      return false;
    }
  }
  return true;
}

// Bit-for-bit comparison of every field; the first difference is reported.
testing::AssertionResult SameTables(const DestinationTables& expected,
                                    const DestinationTables& actual) {
  if (expected.subscriber != actual.subscriber ||
      !SameBits(expected.deadline_us, actual.deadline_us)) {
    return testing::AssertionFailure() << "destination header differs";
  }
  if (expected.sweeps_used != actual.sweeps_used ||
      expected.converged != actual.converged) {
    return testing::AssertionFailure()
           << "sweeps " << expected.sweeps_used << "/" << expected.converged
           << " vs " << actual.sweeps_used << "/" << actual.converged;
  }
  if (expected.budget_us.size() != actual.budget_us.size() ||
      expected.per_node.size() != actual.per_node.size()) {
    return testing::AssertionFailure() << "node count differs";
  }
  for (std::size_t v = 0; v < expected.per_node.size(); ++v) {
    const NodeTables& e = expected.per_node[v];
    const NodeTables& a = actual.per_node[v];
    if (!SameBits(expected.budget_us[v], actual.budget_us[v])) {
      return testing::AssertionFailure() << "budget_us differs at node " << v;
    }
    if (!SameBits(e.dr.d_us, a.dr.d_us) || !SameBits(e.dr.r, a.dr.r)) {
      return testing::AssertionFailure() << "dr differs at node " << v;
    }
    if (!SameList(e.primary, a.primary)) {
      return testing::AssertionFailure() << "primary differs at node " << v;
    }
    if (!SameList(e.fallback, a.fallback)) {
      return testing::AssertionFailure() << "fallback differs at node " << v;
    }
  }
  return testing::AssertionSuccess();
}

// Monitored estimates as a LinkMonitor produces them: alpha near the true
// delay, gamma anywhere in [floor, 1] with a share of links pinned at the
// floor (a link that failed every probe) and a share at exactly 1.
MonitoredView RandomView(const Graph& graph, Rng& rng) {
  constexpr double kGammaFloor = 1e-4;
  std::vector<SimDuration> alphas;
  std::vector<double> gammas;
  for (std::size_t e = 0; e < graph.edge_count(); ++e) {
    const SimDuration delay =
        graph.edge(LinkId(static_cast<LinkId::underlying_type>(e))).delay;
    alphas.push_back(SimDuration::Micros(static_cast<std::int64_t>(
        static_cast<double>(delay.micros()) * rng.NextDoubleInRange(0.8, 1.2))));
    const double u = rng.NextDouble();
    gammas.push_back(u < 0.1   ? kGammaFloor
                     : u < 0.3 ? 1.0
                               : rng.NextDoubleInRange(kGammaFloor, 1.0));
  }
  return MonitoredView(std::move(alphas), std::move(gammas));
}

std::string ConfigName(const DrComputationConfig& config) {
  return "m=" + std::to_string(config.max_transmissions) + " ordering=" +
         std::to_string(static_cast<int>(config.ordering)) +
         " fallback=" + std::to_string(config.build_fallback);
}

TEST(DrKernelDifferentialTest, MatchesReferenceOnRandomGraphs) {
  constexpr OrderingPolicy kPolicies[] = {OrderingPolicy::kTheorem1,
                                          OrderingPolicy::kDelayFirst,
                                          OrderingPolicy::kReliabilityFirst};
  Rng rng(2024);
  int compared = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t n = 20 + rng.NextBounded(61);       // 20..80 nodes
    const std::size_t degree = 3 + rng.NextBounded(10);   // degree 3..12
    const Graph graph = RandomConnected(n, degree, rng);
    const MonitoredView view = RandomView(graph, rng);
    // Three topics from distinct publishers whose subscriber sets overlap,
    // so most subscribers recur across topics within one kernel.
    std::vector<NodeId> publishers;
    std::vector<std::vector<double>> publisher_dist;
    for (int t = 0; t < 3; ++t) {
      publishers.emplace_back(static_cast<NodeId::underlying_type>(
          rng.NextBounded(n)));
      publisher_dist.push_back(
          MonitoredDistancesFrom(graph, view, publishers.back()));
    }
    std::vector<NodeId> subscribers;
    for (std::size_t v = 0; v < n; ++v) {
      if (rng.NextBernoulli(0.3)) {
        subscribers.emplace_back(static_cast<NodeId::underlying_type>(v));
      }
    }
    subscribers.push_back(publishers[0]);  // a self-subscription
    for (const int m : {1, 2, 3}) {
      for (const OrderingPolicy policy : kPolicies) {
        for (const bool fallback : {true, false}) {
          DrComputationConfig config;
          config.max_transmissions = m;
          config.ordering = policy;
          config.build_fallback = fallback;
          SCOPED_TRACE(ConfigName(config) + " trial " + std::to_string(trial));
          // Every (topic, subscriber) destination with its reference
          // tables; deadlines run from hopeless to generous, so budgets
          // bind.
          struct Destination {
            int topic;
            NodeId subscriber;
            double deadline_us;
            DestinationTables expected;
          };
          std::vector<Destination> destinations;
          for (NodeId subscriber : subscribers) {
            for (int t = 0; t < 3; ++t) {
              const double shortest = std::max(
                  publisher_dist[t][subscriber.underlying()], 1000.0);
              const double deadline =
                  shortest * rng.NextDoubleInRange(0.5, 3.0);
              destinations.push_back(Destination{
                  t, subscriber, deadline,
                  reference::Compute(graph, view, subscriber, deadline,
                                     publisher_dist[t], config)});
            }
          }
          // One kernel fed subscriber by subscriber (consecutive topics
          // reuse the subscriber's solved state), then topic by topic (the
          // subscriber changes on every call). One recycled slot for every
          // destination: each Compute must overwrite what the previous one
          // left behind.
          DrKernel kernel(graph, view, config);
          DestinationTables slot;
          const auto check = [&](const Destination& d) {
            kernel.Compute(d.subscriber, d.deadline_us,
                           publisher_dist[d.topic], slot);
            ++compared;
            return SameTables(d.expected, slot)
                   << " topic " << d.topic << " subscriber " << d.subscriber;
          };
          for (const Destination& d : destinations) {
            ASSERT_TRUE(check(d)) << " (grouped by subscriber)";
          }
          for (int t = 0; t < 3; ++t) {
            for (const Destination& d : destinations) {
              if (d.topic == t) {
                ASSERT_TRUE(check(d)) << " (by topic)";
              }
            }
          }
          for (const Destination& d : destinations) {
            ASSERT_TRUE(SameTables(
                d.expected, ComputeDestinationTables(
                                graph, view, d.subscriber, d.deadline_us,
                                publisher_dist[d.topic], config)))
                << "one-shot, topic " << d.topic << " subscriber "
                << d.subscriber;
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 2000);
}

// Whether the policy's comparator is a strict weak ordering on the usable
// entries of `entries`: irreflexive, transitive, with transitive
// incomparability. std::stable_sort's result is only defined when it is.
bool IsStrictWeakOrdering(const std::vector<ViaEntry>& entries,
                          OrderingPolicy policy) {
  std::vector<ViaEntry> usable;
  std::copy_if(entries.begin(), entries.end(), std::back_inserter(usable),
               reference::Usable);
  const auto less = [policy](const ViaEntry& a, const ViaEntry& b) {
    return reference::Less(policy, a, b);
  };
  const auto equivalent = [&](const ViaEntry& a, const ViaEntry& b) {
    return !less(a, b) && !less(b, a);
  };
  for (const ViaEntry& a : usable) {
    if (less(a, a)) return false;
    for (const ViaEntry& b : usable) {
      for (const ViaEntry& c : usable) {
        if (less(a, b) && less(b, c) && !less(a, c)) return false;
        if (equivalent(a, b) && equivalent(b, c) && !equivalent(a, c)) {
          return false;
        }
      }
    }
  }
  return true;
}

// SortByPolicy's in-place sort against std::stable_partition +
// std::stable_sort, on sending-list-shaped inputs (distinct neighbours)
// mixing exact ties, unusable entries (r = 0, d = infinity) and d/r ratios
// a few ulps apart. Every comparator must be a strict weak ordering on
// every such list — including the near-ties, where a Theorem-1 comparator
// on cross-multiplied products would order three entries cyclically — so
// the sort result is always defined and must equal the standard
// algorithms'.
TEST(SortByPolicyPropertyTest, MatchesStablePartitionAndStableSort) {
  constexpr OrderingPolicy kPolicies[] = {OrderingPolicy::kTheorem1,
                                          OrderingPolicy::kDelayFirst,
                                          OrderingPolicy::kReliabilityFirst};
  Rng rng(77);
  int near_tie_lists = 0;
  std::vector<std::uint32_t> ids(64);
  for (int trial = 0; trial < 20'000; ++trial) {
    std::iota(ids.begin(), ids.end(), 0U);
    const std::size_t length = rng.NextBounded(21);
    std::vector<ViaEntry> entries;
    bool near_tie = false;
    for (std::size_t k = 0; k < length; ++k) {
      // Distinct neighbours, drawn without replacement.
      std::swap(ids[k], ids[k + rng.NextBounded(ids.size() - k)]);
      ViaEntry entry{NodeId(ids[k]),
                     LinkId(static_cast<LinkId::underlying_type>(k)),
                     rng.NextDoubleInRange(1'000, 90'000),
                     rng.NextDoubleInRange(0.01, 1.0)};
      const double u = rng.NextDouble();
      if (u < 0.15 && !entries.empty()) {
        // Exact tie with an earlier entry.
        const ViaEntry& other = entries[rng.NextBounded(entries.size())];
        entry.d_via_us = other.d_via_us;
        entry.r_via = other.r_via;
      } else if (u < 0.35 && !entries.empty()) {
        // An earlier entry's d/r ratio up to rounding: scale both, then
        // nudge d by up to two ulps.
        const ViaEntry& other = entries[rng.NextBounded(entries.size())];
        const double scale = rng.NextDoubleInRange(0.5, 1.0);
        entry.d_via_us = other.d_via_us * scale;
        entry.r_via = other.r_via * scale;
        for (std::uint64_t ulps = rng.NextBounded(3); ulps > 0; --ulps) {
          entry.d_via_us = std::nextafter(entry.d_via_us, kInfiniteDelay);
        }
        near_tie = reference::Usable(other);
      } else if (u < 0.45) {
        entry.r_via = 0.0;
      } else if (u < 0.5) {
        entry.d_via_us = kInfiniteDelay;
      } else if (u < 0.55) {
        entry.d_via_us = kInfiniteDelay;
        entry.r_via = 0.0;
      }
      entries.push_back(entry);
    }
    if (near_tie) ++near_tie_lists;
    for (const OrderingPolicy policy : kPolicies) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " policy " +
                   std::to_string(static_cast<int>(policy)));
      ASSERT_TRUE(IsStrictWeakOrdering(entries, policy));
      std::vector<ViaEntry> actual = entries;
      SortByPolicy(actual, policy);
      std::vector<ViaEntry> expected = entries;
      reference::SortByPolicy(expected, policy);
      ASSERT_TRUE(SameList(expected, actual));
    }
  }
  // The generator must keep exercising the near-tie regime.
  EXPECT_GT(near_tie_lists, 1000);
}

}  // namespace
}  // namespace dcrd
