#include "dcrd/dr_computation.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <tuple>

#include "graph/shortest_path.h"

namespace dcrd {

std::vector<double> MonitoredDistancesFrom(const Graph& graph,
                                           const MonitoredView& view,
                                           NodeId source) {
  const PathTree tree = ShortestDelayTree(
      graph, source, [&view](LinkId link) { return view.alpha(link); });
  std::vector<double> distances(graph.node_count(), kInfiniteDelay);
  for (std::size_t i = 0; i < graph.node_count(); ++i) {
    const NodeId node(static_cast<NodeId::underlying_type>(i));
    if (tree.Reachable(node)) {
      distances[i] = static_cast<double>(tree.distance[i].micros());
    }
  }
  return distances;
}

DrKernel::DrKernel(const Graph& graph, const MonitoredView& view,
                   const DrComputationConfig& config)
    : graph_(graph),
      view_(view),
      config_(config) {
  lifted_.reserve(graph.edge_count());
  for (std::size_t e = 0; e < graph.edge_count(); ++e) {
    const LinkId link(static_cast<LinkId::underlying_type>(e));
    const LinkModel single{static_cast<double>(view.alpha(link).micros()),
                           view.gamma(link)};
    lifted_.push_back(MTransmissionModel(single, config.max_transmissions));
  }
  if (config.build_fallback) {
    no_budget_.assign(graph.node_count(), kInfiniteDelay);
  }
}

void DrKernel::CollectEligible(const std::vector<DR>& dr, NodeId x,
                               double budget_us,
                               std::vector<ViaEntry>& out) const {
  out.clear();
  for (const Neighbor& nb : graph_.neighbors(x)) {
    const DR& dr_i = dr[nb.peer.underlying()];
    if (!dr_i.reachable() || !(dr_i.d_us < budget_us)) continue;
    const LinkModel& lifted = lifted_[nb.link.underlying()];
    if (lifted.gamma <= 0.0) continue;
    out.push_back(LiftAcrossLink(nb.peer, nb.link, lifted, dr_i));
  }
  SortByPolicy(out, config_.ordering);
}

std::pair<int, bool> DrKernel::SolveFixedPoint(
    NodeId subscriber, const std::vector<double>& budget_us,
    const std::vector<std::uint32_t>& order, std::vector<DR>& dr) {
  dr.assign(graph_.node_count(), DR{});
  dr[subscriber.underlying()] = DR{0.0, 1.0};

  int sweeps_used = 0;
  bool converged = false;
  for (; sweeps_used < config_.max_sweeps && !converged; ++sweeps_used) {
    double max_delta = 0.0;
    for (std::uint32_t idx : order) {
      const NodeId x(idx);
      if (x == subscriber) continue;
      CollectEligible(dr, x, budget_us[idx], eligible_);
      const DR updated = CombineOrdered(eligible_);
      const DR previous = dr[idx];
      if (updated.reachable() != previous.reachable()) {
        max_delta = kInfiniteDelay;
      } else if (updated.reachable()) {
        max_delta = std::max(max_delta, std::abs(updated.d_us - previous.d_us));
        max_delta =
            std::max(max_delta, std::abs(updated.r - previous.r) * 1e6);
      }
      dr[idx] = updated;
    }
    converged = max_delta <= config_.tolerance_us;
  }
  return {sweeps_used, converged};
}

void DrKernel::Prepare(NodeId subscriber) {
  if (prepared_ == subscriber) return;
  prepared_ = subscriber;

  // Sweep order: nodes by monitored distance to the subscriber, closest
  // first, so each sweep propagates information one "ring" further out.
  const std::vector<double> to_subscriber =
      MonitoredDistancesFrom(graph_, view_, subscriber);
  order_.resize(graph_.node_count());
  std::iota(order_.begin(), order_.end(), 0U);
  std::stable_sort(order_.begin(), order_.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return to_subscriber[a] < to_subscriber[b];
                   });

  // Unconstrained fixed point for the best-effort fallback lists. Budget
  // starvation makes a node advertise r = 0, which would otherwise make it
  // invisible to its neighbours' fallback lists too — the unconstrained
  // values restore "can this neighbour deliver at all, however late".
  if (config_.build_fallback) {
    SolveFixedPoint(subscriber, no_budget_, order_, free_dr_);
  }
}

void DrKernel::Compute(NodeId subscriber, double deadline_us,
                       const std::vector<double>& publisher_dist_us,
                       DestinationTables& out) {
  const std::size_t n = graph_.node_count();
  DCRD_CHECK(subscriber.underlying() < n);
  DCRD_CHECK(publisher_dist_us.size() == n);
  Prepare(subscriber);

  out.subscriber = subscriber;
  out.deadline_us = deadline_us;
  out.budget_us.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.budget_us[i] = deadline_us - publisher_dist_us[i];
  }
  // The subscriber delivers to itself within any budget.
  out.budget_us[subscriber.underlying()] =
      std::max(out.budget_us[subscriber.underlying()], 1.0);

  // Budget-constrained fixed point: the paper's <d,r> and sending lists.
  std::tie(out.sweeps_used, out.converged) =
      SolveFixedPoint(subscriber, out.budget_us, order_, dr_);

  // Final materialisation pass: sending lists from the converged values.
  out.per_node.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId x(static_cast<NodeId::underlying_type>(i));
    NodeTables& node = out.per_node[i];
    if (x == subscriber) {
      node.dr = DR{0.0, 1.0};
      node.primary.clear();
      node.fallback.clear();
      continue;
    }
    node.dr = dr_[i];
    // Lists are built in scratch and copied over: assign reuses the slot's
    // capacity and sizes a fresh buffer exactly, so tables hold no growth
    // slack.
    CollectEligible(dr_, x, out.budget_us[i], eligible_);
    node.primary.assign(eligible_.begin(), eligible_.end());
    if (!config_.build_fallback) {
      node.fallback.clear();
      continue;
    }
    CollectEligible(free_dr_, x, kInfiniteDelay, eligible_);
    // Drop neighbours the primary list already covers.
    std::erase_if(eligible_, [&](const ViaEntry& entry) {
      return std::any_of(node.primary.begin(), node.primary.end(),
                         [&](const ViaEntry& p) {
                           return p.neighbor == entry.neighbor;
                         });
    });
    node.fallback.assign(eligible_.begin(), eligible_.end());
  }
}

DestinationTables ComputeDestinationTables(
    const Graph& graph, const MonitoredView& view, NodeId subscriber,
    double deadline_us, const std::vector<double>& publisher_dist_us,
    const DrComputationConfig& config) {
  DestinationTables tables;
  DrKernel(graph, view, config)
      .Compute(subscriber, deadline_us, publisher_dist_us, tables);
  return tables;
}

}  // namespace dcrd
