// Distributed <d,r> computation and sending-list construction
// (paper Sections III-B and III-C, Algorithm 1).
//
// The paper's nodes run an asynchronous recursion seeded at the subscriber
// (<0,1>), each node recomputing its <d,r> from its neighbours' values and
// re-sharing. We emulate that with synchronous Gauss–Seidel sweeps over the
// nodes, ordered by monitored distance to the subscriber (information flows
// outward from S, so this ordering converges in about
// diameter-many sweeps); iteration stops when no node's d moved by more
// than `tolerance_us`, or at `max_sweeps` — the cap mirrors the fact that a
// real deployment stops gossiping when updates stop changing anything.
//
// Eligibility (Sec. III-C): neighbour i enters X's sending list toward S
// only if d_i < D_XS, with D_XS = D_PS - (monitored shortest delay P->X).
// The optional *fallback list* holds the remaining finite-<d,r> neighbours,
// Theorem-1 sorted; the router walks it only after the primary list is
// exhausted so that packets which can no longer meet the deadline are still
// delivered (the paper's "delivery ratio" counts late packets, so DCRD must
// keep forwarding past deadline-infeasible states). Fallback entries never
// contribute to the advertised <d_X, r_X>.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "dcrd/dr.h"
#include "graph/graph.h"
#include "net/link_monitor.h"

namespace dcrd {

struct DrComputationConfig {
  int max_transmissions = 1;  // paper parameter m
  int max_sweeps = 64;
  double tolerance_us = 0.5;
  bool build_fallback = true;
  // Sending-list order; kTheorem1 is DCRD, the others are ablations.
  OrderingPolicy ordering = OrderingPolicy::kTheorem1;
};

// Per-node routing state toward one subscriber.
struct NodeTables {
  DR dr;                           // <d_X, r_X>
  std::vector<ViaEntry> primary;   // the sending list (Theorem-1 order)
  std::vector<ViaEntry> fallback;  // best-effort extension (Theorem-1 order)
};

// All per-node state for one (publisher, subscriber, deadline) destination.
struct DestinationTables {
  NodeId subscriber;
  double deadline_us = 0.0;             // D_PS
  std::vector<double> budget_us;        // D_XS per node (-inf if P can't reach X)
  std::vector<NodeTables> per_node;
  int sweeps_used = 0;
  bool converged = false;
};

// The <d,r> kernel for one (graph, view, config): everything that does not
// depend on the destination is computed once and shared by Compute calls.
//  * Eq. 1 is applied once per link at construction (the lifted-link table).
//  * The sweep order (Dijkstra from the subscriber) and the unconstrained
//    fixed point behind the fallback lists depend only on the subscriber.
//    The kernel keeps them for the last subscriber it saw, so a caller that
//    feeds all of a subscriber's destinations in a row solves them once.
//  * Eligible lists are built in reused scratch, and Compute writes into a
//    caller-owned DestinationTables, so a slot recycled from the previous
//    epoch keeps its buffers.
// Every step is a pure function of the same inputs as the per-call
// algorithm it replaced, so the output is bit-identical to it wherever the
// ordering policy is a strict weak ordering on the list (DESIGN §8.2).
class DrKernel {
 public:
  DrKernel(const Graph& graph, const MonitoredView& view,
           const DrComputationConfig& config);

  // Overwrites every field of `out` with the tables toward `subscriber`.
  // `publisher_dist_us` is as for ComputeDestinationTables.
  void Compute(NodeId subscriber, double deadline_us,
               const std::vector<double>& publisher_dist_us,
               DestinationTables& out);

 private:
  // Makes order_ and free_dr_ current for `subscriber`.
  void Prepare(NodeId subscriber);
  // Synchronous Gauss–Seidel sweeps to the <d,r> fixed point under the
  // per-node budgets, into `dr`. Returns {sweeps used, converged}.
  std::pair<int, bool> SolveFixedPoint(NodeId subscriber,
                                       const std::vector<double>& budget_us,
                                       const std::vector<std::uint32_t>& order,
                                       std::vector<DR>& dr);
  // X's eligible entries (neighbours with d_i < budget, lifted across the
  // link) into `out`, sorted under the configured ordering policy.
  void CollectEligible(const std::vector<DR>& dr, NodeId x, double budget_us,
                       std::vector<ViaEntry>& out) const;

  const Graph& graph_;
  const MonitoredView& view_;
  DrComputationConfig config_;
  std::vector<LinkModel> lifted_;      // Eq. 1 per LinkId
  NodeId prepared_;                    // subscriber of order_ and free_dr_
  std::vector<std::uint32_t> order_;  // sweep order, closest first
  std::vector<DR> free_dr_;            // unconstrained fixed point
  std::vector<double> no_budget_;      // +infinity everywhere
  std::vector<DR> dr_;                 // constrained fixed point scratch
  std::vector<ViaEntry> eligible_;     // sweep and list scratch
};

// `publisher_dist_us[x]` is the monitored shortest delay from the publisher
// to node x (infinity when unreachable); the caller computes it once per
// topic and shares it across that topic's subscribers. One-shot wrapper
// over DrKernel.
DestinationTables ComputeDestinationTables(
    const Graph& graph, const MonitoredView& view, NodeId subscriber,
    double deadline_us, const std::vector<double>& publisher_dist_us,
    const DrComputationConfig& config);

// Monitored shortest delay from `source` to every node, in microseconds
// (infinity when unreachable) — the helper for both D_XS budgets and sweep
// ordering.
std::vector<double> MonitoredDistancesFrom(const Graph& graph,
                                           const MonitoredView& view,
                                           NodeId source);

}  // namespace dcrd
