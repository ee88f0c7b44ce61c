// The <d, r> algebra at the heart of DCRD (Section III-B/III-C).
//
//   d — expected delay from the moment a node holds a packet until the
//       packet reaches subscriber S, conditional on eventual delivery;
//   r — probability the node delivers to S (with expected delay d).
//
// Eq. 2 lifts a neighbour's <d_i, r_i> across the connecting link;
// Eq. 3 folds an *ordered* sending list into the node's own <d_X, r_X>;
// Theorem 1 says the fold is minimised by ordering entries ascending in
// d_via / r_via — implemented by SortByTheorem1 and verified exhaustively
// against all permutations in the tests.
#pragma once

#include <limits>
#include <vector>

#include "common/ids.h"
#include "dcrd/link_model.h"

namespace dcrd {

struct DR {
  double d_us = std::numeric_limits<double>::infinity();
  double r = 0.0;

  [[nodiscard]] bool reachable() const { return r > 0.0; }
  friend bool operator==(const DR&, const DR&) = default;
};

inline constexpr double kInfiniteDelay = std::numeric_limits<double>::infinity();

// One sending-list entry: reaching S via `neighbor`, Eq. 2 applied.
struct ViaEntry {
  NodeId neighbor;
  LinkId link;
  double d_via_us = kInfiniteDelay;  // alpha^(m) + d_i
  double r_via = 0.0;                // gamma^(m) * r_i
};

// Eq. 2: lift <d_i, r_i> across a link with m-transmission model `link_m`.
inline ViaEntry LiftAcrossLink(NodeId neighbor, LinkId link,
                               const LinkModel& link_m, const DR& dr_i) {
  return ViaEntry{neighbor, link, link_m.alpha_us + dr_i.d_us,
                  link_m.gamma * dr_i.r};
}

// Theorem 1 ordering: ascending d_via/r_via; ties broken by neighbor id so
// list construction is deterministic. Entries with r_via == 0 sort last.
void SortByTheorem1(std::vector<ViaEntry>& entries);

// Sending-list ordering policies. kTheorem1 is DCRD; the others exist for
// the ablation bench, quantifying what the proof buys in vivo:
//   kDelayFirst       — ascending expected delay d_via (what a naive
//                       implementation sorts by),
//   kReliabilityFirst — descending delivery ratio r_via.
enum class OrderingPolicy { kTheorem1, kDelayFirst, kReliabilityFirst };

// Sorts under the chosen policy (unreachable entries always go last; ties
// break by neighbor id).
void SortByPolicy(std::vector<ViaEntry>& entries, OrderingPolicy policy);

// Eq. 3 over an ordered list: the node tries entry 1 first, then entry 2,
// and so on; the numerator accumulates (sum of d up to i) * P(first success
// at i), the denominator is the overall success probability. The fold
// holds for any order; Theorem 1 says which order minimises its d.
DR CombineOrdered(const std::vector<ViaEntry>& entries);

}  // namespace dcrd
