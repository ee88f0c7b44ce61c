#include "dcrd/dr.h"

#include <algorithm>
#include <cmath>

namespace dcrd {

namespace {

// Sorts in place without scratch memory: sending lists are a node's
// degree long and rebuilt on every sweep, so the temporary buffers of
// std::stable_partition/std::stable_sort would dominate the cost. Both
// passes are stable, so the result is the one std::stable_partition +
// std::stable_sort produce under the same strict weak ordering.
template <typename Less>
void SortUsable(std::vector<ViaEntry>& entries, Less less) {
  // Unreachable entries (r == 0 or infinite d) go to the back untouched;
  // including them in the comparators would produce inf*0 = NaN and break
  // strict weak ordering.
  auto usable_end = entries.begin();
  for (auto it = entries.begin(); it != entries.end(); ++it) {
    if (!(it->r_via > 0.0 && it->d_via_us < kInfiniteDelay)) continue;
    // [usable_end, it) holds only unusable entries; shifting them up one
    // keeps their order.
    std::rotate(usable_end, it, it + 1);
    ++usable_end;
  }
  // Stable insertion sort: an entry moves left only past strictly greater
  // ones.
  for (auto it = entries.begin(); it != usable_end; ++it) {
    const ViaEntry entry = *it;
    auto hole = it;
    for (; hole != entries.begin() && less(entry, *(hole - 1)); --hole) {
      *hole = *(hole - 1);
    }
    *hole = entry;
  }
}

}  // namespace

void SortByTheorem1(std::vector<ViaEntry>& entries) {
  SortUsable(entries, [](const ViaEntry& a, const ViaEntry& b) {
    // Compares each entry's own correctly rounded quotient d/r, so every
    // entry has one key and the order is transitive even for ratios an ulp
    // apart (cross-multiplied products are not: two products can round
    // equal while a third pair does not).
    const double lhs = a.d_via_us / a.r_via;
    const double rhs = b.d_via_us / b.r_via;
    if (lhs != rhs) return lhs < rhs;
    return a.neighbor < b.neighbor;
  });
}

void SortByPolicy(std::vector<ViaEntry>& entries, OrderingPolicy policy) {
  switch (policy) {
    case OrderingPolicy::kTheorem1:
      SortByTheorem1(entries);
      return;
    case OrderingPolicy::kDelayFirst:
      SortUsable(entries, [](const ViaEntry& a, const ViaEntry& b) {
        if (a.d_via_us != b.d_via_us) return a.d_via_us < b.d_via_us;
        return a.neighbor < b.neighbor;
      });
      return;
    case OrderingPolicy::kReliabilityFirst:
      SortUsable(entries, [](const ViaEntry& a, const ViaEntry& b) {
        if (a.r_via != b.r_via) return a.r_via > b.r_via;
        return a.neighbor < b.neighbor;
      });
      return;
  }
  DCRD_CHECK(false) << "unknown ordering policy";
}

DR CombineOrdered(const std::vector<ViaEntry>& entries) {
  double prefix_delay = 0.0;  // sum_{j<=i} d_via_j
  double all_fail = 1.0;      // prod_{j<i} (1 - r_via_j)
  double numerator = 0.0;
  for (const ViaEntry& entry : entries) {
    if (!(entry.d_via_us < kInfiniteDelay) || entry.r_via <= 0.0) continue;
    prefix_delay += entry.d_via_us;
    numerator += prefix_delay * entry.r_via * all_fail;
    all_fail *= 1.0 - entry.r_via;
  }
  const double r = 1.0 - all_fail;
  if (r <= 0.0) return DR{};
  return DR{numerator / r, r};
}

}  // namespace dcrd
