#include "dcrd/dr.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace dcrd {
namespace {

ViaEntry Entry(std::uint32_t id, double d, double r) {
  return ViaEntry{NodeId(id), LinkId(id), d, r};
}

TEST(LiftAcrossLinkTest, AppliesEquationTwo) {
  // Eq. 2: d_via = alpha^(m) + d_i, r_via = gamma^(m) * r_i.
  const LinkModel link{12'000.0, 0.8};
  const DR dr_i{30'000.0, 0.9};
  const ViaEntry entry = LiftAcrossLink(NodeId(4), LinkId(2), link, dr_i);
  EXPECT_DOUBLE_EQ(entry.d_via_us, 42'000.0);
  EXPECT_DOUBLE_EQ(entry.r_via, 0.72);
  EXPECT_EQ(entry.neighbor, NodeId(4));
  EXPECT_EQ(entry.link, LinkId(2));
}

TEST(CombineOrderedTest, SingleEntry) {
  const DR dr = CombineOrdered({Entry(1, 10'000, 0.5)});
  EXPECT_DOUBLE_EQ(dr.d_us, 10'000.0);
  EXPECT_DOUBLE_EQ(dr.r, 0.5);
}

TEST(CombineOrderedTest, TwoEntriesMatchHandComputation) {
  // Eq. 3 by hand: d = [d1 r1 + (d1+d2)(1-r1) r2] / [1-(1-r1)(1-r2)].
  const double d1 = 10'000, r1 = 0.6, d2 = 20'000, r2 = 0.5;
  const DR dr = CombineOrdered({Entry(1, d1, r1), Entry(2, d2, r2)});
  const double expected_r = 1 - (1 - r1) * (1 - r2);
  const double expected_d =
      (d1 * r1 + (d1 + d2) * (1 - r1) * r2) / expected_r;
  EXPECT_NEAR(dr.r, expected_r, 1e-12);
  EXPECT_NEAR(dr.d_us, expected_d, 1e-9);
}

TEST(CombineOrderedTest, EmptyListUnreachable) {
  const DR dr = CombineOrdered({});
  EXPECT_FALSE(dr.reachable());
  EXPECT_TRUE(std::isinf(dr.d_us));
}

TEST(CombineOrderedTest, OrderDoesNotChangeR) {
  // Section III-C: "the ordering of the nodes on the list does not affect
  // the delivery ratio r_X".
  std::vector<ViaEntry> entries = {Entry(1, 10'000, 0.3), Entry(2, 5'000, 0.7),
                                   Entry(3, 50'000, 0.9)};
  const DR forward = CombineOrdered(entries);
  std::reverse(entries.begin(), entries.end());
  const DR backward = CombineOrdered(entries);
  EXPECT_NEAR(forward.r, backward.r, 1e-12);
  EXPECT_NE(forward.d_us, backward.d_us);
}

TEST(CombineOrderedTest, SkipsUnreachableEntries) {
  const DR with_dead = CombineOrdered(
      {Entry(1, 10'000, 0.5), Entry(2, kInfiniteDelay, 0.0)});
  const DR without = CombineOrdered({Entry(1, 10'000, 0.5)});
  EXPECT_DOUBLE_EQ(with_dead.d_us, without.d_us);
  EXPECT_DOUBLE_EQ(with_dead.r, without.r);
}

TEST(CombineOrderedTest, RNeverExceedsOne) {
  Rng rng(5);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<ViaEntry> entries;
    const int n = static_cast<int>(rng.NextInRange(1, 8));
    for (int i = 0; i < n; ++i) {
      entries.push_back(Entry(static_cast<std::uint32_t>(i),
                              rng.NextDoubleInRange(1'000, 90'000),
                              rng.NextDoubleInRange(0.01, 1.0)));
    }
    const DR dr = CombineOrdered(entries);
    EXPECT_GT(dr.r, 0.0);
    EXPECT_LE(dr.r, 1.0 + 1e-12);
    EXPECT_GE(dr.d_us, entries.front().d_via_us - 1e-9);
  }
}

TEST(CombineOrderedTest, PerfectFirstEntryShadowsRest) {
  // r1 = 1: later entries contribute nothing.
  const DR dr =
      CombineOrdered({Entry(1, 10'000, 1.0), Entry(2, 1'000, 0.9)});
  EXPECT_DOUBLE_EQ(dr.d_us, 10'000.0);
  EXPECT_DOUBLE_EQ(dr.r, 1.0);
}

TEST(SortByTheorem1Test, SortsByDOverR) {
  // d/r keys: 20k/0.4=50k, 30k/0.9≈33.3k, 10k/0.25=40k → order 2,3,1.
  std::vector<ViaEntry> entries = {Entry(1, 20'000, 0.4),
                                   Entry(2, 30'000, 0.9),
                                   Entry(3, 10'000, 0.25)};
  SortByTheorem1(entries);
  EXPECT_EQ(entries[0].neighbor, NodeId(2));
  EXPECT_EQ(entries[1].neighbor, NodeId(3));
  EXPECT_EQ(entries[2].neighbor, NodeId(1));
}

TEST(SortByTheorem1Test, TieBreaksByNeighborId) {
  std::vector<ViaEntry> entries = {Entry(5, 10'000, 0.5),
                                   Entry(2, 20'000, 1.0)};
  SortByTheorem1(entries);  // equal d/r = 20k
  EXPECT_EQ(entries[0].neighbor, NodeId(2));
  EXPECT_EQ(entries[1].neighbor, NodeId(5));
}

TEST(SortByTheorem1Test, UnreachableEntriesGoLast) {
  std::vector<ViaEntry> entries = {Entry(1, kInfiniteDelay, 0.0),
                                   Entry(2, 10'000, 0.5),
                                   Entry(3, 5'000, 0.0)};
  SortByTheorem1(entries);
  EXPECT_EQ(entries[0].neighbor, NodeId(2));
  // The two dead entries keep relative order (stable partition).
  EXPECT_EQ(entries[1].neighbor, NodeId(1));
  EXPECT_EQ(entries[2].neighbor, NodeId(3));
}

TEST(SortByTheorem1Test, SortedOrderMinimizesAmongAdjacentSwaps) {
  // The proof's exchange argument: swapping any adjacent pair of the sorted
  // order cannot decrease d.
  Rng rng(8);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<ViaEntry> entries;
    const int n = static_cast<int>(rng.NextInRange(2, 7));
    for (int i = 0; i < n; ++i) {
      entries.push_back(Entry(static_cast<std::uint32_t>(i),
                              rng.NextDoubleInRange(1'000, 90'000),
                              rng.NextDoubleInRange(0.05, 1.0)));
    }
    SortByTheorem1(entries);
    const double best = CombineOrdered(entries).d_us;
    for (int k = 0; k + 1 < n; ++k) {
      auto swapped = entries;
      std::swap(swapped[k], swapped[k + 1]);
      EXPECT_GE(CombineOrdered(swapped).d_us, best - 1e-6);
    }
  }
}

}  // namespace
}  // namespace dcrd
