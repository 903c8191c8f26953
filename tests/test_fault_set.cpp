#include "radiobcast/fault/fault_set.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "radiobcast/fault/placement.h"
#include "radiobcast/grid/neighborhood.h"
#include "strip_reference.h"

namespace rbcast {
namespace {

TEST(FaultSet, AddRemoveContains) {
  const Torus torus(10, 10);
  FaultSet f;
  EXPECT_TRUE(f.empty());
  EXPECT_TRUE(f.add(torus, {3, 4}));
  EXPECT_FALSE(f.add(torus, {3, 4}));
  EXPECT_TRUE(f.contains({3, 4}));
  EXPECT_EQ(f.size(), 1u);
  EXPECT_TRUE(f.remove(torus, {3, 4}));
  EXPECT_FALSE(f.remove(torus, {3, 4}));
  EXPECT_TRUE(f.empty());
}

TEST(FaultSet, CanonicalizesOnInsert) {
  const Torus torus(10, 10);
  FaultSet f;
  f.add(torus, {-1, 12});
  EXPECT_TRUE(f.contains({9, 2}));
  EXPECT_FALSE(f.add(torus, {9, 2}));  // same node
}

TEST(FaultSet, ConstructorDeduplicates) {
  const Torus torus(8, 8);
  FaultSet f(torus, {{0, 0}, {8, 8}, {1, 1}});
  EXPECT_EQ(f.size(), 2u);
}

TEST(FaultSet, SortedOrder) {
  const Torus torus(10, 10);
  FaultSet f(torus, {{5, 5}, {0, 1}, {0, 0}});
  const auto sorted = f.sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0], (Coord{0, 0}));
  EXPECT_EQ(sorted[1], (Coord{0, 1}));
  EXPECT_EQ(sorted[2], (Coord{5, 5}));
}

TEST(LocalBound, EmptySetIsZero) {
  const Torus torus(12, 12);
  EXPECT_EQ(max_closed_nbd_faults(torus, FaultSet{}, 2, Metric::kLInf), 0);
  EXPECT_TRUE(satisfies_local_bound(torus, FaultSet{}, 2, Metric::kLInf, 0));
}

TEST(LocalBound, SingleFaultCountsInItsOwnClosedNeighborhood) {
  const Torus torus(12, 12);
  FaultSet f(torus, {{5, 5}});
  // Worst center: any node within r of the fault, or the fault itself.
  EXPECT_EQ(max_closed_nbd_faults(torus, f, 2, Metric::kLInf), 1);
  EXPECT_TRUE(satisfies_local_bound(torus, f, 2, Metric::kLInf, 1));
  EXPECT_FALSE(satisfies_local_bound(torus, f, 2, Metric::kLInf, 0));
}

TEST(LocalBound, ClusterCountsFully) {
  const Torus torus(14, 14);
  // A 2x2 block of faults, r=1 (L∞): center adjacent to all four sees 4;
  // each faulty node's own closed neighborhood also holds all 4.
  FaultSet f(torus, {{5, 5}, {6, 5}, {5, 6}, {6, 6}});
  EXPECT_EQ(max_closed_nbd_faults(torus, f, 1, Metric::kLInf), 4);
}

TEST(LocalBound, ClosedNeighborhoodSemantics) {
  // Paper: a faulty node may have up to t-1 faulty neighbors. Two adjacent
  // faults mean some closed neighborhood holds 2 — so t=1 must be violated.
  const Torus torus(12, 12);
  FaultSet f(torus, {{3, 3}, {4, 3}});
  EXPECT_FALSE(satisfies_local_bound(torus, f, 1, Metric::kLInf, 1));
  EXPECT_TRUE(satisfies_local_bound(torus, f, 1, Metric::kLInf, 2));
}

TEST(LocalBound, FarApartFaultsDoNotAccumulate) {
  const Torus torus(20, 20);
  // Distance > 2r apart: no closed neighborhood holds both.
  FaultSet f(torus, {{0, 0}, {10, 10}});
  EXPECT_EQ(max_closed_nbd_faults(torus, f, 2, Metric::kLInf), 1);
}

TEST(LocalBound, ExactlyTwoRApartAccumulates) {
  const Torus torus(20, 20);
  // Distance exactly 2r: the midpoint's neighborhood holds both.
  FaultSet f(torus, {{0, 0}, {4, 0}});
  EXPECT_EQ(max_closed_nbd_faults(torus, f, 2, Metric::kLInf), 2);
}

TEST(LocalBound, L2MetricRespectsCircles) {
  const Torus torus(20, 20);
  // (0,0) and (3,4) are exactly 5 apart; with r=5 some closed nbd holds both
  // (e.g. centered at either one); with r=2 none does.
  FaultSet f(torus, {{0, 0}, {3, 4}});
  EXPECT_EQ(max_closed_nbd_faults(torus, f, 5, Metric::kL2), 2);
  EXPECT_EQ(max_closed_nbd_faults(torus, f, 2, Metric::kL2), 1);
}

TEST(LocalBound, WrapsAroundTheSeam) {
  const Torus torus(12, 12);
  FaultSet f(torus, {{0, 0}, {11, 0}});  // adjacent across the seam
  EXPECT_EQ(max_closed_nbd_faults(torus, f, 1, Metric::kLInf), 2);
}

TEST(LocalBound, FullStripWorstCase) {
  // Theorem 4 sanity: a full vertical strip of width r has exactly r(2r+1)
  // faults in the worst closed neighborhood.
  const std::int32_t r = 2;
  const Torus torus(20, 20);
  FaultSet f;
  for (std::int32_t x = 8; x < 8 + r; ++x) {
    for (std::int32_t y = 0; y < 20; ++y) f.add(torus, {x, y});
  }
  EXPECT_EQ(max_closed_nbd_faults(torus, f, r, Metric::kLInf),
            static_cast<std::int64_t>(r) * (2 * r + 1));
}

/// The validator's definition, counted over every center of the torus: the
/// center itself if faulty, plus one for each offset that lands on a fault
/// (offsets that wrap onto one node count once each).
std::int64_t max_closed_nbd_faults_whole_torus(const Torus& torus,
                                               const FaultSet& faults,
                                               std::int32_t r, Metric m) {
  const auto& table = NeighborhoodTable::get(r, m);
  std::int64_t best = 0;
  for (const Coord c : torus.all_coords()) {
    std::int64_t count = faults.contains(c) ? 1 : 0;
    for (const Offset o : table.offsets()) {
      if (faults.contains(torus.wrap(c + o))) ++count;
    }
    best = std::max(best, count);
  }
  return best;
}

TEST(LocalBound, MatchesWholeTorusCount) {
  // Small tori where a neighborhood covers the torus (5x5 at r = 2) or two
  // offsets wrap onto one node (4x4 and 3x5 at r = 2, 2x3 at r = 1), larger
  // ones, and strips across the seam.
  struct Shape {
    std::int32_t width, height, r;
  };
  const std::vector<Shape> shapes = {{2, 3, 1}, {4, 4, 1},  {3, 5, 2},
                                     {4, 4, 2}, {5, 5, 2},  {7, 6, 3},
                                     {12, 10, 2}, {16, 14, 3}};
  int cases = 0;
  for (const Shape& s : shapes) {
    const Torus torus(s.width, s.height);
    const Coord source{1, 1};
    for (const Metric m : {Metric::kLInf, Metric::kL2}) {
      Rng rng(static_cast<std::uint64_t>(100 * s.width + 10 * s.height + s.r));
      std::vector<FaultSet> patterns = {
          FaultSet{},
          FaultSet(torus, {{0, 0}}),
          FaultSet(torus, {{0, 0}, {s.width - 1, s.height - 1}}),
          iid_faults(torus, 0.2, rng, source),
          iid_faults(torus, 0.6, rng, source),
          iid_faults(torus, 1.0, rng, source),
      };
      if (s.width >= 3) {
        patterns.push_back(
            strip_reference::full_strip(torus, s.width - 1, 2, source));
        patterns.push_back(strip_reference::checkerboard_strip(
            torus, s.width - 1, 2, 1, source));
      }
      for (std::size_t p = 0; p < patterns.size(); ++p) {
        EXPECT_EQ(max_closed_nbd_faults(torus, patterns[p], s.r, m),
                  max_closed_nbd_faults_whole_torus(torus, patterns[p], s.r,
                                                    m))
            << s.width << "x" << s.height << " r=" << s.r
            << " m=" << to_string(m) << " pattern=" << p;
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 2 * (6 + 7 * 8));
}

}  // namespace
}  // namespace rbcast
