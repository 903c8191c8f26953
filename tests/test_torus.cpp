#include "radiobcast/grid/torus.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>

namespace rbcast {
namespace {

TEST(Torus, RejectsNonPositiveDimensions) {
  EXPECT_THROW(Torus(0, 5), std::invalid_argument);
  EXPECT_THROW(Torus(5, -1), std::invalid_argument);
}

TEST(Torus, WrapCanonicalizes) {
  const Torus t(10, 8);
  EXPECT_EQ(t.wrap({0, 0}), (Coord{0, 0}));
  EXPECT_EQ(t.wrap({10, 8}), (Coord{0, 0}));
  EXPECT_EQ(t.wrap({-1, -1}), (Coord{9, 7}));
  EXPECT_EQ(t.wrap({23, -17}), (Coord{3, 7}));
}

TEST(Torus, IndexRoundTrip) {
  const Torus t(7, 5);
  for (std::int32_t i = 0; i < t.node_count(); ++i) {
    EXPECT_EQ(t.index(t.coord(i)), i);
  }
}

TEST(Torus, IndexOfWrappedCoord) {
  const Torus t(7, 5);
  EXPECT_EQ(t.index({-1, 0}), t.index({6, 0}));
  EXPECT_EQ(t.index({0, -1}), t.index({0, 4}));
}

TEST(Torus, DeltaIsMinimal) {
  const Torus t(10, 10);
  EXPECT_EQ(t.delta({0, 0}, {1, 0}), (Offset{1, 0}));
  EXPECT_EQ(t.delta({0, 0}, {9, 0}), (Offset{-1, 0}));
  EXPECT_EQ(t.delta({0, 0}, {0, 9}), (Offset{0, -1}));
  EXPECT_EQ(t.delta({9, 9}, {0, 0}), (Offset{1, 1}));
  // Exactly half the dimension: convention picks +dim/2.
  EXPECT_EQ(t.delta({0, 0}, {5, 0}), (Offset{5, 0}));
  EXPECT_EQ(t.delta({0, 0}, {0, 5}), (Offset{0, 5}));
}

TEST(Torus, DeltaAntisymmetricOffHalf) {
  const Torus t(11, 9);
  const Coord a{2, 3}, b{9, 7};
  const Offset d = t.delta(a, b);
  EXPECT_EQ(t.delta(b, a), -d);
  EXPECT_EQ(t.wrap(a + d), b);
}

TEST(Torus, DeltaComponentsWithinHalf) {
  const Torus t(12, 10);
  for (const Coord a : t.all_coords()) {
    const Offset d = t.delta({0, 0}, a);
    EXPECT_GT(d.dx, -6);
    EXPECT_LE(d.dx, 6);
    EXPECT_GT(d.dy, -5);
    EXPECT_LE(d.dy, 5);
  }
}

TEST(Torus, WithinAcrossSeam) {
  const Torus t(20, 20);
  EXPECT_TRUE(t.within({0, 0}, {19, 19}, 1, Metric::kLInf));
  EXPECT_TRUE(t.within({0, 0}, {18, 0}, 2, Metric::kLInf));
  EXPECT_FALSE(t.within({0, 0}, {17, 0}, 2, Metric::kLInf));
  EXPECT_TRUE(t.within({0, 0}, {19, 0}, 1, Metric::kL2));
  EXPECT_FALSE(t.within({0, 0}, {19, 19}, 1, Metric::kL2));
}

TEST(Torus, AllCoordsMatchesIndexOrder) {
  const Torus t(4, 3);
  const auto all = t.all_coords();
  ASSERT_EQ(all.size(), 12u);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(t.index(all[i]), static_cast<std::int32_t>(i));
  }
}

TEST(Torus, ModFloorFastPathMatchesDivision) {
  // wrap() is the floor modulus per component. It skips the division for
  // values in range or one period out; compare it with the division form
  // over three periods each way and at the int32 extremes.
  const auto division = [](std::int32_t v, std::int32_t m) {
    const std::int32_t r = v % m;
    return r < 0 ? r + m : r;
  };
  for (const std::int32_t m : {1, 2, 7, 12, 1024, 1 << 20}) {
    const Torus t(m, m);
    int mismatches = 0;
    const auto check = [&](std::int32_t v) {
      const Coord w = t.wrap({v, v});
      if (w.x == division(v, m) && w.y == division(v, m)) return;
      if (++mismatches <= 5) {
        ADD_FAILURE() << "m=" << m << " v=" << v << ": got " << w.x << ","
                      << w.y << ", want " << division(v, m);
      }
    };
    check(std::numeric_limits<std::int32_t>::min());
    check(std::numeric_limits<std::int32_t>::max());
    for (std::int32_t v = -3 * m; v <= 3 * m; ++v) check(v);
    EXPECT_EQ(mismatches, 0) << "m=" << m;
  }
}

TEST(Torus, NodeCount) {
  EXPECT_EQ(Torus(20, 30).node_count(), 600);
  EXPECT_EQ(Torus(1, 1).node_count(), 1);
}

}  // namespace
}  // namespace rbcast
