#include "radiobcast/fault/placement.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "radiobcast/core/analysis.h"
#include "radiobcast/grid/neighborhood.h"

namespace rbcast {
namespace {

constexpr Coord kSource{0, 0};

/// `band` alone, with its left column at x_lo.
FaultSet band_at(const Torus& torus, const PeriodicBand& band,
                 std::int32_t x_lo) {
  FaultSet out;
  place_band(out, torus, band, x_lo, kSource);
  return out;
}

/// The whole-torus form of trim_to_budget, the reference its scan of the
/// centers near a fault must match: before each removal, count the closed
/// neighborhood of every center of the torus and take the first worst one in
/// row-major order.
void trim_whole_torus(FaultSet& faults, const Torus& torus, std::int32_t r,
                      Metric m, std::int64_t t) {
  const auto& table = NeighborhoodTable::get(r, m);
  while (true) {
    std::int64_t worst_count = t;
    Coord worst_center{};
    bool found = false;
    for (const Coord c : torus.all_coords()) {
      std::int64_t count = faults.contains(c) ? 1 : 0;
      for (const Offset o : table.offsets()) {
        if (faults.contains(torus.wrap(c + o))) ++count;
      }
      if (count > worst_count) {
        worst_count = count;
        worst_center = c;
        found = true;
      }
    }
    if (!found) return;
    Coord victim{};
    bool have_victim = false;
    if (faults.contains(worst_center)) {
      victim = worst_center;
      have_victim = true;
    } else {
      std::vector<Coord> members;
      for (const Offset o : table.offsets()) {
        const Coord c = torus.wrap(worst_center + o);
        if (faults.contains(c)) members.push_back(c);
      }
      std::sort(members.begin(), members.end());
      if (!members.empty()) {
        victim = members.front();
        have_victim = true;
      }
    }
    if (!have_victim) return;
    faults.remove(torus, victim);
  }
}

/// random_bounded as it was before it skipped settled nodes, the reference
/// its output and RNG use must match: every draw that is not the excluded
/// node or a fault recounts the drawn node's closed neighborhood.
FaultSet random_bounded_reference(const Torus& torus, std::int32_t r,
                                  Metric m, std::int64_t t,
                                  std::int64_t target, std::int64_t attempts,
                                  Rng& rng, Coord exclude) {
  FaultSet out;
  const Coord excl = torus.wrap(exclude);
  const auto& table = NeighborhoodTable::get(r, m);
  std::vector<std::int64_t> counts(
      static_cast<std::size_t>(torus.node_count()), 0);
  auto can_add = [&](Coord f) {
    if (counts[static_cast<std::size_t>(torus.index(f))] + 1 > t) return false;
    for (const Offset o : table.offsets()) {
      const Coord c = torus.wrap(f + o);
      if (counts[static_cast<std::size_t>(torus.index(c))] + 1 > t) {
        return false;
      }
    }
    return true;
  };
  auto apply_add = [&](Coord f) {
    counts[static_cast<std::size_t>(torus.index(f))] += 1;
    for (const Offset o : table.offsets()) {
      counts[static_cast<std::size_t>(torus.index(torus.wrap(f + o)))] += 1;
    }
  };
  for (std::int64_t i = 0;
       i < attempts && static_cast<std::int64_t>(out.size()) < target; ++i) {
    const auto idx =
        static_cast<std::int32_t>(rng.below(
            static_cast<std::uint64_t>(torus.node_count())));
    const Coord c = torus.coord(idx);
    if (c == excl || out.contains(c)) continue;
    if (!can_add(c)) continue;
    out.add(torus, c);
    apply_add(c);
  }
  return out;
}

TEST(Placement, FullStripCoversAllRows) {
  const Torus torus(20, 20);
  const FaultSet f = band_at(torus, full_band(2), 8);
  EXPECT_EQ(f.size(), 40u);
  EXPECT_TRUE(f.contains({8, 0}));
  EXPECT_TRUE(f.contains({9, 19}));
  EXPECT_FALSE(f.contains({10, 0}));
}

TEST(Placement, FullStripExcludesSource) {
  const Torus torus(20, 20);
  const FaultSet f = band_at(torus, full_band(2), 0);
  EXPECT_FALSE(f.contains({0, 0}));
  EXPECT_EQ(f.size(), 39u);
}

TEST(Placement, FullStripWorstNeighborhoodIsExactlyTheorem4) {
  for (std::int32_t r = 1; r <= 3; ++r) {
    const Torus torus(8 * r + 4, 8 * r + 4);
    const FaultSet f = band_at(torus, full_band(r), 4 * r);
    EXPECT_EQ(max_closed_nbd_faults(torus, f, r, Metric::kLInf),
              r_2r_plus_1(r))
        << "r=" << r;
  }
}

TEST(Placement, PuncturedStripSatisfiesBoundJustBelowTheorem4) {
  for (std::int32_t r = 1; r <= 3; ++r) {
    const Torus torus(8 * r + 4, (2 * r + 1) * 4);  // height multiple of period
    const FaultSet f = band_at(torus, punctured_band(r), 4 * r);
    EXPECT_EQ(max_closed_nbd_faults(torus, f, r, Metric::kLInf),
              r_2r_plus_1(r) - 1)
        << "r=" << r;
  }
}

TEST(Placement, PuncturedStripRemovesExpectedNodes) {
  const Torus torus(20, 20);
  const FaultSet f = band_at(torus, punctured_band(2), 8);
  EXPECT_FALSE(f.contains({8, 0}));
  EXPECT_FALSE(f.contains({8, 5}));
  EXPECT_TRUE(f.contains({8, 1}));
  EXPECT_TRUE(f.contains({9, 0}));  // punctures only the first column
}

TEST(Placement, CheckerboardStripIsHalfDensity) {
  const Torus torus(20, 20);
  const FaultSet f = band_at(torus, checkerboard_band(torus, 8, 2), 8);
  EXPECT_EQ(f.size(), 20u);  // half of 40
  for (const Coord c : f.sorted()) {
    EXPECT_EQ((c.x + c.y) % 2, 0);
    EXPECT_GE(c.x, 8);
    EXPECT_LE(c.x, 9);
  }
}

TEST(Placement, CheckerboardWorstNeighborhoodIsKooImpossibilityBudget) {
  // The paper's Fig 13 arrangement: the worst closed neighborhood of a
  // half-density width-r strip holds exactly ceil(r(2r+1)/2) faults — the
  // Byzantine impossibility budget.
  for (std::int32_t r = 1; r <= 4; ++r) {
    const Torus torus(8 * r + 4, 8 * r + 4);
    const FaultSet f =
        band_at(torus, checkerboard_band(torus, 4 * r, r), 4 * r);
    EXPECT_EQ(max_closed_nbd_faults(torus, f, r, Metric::kLInf),
              byz_linf_impossible_min(r))
        << "r=" << r;
  }
}

TEST(Placement, StripWidthValidation) {
  // A malformed band throws before it adds a fault.
  const Torus torus(10, 10);
  const std::vector<PeriodicBand> malformed = {
      full_band(0),                        // width 0
      full_band(10),                       // width = torus width
      punctured_band(0),                   // width 0
      {2, 0, {}},                          // period 0
      {2, 1, std::vector<bool>(3, true)},  // 3 cells for a 2 x 1 mask
      {2, 3, std::vector<bool>(5, true)},  // 5 cells for a 2 x 3 mask
  };
  for (std::size_t i = 0; i < malformed.size(); ++i) {
    FaultSet f(torus, {{5, 5}});
    EXPECT_THROW(place_band(f, torus, malformed[i], 0, kSource),
                 std::invalid_argument)
        << "band " << i;
    EXPECT_EQ(f.sorted(), (std::vector<Coord>{{5, 5}})) << "band " << i;
  }
}

TEST(Placement, StripWrapsAcrossSeam) {
  const Torus torus(10, 10);
  const FaultSet f = band_at(torus, full_band(2), 9);  // columns 9 and 0
  EXPECT_TRUE(f.contains({9, 5}));
  EXPECT_TRUE(f.contains({0, 5}));
  EXPECT_FALSE(f.contains({0, 0}));  // the source
}

TEST(Placement, RandomBoundedRespectsBound) {
  const Torus torus(20, 20);
  Rng rng(7);
  const std::int64_t t = 5;
  const FaultSet f = random_bounded(torus, 2, Metric::kLInf, t,
                                    /*target=*/400, /*attempts=*/8000, rng,
                                    kSource);
  EXPECT_GT(f.size(), 0u);
  EXPECT_LE(max_closed_nbd_faults(torus, f, 2, Metric::kLInf), t);
  EXPECT_FALSE(f.contains(kSource));
}

TEST(Placement, RandomBoundedHitsSmallTarget) {
  const Torus torus(20, 20);
  Rng rng(7);
  const FaultSet f = random_bounded(torus, 2, Metric::kLInf, 24,
                                    /*target=*/10, /*attempts=*/8000, rng,
                                    kSource);
  EXPECT_EQ(f.size(), 10u);
}

TEST(Placement, RandomBoundedZeroBudgetPlacesNothing) {
  const Torus torus(20, 20);
  Rng rng(7);
  const FaultSet f = random_bounded(torus, 2, Metric::kLInf, 0,
                                    /*target=*/10, /*attempts=*/1000, rng,
                                    kSource);
  EXPECT_TRUE(f.empty());
}

TEST(Placement, RandomBoundedIsDeterministicPerSeed) {
  const Torus torus(16, 16);
  Rng a(42), b(42), c(43);
  const auto fa = random_bounded(torus, 2, Metric::kLInf, 4, 50, 2000, a,
                                 kSource);
  const auto fb = random_bounded(torus, 2, Metric::kLInf, 4, 50, 2000, b,
                                 kSource);
  const auto fc = random_bounded(torus, 2, Metric::kLInf, 4, 50, 2000, c,
                                 kSource);
  EXPECT_EQ(fa.sorted(), fb.sorted());
  EXPECT_NE(fa.sorted(), fc.sorted());
}

TEST(Placement, RandomBoundedMatchesRecountingReference) {
  // Same faults and the same next draw: the skip of settled nodes must not
  // change which nodes are drawn, how many draws are taken, or what is kept.
  int cases = 0;
  for (std::int32_t r = 1; r <= 3; ++r) {
    const Torus torus(5 * r + 5, 4 * r + 6);
    const Coord source = torus.wrap({torus.width() - 1, 2});  // off origin
    for (const Metric m : {Metric::kLInf, Metric::kL2}) {
      const std::int64_t full = r_2r_plus_1(r);
      for (const std::int64_t t : {std::int64_t{0}, std::int64_t{1},
                                   full / 2, full}) {
        for (const std::int64_t target : {std::int64_t{5},
                                          torus.node_count()}) {
          for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            const std::int64_t attempts = torus.node_count() * 20;
            Rng fast_rng(seed);
            Rng reference_rng(seed);
            const FaultSet fast = random_bounded(torus, r, m, t, target,
                                                 attempts, fast_rng, source);
            const FaultSet reference = random_bounded_reference(
                torus, r, m, t, target, attempts, reference_rng, source);
            const std::string tag = "r=" + std::to_string(r) + " m=" +
                                    to_string(m) + " t=" + std::to_string(t) +
                                    " target=" + std::to_string(target) +
                                    " seed=" + std::to_string(seed);
            EXPECT_EQ(fast.sorted(), reference.sorted()) << tag;
            EXPECT_EQ(fast_rng(), reference_rng()) << tag;
            EXPECT_FALSE(fast.contains(source)) << tag;
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 3 * 2 * 4 * 2 * 4);
}

TEST(Placement, IidMatchesProbabilityRoughly) {
  const Torus torus(40, 40);
  Rng rng(11);
  const FaultSet f = iid_faults(torus, 0.25, rng, kSource);
  EXPECT_NEAR(static_cast<double>(f.size()) / 1599.0, 0.25, 0.05);
  EXPECT_FALSE(f.contains(kSource));
}

TEST(Placement, IidExtremes) {
  const Torus torus(10, 10);
  Rng rng(3);
  EXPECT_TRUE(iid_faults(torus, 0.0, rng, kSource).empty());
  EXPECT_EQ(iid_faults(torus, 1.0, rng, kSource).size(), 99u);
}

TEST(Placement, TrimToBudgetRepairsOverBudgetPatterns) {
  const std::int32_t r = 2;
  const Torus torus(20, 20);
  FaultSet f = band_at(torus, full_band(r), 8);  // worst nbd = r(2r+1) = 10
  trim_to_budget(f, torus, r, Metric::kLInf, 7);
  EXPECT_LE(max_closed_nbd_faults(torus, f, r, Metric::kLInf), 7);
  EXPECT_GT(f.size(), 0u);
}

TEST(Placement, TrimToBudgetNoopWhenAlreadyLegal) {
  const Torus torus(20, 20);
  FaultSet f(torus, {{5, 5}, {15, 15}});
  trim_to_budget(f, torus, 2, Metric::kLInf, 1);
  EXPECT_EQ(f.size(), 2u);
}

TEST(Placement, TrimToBudgetMatchesWholeTorusScan) {
  int trimmed = 0;  // cases that started over budget
  for (std::int32_t r = 1; r <= 3; ++r) {
    const Torus torus(5 * r + 5, 4 * r + 6);
    for (const Metric m : {Metric::kLInf, Metric::kL2}) {
      Rng rng(static_cast<std::uint64_t>(10 * r + static_cast<int>(m)));
      const std::vector<FaultSet> patterns = {
          band_at(torus, full_band(r), 2),
          band_at(torus, punctured_band(r), 2),
          band_at(torus, checkerboard_band(torus, 2, r + 1), 2),
          iid_faults(torus, 0.4, rng, kSource),
      };
      const std::int64_t full = r_2r_plus_1(r);
      for (const std::int64_t t : {std::int64_t{0}, std::int64_t{1},
                                   full / 2, full - 1}) {
        for (std::size_t p = 0; p < patterns.size(); ++p) {
          if (!satisfies_local_bound(torus, patterns[p], r, m, t)) ++trimmed;
          FaultSet fast = patterns[p];
          FaultSet reference = patterns[p];
          trim_to_budget(fast, torus, r, m, t);
          trim_whole_torus(reference, torus, r, m, t);
          EXPECT_EQ(fast.sorted(), reference.sorted())
              << "r=" << r << " m=" << to_string(m) << " t=" << t
              << " pattern=" << p;
        }
      }
    }
  }
  EXPECT_GE(trimmed, 80);
}

TEST(Placement, TrimToBudgetZeroRemovesEverything) {
  const Torus torus(16, 16);
  FaultSet f(torus, {{5, 5}, {6, 6}});
  trim_to_budget(f, torus, 2, Metric::kLInf, 0);
  EXPECT_TRUE(f.empty());
}

}  // namespace
}  // namespace rbcast
