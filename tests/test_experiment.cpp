#include "radiobcast/core/experiment.h"

#include <gtest/gtest.h>

#include "radiobcast/core/analysis.h"
#include "strip_reference.h"

namespace rbcast {
namespace {

/// A strip preset as make_faults places it, untrimmed.
FaultSet strip_preset(PlacementKind kind, const Torus& torus, std::int32_t r,
                      Coord source) {
  PlacementConfig placement;
  placement.kind = kind;
  placement.trim = false;
  Rng rng(1);
  return make_faults(placement, torus, r, Metric::kLInf, /*t=*/0, source, rng);
}

/// The same preset from the old strip generators: one strip at W/4 and one
/// at 3W/4, the second merged into the first.
FaultSet reference_preset(PlacementKind kind, const Torus& torus,
                          std::int32_t r, Coord source) {
  FaultSet out;
  for (const std::int32_t x : {torus.width() / 4, 3 * torus.width() / 4}) {
    const FaultSet strip =
        kind == PlacementKind::kFullStrip
            ? strip_reference::full_strip(torus, x, r, source)
        : kind == PlacementKind::kPuncturedStrip
            ? strip_reference::punctured_strip(torus, x, r, 2 * r + 1, source)
            : strip_reference::checkerboard_strip(torus, x, r, 0, source);
    for (const Coord c : strip.sorted()) out.add(torus, c);
  }
  return out;
}

TEST(MakeFaults, NonePlacesNothing) {
  const Torus torus(20, 20);
  Rng rng(1);
  PlacementConfig placement;
  placement.kind = PlacementKind::kNone;
  EXPECT_TRUE(
      make_faults(placement, torus, 2, Metric::kLInf, 5, {0, 0}, rng).empty());
}

TEST(MakeFaults, DefaultStripPositionsAreTwoStrips) {
  const Torus torus(20, 20);
  Rng rng(1);
  PlacementConfig placement;
  placement.kind = PlacementKind::kFullStrip;
  placement.trim = false;
  const FaultSet f =
      make_faults(placement, torus, 2, Metric::kLInf, 10, {0, 0}, rng);
  // Strips of width r=2 at x=5 and x=15, full height.
  EXPECT_EQ(f.size(), 80u);
  EXPECT_TRUE(f.contains({5, 0}));
  EXPECT_TRUE(f.contains({6, 10}));
  EXPECT_TRUE(f.contains({15, 19}));
  EXPECT_FALSE(f.contains({10, 10}));
}

TEST(MakeFaults, TrimEnforcesBudget) {
  const Torus torus(20, 20);
  Rng rng(1);
  PlacementConfig placement;
  placement.kind = PlacementKind::kFullStrip;
  placement.trim = true;
  const std::int64_t t = 7;
  const FaultSet f =
      make_faults(placement, torus, 2, Metric::kLInf, t, {0, 0}, rng);
  EXPECT_LE(max_closed_nbd_faults(torus, f, 2, Metric::kLInf), t);
}

TEST(MakeFaults, CheckerboardIsLegalAtImpossibilityBudgetUntrimmed) {
  const Torus torus(20, 20);
  Rng rng(1);
  PlacementConfig placement;
  placement.kind = PlacementKind::kCheckerboardStrip;
  placement.trim = false;
  const FaultSet f = make_faults(placement, torus, 2, Metric::kLInf,
                                 byz_linf_impossible_min(2), {0, 0}, rng);
  EXPECT_EQ(max_closed_nbd_faults(torus, f, 2, Metric::kLInf),
            byz_linf_impossible_min(2));
}

TEST(MakeFaults, StripPresetsMatchOldGenerators) {
  // Every W in [r + 1, 44] (below 4r + 2 the strips can overlap, and on an
  // odd width the second one can wrap past the last column) and every H in
  // [4r + 2, 44], with the source at (0, 0), in the first strip's last
  // column and last row, and on the second strip's punctured cell.
  int cases = 0;
  int mixed_parity = 0;  // tori whose two strips start on columns of
                         // different parity
  for (std::int32_t r = 1; r <= 5; ++r) {
    for (std::int32_t w = r + 1; w <= 44; ++w) {
      for (std::int32_t h = 4 * r + 2; h <= 44; ++h) {
        const Torus torus(w, h);
        if ((w / 4) % 2 != (3 * w / 4) % 2) ++mixed_parity;
        const Coord sources[] = {
            {0, 0}, {w / 4 + r - 1, h - 1}, {3 * w / 4, 0}};
        for (const Coord source : sources) {
          for (const PlacementKind kind :
               {PlacementKind::kFullStrip, PlacementKind::kPuncturedStrip,
                PlacementKind::kCheckerboardStrip}) {
            EXPECT_EQ(strip_preset(kind, torus, r, source).sorted(),
                      reference_preset(kind, torus, r, source).sorted())
                << to_string(kind) << " r=" << r << " " << w << "x" << h
                << " source=(" << source.x << "," << source.y << ")";
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 57555);
  EXPECT_GT(mixed_parity, 0);
}

TEST(MakeFaults, CheckerboardPhaseFollowsEachStripsColumn) {
  // W = 10, r = 2: the strips start at columns 2 and 7, of different parity.
  // Both keep the cells with x + y even, so a mask whose phase ignored its
  // column would fault (7, 0) and spare (7, 1).
  const Torus torus(10, 12);
  const FaultSet f =
      strip_preset(PlacementKind::kCheckerboardStrip, torus, 2, {0, 0});
  EXPECT_EQ(f.sorted(),
            reference_preset(PlacementKind::kCheckerboardStrip, torus, 2,
                             {0, 0})
                .sorted());
  EXPECT_EQ(f.size(), 24u);  // two strips of 2 x 12, half of each
  EXPECT_TRUE(f.contains({2, 0}));
  EXPECT_TRUE(f.contains({3, 1}));
  EXPECT_TRUE(f.contains({7, 1}));
  EXPECT_FALSE(f.contains({7, 0}));
  EXPECT_TRUE(f.contains({8, 0}));
}

TEST(MakeFaults, IidUsesProbability) {
  const Torus torus(20, 20);
  Rng rng(5);
  PlacementConfig placement;
  placement.kind = PlacementKind::kIid;
  placement.iid_p = 0.5;
  const FaultSet f =
      make_faults(placement, torus, 2, Metric::kLInf, 0, {0, 0}, rng);
  EXPECT_NEAR(static_cast<double>(f.size()), 200.0, 60.0);
}

TEST(MakeFaults, RandomBoundedHonorsTarget) {
  const Torus torus(20, 20);
  Rng rng(5);
  PlacementConfig placement;
  placement.kind = PlacementKind::kRandomBounded;
  placement.random_target = 7;
  const FaultSet f =
      make_faults(placement, torus, 2, Metric::kLInf, 24, {0, 0}, rng);
  EXPECT_EQ(f.size(), 7u);
}

TEST(RunRepeated, AggregatesAcrossSeeds) {
  SimConfig cfg;
  cfg.width = cfg.height = 12;
  cfg.r = 1;
  cfg.protocol = ProtocolKind::kCrashFlood;
  cfg.adversary = AdversaryKind::kSilent;
  cfg.t = 2;
  cfg.seed = 7;
  PlacementConfig placement;
  placement.kind = PlacementKind::kRandomBounded;
  placement.random_target = 5;
  const Aggregate agg = run_repeated(cfg, placement, 4);
  EXPECT_EQ(agg.runs, 4);
  EXPECT_GE(agg.successes, 0);
  EXPECT_LE(agg.successes, 4);
  EXPECT_GT(agg.mean_coverage(), 0.0);
  EXPECT_LE(agg.mean_coverage(), 1.0);
  EXPECT_LE(agg.min_coverage, agg.mean_coverage());
  EXPECT_EQ(agg.wrong_total, 0);
  EXPECT_NEAR(agg.mean_fault_count(), 5.0, 0.01);
  EXPECT_LE(agg.max_nbd_faults, 2);
  EXPECT_GT(agg.mean_transmissions(), 0.0);
}

TEST(RunRepeated, DeterministicForBaseSeed) {
  SimConfig cfg;
  cfg.width = cfg.height = 12;
  cfg.r = 1;
  cfg.protocol = ProtocolKind::kBvTwoHop;
  cfg.t = 1;
  cfg.seed = 99;
  PlacementConfig placement;
  placement.kind = PlacementKind::kRandomBounded;
  placement.random_target = 4;
  const Aggregate a = run_repeated(cfg, placement, 3);
  const Aggregate b = run_repeated(cfg, placement, 3);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_DOUBLE_EQ(a.mean_coverage(), b.mean_coverage());
  EXPECT_DOUBLE_EQ(a.mean_transmissions(), b.mean_transmissions());
}

TEST(RunRepeated, AllSuccessHelper) {
  Aggregate agg;
  agg.runs = 3;
  agg.successes = 3;
  EXPECT_TRUE(agg.all_success());
  agg.successes = 2;
  EXPECT_FALSE(agg.all_success());
}

TEST(PlacementKindNames, ToString) {
  EXPECT_STREQ(to_string(PlacementKind::kNone), "none");
  EXPECT_STREQ(to_string(PlacementKind::kFullStrip), "full-strip");
  EXPECT_STREQ(to_string(PlacementKind::kPuncturedStrip), "punctured-strip");
  EXPECT_STREQ(to_string(PlacementKind::kCheckerboardStrip),
               "checkerboard-strip");
  EXPECT_STREQ(to_string(PlacementKind::kRandomBounded), "random-bounded");
  EXPECT_STREQ(to_string(PlacementKind::kIid), "iid");
}

TEST(PlacementKindNames, FromStringRoundTrip) {
  for (const PlacementKind k :
       {PlacementKind::kNone, PlacementKind::kFullStrip,
        PlacementKind::kPuncturedStrip, PlacementKind::kCheckerboardStrip,
        PlacementKind::kRandomBounded, PlacementKind::kIid}) {
    const auto parsed = placement_from_string(to_string(k));
    ASSERT_TRUE(parsed.has_value()) << to_string(k);
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_FALSE(placement_from_string("no-such-placement").has_value());
  EXPECT_FALSE(placement_from_string("").has_value());
}

TEST(Aggregate, MergeOfSplitRunsEqualsUnsplitRunExactly) {
  // The merge-safety contract: because every accumulated quantity is an
  // integer sum (plus an associative min/max), splitting a repeated run at
  // any point and merging the partial aggregates reproduces the unsplit
  // aggregate bit for bit.
  SimConfig cfg;
  cfg.width = cfg.height = 12;
  cfg.r = 1;
  cfg.protocol = ProtocolKind::kCrashFlood;
  cfg.t = 2;
  cfg.seed = 321;
  PlacementConfig placement;
  placement.kind = PlacementKind::kIid;
  placement.iid_p = 0.3;

  const Aggregate whole = run_repeated(cfg, placement, 7);
  for (int split = 0; split <= 7; ++split) {
    Aggregate merged = run_repeated_range(cfg, placement, 0, split);
    merged.merge(run_repeated_range(cfg, placement, split, 7 - split));
    EXPECT_EQ(merged.runs, whole.runs) << "split=" << split;
    EXPECT_EQ(merged.successes, whole.successes) << "split=" << split;
    EXPECT_EQ(merged.correct_total, whole.correct_total) << "split=" << split;
    EXPECT_EQ(merged.honest_total, whole.honest_total) << "split=" << split;
    EXPECT_EQ(merged.wrong_total, whole.wrong_total) << "split=" << split;
    EXPECT_EQ(merged.rounds_total, whole.rounds_total) << "split=" << split;
    EXPECT_EQ(merged.transmissions_total, whole.transmissions_total)
        << "split=" << split;
    EXPECT_EQ(merged.fault_total, whole.fault_total) << "split=" << split;
    EXPECT_EQ(merged.max_nbd_faults, whole.max_nbd_faults)
        << "split=" << split;
    // Doubles too, and exactly: min is associative, the means are derived
    // from the integer sums.
    EXPECT_EQ(merged.min_coverage, whole.min_coverage) << "split=" << split;
    EXPECT_EQ(merged.mean_coverage(), whole.mean_coverage())
        << "split=" << split;
    EXPECT_EQ(merged.mean_rounds(), whole.mean_rounds()) << "split=" << split;
  }
}

TEST(Aggregate, MergeIsAssociative) {
  SimConfig cfg;
  cfg.width = cfg.height = 12;
  cfg.r = 1;
  cfg.protocol = ProtocolKind::kCrashFlood;
  cfg.t = 2;
  cfg.seed = 55;
  PlacementConfig placement;
  placement.kind = PlacementKind::kRandomBounded;
  placement.random_target = 4;
  const Aggregate a = run_repeated_range(cfg, placement, 0, 2);
  const Aggregate b = run_repeated_range(cfg, placement, 2, 3);
  const Aggregate c = run_repeated_range(cfg, placement, 5, 2);
  Aggregate ab_c = a;
  ab_c.merge(b);
  ab_c.merge(c);
  Aggregate bc = b;
  bc.merge(c);
  Aggregate a_bc = a;
  a_bc.merge(bc);
  EXPECT_EQ(ab_c.correct_total, a_bc.correct_total);
  EXPECT_EQ(ab_c.transmissions_total, a_bc.transmissions_total);
  EXPECT_EQ(ab_c.mean_coverage(), a_bc.mean_coverage());
  EXPECT_EQ(ab_c.min_coverage, a_bc.min_coverage);
  EXPECT_EQ(ab_c.runs, a_bc.runs);
}

}  // namespace
}  // namespace rbcast
