#include <gtest/gtest.h>

#include "radiobcast/core/analysis.h"
#include "radiobcast/core/experiment.h"
#include "radiobcast/core/simulation.h"
#include "radiobcast/net/network.h"
#include "radiobcast/protocols/pool.h"

namespace rbcast {
namespace {

SimConfig base_config(std::int32_t r) {
  SimConfig cfg;
  cfg.width = cfg.height = 8 * r + 4;
  cfg.r = r;
  cfg.metric = Metric::kLInf;
  cfg.protocol = ProtocolKind::kCrashFlood;
  cfg.adversary = AdversaryKind::kSilent;
  cfg.seed = 5;
  return cfg;
}

TEST(CrashFlood, FaultFreeFullCoverage) {
  for (std::int32_t r = 1; r <= 3; ++r) {
    const auto result = run_simulation(base_config(r), FaultSet{});
    EXPECT_TRUE(result.success()) << "r=" << r;
    EXPECT_EQ(result.wrong_commits, 0);
    EXPECT_TRUE(result.reached_quiescence);
  }
}

TEST(CrashFlood, PropagatesValueZeroToo) {
  SimConfig cfg = base_config(1);
  cfg.value = 0;
  const auto result = run_simulation(cfg, FaultSet{});
  EXPECT_TRUE(result.success());
}

TEST(CrashFlood, RoundsScaleWithDiameter) {
  // Flooding crosses the torus in about (width/2)/r hops.
  const SimConfig cfg = base_config(2);  // 20x20, r=2
  const auto result = run_simulation(cfg, FaultSet{});
  EXPECT_GE(result.rounds, 5);
  EXPECT_LE(result.rounds, 9);
}

TEST(CrashFlood, EachNodeTransmitsAtMostOnce) {
  const SimConfig cfg = base_config(2);
  const auto result = run_simulation(cfg, FaultSet{});
  // n nodes, each transmits exactly once (source included).
  EXPECT_EQ(result.transmissions,
            static_cast<std::uint64_t>(cfg.width) * cfg.height);
}

TEST(CrashFlood, Theorem4FullStripPartitionsTheTorus) {
  // Two full strips (t = r(2r+1)) cut off the region between them.
  for (std::int32_t r = 1; r <= 3; ++r) {
    SimConfig cfg = base_config(r);
    cfg.t = crash_linf_impossible_min(r);
    PlacementConfig placement;
    placement.kind = PlacementKind::kFullStrip;
    placement.trim = false;
    Torus torus(cfg.width, cfg.height);
    Rng rng(1);
    const FaultSet faults = make_faults(placement, torus, r, cfg.metric,
                                        cfg.t, cfg.source, rng);
    EXPECT_EQ(max_closed_nbd_faults(torus, faults, r, cfg.metric),
              crash_linf_impossible_min(r));
    const auto result = run_simulation(cfg, faults);
    EXPECT_FALSE(result.success()) << "r=" << r;
    EXPECT_GT(result.undecided, 0);
    EXPECT_EQ(result.wrong_commits, 0);
    // Honest nodes on the source side still commit.
    EXPECT_GT(result.correct_commits, 0);
  }
}

TEST(CrashFlood, Theorem5PuncturedStripIsSurvivable) {
  // The densest legal barrier at t = r(2r+1) - 1 cannot stop the flood.
  for (std::int32_t r = 1; r <= 3; ++r) {
    SimConfig cfg = base_config(r);
    // Height must be a multiple of the puncture period for exact density.
    cfg.height = (2 * r + 1) * 4;
    cfg.t = crash_linf_achievable_max(r);
    PlacementConfig placement;
    placement.kind = PlacementKind::kPuncturedStrip;
    placement.trim = true;
    Torus torus(cfg.width, cfg.height);
    Rng rng(1);
    const FaultSet faults = make_faults(placement, torus, r, cfg.metric,
                                        cfg.t, cfg.source, rng);
    EXPECT_LE(max_closed_nbd_faults(torus, faults, r, cfg.metric), cfg.t);
    const auto result = run_simulation(cfg, faults);
    EXPECT_TRUE(result.success()) << "r=" << r;
  }
}

TEST(CrashFlood, RandomCrashesBelowThresholdSurvivable) {
  SimConfig cfg = base_config(2);
  cfg.t = crash_linf_achievable_max(2);
  PlacementConfig placement;
  placement.kind = PlacementKind::kRandomBounded;
  for (int rep = 0; rep < 3; ++rep) {
    Torus torus(cfg.width, cfg.height);
    Rng rng(100 + static_cast<std::uint64_t>(rep));
    const FaultSet faults = make_faults(placement, torus, cfg.r, cfg.metric,
                                        cfg.t, cfg.source, rng);
    const auto result = run_simulation(cfg, faults);
    EXPECT_TRUE(result.success()) << "rep=" << rep;
  }
}

TEST(CrashFlood, CrashAtRoundStillNeverWrong) {
  SimConfig cfg = base_config(2);
  cfg.adversary = AdversaryKind::kCrashAtRound;
  cfg.crash_round = 2;
  cfg.t = crash_linf_achievable_max(2);
  PlacementConfig placement;
  placement.kind = PlacementKind::kPuncturedStrip;
  Torus torus(cfg.width, cfg.height);
  Rng rng(1);
  const FaultSet faults = make_faults(placement, torus, cfg.r, cfg.metric,
                                      cfg.t, cfg.source, rng);
  const auto result = run_simulation(cfg, faults);
  EXPECT_EQ(result.wrong_commits, 0);
  // Nodes that relay before crashing only help: full coverage expected.
  EXPECT_TRUE(result.success());
}

TEST(CrashFlood, BehaviorUnitCommitOnFirstValue) {
  // Direct pool-level check of the "first value wins" rule.
  const Torus torus(12, 12);
  RadioNetwork net(torus, 1, Metric::kLInf, 1);
  CrashFloodPool pool(ProtocolParams{}, torus);
  const Coord self{5, 5};
  const std::int32_t node = torus.index(self);
  NodeContext ctx(net, self);
  pool.on_receive(ctx, node, {{5, 6}, make_committed({5, 6}, 1)});
  EXPECT_EQ(pool.committed_value(node), std::optional<std::uint8_t>(1));
  pool.on_receive(ctx, node, {{5, 4}, make_committed({5, 4}, 0)});
  EXPECT_EQ(pool.committed_value(node), std::optional<std::uint8_t>(1));
}

}  // namespace
}  // namespace rbcast
