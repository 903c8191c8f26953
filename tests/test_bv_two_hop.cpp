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
  cfg.protocol = ProtocolKind::kBvTwoHop;
  cfg.adversary = AdversaryKind::kSilent;
  cfg.seed = 21;
  return cfg;
}

TEST(BvTwoHop, FaultFreeFullCoverage) {
  for (std::int32_t r = 1; r <= 3; ++r) {
    SimConfig cfg = base_config(r);
    cfg.t = byz_linf_achievable_max(r);
    const auto result = run_simulation(cfg, FaultSet{});
    EXPECT_TRUE(result.success()) << "r=" << r;
    EXPECT_TRUE(result.reached_quiescence);
  }
}

TEST(BvTwoHop, SurvivesCheckerboardBarrierAtExactThreshold) {
  // Koo's arrangement trimmed to the achievable budget t* = ceil(r(2r+1)/2)-1
  // must fail to stop the protocol (Theorem 1).
  for (std::int32_t r = 1; r <= 2; ++r) {
    SimConfig cfg = base_config(r);
    cfg.t = byz_linf_achievable_max(r);
    PlacementConfig placement;
    placement.kind = PlacementKind::kCheckerboardStrip;
    placement.trim = true;  // checkerboard is 1 over budget at t*
    Torus torus(cfg.width, cfg.height);
    Rng rng(1);
    const FaultSet faults = make_faults(placement, torus, cfg.r, cfg.metric,
                                        cfg.t, cfg.source, rng);
    ASSERT_LE(max_closed_nbd_faults(torus, faults, cfg.r, cfg.metric), cfg.t);
    const auto result = run_simulation(cfg, faults);
    EXPECT_TRUE(result.success()) << "r=" << r;
    EXPECT_EQ(result.wrong_commits, 0);
  }
}

TEST(BvTwoHop, StalledByCheckerboardAtImpossibilityBudget) {
  // At t = ceil(r(2r+1)/2) the untrimmed checkerboard strip starves deciders
  // beyond the barrier (the paper's impossibility region).
  for (std::int32_t r = 1; r <= 2; ++r) {
    SimConfig cfg = base_config(r);
    cfg.t = byz_linf_impossible_min(r);
    PlacementConfig placement;
    placement.kind = PlacementKind::kCheckerboardStrip;
    placement.trim = false;
    Torus torus(cfg.width, cfg.height);
    Rng rng(1);
    const FaultSet faults = make_faults(placement, torus, cfg.r, cfg.metric,
                                        cfg.t, cfg.source, rng);
    ASSERT_EQ(max_closed_nbd_faults(torus, faults, cfg.r, cfg.metric), cfg.t);
    const auto result = run_simulation(cfg, faults);
    EXPECT_FALSE(result.success()) << "r=" << r;
    EXPECT_GT(result.undecided, 0);
    EXPECT_EQ(result.wrong_commits, 0);  // safety holds regardless
  }
}

TEST(BvTwoHop, LyingBarrierNeverCausesWrongCommits) {
  for (std::int32_t r = 1; r <= 2; ++r) {
    SimConfig cfg = base_config(r);
    cfg.t = byz_linf_achievable_max(r);
    cfg.adversary = AdversaryKind::kLying;
    PlacementConfig placement;
    placement.kind = PlacementKind::kCheckerboardStrip;
    Torus torus(cfg.width, cfg.height);
    Rng rng(1);
    const FaultSet faults = make_faults(placement, torus, cfg.r, cfg.metric,
                                        cfg.t, cfg.source, rng);
    const auto result = run_simulation(cfg, faults);
    EXPECT_EQ(result.wrong_commits, 0) << "r=" << r;
    EXPECT_TRUE(result.success()) << "r=" << r;
  }
}

TEST(BvTwoHop, RandomLiarsAtThresholdAreHarmless) {
  SimConfig cfg = base_config(2);
  cfg.t = byz_linf_achievable_max(2);
  cfg.adversary = AdversaryKind::kLying;
  PlacementConfig placement;
  placement.kind = PlacementKind::kRandomBounded;
  for (int rep = 0; rep < 3; ++rep) {
    Torus torus(cfg.width, cfg.height);
    Rng rng(30 + static_cast<std::uint64_t>(rep));
    const FaultSet faults = make_faults(placement, torus, cfg.r, cfg.metric,
                                        cfg.t, cfg.source, rng);
    const auto result = run_simulation(cfg, faults);
    EXPECT_EQ(result.wrong_commits, 0) << "rep=" << rep;
    EXPECT_TRUE(result.success()) << "rep=" << rep;
  }
}

/// Number of (origin, value) pairs slot `node` of `pool` has reliably
/// determined.
std::int64_t determinations(const BvTwoHopPool& pool, const Torus& torus,
                            std::int32_t node) {
  std::int64_t count = 0;
  for (const Coord origin : torus.all_coords()) {
    for (const std::uint8_t v : {0, 1}) {
      count += pool.has_determined(node, origin, v) ? 1 : 0;
    }
  }
  return count;
}

// The unit tests below drive a one-slot pool at slot 0 — the view the
// runtime hosts per node.

TEST(BvTwoHop, BehaviorUnitDirectDetermination) {
  const Torus torus(20, 20);
  RadioNetwork net(torus, 2, Metric::kLInf, 1);
  BvTwoHopPool pool(ProtocolParams{1, {0, 0}}, torus, 2, Metric::kLInf, 1);
  NodeContext ctx(net, {10, 10});
  EXPECT_EQ(determinations(pool, torus, 0), 0);
  pool.on_receive(ctx, 0, {{9, 9}, make_committed({9, 9}, 1)});
  EXPECT_EQ(determinations(pool, torus, 0), 1);
  EXPECT_TRUE(pool.has_determined(0, {9, 9}, 1));
  // Duplicate and contradiction are both no-ops.
  pool.on_receive(ctx, 0, {{9, 9}, make_committed({9, 9}, 1)});
  pool.on_receive(ctx, 0, {{9, 9}, make_committed({9, 9}, 0)});
  EXPECT_EQ(determinations(pool, torus, 0), 1);
}

TEST(BvTwoHop, BehaviorUnitIndirectDeterminationNeedsTPlusOneReporters) {
  const Torus torus(20, 20);
  const std::int64_t t = 2;
  RadioNetwork net(torus, 2, Metric::kLInf, 1);
  BvTwoHopPool pool(ProtocolParams{t, {0, 0}}, torus, 2, Metric::kLInf, 1);
  const Coord origin{13, 10};  // 3 away from (10,10): not a direct neighbor
  NodeContext ctx(net, {10, 10});
  // Reporters adjacent to both the origin and us, clustered so that one
  // neighborhood (e.g. centered (12,10)) contains origin and all reporters.
  const Coord reporters[] = {{11, 10}, {11, 11}, {12, 9}};
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(determinations(pool, torus, 0), 0)
        << "after " << i << " reporters";
    pool.on_receive(ctx, 0,
                    {reporters[i], make_heard({reporters[i]}, origin, 1)});
  }
  // t+1 = 3 disjoint chains in one nbd
  EXPECT_EQ(determinations(pool, torus, 0), 1);
  EXPECT_TRUE(pool.has_determined(0, origin, 1));
}

TEST(BvTwoHop, BehaviorUnitRejectsMalformedHeard) {
  const Torus torus(20, 20);
  RadioNetwork net(torus, 2, Metric::kLInf, 1);
  BvTwoHopPool pool(ProtocolParams{0, {0, 0}}, torus, 2, Metric::kLInf, 1);
  NodeContext ctx(net, {10, 10});
  // Relayer field does not match the transmitter: spoofed, dropped.
  pool.on_receive(ctx, 0, {{9, 9}, make_heard({{8, 8}}, {13, 10}, 1)});
  EXPECT_EQ(determinations(pool, torus, 0), 0);
  // Reporter claims to have heard a node 4 away (impossible with r=2).
  pool.on_receive(ctx, 0, {{9, 9}, make_heard({{9, 9}}, {13, 10}, 1)});
  EXPECT_EQ(determinations(pool, torus, 0), 0);
  // Origin == reporter is nonsense.
  pool.on_receive(ctx, 0, {{9, 9}, make_heard({{9, 9}}, {9, 9}, 1)});
  EXPECT_EQ(determinations(pool, torus, 0), 0);
  // Two-relayer chains are not part of the two-hop protocol.
  pool.on_receive(ctx, 0,
                  {{9, 9}, make_heard({{11, 10}, {9, 9}}, {12, 10}, 1)});
  EXPECT_EQ(determinations(pool, torus, 0), 0);
}

TEST(BvTwoHop, BehaviorUnitSourceNeighborCommitsDirectly) {
  const Torus torus(20, 20);
  RadioNetwork net(torus, 2, Metric::kLInf, 1);
  BvTwoHopPool pool(ProtocolParams{4, {0, 0}}, torus, 2, Metric::kLInf, 1);
  NodeContext ctx(net, {1, 1});
  pool.on_receive(ctx, 0, {{0, 0}, make_committed({0, 0}, 0)});
  EXPECT_EQ(pool.committed_value(0), std::optional<std::uint8_t>(0));
}

}  // namespace
}  // namespace rbcast
