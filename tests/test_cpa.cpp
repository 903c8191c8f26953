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
  cfg.protocol = ProtocolKind::kCpa;
  cfg.adversary = AdversaryKind::kSilent;
  cfg.seed = 9;
  return cfg;
}

TEST(Cpa, FaultFreeFullCoverageAtTZero) {
  for (std::int32_t r = 1; r <= 3; ++r) {
    const auto result = run_simulation(base_config(r), FaultSet{});
    EXPECT_TRUE(result.success()) << "r=" << r;
  }
}

TEST(Cpa, FaultFreeFullCoverageAtTheoremSixBudget) {
  // Even with t set to the Theorem 6 bound the protocol must progress when
  // no faults exist (every node has far more than t+1 committed neighbors).
  for (std::int32_t r = 2; r <= 4; ++r) {
    SimConfig cfg = base_config(r);
    cfg.t = cpa_linf_achievable_max(r);
    const auto result = run_simulation(cfg, FaultSet{});
    EXPECT_TRUE(result.success()) << "r=" << r;
  }
}

TEST(Cpa, SurvivesRandomFaultsAtTheoremSixBudget) {
  // Theorem 6: t <= 2r^2/3 is always survivable.
  for (std::int32_t r = 2; r <= 3; ++r) {
    SimConfig cfg = base_config(r);
    cfg.t = cpa_linf_achievable_max(r);
    PlacementConfig placement;
    placement.kind = PlacementKind::kRandomBounded;
    for (int rep = 0; rep < 3; ++rep) {
      Torus torus(cfg.width, cfg.height);
      Rng rng(50 + static_cast<std::uint64_t>(rep));
      const FaultSet faults = make_faults(placement, torus, cfg.r, cfg.metric,
                                          cfg.t, cfg.source, rng);
      const auto result = run_simulation(cfg, faults);
      EXPECT_TRUE(result.success()) << "r=" << r << " rep=" << rep;
      EXPECT_EQ(result.wrong_commits, 0);
    }
  }
}

TEST(Cpa, LyingAdversaryNeverCausesWrongCommit) {
  SimConfig cfg = base_config(2);
  cfg.adversary = AdversaryKind::kLying;
  cfg.t = cpa_linf_achievable_max(2);
  PlacementConfig placement;
  placement.kind = PlacementKind::kRandomBounded;
  for (int rep = 0; rep < 4; ++rep) {
    Torus torus(cfg.width, cfg.height);
    Rng rng(70 + static_cast<std::uint64_t>(rep));
    const FaultSet faults = make_faults(placement, torus, cfg.r, cfg.metric,
                                        cfg.t, cfg.source, rng);
    const auto result = run_simulation(cfg, faults);
    EXPECT_EQ(result.wrong_commits, 0) << "rep=" << rep;
  }
}

// The unit tests below drive a one-slot pool at slot 0 — the view the
// runtime hosts per node.

TEST(Cpa, BehaviorUnitNeedsTPlusOneClaims) {
  const Torus torus(12, 12);
  RadioNetwork net(torus, 1, Metric::kLInf, 1);
  CpaPool pool(ProtocolParams{2, {0, 0}}, torus, 1);
  NodeContext ctx(net, {6, 6});
  pool.on_receive(ctx, 0, {{5, 5}, make_committed({5, 5}, 1)});
  pool.on_receive(ctx, 0, {{5, 6}, make_committed({5, 6}, 1)});
  EXPECT_FALSE(pool.committed_value(0).has_value());  // 2 claims, t+1 = 3
  pool.on_receive(ctx, 0, {{5, 7}, make_committed({5, 7}, 1)});
  EXPECT_EQ(pool.committed_value(0), std::optional<std::uint8_t>(1));
}

TEST(Cpa, BehaviorUnitFirstClaimPerNeighborWins) {
  const Torus torus(12, 12);
  RadioNetwork net(torus, 1, Metric::kLInf, 1);
  CpaPool pool(ProtocolParams{1, {0, 0}}, torus, 1);
  NodeContext ctx(net, {6, 6});
  // The same neighbor repeating does not add claims.
  pool.on_receive(ctx, 0, {{5, 5}, make_committed({5, 5}, 1)});
  pool.on_receive(ctx, 0, {{5, 5}, make_committed({5, 5}, 1)});
  EXPECT_FALSE(pool.committed_value(0).has_value());
  // A contradictory second value from the same node is ignored outright.
  pool.on_receive(ctx, 0, {{5, 5}, make_committed({5, 5}, 0)});
  pool.on_receive(ctx, 0, {{5, 6}, make_committed({5, 6}, 0)});
  EXPECT_FALSE(pool.committed_value(0).has_value());
  pool.on_receive(ctx, 0, {{5, 7}, make_committed({5, 7}, 1)});
  EXPECT_EQ(pool.committed_value(0), std::optional<std::uint8_t>(1));
}

TEST(Cpa, BehaviorUnitIgnoresSpoofedOrigins) {
  const Torus torus(12, 12);
  RadioNetwork net(torus, 1, Metric::kLInf, 1);
  CpaPool pool(ProtocolParams{0, {0, 0}}, torus, 1);
  NodeContext ctx(net, {6, 6});
  // Claims whose origin field does not match the transmitter are dropped.
  pool.on_receive(ctx, 0, {{5, 5}, make_committed({4, 4}, 1)});
  EXPECT_FALSE(pool.committed_value(0).has_value());
}

TEST(Cpa, BehaviorUnitSourceNeighborCommitsImmediately) {
  const Torus torus(12, 12);
  RadioNetwork net(torus, 1, Metric::kLInf, 1);
  CpaPool pool(ProtocolParams{5, {0, 0}}, torus, 1);
  NodeContext ctx(net, {1, 1});
  pool.on_receive(ctx, 0, {{0, 0}, make_committed({0, 0}, 1)});
  EXPECT_EQ(pool.committed_value(0), std::optional<std::uint8_t>(1));
}

}  // namespace
}  // namespace rbcast
