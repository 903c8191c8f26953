#include <gtest/gtest.h>

#include <stdexcept>

#include "radiobcast/core/analysis.h"
#include "radiobcast/core/experiment.h"
#include "radiobcast/core/simulation.h"
#include "radiobcast/net/network.h"
#include "radiobcast/protocols/pool.h"

namespace rbcast {
namespace {

SimConfig base_config(std::int32_t r, ProtocolKind kind) {
  SimConfig cfg;
  cfg.width = cfg.height = 8 * r + 4;
  cfg.r = r;
  cfg.metric = Metric::kLInf;
  cfg.protocol = kind;
  cfg.adversary = AdversaryKind::kSilent;
  cfg.seed = 33;
  return cfg;
}

TEST(BvIndirect, FloodFaultFreeFullCoverage) {
  SimConfig cfg = base_config(1, ProtocolKind::kBvIndirectFlood);
  cfg.t = byz_linf_achievable_max(1);
  const auto result = run_simulation(cfg, FaultSet{});
  EXPECT_TRUE(result.success());
}

TEST(BvIndirect, EarmarkedFaultFreeFullCoverage) {
  for (std::int32_t r = 1; r <= 2; ++r) {
    SimConfig cfg = base_config(r, ProtocolKind::kBvIndirectEarmarked);
    cfg.t = byz_linf_achievable_max(r);
    const auto result = run_simulation(cfg, FaultSet{});
    EXPECT_TRUE(result.success()) << "r=" << r;
  }
}

TEST(BvIndirect, EarmarkedUsesFarFewerMessagesThanFlood) {
  SimConfig flood = base_config(1, ProtocolKind::kBvIndirectFlood);
  SimConfig earmarked = base_config(1, ProtocolKind::kBvIndirectEarmarked);
  flood.t = earmarked.t = byz_linf_achievable_max(1);
  const auto rf = run_simulation(flood, FaultSet{});
  const auto re = run_simulation(earmarked, FaultSet{});
  EXPECT_TRUE(rf.success());
  EXPECT_TRUE(re.success());
  EXPECT_LT(re.transmissions, rf.transmissions);
}

TEST(BvIndirect, FloodAndEarmarkedAgreeOnOutcomes) {
  // Same faults, same seed: both relay modes must commit the same nodes.
  SimConfig flood = base_config(1, ProtocolKind::kBvIndirectFlood);
  SimConfig earmarked = base_config(1, ProtocolKind::kBvIndirectEarmarked);
  flood.t = earmarked.t = byz_linf_achievable_max(1);
  PlacementConfig placement;
  placement.kind = PlacementKind::kRandomBounded;
  Torus torus(flood.width, flood.height);
  Rng rng(77);
  const FaultSet faults = make_faults(placement, torus, flood.r, flood.metric,
                                      flood.t, flood.source, rng);
  const auto rf = run_simulation(flood, faults);
  const auto re = run_simulation(earmarked, faults);
  EXPECT_EQ(rf.correct_commits, re.correct_commits);
  EXPECT_EQ(rf.wrong_commits, re.wrong_commits);
  EXPECT_EQ(rf.undecided, re.undecided);
}

TEST(BvIndirect, SurvivesTrimmedCheckerboardAtThreshold) {
  for (std::int32_t r = 1; r <= 2; ++r) {
    const ProtocolKind kind = r == 1 ? ProtocolKind::kBvIndirectFlood
                                     : ProtocolKind::kBvIndirectEarmarked;
    SimConfig cfg = base_config(r, kind);
    cfg.t = byz_linf_achievable_max(r);
    PlacementConfig placement;
    placement.kind = PlacementKind::kCheckerboardStrip;
    placement.trim = true;
    Torus torus(cfg.width, cfg.height);
    Rng rng(1);
    const FaultSet faults = make_faults(placement, torus, cfg.r, cfg.metric,
                                        cfg.t, cfg.source, rng);
    const auto result = run_simulation(cfg, faults);
    EXPECT_TRUE(result.success()) << "r=" << r;
  }
}

TEST(BvIndirect, StalledAtImpossibilityBudget) {
  SimConfig cfg = base_config(1, ProtocolKind::kBvIndirectFlood);
  cfg.t = byz_linf_impossible_min(1);
  PlacementConfig placement;
  placement.kind = PlacementKind::kCheckerboardStrip;
  placement.trim = false;
  Torus torus(cfg.width, cfg.height);
  Rng rng(1);
  const FaultSet faults = make_faults(placement, torus, cfg.r, cfg.metric,
                                      cfg.t, cfg.source, rng);
  ASSERT_EQ(max_closed_nbd_faults(torus, faults, cfg.r, cfg.metric), cfg.t);
  const auto result = run_simulation(cfg, faults);
  EXPECT_FALSE(result.success());
  EXPECT_GT(result.undecided, 0);
  EXPECT_EQ(result.wrong_commits, 0);
}

TEST(BvIndirect, LyingAdversaryNeverCausesWrongCommit) {
  for (const ProtocolKind kind :
       {ProtocolKind::kBvIndirectFlood, ProtocolKind::kBvIndirectEarmarked}) {
    SimConfig cfg = base_config(1, kind);
    cfg.t = byz_linf_achievable_max(1);
    cfg.adversary = AdversaryKind::kLying;
    PlacementConfig placement;
    placement.kind = PlacementKind::kRandomBounded;
    for (int rep = 0; rep < 3; ++rep) {
      Torus torus(cfg.width, cfg.height);
      Rng rng(90 + static_cast<std::uint64_t>(rep));
      const FaultSet faults = make_faults(placement, torus, cfg.r, cfg.metric,
                                          cfg.t, cfg.source, rng);
      const auto result = run_simulation(cfg, faults);
      EXPECT_EQ(result.wrong_commits, 0)
          << to_string(kind) << " rep=" << rep;
      EXPECT_TRUE(result.success()) << to_string(kind) << " rep=" << rep;
    }
  }
}

TEST(BvIndirect, EarmarkedRequiresLinf) {
  SimConfig cfg = base_config(2, ProtocolKind::kBvIndirectEarmarked);
  cfg.metric = Metric::kL2;
  EXPECT_THROW(run_simulation(cfg, FaultSet{}), std::invalid_argument);
}

/// One bv-4hop node at (10, 10) on a 20x20 torus at r = 2: a one-slot pool
/// fed deliveries by hand. The source, (0, 0), never transmits here.
class UnitNode {
 public:
  static constexpr Coord kSelf{10, 10};

  explicit UnitNode(std::int64_t t)
      : pool_(ProtocolParams{t, {0, 0}}, net_.torus(), 2, Metric::kLInf,
              RelayMode::kFlood, 1) {}

  void deliver(Coord sender, const Message& msg) {
    NodeContext ctx(net_, kSelf);
    pool_.on_receive(ctx, 0, {sender, msg});
  }
  void end_round() {
    NodeContext ctx(net_, kSelf);
    pool_.on_round_end(ctx, 0);
  }

  bool determined(Coord origin) const {
    return pool_.has_determined(0, origin, 1);
  }
  bool committed() const { return pool_.committed_value(0).has_value(); }

 private:
  RadioNetwork net_{Torus(20, 20), 2, Metric::kLInf, 1};
  BvIndirectPool pool_;
};

TEST(BvIndirect, BehaviorUnitRejectsImplausibleChains) {
  // At t = 0 a single accepted chain determines its origin, and one
  // determined committer commits the node, so every check below that let
  // its chain through would show.
  UnitNode node(0);
  // Chain with a hop longer than r: dropped.
  node.deliver({9, 9}, make_heard({{4, 4}, {9, 9}}, {0, 0}, 1));
  // Chain with a repeated node: dropped.
  node.deliver({9, 9}, make_heard({{9, 9}, {8, 8}, {9, 9}}, {7, 7}, 1));
  // Outermost relayer != transmitter: dropped.
  node.deliver({9, 9}, make_heard({{8, 8}}, {7, 7}, 1));
  // More than 3 relayers: dropped.
  node.deliver({9, 9},
               make_heard({{6, 6}, {7, 7}, {8, 8}, {9, 9}}, {5, 5}, 1));
  node.end_round();
  for (const Coord origin : {Coord{0, 0}, Coord{7, 7}, Coord{5, 5}}) {
    EXPECT_FALSE(node.determined(origin)) << to_string(origin);
  }
  EXPECT_FALSE(node.committed());
}

TEST(BvIndirect, BehaviorUnitDeterminationViaDisjointChains) {
  UnitNode node(1);
  const Coord origin{14, 10};  // 4 away: needs 2-intermediate chains
  // Two node-disjoint chains origin -> a -> b -> self, all inside
  // nbd((12,10)).
  node.deliver({11, 10}, make_heard({{13, 10}, {11, 10}}, origin, 1));
  node.end_round();
  EXPECT_FALSE(node.determined(origin));  // one chain < t+1 = 2
  node.deliver({11, 11}, make_heard({{13, 11}, {11, 11}}, origin, 1));
  node.end_round();
  EXPECT_TRUE(node.determined(origin));
}

TEST(BvIndirect, BehaviorUnitConflictingChainsDoNotCount) {
  UnitNode node(1);
  const Coord origin{14, 10};
  // Two chains sharing the intermediate (13,10): conflict, still < t+1.
  node.deliver({11, 10}, make_heard({{13, 10}, {11, 10}}, origin, 1));
  node.deliver({11, 11}, make_heard({{13, 10}, {11, 11}}, origin, 1));
  node.end_round();
  EXPECT_FALSE(node.determined(origin));
}

TEST(BvIndirect, RadiusGuardRejectsUnsupportedRadii) {
  // The determination engine covers the radii whose candidate-center set
  // fits a CenterSet (L-inf r <= 7, L2 r <= 9); anything else is rejected
  // at construction rather than run on a slower second engine.
  const ProtocolParams params{1, {0, 0}};
  const auto make = [&](const Torus& torus, std::int32_t r, Metric m,
                        RelayMode mode) {
    return BvIndirectPool(params, torus, r, m, mode, 1);
  };
  for (const RelayMode mode : {RelayMode::kFlood, RelayMode::kEarmarked}) {
    const Torus torus(8 * 7 + 4, 8 * 7 + 4);
    EXPECT_NO_THROW(make(torus, 7, Metric::kLInf, mode));
  }
  {
    const Torus torus(8 * 9 + 4, 8 * 9 + 4);
    EXPECT_NO_THROW(make(torus, 9, Metric::kL2, RelayMode::kFlood));
    EXPECT_THROW(make(torus, 10, Metric::kL2, RelayMode::kFlood),
                 std::invalid_argument);
    // Earmarked relays follow L-inf path families only.
    EXPECT_THROW(make(torus, 2, Metric::kL2, RelayMode::kEarmarked),
                 std::invalid_argument);
  }
  for (const RelayMode mode : {RelayMode::kFlood, RelayMode::kEarmarked}) {
    const Torus torus(8 * 8 + 4, 8 * 8 + 4);
    EXPECT_THROW(make(torus, 8, Metric::kLInf, mode), std::invalid_argument);
  }
  {
    const Torus torus(12, 12);
    EXPECT_THROW(make(torus, 0, Metric::kLInf, RelayMode::kFlood),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace rbcast
