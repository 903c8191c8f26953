// Property-style parameterized sweeps across protocols, adversaries, metrics
// and seeds. The two global invariants:
//   (1) Safety — no honest node ever commits a wrong value, under ANY
//       adversary and ANY fault budget (Theorem 2 and the trivially-safe
//       commit rules of the other protocols).
//   (2) Determinism — identical configs yield identical outcomes.

#include <gtest/gtest.h>

#include <string>

#include "radiobcast/core/analysis.h"
#include "radiobcast/core/experiment.h"
#include "radiobcast/core/simulation.h"
#include "radiobcast/fault/placement.h"
#include "radiobcast/paths/construction.h"
#include "radiobcast/paths/disjoint.h"

namespace rbcast {
namespace {

struct SafetyCase {
  ProtocolKind protocol;
  AdversaryKind adversary;
  PlacementKind placement;
  std::int32_t r;
  std::int64_t t;
  std::uint64_t seed;
};

std::string case_name(const ::testing::TestParamInfo<SafetyCase>& info) {
  const SafetyCase& c = info.param;
  std::string s = std::string(to_string(c.protocol)) + "_" +
                  to_string(c.adversary) + "_" + to_string(c.placement) +
                  "_r" + std::to_string(c.r) + "_t" + std::to_string(c.t) +
                  "_s" + std::to_string(c.seed);
  for (char& ch : s) {
    if (ch == '-') ch = '_';
  }
  return s;
}

class SafetySweep : public ::testing::TestWithParam<SafetyCase> {};

TEST_P(SafetySweep, NoHonestNodeCommitsWrong) {
  const SafetyCase& c = GetParam();
  SimConfig cfg;
  cfg.width = cfg.height = 8 * c.r + 4;
  cfg.r = c.r;
  cfg.metric = Metric::kLInf;
  cfg.t = c.t;
  cfg.protocol = c.protocol;
  cfg.adversary = c.adversary;
  cfg.seed = c.seed;
  PlacementConfig placement;
  placement.kind = c.placement;
  placement.trim = true;
  Torus torus(cfg.width, cfg.height);
  Rng rng(c.seed);
  const FaultSet faults = make_faults(placement, torus, cfg.r, cfg.metric,
                                      cfg.t, cfg.source, rng);
  const SimResult result = run_simulation(cfg, faults);
  EXPECT_EQ(result.wrong_commits, 0);
  // And the run must terminate (quiescence) within the default bound.
  EXPECT_TRUE(result.reached_quiescence);
}

std::vector<SafetyCase> safety_cases() {
  std::vector<SafetyCase> cases;
  const ProtocolKind protocols[] = {ProtocolKind::kCpa,
                                    ProtocolKind::kBvTwoHop,
                                    ProtocolKind::kBvIndirectEarmarked};
  const AdversaryKind adversaries[] = {AdversaryKind::kSilent,
                                       AdversaryKind::kLying};
  const PlacementKind placements[] = {PlacementKind::kRandomBounded,
                                      PlacementKind::kCheckerboardStrip};
  for (const auto protocol : protocols) {
    for (const auto adversary : adversaries) {
      for (const auto placement : placements) {
        for (const std::int32_t r : {1, 2}) {
          // Configured bound and an over-budget bound: safety must not care.
          for (const std::int64_t t :
               {byz_linf_achievable_max(r), byz_linf_achievable_max(r) + 3}) {
            cases.push_back({protocol, adversary, placement, r, t, 11u});
          }
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllCombos, SafetySweep,
                         ::testing::ValuesIn(safety_cases()), case_name);

// ---------------------------------------------------------------------------
// Construction-vs-flow cross-check: for every covered displacement the flow
// bound is at least the construction's family size (the construction is a
// witness, the flow is the optimum).
// ---------------------------------------------------------------------------

class FlowVsConstruction : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(FlowVsConstruction, FlowAtLeastConstruction) {
  const std::int32_t r = GetParam();
  for (std::int32_t dx = -2 * r; dx <= 2 * r; ++dx) {
    for (std::int32_t dy = -2 * r; dy <= 2 * r; ++dy) {
      const std::int32_t l1 = std::abs(dx) + std::abs(dy);
      if (l1 < 1 || l1 > 2 * r) continue;
      if (linf_norm({dx, dy}) <= r) continue;
      const Coord origin{0, 0};
      const Coord dest{dx, dy};
      const auto constructed = construction_paths(r, origin, dest);
      const auto flow = best_disjoint_paths(origin, dest, r, Metric::kLInf);
      ASSERT_TRUE(flow.has_value());
      EXPECT_GE(flow->paths.size(), constructed.paths.size())
          << "d=<" << dx << "," << dy << ">";
      // And per Theorem 3 both give at least r(2r+1).
      EXPECT_GE(static_cast<std::int64_t>(constructed.paths.size()),
                r_2r_plus_1(r));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Radii, FlowVsConstruction, ::testing::Values(1, 2, 3));

// ---------------------------------------------------------------------------
// Flood vs earmarked relays: identical commit outcomes across random fault
// placements (the earmark plan is complete).
// ---------------------------------------------------------------------------

class RelayModeEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RelayModeEquivalence, SameOutcomes) {
  const std::uint64_t seed = GetParam();
  SimConfig cfg;
  cfg.width = cfg.height = 12;
  cfg.r = 1;
  cfg.metric = Metric::kLInf;
  cfg.t = byz_linf_achievable_max(1);
  cfg.adversary = AdversaryKind::kSilent;
  cfg.seed = seed;
  PlacementConfig placement;
  placement.kind = PlacementKind::kRandomBounded;
  Torus torus(cfg.width, cfg.height);
  Rng rng(seed);
  const FaultSet faults = make_faults(placement, torus, cfg.r, cfg.metric,
                                      cfg.t, cfg.source, rng);
  cfg.protocol = ProtocolKind::kBvIndirectFlood;
  const auto flood = run_simulation(cfg, faults);
  cfg.protocol = ProtocolKind::kBvIndirectEarmarked;
  const auto earmarked = run_simulation(cfg, faults);
  EXPECT_EQ(flood.correct_commits, earmarked.correct_commits);
  EXPECT_EQ(flood.undecided, earmarked.undecided);
  EXPECT_EQ(flood.wrong_commits, 0);
  EXPECT_EQ(earmarked.wrong_commits, 0);
  EXPECT_LE(earmarked.transmissions, flood.transmissions);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RelayModeEquivalence,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---------------------------------------------------------------------------
// Liveness monotonicity: if the protocol succeeds against a placement at
// budget t, it also succeeds with strictly fewer faults (prefix subsets).
// ---------------------------------------------------------------------------

TEST(Monotonicity, LaterCrashesNeverHurtFlooding) {
  // A crash-stop node that relays before dying only adds information:
  // coverage is nondecreasing in the crash round.
  SimConfig cfg;
  cfg.width = cfg.height = 14;
  cfg.r = 1;
  cfg.metric = Metric::kLInf;
  cfg.protocol = ProtocolKind::kCrashFlood;
  cfg.adversary = AdversaryKind::kCrashAtRound;
  cfg.seed = 8;
  Torus torus(cfg.width, cfg.height);
  Rng rng(8);
  const FaultSet faults = iid_faults(torus, 0.3, rng, cfg.source);
  double prev = -1.0;
  for (const std::int64_t crash_round : {0, 1, 2, 4, 8}) {
    cfg.crash_round = crash_round;
    const auto result = run_simulation(cfg, faults);
    EXPECT_GE(result.coverage(), prev) << "crash_round=" << crash_round;
    EXPECT_EQ(result.wrong_commits, 0);
    prev = result.coverage();
  }
  // Crashing after the flood has passed is indistinguishable from honesty.
  cfg.crash_round = 1000;
  EXPECT_TRUE(run_simulation(cfg, faults).success());
}

TEST(Regression, GoldenTransmissionCounts) {
  // Deterministic pin of a few engine-level numbers; any change here means
  // the round engine or a protocol changed behavior, intentionally or not.
  SimConfig cfg;
  cfg.width = cfg.height = 12;
  cfg.r = 1;
  cfg.metric = Metric::kLInf;
  cfg.seed = 1;

  cfg.protocol = ProtocolKind::kCrashFlood;
  const auto crash = run_simulation(cfg, FaultSet{});
  EXPECT_EQ(crash.transmissions, 144u);  // one broadcast per node
  EXPECT_EQ(crash.counters.envelopes_delivered, 144u * 8u);
  EXPECT_EQ(crash.rounds, 7);  // 6 wave hops + a drain round

  cfg.protocol = ProtocolKind::kBvTwoHop;
  cfg.t = 1;
  const auto bv = run_simulation(cfg, FaultSet{});
  // Every node: 1 COMMITTED + one HEARD per neighbor's COMMITTED (8), except
  // boundary effects of ordering; pin the exact deterministic figure.
  EXPECT_EQ(bv.transmissions, 1288u);
  EXPECT_TRUE(bv.success());
}

TEST(Monotonicity, FewerFaultsNeverHurt) {
  SimConfig cfg;
  cfg.width = cfg.height = 20;
  cfg.r = 2;
  cfg.metric = Metric::kLInf;
  cfg.t = byz_linf_achievable_max(2);
  cfg.protocol = ProtocolKind::kBvTwoHop;
  cfg.adversary = AdversaryKind::kSilent;
  cfg.seed = 3;
  Torus torus(cfg.width, cfg.height);
  Rng rng(3);
  FaultSet full = random_bounded(torus, cfg.r, cfg.metric, cfg.t,
                                 /*target=*/30, /*attempts=*/4000, rng,
                                 cfg.source);
  const auto with_full = run_simulation(cfg, full);
  ASSERT_TRUE(with_full.success());
  // Remove half the faults: still success.
  FaultSet half;
  const auto sorted = full.sorted();
  for (std::size_t i = 0; i < sorted.size(); i += 2) half.add(torus, sorted[i]);
  const auto with_half = run_simulation(cfg, half);
  EXPECT_TRUE(with_half.success());
}

}  // namespace
}  // namespace rbcast
