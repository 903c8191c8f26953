#include "radiobcast/core/simulation.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "radiobcast/core/analysis.h"
#include "radiobcast/obs/trace.h"

namespace rbcast {
namespace {

SimConfig tiny_config() {
  SimConfig cfg;
  cfg.width = cfg.height = 12;
  cfg.r = 1;
  cfg.metric = Metric::kLInf;
  cfg.protocol = ProtocolKind::kCrashFlood;
  return cfg;
}

TEST(Simulation, RejectsFaultySource) {
  const SimConfig cfg = tiny_config();
  Torus torus(cfg.width, cfg.height);
  FaultSet faults(torus, {{0, 0}});
  EXPECT_THROW(run_simulation(cfg, faults), std::invalid_argument);
}

TEST(Simulation, RejectsTooSmallTorus) {
  SimConfig cfg = tiny_config();
  cfg.width = 5;  // < 4r+2 = 6
  cfg.r = 1;
  EXPECT_THROW(run_simulation(cfg, FaultSet{}), std::invalid_argument);
}

TEST(Simulation, RejectsUnsupportedRadiusBeforeRoundOne) {
  // bv-2hop and bv-4hop run only where the incremental determination engine
  // does (L-inf r <= 7, L2 r <= 9): r = 8 L-inf is refused while the nodes
  // are populated, so the trace never sees a round start.
  for (const ProtocolKind protocol :
       {ProtocolKind::kBvTwoHop, ProtocolKind::kBvIndirectFlood,
        ProtocolKind::kBvIndirectEarmarked}) {
    SimConfig cfg;
    cfg.r = 8;
    cfg.width = cfg.height = 4 * cfg.r + 2;
    cfg.protocol = protocol;
    RoundTrace trace(64);
    EXPECT_THROW(run_simulation(cfg, FaultSet{}, ObsOptions{&trace}),
                 std::invalid_argument)
        << to_string(protocol);
    EXPECT_EQ(trace.recorded(), 0u) << to_string(protocol);
  }
}

TEST(Simulation, LargestSupportedRadiiRun) {
  struct Limit {
    std::int32_t r;
    Metric metric;
  };
  for (const ProtocolKind protocol :
       {ProtocolKind::kBvTwoHop, ProtocolKind::kBvIndirectFlood}) {
    for (const Limit limit : {Limit{7, Metric::kLInf}, Limit{9, Metric::kL2}}) {
      SimConfig cfg;
      cfg.r = limit.r;
      cfg.metric = limit.metric;
      cfg.width = cfg.height = 4 * cfg.r + 2;
      cfg.protocol = protocol;
      cfg.max_rounds = 1;
      SimResult result;
      EXPECT_NO_THROW(result = run_simulation(cfg, FaultSet{}))
          << to_string(protocol) << " r=" << limit.r << " "
          << to_string(limit.metric);
      EXPECT_EQ(result.rounds, 1) << to_string(protocol);
    }
  }
}

TEST(Simulation, OutcomeVectorIsConsistent) {
  SimConfig cfg = tiny_config();
  Torus torus(cfg.width, cfg.height);
  FaultSet faults(torus, {{5, 5}, {6, 6}});
  const auto result = run_simulation(cfg, faults);
  ASSERT_EQ(result.outcomes.size(),
            static_cast<std::size_t>(torus.node_count()));
  EXPECT_EQ(result.outcomes[static_cast<std::size_t>(torus.index({0, 0}))],
            NodeOutcome::kSource);
  EXPECT_EQ(result.outcomes[static_cast<std::size_t>(torus.index({5, 5}))],
            NodeOutcome::kFaulty);
  // honest = total - source - faulty
  EXPECT_EQ(result.honest_nodes, torus.node_count() - 3);
  EXPECT_EQ(result.correct_commits + result.wrong_commits + result.undecided,
            result.honest_nodes);
}

TEST(Simulation, CoverageAndSuccessMath) {
  SimResult res;
  res.honest_nodes = 10;
  res.correct_commits = 10;
  EXPECT_DOUBLE_EQ(res.coverage(), 1.0);
  EXPECT_TRUE(res.success());
  res.correct_commits = 9;
  res.undecided = 1;
  EXPECT_DOUBLE_EQ(res.coverage(), 0.9);
  EXPECT_FALSE(res.success());
  res.wrong_commits = 1;
  res.correct_commits = 10;
  res.undecided = 0;
  EXPECT_FALSE(res.success());  // wrong commits always fail the run
}

TEST(Simulation, ValueZeroOutcomesMarkedCorrect) {
  SimConfig cfg = tiny_config();
  cfg.value = 0;
  const auto result = run_simulation(cfg, FaultSet{});
  EXPECT_TRUE(result.success());
  // Every honest node shows kCommitted0.
  int committed0 = 0;
  for (const NodeOutcome o : result.outcomes) {
    committed0 += (o == NodeOutcome::kCommitted0) ? 1 : 0;
  }
  EXPECT_EQ(committed0, result.honest_nodes);
}

TEST(Simulation, DeterministicForSeed) {
  SimConfig cfg = tiny_config();
  cfg.protocol = ProtocolKind::kBvTwoHop;
  cfg.t = 1;
  cfg.seed = 2718;
  Torus torus(cfg.width, cfg.height);
  FaultSet faults(torus, {{4, 4}, {8, 8}});
  const auto a = run_simulation(cfg, faults);
  const auto b = run_simulation(cfg, faults);
  EXPECT_EQ(a.correct_commits, b.correct_commits);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.outcomes, b.outcomes);
}

TEST(Simulation, MaxRoundsCapsExecution) {
  SimConfig cfg = tiny_config();
  cfg.max_rounds = 1;
  const auto result = run_simulation(cfg, FaultSet{});
  EXPECT_EQ(result.rounds, 1);
  EXPECT_FALSE(result.reached_quiescence);
  EXPECT_FALSE(result.success());
}

TEST(Simulation, SourceAtArbitraryPosition) {
  SimConfig cfg = tiny_config();
  cfg.source = {7, 7};
  const auto result = run_simulation(cfg, FaultSet{});
  EXPECT_TRUE(result.success());
  Torus torus(cfg.width, cfg.height);
  EXPECT_EQ(result.outcomes[static_cast<std::size_t>(torus.index({7, 7}))],
            NodeOutcome::kSource);
}

TEST(Simulation, ProtocolAndAdversaryNames) {
  EXPECT_STREQ(to_string(ProtocolKind::kCrashFlood), "crash-flood");
  EXPECT_STREQ(to_string(ProtocolKind::kCpa), "cpa");
  EXPECT_STREQ(to_string(ProtocolKind::kBvTwoHop), "bv-2hop");
  EXPECT_STREQ(to_string(ProtocolKind::kBvIndirectFlood), "bv-4hop-flood");
  EXPECT_STREQ(to_string(ProtocolKind::kBvIndirectEarmarked),
               "bv-4hop-earmarked");
  EXPECT_STREQ(to_string(AdversaryKind::kSilent), "silent");
  EXPECT_STREQ(to_string(AdversaryKind::kLying), "lying");
  EXPECT_STREQ(to_string(AdversaryKind::kCrashAtRound), "crash-at-round");
}

TEST(Simulation, ProtocolFromStringRoundTrip) {
  for (const ProtocolKind k :
       {ProtocolKind::kCrashFlood, ProtocolKind::kCpa, ProtocolKind::kBvTwoHop,
        ProtocolKind::kBvIndirectFlood,
        ProtocolKind::kBvIndirectEarmarked}) {
    const auto parsed = protocol_from_string(to_string(k));
    ASSERT_TRUE(parsed.has_value()) << to_string(k);
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_FALSE(protocol_from_string("bv-9hop").has_value());
  EXPECT_FALSE(protocol_from_string("").has_value());
}

TEST(Simulation, AdversaryFromStringRoundTrip) {
  for (const AdversaryKind k :
       {AdversaryKind::kSilent, AdversaryKind::kLying,
        AdversaryKind::kCrashAtRound, AdversaryKind::kSpoofing,
        AdversaryKind::kJamming}) {
    const auto parsed = adversary_from_string(to_string(k));
    ASSERT_TRUE(parsed.has_value()) << to_string(k);
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_FALSE(adversary_from_string("polite").has_value());
}

TEST(Simulation, AllProtocolsRunFaultFree) {
  for (const ProtocolKind kind :
       {ProtocolKind::kCrashFlood, ProtocolKind::kCpa, ProtocolKind::kBvTwoHop,
        ProtocolKind::kBvIndirectFlood, ProtocolKind::kBvIndirectEarmarked}) {
    SimConfig cfg = tiny_config();
    cfg.protocol = kind;
    cfg.t = (kind == ProtocolKind::kCrashFlood || kind == ProtocolKind::kCpa)
                ? 0
                : byz_linf_achievable_max(1);
    const auto result = run_simulation(cfg, FaultSet{});
    EXPECT_TRUE(result.success()) << to_string(kind);
  }
}

TEST(Simulation, CommitRoundsTrackTheWave) {
  SimConfig cfg = tiny_config();
  const auto result = run_simulation(cfg, FaultSet{});
  Torus torus(cfg.width, cfg.height);
  // The source commits at round 0; its direct neighbors at round 1; nodes
  // two hops out at round 2.
  EXPECT_EQ(result.commit_rounds[static_cast<std::size_t>(torus.index({0, 0}))],
            0);
  EXPECT_EQ(result.commit_rounds[static_cast<std::size_t>(torus.index({1, 1}))],
            1);
  EXPECT_EQ(result.commit_rounds[static_cast<std::size_t>(torus.index({2, 0}))],
            2);
  // Every honest node has a commit round, and it never exceeds the run.
  for (const std::int64_t round : result.commit_rounds) {
    EXPECT_GE(round, 0);
    EXPECT_LE(round, result.rounds);
  }
}

TEST(Simulation, CommitRoundsOfFaultyNodesAreUnset) {
  SimConfig cfg = tiny_config();
  Torus torus(cfg.width, cfg.height);
  FaultSet faults(torus, {{6, 6}});
  const auto result = run_simulation(cfg, faults);
  EXPECT_EQ(result.commit_rounds[static_cast<std::size_t>(torus.index({6, 6}))],
            -1);
}

TEST(Simulation, CommitsByRoundIsCumulativeAndComplete) {
  SimConfig cfg = tiny_config();
  const auto result = run_simulation(cfg, FaultSet{});
  const auto series = result.commits_by_round();
  ASSERT_EQ(series.size(), static_cast<std::size_t>(result.rounds) + 1);
  EXPECT_EQ(series.front(), 1);  // the source
  for (std::size_t k = 1; k < series.size(); ++k) {
    EXPECT_GE(series[k], series[k - 1]);
  }
  // Total = all honest nodes + source.
  EXPECT_EQ(series.back(), result.honest_nodes + 1);
}

TEST(Simulation, L2MetricRuns) {
  SimConfig cfg = tiny_config();
  cfg.metric = Metric::kL2;
  cfg.protocol = ProtocolKind::kBvTwoHop;
  cfg.t = 0;
  const auto result = run_simulation(cfg, FaultSet{});
  EXPECT_TRUE(result.success());
}

}  // namespace
}  // namespace rbcast
