// Chaos-layer tests: lossy/jammed sim-runtime equivalence, ChaosTransport
// fault injection semantics, node crash/restart recovery, and snapshot
// persistence.
//
// The equivalence argument (docs/RUNTIME.md): message-level loss is applied
// sender-side ABOVE the perfect link, drawn from the simulator's
// PairwiseLossChannel streams (per-(sender, receiver), seeded by
// pairwise_loss_seed), with per-receiver ROUND_DONE counts. The link then
// guarantees every non-suppressed message arrives, so both backends deliver
// the exact same message sets in the exact same order — verdicts, commit
// rounds, and envelope drop counts match node-for-node. Datagram-level chaos
// (ChaosTransport) sits BELOW the link and is fully masked by
// retransmission: it perturbs timing and packet counters, never verdicts.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "radiobcast/core/simulation.h"
#include "radiobcast/runtime/harness.h"
#include "radiobcast/runtime/snapshot.h"
#include "radiobcast/runtime/transport.h"

namespace rbcast {
namespace {

// ---------------------------------------------------------------------------
// Equivalence: lossy and jammed channels, sim vs. threads-over-UDP.

Scenario torus_scenario(std::int32_t side, std::uint64_t seed) {
  Scenario scenario;
  scenario.sim.width = side;
  scenario.sim.height = side;
  scenario.sim.r = 1;
  scenario.sim.metric = Metric::kLInf;
  scenario.sim.t = 0;
  scenario.sim.protocol = ProtocolKind::kCrashFlood;
  scenario.sim.adversary = AdversaryKind::kSilent;
  scenario.sim.value = 1;
  scenario.sim.source = {0, 0};
  scenario.sim.seed = seed;
  scenario.sim.max_rounds = 0;  // both backends use default_round_bound
  // Equivalence runs barrier forever: all peers are alive on loopback, and a
  // timeout would make delivery timing-dependent.
  scenario.round_timeout_ms = 0;
  scenario.linger_timeout_ms = 2000;
  return scenario;
}

void expect_runtime_matches_sim(const Scenario& scenario, const SimResult& sim,
                                const RuntimeResult& rt) {
  EXPECT_EQ(rt.honest_nodes, sim.honest_nodes);
  EXPECT_EQ(rt.correct_commits, sim.correct_commits);
  EXPECT_EQ(rt.wrong_commits, sim.wrong_commits);
  EXPECT_EQ(rt.undecided, sim.undecided);
  EXPECT_FALSE(rt.any_interrupted);

  const Torus torus(scenario.sim.width, scenario.sim.height);
  ASSERT_EQ(rt.verdicts.size(), static_cast<std::size_t>(torus.node_count()));
  for (const RuntimeVerdict& v : rt.verdicts) {
    const std::size_t i = static_cast<std::size_t>(v.index);
    const std::string where = "node " + std::to_string(v.index) + " (" +
                              std::to_string(v.self.x) + "," +
                              std::to_string(v.self.y) + ")";
    switch (sim.outcomes[i]) {
      case NodeOutcome::kSource:
        EXPECT_EQ(v.role, NodeRole::kSource) << where;
        break;
      case NodeOutcome::kFaulty:
        EXPECT_EQ(v.role, NodeRole::kFaulty) << where;
        break;
      case NodeOutcome::kUndecided:
        EXPECT_EQ(v.role, NodeRole::kHonest) << where;
        EXPECT_FALSE(v.committed.has_value()) << where;
        break;
      case NodeOutcome::kCommitted0:
      case NodeOutcome::kCommitted1: {
        const std::uint8_t value =
            sim.outcomes[i] == NodeOutcome::kCommitted1 ? 1 : 0;
        EXPECT_EQ(v.role, NodeRole::kHonest) << where;
        ASSERT_TRUE(v.committed.has_value()) << where;
        EXPECT_EQ(*v.committed, value) << where;
        EXPECT_EQ(v.commit_round, sim.commit_rounds[i]) << where;
        break;
      }
    }
  }

  EXPECT_EQ(rt.counters.commits, sim.counters.commits);
  EXPECT_EQ(rt.counters.broadcasts_queued, sim.counters.broadcasts_queued);
  EXPECT_EQ(rt.counters.last_commit_round, sim.counters.last_commit_round);
  // The channel suppressed the exact same (message, receiver) envelopes on
  // both backends — the heart of the lossy-equivalence claim.
  EXPECT_EQ(rt.counters.envelopes_dropped, sim.counters.envelopes_dropped);
}

// The ISSUE acceptance case: a seeded 10%-loss 8x8-torus deployment over
// real sockets reproduces the simulator's verdicts node-for-node when the
// simulator draws from the distributedly-replicable pairwise loss channel.
TEST(RuntimeChaosEquivalence, LossyDeploymentMatchesPairwiseSimNodeForNode) {
  Scenario scenario = torus_scenario(8, 20260808);
  scenario.sim.t = 3;
  scenario.faults = {{3, 3}, {6, 2}};
  scenario.sim.loss_p = 0.1;
  scenario.sim.loss_model = LossModel::kPairwise;

  const SimResult sim = run_simulation(scenario.sim, scenario.fault_set());
  const RuntimeResult rt = run_scenario_threads(scenario);

  // Loss must have actually fired, or this test proves nothing.
  ASSERT_GT(sim.counters.envelopes_dropped, 0u);
  expect_runtime_matches_sim(scenario, sim, rt);
}

TEST(RuntimeChaosEquivalence, UnboundedJammingMatchesGeometricBlackout) {
  Scenario scenario = torus_scenario(8, 777);
  scenario.sim.t = 1;
  scenario.sim.adversary = AdversaryKind::kJamming;
  scenario.sim.jam_budget = -1;  // unbounded: a static geometric blackout
  scenario.faults = {{4, 4}};

  const SimResult sim = run_simulation(scenario.sim, scenario.fault_set());
  const RuntimeResult rt = run_scenario_threads(scenario);

  // The blackout must have destroyed traffic and stranded somebody.
  ASSERT_GT(sim.counters.envelopes_dropped, 0u);
  ASSERT_GT(sim.undecided, 0);
  expect_runtime_matches_sim(scenario, sim, rt);
}

// The shared-stream and pairwise loss channels are different random
// processes over the same marginal distribution: per-seed results differ,
// but the coverage they induce must agree on average. This bounds how much
// the runtime's channel (pairwise by construction) can drift from the
// historical shared-stream ablation numbers.
TEST(RuntimeChaosEquivalence, PairwiseAndSharedStreamLossAgreeOnAverage) {
  double mean[2] = {0.0, 0.0};
  const int kSeeds = 20;
  for (int which = 0; which < 2; ++which) {
    for (int s = 0; s < kSeeds; ++s) {
      Scenario scenario = torus_scenario(8, 9000 + static_cast<std::uint64_t>(s));
      scenario.sim.loss_p = 0.25;
      scenario.sim.loss_model =
          which == 0 ? LossModel::kSharedStream : LossModel::kPairwise;
      const SimResult sim =
          run_simulation(scenario.sim, scenario.fault_set());
      mean[which] += static_cast<double>(sim.correct_commits) /
                     static_cast<double>(sim.honest_nodes);
    }
    mean[which] /= kSeeds;
  }
  EXPECT_NEAR(mean[0], mean[1], 0.15)
      << "shared-stream coverage " << mean[0] << " vs pairwise " << mean[1];
}

// ---------------------------------------------------------------------------
// ChaosTransport unit semantics (over a recording stub, no sockets).

class RecordingTransport final : public Transport {
 public:
  void send(std::uint32_t to, const std::vector<std::uint8_t>& bytes) override {
    sent.emplace_back(to, bytes);
  }
  bool try_receive(Datagram& out) override {
    if (inbox.empty()) return false;
    out = std::move(inbox.front());
    inbox.pop_front();
    return true;
  }
  void wait(std::chrono::steady_clock::time_point) override {}

  std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>> sent;
  std::deque<Datagram> inbox;
};

std::vector<std::uint8_t> payload(std::uint8_t tag) { return {tag, 0xAB}; }

TEST(ChaosTransport, SameSeedInjectsTheSameFaultSchedule) {
  std::vector<std::vector<std::uint8_t>> first;
  for (int run = 0; run < 2; ++run) {
    RecordingTransport inner;
    ChaosOptions opts;
    opts.drop_p = 0.3;
    opts.duplicate_p = 0.2;
    opts.seed = 42;
    ChaosTransport chaos(0, inner, opts);
    for (int i = 0; i < 100; ++i) {
      chaos.send(1, payload(static_cast<std::uint8_t>(i)));
    }
    std::vector<std::vector<std::uint8_t>> delivered;
    for (const auto& [to, bytes] : inner.sent) delivered.push_back(bytes);
    ASSERT_LT(delivered.size(), 130u);  // drops happened
    ASSERT_GT(delivered.size(), 70u);   // but most survive (and dups add)
    if (run == 0) {
      first = delivered;
      EXPECT_GT(chaos.stats().drops, 0u);
      EXPECT_GT(chaos.stats().duplicates, 0u);
    } else {
      EXPECT_EQ(delivered, first) << "fate schedule not seed-deterministic";
    }
  }

  // A different seed picks a different schedule.
  RecordingTransport inner;
  ChaosOptions opts;
  opts.drop_p = 0.3;
  opts.duplicate_p = 0.2;
  opts.seed = 43;
  ChaosTransport chaos(0, inner, opts);
  for (int i = 0; i < 100; ++i) {
    chaos.send(1, payload(static_cast<std::uint8_t>(i)));
  }
  std::vector<std::vector<std::uint8_t>> delivered;
  for (const auto& [to, bytes] : inner.sent) delivered.push_back(bytes);
  EXPECT_NE(delivered, first);
}

TEST(ChaosTransport, FateStreamsArePerDestination) {
  // Interleaving traffic to other peers must not shift a pair's schedule:
  // the fate of datagram k on (self -> to) depends only on (seed, pair, k).
  auto run = [](bool interleave) {
    RecordingTransport inner;
    ChaosOptions opts;
    opts.drop_p = 0.5;
    opts.seed = 7;
    ChaosTransport chaos(0, inner, opts);
    for (int i = 0; i < 40; ++i) {
      chaos.send(1, payload(static_cast<std::uint8_t>(i)));
      if (interleave) chaos.send(2, payload(0xEE));
    }
    std::vector<std::vector<std::uint8_t>> to_peer1;
    for (const auto& [to, bytes] : inner.sent) {
      if (to == 1) to_peer1.push_back(bytes);
    }
    return to_peer1;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(ChaosTransport, DuplicatesArriveBackToBack) {
  RecordingTransport inner;
  ChaosOptions opts;
  opts.duplicate_p = 1.0;
  opts.seed = 1;
  ChaosTransport chaos(0, inner, opts);
  chaos.send(3, payload(0x11));
  ASSERT_EQ(inner.sent.size(), 2u);
  EXPECT_EQ(inner.sent[0], inner.sent[1]);
  EXPECT_EQ(inner.sent[0].first, 3u);
  EXPECT_EQ(chaos.stats().duplicates, 1u);
}

TEST(ChaosTransport, PartitionIsDirected) {
  ChaosOptions opts;
  opts.seed = 1;
  opts.partitions.push_back({/*from=*/0, /*to=*/1, 0, -1});

  // The 0 -> 1 direction is black-holed...
  RecordingTransport inner0;
  ChaosTransport chaos0(0, inner0, opts);
  chaos0.send(1, payload(0x01));
  chaos0.send(2, payload(0x02));  // other destinations unaffected
  ASSERT_EQ(inner0.sent.size(), 1u);
  EXPECT_EQ(inner0.sent[0].first, 2u);
  EXPECT_EQ(chaos0.stats().partition_drops, 1u);

  // ...while the reverse direction sails through (same options, self = 1:
  // the partition entry is filtered to from == self).
  RecordingTransport inner1;
  ChaosTransport chaos1(1, inner1, opts);
  chaos1.send(0, payload(0x03));
  EXPECT_EQ(inner1.sent.size(), 1u);
  EXPECT_EQ(chaos1.stats().partition_drops, 0u);
}

TEST(ChaosTransport, DelayHoldsDatagramsUntilTheDeadline) {
  // Fake clock via the ChaosOptions::clock seam: the test advances time
  // explicitly instead of sleeping, so a loaded machine can't flake it.
  auto fake_now = std::chrono::steady_clock::now();
  RecordingTransport inner;
  ChaosOptions opts;
  opts.delay_p = 1.0;
  opts.delay = std::chrono::milliseconds(25);
  opts.seed = 1;
  opts.clock = [&fake_now] { return fake_now; };
  ChaosTransport chaos(0, inner, opts);
  chaos.send(1, payload(0x5A));
  EXPECT_TRUE(inner.sent.empty());
  EXPECT_EQ(chaos.stats().delays, 1u);

  // Pumping before the deadline releases nothing — even a hair before.
  Datagram d;
  EXPECT_FALSE(chaos.try_receive(d));
  EXPECT_TRUE(inner.sent.empty());
  fake_now += std::chrono::milliseconds(25) - std::chrono::microseconds(1);
  EXPECT_FALSE(chaos.try_receive(d));
  EXPECT_TRUE(inner.sent.empty());

  fake_now += std::chrono::microseconds(1);
  EXPECT_FALSE(chaos.try_receive(d));  // pump: releases the held datagram
  ASSERT_EQ(inner.sent.size(), 1u);
  EXPECT_EQ(inner.sent[0].first, 1u);
  EXPECT_EQ(inner.sent[0].second, payload(0x5A));
}

// ---------------------------------------------------------------------------
// Datagram chaos under the full runtime: masked by the perfect link.

TEST(RuntimeChaos, DatagramChaosIsMaskedByThePerfectLink) {
  Scenario scenario = torus_scenario(4, 321);
  scenario.chaos.drop_p = 0.1;
  scenario.chaos.duplicate_p = 0.05;

  const RuntimeResult result = run_scenario_threads(scenario);

  // Chaos fired at the socket layer...
  EXPECT_GT(result.counters.chaos_drops, 0u);
  // ...and the protocol outcome is untouched: retransmission masks drops,
  // dedup masks duplicates. This is exactly why verdict-level loss must be
  // injected above the link instead.
  EXPECT_TRUE(result.success());
  EXPECT_EQ(result.correct_commits, result.honest_nodes);
  EXPECT_EQ(result.counters.node_restarts, 0u);
}

// ---------------------------------------------------------------------------
// Crash / restart recovery (thread harness).

Scenario crash_scenario(const std::filesystem::path& state_dir) {
  Scenario scenario = torus_scenario(6, 4242);
  scenario.sim.max_rounds = 12;
  scenario.round_timeout_ms = 25;  // peers must outrun the dead node
  scenario.linger_timeout_ms = 500;
  scenario.suspect_after = 2;
  scenario.crash_node = Coord{3, 3};  // honest, max LInf distance from source
  scenario.crash_at_round = 1;        // dies before the commit wave arrives
  scenario.state_dir = state_dir.string();
  return scenario;
}

TEST(RuntimeChaos, CrashedNodeYieldsADegradedButCorrectVerdict) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "chaos_crash_dead";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Scenario scenario = crash_scenario(dir);
  scenario.restart_after_ms = -1;  // stays dead

  const RuntimeResult result = run_scenario_threads(scenario);

  // The crashed node is excused, everyone else commits: degraded-but-correct
  // rather than a hang or a missing verdict.
  EXPECT_EQ(result.crashed_nodes, 1);
  EXPECT_EQ(result.crashed_undecided, 1);
  EXPECT_EQ(result.honest_nodes, 35);
  EXPECT_EQ(result.correct_commits, 34);
  EXPECT_EQ(result.wrong_commits, 0);
  EXPECT_EQ(result.undecided, 1);
  EXPECT_FALSE(result.success());
  EXPECT_TRUE(result.degraded());
  EXPECT_TRUE(result.degraded_correct());
  EXPECT_GT(result.counters.barrier_timeouts, 0u);
  EXPECT_EQ(result.counters.node_restarts, 0u);

  const Torus torus(6, 6);
  const RuntimeVerdict& v =
      result.verdicts[static_cast<std::size_t>(torus.index({3, 3}))];
  EXPECT_TRUE(v.crashed);
  EXPECT_FALSE(v.committed.has_value());
  // The crash left a snapshot behind — the artifact a restart would resume
  // from, and what the orchestrator reads to synthesize dead-node verdicts.
  EXPECT_TRUE(std::filesystem::exists(
      dir / ("state-" + std::to_string(torus.index({3, 3})) + ".txt")));

  std::filesystem::remove_all(dir);
}

TEST(RuntimeChaos, RestartedNodeResumesFromSnapshotAndCommits) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "chaos_crash_restart";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Scenario scenario = crash_scenario(dir);
  scenario.restart_after_ms = 40;

  const RuntimeResult result = run_scenario_threads(scenario);

  // The restarted process rejoined the barrier (fresh synchronizer, snapshot
  // sequence numbers) and caught the commit wave from its peers' stubborn
  // retransmissions: full convergence, flagged as degraded.
  EXPECT_EQ(result.counters.node_restarts, 1u);
  EXPECT_EQ(result.wrong_commits, 0);
  EXPECT_EQ(result.correct_commits, result.honest_nodes);
  EXPECT_TRUE(result.success());
  EXPECT_TRUE(result.degraded());
  EXPECT_TRUE(result.degraded_correct());
  EXPECT_EQ(result.crashed_nodes, 0);  // its final incarnation finished clean

  const Torus torus(6, 6);
  const RuntimeVerdict& v =
      result.verdicts[static_cast<std::size_t>(torus.index({3, 3}))];
  EXPECT_FALSE(v.crashed);
  ASSERT_TRUE(v.committed.has_value());
  EXPECT_EQ(*v.committed, 1);
  EXPECT_EQ(v.counters.node_restarts, 1u);

  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Snapshot persistence.

TEST(Snapshot, RoundtripsThroughDisk) {
  NodeSnapshot snap;
  snap.round = 7;
  snap.committed = 1;
  snap.commit_round = 4;
  snap.restarts = 2;
  snap.link.out_next_seq = {{1, 12}, {3, 9}};
  snap.link.in_next_seq = {{1, 11}, {3, 10}};
  snap.loss_draws = {{1, 36}, {3, 24}};

  const std::string path =
      (std::filesystem::path(testing::TempDir()) / "snap_roundtrip.txt")
          .string();
  write_snapshot(path, snap);
  const auto loaded = load_snapshot(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, snap);

  // Overwrite is atomic-replace, not append: a second write fully replaces.
  snap.round = 8;
  snap.restarts = 3;
  write_snapshot(path, snap);
  const auto reloaded = load_snapshot(path);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(*reloaded, snap);
  std::filesystem::remove(path);
}

TEST(Snapshot, MissingFileMeansFreshStart) {
  const std::string path =
      (std::filesystem::path(testing::TempDir()) / "snap_never_written.txt")
          .string();
  std::filesystem::remove(path);
  EXPECT_FALSE(load_snapshot(path).has_value());
}

TEST(Snapshot, MalformedFileThrowsInsteadOfGuessing) {
  const std::string path =
      (std::filesystem::path(testing::TempDir()) / "snap_garbage.txt")
          .string();
  std::ofstream(path) << "not a snapshot\nround banana\n";
  EXPECT_THROW(load_snapshot(path), std::invalid_argument);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace rbcast
