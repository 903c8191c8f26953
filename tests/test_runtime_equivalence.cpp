// Sim/runtime equivalence: the same protocol code, run once under the
// discrete-event simulator and once as a threaded runtime deployment, must
// produce identical per-node verdicts — same committed value, same commit
// round, for every node — and they must do so over BOTH transports: per-node
// UDP sockets waiting in epoll, and one SwarmHub socket whose members wait on
// mailbox condvars. That is the test that the transport only changes how
// datagrams move and when nodes wake, never what they observe.
//
// Why this holds (docs/RUNTIME.md has the full argument): the runtime tags
// every broadcast with its TDMA round, the perfect link delivers per-sender
// FIFO, and the round synchronizer releases each round's traffic in the
// simulator's delivery order (sender index ascending, per-sender FIFO) only
// after every neighbor's ROUND_DONE marker confirms the round is complete.
// Simulator and runtime run the same protocol code — for crash-flood, cpa
// and bv-2hop the runtime's make_node_behavior nodes are one-slot views of
// the pool the simulator shares across its honest nodes — and the same
// default_round_bound horizon, so each node observes a byte-identical event
// sequence in every deployment.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "radiobcast/core/simulation.h"
#include "radiobcast/runtime/harness.h"

namespace rbcast {
namespace {

struct EquivalenceCase {
  const char* name;
  ProtocolKind protocol;
  AdversaryKind adversary;
  std::int64_t t;
  std::vector<Coord> faults;
  /// Message-level loss (the simulator's pairwise channel, replicated
  /// sender-side by the runtime). 0 = perfect channel.
  double loss_p = 0.0;
  /// Unbounded jamming when < 0 (faults double as jammer coordinates).
  std::int64_t jam_budget = 0;
};

/// How a deployment moves its datagrams, named by how its nodes wait.
struct Deployment {
  const char* name;
  bool shared_socket;
};

/// Per-node UDP sockets; each node sleeps in epoll_wait on its own socket.
constexpr Deployment kEpoll{"epoll", false};
/// One SwarmHub socket; members sleep on their mailbox condvars.
constexpr Deployment kSwarm{"swarm", true};

Scenario make_scenario(const EquivalenceCase& param, Deployment deployment) {
  Scenario scenario;
  scenario.sim.width = 8;
  scenario.sim.height = 8;
  scenario.sim.r = 1;
  scenario.sim.metric = Metric::kLInf;
  scenario.sim.t = param.t;
  scenario.sim.protocol = param.protocol;
  scenario.sim.adversary = param.adversary;
  scenario.sim.value = 1;
  scenario.sim.source = {0, 0};
  scenario.sim.seed = 12345;
  scenario.sim.max_rounds = 0;  // default_round_bound, like the simulator
  if (param.loss_p > 0.0) {
    scenario.sim.loss_p = param.loss_p;
    // The per-pair streams are the only loss process a distributed node can
    // replicate without shared state (tests/test_runtime_chaos.cpp).
    scenario.sim.loss_model = LossModel::kPairwise;
  }
  scenario.sim.jam_budget = param.jam_budget;
  scenario.faults = param.faults;
  scenario.shared_socket = deployment.shared_socket;
  // Equivalence runs barrier forever: on loopback with threads all peers are
  // alive, and a timeout would make delivery timing-dependent.
  scenario.round_timeout_ms = 0;
  scenario.linger_timeout_ms = 2000;
  return scenario;
}

const std::vector<EquivalenceCase>& all_cases() {
  static const std::vector<EquivalenceCase> cases{
      // Crash-flood tolerates silent faults anywhere; t is the assumed
      // local bound.
      EquivalenceCase{"crash_flood", ProtocolKind::kCrashFlood,
                      AdversaryKind::kSilent, 3,
                      std::vector<Coord>{{3, 3}, {6, 2}, {1, 6}}},
      EquivalenceCase{"cpa", ProtocolKind::kCpa, AdversaryKind::kSilent, 1,
                      std::vector<Coord>{{4, 4}}},
      EquivalenceCase{"bv_2hop", ProtocolKind::kBvTwoHop,
                      AdversaryKind::kLying, 1, std::vector<Coord>{{4, 4}}},
      EquivalenceCase{"bv_4hop_flood", ProtocolKind::kBvIndirectFlood,
                      AdversaryKind::kLying, 1, std::vector<Coord>{{4, 4}}},
      EquivalenceCase{"bv_4hop_earmarked", ProtocolKind::kBvIndirectEarmarked,
                      AdversaryKind::kSilent, 1, std::vector<Coord>{{4, 4}}},
      // Crash-at-round exercises mid-run behavior changes (the adversary
      // is honest until its crash round).
      EquivalenceCase{"crash_flood_crash_at_round", ProtocolKind::kCrashFlood,
                      AdversaryKind::kCrashAtRound, 3,
                      std::vector<Coord>{{3, 3}, {6, 2}}},
      // Lossy channel: the runtime replays the simulator's pairwise drop
      // schedule message-for-message, over either transport.
      EquivalenceCase{"crash_flood_lossy", ProtocolKind::kCrashFlood,
                      AdversaryKind::kSilent, 3,
                      std::vector<Coord>{{3, 3}, {6, 2}, {1, 6}},
                      /*loss_p=*/0.1},
      // Unbounded jamming: a static geometric blackout around the faults.
      EquivalenceCase{"crash_flood_jammed", ProtocolKind::kCrashFlood,
                      AdversaryKind::kJamming, 1, std::vector<Coord>{{4, 4}},
                      /*loss_p=*/0.0, /*jam_budget=*/-1}};
  return cases;
}

using EquivalenceParam = std::tuple<EquivalenceCase, Deployment>;

class RuntimeEquivalence : public testing::TestWithParam<EquivalenceParam> {};

TEST_P(RuntimeEquivalence, VerdictsMatchTheSimulatorNodeForNode) {
  const EquivalenceCase& param = std::get<0>(GetParam());
  const Deployment deployment = std::get<1>(GetParam());
  const Scenario scenario = make_scenario(param, deployment);

  const SimResult sim = run_simulation(scenario.sim, scenario.fault_set());
  const RuntimeResult rt = run_scenario_threads(scenario);

  // Aggregate verdicts agree.
  EXPECT_EQ(rt.honest_nodes, sim.honest_nodes);
  EXPECT_EQ(rt.correct_commits, sim.correct_commits);
  EXPECT_EQ(rt.wrong_commits, sim.wrong_commits);
  EXPECT_EQ(rt.undecided, sim.undecided);
  EXPECT_FALSE(rt.any_interrupted);

  // Node-for-node: same committed value, same commit round.
  const Torus torus(scenario.sim.width, scenario.sim.height);
  ASSERT_EQ(rt.verdicts.size(), static_cast<std::size_t>(torus.node_count()));
  for (const RuntimeVerdict& v : rt.verdicts) {
    const std::size_t i = static_cast<std::size_t>(v.index);
    const NodeOutcome expected = sim.outcomes[i];
    const std::string where = "node " + std::to_string(v.index) + " (" +
                              std::to_string(v.self.x) + "," +
                              std::to_string(v.self.y) + ") under " +
                              param.name + "/" + deployment.name;
    switch (expected) {
      case NodeOutcome::kSource:
        EXPECT_EQ(v.role, NodeRole::kSource) << where;
        break;
      case NodeOutcome::kFaulty:
        EXPECT_EQ(v.role, NodeRole::kFaulty) << where;
        break;
      case NodeOutcome::kUndecided:
        EXPECT_EQ(v.role, NodeRole::kHonest) << where;
        EXPECT_FALSE(v.committed.has_value()) << where;
        EXPECT_EQ(v.commit_round, -1) << where;
        break;
      case NodeOutcome::kCommitted0:
      case NodeOutcome::kCommitted1: {
        const std::uint8_t value =
            expected == NodeOutcome::kCommitted1 ? 1 : 0;
        EXPECT_EQ(v.role, NodeRole::kHonest) << where;
        ASSERT_TRUE(v.committed.has_value()) << where;
        EXPECT_EQ(*v.committed, value) << where;
        EXPECT_EQ(v.commit_round, sim.commit_rounds[i]) << where;
        break;
      }
    }
  }

  // The protocol-level traffic counters agree too: simulator and runtime host
  // the same behaviors observing the same event sequences, so they queue the
  // same broadcasts and commit the same number of times. (Link-level packet
  // counters are timing-dependent and deliberately not compared.)
  EXPECT_EQ(rt.counters.commits, sim.counters.commits);
  EXPECT_EQ(rt.counters.broadcasts_queued, sim.counters.broadcasts_queued);
  EXPECT_EQ(rt.counters.committed_queued, sim.counters.committed_queued);
  EXPECT_EQ(rt.counters.heard_queued, sim.counters.heard_queued);
  EXPECT_EQ(rt.counters.last_commit_round, sim.counters.last_commit_round);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, RuntimeEquivalence,
    testing::Combine(testing::ValuesIn(all_cases()),
                     testing::Values(kEpoll, kSwarm)),
    [](const testing::TestParamInfo<EquivalenceParam>& info) {
      return std::string(std::get<0>(info.param).name) + "_" +
             std::get<1>(info.param).name;
    });

// ---------------------------------------------------------------------------
// Cross-transport: verdict cores are byte-identical

/// Serializes every verdict's deterministic core into one string.
std::string cores_of(const RuntimeResult& result) {
  std::ostringstream out;
  for (const RuntimeVerdict& v : result.verdicts) {
    write_verdict_core(out, v);
    out << "---\n";
  }
  return out.str();
}

class CrossTransport : public testing::TestWithParam<EquivalenceCase> {};

TEST_P(CrossTransport, VerdictCoresAreByteIdenticalOverUdpAndSwarmHub) {
  const EquivalenceCase& param = GetParam();
  const RuntimeResult udp = run_scenario_threads(make_scenario(param, kEpoll));
  const RuntimeResult swarm =
      run_scenario_threads(make_scenario(param, kSwarm));
  EXPECT_EQ(cores_of(udp), cores_of(swarm));
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, CrossTransport,
                         testing::ValuesIn(all_cases()),
                         [](const testing::TestParamInfo<EquivalenceCase>&
                                info) { return std::string(info.param.name); });

}  // namespace
}  // namespace rbcast
