// Slot-view equivalence: each protocol pool (protocols/pool.h) is the only
// implementation of its protocol, run two ways — run_simulation shares one
// pool across every honest node, while the networked runtime and the
// crash-at-round adversary drive a one-slot view of it per node
// (PoolSlotBehavior, built by make_node_behavior). Both must produce EXACTLY
// the same trial: same outcomes, same commit rounds, same traffic, same
// deterministic counters — across all five protocols, adversaries and
// channel models.
// The golden SHA-256 suite pins the serialized bytes of the shared-pool run;
// this suite pins the per-node run against it field by field.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "radiobcast/core/experiment.h"
#include "radiobcast/core/simulation.h"
#include "radiobcast/fault/fault_set.h"
#include "radiobcast/grid/torus.h"
#include "radiobcast/net/jamming.h"
#include "radiobcast/net/network.h"
#include "radiobcast/obs/trace.h"
#include "radiobcast/protocols/pool.h"

namespace rbcast {
namespace {

/// run_simulation's trial with every node populated one by one through
/// make_node_behavior — no shared pool — scored the same way, and traced
/// into `trace` if given.
SimResult run_per_node(const SimConfig& cfg, const FaultSet& faults,
                       RoundTrace* trace) {
  const Torus torus(cfg.width, cfg.height);
  const Coord source = torus.wrap(cfg.source);
  RadioNetwork net(torus, cfg.r, cfg.metric, cfg.seed);
  if (trace != nullptr) {
    trace->set_enabled(true);
    net.set_trace(trace);
  }
  if (cfg.adversary == AdversaryKind::kSpoofing) net.allow_spoofing(true);
  if (cfg.adversary == AdversaryKind::kJamming) {
    net.set_channel(std::make_unique<JammingChannel>(
        torus, cfg.r, cfg.metric, faults.sorted(), cfg.jam_budget));
  } else if (cfg.loss_p > 0.0) {
    if (cfg.loss_model == LossModel::kPairwise) {
      net.set_channel(
          std::make_unique<PairwiseLossChannel>(cfg.loss_p, cfg.seed));
    } else {
      net.set_channel(std::make_unique<IidLossChannel>(cfg.loss_p));
    }
  }
  if (cfg.retransmissions != 1) net.set_retransmissions(cfg.retransmissions);
  for (const Coord c : torus.all_coords()) {
    const NodeRole role = c == source          ? NodeRole::kSource
                          : faults.contains(c) ? NodeRole::kFaulty
                                               : NodeRole::kHonest;
    net.set_behavior(c, make_node_behavior(cfg, torus, role));
  }
  net.start();
  const std::int64_t bound =
      cfg.max_rounds > 0 ? cfg.max_rounds : default_round_bound(cfg);

  SimResult result;
  result.rounds = net.run_until_quiescent(bound);
  result.reached_quiescence = net.quiescent();
  result.transmissions = net.stats().transmissions;
  result.payload_units = net.stats().payload_units;
  result.counters = net.counters();
  result.outcomes.assign(static_cast<std::size_t>(torus.node_count()),
                         NodeOutcome::kUndecided);
  result.commit_rounds.assign(static_cast<std::size_t>(torus.node_count()),
                              -1);
  for (const Coord c : torus.all_coords()) {
    const auto idx = static_cast<std::size_t>(torus.index(c));
    if (c == source) {
      result.outcomes[idx] = NodeOutcome::kSource;
      result.commit_rounds[idx] = 0;
      continue;
    }
    if (faults.contains(c)) {
      result.outcomes[idx] = NodeOutcome::kFaulty;
      continue;
    }
    result.honest_nodes += 1;
    const auto committed = net.committed_value_of(c);
    if (!committed.has_value()) {
      result.undecided += 1;
      continue;
    }
    result.commit_rounds[idx] = net.commit_round_of(c).value_or(-1);
    result.outcomes[idx] = (*committed & 1) ? NodeOutcome::kCommitted1
                                            : NodeOutcome::kCommitted0;
    if (*committed == cfg.value) {
      result.correct_commits += 1;
    } else {
      result.wrong_commits += 1;
    }
  }
  return result;
}

/// Runs the same (config, faults) both ways and compares the results. The
/// optional sinks receive the shared-pool and the per-node trace.
void expect_identical(const SimConfig& cfg, const FaultSet& faults,
                      const std::string& tag,
                      RoundTrace* shared_trace = nullptr,
                      RoundTrace* per_node_trace = nullptr) {
  const SimResult a = run_simulation(cfg, faults, ObsOptions{shared_trace});
  const SimResult b = run_per_node(cfg, faults, per_node_trace);
  EXPECT_EQ(a.honest_nodes, b.honest_nodes) << tag;
  EXPECT_EQ(a.correct_commits, b.correct_commits) << tag;
  EXPECT_EQ(a.wrong_commits, b.wrong_commits) << tag;
  EXPECT_EQ(a.undecided, b.undecided) << tag;
  EXPECT_EQ(a.rounds, b.rounds) << tag;
  EXPECT_EQ(a.reached_quiescence, b.reached_quiescence) << tag;
  EXPECT_EQ(a.transmissions, b.transmissions) << tag;
  EXPECT_EQ(a.payload_units, b.payload_units) << tag;
  EXPECT_EQ(a.outcomes, b.outcomes) << tag;
  EXPECT_EQ(a.commit_rounds, b.commit_rounds) << tag;
  // Counters must agree except engine_bytes_peak, which measures the state
  // layout itself: only the shared pool's state is counted.
  Counters ca = a.counters;
  Counters cb = b.counters;
  EXPECT_GT(ca.engine_bytes_peak, 0u) << tag;
  EXPECT_GT(cb.engine_bytes_peak, 0u) << tag;
  ca.engine_bytes_peak = 0;
  cb.engine_bytes_peak = 0;
  EXPECT_EQ(ca, cb) << tag;
}

SimConfig base_config(ProtocolKind protocol, AdversaryKind adversary) {
  SimConfig cfg;
  cfg.width = cfg.height = 12;
  cfg.r = 1;
  cfg.t = protocol == ProtocolKind::kCrashFlood ? 2 : 1;
  cfg.protocol = protocol;
  cfg.adversary = adversary;
  cfg.seed = 42;
  return cfg;
}

FaultSet two_faults(const Torus& torus) {
  return FaultSet(torus, {{3, 4}, {7, 8}});
}

TEST(PoolEquivalence, CrashFloodMatrix) {
  for (const AdversaryKind adversary :
       {AdversaryKind::kSilent, AdversaryKind::kCrashAtRound}) {
    const SimConfig cfg = base_config(ProtocolKind::kCrashFlood, adversary);
    const Torus torus(cfg.width, cfg.height);
    expect_identical(cfg, two_faults(torus),
                     std::string("crash-flood/") + to_string(adversary));
  }
}

TEST(PoolEquivalence, CpaMatrix) {
  for (const AdversaryKind adversary :
       {AdversaryKind::kSilent, AdversaryKind::kLying}) {
    const SimConfig cfg = base_config(ProtocolKind::kCpa, adversary);
    const Torus torus(cfg.width, cfg.height);
    expect_identical(cfg, two_faults(torus),
                     std::string("cpa/") + to_string(adversary));
  }
}

TEST(PoolEquivalence, BvTwoHopMatrix) {
  for (const AdversaryKind adversary :
       {AdversaryKind::kSilent, AdversaryKind::kLying,
        AdversaryKind::kSpoofing}) {
    const SimConfig cfg = base_config(ProtocolKind::kBvTwoHop, adversary);
    const Torus torus(cfg.width, cfg.height);
    expect_identical(cfg, two_faults(torus),
                     std::string("bv-2hop/") + to_string(adversary));
  }
}

TEST(PoolEquivalence, BvTwoHopRadiusTwoTrackAfterCommit) {
  SimConfig cfg = base_config(ProtocolKind::kBvTwoHop, AdversaryKind::kLying);
  cfg.r = 2;
  cfg.t = 4;
  const Torus torus(cfg.width, cfg.height);
  expect_identical(cfg, two_faults(torus), "bv-2hop/r2");
}

TEST(PoolEquivalence, BvIndirectMatrix) {
  for (const ProtocolKind protocol : {ProtocolKind::kBvIndirectFlood,
                                      ProtocolKind::kBvIndirectEarmarked}) {
    for (const AdversaryKind adversary :
         {AdversaryKind::kSilent, AdversaryKind::kLying}) {
      const SimConfig cfg = base_config(protocol, adversary);
      const Torus torus(cfg.width, cfg.height);
      expect_identical(cfg, two_faults(torus),
                       std::string(to_string(protocol)) + "/" +
                           to_string(adversary));
    }
  }
}

/// Runs one crash-at-round trial both ways and compares the traces event by
/// event, on top of expect_identical's fields.
void expect_identical_traces(ProtocolKind protocol) {
  SimConfig cfg = base_config(protocol, AdversaryKind::kCrashAtRound);
  cfg.crash_round = 4;
  cfg.seed = 2;
  const Torus torus(cfg.width, cfg.height);
  PlacementConfig placement;
  placement.kind = PlacementKind::kRandomBounded;
  Rng rng(2);
  const FaultSet faults = make_faults(placement, torus, cfg.r, cfg.metric,
                                      cfg.t, cfg.source, rng);
  const std::string tag = std::string(to_string(protocol)) + "/crash";
  RoundTrace shared(1 << 18);
  RoundTrace per_node(1 << 18);
  expect_identical(cfg, faults, tag, &shared, &per_node);
  ASSERT_EQ(shared.dropped(), 0u) << tag;
  ASSERT_EQ(per_node.dropped(), 0u) << tag;
  const std::vector<TraceEvent> a = shared.events();
  const std::vector<TraceEvent> b = per_node.events();
  ASSERT_EQ(a.size(), b.size()) << tag;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(to_jsonl(a[i]), to_jsonl(b[i])) << tag << ", event " << i;
  }
}

TEST(PoolEquivalence, BvIndirectCrashAtRoundTraces) {
  // A crash-at-round node wraps a one-slot bv-4hop pool, and bv-4hop
  // commits at round end. The shared pool's nodes must therefore share one
  // node-index-ordered round-end sweep with the behaviors: any other order
  // moves commits, and the COMMITTEDs they queue, against the per-node run.
  expect_identical_traces(ProtocolKind::kBvIndirectFlood);
  expect_identical_traces(ProtocolKind::kBvIndirectEarmarked);
}

TEST(PoolEquivalence, LossyChannelWithRetransmissions) {
  // The lossy slow path consumes channel randomness per delivery; identical
  // results prove both hosts receive callbacks in exactly the same order.
  for (const ProtocolKind protocol :
       {ProtocolKind::kCrashFlood, ProtocolKind::kCpa,
        ProtocolKind::kBvTwoHop, ProtocolKind::kBvIndirectFlood}) {
    SimConfig cfg = base_config(protocol, AdversaryKind::kSilent);
    cfg.loss_p = 0.25;
    cfg.retransmissions = 2;
    const Torus torus(cfg.width, cfg.height);
    expect_identical(cfg, two_faults(torus),
                     std::string(to_string(protocol)) + "/lossy");
  }
}

TEST(PoolEquivalence, PairwiseLossModel) {
  SimConfig cfg = base_config(ProtocolKind::kBvTwoHop, AdversaryKind::kSilent);
  cfg.loss_p = 0.2;
  cfg.loss_model = LossModel::kPairwise;
  const Torus torus(cfg.width, cfg.height);
  expect_identical(cfg, two_faults(torus), "bv-2hop/pairwise");
}

TEST(PoolEquivalence, PoolsAreInstalledWhenSupported) {
  // The supported() predicate must hold for the matrix geometry, or
  // run_simulation would reject the bv-2hop rows instead of pooling them.
  Torus torus(12, 12);
  EXPECT_TRUE(BvTwoHopPool::supported(torus, 1, Metric::kLInf));
  EXPECT_TRUE(BvTwoHopPool::supported(torus, 2, Metric::kLInf));
  // And must reject the corners the pool cannot represent.
  Torus huge(2048, 2048);  // 2^22 nodes: packed 21-bit indices overflow
  EXPECT_FALSE(BvTwoHopPool::supported(huge, 2, Metric::kLInf));
}

TEST(PoolEquivalence, JammingAdversary) {
  SimConfig cfg = base_config(ProtocolKind::kCrashFlood,
                              AdversaryKind::kJamming);
  cfg.jam_budget = 4;
  const Torus torus(cfg.width, cfg.height);
  expect_identical(cfg, two_faults(torus), "crash-flood/jamming");
}

}  // namespace
}  // namespace rbcast
