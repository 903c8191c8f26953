// Scenario-file and verdict-file tests (runtime/scenario.h,
// runtime/harness.h): parse/write roundtrips, line-numbered parse errors,
// the shared node-option recipe, and the runtime's rejection of
// configurations it cannot realize.

#include "radiobcast/runtime/scenario.h"

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "radiobcast/runtime/harness.h"
#include "radiobcast/util/rng.h"
#include "radiobcast/runtime/node.h"
#include "radiobcast/runtime/swarm.h"
#include "radiobcast/runtime/transport.h"

namespace rbcast {
namespace {

TEST(Scenario, ParsesEveryKey) {
  const Scenario s = parse_scenario_string(R"(# comment line
protocol bv-2hop
adversary crash-at-round
metric l2
width 10
height 12
r 2
t 1
value 0
source 3 4
seed 99
crash_round 5
max_rounds 30
round_timeout_ms 123
linger_timeout_ms 456
base_port 48000
fault 7 7
fault 1 2
)");
  EXPECT_EQ(s.sim.protocol, ProtocolKind::kBvTwoHop);
  EXPECT_EQ(s.sim.adversary, AdversaryKind::kCrashAtRound);
  EXPECT_EQ(s.sim.metric, Metric::kL2);
  EXPECT_EQ(s.sim.width, 10);
  EXPECT_EQ(s.sim.height, 12);
  EXPECT_EQ(s.sim.r, 2);
  EXPECT_EQ(s.sim.t, 1);
  EXPECT_EQ(s.sim.value, 0);
  EXPECT_EQ(s.sim.source, (Coord{3, 4}));
  EXPECT_EQ(s.sim.seed, 99u);
  EXPECT_EQ(s.sim.crash_round, 5);
  EXPECT_EQ(s.sim.max_rounds, 30);
  EXPECT_EQ(s.round_timeout_ms, 123);
  EXPECT_EQ(s.linger_timeout_ms, 456);
  EXPECT_EQ(s.base_port, 48000);
  ASSERT_EQ(s.faults.size(), 2u);
  EXPECT_EQ(s.faults[0], (Coord{7, 7}));
  EXPECT_EQ(s.faults[1], (Coord{1, 2}));
}

TEST(Scenario, WriteParseRoundtrips) {
  Scenario s;
  s.sim.width = 8;
  s.sim.height = 8;
  s.sim.r = 1;
  s.sim.t = 1;
  s.sim.protocol = ProtocolKind::kBvIndirectFlood;
  s.sim.adversary = AdversaryKind::kLying;
  s.sim.value = 0;
  s.sim.source = {2, 2};
  s.sim.seed = 7;
  s.faults = {{5, 5}, {0, 7}};
  s.base_port = 50123;
  s.round_timeout_ms = 777;
  s.linger_timeout_ms = 888;
  s.sim.loss_p = 0.125;  // exactly representable — also checks the format
  s.sim.jam_budget = -1;
  s.suspect_after = 4;
  s.chaos.drop_p = 0.1;
  s.chaos.duplicate_p = 0.0625;
  s.chaos.delay_p = 0.33;
  s.chaos.delay_ms = 12;
  s.chaos.seed = 424242;
  s.chaos.partitions = {{{1, 1}, {2, 1}, 0, -1}, {{3, 3}, {4, 3}, 50, 200}};
  s.crash_node = Coord{6, 6};
  s.crash_at_round = 2;
  s.restart_after_ms = 150;
  s.state_dir = "state";
  s.shared_socket = true;

  std::ostringstream out;
  write_scenario(out, s);
  const Scenario back = parse_scenario_string(out.str());
  EXPECT_EQ(back.sim.protocol, s.sim.protocol);
  EXPECT_EQ(back.sim.adversary, s.sim.adversary);
  EXPECT_EQ(back.sim.width, s.sim.width);
  EXPECT_EQ(back.sim.source, s.sim.source);
  EXPECT_EQ(back.sim.seed, s.sim.seed);
  EXPECT_EQ(back.faults, s.faults);
  EXPECT_EQ(back.base_port, s.base_port);
  EXPECT_EQ(back.round_timeout_ms, s.round_timeout_ms);
  EXPECT_EQ(back.linger_timeout_ms, s.linger_timeout_ms);
  EXPECT_DOUBLE_EQ(back.sim.loss_p, s.sim.loss_p);
  EXPECT_EQ(back.sim.jam_budget, s.sim.jam_budget);
  EXPECT_EQ(back.suspect_after, s.suspect_after);
  EXPECT_DOUBLE_EQ(back.chaos.drop_p, s.chaos.drop_p);
  EXPECT_DOUBLE_EQ(back.chaos.duplicate_p, s.chaos.duplicate_p);
  EXPECT_DOUBLE_EQ(back.chaos.delay_p, s.chaos.delay_p);
  EXPECT_EQ(back.chaos.delay_ms, s.chaos.delay_ms);
  EXPECT_EQ(back.chaos.seed, s.chaos.seed);
  ASSERT_EQ(back.chaos.partitions.size(), 2u);
  EXPECT_EQ(back.chaos.partitions[1].from, s.chaos.partitions[1].from);
  EXPECT_EQ(back.chaos.partitions[1].start_ms, 50);
  EXPECT_EQ(back.chaos.partitions[1].end_ms, 200);
  EXPECT_EQ(back.crash_node, s.crash_node);
  EXPECT_EQ(back.crash_at_round, s.crash_at_round);
  EXPECT_EQ(back.restart_after_ms, s.restart_after_ms);
  EXPECT_EQ(back.state_dir, s.state_dir);
  EXPECT_EQ(back.shared_socket, s.shared_socket);
}

TEST(Scenario, ParsesSharedSocketAndRejectsTheBackendKey) {
  const Scenario s =
      parse_scenario_string("width 3\nheight 3\nr 1\nshared_socket 1\n");
  EXPECT_TRUE(s.shared_socket);
  EXPECT_FALSE(
      parse_scenario_string("width 3\nheight 3\nr 1\n").shared_socket);
  EXPECT_THROW(parse_scenario_string("shared_socket 2\n"),
               std::invalid_argument);
  // epoll is the only pacing loop, so the old `backend` key is an unknown
  // key like any other, reported with its line number.
  try {
    parse_scenario_string("width 3\nheight 3\nbackend epoll\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 3: unknown key 'backend'"), std::string::npos)
        << what;
  }
}

TEST(Scenario, ParsesChaosAndRecoveryKeys) {
  const Scenario s = parse_scenario_string(R"(width 8
height 8
loss_p 0.25
jam_budget -1
suspect_after 3
chaos_drop_p 0.1
chaos_dup_p 0.05
chaos_delay_p 0.2
chaos_delay_ms 15
chaos_seed 77
partition 0 0 1 0
partition 2 2 9 9 100 500
crash_node 10 2
crash_at_round 4
restart_after_ms 250
state_dir /tmp/rb-state
)");
  EXPECT_DOUBLE_EQ(s.sim.loss_p, 0.25);
  EXPECT_EQ(s.sim.jam_budget, -1);
  EXPECT_EQ(s.suspect_after, 3);
  EXPECT_DOUBLE_EQ(s.chaos.drop_p, 0.1);
  EXPECT_DOUBLE_EQ(s.chaos.duplicate_p, 0.05);
  EXPECT_DOUBLE_EQ(s.chaos.delay_p, 0.2);
  EXPECT_EQ(s.chaos.delay_ms, 15);
  EXPECT_EQ(s.chaos.seed, 77u);
  EXPECT_EQ(s.chaos_seed(), 77u);
  ASSERT_EQ(s.chaos.partitions.size(), 2u);
  EXPECT_EQ(s.chaos.partitions[0].from, (Coord{0, 0}));
  EXPECT_EQ(s.chaos.partitions[0].to, (Coord{1, 0}));
  EXPECT_EQ(s.chaos.partitions[0].end_ms, -1);
  EXPECT_EQ(s.chaos.partitions[1].start_ms, 100);
  EXPECT_EQ(s.chaos.partitions[1].end_ms, 500);
  // Coordinates are canonicalized onto the torus at parse time.
  EXPECT_EQ(s.chaos.partitions[1].to, (Coord{1, 1}));
  ASSERT_TRUE(s.crash_node.has_value());
  EXPECT_EQ(*s.crash_node, (Coord{2, 2}));
  EXPECT_EQ(s.crash_at_round, 4);
  EXPECT_EQ(s.restart_after_ms, 250);
  EXPECT_EQ(s.state_dir, "/tmp/rb-state");
  EXPECT_TRUE(s.chaos.enabled());
}

TEST(Scenario, ChaosSeedDerivesFromSimSeedWhenUnset) {
  const Scenario a = parse_scenario_string("width 4\nheight 4\nseed 1\n");
  const Scenario b = parse_scenario_string("width 4\nheight 4\nseed 2\n");
  EXPECT_NE(a.chaos_seed(), b.chaos_seed());
  EXPECT_NE(a.chaos_seed(), a.sim.seed);  // hash-split, never the raw seed
}

TEST(Scenario, RejectsDuplicateScalarKeys) {
  try {
    parse_scenario_string("width 8\nheight 8\nwidth 9\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("duplicate key 'width'"), std::string::npos) << what;
    EXPECT_NE(what.find("first on line 1"), std::string::npos) << what;
  }
  // fault and partition are the repeatable keys.
  EXPECT_NO_THROW(parse_scenario_string(
      "width 8\nheight 8\nfault 1 1\nfault 2 2\npartition 0 0 1 0\n"
      "partition 1 0 0 0\n"));
}

TEST(Scenario, RejectsMalformedChaosValues) {
  EXPECT_THROW(parse_scenario_string("width 8\nheight 8\nloss_p 1.5\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario_string("width 8\nheight 8\nchaos_drop_p -0.1\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario_string("width 8\nheight 8\nchaos_delay_ms -5\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario_string("width 8\nheight 8\ncrash_at_round -1\n"),
               std::invalid_argument);
  // A partition window needs both ends.
  EXPECT_THROW(
      parse_scenario_string("width 8\nheight 8\npartition 0 0 1 0 100\n"),
      std::invalid_argument);
  EXPECT_THROW(parse_scenario_string("width 8\nheight 8\nsuspect_after -1\n"),
               std::invalid_argument);
}

TEST(Scenario, FuzzedLinesThrowCleanlyOrParse) {
  // Fuzz-style parser hardening: every mutated input must either parse or
  // throw one of the two documented exception types — never crash, never
  // leave the parser wedged. Deterministic by construction.
  const std::string keys[] = {"width",        "height",     "loss_p",
                              "chaos_drop_p", "chaos_seed", "partition",
                              "crash_node",   "fault",      "state_dir",
                              "suspect_after"};
  const std::string values[] = {"", " 1", " -1", " 0.5", " 1e308", " nan",
                                " x", " 1 2", " 1 2 3 4 5", " 99999999999",
                                " 0 0 0 0 0 0 0"};
  Rng rng(20260809);
  for (int trial = 0; trial < 500; ++trial) {
    std::string text = "width 8\nheight 8\n";
    const int lines = 1 + static_cast<int>(rng.below(4));
    for (int l = 0; l < lines; ++l) {
      text += keys[rng.below(std::size(keys))];
      text += values[rng.below(std::size(values))];
      text += '\n';
    }
    try {
      const Scenario s = parse_scenario_string(text);
      (void)s.chaos_seed();  // derived values stay computable
    } catch (const std::invalid_argument&) {
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(Scenario, ErrorsCarryLineNumbers) {
  try {
    parse_scenario_string("width 8\nbogus_key 1\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(parse_scenario_string("width\n"), std::invalid_argument);
  EXPECT_THROW(parse_scenario_string("protocol no-such\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario_string("fault 1\n"), std::invalid_argument);
}

TEST(Scenario, NodeOptionsAssignsRoles) {
  Scenario s;
  s.sim.width = 6;
  s.sim.height = 6;
  s.sim.r = 1;
  s.sim.source = {0, 0};
  s.faults = {{3, 3}};
  const Torus torus(6, 6);

  EXPECT_EQ(node_options(s, torus.index({0, 0})).role, NodeRole::kSource);
  EXPECT_EQ(node_options(s, torus.index({3, 3})).role, NodeRole::kFaulty);
  EXPECT_EQ(node_options(s, torus.index({1, 1})).role, NodeRole::kHonest);
  EXPECT_EQ(node_options(s, torus.index({1, 1})).round_timeout.count(),
            s.round_timeout_ms);
}

TEST(Scenario, NodeOptionsWiresChaosRecoveryConfig) {
  Scenario s;
  s.sim.width = 6;
  s.sim.height = 6;
  s.sim.r = 1;
  s.sim.source = {0, 0};
  s.faults = {{3, 3}};
  s.suspect_after = 3;
  s.crash_node = Coord{2, 2};
  s.crash_at_round = 5;
  s.state_dir = "statedir";
  const Torus torus(6, 6);

  const RuntimeNode::Options crasher = node_options(s, torus.index({2, 2}));
  EXPECT_EQ(crasher.crash_at_round, 5);
  EXPECT_EQ(crasher.suspect_after, 3);
  EXPECT_EQ(crasher.snapshot_path,
            "statedir/state-" + std::to_string(torus.index({2, 2})) + ".txt");
  // Only the crash_node gets the crash injection.
  EXPECT_EQ(node_options(s, torus.index({1, 1})).crash_at_round, -1);
  // Jammers are wired only under the jamming adversary.
  EXPECT_TRUE(node_options(s, torus.index({1, 1})).jammers.empty());
  s.sim.adversary = AdversaryKind::kJamming;
  s.sim.jam_budget = -1;
  EXPECT_EQ(node_options(s, torus.index({1, 1})).jammers, s.faults);
}

TEST(Verdict, WriteParseRoundtrips) {
  RuntimeVerdict v;
  v.index = 17;
  v.self = {2, 3};
  v.role = NodeRole::kHonest;
  v.committed = 1;
  v.commit_round = 4;
  v.rounds = 40;
  v.lingered_clean = true;
  v.interrupted = false;
  v.counters.commits = 1;
  v.counters.broadcasts_queued = 9;
  v.counters.envelopes_delivered = 123;
  v.counters.packets_sent = 456;
  v.counters.packets_retransmitted = 7;
  v.counters.packets_acked = 455;
  v.counters.duplicates_dropped = 3;
  v.counters.barrier_timeouts = 0;
  v.counters.barrier_wait_us = 98765;
  v.counters.last_commit_round = 4;
  v.crashed = true;
  v.counters.envelopes_dropped = 11;
  v.counters.chaos_drops = 5;
  v.counters.chaos_delays = 6;
  v.counters.chaos_duplicates = 7;
  v.counters.chaos_partition_drops = 8;
  v.counters.node_restarts = 1;
  v.counters.peers_suspected = 2;
  v.counters.degraded_rounds = 3;

  std::stringstream io;
  write_verdict(io, v);
  const RuntimeVerdict back = parse_verdict(io);
  EXPECT_EQ(back.index, v.index);
  EXPECT_EQ(back.self, v.self);
  EXPECT_EQ(back.role, v.role);
  EXPECT_EQ(back.committed, v.committed);
  EXPECT_EQ(back.commit_round, v.commit_round);
  EXPECT_EQ(back.rounds, v.rounds);
  EXPECT_EQ(back.lingered_clean, v.lingered_clean);
  EXPECT_EQ(back.interrupted, v.interrupted);
  EXPECT_EQ(back.counters.commits, v.counters.commits);
  EXPECT_EQ(back.counters.broadcasts_queued, v.counters.broadcasts_queued);
  EXPECT_EQ(back.counters.envelopes_delivered,
            v.counters.envelopes_delivered);
  EXPECT_EQ(back.counters.packets_sent, v.counters.packets_sent);
  EXPECT_EQ(back.counters.packets_retransmitted,
            v.counters.packets_retransmitted);
  EXPECT_EQ(back.counters.packets_acked, v.counters.packets_acked);
  EXPECT_EQ(back.counters.duplicates_dropped,
            v.counters.duplicates_dropped);
  EXPECT_EQ(back.counters.barrier_wait_us, v.counters.barrier_wait_us);
  EXPECT_EQ(back.counters.last_commit_round, v.counters.last_commit_round);
  EXPECT_EQ(back.crashed, v.crashed);
  EXPECT_EQ(back.counters.envelopes_dropped, v.counters.envelopes_dropped);
  EXPECT_EQ(back.counters.chaos_drops, v.counters.chaos_drops);
  EXPECT_EQ(back.counters.chaos_delays, v.counters.chaos_delays);
  EXPECT_EQ(back.counters.chaos_duplicates, v.counters.chaos_duplicates);
  EXPECT_EQ(back.counters.chaos_partition_drops,
            v.counters.chaos_partition_drops);
  EXPECT_EQ(back.counters.node_restarts, v.counters.node_restarts);
  EXPECT_EQ(back.counters.peers_suspected, v.counters.peers_suspected);
  EXPECT_EQ(back.counters.degraded_rounds, v.counters.degraded_rounds);
}

TEST(Verdict, UncommittedSerializesAsMinusOne) {
  RuntimeVerdict v;
  v.index = 0;
  std::stringstream io;
  write_verdict(io, v);
  EXPECT_NE(io.str().find("committed -1"), std::string::npos);
  const RuntimeVerdict back = parse_verdict(io);
  EXPECT_FALSE(back.committed.has_value());
}

TEST(Verdict, ParseRejectsMalformedInput) {
  {
    std::istringstream in("role honest\n");  // no index
    EXPECT_THROW(parse_verdict(in), std::invalid_argument);
  }
  {
    std::istringstream in("index 0\nrole emperor\n");
    EXPECT_THROW(parse_verdict(in), std::invalid_argument);
  }
  {
    std::istringstream in("index 0\nwat 1\n");
    EXPECT_THROW(parse_verdict(in), std::invalid_argument);
  }
}

TEST(RuntimeNode, RejectsConfigurationsWithoutASocketAnalogue) {
  SwarmHub hub(1);
  const std::unique_ptr<Transport> mailbox = hub.transport(0);
  Transport& transport = *mailbox;
  RuntimeNode::Options opts;
  opts.sim.width = 6;
  opts.sim.height = 6;
  opts.sim.r = 1;

  // Lossy channels are realized as deterministic message-level suppression
  // now — valid probabilities are accepted, junk still is not.
  opts.sim.loss_p = 0.1;
  EXPECT_NO_THROW(RuntimeNode(opts, transport));
  opts.sim.loss_p = 1.5;
  EXPECT_THROW(RuntimeNode(opts, transport), std::invalid_argument);
  opts.sim.loss_p = 0.0;

  opts.sim.retransmissions = 3;
  EXPECT_THROW(RuntimeNode(opts, transport), std::invalid_argument);
  opts.sim.retransmissions = 1;

  opts.sim.adversary = AdversaryKind::kSpoofing;
  EXPECT_THROW(RuntimeNode(opts, transport), std::invalid_argument);
  // Unbounded jamming has a static geometric analogue; a bounded budget is
  // a globally ordered ledger no distributed node can replicate.
  opts.sim.adversary = AdversaryKind::kJamming;
  opts.sim.jam_budget = 5;
  EXPECT_THROW(RuntimeNode(opts, transport), std::invalid_argument);
  opts.sim.jam_budget = -1;
  EXPECT_NO_THROW(RuntimeNode(opts, transport));
}

TEST(RuntimeNode, RejectsUnsupportedRadiusBeforeFirstRound) {
  // bv-2hop and bv-4hop refuse r = 8 L-inf (outside the determination
  // engine) when the node is built — for every role, so no node of such a
  // deployment starts a round and waits on peers that never will.
  SwarmHub hub(1);
  const std::unique_ptr<Transport> mailbox = hub.transport(0);
  Transport& transport = *mailbox;
  RuntimeNode::Options opts;
  opts.sim.r = 8;
  opts.sim.width = opts.sim.height = 4 * opts.sim.r + 2;
  for (const ProtocolKind protocol :
       {ProtocolKind::kBvTwoHop, ProtocolKind::kBvIndirectFlood,
        ProtocolKind::kBvIndirectEarmarked}) {
    opts.sim.protocol = protocol;
    for (const NodeRole role :
         {NodeRole::kSource, NodeRole::kHonest, NodeRole::kFaulty}) {
      opts.role = role;
      EXPECT_THROW(RuntimeNode(opts, transport), std::invalid_argument)
          << to_string(protocol) << " role " << static_cast<int>(role);
    }
  }
  // The largest supported L-inf radius still builds.
  opts.sim.r = 7;
  opts.sim.width = opts.sim.height = 4 * opts.sim.r + 2;
  opts.role = NodeRole::kHonest;
  for (const ProtocolKind protocol :
       {ProtocolKind::kBvTwoHop, ProtocolKind::kBvIndirectFlood}) {
    opts.sim.protocol = protocol;
    EXPECT_NO_THROW(RuntimeNode(opts, transport)) << to_string(protocol);
  }
}

}  // namespace
}  // namespace rbcast
