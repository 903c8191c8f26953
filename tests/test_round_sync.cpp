// RoundSynchronizer tests: barrier completion logic, TDMA-order release,
// timeout behavior (runtime/round_sync.h), plus an end-to-end slow-node
// progress test — correct nodes must outrun a process that stops
// participating, opening their barriers by timeout instead of wedging.

#include "radiobcast/runtime/round_sync.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <vector>

#include "radiobcast/net/message.h"
#include "radiobcast/runtime/harness.h"

namespace rbcast {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

WireMessage protocol_msg(Coord origin, std::int64_t round) {
  WireMessage wm;
  wm.kind = WireKind::kProtocol;
  wm.round = round;
  wm.msg = make_committed(origin, 1);
  return wm;
}

WireMessage marker(std::int64_t round, std::uint32_t done_count) {
  WireMessage wm;
  wm.kind = WireKind::kRoundDone;
  wm.round = round;
  wm.done_count = done_count;
  return wm;
}

TEST(RoundSynchronizer, CompleteOnlyWhenEveryMarkerIsIn) {
  RoundSynchronizer sync({1, 2}, {});
  EXPECT_FALSE(sync.complete(0));

  sync.on_message(1, protocol_msg({1, 0}, 0));
  sync.on_message(1, marker(0, 1));
  EXPECT_FALSE(sync.complete(0));  // peer 2 still missing

  sync.on_message(2, marker(0, 0));
  EXPECT_TRUE(sync.complete(0));

  const std::vector<RoundMessage> out = sync.take(0);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].sender, 1u);
  EXPECT_EQ(out[0].msg.origin, (Coord{1, 0}));
  EXPECT_EQ(sync.timeouts(), 0u);
}

TEST(RoundSynchronizer, MarkerAloneIsNotEnough) {
  // A marker claiming 2 messages gates the barrier until both arrived (this
  // can only happen transiently if the link reordered, which it never does —
  // but the synchronizer must not trust the count on faith).
  RoundSynchronizer sync({1}, {});
  sync.on_message(1, marker(0, 2));
  EXPECT_FALSE(sync.complete(0));
  sync.on_message(1, protocol_msg({1, 0}, 0));
  EXPECT_FALSE(sync.complete(0));
  sync.on_message(1, protocol_msg({1, 1}, 0));
  EXPECT_TRUE(sync.complete(0));
}

TEST(RoundSynchronizer, TakeReleasesTdmaOrder) {
  // Sender index ascending, per-sender FIFO: exactly the simulator's
  // delivery order.
  RoundSynchronizer sync({2, 5}, {});
  sync.on_message(5, protocol_msg({5, 0}, 0));
  sync.on_message(5, protocol_msg({5, 1}, 0));
  sync.on_message(5, marker(0, 2));
  sync.on_message(2, protocol_msg({2, 0}, 0));
  sync.on_message(2, marker(0, 1));
  ASSERT_TRUE(sync.complete(0));

  const std::vector<RoundMessage> out = sync.take(0);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].sender, 2u);
  EXPECT_EQ(out[1].sender, 5u);
  EXPECT_EQ(out[1].msg.origin, (Coord{5, 0}));
  EXPECT_EQ(out[2].sender, 5u);
  EXPECT_EQ(out[2].msg.origin, (Coord{5, 1}));

  // take() drops the round's bookkeeping.
  EXPECT_FALSE(sync.complete(0));
}

TEST(RoundSynchronizer, RoundsAreKeptSeparate) {
  RoundSynchronizer sync({1}, {});
  sync.on_message(1, protocol_msg({1, 0}, 0));
  sync.on_message(1, marker(0, 1));
  sync.on_message(1, protocol_msg({1, 9}, 1));
  sync.on_message(1, marker(1, 1));
  ASSERT_TRUE(sync.complete(0));
  ASSERT_TRUE(sync.complete(1));
  EXPECT_EQ(sync.take(0)[0].msg.origin, (Coord{1, 0}));
  EXPECT_EQ(sync.take(1)[0].msg.origin, (Coord{1, 9}));
}

TEST(RoundSynchronizer, NoExpectedPeersIsTriviallyComplete) {
  RoundSynchronizer sync({}, {});
  EXPECT_TRUE(sync.complete(0));
  EXPECT_TRUE(sync.take(0).empty());
}

TEST(RoundSynchronizer, ZeroTimeoutWaitsForever) {
  RoundSynchronizer sync({1}, {});
  const auto t0 = steady_clock::now();
  sync.begin_round(0, t0);
  EXPECT_FALSE(sync.timed_out(0, t0 + std::chrono::hours(24)));
}

TEST(RoundSynchronizer, TimeoutOpensBarrierAndReleasesOnlyCoveredTraffic) {
  RoundSynchronizer::Options opts;
  opts.timeout = milliseconds(10);
  RoundSynchronizer sync({1, 2}, opts);
  const auto t0 = steady_clock::now();
  sync.begin_round(0, t0);
  EXPECT_FALSE(sync.timed_out(0, t0 + milliseconds(5)));
  EXPECT_TRUE(sync.timed_out(0, t0 + milliseconds(11)));

  // Peer 1 finished its round; peer 2 sent a message but never its marker.
  // Only marker-covered traffic is released: peer 2's stray message must not
  // straddle the opened barrier (it would be delivered in the wrong round).
  sync.on_message(1, protocol_msg({1, 0}, 0));
  sync.on_message(1, marker(0, 1));
  sync.on_message(2, protocol_msg({2, 0}, 0));
  ASSERT_FALSE(sync.complete(0));

  const std::vector<RoundMessage> out = sync.take(0);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].sender, 1u);
  EXPECT_EQ(sync.timeouts(), 1u);
}

TEST(RoundSynchronizer, TimeoutDoublesBackoffAndCompleteRoundResetsIt) {
  RoundSynchronizer::Options opts;
  opts.timeout = milliseconds(10);
  opts.max_backoff = 4;
  RoundSynchronizer sync({1}, opts);
  EXPECT_EQ(sync.backoff(), 1);

  const auto t0 = steady_clock::now();
  sync.begin_round(0, t0);
  EXPECT_TRUE(sync.timed_out(0, t0 + milliseconds(11)));
  (void)sync.take(0);  // timeout-open: backoff doubles
  EXPECT_EQ(sync.backoff(), 2);

  // With the doubled multiplier the next round tolerates 2x the base wait.
  sync.begin_round(1, t0);
  EXPECT_FALSE(sync.timed_out(1, t0 + milliseconds(11)));
  EXPECT_TRUE(sync.timed_out(1, t0 + milliseconds(21)));
  (void)sync.take(1);
  (void)sync.take(2);  // another timeout-open (round clock never started)
  EXPECT_EQ(sync.backoff(), 4);
  (void)sync.take(3);
  EXPECT_EQ(sync.backoff(), 4);  // capped at max_backoff

  // A fully complete round resets the multiplier.
  sync.on_message(1, marker(4, 0));
  ASSERT_TRUE(sync.complete(4));
  (void)sync.take(4);
  EXPECT_EQ(sync.backoff(), 1);
}

TEST(RoundSynchronizer, DeadlineTracksBackoffAndVanishesWithoutAClock) {
  RoundSynchronizer::Options opts;
  opts.timeout = milliseconds(10);
  RoundSynchronizer sync({1}, opts);

  // No round clock running yet: nothing to wait for.
  EXPECT_FALSE(sync.deadline(0).has_value());

  const auto t0 = steady_clock::now();
  sync.begin_round(0, t0);
  ASSERT_TRUE(sync.deadline(0).has_value());
  EXPECT_EQ(*sync.deadline(0), t0 + milliseconds(10));
  // The deadline and timed_out agree to the tick: this is what lets the
  // epoll loop sleep exactly until the barrier would open.
  EXPECT_FALSE(sync.timed_out(0, *sync.deadline(0) - milliseconds(1)));
  EXPECT_TRUE(sync.timed_out(0, *sync.deadline(0) + milliseconds(1)));

  // A timeout-opened barrier doubles the backoff; the next round's deadline
  // stretches with it.
  ASSERT_TRUE(sync.timed_out(0, t0 + milliseconds(11)));
  (void)sync.take(0);
  sync.begin_round(1, t0);
  ASSERT_TRUE(sync.deadline(1).has_value());
  EXPECT_EQ(*sync.deadline(1), t0 + milliseconds(20));

  // A zero timeout means wait forever — no deadline to report.
  RoundSynchronizer forever({1}, {});
  forever.begin_round(0, t0);
  EXPECT_FALSE(forever.deadline(0).has_value());
}

TEST(RoundSynchronizer, SuspectsPersistentlySilentPeerAndStopsGatingOnIt) {
  RoundSynchronizer::Options opts;
  opts.timeout = milliseconds(10);
  opts.suspect_after = 2;
  RoundSynchronizer sync({1, 2}, opts);

  // Peer 2 participates; peer 1 is silent for two consecutive timeout-opened
  // rounds -> suspected.
  sync.on_message(2, marker(0, 0));
  EXPECT_FALSE(sync.complete(0));
  (void)sync.take(0);
  EXPECT_FALSE(sync.is_suspected(1));
  sync.on_message(2, marker(1, 0));
  (void)sync.take(1);
  EXPECT_TRUE(sync.is_suspected(1));
  EXPECT_EQ(sync.suspected_count(), 1u);
  EXPECT_EQ(sync.suspect_transitions(), 1u);
  EXPECT_EQ(sync.degraded_rounds(), 2u);

  // A suspected peer no longer gates the barrier...
  sync.on_message(2, marker(2, 0));
  EXPECT_TRUE(sync.complete(2));
  // ...but such rounds still count as degraded: traffic may be missing.
  (void)sync.take(2);
  EXPECT_EQ(sync.degraded_rounds(), 3u);

  // A marker from the suspected peer clears the suspicion immediately — the
  // restarted-process rejoin path.
  sync.on_message(1, marker(3, 0));
  EXPECT_FALSE(sync.is_suspected(1));
  sync.on_message(2, marker(3, 0));
  EXPECT_TRUE(sync.complete(3));
  (void)sync.take(3);
  EXPECT_EQ(sync.degraded_rounds(), 3u);  // fully complete — not degraded
  EXPECT_EQ(sync.suspect_transitions(), 1u);
}

TEST(RoundSynchronizer, ParticipationResetsTheMissStreak) {
  RoundSynchronizer::Options opts;
  opts.timeout = milliseconds(10);
  opts.suspect_after = 2;
  RoundSynchronizer sync({1}, opts);

  (void)sync.take(0);  // miss 1
  sync.on_message(1, marker(1, 0));
  ASSERT_TRUE(sync.complete(1));
  (void)sync.take(1);  // present — streak resets
  (void)sync.take(2);  // miss 1 again, not 2
  EXPECT_FALSE(sync.is_suspected(1));
  (void)sync.take(3);  // miss 2 -> suspected
  EXPECT_TRUE(sync.is_suspected(1));
}

// End-to-end slow-node progress over real loopback sockets: one node exits
// after round 1 and never sends markers again. With a finite round timeout
// every other node must still run the full horizon and commit; only the
// early-exiting node stays undecided.
TEST(RoundSynchronizerProgress, CorrectNodesOutrunAWedgedNode) {
  Scenario scenario;
  scenario.sim.width = 6;
  scenario.sim.height = 6;
  scenario.sim.r = 1;
  scenario.sim.metric = Metric::kLInf;
  scenario.sim.t = 0;
  scenario.sim.protocol = ProtocolKind::kCrashFlood;
  scenario.sim.adversary = AdversaryKind::kSilent;
  scenario.sim.value = 1;
  scenario.sim.source = {0, 0};
  scenario.sim.seed = 42;
  scenario.sim.max_rounds = 12;
  // 100ms is ~4 orders of magnitude above loopback latency: a loaded CI
  // machine cannot fire this timeout spuriously, while suspicion
  // (suspect_after = 2) stops the quitter's neighbors from paying the
  // timeout more than twice each.
  scenario.round_timeout_ms = 100;
  scenario.linger_timeout_ms = 200;

  const Coord quitter{3, 3};  // max distance from the source, honest
  const RuntimeResult result = run_scenario_threads(
      scenario, [&](RuntimeNode::Options& opts) {
        if (opts.self == quitter) opts.max_rounds = 1;
      });

  // 36 nodes: 1 source + 35 honest, no faults. Everyone but the quitter
  // commits (the flood routes around it); nobody wedges on its silence.
  EXPECT_EQ(result.honest_nodes, 35);
  EXPECT_EQ(result.wrong_commits, 0);
  EXPECT_EQ(result.undecided, 1);
  EXPECT_EQ(result.correct_commits, 34);
  EXPECT_EQ(result.rounds, 12);
  // The quitter's neighbors opened barriers by timeout, and that is the only
  // reason the run completed.
  EXPECT_GT(result.counters.barrier_timeouts, 0u);
  EXPECT_FALSE(result.any_interrupted);

  const Torus torus(6, 6);
  const RuntimeVerdict& v =
      result.verdicts[static_cast<std::size_t>(torus.index(quitter))];
  EXPECT_FALSE(v.committed.has_value());
  EXPECT_EQ(v.rounds, 1);
}

}  // namespace
}  // namespace rbcast
