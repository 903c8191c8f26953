// Event-loop runtime tests (runtime/event_loop.h, runtime/swarm.h): the
// hashed timer wheel under a fake clock, epoll readiness wakeups against
// real sockets, SwarmHub shared-socket multiplexing (routing, identity,
// spoof rejection, fd budget), and the perfect-link / barrier properties
// driven end-to-end through epoll waits under datagram chaos.

#include "radiobcast/runtime/event_loop.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "radiobcast/runtime/harness.h"
#include "radiobcast/runtime/perfect_link.h"
#include "radiobcast/runtime/scenario.h"
#include "radiobcast/runtime/swarm.h"
#include "radiobcast/runtime/transport.h"

namespace rbcast {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;
using TimePoint = std::chrono::steady_clock::time_point;

// ---------------------------------------------------------------------------
// TimerWheel under a fake clock (explicit time points, no sleeping)

TEST(TimerWheel, FiresDueTimersInDeadlineOrder) {
  TimerWheel wheel(microseconds(1000), 16);
  const TimePoint t0{};
  std::vector<std::uint64_t> fired;
  wheel.schedule(3, t0 + milliseconds(5));
  wheel.schedule(1, t0 + milliseconds(2));
  wheel.schedule(2, t0 + milliseconds(9));
  EXPECT_EQ(wheel.armed(), 3u);

  wheel.advance(t0 + milliseconds(1), fired);
  EXPECT_TRUE(fired.empty());

  wheel.advance(t0 + milliseconds(6), fired);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{1, 3}));
  EXPECT_EQ(wheel.armed(), 1u);

  fired.clear();
  wheel.advance(t0 + milliseconds(20), fired);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(wheel.armed(), 0u);
}

TEST(TimerWheel, CancelPreventsFiring) {
  TimerWheel wheel;
  const TimePoint t0{};
  wheel.schedule(7, t0 + milliseconds(3));
  EXPECT_TRUE(wheel.cancel(7));
  EXPECT_FALSE(wheel.cancel(7));  // already disarmed
  std::vector<std::uint64_t> fired;
  wheel.advance(t0 + milliseconds(10), fired);
  EXPECT_TRUE(fired.empty());
  EXPECT_EQ(wheel.armed(), 0u);
}

TEST(TimerWheel, RescheduleIsAnUpsert) {
  TimerWheel wheel;
  const TimePoint t0{};
  wheel.schedule(5, t0 + milliseconds(2));
  wheel.schedule(5, t0 + milliseconds(8));  // push the deadline out
  EXPECT_EQ(wheel.armed(), 1u);
  std::vector<std::uint64_t> fired;
  wheel.advance(t0 + milliseconds(4), fired);
  EXPECT_TRUE(fired.empty()) << "the stale slot entry must not fire";
  wheel.advance(t0 + milliseconds(9), fired);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{5}));
}

TEST(TimerWheel, NextDeadlineTracksTheEarliestArmedTimer) {
  TimerWheel wheel;
  const TimePoint t0{};
  EXPECT_FALSE(wheel.next_deadline().has_value());
  wheel.schedule(1, t0 + milliseconds(9));
  wheel.schedule(2, t0 + milliseconds(4));
  ASSERT_TRUE(wheel.next_deadline().has_value());
  EXPECT_EQ(*wheel.next_deadline(), t0 + milliseconds(4));
  wheel.cancel(2);
  EXPECT_EQ(*wheel.next_deadline(), t0 + milliseconds(9));
}

TEST(TimerWheel, DeadlinesBeyondOneLapStillFireAtTheRightTime) {
  // 16 slots x 1ms tick = a 16ms lap; a 50ms deadline wraps three laps and
  // must not fire on the earlier passes over its slot.
  TimerWheel wheel(microseconds(1000), 16);
  const TimePoint t0{};
  wheel.schedule(1, t0 + milliseconds(50));
  std::vector<std::uint64_t> fired;
  for (int ms = 1; ms <= 49; ++ms) {
    wheel.advance(t0 + milliseconds(ms), fired);
    ASSERT_TRUE(fired.empty()) << "fired early at +" << ms << "ms";
  }
  wheel.advance(t0 + milliseconds(50), fired);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{1}));
}

TEST(TimerWheel, PastDeadlinesFireOnTheNextAdvance) {
  TimerWheel wheel(microseconds(1000), 16);
  const TimePoint t0{};
  std::vector<std::uint64_t> fired;
  wheel.advance(t0 + milliseconds(100), fired);  // establish "now"
  wheel.schedule(1, t0 + milliseconds(1));       // long past
  wheel.advance(t0 + milliseconds(100), fired);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{1}));
}

TEST(TimerWheel, SparseAdvanceAcrossManyLapsFiresEverything) {
  TimerWheel wheel(microseconds(1000), 8);
  const TimePoint t0{};
  for (std::uint64_t id = 0; id < 20; ++id) {
    wheel.schedule(id, t0 + milliseconds(1 + static_cast<int>(id) * 7));
  }
  std::vector<std::uint64_t> fired;
  wheel.advance(t0 + milliseconds(1000), fired);  // one giant step
  EXPECT_EQ(fired.size(), 20u);
  EXPECT_EQ(wheel.armed(), 0u);
}

// ---------------------------------------------------------------------------
// EventLoop readiness against real sockets

TEST(EventLoop, WakesOnSocketReadiness) {
  UdpTransport a(0), b(0);
  a.set_peers({a.local_port(), b.local_port()});
  b.set_peers({a.local_port(), b.local_port()});
  b.send(0, {1, 2, 3});
  // The datagram may already be queued when wait starts — EPOLL_CTL_ADD
  // reports current readiness, so this must return well before the deadline.
  const auto start = std::chrono::steady_clock::now();
  a.wait(start + std::chrono::seconds(5));
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(2));
  Datagram d;
  ASSERT_TRUE(a.try_receive(d));
  EXPECT_EQ(d.from, 1u);
  EXPECT_EQ(d.bytes, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(EventLoop, IdleWaitRespectsTheDeadline) {
  UdpTransport a(0);
  a.set_peers({a.local_port()});
  const auto start = std::chrono::steady_clock::now();
  a.wait(start + milliseconds(50));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, milliseconds(40));  // slept, didn't spin
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(EventLoop, PastDeadlineReturnsImmediately) {
  UdpTransport a(0);
  a.set_peers({a.local_port()});
  const auto start = std::chrono::steady_clock::now();
  a.wait(start - milliseconds(5));
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
}

// ---------------------------------------------------------------------------
// SwarmHub: shared-socket multiplexing

TEST(SwarmHub, RoutesMemberTrafficInMemoryWithSenderIdentity) {
  SwarmHub hub(4);
  auto t0 = hub.transport(0);
  auto t3 = hub.transport(3);
  t0->send(3, {9, 9});
  Datagram d;
  ASSERT_TRUE(t3->try_receive(d));
  EXPECT_EQ(d.from, 0u);
  EXPECT_EQ(d.bytes, (std::vector<std::uint8_t>{9, 9}));
  EXPECT_FALSE(t3->try_receive(d));
  EXPECT_THROW(hub.transport(4), std::out_of_range);
}

TEST(SwarmHub, WaitWakesAcrossThreadsOnDelivery) {
  SwarmHub hub(2);
  auto rx = hub.transport(1);
  std::thread receiver([&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    Datagram d;
    while (!rx->try_receive(d)) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "never woke";
      rx->wait(deadline);
    }
    EXPECT_EQ(d.from, 0u);
  });
  std::this_thread::sleep_for(milliseconds(20));
  hub.transport(0)->send(1, {42});
  receiver.join();
}

TEST(SwarmHub, RoutesRemoteTrafficBetweenHubsAndRejectsSpoofedSenders) {
  // Node 0 lives on hub A, node 1 on hub B; the same peer-port table on both
  // sides makes each hub treat the other's node as remote.
  SwarmHub hub_a(2), hub_b(2);
  const std::vector<std::uint16_t> ports{hub_a.local_port(),
                                         hub_b.local_port()};
  hub_a.set_peers(ports);
  hub_b.set_peers(ports);
  auto ta = hub_a.transport(0);
  auto tb = hub_b.transport(1);

  ta->send(1, {7, 7, 7});
  Datagram d;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!tb->try_receive(d)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "never arrived";
    tb->wait(std::chrono::steady_clock::now() + milliseconds(1));
  }
  EXPECT_EQ(d.from, 0u);
  EXPECT_EQ(d.bytes, (std::vector<std::uint8_t>{7, 7, 7}));

  // A third party claiming to be node 0: correct mux header, wrong source
  // port. The hub must drop it at the identity check.
  UdpTransport rogue(0);
  rogue.set_peers({hub_b.local_port()});
  rogue.send(0, {0, 0, 0, 0, 1, 0, 0, 0, 66});  // [from=0][to=1][payload]
  ta->send(1, {8});  // legitimate chaser so the receive loop terminates
  while (!tb->try_receive(d)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    tb->wait(std::chrono::steady_clock::now() + milliseconds(1));
  }
  EXPECT_EQ(d.bytes, (std::vector<std::uint8_t>{8}))
      << "the spoofed datagram must never surface";
  EXPECT_FALSE(tb->try_receive(d));
}

std::size_t open_fd_count() {
  std::size_t n = 0;
  for (const auto& e :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)e;
    ++n;
  }
  return n;
}

TEST(SwarmHub, A256NodeSwarmCostsOneFileDescriptor) {
  const std::size_t before = open_fd_count();
  SwarmHub hub(256);
  std::vector<std::unique_ptr<Transport>> transports;
  for (std::uint32_t i = 0; i < 256; ++i) {
    transports.push_back(hub.transport(i));
  }
  // One shared socket (plus the directory iterator's own transient fd, gone
  // by the time we count).
  EXPECT_EQ(open_fd_count(), before + 1);
  transports[17]->send(201, {5});
  Datagram d;
  ASSERT_TRUE(transports[201]->try_receive(d));
  EXPECT_EQ(d.from, 17u);
}

// ---------------------------------------------------------------------------
// Perfect-link properties driven through epoll waits under chaos

TEST(EpollLinkProperties, NoLossNoDupFifoUnderHeavyDatagramChaos) {
  constexpr int kMessages = 150;
  UdpTransport ua(0), ub(0);
  const std::vector<std::uint16_t> ports{ua.local_port(), ub.local_port()};
  ua.set_peers(ports);
  ub.set_peers(ports);
  ChaosOptions copts;
  copts.drop_p = 0.3;
  copts.duplicate_p = 0.3;
  copts.delay_p = 0.2;
  copts.delay = milliseconds(2);
  copts.seed = 20260809;
  ChaosTransport ca(0, ua, copts), cb(1, ub, copts);
  PerfectLink::Options lopts;
  lopts.initial_rto = milliseconds(2);
  lopts.max_rto = milliseconds(20);
  PerfectLink a(0, ca, lopts), b(1, cb, lopts);

  for (int i = 0; i < kMessages; ++i) {
    WireMessage wm;
    wm.kind = WireKind::kRoundDone;
    wm.round = i;
    wm.done_count = static_cast<std::uint32_t>(i);
    a.send(1, wm);
    b.send(0, wm);
  }
  a.flush();
  b.flush();

  std::vector<ReceivedMessage> rx_a, rx_b;
  std::vector<std::int64_t> got_a, got_b;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (static_cast<int>(got_a.size()) < kMessages ||
         static_cast<int>(got_b.size()) < kMessages) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "links failed to converge: a=" << got_a.size()
        << " b=" << got_b.size();
    rx_a.clear();
    rx_b.clear();
    a.poll(rx_a);
    b.poll(rx_b);
    const auto now = std::chrono::steady_clock::now();
    a.tick(now);
    b.tick(now);
    for (const ReceivedMessage& m : rx_a) got_a.push_back(m.msg.round);
    for (const ReceivedMessage& m : rx_b) got_b.push_back(m.msg.round);
    // Single thread drives both endpoints, so waits are sliced: block on
    // a's readiness bounded by the earliest retransmission either side owes.
    auto cap = now + milliseconds(1);
    if (const auto d = a.next_deadline(); d.has_value() && *d < cap) cap = *d;
    if (const auto d = b.next_deadline(); d.has_value() && *d < cap) cap = *d;
    ca.wait(cap);
  }
  // Linger: delivery completing does not mean the final acks landed (chaos
  // drops those too); keep the link alive until both sides retire all
  // in-flight traffic — the same drain a RuntimeNode performs.
  while (!a.all_acked() || !b.all_acked()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "acks failed to converge";
    rx_a.clear();
    rx_b.clear();
    a.poll(rx_a);
    b.poll(rx_b);
    EXPECT_TRUE(rx_a.empty() && rx_b.empty()) << "late duplicate delivery";
    const auto now = std::chrono::steady_clock::now();
    a.tick(now);
    b.tick(now);
    auto cap = now + milliseconds(1);
    if (const auto d = a.next_deadline(); d.has_value() && *d < cap) cap = *d;
    if (const auto d = b.next_deadline(); d.has_value() && *d < cap) cap = *d;
    ca.wait(cap);
  }
  // No loss, no duplication, per-sender FIFO: each side saw exactly
  // 0..kMessages-1 in order.
  ASSERT_EQ(got_a.size(), static_cast<std::size_t>(kMessages));
  ASSERT_EQ(got_b.size(), static_cast<std::size_t>(kMessages));
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_EQ(got_a[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(got_b[static_cast<std::size_t>(i)], i);
  }
  EXPECT_TRUE(a.all_acked());
  EXPECT_TRUE(b.all_acked());
}

// ---------------------------------------------------------------------------
// Barrier soaks: a full deployment never wedges

TEST(EpollBarrierSoak, DeploymentSurvivesHeavyChaosWithNoTimeout) {
  // round_timeout 0 = wait forever: the only way this test passes is the
  // barrier actually opening every round under drop/dup/delay chaos.
  const Scenario scenario = parse_scenario_string(R"(
    protocol crash-flood
    adversary silent
    width 4
    height 4
    r 1
    metric linf
    t 1
    value 1
    source 0 0
    seed 7
    round_timeout_ms 0
    chaos_drop_p 0.25
    chaos_dup_p 0.25
    chaos_delay_p 0.25
    chaos_delay_ms 1
    fault 2 2
  )");
  const RuntimeResult result = run_scenario_threads(scenario);
  EXPECT_TRUE(result.success())
      << "correct " << result.correct_commits << "/" << result.honest_nodes
      << ", wrong " << result.wrong_commits;
  EXPECT_EQ(result.counters.barrier_timeouts, 0u);
  EXPECT_GT(result.counters.chaos_drops, 0u);
  EXPECT_GT(result.round_latency.count(), 0u);
}

TEST(EpollBarrierSoak, PermanentPartitionDegradesButNeverWedges) {
  // One directed link is blacked out forever; the victim must suspect the
  // silent peer via timeout+backoff and keep making rounds. Completing at
  // all is the wedge-freedom property; correctness rides along.
  const Scenario scenario = parse_scenario_string(R"(
    protocol crash-flood
    adversary silent
    width 4
    height 4
    r 1
    metric linf
    t 1
    value 1
    source 0 0
    seed 11
    round_timeout_ms 100
    suspect_after 2
    partition 1 0 0 0 0 -1
    fault 2 2
  )");
  const RuntimeResult result = run_scenario_threads(scenario);
  EXPECT_EQ(result.wrong_commits, 0);
  EXPECT_EQ(result.correct_commits, result.honest_nodes);
  EXPECT_GT(result.counters.barrier_timeouts, 0u);
  EXPECT_GT(result.counters.chaos_partition_drops, 0u);
  EXPECT_TRUE(result.degraded());
  EXPECT_TRUE(result.degraded_correct());
}

TEST(EpollBarrierSoak, SharedSocketSwarmCompletesUnderChaos) {
  // The swarm path end-to-end: every node on one SwarmHub socket, waiting
  // on its mailbox condvar, chaos on top.
  const Scenario scenario = parse_scenario_string(R"(
    protocol crash-flood
    adversary silent
    width 6
    height 6
    r 1
    metric linf
    t 2
    value 1
    source 0 0
    seed 13
    shared_socket 1
    round_timeout_ms 0
    chaos_drop_p 0.2
    chaos_dup_p 0.2
    fault 2 2
    fault 4 4
  )");
  const RuntimeResult result = run_scenario_threads(scenario);
  EXPECT_TRUE(result.success())
      << "correct " << result.correct_commits << "/" << result.honest_nodes
      << ", wrong " << result.wrong_commits;
  EXPECT_GT(result.commit_latency.count(), 0u);
}

}  // namespace
}  // namespace rbcast
