// Perfect-link property tests under deterministic fault injection
// (runtime/perfect_link.h over ChaosTransport and SwarmHub mailboxes): no
// loss, no duplication, per-sender FIFO — the three guarantees the
// runtime's round barrier is built on.

#include "radiobcast/runtime/perfect_link.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "radiobcast/net/message.h"
#include "radiobcast/runtime/swarm.h"
#include "radiobcast/runtime/transport.h"
#include "radiobcast/runtime/wire.h"

namespace rbcast {
namespace {

using std::chrono::milliseconds;

WireMessage tagged(std::int64_t round) {
  // The round tag doubles as the payload sequence number for FIFO checks.
  WireMessage wm;
  wm.kind = WireKind::kRoundDone;
  wm.round = round;
  wm.done_count = static_cast<std::uint32_t>(round);
  return wm;
}

/// Zero RTO: every tick() retransmits all unacked batches, so lossy-fabric
/// tests converge in iterations instead of wall-clock backoff waits.
PerfectLink::Options eager_options() {
  PerfectLink::Options opts;
  opts.initial_rto = milliseconds(0);
  opts.max_rto = milliseconds(0);
  return opts;
}

/// A lossy in-memory fabric: SwarmHub mailboxes, every member's outgoing
/// datagrams under its own seeded ChaosTransport. The chaos clock is a fake
/// that step() advances 1 ms, so a 2 ms delay holds a datagram back across
/// two steps while later datagrams overtake it — the reorder fault, with no
/// sleeping.
struct Fabric {
  SwarmHub hub;
  std::vector<std::unique_ptr<Transport>> mailboxes;
  std::vector<std::unique_ptr<ChaosTransport>> chaos;
  std::chrono::steady_clock::time_point now{};

  Fabric(std::uint32_t n, ChaosOptions opts) : hub(n) {
    opts.clock = [this] { return now; };
    for (std::uint32_t i = 0; i < n; ++i) {
      mailboxes.push_back(hub.transport(i));
      chaos.push_back(
          std::make_unique<ChaosTransport>(i, *mailboxes.back(), opts));
    }
  }

  ChaosTransport& at(std::uint32_t i) { return *chaos[i]; }
  void step() { now += milliseconds(1); }
};

/// With a 2 ms delay on a 1 ms-per-pump clock, delay_p is the reorder rate.
ChaosOptions faults(double drop_p, double duplicate_p, double reorder_p,
                    std::uint64_t seed) {
  ChaosOptions opts;
  opts.drop_p = drop_p;
  opts.duplicate_p = duplicate_p;
  opts.delay_p = reorder_p;
  opts.delay = milliseconds(2);
  opts.seed = seed;
  return opts;
}

struct LinkPair {
  Fabric fabric;
  PerfectLink a;
  PerfectLink b;

  explicit LinkPair(ChaosOptions opts,
                    PerfectLink::Options link_opts = eager_options())
      : fabric(2, std::move(opts)),
        a(0, fabric.at(0), link_opts),
        b(1, fabric.at(1), link_opts) {}

  /// One scheduling step for both endpoints.
  void pump(std::vector<ReceivedMessage>& rx_a,
            std::vector<ReceivedMessage>& rx_b) {
    fabric.step();
    const auto now = std::chrono::steady_clock::now();
    a.poll(rx_a);
    b.poll(rx_b);
    a.tick(now);
    b.tick(now);
  }
};

TEST(PerfectLink, DeliversInOrderOverCleanTransport) {
  // Default RTO: acks arrive within microseconds on the in-memory fabric,
  // far inside the 20ms backoff, so a clean run never retransmits.
  LinkPair pair({}, PerfectLink::Options());
  const int kCount = 100;
  for (int i = 0; i < kCount; ++i) pair.a.send(1, tagged(i));
  pair.a.flush();

  std::vector<ReceivedMessage> rx_a, rx_b;
  for (int step = 0; step < 100 && !pair.a.all_acked(); ++step) {
    pair.pump(rx_a, rx_b);
  }
  ASSERT_EQ(rx_b.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(rx_b[static_cast<std::size_t>(i)].from, 0u);
    EXPECT_EQ(rx_b[static_cast<std::size_t>(i)].msg.round, i);
  }
  EXPECT_TRUE(pair.a.all_acked());
  EXPECT_EQ(pair.a.stats().packets_retransmitted, 0u);
  EXPECT_EQ(pair.b.stats().duplicates_dropped, 0u);
  // kMaxBatch messages ride per datagram: 100 messages need only 13 packets.
  EXPECT_EQ(pair.a.stats().packets_sent,
            (kCount + kMaxBatch - 1) / kMaxBatch);
}

TEST(PerfectLink, NoLossNoDupFifoUnderDropDuplicateReorder) {
  LinkPair pair(faults(0.3, 0.3, 0.3, 20260809));

  const int kCount = 200;
  for (int i = 0; i < kCount; ++i) pair.a.send(1, tagged(i));
  pair.a.flush();

  std::vector<ReceivedMessage> rx_a, rx_b;
  for (int step = 0; step < 20000 && !pair.a.all_acked(); ++step) {
    pair.pump(rx_a, rx_b);
  }

  // No loss: everything sent arrived, sender saw every ack.
  EXPECT_TRUE(pair.a.all_acked());
  ASSERT_EQ(rx_b.size(), static_cast<std::size_t>(kCount));
  // No duplication + FIFO: delivered exactly once, in send order.
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(rx_b[static_cast<std::size_t>(i)].msg.round, i)
        << "out-of-order or duplicated delivery at position " << i;
  }
  // The fabric really was hostile: retransmits happened, duplicate copies
  // reached the receiver (and were dropped there, not delivered), and
  // datagrams were held back behind later ones.
  EXPECT_GT(pair.a.stats().packets_retransmitted, 0u);
  EXPECT_GT(pair.b.stats().duplicates_dropped, 0u);
  EXPECT_GT(pair.fabric.at(0).stats().delays, 0u);
}

TEST(PerfectLink, BidirectionalTrafficKeepsStreamsIndependent) {
  LinkPair pair(faults(0.25, 0.0, 0.25, 7));

  const int kCount = 80;
  for (int i = 0; i < kCount; ++i) {
    pair.a.send(1, tagged(i));
    pair.b.send(0, tagged(1000 + i));
  }
  pair.a.flush();
  pair.b.flush();

  std::vector<ReceivedMessage> rx_a, rx_b;
  for (int step = 0;
       step < 20000 && !(pair.a.all_acked() && pair.b.all_acked()); ++step) {
    pair.pump(rx_a, rx_b);
  }
  ASSERT_EQ(rx_b.size(), static_cast<std::size_t>(kCount));
  ASSERT_EQ(rx_a.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(rx_b[static_cast<std::size_t>(i)].msg.round, i);
    EXPECT_EQ(rx_a[static_cast<std::size_t>(i)].msg.round, 1000 + i);
  }
}

TEST(PerfectLink, PerDestinationSequencesLeaveNoGaps) {
  // Three-party: node 0 interleaves sends to 1 and 2. Each receiver's stream
  // must be gap-free (per-destination sequence numbers, not a global one).
  Fabric fabric(3, faults(0.2, 0.0, 0.0, 99));
  PerfectLink l0(0, fabric.at(0), eager_options());
  PerfectLink l1(1, fabric.at(1), eager_options());
  PerfectLink l2(2, fabric.at(2), eager_options());

  const int kCount = 50;
  for (int i = 0; i < kCount; ++i) {
    l0.send(1, tagged(i));
    l0.send(2, tagged(100 + i));
  }
  l0.flush();

  std::vector<ReceivedMessage> rx0, rx1, rx2;
  for (int step = 0; step < 20000 && !l0.all_acked(); ++step) {
    fabric.step();
    const auto now = std::chrono::steady_clock::now();
    l0.poll(rx0);
    l1.poll(rx1);
    l2.poll(rx2);
    l0.tick(now);
    l1.tick(now);
    l2.tick(now);
  }
  ASSERT_EQ(rx1.size(), static_cast<std::size_t>(kCount));
  ASSERT_EQ(rx2.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(rx1[static_cast<std::size_t>(i)].msg.round, i);
    EXPECT_EQ(rx2[static_cast<std::size_t>(i)].msg.round, 100 + i);
  }
}

TEST(PerfectLink, ProtocolPayloadSurvivesTheLink) {
  LinkPair pair({});
  WireMessage wm;
  wm.kind = WireKind::kProtocol;
  wm.round = 5;
  wm.msg = make_heard({{1, 2}, {3, 4}}, {7, 7}, 1);
  pair.a.send(1, wm);
  pair.a.flush();

  std::vector<ReceivedMessage> rx_a, rx_b;
  for (int step = 0; step < 100 && rx_b.empty(); ++step) {
    pair.pump(rx_a, rx_b);
  }
  ASSERT_EQ(rx_b.size(), 1u);
  EXPECT_EQ(rx_b[0].msg, wm);
}

TEST(PerfectLink, AllAckedReflectsUnflushedMessages) {
  LinkPair pair({});
  EXPECT_TRUE(pair.a.all_acked());
  pair.a.send(1, tagged(0));
  EXPECT_FALSE(pair.a.all_acked());  // queued but not yet transmitted
  pair.a.flush();
  EXPECT_FALSE(pair.a.all_acked());  // transmitted but not yet acked
  std::vector<ReceivedMessage> rx_a, rx_b;
  for (int step = 0; step < 100 && !pair.a.all_acked(); ++step) {
    pair.pump(rx_a, rx_b);
  }
  EXPECT_TRUE(pair.a.all_acked());
}

TEST(UdpTransport, LoopbackRoundtripResolvesSenderIdentity) {
  UdpTransport t0(0), t1(0);  // ephemeral ports
  ASSERT_NE(t0.local_port(), 0);
  ASSERT_NE(t1.local_port(), 0);
  const std::vector<std::uint16_t> ports = {t0.local_port(), t1.local_port()};
  t0.set_peers(ports);
  t1.set_peers(ports);

  const std::vector<std::uint8_t> payload = {1, 2, 3, 4};
  t0.send(1, payload);
  Datagram d;
  bool got = false;
  for (int i = 0; i < 2000 && !(got = t1.try_receive(d)); ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_TRUE(got);
  EXPECT_EQ(d.from, 0u);  // resolved from the source port, not packet bytes
  EXPECT_EQ(d.bytes, payload);
  EXPECT_FALSE(t1.try_receive(d));
}

TEST(UdpTransport, StrayDatagramDoesNotEndTheDrain) {
  // A datagram from a port outside the peer table, queued ahead of a real
  // peer's: the drain must discard it and still return the peer's datagram.
  // Ending the drain early would leave traffic queued behind an already
  // consumed readability edge, and the edge-triggered wait would then sleep
  // to its deadline.
  UdpTransport t0(0), t1(0), stray(0);
  const std::vector<std::uint16_t> ports = {t0.local_port(), t1.local_port()};
  t0.set_peers(ports);
  t1.set_peers(ports);
  stray.set_peers({t0.local_port()});
  stray.send(0, {6, 6, 6});
  t1.send(0, {1});
  // Loopback queues a datagram before sendto returns; the nap only absorbs
  // deferred delivery on a loaded machine.
  std::this_thread::sleep_for(milliseconds(20));

  std::vector<Datagram> drained;
  Datagram d;
  while (t0.try_receive(d)) drained.push_back(d);
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].from, 1u);
  EXPECT_EQ(drained[0].bytes, (std::vector<std::uint8_t>{1}));
}

}  // namespace
}  // namespace rbcast
