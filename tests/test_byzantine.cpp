#include "radiobcast/protocols/byzantine.h"

#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "radiobcast/core/simulation.h"

namespace rbcast {
namespace {

RadioNetwork make_net(std::int32_t side, std::int32_t r) {
  return RadioNetwork(Torus(side, side), r, Metric::kLInf, 1);
}

/// An honest crash-flood node on `torus` (r = 1), as the simulator and the
/// runtime build it.
std::unique_ptr<NodeBehavior> honest_crash_flood(const Torus& torus) {
  SimConfig cfg;
  cfg.width = torus.width();
  cfg.height = torus.height();
  cfg.r = 1;
  cfg.protocol = ProtocolKind::kCrashFlood;
  return make_node_behavior(cfg, torus, NodeRole::kHonest);
}

TEST(Silent, NeverTransmits) {
  auto net = make_net(8, 1);
  for (const Coord c : net.torus().all_coords()) {
    net.set_behavior(c, std::make_unique<SilentBehavior>());
  }
  net.start();
  net.run_round();
  EXPECT_EQ(net.stats().transmissions, 0u);
  EXPECT_FALSE(net.behavior({0, 0})->committed_value().has_value());
}

TEST(Lying, AnnouncesWrongValueAtStart) {
  auto net = make_net(8, 1);
  const Coord liar{3, 3};
  for (const Coord c : net.torus().all_coords()) {
    if (c == liar) {
      net.set_behavior(c, std::make_unique<LyingBehavior>(0));
    } else {
      net.set_behavior(c, std::make_unique<SilentBehavior>());
    }
  }
  net.start();
  net.run_round();
  EXPECT_EQ(net.stats().transmissions, 1u);
}

TEST(Lying, FlipsRelayedReports) {
  const Torus torus(12, 12);
  RadioNetwork net(torus, 1, Metric::kLInf, 1);
  for (const Coord c : torus.all_coords()) {
    net.set_behavior(c, std::make_unique<SilentBehavior>());
  }
  const Coord liar{5, 5};
  net.set_behavior(liar, std::make_unique<LyingBehavior>(0));
  net.start();  // liar queues its wrong COMMITTED
  NodeContext ctx(net, liar);
  auto* b = net.behavior(liar);
  b->on_receive(ctx, {{5, 6}, make_committed({5, 6}, 1)});
  b->on_receive(ctx, {{5, 4}, make_heard({{5, 4}}, {5, 3}, 1)});
  net.run_round();  // delivers start-round broadcasts
  net.run_round();  // delivers the lies
  // Liar produced: 1 COMMITTED + 2 lying HEARDs.
  EXPECT_EQ(net.transmissions_of(liar), 3u);
}

TEST(Lying, DoesNotRepeatIdenticalLies) {
  const Torus torus(12, 12);
  RadioNetwork net(torus, 1, Metric::kLInf, 1);
  for (const Coord c : torus.all_coords()) {
    net.set_behavior(c, std::make_unique<SilentBehavior>());
  }
  const Coord liar{5, 5};
  net.set_behavior(liar, std::make_unique<LyingBehavior>(0));
  net.start();
  NodeContext ctx(net, liar);
  auto* b = net.behavior(liar);
  b->on_receive(ctx, {{5, 6}, make_committed({5, 6}, 1)});
  b->on_receive(ctx, {{5, 6}, make_committed({5, 6}, 1)});
  net.run_round();
  net.run_round();
  EXPECT_EQ(net.transmissions_of(liar), 2u);  // COMMITTED + one HEARD
}

TEST(Lying, CapsRelayDepth) {
  const Torus torus(12, 12);
  RadioNetwork net(torus, 1, Metric::kLInf, 1);
  for (const Coord c : torus.all_coords()) {
    net.set_behavior(c, std::make_unique<SilentBehavior>());
  }
  const Coord liar{5, 5};
  net.set_behavior(liar, std::make_unique<LyingBehavior>(0));
  net.start();
  NodeContext ctx(net, liar);
  auto* b = net.behavior(liar);
  // Depth-3 chain: the liar must not extend it further.
  b->on_receive(
      ctx, {{5, 6}, make_heard({{5, 8}, {5, 7}, {5, 6}}, {5, 9}, 1)});
  net.run_round();
  net.run_round();
  EXPECT_EQ(net.transmissions_of(liar), 1u);  // only the start COMMITTED
}

/// A backend that records what its node queues, in order.
class QueueRecorder final : public BroadcastBackend {
 public:
  explicit QueueRecorder(Torus torus = Torus(12, 12)) : torus_(torus) {}

  const Torus& torus() const override { return torus_; }
  std::int32_t radius() const override { return 1; }
  Metric metric() const override { return Metric::kLInf; }
  std::int64_t round() const override { return 0; }
  Rng& rng() override { return rng_; }
  void queue_broadcast(Coord, Message msg) override { queued.push_back(msg); }
  void queue_spoofed_broadcast(Coord, Coord, Message) override {
    throw std::logic_error("spoofing");
  }
  void record_commit(Coord, std::uint8_t) override {}

  std::vector<Message> queued;

 private:
  Torus torus_;
  Rng rng_{1};
};

TEST(Lying, SendsEachDistinctLieOnce) {
  QueueRecorder backend;
  const Coord liar{5, 5};
  NodeContext ctx(backend, liar);
  LyingBehavior b(0);
  b.on_start(ctx);
  // The same HEARD twice: one lie.
  b.on_receive(ctx, {{5, 4}, make_heard({{5, 4}}, {5, 3}, 1)});
  b.on_receive(ctx, {{5, 4}, make_heard({{5, 4}}, {5, 3}, 1)});
  // Two HEARDs that differ only in value: the lie carries the wrong value
  // either way, so one lie.
  b.on_receive(ctx, {{6, 4}, make_heard({{6, 4}}, {6, 3}, 1)});
  b.on_receive(ctx, {{6, 4}, make_heard({{6, 4}}, {6, 3}, 0)});
  // A chain and its one-shorter prefix: two lies.
  b.on_receive(ctx, {{4, 5}, make_heard({{4, 6}, {4, 5}}, {4, 7}, 1)});
  b.on_receive(ctx, {{4, 6}, make_heard({{4, 6}}, {4, 7}, 1)});
  // A COMMITTED and a HEARD about the same origin: two lies.
  b.on_receive(ctx, {{6, 6}, make_committed({6, 6}, 1)});
  b.on_receive(ctx, {{6, 5}, make_heard({{6, 5}}, {6, 6}, 1)});
  // A depth-3 chain: past the relay cap, no lie.
  b.on_receive(ctx,
               {{5, 6}, make_heard({{5, 8}, {5, 7}, {5, 6}}, {5, 9}, 1)});
  const std::vector<Message> expected = {
      make_committed(liar, 0),
      make_heard({{5, 4}, liar}, {5, 3}, 0),
      make_heard({{6, 4}, liar}, {6, 3}, 0),
      make_heard({{4, 6}, {4, 5}, liar}, {4, 7}, 0),
      make_heard({{4, 6}, liar}, {4, 7}, 0),
      make_heard({liar}, {6, 6}, 0),
      make_heard({{6, 5}, liar}, {6, 6}, 0),
  };
  ASSERT_EQ(backend.queued.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(backend.queued[i], expected[i])
        << i << ": " << to_string(backend.queued[i]);
  }
}

TEST(Lying, KeyIsExactAtIndexBoundaries) {
  // 2047x1024 is just under 2^21 nodes, so the largest index fills a lie
  // key's 21-bit field. Each pair below would collide under a key that
  // packed an absent relayer like node 0, kept only some of a chain's
  // relayers, or used 20-bit fields (the largest index, or the largest plus
  // one, would carry into the next field).
  const Torus torus(2047, 1024);
  QueueRecorder backend(torus);
  const Coord liar{5, 5};
  NodeContext ctx(backend, liar);
  LyingBehavior b(0);
  b.on_start(ctx);
  const auto at = [&](std::int64_t index) {
    return torus.coord(static_cast<std::int32_t>(index));
  };
  const std::int64_t top = torus.node_count() - 1;
  const Coord zero = at(0);
  const Coord last = at(top);
  const Coord below = at(top - (1 << 20));
  const Coord o{7, 9};
  const std::vector<Message> lies = {
      make_heard({}, o, 1),               // no relayer
      make_heard({zero}, o, 1),           // node 0 as the relayer
      make_heard({zero, last}, o, 1),     // a chain and its prefix (above)
      make_heard({last}, o, 1),           // the chain's last hop alone
      make_heard({last, zero}, o, 1),     // node 0 as the second relayer
      make_heard({below, zero}, o, 1),    // {last} under 20-bit fields
      make_heard({}, last, 1),            // the largest origin
      make_heard({zero}, below, 1),       // ... and its 20-bit alias
      make_heard({last, last}, last, 1),  // every field at its largest
      make_heard({}, zero, 1),            // the all-zero key
  };
  const Coord sender{5, 6};
  for (const Message& m : lies) b.on_receive(ctx, {sender, m});
  ASSERT_EQ(backend.queued.size(), lies.size() + 1);
  for (std::size_t i = 0; i < lies.size(); ++i) {
    RelayerChain chain = lies[i].relayers;
    chain.push_back(liar);
    EXPECT_EQ(backend.queued[i + 1], make_heard(chain, lies[i].origin, 0))
        << i << ": " << to_string(backend.queued[i + 1]);
  }
  // The same lies with non-canonical coordinates are repeats: a lie is
  // identified up to wrap-around.
  const auto shift = [&](Coord c, int k) {
    return k % 2 == 0 ? Coord{c.x + torus.width(), c.y}
                      : Coord{c.x, c.y - torus.height()};
  };
  for (std::size_t i = 0; i < lies.size(); ++i) {
    RelayerChain raw;
    for (const Coord c : lies[i].relayers) {
      raw.push_back(shift(c, static_cast<int>(i + raw.size())));
    }
    b.on_receive(ctx, {sender, make_heard(raw, shift(lies[i].origin, 1), 1)});
  }
  EXPECT_EQ(backend.queued.size(), lies.size() + 1);
}

TEST(Lying, ThrowsOnTorusOf2To21Nodes) {
  // 2048x1024 = 2^21 nodes: the largest index no longer fits the lie key.
  QueueRecorder backend(Torus(2048, 1024));
  NodeContext ctx(backend, {5, 5});
  LyingBehavior b(0);
  EXPECT_THROW(b.on_start(ctx), std::invalid_argument);
  EXPECT_TRUE(backend.queued.empty());
}

TEST(CrashAtRound, HonestUntilCrash) {
  const Torus torus(12, 12);
  RadioNetwork net(torus, 1, Metric::kLInf, 1);
  for (const Coord c : torus.all_coords()) {
    net.set_behavior(c, std::make_unique<SilentBehavior>());
  }
  const Coord node{5, 5};
  net.set_behavior(node,
                   std::make_unique<CrashAtRoundBehavior>(
                       honest_crash_flood(torus), /*crash_round=*/2));
  net.start();
  NodeContext ctx(net, node);
  auto* b = net.behavior(node);
  // Round 0: alive — receives a value, relays it (delivery happens one round
  // after the send is queued).
  b->on_receive(ctx, {{5, 6}, make_committed({5, 6}, 1)});
  net.run_round();
  net.run_round();
  EXPECT_EQ(net.transmissions_of(node), 1u);
  // Round >= 2: crashed — receipt does nothing, and committed_value hides
  // the inner state (a faulty node is never scored).
  b->on_receive(ctx, {{5, 4}, make_committed({5, 4}, 0)});
  net.run_round();
  EXPECT_EQ(net.transmissions_of(node), 1u);
  EXPECT_FALSE(b->committed_value().has_value());
}

TEST(CrashAtRound, CrashAtZeroNeverActs) {
  const Torus torus(12, 12);
  RadioNetwork net(torus, 1, Metric::kLInf, 1);
  for (const Coord c : torus.all_coords()) {
    net.set_behavior(c, std::make_unique<SilentBehavior>());
  }
  const Coord node{5, 5};
  net.set_behavior(node,
                   std::make_unique<CrashAtRoundBehavior>(
                       honest_crash_flood(torus), /*crash_round=*/0));
  net.start();
  NodeContext ctx(net, node);
  net.behavior(node)->on_receive(ctx, {{5, 6}, make_committed({5, 6}, 1)});
  net.run_round();
  net.run_round();
  EXPECT_EQ(net.transmissions_of(node), 0u);
}

}  // namespace
}  // namespace rbcast
