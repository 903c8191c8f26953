#include "radiobcast/protocols/byzantine.h"

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
