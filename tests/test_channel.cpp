#include "radiobcast/net/channel.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "radiobcast/core/simulation.h"
#include "radiobcast/net/network.h"

namespace rbcast {
namespace {

TEST(Channel, PerfectDeliversEverything) {
  PerfectChannel channel;
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(channel.delivers({0, 0}, {1, 1}, rng));
  }
}

TEST(Channel, IidLossMatchesProbability) {
  IidLossChannel channel(0.3);
  Rng rng(7);
  int delivered = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    delivered += channel.delivers({0, 0}, {1, 1}, rng) ? 1 : 0;
  }
  EXPECT_NEAR(delivered / static_cast<double>(kTrials), 0.7, 0.02);
  EXPECT_DOUBLE_EQ(channel.loss_probability(), 0.3);
}

TEST(Channel, IidLossExtremes) {
  Rng rng(3);
  IidLossChannel never(1.0);
  IidLossChannel always(0.0);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(never.delivers({0, 0}, {1, 0}, rng));
    EXPECT_TRUE(always.delivers({0, 0}, {1, 0}, rng));
  }
}

TEST(Channel, IidLossRejectsOutOfRangeProbability) {
  EXPECT_THROW(IidLossChannel(-0.1), std::invalid_argument);
  EXPECT_THROW(IidLossChannel(1.1), std::invalid_argument);
  EXPECT_THROW(IidLossChannel(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_NO_THROW(IidLossChannel(0.0));
  EXPECT_NO_THROW(IidLossChannel(1.0));
}

/// Counts deliveries it receives.
class Counter : public NodeBehavior {
 public:
  void on_receive(NodeContext&, const Envelope&) override { ++received; }
  int received = 0;
};

/// Broadcasts one message at start.
class OneShot : public NodeBehavior {
 public:
  void on_start(NodeContext& ctx) override {
    ctx.broadcast(make_committed(ctx.self(), 1));
  }
  void on_receive(NodeContext&, const Envelope&) override {}
};

TEST(Network, ChannelDropsAreCounted) {
  RadioNetwork net(Torus(8, 8), 1, Metric::kLInf, 1);
  net.set_channel(std::make_unique<IidLossChannel>(1.0));
  for (const Coord c : net.torus().all_coords()) {
    if (c == Coord{4, 4}) {
      net.set_behavior(c, std::make_unique<OneShot>());
    } else {
      net.set_behavior(c, std::make_unique<Counter>());
    }
  }
  net.start();
  net.run_round();
  EXPECT_EQ(net.stats().transmissions, 1u);
  EXPECT_EQ(net.counters().envelopes_delivered, 0u);
  EXPECT_EQ(net.counters().envelopes_dropped, 8u);
}

TEST(Network, RetransmissionsRepeatAcrossRounds) {
  RadioNetwork net(Torus(8, 8), 1, Metric::kLInf, 1);
  net.set_retransmissions(3);
  for (const Coord c : net.torus().all_coords()) {
    if (c == Coord{4, 4}) {
      net.set_behavior(c, std::make_unique<OneShot>());
    } else {
      net.set_behavior(c, std::make_unique<Counter>());
    }
  }
  net.start();
  const auto rounds = net.run_until_quiescent(100);
  EXPECT_EQ(rounds, 3);  // one delivery round per copy
  EXPECT_EQ(net.stats().transmissions, 3u);
  EXPECT_EQ(net.counters().envelopes_delivered, 24u);
  const auto* counter = dynamic_cast<const Counter*>(net.behavior({4, 5}));
  EXPECT_EQ(counter->received, 3);
}

TEST(Network, RetransmissionValidation) {
  RadioNetwork net(Torus(8, 8), 1, Metric::kLInf, 1);
  EXPECT_THROW(net.set_retransmissions(0), std::invalid_argument);
  EXPECT_THROW(net.set_channel(nullptr), std::invalid_argument);
}

TEST(Simulation, LossZeroMatchesPerfectModel) {
  SimConfig a;
  a.width = a.height = 12;
  a.r = 1;
  a.protocol = ProtocolKind::kCrashFlood;
  SimConfig b = a;
  b.loss_p = 0.0;
  b.retransmissions = 1;
  const auto ra = run_simulation(a, FaultSet{});
  const auto rb = run_simulation(b, FaultSet{});
  EXPECT_EQ(ra.transmissions, rb.transmissions);
  EXPECT_EQ(ra.outcomes, rb.outcomes);
}

TEST(Simulation, HeavyLossBreaksFloodingLiveness) {
  SimConfig cfg;
  cfg.width = cfg.height = 12;
  cfg.r = 1;
  cfg.protocol = ProtocolKind::kCrashFlood;
  cfg.loss_p = 0.9;
  cfg.seed = 5;
  const auto result = run_simulation(cfg, FaultSet{});
  EXPECT_FALSE(result.success());
  EXPECT_EQ(result.wrong_commits, 0);
}

TEST(Simulation, RetransmissionsRestoreCoverageUnderLoss) {
  SimConfig cfg;
  cfg.width = cfg.height = 12;
  cfg.r = 1;
  cfg.protocol = ProtocolKind::kCrashFlood;
  cfg.loss_p = 0.5;
  cfg.retransmissions = 8;
  cfg.seed = 5;
  const auto result = run_simulation(cfg, FaultSet{});
  EXPECT_TRUE(result.success());
}

TEST(Simulation, ByzantineSafetySurvivesLoss) {
  // Loss breaks Section V's no-duplicity argument, but the commit rule's
  // safety never relied on it: zero wrong commits under loss + liars.
  SimConfig cfg;
  cfg.width = cfg.height = 12;
  cfg.r = 1;
  cfg.protocol = ProtocolKind::kBvTwoHop;
  cfg.adversary = AdversaryKind::kLying;
  cfg.t = 1;
  cfg.loss_p = 0.3;
  cfg.retransmissions = 4;
  Torus torus(cfg.width, cfg.height);
  FaultSet faults(torus, {{5, 5}, {9, 2}});
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    cfg.seed = seed;
    const auto result = run_simulation(cfg, faults);
    EXPECT_EQ(result.wrong_commits, 0) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace rbcast
