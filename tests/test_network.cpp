#include "radiobcast/net/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "radiobcast/graph/graph.h"
#include "radiobcast/protocols/byzantine.h"
#include "radiobcast/protocols/pool.h"
#include "radiobcast/protocols/source.h"
#include "radiobcast/util/rng.h"

namespace rbcast {
namespace {

/// Records everything it hears; optionally broadcasts scripted messages and
/// declares ignored message classes at start.
class Recorder : public NodeBehavior {
 public:
  explicit Recorder(std::vector<Message> at_start = {},
                    MessageClasses ignored = {})
      : at_start_(std::move(at_start)), ignored_(ignored) {}

  void on_start(NodeContext& ctx) override {
    for (const Message& m : at_start_) ctx.broadcast(m);
    ctx.ignore(ignored_);
  }

  void on_receive(NodeContext&, const Envelope& env) override {
    received.push_back(env);
  }

  void on_round_end(NodeContext&) override { rounds_seen += 1; }

  std::vector<Envelope> received;
  int rounds_seen = 0;

 private:
  std::vector<Message> at_start_;
  MessageClasses ignored_;
};

/// A pool that records every message it is handed and declares `standing`
/// ignored for all of its nodes.
class RecordingPool final : public NodePool {
 public:
  explicit RecordingPool(MessageClasses standing) : standing_(standing) {}

  void on_receive(NodeContext&, std::int32_t, const Envelope& env) override {
    received.push_back(env.msg);
  }
  MessageClasses ignored() const override { return standing_; }
  std::optional<std::uint8_t> committed_value(std::int32_t) const override {
    return std::nullopt;
  }
  std::optional<std::int64_t> commit_round(std::int32_t) const override {
    return std::nullopt;
  }

  std::vector<Message> received;

 private:
  MessageClasses standing_;
};

/// Re-broadcasts the first received message once (to test multi-round flow).
class RelayOnce : public NodeBehavior {
 public:
  void on_receive(NodeContext& ctx, const Envelope& env) override {
    if (relayed_) return;
    relayed_ = true;
    ctx.broadcast(env.msg);
  }

 private:
  bool relayed_ = false;
};

RadioNetwork make_net(std::int32_t side, std::int32_t r) {
  return RadioNetwork(Torus(side, side), r, Metric::kLInf, /*seed=*/1);
}

TEST(Network, RequiresBehaviorsEverywhere) {
  auto net = make_net(6, 1);
  EXPECT_THROW(net.start(), std::logic_error);
}

TEST(Network, StartTwiceThrows) {
  auto net = make_net(6, 1);
  for (const Coord c : net.torus().all_coords()) {
    net.set_behavior(c, std::make_unique<Recorder>());
  }
  net.start();
  EXPECT_THROW(net.start(), std::logic_error);
}

TEST(Network, RunRoundBeforeStartThrows) {
  auto net = make_net(6, 1);
  EXPECT_THROW(net.run_round(), std::logic_error);
}

TEST(Network, BroadcastReachesExactlyTheNeighborhood) {
  auto net = make_net(8, 2);
  const Coord sender{4, 4};
  for (const Coord c : net.torus().all_coords()) {
    if (c == sender) {
      net.set_behavior(
          c, std::make_unique<Recorder>(
                 std::vector<Message>{make_committed(sender, 1)}));
    } else {
      net.set_behavior(c, std::make_unique<Recorder>());
    }
  }
  net.start();
  net.run_round();
  int heard = 0;
  for (const Coord c : net.torus().all_coords()) {
    const auto* rec = dynamic_cast<const Recorder*>(net.behavior(c));
    ASSERT_NE(rec, nullptr);
    if (c == sender) {
      EXPECT_TRUE(rec->received.empty());  // no self-delivery
      continue;
    }
    if (net.torus().within(sender, c, 2, Metric::kLInf)) {
      ASSERT_EQ(rec->received.size(), 1u) << to_string(c);
      EXPECT_EQ(rec->received[0].sender, sender);
      EXPECT_EQ(rec->received[0].msg.value, 1);
      ++heard;
    } else {
      EXPECT_TRUE(rec->received.empty()) << to_string(c);
    }
  }
  EXPECT_EQ(heard, 24);
}

TEST(Network, SenderIdentityIsTrueTransmitter) {
  // Even if the message claims another origin, Envelope::sender is the
  // transmitter (no spoofing).
  auto net = make_net(8, 1);
  const Coord liar{3, 3};
  for (const Coord c : net.torus().all_coords()) {
    if (c == liar) {
      net.set_behavior(c, std::make_unique<Recorder>(std::vector<Message>{
                              make_committed({0, 0}, 1)}));
    } else {
      net.set_behavior(c, std::make_unique<Recorder>());
    }
  }
  net.start();
  net.run_round();
  const auto* rec = dynamic_cast<const Recorder*>(net.behavior({3, 4}));
  ASSERT_EQ(rec->received.size(), 1u);
  EXPECT_EQ(rec->received[0].sender, liar);
  EXPECT_EQ(rec->received[0].msg.origin, (Coord{0, 0}));
}

TEST(Network, PerSenderFifoOrderPreserved) {
  auto net = make_net(8, 1);
  const Coord sender{2, 2};
  std::vector<Message> msgs;
  for (std::uint8_t i = 0; i < 2; ++i) msgs.push_back(make_committed(sender, i));
  for (const Coord c : net.torus().all_coords()) {
    net.set_behavior(c, std::make_unique<Recorder>(
                            c == sender ? msgs : std::vector<Message>{}));
  }
  net.start();
  net.run_round();
  const auto* rec = dynamic_cast<const Recorder*>(net.behavior({3, 3}));
  ASSERT_EQ(rec->received.size(), 2u);
  EXPECT_EQ(rec->received[0].msg.value, 0);
  EXPECT_EQ(rec->received[1].msg.value, 1);
}

TEST(Network, AllReceiversSeeSameOrderAcrossSenders) {
  auto net = make_net(8, 2);
  const Coord s1{3, 3}, s2{4, 4};
  for (const Coord c : net.torus().all_coords()) {
    std::vector<Message> at_start;
    if (c == s1) at_start.push_back(make_committed(s1, 0));
    if (c == s2) at_start.push_back(make_committed(s2, 1));
    net.set_behavior(c, std::make_unique<Recorder>(at_start));
  }
  net.start();
  net.run_round();
  // Two receivers that hear both senders must agree on the order.
  std::vector<Coord> both;
  for (const Coord c : net.torus().all_coords()) {
    if (c != s1 && c != s2 && net.torus().within(c, s1, 2, Metric::kLInf) &&
        net.torus().within(c, s2, 2, Metric::kLInf)) {
      both.push_back(c);
    }
  }
  ASSERT_GE(both.size(), 2u);
  std::vector<Coord> first_order;
  for (const Coord c : both) {
    const auto* rec = dynamic_cast<const Recorder*>(net.behavior(c));
    ASSERT_EQ(rec->received.size(), 2u);
    std::vector<Coord> order{rec->received[0].sender, rec->received[1].sender};
    if (first_order.empty()) {
      first_order = order;
    } else {
      EXPECT_EQ(order, first_order);
    }
  }
}

TEST(Network, MessagesSentDuringReceiveArriveNextRound) {
  auto net = make_net(10, 1);
  const Coord origin{5, 5};
  for (const Coord c : net.torus().all_coords()) {
    if (c == origin) {
      net.set_behavior(c, std::make_unique<Recorder>(std::vector<Message>{
                              make_committed(origin, 1)}));
    } else {
      net.set_behavior(c, std::make_unique<RelayOnce>());
    }
  }
  net.start();
  net.run_round();  // round 1: neighbors hear the origin
  // A node 2 hops away has heard nothing yet; its neighbor relayed during
  // round 1, delivery happens in round 2.
  net.set_behavior({5, 8}, std::make_unique<Recorder>());  // 3 hops away
  net.run_round();
  net.run_round();
  const auto* rec = dynamic_cast<const Recorder*>(net.behavior({5, 8}));
  EXPECT_FALSE(rec->received.empty());
}

TEST(Network, QuiescenceAfterFiniteProtocol) {
  auto net = make_net(8, 1);
  const Coord origin{4, 4};
  for (const Coord c : net.torus().all_coords()) {
    if (c == origin) {
      net.set_behavior(c, std::make_unique<Recorder>(std::vector<Message>{
                              make_committed(origin, 1)}));
    } else {
      net.set_behavior(c, std::make_unique<RelayOnce>());
    }
  }
  net.start();
  EXPECT_FALSE(net.quiescent());
  const auto rounds = net.run_until_quiescent(100);
  EXPECT_TRUE(net.quiescent());
  EXPECT_GT(rounds, 2);
  EXPECT_LT(rounds, 100);
}

TEST(Network, StatsCountTransmissionsAndDeliveries) {
  auto net = make_net(8, 1);
  const Coord origin{4, 4};
  for (const Coord c : net.torus().all_coords()) {
    if (c == origin) {
      net.set_behavior(c, std::make_unique<Recorder>(std::vector<Message>{
                              make_committed(origin, 1)}));
    } else {
      net.set_behavior(c, std::make_unique<Recorder>());
    }
  }
  net.start();
  net.run_round();
  EXPECT_EQ(net.stats().transmissions, 1u);
  EXPECT_EQ(net.counters().envelopes_delivered, 8u);
  EXPECT_EQ(net.transmissions_of(origin), 1u);
  EXPECT_EQ(net.transmissions_of({0, 0}), 0u);
}

TEST(Network, IgnoredClassesAreCountedButNotDispatched) {
  // Every node declares three-relayer HEARDs ignored: none is dispatched,
  // yet deliveries, counters and trace events are exactly those of the same
  // run without the declaration — untraced (the fast path), traced, and
  // traced over a lossy channel, whose draws must not shift either.
  const Coord sender{4, 4};
  const std::vector<Message> sent = {
      make_committed(sender, 1),
      make_heard({sender}, {3, 3}, 1),
      make_heard({{2, 2}, {3, 3}, sender}, {1, 1}, 1),
      make_heard({{3, 4}, sender}, {2, 4}, 0),
  };
  struct Run {
    std::vector<Message> heard;  // by the listener
    TrafficStats stats;
    Counters counters;
    std::vector<TraceEvent> events;
  };
  enum class Path { kFast, kTraced, kLossyTraced };
  for (const Path path : {Path::kFast, Path::kTraced, Path::kLossyTraced}) {
    const auto run = [&](MessageClasses ignored) {
      auto net = make_net(8, 1);
      RoundTrace trace;
      trace.set_enabled(true);
      if (path != Path::kFast) net.set_trace(&trace);
      if (path == Path::kLossyTraced) {
        net.set_channel(std::make_unique<IidLossChannel>(0.3));
      }
      for (const Coord c : net.torus().all_coords()) {
        net.set_behavior(
            c, std::make_unique<Recorder>(
                   c == sender ? sent : std::vector<Message>{}, ignored));
      }
      net.start();
      net.run_round();
      Run out;
      for (const Coord c : net.torus().all_coords()) {
        const auto* rec = dynamic_cast<const Recorder*>(net.behavior(c));
        for (const Envelope& env : rec->received) out.heard.push_back(env.msg);
      }
      out.stats = net.stats();
      out.counters = net.counters();
      out.events = trace.events();
      return out;
    };
    const Run all = run(MessageClasses{});
    const Run masked = run(MessageClasses::heard_from(3));
    std::vector<Message> expected;
    for (const Message& m : all.heard) {
      if (m.relayers.size() != 3) expected.push_back(m);
    }
    ASSERT_LT(expected.size(), all.heard.size());
    EXPECT_EQ(masked.heard, expected);
    EXPECT_EQ(masked.stats.transmissions, all.stats.transmissions);
    EXPECT_EQ(masked.stats.payload_units, all.stats.payload_units);
    EXPECT_EQ(masked.counters.envelopes_delivered,
              all.counters.envelopes_delivered);
    EXPECT_EQ(masked.counters, all.counters);
    EXPECT_EQ(masked.events, all.events);
    EXPECT_EQ(all.events.empty(), path == Path::kFast);
  }
}

TEST(Network, PoolStandingClassesAreCountedButNotDispatched) {
  // Every node but the sender is in a pool whose standing classes are the
  // HEARDs without exactly one relayer: the pool is never handed one, yet
  // deliveries, counters and trace events are those of the same run with
  // no standing classes, untraced and traced over a lossy channel.
  const Coord sender{4, 4};
  const std::vector<Message> sent = {
      make_committed(sender, 1),
      make_heard({}, {3, 3}, 1),
      make_heard({sender}, {3, 3}, 1),
      make_heard({{2, 2}, {3, 3}, sender}, {1, 1}, 1),
      make_heard({{3, 4}, sender}, {2, 4}, 0),
  };
  struct Run {
    std::vector<Message> heard;  // by the pool
    TrafficStats stats;
    Counters counters;
    std::vector<TraceEvent> events;
  };
  for (const bool lossy_traced : {false, true}) {
    const auto run = [&](MessageClasses standing) {
      auto net = make_net(8, 1);
      RoundTrace trace;
      trace.set_enabled(true);
      if (lossy_traced) {
        net.set_trace(&trace);
        net.set_channel(std::make_unique<IidLossChannel>(0.3));
      }
      net.set_pool(std::make_unique<RecordingPool>(standing));
      for (const Coord c : net.torus().all_coords()) {
        if (c == sender) {
          net.set_behavior(c, std::make_unique<Recorder>(sent));
        } else {
          net.assign_to_pool(c);
        }
      }
      net.start();
      net.run_round();
      Run out;
      out.heard = static_cast<const RecordingPool*>(net.pool())->received;
      out.stats = net.stats();
      out.counters = net.counters();
      out.events = trace.events();
      return out;
    };
    const Run all = run(MessageClasses{});
    const Run masked =
        run(MessageClasses::heard_with(0) | MessageClasses::heard_from(2));
    std::vector<Message> expected;
    for (const Message& m : all.heard) {
      if (m.type == MsgType::kCommitted || m.relayers.size() == 1) {
        expected.push_back(m);
      }
    }
    ASSERT_LT(expected.size(), all.heard.size());
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(masked.heard, expected);
    EXPECT_EQ(masked.stats.transmissions, all.stats.transmissions);
    EXPECT_EQ(masked.counters, all.counters);
    EXPECT_EQ(masked.events, all.events);
    EXPECT_EQ(all.events.empty(), !lossy_traced);
  }
}

TEST(Network, RoundCounterAdvances) {
  auto net = make_net(6, 1);
  for (const Coord c : net.torus().all_coords()) {
    net.set_behavior(c, std::make_unique<Recorder>());
  }
  net.start();
  EXPECT_EQ(net.round(), 0);
  net.run_round();
  net.run_round();
  EXPECT_EQ(net.round(), 2);
}

TEST(Network, OnRoundEndCalledForEveryNode) {
  auto net = make_net(6, 1);
  for (const Coord c : net.torus().all_coords()) {
    net.set_behavior(c, std::make_unique<Recorder>());
  }
  net.start();
  net.run_round();
  net.run_round();
  for (const Coord c : net.torus().all_coords()) {
    EXPECT_EQ(dynamic_cast<const Recorder*>(net.behavior(c))->rounds_seen, 2);
  }
}

TEST(Network, RejectsRadiusBelowOne) {
  EXPECT_THROW(RadioNetwork(Torus(6, 6), 0, Metric::kLInf, 1),
               std::logic_error);
}

// ---------------------------------------------------------------------------
// Adjacency rows of any shape, through the delivery loop
// ---------------------------------------------------------------------------

TEST(Adjacency, IrregularRowsComeBackInOrder) {
  Rng rng(3);
  std::vector<std::vector<std::int32_t>> rows(40);
  std::size_t total = 0;
  for (std::vector<std::int32_t>& row : rows) {
    const std::uint64_t length = rng.below(9);  // some rows stay empty
    for (std::uint64_t k = 0; k < length; ++k) {
      row.push_back(static_cast<std::int32_t>(rng.below(40)));
    }
    total += row.size();
  }
  const Adjacency adjacency(rows);
  EXPECT_EQ(adjacency.degree(), -1);
  EXPECT_EQ(adjacency.node_count(), 40);
  EXPECT_EQ(adjacency.size(), total);
  for (std::int32_t v = 0; v < 40; ++v) {
    const auto got = adjacency.receivers(v);
    EXPECT_EQ(std::vector<std::int32_t>(got.begin(), got.end()),
              rows[static_cast<std::size_t>(v)])
        << "row " << v;
  }
  rows[5].push_back(40);
  EXPECT_THROW(Adjacency{rows}, std::invalid_argument);
  rows[5].back() = -1;
  EXPECT_THROW(Adjacency{rows}, std::invalid_argument);
}

TEST(Adjacency, TorusRowsAsListsMatchTorusBuild) {
  const Torus torus(9, 7);
  for (const Metric m : {Metric::kLInf, Metric::kL2}) {
    const Adjacency built(torus, NeighborhoodTable::get(2, m));
    std::vector<std::vector<std::int32_t>> rows;
    for (std::int32_t v = 0; v < torus.node_count(); ++v) {
      const auto row = built.receivers(v);
      rows.emplace_back(row.begin(), row.end());
    }
    const Adjacency from_rows(rows);
    EXPECT_EQ(from_rows.degree(), built.degree());
    EXPECT_EQ(from_rows.node_count(), built.node_count());
    EXPECT_EQ(from_rows.size(), built.size());
    for (std::int32_t v = 0; v < torus.node_count(); ++v) {
      EXPECT_TRUE(std::ranges::equal(from_rows.receivers(v),
                                     built.receivers(v)))
          << to_string(m) << " row " << v;
    }
  }
}

TEST(Adjacency, GraphRunDeliversEachTransmissionToEveryNeighbor) {
  // A random connected graph of irregular degree, flooded by CPA (t = 1)
  // with liars among the nodes: over a perfect channel each transmission
  // reaches every neighbor of its sender once.
  Rng rng(7);
  const std::int32_t n = 24;
  RadioGraph g(n);
  const auto node = [&](std::int32_t bound) {
    return static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(bound)));
  };
  for (NodeId v = 1; v < n; ++v) g.add_edge(v, node(v));
  for (std::int32_t e = 0; e < 2 * n; ++e) {
    const NodeId a = node(n);
    const NodeId b = node(n);
    if (a != b) g.add_edge(a, b);
  }
  const Adjacency adjacency(g.neighbor_lists());
  ASSERT_EQ(adjacency.degree(), -1);
  EXPECT_THROW(RadioNetwork(Torus(n + 1, 1), adjacency, 1),
               std::invalid_argument);

  RadioNetwork net(Torus(n, 1), adjacency, 1);
  net.set_pool(std::make_unique<CpaPool>(ProtocolParams{1, {0, 0}},
                                         net.torus()));
  net.set_behavior({0, 0}, std::make_unique<SourceBehavior>(1));
  for (NodeId v = 1; v < n; ++v) {
    if (v % 7 == 3) {
      net.set_behavior({v, 0}, std::make_unique<LyingBehavior>(0));
    } else {
      net.assign_to_pool({v, 0});
    }
  }
  net.start();
  net.run_until_quiescent(100);
  ASSERT_TRUE(net.quiescent());
  std::uint64_t expected = 0;
  for (NodeId v = 0; v < n; ++v) {
    expected += net.transmissions_of({v, 0}) * g.neighbors(v).size();
  }
  EXPECT_GT(net.counters().heard_queued, 0u);  // the liars' lies went out
  EXPECT_EQ(net.counters().envelopes_delivered, expected);
  EXPECT_EQ(net.counters().envelopes_dropped, 0u);
}

}  // namespace
}  // namespace rbcast
