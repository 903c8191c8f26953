#include "radiobcast/protocols/byzantine.h"

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "radiobcast/core/analysis.h"
#include "radiobcast/core/experiment.h"
#include "radiobcast/core/simulation.h"
#include "radiobcast/fault/fault_set.h"

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

/// What one honest node's handler was handed: the number of deliveries and
/// a digest of their (round, sender, message) sequence.
struct DeliveryLog {
  std::uint64_t count = 0;
  std::uint64_t digest = 0;

  void add(std::int64_t round, const Envelope& env) {
    fold(static_cast<std::uint64_t>(round));
    fold(pack(env.sender));
    fold(static_cast<std::uint64_t>(env.msg.type) << 8 | env.msg.value);
    fold(pack(env.msg.origin));
    fold(env.msg.relayers.size());
    for (const Coord c : env.msg.relayers) fold(pack(c));
    ++count;
  }

  friend bool operator==(const DeliveryLog&, const DeliveryLog&) = default;

 private:
  static std::uint64_t pack(Coord c) {
    return static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.x)) << 32 |
           static_cast<std::uint32_t>(c.y);
  }
  void fold(std::uint64_t v) {
    std::uint64_t x = digest ^ v;
    digest = splitmix64(x);
  }
};

/// Forwards every call to an honest node and logs each delivery it is
/// handed. The node's own ignore declarations still reach the network, so
/// the log holds exactly what the honest handler sees.
class DeliveryRecorder final : public NodeBehavior {
 public:
  DeliveryRecorder(std::unique_ptr<NodeBehavior> inner, DeliveryLog& log)
      : inner_(std::move(inner)), log_(log) {}

  void on_start(NodeContext& ctx) override { inner_->on_start(ctx); }
  void on_receive(NodeContext& ctx, const Envelope& env) override {
    log_.add(ctx.round(), env);
    inner_->on_receive(ctx, env);
  }
  void on_round_end(NodeContext& ctx) override { inner_->on_round_end(ctx); }
  std::optional<std::uint8_t> committed_value() const override {
    return inner_->committed_value();
  }
  std::optional<std::int64_t> commit_round() const override {
    return inner_->commit_round();
  }

 private:
  std::unique_ptr<NodeBehavior> inner_;
  DeliveryLog& log_;
};

/// One perfect-channel trial on a per-node network whose honest nodes are
/// recorded: per node, its delivery log, committed value and commit round.
struct RecordedTrial {
  std::vector<DeliveryLog> logs;
  std::vector<std::optional<std::uint8_t>> values;
  std::vector<std::optional<std::int64_t>> commit_rounds;
  Counters counters;
};

/// Runs `cfg` (adversary kLying) with the liars `make_liar` builds.
template <typename MakeLiar>
RecordedTrial run_recorded(const SimConfig& cfg, const FaultSet& faults,
                           MakeLiar make_liar) {
  const Torus torus(cfg.width, cfg.height);
  const Coord source = torus.wrap(cfg.source);
  RadioNetwork net(torus, cfg.r, cfg.metric, cfg.seed);
  RecordedTrial out;
  const auto nodes = static_cast<std::size_t>(torus.node_count());
  out.logs.resize(nodes);
  for (const Coord c : torus.all_coords()) {
    if (c == source) {
      net.set_behavior(c, make_node_behavior(cfg, torus, NodeRole::kSource));
    } else if (faults.contains(c)) {
      net.set_behavior(c, make_liar(torus));
    } else {
      net.set_behavior(
          c, std::make_unique<DeliveryRecorder>(
                 make_node_behavior(cfg, torus, NodeRole::kHonest),
                 out.logs[static_cast<std::size_t>(torus.index(c))]));
    }
  }
  net.start();
  net.run_until_quiescent(default_round_bound(cfg));
  for (const Coord c : torus.all_coords()) {
    out.values.push_back(net.committed_value_of(c));
    out.commit_rounds.push_back(net.commit_round_of(c));
  }
  out.counters = net.counters();
  return out;
}

TEST(Lying, HonestNodesSeeTheSameDeliveries) {
  // The liar make_node_behavior builds skips only lies the attacked
  // protocol's honest nodes drop unread, so each honest handler must be
  // handed the same deliveries, in the same rounds and order, as against
  // the liar that forges every lie (the reference), and reach the same
  // verdict in the same round.
  int cases = 0;
  for (const ProtocolKind protocol :
       {ProtocolKind::kCrashFlood, ProtocolKind::kCpa, ProtocolKind::kBvTwoHop,
        ProtocolKind::kBvIndirectFlood, ProtocolKind::kBvIndirectEarmarked}) {
    for (const std::int32_t r : {1, 2}) {
      const std::int64_t max_t = protocol == ProtocolKind::kCrashFlood
                                     ? crash_linf_achievable_max(r)
                                     : byz_linf_achievable_max(r);
      for (const std::int64_t t : {std::int64_t{1}, max_t}) {
        for (const PlacementKind placement :
             {PlacementKind::kRandomBounded,
              PlacementKind::kCheckerboardStrip}) {
          SimConfig cfg;
          cfg.width = cfg.height = 12;
          cfg.r = r;
          cfg.t = t;
          cfg.protocol = protocol;
          cfg.adversary = AdversaryKind::kLying;
          cfg.seed = static_cast<std::uint64_t>(100 + cases);
          const Torus torus(cfg.width, cfg.height);
          PlacementConfig pc;
          pc.kind = placement;
          Rng rng(cfg.seed);
          const FaultSet faults =
              make_faults(pc, torus, r, cfg.metric, t, cfg.source, rng);
          const std::string tag =
              std::string(to_string(protocol)) + " r=" + std::to_string(r) +
              " t=" + std::to_string(t) + " " + to_string(placement);
          ASSERT_FALSE(faults.empty()) << tag;
          const auto wrong = static_cast<std::uint8_t>(1 - cfg.value);
          const RecordedTrial reference =
              run_recorded(cfg, faults, [&](const Torus&) {
                return std::make_unique<LyingBehavior>(wrong);
              });
          const RecordedTrial built =
              run_recorded(cfg, faults, [&](const Torus& tor) {
                return make_node_behavior(cfg, tor, NodeRole::kFaulty);
              });
          int differing = 0;  // honest nodes with any difference
          std::string first;
          for (const Coord c : torus.all_coords()) {
            if (faults.contains(c)) continue;
            const auto i = static_cast<std::size_t>(torus.index(c));
            if (built.logs[i] == reference.logs[i] &&
                built.values[i] == reference.values[i] &&
                built.commit_rounds[i] == reference.commit_rounds[i]) {
              continue;
            }
            if (differing++ == 0) {
              first = to_string(c) + " (" +
                      std::to_string(built.logs[i].count) + " vs " +
                      std::to_string(reference.logs[i].count) +
                      " deliveries)";
            }
          }
          EXPECT_EQ(differing, 0) << tag << ", first at node " << first;
          if (protocol == ProtocolKind::kBvIndirectFlood ||
              protocol == ProtocolKind::kBvIndirectEarmarked) {
            // bv-4hop reads every lie: the liar is unchanged.
            EXPECT_EQ(built.counters, reference.counters) << tag;
          }
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 40);
}

TEST(Lying, L2CpaDiagonalBandsCostOneTransmissionPerNode) {
  // Two bands of three diagonals on a 60x60 torus at r = 5 (L2): 360 liars,
  // t = 23. CPA drops every HEARD, so its liars send only their wrong
  // COMMITTED; forging HEARD chains against it took millions of
  // transmissions for the same verdict.
  SimConfig cfg;
  cfg.width = cfg.height = 60;
  cfg.r = 5;
  cfg.metric = Metric::kL2;
  cfg.protocol = ProtocolKind::kCpa;
  cfg.adversary = AdversaryKind::kLying;
  const Torus torus(cfg.width, cfg.height);
  FaultSet faults;
  for (const Coord c : torus.all_coords()) {
    const std::int32_t diagonal = ((c.x - c.y) % 60 + 60) % 60;
    if ((diagonal >= 15 && diagonal < 18) || (diagonal >= 45 && diagonal < 48)) {
      faults.add(torus, c);
    }
  }
  ASSERT_EQ(faults.size(), 360u);
  cfg.t = max_closed_nbd_faults(torus, faults, cfg.r, cfg.metric);
  EXPECT_EQ(cfg.t, 23);
  const SimResult result = run_simulation(cfg, faults);
  EXPECT_EQ(result.wrong_commits, 0);
  EXPECT_GT(result.correct_commits, 0);
  EXPECT_LE(result.transmissions,
            static_cast<std::uint64_t>(torus.node_count()));
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
