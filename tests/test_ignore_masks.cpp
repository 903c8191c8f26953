// Inertness of every ignore declaration (NodeContext::ignore). A node may
// declare a message class only if its handler already drops every such
// delivery before touching state, because the simulator stops dispatching
// what a node declares. Each test drives its subject on a recording backend
// to the state where it declares, checks the declared classes, then hands it
// one message of every declared class anyway: nothing may be queued, no
// commit recorded, and the verdict and determinations must not move.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "radiobcast/core/simulation.h"
#include "radiobcast/protocols/byzantine.h"
#include "radiobcast/protocols/pool.h"
#include "radiobcast/protocols/source.h"

namespace rbcast {
namespace {

constexpr std::int32_t kR = 2;
const Torus kTorus(16, 16);
constexpr Coord kSource{4, 4};
constexpr Coord kSelf{5, 5};  // a direct neighbor of the source

/// Records everything one node asks of its backend.
class RecordingBackend final : public BroadcastBackend {
 public:
  const Torus& torus() const override { return kTorus; }
  std::int64_t round() const override { return now; }
  Rng& rng() override { return rng_; }
  void queue_broadcast(Coord, Message msg) override { queued.push_back(msg); }
  void queue_spoofed_broadcast(Coord, Coord, Message msg) override {
    queued.push_back(msg);
  }
  void record_commit(Coord, std::uint8_t) override { commits += 1; }
  void ignore(Coord node, MessageClasses classes) override {
    if (node != kSelf) throw std::logic_error("ignore for another node");
    ignored |= classes.bits();
  }

  std::int64_t now = 1;
  std::vector<Message> queued;
  int commits = 0;
  std::uint8_t ignored = 0;  // every declared class, as MessageClasses bits

 private:
  Rng rng_{1};
};

/// One delivery per message class, each one the subject would act on if it
/// listened: a fresh neighbor's COMMITTED, and HEARD chains about a fresh
/// origin two hops away that stay plausible and fit one neighborhood with
/// the origin, so an honest node would record or extend them.
std::vector<Envelope> one_of_each_class() {
  const Coord origin{7, 5};
  const Coord last{6, 4};  // the transmitter of every HEARD
  return {
      {{6, 6}, make_committed({6, 6}, 0)},
      {last, make_heard({}, origin, 0)},
      {last, make_heard({last}, origin, 0)},
      {last, make_heard({{7, 4}, last}, origin, 0)},
      {last, make_heard({{7, 6}, {7, 4}, last}, origin, 0)},
      {last, make_heard({{6, 6}, {7, 6}, {7, 4}, last}, origin, 0)},
  };
}

/// Determination probes over every origin one_of_each_class() mentions.
std::vector<bool> probe(const std::function<bool(Coord, std::uint8_t)>& det) {
  std::vector<bool> out;
  if (!det) return out;
  for (const Coord origin : {Coord{7, 5}, Coord{6, 6}, Coord{6, 4}}) {
    for (const std::uint8_t v : {0, 1}) out.push_back(det(origin, v));
  }
  return out;
}

/// The check every test ends with: `b` has declared exactly `expected`, and
/// one delivery of each declared class changes nothing.
void expect_inert(NodeBehavior& b, RecordingBackend& backend,
                  MessageClasses expected,
                  const std::function<bool(Coord, std::uint8_t)>& det = {}) {
  ASSERT_EQ(backend.ignored, expected.bits());
  const std::size_t queued = backend.queued.size();
  const int commits = backend.commits;
  const auto value = b.committed_value();
  const auto round = b.commit_round();
  const std::vector<bool> determined = probe(det);
  backend.now += 1;
  NodeContext ctx(backend, kSelf);
  int delivered = 0;
  for (const Envelope& env : one_of_each_class()) {
    if ((MessageClasses::of(env.msg).bits() & expected.bits()) == 0) continue;
    b.on_receive(ctx, env);
    ++delivered;
  }
  EXPECT_GT(delivered, 0);
  EXPECT_EQ(backend.queued.size(), queued);
  EXPECT_EQ(backend.commits, commits);
  EXPECT_EQ(b.committed_value(), value);
  EXPECT_EQ(b.commit_round(), round);
  EXPECT_EQ(probe(det), determined);
}

/// Commits `b` through the source's own COMMITTED, as a source neighbor does.
void commit_via_source(NodeBehavior& b, RecordingBackend& backend) {
  NodeContext ctx(backend, kSelf);
  b.on_receive(ctx, {kSource, make_committed(kSource, 1)});
  ASSERT_EQ(b.committed_value(), std::optional<std::uint8_t>(1));
}

SimConfig config(ProtocolKind protocol) {
  SimConfig cfg;
  cfg.width = kTorus.width();
  cfg.height = kTorus.height();
  cfg.r = kR;
  cfg.t = 1;
  cfg.source = kSource;
  cfg.protocol = protocol;
  return cfg;
}

TEST(IgnoreMask, ClassesPartitionMessages) {
  const std::vector<Envelope> all = one_of_each_class();
  std::uint8_t seen = 0;
  for (const Envelope& env : all) {
    const std::uint8_t bit = MessageClasses::of(env.msg).bits();
    EXPECT_EQ(bit & (bit - 1), 0) << "one class per message";
    EXPECT_EQ(seen & bit, 0) << "distinct classes";
    seen |= bit;
  }
  EXPECT_EQ(seen, MessageClasses::all().bits());
  EXPECT_EQ(MessageClasses::heard_from(0).bits(),
            MessageClasses::all().bits() &
                ~MessageClasses::of(all[0].msg).bits());
  EXPECT_EQ(MessageClasses::heard_from(3).bits(),
            MessageClasses::of(all[4].msg).bits() |
                MessageClasses::of(all[5].msg).bits());
  for (std::size_t k = 0; k < all.size() - 1; ++k) {
    EXPECT_EQ(MessageClasses::heard_with(k).bits(),
              MessageClasses::of(all[k + 1].msg).bits());
  }
  EXPECT_EQ((MessageClasses::heard_with(0) | MessageClasses::heard_from(2) |
             MessageClasses::heard_with(1))
                .bits(),
            MessageClasses::heard_from(0).bits());
}

/// Starts `b`, a fresh one-slot view of `pool`: it must declare exactly the
/// pool's standing classes, which must be `expected`, and queue nothing.
void start_slot(NodeBehavior& b, const NodePool& pool,
                RecordingBackend& backend, MessageClasses expected) {
  EXPECT_EQ(pool.ignored().bits(), expected.bits());
  NodeContext ctx(backend, kSelf);
  b.on_start(ctx);
  EXPECT_EQ(backend.ignored, pool.ignored().bits());
  EXPECT_TRUE(backend.queued.empty());
}

TEST(IgnoreMask, CrashFloodPoolIgnoresHeardsFromStart) {
  RecordingBackend backend;
  auto pool = std::make_unique<CrashFloodPool>(ProtocolParams{1, kSource},
                                               kTorus, 1);
  const NodePool& standing = *pool;
  PoolSlotBehavior b(std::move(pool));
  start_slot(b, standing, backend, MessageClasses::heard_from(0));
  expect_inert(b, backend, MessageClasses::heard_from(0));
}

TEST(IgnoreMask, CpaPoolIgnoresHeardsFromStart) {
  RecordingBackend backend;
  auto pool =
      std::make_unique<CpaPool>(ProtocolParams{1, kSource}, kTorus, 1);
  const NodePool& standing = *pool;
  PoolSlotBehavior b(std::move(pool));
  start_slot(b, standing, backend, MessageClasses::heard_from(0));
  expect_inert(b, backend, MessageClasses::heard_from(0));
}

TEST(IgnoreMask, BvTwoHopPoolIgnoresAllButOneRelayerHeardsFromStart) {
  RecordingBackend backend;
  auto pool = std::make_unique<BvTwoHopPool>(ProtocolParams{1, kSource},
                                             kTorus, kR, Metric::kLInf, 1);
  const BvTwoHopPool* state = pool.get();
  PoolSlotBehavior b(std::move(pool));
  const MessageClasses expected =
      MessageClasses::heard_with(0) | MessageClasses::heard_from(2);
  start_slot(b, *state, backend, expected);
  expect_inert(b, backend, expected, [&](Coord o, std::uint8_t v) {
    return state->has_determined(0, o, v);
  });
}

TEST(IgnoreMask, BvIndirectPoolDeclaresNothingAtStart) {
  // The handler drops HEARDs with no relayer or four unread, but no node
  // sends those, so bv-4hop declares nothing.
  for (const RelayMode mode : {RelayMode::kFlood, RelayMode::kEarmarked}) {
    RecordingBackend backend;
    auto pool = std::make_unique<BvIndirectPool>(
        ProtocolParams{1, kSource}, kTorus, kR, Metric::kLInf, mode, 1);
    const NodePool& standing = *pool;
    PoolSlotBehavior b(std::move(pool));
    start_slot(b, standing, backend, MessageClasses{});
  }
}

TEST(IgnoreMask, CrashFloodPoolIgnoresAllOnCommit) {
  RecordingBackend backend;
  auto b = make_node_behavior(config(ProtocolKind::kCrashFlood), kTorus,
                              NodeRole::kHonest);
  EXPECT_EQ(backend.ignored, 0);
  commit_via_source(*b, backend);
  expect_inert(*b, backend, MessageClasses::all());
}

TEST(IgnoreMask, CpaPoolIgnoresAllOnCommit) {
  RecordingBackend backend;
  auto b = make_node_behavior(config(ProtocolKind::kCpa), kTorus,
                              NodeRole::kHonest);
  commit_via_source(*b, backend);
  expect_inert(*b, backend, MessageClasses::all());
}

TEST(IgnoreMask, BvTwoHopPoolIgnoresHeardsOnCommit) {
  RecordingBackend backend;
  auto pool = std::make_unique<BvTwoHopPool>(ProtocolParams{1, kSource},
                                             kTorus, kR, Metric::kLInf, 1);
  const BvTwoHopPool* state = pool.get();
  PoolSlotBehavior b(std::move(pool));
  commit_via_source(b, backend);
  expect_inert(b, backend, MessageClasses::heard_from(0),
               [&](Coord o, std::uint8_t v) {
                 return state->has_determined(0, o, v);
               });
}

void expect_bv_indirect_inert(RelayMode mode) {
  RecordingBackend backend;
  auto pool = std::make_unique<BvIndirectPool>(
      ProtocolParams{1, kSource}, kTorus, kR, Metric::kLInf, mode, 1);
  const BvIndirectPool* state = pool.get();
  PoolSlotBehavior b(std::move(pool));
  commit_via_source(b, backend);
  expect_inert(b, backend, MessageClasses::heard_from(3),
               [&](Coord o, std::uint8_t v) {
                 return state->has_determined(0, o, v);
               });
}

TEST(IgnoreMask, BvIndirectFloodIgnoresFullChainsOnCommit) {
  expect_bv_indirect_inert(RelayMode::kFlood);
}

TEST(IgnoreMask, BvIndirectEarmarkedIgnoresFullChainsOnCommit) {
  expect_bv_indirect_inert(RelayMode::kEarmarked);
}

TEST(IgnoreMask, TrackAfterCommitKeepsEveryHeard) {
  // Tracking nodes keep recording evidence after committing, so they must
  // keep hearing every HEARD.
  ProtocolParams params{1, kSource};
  params.track_after_commit = true;
  RecordingBackend two_hop_backend;
  PoolSlotBehavior two_hop(std::make_unique<BvTwoHopPool>(
      params, kTorus, kR, Metric::kLInf, 1));
  commit_via_source(two_hop, two_hop_backend);
  EXPECT_EQ(two_hop_backend.ignored, 0);
  RecordingBackend indirect_backend;
  PoolSlotBehavior indirect(std::make_unique<BvIndirectPool>(
      params, kTorus, kR, Metric::kLInf, RelayMode::kFlood, 1));
  commit_via_source(indirect, indirect_backend);
  EXPECT_EQ(indirect_backend.ignored, 0);
}

TEST(IgnoreMask, SourceIgnoresAllAtStart) {
  RecordingBackend backend;
  SourceBehavior b(1);
  NodeContext ctx(backend, kSelf);
  b.on_start(ctx);
  expect_inert(b, backend, MessageClasses::all());
}

TEST(IgnoreMask, SilentIgnoresAllAtStart) {
  RecordingBackend backend;
  SilentBehavior b;
  NodeContext ctx(backend, kSelf);
  b.on_start(ctx);
  expect_inert(b, backend, MessageClasses::all());
}

TEST(IgnoreMask, SpoofingIgnoresAllAtStart) {
  RecordingBackend backend;
  SpoofingBehavior b(0, kR, Metric::kLInf);
  NodeContext ctx(backend, kSelf);
  b.on_start(ctx);
  expect_inert(b, backend, MessageClasses::all());
}

TEST(IgnoreMask, LyingIgnoresFullChainsAtStart) {
  RecordingBackend backend;
  LyingBehavior b(0);
  NodeContext ctx(backend, kSelf);
  b.on_start(ctx);
  expect_inert(b, backend, MessageClasses::heard_from(3));
}

TEST(IgnoreMask, LyingDeclaresWhatTheAttackedProtocolLeavesUnread) {
  // The liar make_node_behavior builds declares every class whose lie the
  // protocol's honest nodes drop unread, plus the full chains. Handed one
  // message of every class anyway, as the runtime hands them, it queues
  // nothing for a declared class and exactly the reference liar's lie for
  // every other.
  struct Row {
    ProtocolKind protocol;
    MessageClasses declared;
  };
  const Row rows[] = {
      {ProtocolKind::kCrashFlood, MessageClasses::all()},
      {ProtocolKind::kCpa, MessageClasses::all()},
      {ProtocolKind::kBvTwoHop, MessageClasses::heard_from(1)},
      {ProtocolKind::kBvIndirectFlood, MessageClasses::heard_from(3)},
      {ProtocolKind::kBvIndirectEarmarked, MessageClasses::heard_from(3)},
  };
  for (const Row& row : rows) {
    SimConfig cfg = config(row.protocol);
    cfg.adversary = AdversaryKind::kLying;
    RecordingBackend backend;
    auto liar = make_node_behavior(cfg, kTorus, NodeRole::kFaulty);
    NodeContext ctx(backend, kSelf);
    liar->on_start(ctx);
    ASSERT_EQ(backend.queued.size(), 1u) << to_string(row.protocol);
    const auto wrong = static_cast<std::uint8_t>(1 - cfg.value);
    EXPECT_EQ(backend.queued[0], make_committed(kSelf, wrong))
        << to_string(row.protocol);
    expect_inert(*liar, backend, row.declared);
    for (const Envelope& env : one_of_each_class()) {
      if ((MessageClasses::of(env.msg).bits() & row.declared.bits()) != 0) {
        continue;
      }
      RecordingBackend reference_backend;
      NodeContext reference_ctx(reference_backend, kSelf);
      LyingBehavior reference(wrong);
      reference.on_receive(reference_ctx, env);
      ASSERT_EQ(reference_backend.queued.size(), 1u);
      const std::size_t before = backend.queued.size();
      liar->on_receive(ctx, env);
      ASSERT_EQ(backend.queued.size(), before + 1)
          << to_string(row.protocol) << ": " << to_string(env.msg);
      EXPECT_EQ(backend.queued.back(), reference_backend.queued[0])
          << to_string(row.protocol) << ": " << to_string(env.msg);
    }
  }
}

}  // namespace
}  // namespace rbcast
