#include "radiobcast/protocols/pool.h"

#include <stdexcept>
#include <string>

namespace rbcast {

// ---------------------------------------------------------------------------
// CrashFloodPool

void CrashFloodPool::on_receive(NodeContext& ctx, std::int32_t node,
                                const Envelope& env) {
  if (state_.committed(node)) return;  // terminated
  if (env.msg.type != MsgType::kCommitted) return;
  state_.set(node, env.msg.value, ctx.round());
  ctx.note_commit(env.msg.value);
  ctx.broadcast(make_committed(ctx.self(), env.msg.value));
  ctx.ignore(MessageClasses::all());  // terminated: the first check drops all
}

// ---------------------------------------------------------------------------
// CpaPool

void CpaPool::commit(NodeContext& ctx, std::int32_t node, std::uint8_t value) {
  state_.set(node, value, ctx.round());
  ctx.note_commit(value);
  ctx.broadcast(make_committed(ctx.self(), value));
  ctx.ignore(MessageClasses::all());  // terminated: the first check drops all
}

void CpaPool::on_receive(NodeContext& ctx, std::int32_t node,
                         const Envelope& env) {
  if (state_.committed(node)) return;  // terminated
  if (env.msg.type != MsgType::kCommitted) return;
  // A COMMITTED's origin must be its transmitter; anything else is a faulty
  // fabrication and is discarded (no spoofing, Section II).
  if (ctx.torus().wrap(env.msg.origin) != env.sender) return;

  if (env.sender == source_) {
    commit(ctx, node, env.msg.value);  // direct neighbors trust the source
    return;
  }
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)) << 32) |
      static_cast<std::uint32_t>(ctx.torus().index(env.sender));
  if (!first_claim_.insert(key)) return;  // first claim per neighbor only
  std::int32_t& tally =
      claims_[static_cast<std::size_t>(node) * 2 + (env.msg.value & 1)];
  tally += 1;
  if (tally >= t_ + 1) commit(ctx, node, env.msg.value);
}

// ---------------------------------------------------------------------------
// BvTwoHopPool, with the NeighborhoodCommitCounter rule (protocols/common.cpp)
// inlined.

namespace {

const Torus& checked_two_hop_torus(const Torus& torus, std::int32_t r,
                                   Metric m) {
  if (!BvTwoHopPool::supported(torus, r, m)) {
    throw std::invalid_argument(
        "bv-2hop: unsupported geometry (radius " + std::to_string(r) + " " +
        to_string(m) + ", torus " + std::to_string(torus.width()) + "x" +
        std::to_string(torus.height()) +
        "); supported: L-inf r <= 7 or L2 r <= 9, sides over 2r, under 2^21 "
        "nodes");
  }
  return torus;
}

}  // namespace

BvTwoHopPool::BvTwoHopPool(const ProtocolParams& params, const Torus& torus,
                           std::int32_t r, Metric m, std::int64_t slots)
    : t_(params.t),
      track_after_commit_(params.track_after_commit),
      source_(torus.wrap(params.source)),
      r_(r),
      m_(m),
      torus_(checked_two_hop_torus(torus, r, m)),
      table_(NeighborhoodTable::get(r, m)),
      center_table_(CenterTable::get(r, m, torus.width(), torus.height())),
      state_(slots) {}

void BvTwoHopPool::commit(NodeContext& ctx, std::int32_t node,
                          std::uint8_t value) {
  if (state_.committed(node)) return;
  state_.set(node, value, ctx.round());
  ctx.note_commit(value);
  ctx.broadcast(make_committed(ctx.self(), value));
  // handle_heard drops every HEARD from now on; COMMITTEDs still carry the
  // relay duty.
  if (!track_after_commit_) ctx.ignore(MessageClasses::heard_from(0));
}

void BvTwoHopPool::determine(NodeContext& ctx, std::int32_t node, Coord origin,
                             const std::uint8_t value) {
  // NeighborhoodCommitCounter::record, SoA form: idempotence via the packed
  // determined set, then one count bump per candidate center in offset-table
  // order, firing at t+1 (same first-firing semantics — the fired value does
  // not depend on which center fires).
  const Torus& torus = ctx.torus();
  const Coord o = torus.wrap(origin);
  if (!determined_.insert(nov_key(node, torus.index(o), value))) return;
  std::optional<std::uint8_t> fired;
  for (const Offset off : table_.offsets()) {
    const Coord c = torus.wrap(o + off);
    std::uint32_t& count = center_counts_.slot(nov_key(node, torus.index(c),
                                                       value));
    count += 1;
    if (count >= static_cast<std::uint32_t>(t_ + 1) && !fired) fired = value;
  }
  if (fired) commit(ctx, node, *fired);
}

void BvTwoHopPool::on_receive(NodeContext& ctx, std::int32_t node,
                              const Envelope& env) {
  switch (env.msg.type) {
    case MsgType::kCommitted:
      handle_committed(ctx, node, env);
      break;
    case MsgType::kHeard:
      handle_heard(ctx, node, env);
      break;
  }
}

void BvTwoHopPool::handle_committed(NodeContext& ctx, std::int32_t node,
                                    const Envelope& env) {
  const Torus& torus = ctx.torus();
  // A COMMITTED's origin must be the transmitter itself.
  if (torus.wrap(env.msg.origin) != env.sender) return;
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)) << 32) |
      static_cast<std::uint32_t>(torus.index(env.sender));
  if (!first_committed_.insert(key)) return;  // no-duplicity
  const std::uint8_t v = env.msg.value;

  // Relay duty: immediate neighbors of a committer report the commit once.
  ctx.broadcast(make_heard({ctx.self()}, env.sender, v));

  // Direct reliable determination; neighbors of the source commit instantly.
  if (env.sender == source_) commit(ctx, node, v);
  // Post-commit, further determinations are dead state (unless tracked).
  if (!state_.committed(node) || track_after_commit_) {
    determine(ctx, node, env.sender, v);
  }
}

void BvTwoHopPool::handle_heard(NodeContext& ctx, std::int32_t node,
                                const Envelope& env) {
  // The two-hop protocol has no relay duty for HEARD messages, and evidence
  // only feeds our own commit decision: once committed, skip everything
  // (unless full tracking is requested).
  if (state_.committed(node) && !track_after_commit_) return;
  const Torus& torus = ctx.torus();
  const Message& msg = env.msg;
  // Two-hop protocol: exactly one relayer, and it must be the transmitter.
  if (msg.relayers.size() != 1) return;
  const Coord reporter = env.sender;
  if (torus.wrap(msg.relayers[0]) != reporter) return;
  const Coord origin = torus.wrap(msg.origin);
  // The reporter must plausibly have heard the committer directly.
  if (origin == reporter || !torus.within(origin, reporter, r_, m_)) return;
  if (origin == ctx.self()) return;  // reports about myself carry no news
  const std::int32_t reporter_idx = torus.index(reporter);
  const std::int32_t origin_idx = torus.index(origin);
  // First HEARD per (reporter, origin) only.
  const std::uint64_t consumed_key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)) << 42) |
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(reporter_idx))
       << 21) |
      static_cast<std::uint32_t>(origin_idx);
  if (!heard_consumed_.insert(consumed_key)) return;
  const std::uint8_t v = msg.value & 1;
  if (determined_.contains(nov_key(node, origin_idx, v))) return;

  // Count this reporter toward every candidate center c whose neighborhood
  // contains both the committer and the reporter (c itself excluded from
  // nbd(c)). t+1 distinct reporters under one center are t+1 node-disjoint
  // evidence chains confined to that neighborhood. The centers containing
  // the reporter's delta d are precomputed (the table bakes in this torus's
  // fold), so this walks one bitset; the counts block is arena-allocated.
  std::uint32_t& block = reporter_blocks_.slot(nov_key(node, origin_idx, v));
  if (block == 0) {
    block = static_cast<std::uint32_t>(++arena_blocks_);
    reporter_arena_.resize(arena_blocks_ * static_cast<std::size_t>(
                                               table_.size()),
                           0);
  }
  std::int32_t* counts =
      reporter_arena_.data() +
      (static_cast<std::size_t>(block) - 1) *
          static_cast<std::size_t>(table_.size());
  const Offset d = torus.delta(origin, reporter);
  const std::int64_t threshold = t_ + 1;
  bool determined = false;
  center_table_.containing(d).for_each([&](int k) {
    std::int32_t& count = counts[k];
    count += 1;
    if (count >= threshold) determined = true;
  });
  if (determined) determine(ctx, node, origin, v);
}

std::uint64_t BvTwoHopPool::state_bytes() const {
  return state_.bytes() + first_committed_.bytes() + heard_consumed_.bytes() +
         determined_.bytes() + center_counts_.bytes() +
         reporter_blocks_.bytes() +
         reporter_arena_.size() * sizeof(std::int32_t);
}

}  // namespace rbcast
