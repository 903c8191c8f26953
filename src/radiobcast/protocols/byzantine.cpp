#include "radiobcast/protocols/byzantine.h"

#include <stdexcept>
#include <string>

#include "radiobcast/grid/neighborhood.h"

namespace rbcast {

namespace {

/// Chains with this many relayers are full (the protocol's three); a liar
/// extends only shorter ones.
constexpr std::size_t kMaxRelayers = 3;

/// Width of each node index in a lie key: three fit in 63 bits, so no key
/// is PackedKeySet's empty sentinel.
constexpr int kLieIndexBits = 21;

/// The delivery classes whose lie falls in `unread`, plus the full chains,
/// which the depth cap leaves unanswered (it keeps the volume finite).
MessageClasses unanswered(MessageClasses unread) {
  const auto is_unread = [&](MessageClasses lie) {
    return (unread.bits() & lie.bits()) != 0;
  };
  MessageClasses out = MessageClasses::heard_from(kMaxRelayers);
  if (is_unread(MessageClasses::heard_with(1))) {
    out = out | MessageClasses::committed();
  }
  for (std::size_t k = 0; k < kMaxRelayers; ++k) {
    if (is_unread(MessageClasses::heard_with(k + 1))) {
      out = out | MessageClasses::heard_with(k);
    }
  }
  return out;
}

}  // namespace

LyingBehavior::LyingBehavior(std::uint8_t wrong_value, MessageClasses unread)
    : wrong_value_(wrong_value), unanswered_(unanswered(unread)) {}

void LyingBehavior::on_start(NodeContext& ctx) {
  const std::int64_t nodes = ctx.torus().node_count();
  if (nodes >= (std::int64_t{1} << kLieIndexBits)) {
    throw std::invalid_argument("lying adversary: torus of " +
                                std::to_string(nodes) +
                                " nodes; supported: under 2^21 nodes");
  }
  ctx.broadcast(make_committed(ctx.self(), wrong_value_));
  ctx.ignore(unanswered_);
}

void LyingBehavior::on_receive(NodeContext& ctx, const Envelope& env) {
  // A COMMITTED yields the claim that its sender committed the wrong value;
  // a HEARD yields the report relayed with its value flipped: either way
  // HEARD(relayers + [self], origin, wrong value), with no relayers for a
  // COMMITTED. The key comes straight from the envelope, and the lie is
  // built only when the key is new.
  if ((MessageClasses::of(env.msg).bits() & unanswered_.bits()) != 0) return;
  const bool committed = env.msg.type == MsgType::kCommitted;
  const Coord origin = committed ? env.sender : env.msg.origin;
  RelayerChain chain;
  if (!committed) chain = env.msg.relayers;
  const Torus& torus = ctx.torus();
  std::uint64_t key = static_cast<std::uint32_t>(torus.index(origin));
  int shift = kLieIndexBits;
  for (const Coord c : chain) {
    key |= static_cast<std::uint64_t>(torus.index(c) + 1) << shift;
    shift += kLieIndexBits;
  }
  if (!sent_.insert(key)) return;
  chain.push_back(ctx.self());
  ctx.broadcast(make_heard(chain, origin, wrong_value_));
}

void SpoofingBehavior::on_start(NodeContext& ctx) {
  ctx.ignore(MessageClasses::all());  // all its lies go out at start
  ctx.broadcast(make_committed(ctx.self(), wrong_value_));
  // Immediately impersonate every neighbor, claiming each committed to the
  // wrong value. The forged claims land before the honest wave arrives and,
  // absent authentication, are indistinguishable from genuine COMMITTED
  // broadcasts — the first-value rule then locks the lies in.
  const auto& table = NeighborhoodTable::get(r_, m_);
  for (const Offset o : table.offsets()) {
    const Coord victim = ctx.torus().wrap(ctx.self() + o);
    ctx.broadcast_as(victim, make_committed(victim, wrong_value_));
  }
}

void SpoofingBehavior::on_receive(NodeContext&, const Envelope&) {}

bool CrashAtRoundBehavior::alive(const NodeContext& ctx) const {
  return ctx.round() < crash_round_;
}

void CrashAtRoundBehavior::on_start(NodeContext& ctx) {
  if (crash_round_ > 0) inner_->on_start(ctx);
}

void CrashAtRoundBehavior::on_receive(NodeContext& ctx, const Envelope& env) {
  if (alive(ctx)) inner_->on_receive(ctx, env);
}

void CrashAtRoundBehavior::on_round_end(NodeContext& ctx) {
  if (alive(ctx)) inner_->on_round_end(ctx);
}

}  // namespace rbcast
