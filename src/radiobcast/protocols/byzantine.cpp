#include "radiobcast/protocols/byzantine.h"

#include "radiobcast/grid/neighborhood.h"

#include <algorithm>

namespace rbcast {

std::uint64_t FlatKeyTraits<LieKey>::fold(const LieKey& key) {
  auto pack = [](Coord c) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.x))
            << 32) |
           static_cast<std::uint32_t>(c.y);
  };
  std::uint64_t h = pack(key.origin) ^ key.depth;
  for (const Coord c : key.relayers) h = det_mix64(h) ^ pack(c);
  return h;
}

namespace {

/// Chains with this many relayers are full (the protocol's three); a liar
/// extends only shorter ones.
constexpr std::size_t kMaxRelayers = 3;

}  // namespace

void LyingBehavior::on_start(NodeContext& ctx) {
  ctx.broadcast(make_committed(ctx.self(), wrong_value_));
  ctx.ignore(MessageClasses::heard_from(kMaxRelayers));  // see the depth cap
}

void LyingBehavior::on_receive(NodeContext& ctx, const Envelope& env) {
  // A COMMITTED yields the claim that its sender committed the wrong value;
  // a HEARD yields the report relayed with its value flipped. The key comes
  // straight from the envelope, and the lie is built only when the key is
  // new: most deliveries repeat a lie this liar already sent.
  LieKey key;
  if (env.msg.type == MsgType::kCommitted) {
    key.origin = env.sender;
  } else {
    // The depth cap keeps the volume finite.
    if (env.msg.relayers.size() >= kMaxRelayers) return;
    key.origin = env.msg.origin;
    key.depth = static_cast<std::uint8_t>(env.msg.relayers.size());
    std::copy(env.msg.relayers.begin(), env.msg.relayers.end(),
              key.relayers.begin());
  }
  if (!sent_.insert(key)) return;
  RelayerChain chain;
  for (std::uint8_t i = 0; i < key.depth; ++i) chain.push_back(key.relayers[i]);
  chain.push_back(ctx.self());
  ctx.broadcast(make_heard(chain, key.origin, wrong_value_));
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
