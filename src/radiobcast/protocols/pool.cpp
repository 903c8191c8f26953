#include "radiobcast/protocols/pool.h"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>

#include "radiobcast/protocols/earmark.h"

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
// BvPool

namespace {

const Torus& checked_bv_torus(const char* name, const Torus& torus,
                              std::int32_t r, Metric m) {
  if (!BvPool::supported(torus, r, m)) {
    throw std::invalid_argument(
        std::string(name) + ": unsupported geometry (radius " +
        std::to_string(r) + " " + to_string(m) + ", torus " +
        std::to_string(torus.width()) + "x" + std::to_string(torus.height()) +
        "); supported: L-inf r <= 7 or L2 r <= 9, sides over 2r, under 2^21 "
        "nodes");
  }
  return torus;
}

}  // namespace

BvPool::BvPool(const char* name, const ProtocolParams& params,
               const Torus& torus, std::int32_t r, Metric m,
               std::int64_t slots, MessageClasses ignored_after_commit)
    : t_(params.t),
      r_(r),
      m_(m),
      torus_(checked_bv_torus(name, torus, r, m)),
      center_table_(CenterTable::get(r, m, torus.width(), torus.height())),
      track_after_commit_(params.track_after_commit),
      source_(torus.wrap(params.source)),
      ignored_after_commit_(ignored_after_commit),
      table_(NeighborhoodTable::get(r, m)),
      state_(slots) {}

void BvPool::commit(NodeContext& ctx, std::int32_t node, std::uint8_t value) {
  if (state_.committed(node)) return;
  state_.set(node, value, ctx.round());
  ctx.note_commit(value);
  ctx.broadcast(make_committed(ctx.self(), value));
  if (!track_after_commit_) ctx.ignore(ignored_after_commit_);
}

void BvPool::determine(NodeContext& ctx, std::int32_t node, Coord origin,
                       std::uint8_t value) {
  if (!recording(node)) return;
  const Coord o = torus_.wrap(origin);
  if (!determined_.insert(nov_key(node, torus_.index(o), value))) return;
  drop_evidence(node, o, value);
  // Bump the count of every center whose neighborhood holds the origin
  // (the nodes within r of it); the rule fires once any count reaches t+1.
  bool fired = false;
  for (const Offset off : table_.offsets()) {
    std::uint32_t& count =
        center_counts_.slot(nov_key(node, torus_.index(o + off), value));
    count += 1;
    if (count >= static_cast<std::uint32_t>(t_ + 1)) fired = true;
  }
  if (fired) commit(ctx, node, value);
}

void BvPool::handle_committed(NodeContext& ctx, std::int32_t node,
                              const Envelope& env) {
  // A COMMITTED's origin must be the transmitter itself.
  if (torus_.wrap(env.msg.origin) != env.sender) return;
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)) << 32) |
      static_cast<std::uint32_t>(torus_.index(env.sender));
  if (!first_committed_.insert(key)) return;  // no-duplicity
  const std::uint8_t v = env.msg.value;

  // First-hop relay duty: report the commit to our own neighborhood once.
  ctx.broadcast(make_heard({ctx.self()}, env.sender, v));

  // Direct reliable determination; neighbors of the source commit instantly.
  if (env.sender == source_) commit(ctx, node, v);
  determine(ctx, node, env.sender, v);
}

// ---------------------------------------------------------------------------
// BvTwoHopPool

void BvTwoHopPool::handle_heard(NodeContext& ctx, std::int32_t node,
                                const Envelope& env) {
  // Evidence only feeds our own commit decision, and the two-hop protocol
  // has no relay duty for HEARDs: once committed, skip everything (unless
  // full tracking is requested).
  if (!recording(node)) return;
  const Message& msg = env.msg;
  // Two-hop protocol: exactly one relayer, and it must be the transmitter.
  if (msg.relayers.size() != 1) return;
  const Coord reporter = env.sender;
  if (torus_.wrap(msg.relayers[0]) != reporter) return;
  const Coord origin = torus_.wrap(msg.origin);
  // The reporter must plausibly have heard the committer directly.
  if (origin == reporter || !torus_.within(origin, reporter, r_, m_)) return;
  if (origin == ctx.self()) return;  // reports about myself carry no news
  const std::int32_t reporter_idx = torus_.index(reporter);
  const std::int32_t origin_idx = torus_.index(origin);
  // First HEARD per (reporter, origin) only.
  const std::uint64_t consumed_key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)) << 42) |
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(reporter_idx))
       << 21) |
      static_cast<std::uint32_t>(origin_idx);
  if (!heard_consumed_.insert(consumed_key)) return;
  const std::uint8_t v = msg.value & 1;
  if (determined(node, origin_idx, v)) return;

  // Count this reporter toward every candidate center c whose neighborhood
  // contains both the committer and the reporter (c itself excluded from
  // nbd(c)). t+1 distinct reporters under one center are t+1 node-disjoint
  // evidence chains confined to that neighborhood. The centers containing
  // the reporter's delta d are precomputed (the table bakes in this torus's
  // fold), so this walks one bitset; the counts block is arena-allocated.
  const auto k = static_cast<std::size_t>(center_table_.num_centers());
  std::uint32_t& block = reporter_blocks_.slot(nov_key(node, origin_idx, v));
  if (block == 0) {
    block = static_cast<std::uint32_t>(++arena_blocks_);
    reporter_arena_.resize(arena_blocks_ * k, 0);
  }
  std::int32_t* counts =
      reporter_arena_.data() + (static_cast<std::size_t>(block) - 1) * k;
  const Offset d = torus_.delta(origin, reporter);
  const std::int64_t threshold = t_ + 1;
  bool determined = false;
  center_table_.containing(d).for_each([&](int c) {
    std::int32_t& count = counts[c];
    count += 1;
    if (count >= threshold) determined = true;
  });
  if (determined) determine(ctx, node, origin, v);
}

std::uint64_t BvTwoHopPool::state_bytes() const {
  return shared_state_bytes() + heard_consumed_.bytes() +
         reporter_blocks_.bytes() +
         reporter_arena_.size() * sizeof(std::int32_t);
}

// ---------------------------------------------------------------------------
// BvIndirectPool

namespace {

Metric checked_relay_metric(Metric m, RelayMode mode) {
  if (mode == RelayMode::kEarmarked && m != Metric::kLInf) {
    throw std::invalid_argument(
        "earmarked relays require the L-infinity metric");
  }
  return m;
}

/// Packed dedup key of a report: chain length plus 8-bit two's-complement
/// components of each origin-relative delta. Plausible chains keep every
/// component within 3r (each hop moves at most r), so the encoding is
/// injective for every supported radius (3r <= 27 < 128).
std::uint64_t pack_report_key(
    const std::array<Offset, RelayerChain::kCapacity>& rel, std::size_t n) {
  std::uint64_t key = n;
  for (std::size_t i = 0; i < n; ++i) {
    key = (key << 16) |
          (static_cast<std::uint64_t>(static_cast<std::uint8_t>(rel[i].dx))
           << 8) |
          static_cast<std::uint64_t>(static_cast<std::uint8_t>(rel[i].dy));
  }
  return key;
}

}  // namespace

BvIndirectPool::BvIndirectPool(const ProtocolParams& params,
                               const Torus& torus, std::int32_t r, Metric m,
                               RelayMode mode, std::int64_t slots)
    : BvPool("bv-4hop", params, torus, r, checked_relay_metric(m, mode),
             slots, MessageClasses::heard_from(kMaxRelayers)),
      earmarks_(mode == RelayMode::kEarmarked ? &EarmarkPlan::get(r)
                                              : nullptr),
      digest_seed_(det_digest_seed(r, m, params.t)),
      evidence_(static_cast<std::size_t>(slots)) {}

const BvIndirectPool::Validation& BvIndirectPool::validate(
    Coord sender, const Message& msg) {
  Validation& val = last_;
  if (val.sender == sender && val.raw_origin == msg.origin &&
      val.raw_relayers == msg.relayers) {
    return val;
  }
  val.sender = sender;
  val.raw_origin = msg.origin;
  val.raw_relayers = msg.relayers;
  val.plausible = false;
  // The outermost relayer must be the actual transmitter (no spoofing).
  if (torus_.wrap(msg.relayers.back()) != sender) return val;
  val.origin = torus_.wrap(msg.origin);
  val.chain = RelayerChain{};
  Coord prev = val.origin;
  for (const Coord raw : msg.relayers) {
    const Coord c = torus_.wrap(raw);
    if (c == val.origin) return val;
    if (std::find(val.chain.begin(), val.chain.end(), c) != val.chain.end()) {
      return val;
    }
    if (!torus_.within(prev, c, r_, m_)) return val;
    val.rel[val.chain.size()] = torus_.delta(val.origin, c);
    val.chain.push_back(c);
    prev = c;
  }
  val.report_key = pack_report_key(val.rel, val.chain.size());
  CenterSet centers = center_table_.containing(val.rel[0]);
  for (std::size_t i = 1; i < val.chain.size(); ++i) {
    centers &= center_table_.containing(val.rel[i]);
  }
  val.chain_centers = centers;
  val.plausible = true;
  return val;
}

void BvIndirectPool::handle_heard(NodeContext& ctx, std::int32_t node,
                                  const Envelope& env) {
  const Message& msg = env.msg;
  if (msg.relayers.empty() || msg.relayers.size() > kMaxRelayers) return;
  // Evidence only feeds our own commit decision; relay duty is what others
  // rely on, so post-commit we stop recording but keep relaying (unless
  // full tracking is requested).
  const bool record = recording(node);
  // A full-length chain cannot be extended, so once this node stops
  // recording evidence such a delivery is a complete no-op — skip even the
  // validation. Committed nodes receiving depth-3 floods are the dominant
  // late-trial delivery; commit declares them ignored, so the simulator
  // stops dispatching them and only hosts that deliver everything (the
  // runtime) reach this branch.
  if (!record && msg.relayers.size() >= kMaxRelayers) return;

  const Validation& val = validate(env.sender, msg);
  if (!val.plausible) return;
  const Coord self = ctx.self();
  if (val.origin == self) return;
  // The chain must not pass through us.
  for (const Coord c : val.chain) {
    if (c == self) return;
  }

  const std::uint8_t v = msg.value & 1;
  if (record && !determined(node, torus_.index(val.origin), v)) {
    NodeEvidence& ev = evidence_[static_cast<std::size_t>(node)];
    const std::uint64_t key = pair_key(val.origin, v);
    const auto it =
        ev.pairs
            .try_emplace(key, center_table_, t_, kReportsPerFirstRelayer,
                         digest_seed_)
            .first;
    if (it->second.add_report(
            std::span<const Offset>(val.rel.data(), val.chain.size()),
            val.report_key)) {
      ev.dirty.insert(key);
    }
  }

  // Relay with ourselves appended, if depth allows and the extended chain is
  // still potentially useful.
  if (val.chain.size() >= kMaxRelayers) return;
  RelayerChain extended = val.chain;
  extended.push_back(self);
  const Offset self_rel = torus_.delta(val.origin, self);
  if (earmarks_ != nullptr) {
    std::array<Offset, RelayerChain::kCapacity> rel = val.rel;
    rel[val.chain.size()] = self_rel;
    if (!earmarks_->allows(
            std::span<const Offset>(rel.data(), extended.size()))) {
      return;
    }
  } else {
    // Usefulness filter: a decider only ever accepts a chain whose nodes
    // plus the committer fit in one neighborhood, so drop extensions that
    // already cannot. A spoofed sender can place us arbitrarily far from
    // the claimed origin, so the self delta may fall outside the table
    // span — containing_or_empty maps that (correctly) to "no center".
    CenterSet admissible = val.chain_centers;
    admissible &= center_table_.containing_or_empty(self_rel);
    if (!admissible.any()) return;
  }
  ctx.broadcast(make_heard(extended, val.origin, v));
}

void BvIndirectPool::drop_evidence(std::int32_t node, Coord origin,
                                   std::uint8_t value) {
  evidence_[static_cast<std::size_t>(node)].pairs.erase(
      pair_key(origin, value));
}

void BvIndirectPool::on_round_end(NodeContext& ctx, std::int32_t node) {
  NodeEvidence& ev = evidence_[static_cast<std::size_t>(node)];
  if (!recording(node)) {
    // Dead state after committing; reclaim it.
    ev.dirty.clear();
    ev.pairs.clear();
    return;
  }
  if (ev.dirty.empty()) return;
  // Move out: determine() mutates the evidence map and new dirt belongs to
  // the next round anyway.
  scratch_keys_.assign(ev.dirty.begin(), ev.dirty.end());
  std::sort(scratch_keys_.begin(), scratch_keys_.end());  // deterministic
  ev.dirty.clear();
  PackingMemo& memo = PackingMemo::thread_instance();
  for (const std::uint64_t key : scratch_keys_) {
    const auto it = ev.pairs.find(key);
    if (it == ev.pairs.end()) continue;  // already determined
    if (it->second.evaluate(memo)) {
      determine(ctx, node, pair_origin(key), static_cast<std::uint8_t>(key & 1));
    }
  }
}

}  // namespace rbcast
