#pragma once
// Structure-of-arrays protocol pools (docs/PERF.md, "Memory model").
//
// Each pool below is the only implementation of its protocol. Per-trial
// protocol state used to be one heap object per node, full of std::map /
// std::set members — at a million nodes the resident set and the cache
// misses of that layout, not the algorithm, capped practical torus sizes.
// The pools lay the state out flat:
//
//   * dense std::vector arrays indexed by the CSR node index for per-node
//     phase state (committed value, commit round, claim tallies);
//   * one bit per node for commit flags (DenseBits);
//   * packed-key open-addressing hash tables (PackedKeySet / PackedU32Map)
//     for the per-node relations — keys pack (node, peer, value) into one
//     uint64, and the tables are only ever probed, never iterated, so their
//     layout cannot leak into results;
//   * a shared arena for the per-(node, origin, value) reporter-count blocks
//     of the two-hop protocol (one contiguous K-slot block per active pair).
//
// A pool built over a whole torus manages the honest nodes of one trial; the
// source and faulty nodes keep their per-node behaviors (net/pool.h
// documents the dispatch split). Hosts that run one node at a time — the
// networked runtime and the crash-at-round adversary — drive a one-slot pool
// through PoolSlotBehavior instead, so they run the simulator's code.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "radiobcast/grid/neighborhood.h"
#include "radiobcast/grid/torus.h"
#include "radiobcast/net/message.h"
#include "radiobcast/net/pool.h"
#include "radiobcast/protocols/common.h"
#include "radiobcast/protocols/determination.h"

namespace rbcast {

/// Always true: run_simulation installs a pool for every protocol that has
/// one. Kept for bench/ledger/replay.cpp, which mirrors run_simulation's
/// node population and asks before building its pool.
inline bool soa_pools_enabled() { return true; }

/// One bit per node.
class DenseBits {
 public:
  explicit DenseBits(std::int64_t n)
      : words_(static_cast<std::size_t>((n + 63) / 64), 0) {}

  bool test(std::int32_t i) const {
    return (words_[static_cast<std::size_t>(i) >> 6] >> (i & 63)) & 1;
  }
  void set(std::int32_t i) {
    words_[static_cast<std::size_t>(i) >> 6] |= 1ULL << (i & 63);
  }

  std::uint64_t bytes() const { return words_.size() * sizeof(std::uint64_t); }

 private:
  std::vector<std::uint64_t> words_;
};

/// Key policy of FlatKeySet: empty() marks a free slot, so no stored key may
/// equal it, and fold() reduces a key to the 64 bits det_mix64 spreads over
/// the slots (equal keys must fold equally).
template <class Key>
struct FlatKeyTraits;

/// Packed keys fold to themselves. No packing below may produce ~0ull — every
/// one keeps its key bits well under 64.
template <>
struct FlatKeyTraits<std::uint64_t> {
  static constexpr std::uint64_t empty() { return ~0ULL; }
  static constexpr std::uint64_t fold(std::uint64_t key) { return key; }
};

/// Open-addressing set (linear probing, power-of-two capacity, grown at ~0.7
/// load). Probes compare whole keys, so two keys that fold alike cost a probe
/// step, never a false match. The growth schedule is a pure function of the
/// insertion sequence, so bytes() is deterministic across platforms.
template <class Key>
class FlatKeySet {
 public:
  FlatKeySet() : keys_(kInitialCapacity, Traits::empty()) {}

  /// Inserts `key`; returns true iff it was not already present.
  bool insert(const Key& key) {
    std::size_t i = slot_of(key);
    while (keys_[i] != Traits::empty()) {
      if (keys_[i] == key) return false;
      i = (i + 1) & (keys_.size() - 1);
    }
    keys_[i] = key;
    ++size_;
    if (size_ * 10 >= keys_.size() * 7) grow();
    return true;
  }

  bool contains(const Key& key) const {
    std::size_t i = slot_of(key);
    while (keys_[i] != Traits::empty()) {
      if (keys_[i] == key) return true;
      i = (i + 1) & (keys_.size() - 1);
    }
    return false;
  }

  std::size_t size() const { return size_; }
  std::uint64_t bytes() const { return keys_.size() * sizeof(Key); }

 private:
  using Traits = FlatKeyTraits<Key>;
  static constexpr std::size_t kInitialCapacity = 16;

  std::size_t slot_of(const Key& key) const {
    return static_cast<std::size_t>(det_mix64(Traits::fold(key))) &
           (keys_.size() - 1);
  }

  void grow() {
    std::vector<Key> old = std::move(keys_);
    keys_.assign(old.size() * 2, Traits::empty());
    for (const Key& key : old) {
      if (key == Traits::empty()) continue;
      std::size_t i = slot_of(key);
      while (keys_[i] != Traits::empty()) i = (i + 1) & (keys_.size() - 1);
      keys_[i] = key;
    }
  }

  std::vector<Key> keys_;
  std::size_t size_ = 0;
};

/// The set of packed uint64 keys the pools store their relations in.
using PackedKeySet = FlatKeySet<std::uint64_t>;

/// Open-addressing map from packed uint64 keys to uint32 values, same scheme
/// as PackedKeySet. slot() inserts a zero-initialized value on first access
/// (the only mutation the protocols need).
class PackedU32Map {
 public:
  PackedU32Map()
      : keys_(kInitialCapacity, kEmpty), values_(kInitialCapacity, 0) {}

  /// Value slot for `key`, default-inserting 0. The reference is invalidated
  /// by the next slot() call (a grow may rehash).
  std::uint32_t& slot(std::uint64_t key) {
    std::size_t i = slot_of(key);
    while (keys_[i] != kEmpty) {
      if (keys_[i] == key) return values_[i];
      i = (i + 1) & (keys_.size() - 1);
    }
    keys_[i] = key;
    values_[i] = 0;
    ++size_;
    if (size_ * 10 >= keys_.size() * 7) {
      grow();
      return *find_existing(key);
    }
    return values_[i];
  }

  std::size_t size() const { return size_; }
  std::uint64_t bytes() const {
    return keys_.size() * (sizeof(std::uint64_t) + sizeof(std::uint32_t));
  }

 private:
  static constexpr std::uint64_t kEmpty = ~0ULL;
  static constexpr std::size_t kInitialCapacity = 16;

  std::size_t slot_of(std::uint64_t key) const {
    return static_cast<std::size_t>(det_mix64(key)) & (keys_.size() - 1);
  }

  std::uint32_t* find_existing(std::uint64_t key) {
    std::size_t i = slot_of(key);
    while (keys_[i] != key) i = (i + 1) & (keys_.size() - 1);
    return &values_[i];
  }

  void grow() {
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<std::uint32_t> old_values = std::move(values_);
    keys_.assign(old_keys.size() * 2, kEmpty);
    values_.assign(old_keys.size() * 2, 0);
    for (std::size_t j = 0; j < old_keys.size(); ++j) {
      if (old_keys[j] == kEmpty) continue;
      std::size_t i = slot_of(old_keys[j]);
      while (keys_[i] != kEmpty) i = (i + 1) & (keys_.size() - 1);
      keys_[i] = old_keys[j];
      values_[i] = old_values[j];
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> values_;
  std::size_t size_ = 0;
};

/// Shared dense commit state (committed bit, value, round) — the per-node
/// fields every protocol pool carries.
class CommitArrays {
 public:
  explicit CommitArrays(std::int64_t n)
      : committed_(n),
        value_(static_cast<std::size_t>(n), 0),
        round_(static_cast<std::size_t>(n), -1) {}

  bool committed(std::int32_t node) const { return committed_.test(node); }
  std::uint8_t value(std::int32_t node) const {
    return value_[static_cast<std::size_t>(node)];
  }

  void set(std::int32_t node, std::uint8_t value, std::int64_t round) {
    committed_.set(node);
    value_[static_cast<std::size_t>(node)] = value;
    round_[static_cast<std::size_t>(node)] =
        static_cast<std::int32_t>(round);
  }

  std::optional<std::uint8_t> committed_value(std::int32_t node) const {
    if (!committed_.test(node)) return std::nullopt;
    return value_[static_cast<std::size_t>(node)];
  }
  std::optional<std::int64_t> commit_round(std::int32_t node) const {
    if (!committed_.test(node)) return std::nullopt;
    return round_[static_cast<std::size_t>(node)];
  }

  std::uint64_t bytes() const {
    return committed_.bytes() + value_.size() +
           round_.size() * sizeof(std::int32_t);
  }

 private:
  DenseBits committed_;
  std::vector<std::uint8_t> value_;  // valid iff the committed bit is set
  std::vector<std::int32_t> round_;
};

/// Crash-stop broadcast (Section VII).
///
/// "When only crash-stop failures are admissible, no special protocol is
/// required. Each node that receives a value commits to it, re-broadcasts it
/// once for the benefit of others, and then may terminate." Achievability is
/// pure reachability; Theorems 4 and 5 pin the threshold at t = r(2r+1) in
/// L∞. Per-node state: one commit bit + value byte + round — ~6 bytes/node.
class CrashFloodPool final : public NodePool {
 public:
  /// A pool of `slots` nodes; the two-argument form covers every node of
  /// the torus. Crash-flood ignores t, the source and the torus; the
  /// parameters keep the pool constructors uniform.
  CrashFloodPool(const ProtocolParams& /*params*/, const Torus& /*torus*/,
                 std::int64_t slots)
      : state_(slots) {}
  CrashFloodPool(const ProtocolParams& params, const Torus& torus)
      : CrashFloodPool(params, torus, torus.node_count()) {}

  void on_receive(NodeContext& ctx, std::int32_t node,
                  const Envelope& env) override;

  std::optional<std::uint8_t> committed_value(std::int32_t node) const override {
    return state_.committed_value(node);
  }
  std::optional<std::int64_t> commit_round(std::int32_t node) const override {
    return state_.commit_round(node);
  }
  std::uint64_t state_bytes() const override { return state_.bytes(); }

 private:
  CommitArrays state_;
};

/// The Certified Propagation Algorithm — the "extremely simple protocol" of
/// [Koo04], analyzed in Section IX.
///
/// The source's direct neighbors commit on hearing the source. Every other
/// node commits once it has heard the same value in COMMITTED broadcasts from
/// t+1 distinct neighbors, then re-broadcasts the committed value once and
/// terminates. Only the first claim per neighbor counts (the no-duplicity
/// rule of Section V). No node ever commits wrongly (at most t of the t+1
/// reporters can be faulty); liveness holds for t <= 2r^2/3 in L∞
/// (Theorem 6). State: dense claim tallies per value plus a packed
/// (node, sender) first-claim set.
class CpaPool final : public NodePool {
 public:
  /// A pool of `slots` nodes; the two-argument form covers every node of
  /// the torus.
  CpaPool(const ProtocolParams& params, const Torus& torus,
          std::int64_t slots)
      : t_(params.t),
        source_(torus.wrap(params.source)),
        state_(slots),
        claims_(static_cast<std::size_t>(slots) * 2, 0) {}
  CpaPool(const ProtocolParams& params, const Torus& torus)
      : CpaPool(params, torus, torus.node_count()) {}

  void on_receive(NodeContext& ctx, std::int32_t node,
                  const Envelope& env) override;

  std::optional<std::uint8_t> committed_value(std::int32_t node) const override {
    return state_.committed_value(node);
  }
  std::optional<std::int64_t> commit_round(std::int32_t node) const override {
    return state_.commit_round(node);
  }
  std::uint64_t state_bytes() const override {
    return state_.bytes() + claims_.size() * sizeof(std::int32_t) +
           first_claim_.bytes();
  }

 private:
  void commit(NodeContext& ctx, std::int32_t node, std::uint8_t value);

  std::int64_t t_;
  Coord source_;
  CommitArrays state_;
  std::vector<std::int32_t> claims_;  // 2 per node: [2*node + value]
  PackedKeySet first_claim_;          // (node << 32) | sender index
};

/// The simplified Bhandari–Vaidya protocol (Section VI-B, and the companion
/// report [10]): only the *immediate neighbors* of a node that sent a
/// COMMITTED message send a HEARD message reporting it, so information about
/// a commit travels at most two hops. This achieves the same exact threshold
/// t < r(2r+1)/2 as the full protocol in L∞, with far less traffic.
///
/// Commit rule implemented (a localized instance of Section V's sufficient
/// condition):
///  * reliable determination of (i, v):
///      - heard COMMITTED(i, v) from i directly (first value per sender), or
///      - heard HEARD(k, i, v) from t+1 distinct reporters k such that, for
///        some single center c, i and all t+1 reporters lie in nbd(c). Since
///        each such evidence chain has exactly one intermediate and the
///        reporters are distinct, the chains are automatically node-disjoint;
///        at most t of them can be faulty, so one is honest and truthful.
///  * commit to v once t+1 determined committers of v lie in one neighborhood
///    (the NeighborhoodCommitCounter rule of protocols/common.h, inlined).
///
/// Reporter counting walks the CenterTable bitsets (protocols/
/// determination.h). The per-node maps/sets are packed tables keyed by
/// (node, peer[, value]), and the per-(origin, value) reporter counts are
/// K-slot blocks in one shared arena.
class BvTwoHopPool final : public NodePool {
 public:
  /// The geometry the pool handles: CenterTable radii (L∞ r <= 7, L2
  /// r <= 9), sides over 2r so distinct center offsets never wrap to one
  /// node, and 21-bit node indices for the packed keys.
  static bool supported(const Torus& torus, std::int32_t r, Metric m) {
    return CenterTable::supported(r, m) && torus.width() > 2 * r &&
           torus.height() > 2 * r && torus.node_count() < (1 << 21);
  }

  /// A pool of `slots` nodes; the four-argument form covers every node of
  /// the torus. Throws std::invalid_argument unless supported(torus, r, m).
  BvTwoHopPool(const ProtocolParams& params, const Torus& torus,
               std::int32_t r, Metric m, std::int64_t slots);
  BvTwoHopPool(const ProtocolParams& params, const Torus& torus,
               std::int32_t r, Metric m)
      : BvTwoHopPool(params, torus, r, m, torus.node_count()) {}

  void on_receive(NodeContext& ctx, std::int32_t node,
                  const Envelope& env) override;

  std::optional<std::uint8_t> committed_value(std::int32_t node) const override {
    return state_.committed_value(node);
  }
  std::optional<std::int64_t> commit_round(std::int32_t node) const override {
    return state_.commit_round(node);
  }
  std::uint64_t state_bytes() const override;

  /// True iff `node` has reliably determined that `origin` committed
  /// `value`.
  bool has_determined(std::int32_t node, Coord origin,
                      std::uint8_t value) const {
    return determined_.contains(
        nov_key(node, torus_.index(torus_.wrap(origin)), value));
  }

 private:
  void handle_committed(NodeContext& ctx, std::int32_t node,
                        const Envelope& env);
  void handle_heard(NodeContext& ctx, std::int32_t node, const Envelope& env);
  void determine(NodeContext& ctx, std::int32_t node, Coord origin,
                 std::uint8_t value);
  void commit(NodeContext& ctx, std::int32_t node, std::uint8_t value);

  // (node, origin index, value bit) — 21 + 21 + 1 bits.
  static std::uint64_t nov_key(std::int32_t node, std::int32_t origin,
                               std::uint8_t value) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node))
            << 22) |
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(origin))
            << 1) |
           (value & 1);
  }

  std::int64_t t_;
  bool track_after_commit_;
  Coord source_;
  std::int32_t r_;
  Metric m_;
  Torus torus_;
  const NeighborhoodTable& table_;
  const CenterTable& center_table_;
  CommitArrays state_;
  PackedKeySet first_committed_;  // (node << 32) | sender index
  PackedKeySet heard_consumed_;   // (node << 42) | (reporter << 21) | origin
  PackedKeySet determined_;       // nov_key(node, origin, value)
  PackedU32Map center_counts_;    // nov_key(node, center, value) -> count
  PackedU32Map reporter_blocks_;  // nov_key(node, origin, value) -> block + 1
  std::vector<std::int32_t> reporter_arena_;  // blocks of K counts
  std::size_t arena_blocks_ = 0;
};

/// One node's view of a pool: drives a one-slot pool at slot 0, so hosts
/// that run nodes one at a time (the networked runtime, the crash-at-round
/// adversary) execute the simulator's protocol code. Slot 0 is exact: the
/// pools take the node's identity from ctx.self() and use the node index
/// only to address state.
class PoolSlotBehavior final : public NodeBehavior {
 public:
  explicit PoolSlotBehavior(std::unique_ptr<NodePool> pool)
      : pool_(std::move(pool)) {}

  void on_receive(NodeContext& ctx, const Envelope& env) override {
    pool_->on_receive(ctx, 0, env);
  }
  std::optional<std::uint8_t> committed_value() const override {
    return pool_->committed_value(0);
  }
  std::optional<std::int64_t> commit_round() const override {
    return pool_->commit_round(0);
  }

 private:
  std::unique_ptr<NodePool> pool_;
};

}  // namespace rbcast
