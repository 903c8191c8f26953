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
// The full Bhandari–Vaidya protocol's evidence is the exception: it stays in
// per-node maps (see BvIndirectPool).
//
// A pool built over a whole torus manages the honest nodes of one trial; the
// source and faulty nodes keep their per-node behaviors (net/pool.h
// documents the dispatch split). Hosts that run one node at a time — the
// networked runtime and the crash-at-round adversary — drive a one-slot pool
// through PoolSlotBehavior instead, so they run the simulator's code.

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "radiobcast/grid/neighborhood.h"
#include "radiobcast/grid/torus.h"
#include "radiobcast/net/message.h"
#include "radiobcast/net/pool.h"
#include "radiobcast/protocols/common.h"
#include "radiobcast/protocols/determination.h"

namespace rbcast {

class EarmarkPlan;

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

/// Open-addressing set of packed uint64 keys (linear probing, power-of-two
/// capacity, grown at ~0.7 load). Keys must never equal ~0ull (the empty
/// sentinel): every packing leaves bit 63 clear (the widest, a liar's lie
/// key, uses bits 0-62). The growth schedule is a pure function of the
/// insertion sequence, so bytes() is deterministic across platforms.
class PackedKeySet {
 public:
  PackedKeySet() : keys_(kInitialCapacity, kEmpty) {}

  /// Inserts `key`; returns true iff it was not already present.
  bool insert(std::uint64_t key) {
    std::size_t i = slot_of(key);
    while (keys_[i] != kEmpty) {
      if (keys_[i] == key) return false;
      i = (i + 1) & (keys_.size() - 1);
    }
    keys_[i] = key;
    ++size_;
    if (size_ * 10 >= keys_.size() * 7) grow();
    return true;
  }

  bool contains(std::uint64_t key) const {
    std::size_t i = slot_of(key);
    while (keys_[i] != kEmpty) {
      if (keys_[i] == key) return true;
      i = (i + 1) & (keys_.size() - 1);
    }
    return false;
  }

  std::size_t size() const { return size_; }
  std::uint64_t bytes() const { return keys_.size() * sizeof(std::uint64_t); }

 private:
  static constexpr std::uint64_t kEmpty = ~0ULL;
  static constexpr std::size_t kInitialCapacity = 16;

  std::size_t slot_of(std::uint64_t key) const {
    return static_cast<std::size_t>(det_mix64(key)) & (keys_.size() - 1);
  }

  void grow() {
    std::vector<std::uint64_t> old = std::move(keys_);
    keys_.assign(old.size() * 2, kEmpty);
    for (const std::uint64_t key : old) {
      if (key == kEmpty) continue;
      std::size_t i = slot_of(key);
      while (keys_[i] != kEmpty) i = (i + 1) & (keys_.size() - 1);
      keys_[i] = key;
    }
  }

  std::vector<std::uint64_t> keys_;
  std::size_t size_ = 0;
};

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
  /// Every HEARD: only COMMITTEDs carry the value.
  MessageClasses ignored() const override {
    return MessageClasses::heard_from(0);
  }

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
  /// Every HEARD: CPA counts COMMITTED claims only.
  MessageClasses ignored() const override {
    return MessageClasses::heard_from(0);
  }

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

/// What the two Bhandari–Vaidya protocols share. The full protocol (Section
/// VI, BvIndirectPool) and its two-hop variant (Section VI-B, BvTwoHopPool)
/// differ only in how far HEARD reports travel and how a node weighs them;
/// this base owns the rest:
///  * COMMITTED handling. The first COMMITTED(i, v) heard from i itself (its
///    origin must be the transmitter: no spoofing, Section II) is a direct
///    reliable determination of (i, v). The node reports it once as
///    HEARD(self, i, v) (the first-hop relay duty), and the source's direct
///    neighbors commit on it at once.
///  * The commit rule: commit to v once t+1 determined committers of v lie in
///    one neighborhood. Each new determination (i, v) bumps a count for every
///    center c with i in nbd(c) (c itself is never in nbd(c)); the first
///    (c, v) count to reach t+1 fires. At most t of those committers can be
///    faulty, so honest nodes never commit wrongly.
///  * has_determined(), and the geometry both pools handle (supported()).
///
/// A committed node records no further determinations unless
/// track_after_commit is set: its only outward signal, its COMMITTED
/// broadcast, is already sent. The commit state, first-COMMITTED set,
/// determined set and per-center counts are packed tables keyed by
/// (node, peer[, value]).
class BvPool : public NodePool {
 public:
  /// The geometry the BV pools handle: CenterTable radii (L∞ r <= 7, L2
  /// r <= 9), sides over 2r so distinct center offsets never wrap to one
  /// node, and 21-bit node indices for the packed keys.
  static bool supported(const Torus& torus, std::int32_t r, Metric m) {
    return CenterTable::supported(r, m) && torus.width() > 2 * r &&
           torus.height() > 2 * r && torus.node_count() < (1 << 21);
  }

  std::optional<std::uint8_t> committed_value(std::int32_t node) const override {
    return state_.committed_value(node);
  }
  std::optional<std::int64_t> commit_round(std::int32_t node) const override {
    return state_.commit_round(node);
  }

  /// True iff `node` has reliably determined that `origin` committed
  /// `value`.
  bool has_determined(std::int32_t node, Coord origin,
                      std::uint8_t value) const {
    return determined(node, torus_.index(origin), value);
  }

 protected:
  /// A pool of `slots` nodes; `name` labels the geometry error. Throws
  /// std::invalid_argument unless supported(torus, r, m). Unless
  /// track_after_commit is set, a node declares `ignored_after_commit`
  /// (NodeContext::ignore) when it commits: the derived pool's HEARD handler
  /// must then drop those classes unread.
  BvPool(const char* name, const ProtocolParams& params, const Torus& torus,
         std::int32_t r, Metric m, std::int64_t slots,
         MessageClasses ignored_after_commit);

  /// The shared COMMITTED rule; each derived pool's on_receive hands it
  /// every COMMITTED and keeps its HEARDs.
  void handle_committed(NodeContext& ctx, std::int32_t node,
                        const Envelope& env);

  /// Called when `node` newly determines (origin, value), whose evidence is
  /// then no longer needed. `origin` is canonical.
  virtual void drop_evidence(std::int32_t /*node*/, Coord /*origin*/,
                             std::uint8_t /*value*/) {}

  /// Records that `node` reliably determined that `origin` committed
  /// `value`, and applies the commit rule. Idempotent per pair; a no-op
  /// once the node stops recording.
  void determine(NodeContext& ctx, std::int32_t node, Coord origin,
                 std::uint8_t value);

  /// True while `node` keeps evidence and determinations: until it commits,
  /// or for good under track_after_commit.
  bool recording(std::int32_t node) const {
    return !state_.committed(node) || track_after_commit_;
  }

  bool determined(std::int32_t node, std::int32_t origin,
                  std::uint8_t value) const {
    return determined_.contains(nov_key(node, origin, value));
  }

  /// Bytes of the state this base holds.
  std::uint64_t shared_state_bytes() const {
    return state_.bytes() + first_committed_.bytes() + determined_.bytes() +
           center_counts_.bytes();
  }

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
  std::int32_t r_;
  Metric m_;
  Torus torus_;
  const CenterTable& center_table_;

 private:
  void commit(NodeContext& ctx, std::int32_t node, std::uint8_t value);

  bool track_after_commit_;
  Coord source_;
  MessageClasses ignored_after_commit_;
  const NeighborhoodTable& table_;
  CommitArrays state_;
  PackedKeySet first_committed_;  // (node << 32) | sender index
  PackedKeySet determined_;       // nov_key(node, origin, value)
  PackedU32Map center_counts_;    // nov_key(node, center, value) -> count
};

/// The simplified Bhandari–Vaidya protocol (Section VI-B, and the companion
/// report [10]): only the *immediate neighbors* of a node that sent a
/// COMMITTED message send a HEARD message reporting it, so information about
/// a commit travels at most two hops. This achieves the same exact threshold
/// t < r(2r+1)/2 as the full protocol in L∞, with far less traffic.
///
/// Indirect determination of (i, v), a localized instance of Section V's
/// sufficient condition: HEARD(k, i, v) from t+1 distinct reporters k such
/// that, for some single center c, i and all t+1 reporters lie in nbd(c).
/// Since each such evidence chain has exactly one intermediate and the
/// reporters are distinct, the chains are automatically node-disjoint; at
/// most t of them can be faulty, so one is honest and truthful. HEARDs carry
/// no relay duty.
///
/// Reporter counting walks the CenterTable bitsets (protocols/
/// determination.h). The first-HEARD set is a packed table keyed by
/// (node, reporter, origin), and the per-(origin, value) reporter counts are
/// K-slot blocks in one shared arena.
class BvTwoHopPool final : public BvPool {
 public:
  /// A pool of `slots` nodes; the four-argument form covers every node of
  /// the torus. Throws std::invalid_argument unless supported(torus, r, m).
  BvTwoHopPool(const ProtocolParams& params, const Torus& torus,
               std::int32_t r, Metric m, std::int64_t slots)
      : BvPool("bv-2hop", params, torus, r, m, slots,
               MessageClasses::heard_from(0)) {}
  BvTwoHopPool(const ProtocolParams& params, const Torus& torus,
               std::int32_t r, Metric m)
      : BvTwoHopPool(params, torus, r, m, torus.node_count()) {}

  void on_receive(NodeContext& ctx, std::int32_t node,
                  const Envelope& env) override {
    if (env.msg.type == MsgType::kCommitted) {
      handle_committed(ctx, node, env);
    } else {
      handle_heard(ctx, node, env);
    }
  }
  /// Every HEARD but the one-relayer reports: handle_heard drops the rest
  /// first thing.
  MessageClasses ignored() const override {
    return MessageClasses::heard_with(0) | MessageClasses::heard_from(2);
  }
  std::uint64_t state_bytes() const override;

 private:
  void handle_heard(NodeContext& ctx, std::int32_t node, const Envelope& env);

  PackedKeySet heard_consumed_;   // (node << 42) | (reporter << 21) | origin
  PackedU32Map reporter_blocks_;  // nov_key(node, origin, value) -> block + 1
  std::vector<std::int32_t> reporter_arena_;  // blocks of K counts
  std::size_t arena_blocks_ = 0;
};

/// How the full protocol relays HEARD reports.
enum class RelayMode : std::uint8_t {
  /// The faithful protocol: relay every plausible, potentially useful HEARD
  /// (the chain plus the relayer must still fit in a single neighborhood
  /// with the committer, otherwise no decider could ever accept an
  /// extension of it).
  kFlood,
  /// Relay only along the constructive path families of Theorem 3
  /// (protocols/earmark.h): same commit outcomes, far less traffic. L∞ only.
  kEarmarked,
};

/// The full Bhandari–Vaidya protocol (Section VI): COMMITTED announcements
/// plus HEARD reports relayed through up to three intermediate nodes (four
/// hops from the committer). Achieves the exact threshold t < r(2r+1)/2 in
/// L∞ (Theorems 1-3).
///
/// Indirect determination of (i, v): t+1 *node-disjoint* reported paths
/// i -> relayers... whose nodes (i and every relayer) all lie in nbd(c) for a
/// single center c. Reports are atomic trust units (a report is truthful iff
/// all its relayers are honest), so disjointness is computed by exact set
/// packing over whole reports (paths/packing.h), never by recombining hops.
/// Reports accumulate during deliveries and are evaluated at round end.
///
/// Evidence is not flat: each node keeps a map from (origin, value) to its
/// IncrementalDetermination (protocols/determination.h) and the set of pairs
/// whose evidence grew this round. The flood's O(|nbd|^3) relays per commit
/// keep bv-4hop to small tori, where these maps cost little.
///
/// Growth is bounded against report-flooding adversaries: at most
/// kReportsPerFirstRelayer reports are kept per first relayer (the first
/// relayer must be a plausible direct neighbor of the committer, so there
/// are at most |nbd| of them). Honest constructive families use distinct
/// first relayers, so the cap never starves an honest determination; junk
/// beyond the cap is dropped, which can only delay liveness, never break
/// safety.
///
/// state_bytes() is 0: bv-4hop evidence was never part of engine_bytes_peak,
/// and counting it would move that exported figure in every bv-4hop trial.
class BvIndirectPool final : public BvPool {
 public:
  /// A pool of `slots` nodes; the five-argument form covers every node of
  /// the torus. Throws std::invalid_argument unless supported(torus, r, m),
  /// or for earmarked relays under a metric other than L∞.
  BvIndirectPool(const ProtocolParams& params, const Torus& torus,
                 std::int32_t r, Metric m, RelayMode mode,
                 std::int64_t slots);
  BvIndirectPool(const ProtocolParams& params, const Torus& torus,
                 std::int32_t r, Metric m, RelayMode mode)
      : BvIndirectPool(params, torus, r, m, mode, torus.node_count()) {}

  void on_receive(NodeContext& ctx, std::int32_t node,
                  const Envelope& env) override {
    if (env.msg.type == MsgType::kCommitted) {
      handle_committed(ctx, node, env);
    } else {
      handle_heard(ctx, node, env);
    }
  }
  void on_round_end(NodeContext& ctx, std::int32_t node) override;
  bool has_round_end() const override { return true; }

 private:
  static constexpr std::size_t kMaxRelayers = 3;  // "up to three"
  static constexpr int kReportsPerFirstRelayer = 8;

  /// One node's evidence: the pairs it has reports about, by pair_key, and
  /// the pairs to re-check at round end.
  struct NodeEvidence {
    std::unordered_map<std::uint64_t, IncrementalDetermination> pairs;
    std::unordered_set<std::uint64_t> dirty;
  };

  /// The receiver-independent checks of one HEARD transmission, kept for
  /// the transmission last seen. Its ~|nbd| deliveries arrive back to back,
  /// so the CSR fan-out validates it once instead of once per receiver. The
  /// torus, r and metric are the pool's, so the key is just the
  /// transmission; every other field is a pure function of it, so reuse
  /// cannot change any output. No HEARD that reaches validation has an
  /// empty chain, so the default key matches nothing.
  struct Validation {
    Coord sender{};
    Coord raw_origin{};
    RelayerChain raw_relayers;
    bool plausible = false;  // no spoofing, hops within r, nodes distinct
    Coord origin{};
    RelayerChain chain;                                 // wrapped
    std::array<Offset, RelayerChain::kCapacity> rel{};  // origin-relative
    std::uint64_t report_key = 0;  // packed dedup key of rel
    CenterSet chain_centers;       // AND of containing(rel[i]) over the chain
  };

  /// Pair keys order x-major, then y, then value: the order in which a
  /// node's round end evaluates its pairs.
  static std::uint64_t pair_key(Coord origin, std::uint8_t value) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(origin.x))
            << 33) |
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(origin.y))
            << 1) |
           (value & 1);
  }
  static Coord pair_origin(std::uint64_t key) {
    return {static_cast<std::int32_t>(key >> 33),
            static_cast<std::int32_t>((key >> 1) & 0xFFFFFFFFu)};
  }

  void handle_heard(NodeContext& ctx, std::int32_t node, const Envelope& env);
  void drop_evidence(std::int32_t node, Coord origin,
                     std::uint8_t value) override;
  const Validation& validate(Coord sender, const Message& msg);

  const EarmarkPlan* earmarks_;  // the relay plan; null for kFlood
  std::uint64_t digest_seed_;
  std::vector<NodeEvidence> evidence_;  // by node
  Validation last_;
  std::vector<std::uint64_t> scratch_keys_;  // round-end scratch
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

  void on_start(NodeContext& ctx) override { ctx.ignore(pool_->ignored()); }
  void on_receive(NodeContext& ctx, const Envelope& env) override {
    pool_->on_receive(ctx, 0, env);
  }
  void on_round_end(NodeContext& ctx) override { pool_->on_round_end(ctx, 0); }
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
