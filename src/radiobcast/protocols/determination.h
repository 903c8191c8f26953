#pragma once
// Incremental evidence / determination engine for the Byzantine protocols.
//
// A decider accumulates HEARD reports about an (origin, value) pair and must
// notice, as early as possible, when t+1 pairwise node-disjoint reports are
// confined (together with the origin) to a single neighborhood nbd(c). The
// pre-PR-7 engines recomputed that from scratch every round: for every
// candidate center, re-filter every report for containment, then re-run the
// set-packing solver. At r >= 2 that recomputation — not delivery — was the
// simulator's bottleneck (BM_HeardFlood/2 moved only 1.08x in PR 5).
//
// This engine turns the per-round sweep into per-report increments:
//
//   * CenterTable — a process-wide table, per (r, metric, torus fold), that
//     maps a relayer's canonical origin-relative delta to the *bitset of
//     candidate centers* whose neighborhood contains it (CenterSet, one bit
//     per offset in the NeighborhoodTable order). A report's admissible
//     centers are the AND of its relayers' bitsets; a chain extension is
//     "potentially useful" iff that AND is non-empty. Torus wrap-around on
//     small tori is baked into the table (the fold), so one lookup replaces
//     the per-offset wrap-and-compare loops in both relay filtering and
//     evidence containment.
//
//   * IncrementalDetermination — per (origin, value) state. Each accepted
//     report updates only the centers that contain it: a contained-report
//     list, a distinct-first-relayer bitset (the cheap t+1 upper bound), and
//     a commutative evidence-set digest. Only centers whose contained set
//     actually changed are re-examined at round end.
//
//   * PackingMemo — a thread-local verdict cache for the exact set-packing
//     solver, keyed by a 128-bit (evidence-set digest, target) signature.
//     Report digests are built from the packed uint64 report keys (canonical
//     origin-relative chain encodings), so identical subproblems recur with
//     identical digests across rounds, origins, *and* nodes — and are solved
//     once per worker thread. Verdicts are pure functions of the digested
//     set, so cache hits can never change simulation results, only skip
//     recomputation (the golden determinism suite pins this).
//
// Domain: the engine requires the candidate-center count |nbd| to fit
// CenterSet (256 bits — L∞ r <= 7, L2 r <= 9). There is no other engine: the
// BV pools reject larger radii with std::invalid_argument when they are
// built (BvPool::supported, protocols/pool.h).

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "radiobcast/grid/coord.h"
#include "radiobcast/grid/metric.h"
#include "radiobcast/paths/packing.h"

namespace rbcast {

/// Fixed-width bitset over candidate-center indices (positions in the
/// NeighborhoodTable offset order). 256 bits cover |nbd| for every r <= 7
/// under L-inf ((2r+1)^2 - 1 = 224) and L2.
class CenterSet {
 public:
  static constexpr int kBits = 256;

  void set(int i) { words_[i >> 6] |= 1ULL << (i & 63); }
  bool test(int i) const { return (words_[i >> 6] >> (i & 63)) & 1; }

  CenterSet& operator&=(const CenterSet& o) {
    for (int i = 0; i < 4; ++i) words_[i] &= o.words_[i];
    return *this;
  }

  bool any() const {
    return (words_[0] | words_[1] | words_[2] | words_[3]) != 0;
  }

  void clear() { words_ = {}; }

  /// Calls f(bit_index) for every set bit, in ascending order — the same
  /// order as the per-offset loops this engine replaces, so anything keyed
  /// on "first center found" is unchanged.
  template <typename F>
  void for_each(F&& f) const {
    for (int w = 0; w < 4; ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        f(w * 64 + b);
        bits &= bits - 1;
      }
    }
  }

 private:
  std::array<std::uint64_t, 4> words_{};
};

/// Process-wide candidate-center containment table, cached per
/// (r, metric, torus-fold). See the header comment.
class CenterTable {
 public:
  /// Cached lookup. `width`/`height` are the torus dimensions; tori too
  /// large to fold (strictly greater than 8r per side) share one fold-free
  /// table per (r, m).
  static const CenterTable& get(std::int32_t r, Metric m, std::int32_t width,
                                std::int32_t height);

  /// True iff the fast engine handles this (r, m): the candidate-center
  /// count fits CenterSet.
  static bool supported(std::int32_t r, Metric m);

  std::int32_t radius() const { return r_; }
  Metric metric() const { return m_; }

  /// Number of candidate centers == |nbd| == NeighborhoodTable size.
  int num_centers() const { return num_centers_; }

  /// Centers c = origin + off_k whose neighborhood contains the node at
  /// canonical origin-relative delta `d` (i.e. fold(d - off_k) != 0 and
  /// within radius r). `d` must be a canonical torus delta of a node within
  /// three hops of the origin (|components| <= min(3r, dim/2)).
  const CenterSet& containing(Offset d) const {
    return table_[delta_index(d)];
  }

  /// containing() for an arbitrary canonical delta (e.g. the receiver's own
  /// position when the claimed chain came from a spoofed sender): a node
  /// beyond the table span is beyond 3r > 2r, so no candidate center's
  /// neighborhood can contain it together with the origin — empty set.
  const CenterSet& containing_or_empty(Offset d) const {
    if (d.dx < -bx_ || d.dx > bx_ || d.dy < -by_ || d.dy > by_) {
      return kEmptySet;
    }
    return table_[delta_index(d)];
  }

  /// Index of a canonical delta with 0 < |d| <= r in the NeighborhoodTable
  /// offset order; -1 outside the neighborhood.
  int offset_index(Offset d) const {
    if (d.dx < -r_ || d.dx > r_ || d.dy < -r_ || d.dy > r_) return -1;
    return offset_index_[static_cast<std::size_t>((d.dx + r_) * (2 * r_ + 1) +
                                                  (d.dy + r_))];
  }

 private:
  static const CenterSet kEmptySet;

  CenterTable(std::int32_t r, Metric m, std::int32_t fold_w,
              std::int32_t fold_h);

  std::size_t delta_index(Offset d) const {
    return static_cast<std::size_t>((d.dx + bx_) * (2 * by_ + 1) +
                                    (d.dy + by_));
  }

  std::int32_t r_;
  Metric m_;
  std::int32_t bx_, by_;  // table spans [-bx, bx] x [-by, by]
  int num_centers_;
  std::vector<CenterSet> table_;        // by delta_index
  std::vector<std::int16_t> offset_index_;  // (2r+1)^2, -1 for non-neighbors
};

/// Thread-local memoization of set-packing verdicts, keyed by a 128-bit
/// evidence-set signature. Fixed-capacity direct-mapped cache: collisions
/// overwrite, misses recompute — verdict values are pure, so the cache can
/// only save work, never change an outcome.
class PackingMemo {
 public:
  static PackingMemo& thread_instance();

  /// Returns the cached verdict for signature (d0, d1), or nullptr.
  const bool* lookup(std::uint64_t d0, std::uint64_t d1) const {
    const Entry& e = slots_[static_cast<std::size_t>(d0) & kMask];
    if (e.valid && e.d0 == d0 && e.d1 == d1) return &e.verdict;
    return nullptr;
  }

  void store(std::uint64_t d0, std::uint64_t d1, bool verdict) {
    Entry& e = slots_[static_cast<std::size_t>(d0) & kMask];
    e.d0 = d0;
    e.d1 = d1;
    e.verdict = verdict;
    e.valid = true;
  }

  std::int64_t hits() const { return hits_; }
  std::int64_t misses() const { return misses_; }
  void note_hit() { ++hits_; }
  void note_miss() { ++misses_; }

 private:
  struct Entry {
    std::uint64_t d0 = 0, d1 = 0;
    bool verdict = false;
    bool valid = false;
  };

  static constexpr std::size_t kCapacity = 1 << 16;
  static constexpr std::size_t kMask = kCapacity - 1;

  PackingMemo() : slots_(kCapacity) {}

  std::vector<Entry> slots_;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

/// Incremental determination state for one (origin, value) pair.
///
/// Acceptance policy (identical to the pre-incremental engine): reports are
/// deduplicated by their packed uint64 chain key, and at most `first_cap`
/// reports are kept per first relayer — honest constructive families use
/// distinct first relayers, so the cap bounds adversarial flooding without
/// ever starving an honest determination.
class IncrementalDetermination {
 public:
  /// `t` is the local fault bound (certification target t+1); `digest_seed`
  /// folds (r, metric, t) into every evidence-set signature so memo entries
  /// from different configurations cannot alias.
  IncrementalDetermination(const CenterTable& table, std::int64_t t,
                           int first_cap, std::uint64_t digest_seed);

  /// Offers a plausibility-checked report: `rel` holds the canonical
  /// origin-relative deltas of its relayer chain (front first), `key` its
  /// packed uint64 chain encoding. Returns true iff the report was accepted
  /// (new under dedup, first-relayer cap not exhausted); acceptance updates
  /// exactly the candidate centers containing the whole chain.
  bool add_report(std::span<const Offset> rel, std::uint64_t key);

  /// Re-examines only the centers whose contained set changed since the
  /// last call. Returns true iff some center now holds >= t+1 pairwise
  /// node-disjoint reports (the caller then owns discarding this state).
  bool evaluate(PackingMemo& memo);

  std::size_t report_count() const { return interiors_.size(); }

 private:
  /// Per-center report list, stored as a (offset, size, capacity) span into
  /// the shared contained_arena_ below instead of one heap vector per center:
  /// a determination state allocates O(1) blocks however many of its K
  /// centers activate, and each center's indices stay contiguous (in arrival
  /// order) for the packing sweep.
  struct CenterState {
    std::uint32_t off = 0, len = 0, cap = 0;  // span into contained_arena_
    std::uint64_t acc0 = 0, acc1 = 0;         // commutative evidence digest
    std::uint32_t distinct_first = 0;
    std::uint32_t evaluated = 0;  // len at last packing check
  };

  /// Appends a report index to a center's span, relocating the span to the
  /// arena tail with doubled capacity when full (retired blocks are reclaimed
  /// only when the whole state is discarded — bounded by the 2x growth).
  void contained_push(CenterState& cs, std::uint32_t idx);

  const CenterTable& table_;
  std::int64_t target_;  // t + 1
  int first_cap_;
  std::uint64_t seed_;
  std::vector<Interior> interiors_;         // accepted reports
  std::unordered_set<std::uint64_t> dedup_;  // packed chain keys considered
  std::vector<std::uint8_t> per_first_;      // per first-relayer accept count
  std::vector<CenterState> centers_;
  std::vector<std::uint32_t> contained_arena_;  // all centers' report spans
  std::vector<std::uint64_t> first_bits_;  // K x K (center, first) seen bits
  CenterSet dirty_;
  std::vector<Interior> scratch_;  // packing input, capacity retained
};

/// Injective 32-bit node id of a canonical origin-relative delta (16-bit
/// two's-complement components) — the Interior id space.
constexpr std::uint32_t pack_delta_id(Offset o) {
  return (static_cast<std::uint32_t>(static_cast<std::uint16_t>(o.dx))
          << 16) |
         static_cast<std::uint16_t>(o.dy);
}

/// splitmix64 finalizer — the digest mixer (also used by the seeds).
constexpr std::uint64_t det_mix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Digest seed folding the protocol configuration (see the ctor docs).
constexpr std::uint64_t det_digest_seed(std::int32_t r, Metric m,
                                        std::int64_t t) {
  return det_mix64((static_cast<std::uint64_t>(static_cast<std::uint32_t>(r))
                    << 40) ^
                   (static_cast<std::uint64_t>(m) << 32) ^
                   static_cast<std::uint64_t>(t));
}

}  // namespace rbcast
