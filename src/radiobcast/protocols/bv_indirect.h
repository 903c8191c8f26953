#pragma once
// The full Bhandari–Vaidya Byzantine broadcast protocol (Section VI):
// COMMITTED announcements plus HEARD reports relayed through up to three
// intermediate nodes (four hops from the committer). Achieves the exact
// threshold t < r(2r+1)/2 in L∞ (Theorems 1-3).
//
// Reliable determination of (origin, v):
//   - heard COMMITTED(origin, v) from origin directly (first value per
//     sender), or
//   - holds t+1 *node-disjoint* reported paths origin -> relayers... whose
//     nodes (origin and every relayer) all lie in nbd(c) for a single center
//     c. Reports are atomic trust units (a report is truthful iff all its
//     relayers are honest), so disjointness is computed by exact set packing
//     over whole reports (paths/packing.h), never by recombining hops.
//
// Commit rule: t+1 determined committers of v within one neighborhood
// (NeighborhoodCommitCounter), as in the two-hop variant.
//
// Relay modes:
//   kFlood     — faithful protocol: relay every plausible, potentially useful
//                HEARD (the chain plus the relayer must still fit in a single
//                neighborhood with the committer, otherwise no decider could
//                ever accept an extension of it).
//   kEarmarked — relay only along the constructive path families of Theorem 3
//                (protocols/earmark.h); same commit outcomes, far less
//                traffic. L∞ only.

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "radiobcast/net/network.h"
#include "radiobcast/protocols/common.h"
#include "radiobcast/protocols/determination.h"

namespace rbcast {

class EarmarkPlan;

enum class RelayMode : std::uint8_t { kFlood, kEarmarked };

class BvIndirectBehavior final : public NodeBehavior {
 public:
  /// Throws std::invalid_argument unless CenterTable::supported(r, m) — the
  /// incremental determination engine covers L∞ r <= 7 and L2 r <= 9.
  BvIndirectBehavior(const ProtocolParams& params, const Torus& torus,
                     std::int32_t r, Metric m, RelayMode mode);

  void on_receive(NodeContext& ctx, const Envelope& env) override;
  void on_round_end(NodeContext& ctx) override;

  std::optional<std::uint8_t> committed_value() const override {
    return committed_;
  }

  std::optional<std::int64_t> commit_round() const override {
    return commit_round_;
  }

  std::int64_t determinations() const { return counter_.determined_count(); }

  /// True iff this node has reliably determined that `origin` committed
  /// `value` (exposed for the Fig 1 region-M fidelity tests).
  bool has_determined(Coord origin, std::uint8_t value) const {
    return counter_.is_determined(origin, value);
  }

 private:
  /// Evidence about one (origin, value) pair, kept by the incremental
  /// determination engine (protocols/determination.h).
  ///
  /// Growth is bounded against report-flooding adversaries: at most
  /// kReportsPerFirstRelayer reports are kept per first relayer (the first
  /// relayer must be a plausible direct neighbor of the committer, so there
  /// are at most |nbd| of them). Honest constructive families use distinct
  /// first relayers, so the cap never starves an honest determination; junk
  /// beyond the cap is dropped, which can only delay liveness, never break
  /// safety.
  struct PairEvidence {
    Coord origin{};  // cached (keys are one-way hashes of the pair)
    IncrementalDetermination det;
  };

  static constexpr int kReportsPerFirstRelayer = 8;

  void handle_committed(NodeContext& ctx, const Envelope& env);
  void handle_heard(NodeContext& ctx, const Envelope& env);
  void determine(NodeContext& ctx, Coord origin, std::uint8_t value);
  void commit(NodeContext& ctx, std::uint8_t value);

  ProtocolParams params_;
  std::int32_t r_;
  Metric m_;
  RelayMode mode_;
  // Hoisted per-message lookups: the relay plan (kEarmarked) and the
  // center table are resolved once at construction instead of through a
  // mutex-guarded cache on every HEARD.
  const EarmarkPlan* earmarks_;  // non-null iff mode == kEarmarked
  // Candidate-center containment table: relay-usefulness tests are single
  // bitset ANDs, and evidence lives in evidence_.
  const CenterTable& center_table_;
  std::uint64_t digest_seed_;
  std::optional<std::uint8_t> committed_;
  std::optional<std::int64_t> commit_round_;
  NeighborhoodCommitCounter counter_;
  std::unordered_map<Coord, std::uint8_t> first_committed_;
  std::unordered_map<std::uint64_t, PairEvidence> evidence_;  // (origin,value)
  std::unordered_set<std::uint64_t> dirty_;                   // keys to re-check
  // Reusable on_round_end scratch; cleared per use, capacity retained.
  std::vector<std::uint64_t> scratch_keys_;
};

}  // namespace rbcast
