#pragma once
// Adversarial node behaviors.
//
// The model (Section II) rules out address spoofing and collisions, so a
// Byzantine node's power is limited to sending wrong/fabricated message
// *content* (and staying silent). Note that the shared channel already makes
// duplicity impossible (Section V): whatever a faulty node sends is heard
// identically by all of its neighbors.
//
//  * SilentBehavior   — never transmits. Models crash-from-start faults and
//                       the liveness-critical corner of Byzantine behavior
//                       (a barrier of silent nodes starves deciders of
//                       evidence).
//  * LyingBehavior    — commits to and propagates the wrong value, relays
//                       every report with its value flipped, and claims that
//                       every committer it hears committed the wrong value,
//                       sending each distinct lie once. The safety-critical
//                       corner: Theorem 2 predicts it can never cause an
//                       honest wrong commit.
//  * CrashAtRound     — behaves honestly (delegating to an inner behavior)
//                       until a given round, then goes permanently silent:
//                       crash-stop mid-protocol.

#include <array>
#include <cstdint>
#include <memory>
#include <optional>

#include "radiobcast/net/network.h"
#include "radiobcast/protocols/pool.h"

namespace rbcast {

class SilentBehavior final : public NodeBehavior {
 public:
  void on_start(NodeContext& ctx) override {
    ctx.ignore(MessageClasses::all());
  }
  void on_receive(NodeContext&, const Envelope&) override {}
};

/// One lie of a LyingBehavior, keyed by the fields that vary between its
/// lies. Every lie is HEARD(relayers[0..depth) + [liar], origin, wrong value):
/// type, value and closing relayer are fixed per liar, so two lies are equal
/// iff their keys are, coordinate for coordinate.
struct LieKey {
  std::uint8_t depth = 0;           // relayers the lie extends: 0, 1 or 2
  Coord origin{};
  std::array<Coord, 2> relayers{};  // the first `depth`; the rest stay {0, 0}

  friend bool operator==(const LieKey&, const LieKey&) = default;
};

/// No lie extends more than two relayers, so depth 0xFF marks a free slot.
template <>
struct FlatKeyTraits<LieKey> {
  static constexpr LieKey empty() { return LieKey{0xFF}; }
  static std::uint64_t fold(const LieKey& key);
};

class LyingBehavior final : public NodeBehavior {
 public:
  /// `wrong_value` is the value the adversary pushes (the complement of the
  /// source's value in the experiments).
  explicit LyingBehavior(std::uint8_t wrong_value)
      : wrong_value_(wrong_value) {}

  void on_start(NodeContext& ctx) override;
  void on_receive(NodeContext& ctx, const Envelope& env) override;

 private:
  std::uint8_t wrong_value_;
  // Every lie sent so far: bounds the liar's volume, not its honesty. A
  // delivery costs one fold and one probe; the table is never iterated, so
  // its layout cannot reach the output. Not counted in engine_bytes_peak.
  FlatKeySet<LieKey> sent_;
};

/// Address-spoofing liar (Section X's negative control): impersonates its
/// honest neighbors, broadcasting COMMITTED claims in their names with the
/// wrong value. Requires RadioNetwork::allow_spoofing(true). With spoofing
/// the no-spoofing assumption of Section II is void and honest nodes CAN be
/// driven to wrong commits — which is exactly what the experiment shows.
class SpoofingBehavior final : public NodeBehavior {
 public:
  SpoofingBehavior(std::uint8_t wrong_value, std::int32_t r, Metric m)
      : wrong_value_(wrong_value), r_(r), m_(m) {}

  void on_start(NodeContext& ctx) override;
  void on_receive(NodeContext& ctx, const Envelope& env) override;

 private:
  std::uint8_t wrong_value_;
  std::int32_t r_;
  Metric m_;
};

class CrashAtRoundBehavior final : public NodeBehavior {
 public:
  CrashAtRoundBehavior(std::unique_ptr<NodeBehavior> inner,
                       std::int64_t crash_round)
      : inner_(std::move(inner)), crash_round_(crash_round) {}

  void on_start(NodeContext& ctx) override;
  void on_receive(NodeContext& ctx, const Envelope& env) override;
  void on_round_end(NodeContext& ctx) override;

  std::optional<std::uint8_t> committed_value() const override {
    // A crashed node is faulty; it is never scored.
    return std::nullopt;
  }

 private:
  bool alive(const NodeContext& ctx) const;

  std::unique_ptr<NodeBehavior> inner_;
  std::int64_t crash_round_;
};

}  // namespace rbcast
