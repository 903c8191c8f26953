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
//                       sending each distinct lie (up to wrap-around) once.
//                       It is built against the protocol it attacks and
//                       forges only lies that protocol's honest nodes read:
//                       none against crash-flood and CPA, one-relayer lies
//                       against bv-2hop, every lie against bv-4hop. The
//                       safety-critical corner: Theorem 2 predicts it can
//                       never cause an honest wrong commit.
//  * CrashAtRound     — behaves honestly (delegating to an inner behavior)
//                       until a given round, then goes permanently silent:
//                       crash-stop mid-protocol.

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

class LyingBehavior final : public NodeBehavior {
 public:
  /// `wrong_value` is the value the adversary pushes (the complement of the
  /// source's value in the experiments). `unread` is the attacked protocol's
  /// standing classes (NodePool::ignored()), which its honest nodes drop
  /// unread from the start. The liar answers a delivery with
  /// HEARD(relayers + [self], origin, wrong value) — one relayer for a
  /// COMMITTED, k + 1 for a HEARD with k — only if that lie's class is not
  /// unread, and declares every delivery class it does not answer. With no
  /// unread classes it forges every lie.
  explicit LyingBehavior(std::uint8_t wrong_value, MessageClasses unread = {});

  /// Throws std::invalid_argument on a torus of 2^21 or more nodes, whose
  /// node indices do not fit the lie key.
  void on_start(NodeContext& ctx) override;
  void on_receive(NodeContext& ctx, const Envelope& env) override;

 private:
  std::uint8_t wrong_value_;
  // The delivery classes the liar does not answer: on_start declares them,
  // and on_receive drops them for hosts that dispatch every class anyway.
  MessageClasses unanswered_;
  // Every lie sent so far: bounds the liar's volume, not its honesty. Every
  // lie is HEARD(relayers + [liar], origin, wrong value), so its key packs
  // the canonical node index of the origin and of each of the 0-2 relayers
  // it extends, 21 bits each; a relayer is stored as index + 1, so an absent
  // one never equals node 0. Two lies share a key iff they are equal up to
  // wrap-around. A delivery costs one probe; the table is never iterated, so
  // its layout cannot reach the output. Not counted in engine_bytes_peak.
  PackedKeySet sent_;
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
