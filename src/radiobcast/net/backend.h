#pragma once
// Backend-agnostic broadcast channel interface.
//
// Protocol behaviors (protocols/*) are written against NodeContext, which
// used to be welded to the synchronous simulator. This header splits the
// node-facing API — Envelope, NodeContext, NodeBehavior — from any concrete
// channel, behind the BroadcastBackend interface:
//
//   * net/network.h's RadioNetwork implements it as the paper's synchronous
//     reliable-local-broadcast model (in-memory, rounds advance by fiat);
//   * runtime/node.h's RuntimeNode implements it over real UDP sockets with
//     perfect links and a round synchronizer (docs/RUNTIME.md).
//
// The same protocol code therefore runs unmodified in simulation and in the
// networked runtime. For every protocol the simulator drives one pool over
// all honest nodes (net/pool.h) and the runtime hosts a one-slot view of
// that pool per node (protocols/pool.h, PoolSlotBehavior).
// Sim/runtime verdict equivalence is pinned by
// tests/test_runtime_equivalence.cpp.

#include <cstdint>
#include <optional>

#include "radiobcast/grid/coord.h"
#include "radiobcast/grid/metric.h"
#include "radiobcast/grid/torus.h"
#include "radiobcast/net/message.h"
#include "radiobcast/util/rng.h"

namespace rbcast {

/// A delivered transmission: `sender` is the true transmitter (unspoofable).
struct Envelope {
  Coord sender;
  Message msg;
};

/// What a channel implementation must provide to host node behaviors. All
/// methods are invoked from the single thread driving the node's callbacks.
class BroadcastBackend {
 public:
  virtual ~BroadcastBackend() = default;

  virtual const Torus& torus() const = 0;
  virtual std::int32_t radius() const = 0;
  virtual Metric metric() const = 0;
  /// Current round under the backend's round structure. The simulator
  /// advances it per run_round; the runtime's synchronizer maps it onto real
  /// time (same numbering, so commit rounds are comparable across backends).
  virtual std::int64_t round() const = 0;
  virtual Rng& rng() = 0;

  /// Queues a local broadcast from `sender` (the node driving the context);
  /// every neighbor of `sender` receives it in the next round.
  virtual void queue_broadcast(Coord sender, Message msg) = 0;

  /// Queues a broadcast whose Envelope::sender claims `claimed_sender` —
  /// address spoofing (Section X). Simulator-only negative control; backends
  /// without spoofing support throw std::logic_error.
  virtual void queue_spoofed_broadcast(Coord actual_sender,
                                       Coord claimed_sender, Message msg) = 0;

  /// Observability hook backing NodeContext::note_commit.
  virtual void record_commit(Coord node, std::uint8_t value) = 0;

  /// Dispatch hint backing NodeContext::ignore. The default delivers
  /// everything, which is always correct.
  virtual void ignore(Coord /*node*/, MessageClasses /*classes*/) {}
};

/// Capabilities handed to a behavior during its callbacks.
class NodeContext {
 public:
  NodeContext(BroadcastBackend& net, Coord self) : net_(&net), self_(self) {}

  Coord self() const { return self_; }
  const Torus& torus() const { return net_->torus(); }
  std::int32_t radius() const { return net_->radius(); }
  Metric metric() const { return net_->metric(); }
  std::int64_t round() const { return net_->round(); }
  Rng& rng() { return net_->rng(); }

  /// Queues a local broadcast; every neighbor receives it next round.
  void broadcast(Message msg) { net_->queue_broadcast(self_, std::move(msg)); }

  /// Queues a broadcast whose Envelope::sender claims to be
  /// `claimed_sender` — address spoofing (Section X). Only legal on backends
  /// that allow it (RadioNetwork::allow_spoofing); honest behaviors never
  /// call this.
  void broadcast_as(Coord claimed_sender, Message msg) {
    net_->queue_spoofed_broadcast(self_, claimed_sender, std::move(msg));
  }

  /// Observability hook: protocols call this exactly when their commit rule
  /// fires (see protocols/*::commit). Bumps the backend's commit counter and
  /// emits a node_committed trace event; has no effect on the protocol.
  void note_commit(std::uint8_t value) { net_->record_commit(self_, value); }

  /// Declares that this node's handler returns on every future delivery in
  /// `classes` before touching any state, so the backend may stop handing
  /// them over. Declarations accumulate; none is ever withdrawn. A node may
  /// declare only what it discards unconditionally from then on: the
  /// simulator skips those deliveries after counting and tracing them, while
  /// the runtime ignores the hint, and the sim-vs-runtime equivalence suite
  /// holds the two to the same verdicts.
  void ignore(MessageClasses classes) { net_->ignore(self_, classes); }

 private:
  BroadcastBackend* net_;
  Coord self_;
};

/// A node's protocol logic (honest or adversarial). Behaviors are
/// message-driven; all callbacks receive a context bound to this node.
class NodeBehavior {
 public:
  virtual ~NodeBehavior() = default;

  /// Called once before the first round.
  virtual void on_start(NodeContext& /*ctx*/) {}

  /// Called for each transmission heard (deliveries of the previous round).
  virtual void on_receive(NodeContext& ctx, const Envelope& env) = 0;

  /// Called once per round after all of this round's deliveries.
  virtual void on_round_end(NodeContext& /*ctx*/) {}

  /// The value this node has committed to, if any. Adversarial behaviors may
  /// return anything; the simulation scores only honest nodes.
  virtual std::optional<std::uint8_t> committed_value() const {
    return std::nullopt;
  }

  /// The round in which committed_value() became set (for propagation-stage
  /// analyses, Figs 9-10 and 14-19). Unset iff committed_value() is unset.
  virtual std::optional<std::int64_t> commit_round() const {
    return std::nullopt;
  }
};

}  // namespace rbcast
