#pragma once
// Structure-of-arrays node dispatch (docs/PERF.md, "Memory model").
//
// A NodePool hosts the protocol state of MANY nodes in dense arrays indexed
// by the CSR node index, instead of one heap-allocated NodeBehavior per node.
// The simulator delivers to pool-managed nodes through the pool (one object,
// flat state) and to everything else — the source, adversaries, bespoke test
// behaviors — through per-node NodeBehavior objects. The pool receives the
// same on_receive callbacks in the same order with the same NodeContext a
// per-node behavior would. Hosts that run one node at a time (the networked
// runtime) drive a one-slot view of the same pool, so both backends run one
// implementation; tests/test_pool_equivalence.cpp and the golden SHA-256
// suite pin that a one-slot-per-node network and a shared pool agree.
//
// Concrete pools live in protocols/pool.h (they depend on protocol
// machinery); this header is the net-layer contract only.

#include <cstdint>
#include <optional>

#include "radiobcast/net/backend.h"

namespace rbcast {

/// Flat multi-node protocol state. Callbacks mirror NodeBehavior's, with
/// the dense node index added so implementations address plain arrays. A
/// pool's only start work is its standing ignore mask (ignored()), which the
/// host installs. Round-end work is opt-in: the network sweeps a pool's
/// nodes at round end only if has_round_end() says so, so message-driven
/// pools cost nothing outside deliveries.
class NodePool {
 public:
  virtual ~NodePool() = default;

  /// Called for each transmission heard by a managed node.
  virtual void on_receive(NodeContext& ctx, std::int32_t node,
                          const Envelope& env) = 0;

  /// The message classes on_receive drops before touching state, for every
  /// node and from the start: the standing part of NodeContext::ignore's
  /// declaration. RadioNetwork::start sets them in each pool node's mask and
  /// PoolSlotBehavior declares them in on_start. Default: none.
  virtual MessageClasses ignored() const { return {}; }

  /// Called once per round for each managed node, after all of the round's
  /// deliveries, if has_round_end(). The network interleaves these calls
  /// with the behavior nodes' on_round_end in node-index order.
  virtual void on_round_end(NodeContext& /*ctx*/, std::int32_t /*node*/) {}
  virtual bool has_round_end() const { return false; }

  virtual std::optional<std::uint8_t> committed_value(
      std::int32_t node) const = 0;
  virtual std::optional<std::int64_t> commit_round(std::int32_t node) const = 0;

  /// Bytes of protocol state currently held, counted from logical sizes and
  /// the pool's own (deterministic) table growth schedule — never from
  /// std::vector capacities, so the figure is identical across standard
  /// libraries. Feeds Counters::engine_bytes_peak.
  virtual std::uint64_t state_bytes() const { return 0; }
};

}  // namespace rbcast
