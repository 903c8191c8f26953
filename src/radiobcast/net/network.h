#pragma once
// Synchronous radio network simulator implementing the paper's "reliable
// local broadcast" assumption (Section II):
//
//  * a message broadcast by a node is heard by *all* its neighbors in the
//    radio graph — on the torus, every node within distance r (no loss, no
//    collisions — the model assumes a TDMA schedule);
//  * receivers learn the true transmitter identity (no address spoofing);
//  * per-sender FIFO order is preserved for all receivers alike.
//
// Time advances in rounds: everything broadcast during round k is delivered
// to every neighbor at round k+1. Within a round, deliveries are processed
// sender-by-sender in node-index order and, per sender, in send order — a
// deterministic serialization of the TDMA schedule. The simulation is fully
// deterministic given the seed.
//
// Any radio graph runs here, not only the torus: the receivers come from an
// Adjacency, and node identity stays a Coord. Graph node v is Coord{v, 0}
// on an n x 1 Torus, whose wrap() and index() are the identity on canonical
// ids, so Message, Envelope, traces and every torus byte are the same types
// and bytes for both (graph/graph_protocols.h). A behavior hosted on a graph
// may use only the torus's wrap(), index() and node_count(): delta() and
// within() describe grid geometry the graph does not have.

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "radiobcast/grid/adjacency.h"
#include "radiobcast/grid/metric.h"
#include "radiobcast/grid/torus.h"
#include "radiobcast/net/backend.h"
#include "radiobcast/net/channel.h"
#include "radiobcast/net/message.h"
#include "radiobcast/net/pool.h"
#include "radiobcast/obs/counters.h"
#include "radiobcast/obs/trace.h"
#include "radiobcast/util/rng.h"

namespace rbcast {

/// Per-network traffic statistics.
struct TrafficStats {
  std::uint64_t transmissions = 0;  // broadcast() calls that were delivered
  std::uint64_t deliveries = 0;     // per-receiver envelope deliveries
  std::uint64_t drops = 0;          // deliveries suppressed by the channel
  /// Total payload transmitted, in coordinate-sized units: a COMMITTED costs
  /// 2 (origin + value rounded up), a HEARD costs 2 + |relayers|. Captures
  /// the fact that indirect reports carry whole paths, so "communication
  /// overhead" differs from the raw message count (Section VI-B).
  std::uint64_t payload_units = 0;
};

/// The synchronous simulator backend (see net/backend.h for the interface
/// contract and runtime/node.h for the networked sibling).
class RadioNetwork final : public BroadcastBackend {
 public:
  /// Transmissions by node i reach the nodes adjacency.receivers(i) lists;
  /// `adjacency` must outlive the network and have one row per torus node
  /// (std::invalid_argument otherwise).
  RadioNetwork(Torus torus, const Adjacency& adjacency, std::uint64_t seed);
  /// The torus radio graph: every node within distance r under `metric`
  /// (r >= 1) hears a transmission. Its adjacency is the cached
  /// Adjacency::get.
  RadioNetwork(Torus torus, std::int32_t r, Metric metric, std::uint64_t seed);
  RadioNetwork(RadioNetwork&&) = default;
  /// Hands the message buffers' capacity to this thread's spare, where the
  /// next network constructed on the thread takes it back.
  ~RadioNetwork() override;

  const Torus& torus() const override { return torus_; }
  std::int64_t round() const override { return round_; }
  Rng& rng() override { return rng_; }

  /// Installs the behavior for a node (replacing any previous one). All nodes
  /// must have behaviors before run() is called.
  void set_behavior(Coord c, std::unique_ptr<NodeBehavior> behavior);

  /// Installs a structure-of-arrays pool (net/pool.h). Nodes join it via
  /// assign_to_pool; everything else keeps per-node behaviors. Must be set
  /// before start().
  void set_pool(std::unique_ptr<NodePool> pool);
  NodePool* pool() { return pool_.get(); }
  const NodePool* pool() const { return pool_.get(); }

  /// Marks a node as pool-managed (clearing any behavior). Requires a pool.
  void assign_to_pool(Coord c);

  /// Replaces the channel model (default: PerfectChannel). See net/channel.h.
  void set_channel(std::unique_ptr<ChannelModel> channel);

  /// Every broadcast is transmitted `count` times, in consecutive rounds,
  /// each with independent channel draws — the retransmission-based
  /// probabilistic local-broadcast primitive of the Section II remark.
  /// Precondition: count >= 1. Default 1 (the paper's model).
  void set_retransmissions(int count);

  /// Observability hook backing NodeContext::note_commit.
  void record_commit(Coord node, std::uint8_t value) override;

  /// Permits NodeContext::broadcast_as (Section X's address-spoofing
  /// adversary). Off by default: the paper's model has no spoofing, and the
  /// spoofing experiments are a negative control showing safety genuinely
  /// depends on this assumption.
  void allow_spoofing(bool allowed) { spoofing_allowed_ = allowed; }

  NodeBehavior* behavior(Coord c);
  const NodeBehavior* behavior(Coord c) const;

  /// Verdict accessors dispatching to the pool or the node's behavior —
  /// the one query path that works for both kinds of nodes.
  std::optional<std::uint8_t> committed_value_of(Coord c) const;
  std::optional<std::int64_t> commit_round_of(Coord c) const;

  /// Calls on_start on every behavior node (node-index order) and sets the
  /// pool's standing classes (NodePool::ignored) in each pool node's ignore
  /// mask. Must be called exactly once, before the first run_round().
  void start();

  /// Delivers everything sent in the previous round, then runs on_round_end
  /// for every behavior node and, if the pool has round-end work, every
  /// pool node, in one node-index-ordered sweep.
  void run_round();

  /// True when no transmissions are waiting for delivery.
  bool quiescent() const { return pending_.empty(); }

  /// Runs rounds until quiescent or max_rounds is hit; returns rounds run.
  std::int64_t run_until_quiescent(std::int64_t max_rounds);

  const TrafficStats& stats() const { return stats_; }

  /// Observability counters (always maintained; see obs/counters.h for the
  /// field-by-field semantics and the single-thread/no-atomics contract).
  const Counters& counters() const { return counters_; }

  /// Attaches an event sink (not owned; pass nullptr to detach). The network
  /// emits round_started / message_delivered / node_committed events into it;
  /// with no sink — the default — every emission site is one pointer test.
  void set_trace(RoundTrace* trace) { trace_ = trace; }
  RoundTrace* trace() const { return trace_; }

  /// Transmission count of one node (for the overhead experiments).
  std::uint64_t transmissions_of(Coord c) const;

 private:
  /// Folds the current engine-state footprint into
  /// counters_.engine_bytes_peak (obs/counters.h documents what is counted).
  void update_engine_bytes();
  // BroadcastBackend send hooks: reachable only through a NodeContext (or the
  // base interface), mirroring the historical friend-only access.
  void queue_broadcast(Coord sender, Message msg) override;
  void queue_spoofed_broadcast(Coord actual_sender, Coord claimed_sender,
                               Message msg) override;
  void count_queued(const Message& msg);
  /// Sets `classes` in the node's ignore mask (NodeContext::ignore).
  void ignore(Coord node, MessageClasses classes) override;

  /// A transmission awaiting delivery; `repeats_left` further copies will be
  /// scheduled in subsequent rounds. `actual_sender` determines who hears it
  /// (it differs from envelope.sender only for spoofed transmissions);
  /// `sender_index` is its dense node index, precomputed at queue time so the
  /// delivery loop never touches coordinate arithmetic.
  struct Pending {
    Envelope envelope;
    Coord actual_sender;
    std::int32_t sender_index;
    int repeats_left;
  };

  /// Hands `env` to node `ri` unless its ignore mask holds `class_flag`
  /// (the transmission's class bit, shifted to the mask's position).
  void dispatch(std::int32_t ri, const Envelope& env, std::uint8_t class_flag);

  /// Message buffers of networks destroyed on this thread, cleared, largest
  /// capacity first.
  static std::array<std::vector<Pending>, 3>& spare_buffers();

  /// node_flags_ bits: bit 0 marks a pool-managed node; bits 1 and up hold
  /// the ignore mask, MessageClasses::bits() shifted by kIgnoreShift.
  static constexpr std::uint8_t kPoolManaged = 1;
  static constexpr int kIgnoreShift = 1;

  Torus torus_;
  Rng rng_;
  std::int64_t round_ = 0;
  bool started_ = false;
  int retransmissions_ = 1;
  bool spoofing_allowed_ = false;
  std::unique_ptr<ChannelModel> channel_;
  bool channel_always_delivers_ = true;  // cached channel_->always_delivers()

  // Hot-path precomputation (docs/PERF.md): the CSR fan-out maps sender
  // index -> receiver indices, and node_coords_ inverts dense indices back
  // to canonical coordinates with one array read.
  const Adjacency& adjacency_;
  std::vector<Coord> node_coords_;

  std::vector<std::unique_ptr<NodeBehavior>> behaviors_;  // by node index
  std::unique_ptr<NodePool> pool_;      // optional SoA state (net/pool.h)
  std::vector<std::uint8_t> node_flags_;  // by node index, bits as above
  // The round-end sweep, in index order (at start()): the behavior nodes,
  // plus the pool nodes if the pool has round-end work.
  std::vector<std::int32_t> sweep_nodes_;
  std::uint64_t fixed_state_bytes_ = 0;       // computed at start()
  std::vector<std::uint64_t> tx_count_;                   // by node index
  std::vector<Pending> pending_;  // sent last round, deliver this round
  std::vector<Pending> outbox_;   // sent this round
  std::vector<Pending> repeats_;  // per-round retransmission scratch
  TrafficStats stats_;
  Counters counters_;
  RoundTrace* trace_ = nullptr;  // optional event sink, not owned
};

}  // namespace rbcast
