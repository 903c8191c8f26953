#pragma once
// One node of the networked runtime.
//
// RuntimeNode is the UDP-backed sibling of RadioNetwork: it implements the
// BroadcastBackend interface (net/backend.h), so the simulator's protocol
// code runs here unmodified — an honest crash-flood, cpa or bv-2hop node is
// a one-slot view of the pool the simulator shares across all its nodes
// (protocols/pool.h). The stack underneath is
//
//   NodeBehavior (protocols/*)      — the simulator's protocol logic
//   RuntimeNode                      — event loop, round mapping, verdicts,
//                                      per-receiver fan-out over CSR neighbors
//   RoundSynchronizer                — TDMA rounds on real time
//   PerfectLink                      — ack/retransmit, dedup, FIFO
//   Transport (UDP or SwarmHub,      — unreliable datagrams
//     optionally under ChaosTransport)
//
// Round mapping mirrors the simulator exactly: everything a behavior
// broadcasts while round() == k is tagged round k and delivered to every
// neighbor at round k+1, after the barrier confirms all round-k traffic is
// in; deliveries are replayed in the simulator's TDMA order (sender index
// ascending, per-sender FIFO). That, plus a shared node-population recipe
// (core/simulation.h's make_node_behavior), is what makes sim and runtime
// verdicts comparable bit-for-bit (tests/test_runtime_equivalence.cpp).

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "radiobcast/core/simulation.h"
#include "radiobcast/net/backend.h"
#include "radiobcast/obs/counters.h"
#include "radiobcast/obs/latency.h"
#include "radiobcast/obs/trace.h"
#include "radiobcast/grid/adjacency.h"
#include "radiobcast/runtime/perfect_link.h"
#include "radiobcast/runtime/round_sync.h"
#include "radiobcast/runtime/snapshot.h"
#include "radiobcast/runtime/transport.h"
#include "radiobcast/util/rng.h"

namespace rbcast {

/// The outcome one runtime node reports when its event loop exits.
struct RuntimeVerdict {
  std::int32_t index = 0;
  Coord self{};
  NodeRole role = NodeRole::kHonest;
  std::optional<std::uint8_t> committed;
  std::int64_t commit_round = -1;
  std::int64_t rounds = 0;
  /// All of this node's transmissions were acked before the linger deadline.
  bool lingered_clean = false;
  /// The loop exited early on a shutdown request (SIGINT/SIGTERM).
  bool interrupted = false;
  /// The loop exited via crash injection (Options::crash_at_round) or — in a
  /// placeholder verdict synthesized by the orchestrator — the process died
  /// before writing a real verdict. A crashed verdict makes the deployment
  /// degraded, never successful.
  bool crashed = false;
  Counters counters;
  /// Wall-clock duration of each finished round (barrier opened to round
  /// traffic flushed), microseconds. Timing-dependent: excluded from the
  /// deterministic verdict core (runtime/harness.h).
  LatencyHistogram round_latency;
  /// Wall-clock from run() start to each commit this node recorded.
  LatencyHistogram commit_latency;
};

class RuntimeNode final : public BroadcastBackend {
 public:
  struct Options {
    /// Protocol / topology configuration, interpreted exactly as
    /// run_simulation does. loss_p > 0 is realized as deterministic
    /// message-level suppression above the link (the PairwiseLossChannel
    /// schedule — see finish_round); retransmissions must be 1 (the link
    /// layer owns retransmission here); kSpoofing is rejected (socket
    /// identity makes it impossible) and kJamming is realized geometrically
    /// for jam_budget <= 0 only (a bounded budget is a globally ordered
    /// ledger no distributed node can replicate).
    SimConfig sim;
    Coord self{};
    NodeRole role = NodeRole::kHonest;
    /// Rounds to run; 0 = default_round_bound(sim), the simulator's horizon.
    std::int64_t max_rounds = 0;
    PerfectLink::Options link{};
    /// Barrier timeout per round (0 = wait forever). Equivalence runs use 0;
    /// deployments set a generous bound so one dead process cannot wedge the
    /// whole torus.
    std::chrono::milliseconds round_timeout{0};
    /// After the last round, keep acking/retransmitting until every peer got
    /// our traffic, at most this long.
    std::chrono::milliseconds linger_timeout{2000};
    /// Consecutive timed-out barriers before a missing peer stops gating
    /// rounds (RoundSynchronizer suspicion; 0 = never suspect).
    int suspect_after = 0;
    /// kJamming only: the jammers' canonical coordinates (the scenario's
    /// fault set) — the geometric blackout is computed from these.
    std::vector<Coord> jammers;
    /// Crash injection: _exit the event loop right after finishing this
    /// round (-1 = never). The verdict comes back with crashed = true; the
    /// caller decides whether to restart (see resume).
    std::int64_t crash_at_round = -1;
    /// When set, an fsync'd NodeSnapshot is written after every finished
    /// round, and `resume = true` restores from it instead of running
    /// on_start — the crash/restart recovery path (runtime/snapshot.h).
    std::string snapshot_path;
    bool resume = false;
    /// Optional event sink (round_started / message_delivered /
    /// node_committed, same schema as the simulator's). Not owned.
    RoundTrace* trace = nullptr;
    /// Cooperative shutdown probe, polled once per pump. Null = never stop.
    std::function<bool()> stop_requested;
    /// Test hook: overrides make_node_behavior (e.g. to wrap a behavior with
    /// an artificial delay for the slow-node test). Null = the shared recipe.
    std::function<std::unique_ptr<NodeBehavior>(const SimConfig&,
                                                const Torus&, NodeRole)>
        behavior_factory;
  };

  /// `transport` is borrowed and must outlive the node. Builds the node's
  /// behavior. Throws std::invalid_argument on configurations the runtime
  /// cannot realize, including geometry the protocol rejects (see
  /// make_node_behavior) — whatever the node's role.
  RuntimeNode(Options opts, Transport& transport);

  /// Runs the event loop to completion and reports the verdict. Blocking;
  /// call from the thread that owns the transport.
  RuntimeVerdict run();

  // BroadcastBackend:
  const Torus& torus() const override { return torus_; }
  std::int32_t radius() const override { return opts_.sim.r; }
  Metric metric() const override { return opts_.sim.metric; }
  std::int64_t round() const override { return round_; }
  Rng& rng() override { return rng_; }
  void record_commit(Coord node, std::uint8_t value) override;

 private:
  void queue_broadcast(Coord sender, Message msg) override;
  void queue_spoofed_broadcast(Coord actual_sender, Coord claimed_sender,
                               Message msg) override;

  /// Drains the link (feeding the synchronizer) and runs retransmissions.
  void pump();
  /// Idles until new traffic is plausible or `cap` passes: blocks on the
  /// transport's readiness mechanism (Transport::wait), bounded by the
  /// link's next retransmission deadline.
  void wait_for_traffic(std::chrono::steady_clock::time_point cap);
  /// Sends round k's queued broadcasts plus the ROUND_DONE(k) marker to each
  /// neighbor in turn — with the channel policy (loss / jamming) applied per
  /// receiver, so each marker's done_count is the number of messages that
  /// receiver was actually sent. Writes the state snapshot afterwards when
  /// configured.
  void finish_round(std::int64_t k, std::int64_t bound);
  /// True iff the channel policy suppresses this transmission to `receiver`
  /// (consumes one loss draw when the loss schedule is active).
  bool suppressed(std::uint32_t receiver);
  void write_state(std::int64_t k);
  /// Restores link / loss / verdict state from the snapshot; returns the
  /// last finished round, or -1 when no snapshot exists (fresh start).
  std::int64_t restore_state();
  bool stop_requested() const {
    return opts_.stop_requested && opts_.stop_requested();
  }

  Options opts_;
  Torus torus_;
  std::int32_t self_index_;
  Rng rng_;
  Transport* transport_;
  PerfectLink link_;
  RoundSynchronizer sync_;
  const Adjacency* adjacency_;
  std::unique_ptr<NodeBehavior> behavior_;
  std::int64_t round_ = 0;
  std::vector<Message> outbox_;
  std::vector<ReceivedMessage> rx_buffer_;
  Counters counters_;
  /// Per-receiver deterministic loss schedule (loss_p > 0): the same
  /// pairwise streams PairwiseLossChannel draws from, plus the draw counts
  /// that let a restart fast-forward to the right stream position.
  struct LossStream {
    Rng rng;
    std::uint64_t draws = 0;
  };
  std::unordered_map<std::uint32_t, LossStream> loss_;
  bool loss_active_ = false;
  /// Receivers blacked out by unbounded jamming (static geometry).
  std::vector<bool> jammed_receiver_;
  bool jam_active_ = false;
  /// Verdict floor restored from a pre-crash snapshot.
  std::optional<std::uint8_t> restored_committed_;
  std::int64_t restored_commit_round_ = -1;
  std::chrono::steady_clock::time_point run_start_{};
  LatencyHistogram round_hist_;
  LatencyHistogram commit_hist_;
};

}  // namespace rbcast
