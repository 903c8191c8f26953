#pragma once
// Perfect point-to-point links over an unreliable datagram transport.
//
// Classic stubborn-link + dedup construction: every WireMessage gets a packed
// 64-bit id (sender index << 32 | per-link sequence number) and is
// retransmitted with exponential backoff until acked; receivers ack every
// copy, drop duplicates by id, and release messages to the application in
// per-sender FIFO order (a reorder buffer holds out-of-order arrivals until
// the sequence gap closes). Up to kMaxBatch messages ride in one DATA
// datagram and acks are batched likewise, so steady-state traffic is a small
// multiple of the application rate.
//
// Guarantees (proved under fault injection in tests/test_perfect_link.cpp):
// no loss (every sent message is eventually delivered while both ends keep
// polling), no duplication, per-sender FIFO delivery.

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "radiobcast/runtime/event_loop.h"
#include "radiobcast/runtime/transport.h"
#include "radiobcast/runtime/wire.h"

namespace rbcast {

/// A message released by the link in per-sender FIFO order.
struct ReceivedMessage {
  std::uint32_t from = 0;
  WireMessage msg;
};

/// Link-level traffic statistics, mirrored into obs/ Counters by the runtime
/// node. Timing-dependent (unlike the simulator's counters): two identical
/// runs may retransmit differently.
struct LinkStats {
  std::uint64_t packets_sent = 0;            // DATA datagrams transmitted
  std::uint64_t packets_retransmitted = 0;   // of which were retransmissions
  std::uint64_t packets_acked = 0;           // message ids acked by peers
  std::uint64_t duplicates_dropped = 0;      // received copies already seen
};

/// The link's sequence-number state: everything a restarted process needs so
/// its fresh PerfectLink neither reuses an outgoing sequence number (which a
/// peer would dedup-drop as a stale id) nor re-accepts traffic it already
/// consumed (which would violate no-dup upstream). Captured at a quiescent
/// point — after flush(), with no batches in flight from this side — by the
/// crash-snapshot machinery (runtime/snapshot.h).
struct LinkState {
  /// (peer, next outgoing sequence number), sorted by peer.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out_next_seq;
  /// (peer, next inbound sequence number not yet consumed), sorted by peer.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> in_next_seq;

  friend bool operator==(const LinkState&, const LinkState&) = default;
};

class PerfectLink {
 public:
  struct Options {
    std::chrono::milliseconds initial_rto = std::chrono::milliseconds(20);
    std::chrono::milliseconds max_rto = std::chrono::milliseconds(500);
  };

  /// `transport` is borrowed and must outlive the link. The two-argument
  /// overload uses default Options (a separate overload, not a default
  /// argument: GCC requires nested-class NSDMIs before the enclosing class
  /// is complete when spelled as a default argument).
  PerfectLink(std::uint32_t self, Transport& transport);
  PerfectLink(std::uint32_t self, Transport& transport, Options opts);

  std::uint32_t self() const { return self_; }

  /// Queues `msg` for reliable delivery to node `to`. Batches of kMaxBatch
  /// are flushed eagerly; call flush() to push out a partial batch.
  void send(std::uint32_t to, const WireMessage& msg);

  /// Transmits all partially filled outgoing batches.
  void flush();

  /// Drains the transport: acks and dedups inbound DATA, applies inbound
  /// ACKs, and appends newly in-order messages to `out`. Call frequently.
  void poll(std::vector<ReceivedMessage>& out);

  /// Retransmits every unacked batch whose backoff deadline has passed.
  /// Driven by a timer wheel: O(due batches), not O(unacked batches).
  void tick(std::chrono::steady_clock::time_point now);

  /// Earliest retransmission deadline across unacked batches, or nullopt
  /// when everything is acked — the link's contribution to the node's
  /// wait bound.
  std::optional<std::chrono::steady_clock::time_point> next_deadline() const {
    return wheel_.next_deadline();
  }

  /// True when every message ever sent has been acked (used by the runtime's
  /// linger phase: a node may only exit once its last transmissions landed).
  bool all_acked() const { return unacked_.empty() && pending_total_ == 0; }

  const LinkStats& stats() const { return stats_; }

  /// Captures the sequence-number state (see LinkState). Deterministic
  /// (sorted by peer) so snapshots serialize reproducibly.
  LinkState export_state() const;

  /// Restores sequence numbers on a freshly constructed link (restart path).
  /// Must be called before any send/poll traffic.
  void restore_state(const LinkState& state);

 private:
  struct OutgoingBatch {
    std::uint32_t to = 0;
    std::vector<WireEntry> entries;
    std::chrono::milliseconds rto{};
  };

  /// Sequence numbers are per-destination, so ids alone collide across
  /// destinations; (destination << 32 | seq) is the globally unique key the
  /// batch map, ack index, and timer wheel all share.
  static std::uint64_t dest_key(std::uint32_t to, std::uint32_t seq) {
    return (static_cast<std::uint64_t>(to) << 32) | seq;
  }

  struct PeerIn {
    /// Next sequence number the application has not yet consumed.
    std::uint32_t next_seq = 0;
    /// Out-of-order arrivals waiting for the gap to close (ordered by seq).
    std::map<std::uint32_t, WireMessage> reorder;
    /// Ids seen (acked + delivered-or-buffered); entries below next_seq are
    /// implicitly seen, so the set only tracks the sparse out-of-order tail.
    std::unordered_set<std::uint32_t> seen_ahead;
  };

  void transmit(std::uint64_t key, OutgoingBatch& batch, bool is_retransmit,
                std::chrono::steady_clock::time_point now);
  void flush_pending(std::uint32_t to);
  void send_acks();

  std::uint32_t self_;
  Transport* transport_;
  Options opts_;
  LinkStats stats_;
  /// Next outgoing sequence number per destination (per-destination so the
  /// receiver's contiguity check never sees gaps from third-party traffic).
  std::unordered_map<std::uint32_t, std::uint32_t> out_seq_;
  /// Messages queued but not yet wrapped into a transmitted batch, per peer.
  std::unordered_map<std::uint32_t, std::vector<WireEntry>> pending_;
  std::size_t pending_total_ = 0;
  /// Transmitted batches awaiting acks, keyed by dest_key of their first
  /// entry. Acks arrive per-message; a batch is retired (and its wheel timer
  /// cancelled) when all its entries are acked.
  std::unordered_map<std::uint64_t, OutgoingBatch> unacked_;
  /// dest_key of every in-flight entry -> its batch's key, so an inbound ack
  /// finds its batch in O(1) instead of scanning all unacked batches.
  std::unordered_map<std::uint64_t, std::uint64_t> ack_index_;
  /// Retransmission deadlines, one armed timer per unacked batch.
  TimerWheel wheel_;
  std::vector<std::uint64_t> fired_;  // tick() scratch
  /// Ack ids owed to each peer, flushed at the end of every poll().
  std::unordered_map<std::uint32_t, std::vector<std::uint64_t>> acks_owed_;
  std::unordered_map<std::uint32_t, PeerIn> inbound_;
};

}  // namespace rbcast
