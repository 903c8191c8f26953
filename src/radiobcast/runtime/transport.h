#pragma once
// Datagram transports for the networked runtime.
//
// Transport is the narrow seam beneath PerfectLink: an unreliable,
// unordered, possibly-duplicating datagram service addressed by node index.
// UdpTransport is the real thing (nonblocking UDP sockets on loopback or any
// configured peer table); SwarmHub (runtime/swarm.h) multiplexes in-process
// nodes onto one socket; ChaosTransport wraps either and deterministically
// drops / duplicates / delays datagrams — in deployments, and in the
// perfect-link tests that prove no-loss / no-dup / FIFO over SwarmHub
// mailboxes without flaky timing.

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "radiobcast/runtime/event_loop.h"

namespace rbcast {

/// A received datagram plus the node index of its transmitter.
struct Datagram {
  std::uint32_t from = 0;
  std::vector<std::uint8_t> bytes;
};

/// Unreliable datagram service addressed by node index.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Best-effort send to node `to`. May silently drop.
  virtual void send(std::uint32_t to, const std::vector<std::uint8_t>& bytes) = 0;

  /// Rvalue overload: transports that buffer in-process (SwarmHub mailboxes)
  /// take ownership of the datagram instead of copying it — PerfectLink's
  /// hot path hands freshly encoded packets through here. Defaults to the
  /// copying path; kernel-backed transports never need to override it.
  virtual void send(std::uint32_t to, std::vector<std::uint8_t>&& bytes) {
    send(to, bytes);
  }

  /// Non-blocking receive; returns false when nothing is pending.
  virtual bool try_receive(Datagram& out) = 0;

  /// Blocks until a datagram is plausibly receivable or `deadline` passes.
  /// May wake spuriously; callers re-check their conditions. The caller must
  /// have drained try_receive to false first (UdpTransport's epoll wait is
  /// edge-triggered).
  virtual void wait(std::chrono::steady_clock::time_point deadline) = 0;
};

/// UDP/IPv4 transport. Each node owns one nonblocking socket; peers are
/// addressed through a (host, port) table indexed by node index. Datagram
/// origin is resolved by matching the source address against the peer table,
/// which is what makes sender identity unspoofable in the runtime model
/// (Section II's no-spoofing assumption, realized by the socket layer).
class UdpTransport final : public Transport {
 public:
  /// Binds a nonblocking UDP socket on 127.0.0.1:`port` (0 = ephemeral).
  /// Throws std::system_error on socket failures.
  explicit UdpTransport(std::uint16_t port);
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  /// The locally bound port (resolved after an ephemeral bind).
  std::uint16_t local_port() const { return local_port_; }

  /// Installs the peer table: peers[i] is the loopback port of node i.
  /// Must be called before send/try_receive resolve anything.
  void set_peers(std::vector<std::uint16_t> ports);

  using Transport::send;
  void send(std::uint32_t to, const std::vector<std::uint8_t>& bytes) override;
  /// Returns the next datagram from a peer-table port. Datagrams from any
  /// other port are discarded on the way, so one stray never ends a drain
  /// with real traffic still queued behind it.
  bool try_receive(Datagram& out) override;

  /// Epoll-backed wait: sleeps until the socket has a readability edge or
  /// the deadline passes.
  void wait(std::chrono::steady_clock::time_point deadline) override;

 private:
  int fd_ = -1;
  std::uint16_t local_port_ = 0;
  std::vector<std::uint16_t> peer_ports_;
  EventLoop loop_;
};

/// Chaos knobs for one node's outgoing traffic (the scenario file's `chaos`
/// section, runtime/scenario.h). All probabilities are per-datagram.
struct ChaosOptions {
  double drop_p = 0.0;       // destroy the datagram
  double duplicate_p = 0.0;  // inject a second copy
  double delay_p = 0.0;      // hold the datagram back for `delay`
  std::chrono::milliseconds delay{0};
  std::uint64_t seed = 1;
  /// Test seam: overrides the clock the delay/partition machinery reads
  /// (null = steady_clock). Lets the delay tests advance time explicitly
  /// instead of sleeping — deterministic under sanitizer load.
  std::function<std::chrono::steady_clock::time_point()> clock;
  /// A directed link blackout: datagrams from node `from` to node `to` are
  /// destroyed while the deployment age is in [start_ms, end_ms) — end_ms < 0
  /// means forever. Modeled after iptables-style one-way partitions.
  struct Partition {
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    std::int64_t start_ms = 0;
    std::int64_t end_ms = -1;
  };
  std::vector<Partition> partitions;

  bool enabled() const {
    return drop_p > 0.0 || duplicate_p > 0.0 || delay_p > 0.0 ||
           !partitions.empty();
  }
};

/// What the chaos layer did to this node's traffic; mirrored into the obs
/// counter pipeline (chaos_* fields) by the harness / node binary.
struct ChaosStats {
  std::uint64_t drops = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t delays = 0;
  std::uint64_t partition_drops = 0;
};

/// Seeded fault injection, the runtime's one fault shim: wraps any Transport
/// (UdpTransport or a SwarmHub view in deployments, SwarmHub mailboxes in the
/// perfect-link tests) and decides each outgoing datagram's fate —
/// drop, duplicate, delay, or partition suppression — deterministically from
/// (seed, sender, receiver, per-pair datagram sequence). Two runs of the same
/// scenario inject the exact same faults, regardless of scheduling; only the
/// recovery timing (retransmissions) differs. Delayed datagrams are released
/// by later send/try_receive calls once their deadline passes, so no extra
/// thread is involved.
class ChaosTransport final : public Transport {
 public:
  /// `inner` is borrowed and must outlive this object. `self` is this node's
  /// index (partitions are filtered to `from == self`).
  ChaosTransport(std::uint32_t self, Transport& inner, ChaosOptions opts);

  using Transport::send;
  void send(std::uint32_t to, const std::vector<std::uint8_t>& bytes) override;
  bool try_receive(Datagram& out) override;

  /// Forwards to the inner transport, bounded by the next delayed-datagram
  /// release so held traffic is injected on time even while the receiver
  /// sleeps. (Assumes the real clock; the ChaosOptions::clock test seam is
  /// for single-threaded delay tests that never wait.)
  void wait(std::chrono::steady_clock::time_point deadline) override;

  const ChaosStats& stats() const { return stats_; }

 private:
  struct Delayed {
    std::chrono::steady_clock::time_point release{};
    std::uint32_t to = 0;
    std::vector<std::uint8_t> bytes;
  };

  /// True when the (self -> to) link is inside a partition window at `now`.
  bool partitioned(std::uint32_t to,
                   std::chrono::steady_clock::time_point now) const;
  void release_due(std::chrono::steady_clock::time_point now);
  std::chrono::steady_clock::time_point now() const {
    return opts_.clock ? opts_.clock() : std::chrono::steady_clock::now();
  }

  std::uint32_t self_;
  Transport* inner_;
  ChaosOptions opts_;
  ChaosStats stats_;
  std::chrono::steady_clock::time_point start_;
  /// Per-destination datagram sequence: the chaos fate of datagram k to peer
  /// p is Rng(hash_seeds(hash_seeds(seed, pair_key(self, p)), k)) — stable
  /// under any interleaving with traffic to other peers.
  std::unordered_map<std::uint32_t, std::uint64_t> pair_seq_;
  std::deque<Delayed> delayed_;  // sorted by insertion; released when due
};

}  // namespace rbcast
