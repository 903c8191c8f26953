#pragma once
// Shared-socket multiplexed transport for in-process swarms.
//
// A 256-node in-process deployment with per-node UDP sockets needs 256 fds
// and funnels every datagram through kernel receive buffers sized for a
// handful of flows — at swarm burst rates the buffers overflow and the link
// layer spends its time retransmitting. SwarmHub collapses the swarm onto
// one socket: traffic between members is routed in memory through per-node
// mailboxes (mutex + condvar, so a member's wait() is a condvar wait
// instead of an epoll_wait), and only traffic to nodes *outside* the hub touches the
// shared socket, prefixed with an 8-byte (from, to) mux header.
//
// Identity: in-memory delivery stamps the sender index directly (same
// address space — the no-spoofing assumption is trivially preserved).
// Datagrams arriving on the shared socket are validated against the peer
// table: the mux header's `from` must resolve to the datagram's source port,
// which is the same source-address authority UdpTransport enforces, at hub
// granularity.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "radiobcast/runtime/transport.h"

namespace rbcast {

class SwarmHub {
 public:
  /// Binds the swarm's one shared socket on 127.0.0.1:`port` (0 =
  /// ephemeral). `node_count` is the deployment size; every node whose peer
  /// port equals this hub's port is a member (all of them, until set_peers
  /// says otherwise). Throws std::system_error on socket failures.
  explicit SwarmHub(std::uint32_t node_count, std::uint16_t port = 0);
  ~SwarmHub();

  SwarmHub(const SwarmHub&) = delete;
  SwarmHub& operator=(const SwarmHub&) = delete;

  std::uint16_t local_port() const { return local_port_; }
  std::uint32_t node_count() const {
    return static_cast<std::uint32_t>(mail_.size());
  }

  /// Installs the deployment-wide peer table: ports[i] is node i's port.
  /// Indices whose port equals local_port() are members of this hub (their
  /// traffic never leaves the process); the rest are reached through the
  /// shared socket. Not calling this at all means a fully local swarm.
  void set_peers(std::vector<std::uint16_t> ports);

  /// A Transport view for member `index`. Each node thread owns its view;
  /// views are safe to use concurrently with each other.
  std::unique_ptr<Transport> transport(std::uint32_t index);

 private:
  friend class SwarmTransport;

  struct Mailbox {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Datagram> queue;
  };

  void send_from(std::uint32_t from, std::uint32_t to,
                 std::vector<std::uint8_t> bytes);
  bool try_receive_for(std::uint32_t index, Datagram& out);
  void wait_for(std::uint32_t index,
                std::chrono::steady_clock::time_point deadline);
  void deliver_local(std::uint32_t from, std::uint32_t to,
                     std::vector<std::uint8_t> bytes);
  /// Drains the shared socket, routing validated datagrams to member
  /// mailboxes. Serialized on socket_mutex_; any member may pump.
  void pump_socket();
  bool is_member(std::uint32_t index) const {
    return peer_ports_.empty() || peer_ports_[index] == local_port_;
  }

  int fd_ = -1;
  std::uint16_t local_port_ = 0;
  std::vector<std::uint16_t> peer_ports_;
  bool any_remote_ = false;
  std::vector<std::unique_ptr<Mailbox>> mail_;
  std::mutex socket_mutex_;
};

/// One member's Transport view of its hub. send() routes through the hub
/// (in-memory to members, shared socket outward); try_receive() pops this
/// member's mailbox; wait() blocks on the mailbox condvar, so a swarm node
/// sleeps with zero fds of its own.
class SwarmTransport final : public Transport {
 public:
  SwarmTransport(SwarmHub& hub, std::uint32_t index)
      : hub_(&hub), index_(index) {}

  void send(std::uint32_t to, const std::vector<std::uint8_t>& bytes) override {
    hub_->send_from(index_, to, bytes);
  }
  void send(std::uint32_t to, std::vector<std::uint8_t>&& bytes) override {
    hub_->send_from(index_, to, std::move(bytes));
  }
  bool try_receive(Datagram& out) override {
    return hub_->try_receive_for(index_, out);
  }
  void wait(std::chrono::steady_clock::time_point deadline) override {
    hub_->wait_for(index_, deadline);
  }

 private:
  SwarmHub* hub_;
  std::uint32_t index_;
};

}  // namespace rbcast
