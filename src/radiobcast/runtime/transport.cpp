#include "radiobcast/runtime/transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "radiobcast/runtime/wire.h"
#include "radiobcast/util/rng.h"

namespace rbcast {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

}  // namespace

UdpTransport::UdpTransport(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) throw_errno("socket");
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) < 0) {
    const int saved = errno;
    ::close(fd_);
    errno = saved;
    throw_errno("fcntl(O_NONBLOCK)");
  }
  sockaddr_in addr = loopback_addr(port);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int saved = errno;
    ::close(fd_);
    errno = saved;
    throw_errno("bind");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    const int saved = errno;
    ::close(fd_);
    errno = saved;
    throw_errno("getsockname");
  }
  local_port_ = ntohs(bound.sin_port);
  loop_.add(fd_);
}

UdpTransport::~UdpTransport() {
  if (fd_ >= 0) ::close(fd_);
}

void UdpTransport::set_peers(std::vector<std::uint16_t> ports) {
  peer_ports_ = std::move(ports);
}

void UdpTransport::send(std::uint32_t to,
                        const std::vector<std::uint8_t>& bytes) {
  if (to >= peer_ports_.size()) {
    throw std::out_of_range("UdpTransport::send: unknown peer index");
  }
  const sockaddr_in addr = loopback_addr(peer_ports_[to]);
  // Best-effort by contract: EWOULDBLOCK / transient buffer exhaustion is a
  // drop, exactly the failure PerfectLink's retransmission recovers from.
  (void)::sendto(fd_, bytes.data(), bytes.size(), 0,
                 reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
}

bool UdpTransport::try_receive(Datagram& out) {
  std::uint8_t buf[kMaxDatagram];
  for (;;) {
    sockaddr_in src{};
    socklen_t src_len = sizeof(src);
    const ssize_t n = ::recvfrom(fd_, buf, sizeof(buf), 0,
                                 reinterpret_cast<sockaddr*>(&src), &src_len);
    if (n < 0) return false;  // EWOULDBLOCK and friends: nothing pending
    const std::uint16_t src_port = ntohs(src.sin_port);
    // Resolve the transmitter from the source port. The peer table is the
    // runtime's identity authority; datagrams from unknown ports are dropped,
    // which enforces the no-spoofing model at the transport seam.
    for (std::uint32_t i = 0; i < peer_ports_.size(); ++i) {
      if (peer_ports_[i] == src_port) {
        out.from = i;
        out.bytes.assign(buf, buf + n);
        return true;
      }
    }
  }
}

void UdpTransport::wait(std::chrono::steady_clock::time_point deadline) {
  (void)loop_.wait_until(deadline);
}

ChaosTransport::ChaosTransport(std::uint32_t self, Transport& inner,
                               ChaosOptions opts)
    : self_(self), inner_(&inner), opts_(std::move(opts)) {
  start_ = now();
}

bool ChaosTransport::partitioned(
    std::uint32_t to, std::chrono::steady_clock::time_point now) const {
  const std::int64_t age_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(now - start_)
          .count();
  for (const ChaosOptions::Partition& p : opts_.partitions) {
    if (p.from != self_ || p.to != to) continue;
    if (age_ms < p.start_ms) continue;
    if (p.end_ms >= 0 && age_ms >= p.end_ms) continue;
    return true;
  }
  return false;
}

void ChaosTransport::release_due(std::chrono::steady_clock::time_point now) {
  // Insertion order is release order for a single delay value; scanning the
  // front suffices and keeps this O(due) per call.
  while (!delayed_.empty() && delayed_.front().release <= now) {
    Delayed d = std::move(delayed_.front());
    delayed_.pop_front();
    inner_->send(d.to, d.bytes);
  }
}

void ChaosTransport::send(std::uint32_t to,
                          const std::vector<std::uint8_t>& bytes) {
  const auto now = this->now();
  release_due(now);
  if (partitioned(to, now)) {
    ++stats_.partition_drops;
    return;
  }
  // One private Rng per datagram, seeded from (seed, sender->receiver pair,
  // per-pair sequence): the fate of the k-th datagram on a link is a pure
  // function of the scenario, never of cross-link interleaving.
  const std::uint64_t pair_key =
      (static_cast<std::uint64_t>(self_) << 32) | to;
  Rng rng(hash_seeds(hash_seeds(opts_.seed, pair_key), pair_seq_[to]++));
  if (rng.chance(opts_.drop_p)) {
    ++stats_.drops;
    return;
  }
  const bool duplicate = rng.chance(opts_.duplicate_p);
  if (rng.chance(opts_.delay_p) && opts_.delay.count() > 0) {
    ++stats_.delays;
    delayed_.push_back(Delayed{now + opts_.delay, to, bytes});
  } else {
    inner_->send(to, bytes);
  }
  if (duplicate) {
    ++stats_.duplicates;
    inner_->send(to, bytes);
  }
}

bool ChaosTransport::try_receive(Datagram& out) {
  release_due(now());
  return inner_->try_receive(out);
}

void ChaosTransport::wait(std::chrono::steady_clock::time_point deadline) {
  // A held datagram's release must not wait for the receiver's own deadline:
  // waking at the release time lets the next try_receive inject it, which is
  // what keeps delay chaos from turning into artificial barrier stalls.
  if (!delayed_.empty()) {
    deadline = std::min(deadline, delayed_.front().release);
  }
  inner_->wait(deadline);
}

}  // namespace rbcast
