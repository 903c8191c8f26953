#pragma once
// Protocol messages (Section VI).
//
//   COMMITTED(i, v)         — node i announces it committed to value v.
//   HEARD(j, ..., i, v)     — relayer chain: the *last* listed relayer is the
//                             node transmitting this copy; relayers[0] claims
//                             to have heard COMMITTED(i, v) from i directly.
//
// The radio channel (net/network.h) attaches the true transmitter identity to
// every delivery; honest nodes verify that a HEARD's outermost relayer equals
// the transmitter, which is what makes fabricated "sent by someone else"
// reports detectable (no address spoofing, Section II).

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

#include "radiobcast/grid/coord.h"

namespace rbcast {

enum class MsgType : std::uint8_t { kCommitted, kHeard };

/// Inline fixed-capacity relayer chain. The protocol bounds chains at three
/// intermediate relayers ("up to three intermediate nodes", Section VI), and
/// validators must be able to hold a rejected chain one longer than the
/// longest legal one, so capacity is 4. Keeping the storage inline makes a
/// Message trivially copyable: every queued / retransmitted / repeated copy
/// on the hot delivery path is a flat memcpy with zero heap traffic.
class RelayerChain {
 public:
  static constexpr std::size_t kCapacity = 4;

  constexpr RelayerChain() = default;
  RelayerChain(std::initializer_list<Coord> init) {
    if (init.size() > kCapacity) {
      throw std::length_error("RelayerChain: too many relayers");
    }
    for (const Coord c : init) nodes_[size_++] = c;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void push_back(Coord c) {
    if (size_ == kCapacity) {
      throw std::length_error("RelayerChain: capacity exceeded");
    }
    nodes_[size_++] = c;
  }

  Coord& operator[](std::size_t i) { return nodes_[i]; }
  Coord operator[](std::size_t i) const { return nodes_[i]; }
  Coord front() const { return nodes_[0]; }
  Coord back() const { return nodes_[size_ - 1]; }

  Coord* begin() { return nodes_.data(); }
  Coord* end() { return nodes_.data() + size_; }
  const Coord* begin() const { return nodes_.data(); }
  const Coord* end() const { return nodes_.data() + size_; }

  /// Escape hatch for callers that need a real vector (tests, analyses).
  std::vector<Coord> to_vector() const { return {begin(), end()}; }

  friend bool operator==(const RelayerChain& a, const RelayerChain& b) {
    if (a.size_ != b.size_) return false;
    for (std::size_t i = 0; i < a.size_; ++i) {
      if (a.nodes_[i] != b.nodes_[i]) return false;
    }
    return true;
  }

 private:
  std::array<Coord, kCapacity> nodes_{};
  std::uint8_t size_ = 0;
};

struct Message {
  MsgType type = MsgType::kCommitted;
  std::uint8_t value = 0;  // the binary broadcast value (0 or 1)
  Coord origin{};          // the committer the message is about
  // Relayer chain for kHeard, in forwarding order: relayers.front() heard the
  // COMMITTED directly; relayers.back() is the current transmitter. Empty for
  // kCommitted.
  RelayerChain relayers;

  friend bool operator==(const Message&, const Message&) = default;
};

/// A set of delivery classes: COMMITTED is one class, and HEARD is one class
/// per relayer count (0 through RelayerChain::kCapacity), so a node can name
/// exactly the deliveries its handler drops on arrival (NodeContext::ignore).
class MessageClasses {
 public:
  constexpr MessageClasses() = default;

  static constexpr MessageClasses all() { return MessageClasses(kAllBits); }
  /// Every COMMITTED.
  static constexpr MessageClasses committed() { return MessageClasses(1); }
  /// Every HEARD with at least `min_relayers` relayers
  /// (min_relayers <= RelayerChain::kCapacity).
  static constexpr MessageClasses heard_from(std::size_t min_relayers) {
    return MessageClasses(
        static_cast<std::uint8_t>(kAllBits & ~((2u << min_relayers) - 1)));
  }
  /// HEARDs with exactly `relayers` relayers
  /// (relayers <= RelayerChain::kCapacity).
  static constexpr MessageClasses heard_with(std::size_t relayers) {
    return MessageClasses(static_cast<std::uint8_t>(2u << relayers));
  }
  /// The one class `msg` belongs to.
  static MessageClasses of(const Message& msg) {
    return msg.type == MsgType::kCommitted ? committed()
                                           : heard_with(msg.relayers.size());
  }

  /// One bit per class: bit 0 is COMMITTED, bit 1 + k a HEARD with k
  /// relayers.
  constexpr std::uint8_t bits() const { return bits_; }

  friend constexpr MessageClasses operator|(MessageClasses a,
                                            MessageClasses b) {
    return MessageClasses(static_cast<std::uint8_t>(a.bits_ | b.bits_));
  }

 private:
  static constexpr std::uint8_t kAllBits =
      (1u << (RelayerChain::kCapacity + 2)) - 1;

  explicit constexpr MessageClasses(std::uint8_t bits) : bits_(bits) {}

  std::uint8_t bits_ = 0;
};

Message make_committed(Coord origin, std::uint8_t value);
Message make_heard(RelayerChain relayers, Coord origin, std::uint8_t value);

/// Human-readable rendering for logs and test failures.
std::string to_string(const Message& m);

}  // namespace rbcast
