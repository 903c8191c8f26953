#pragma once
// Round synchronizer: maps TDMA rounds onto real time.
//
// The simulator advances rounds by fiat; the runtime has no global clock, so
// each node ends its round k by broadcasting a ROUND_DONE(k, n) marker to its
// neighbors, where n is the number of protocol messages it transmitted in
// round k. Perfect links deliver per-sender FIFO, so when a neighbor's
// marker arrives, all n of its round-k messages have arrived too. A node's
// barrier for round k opens when every expected neighbor's marker is in — or
// when the optional timeout expires, which lets correct nodes outrun a dead
// or wedged process (counted in `timeouts`).
//
// take() releases the round's messages sorted by sender index ascending with
// per-sender arrival (FIFO) order preserved — exactly the TDMA slot order the
// simulator delivers in, which is the ordering half of the sim/runtime
// verdict-equivalence argument (docs/RUNTIME.md).

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "radiobcast/runtime/wire.h"

namespace rbcast {

/// A round-k protocol message attributed to its authenticated transmitter.
struct RoundMessage {
  std::uint32_t sender = 0;
  Message msg;
};

class RoundSynchronizer {
 public:
  struct Options {
    /// Max wait for one round's barrier; zero means wait forever.
    std::chrono::milliseconds timeout{0};
    /// Graceful degradation: after this many *consecutive* timed-out rounds
    /// missing the same peer, that peer is suspected and no longer gates the
    /// barrier (0 = never suspect). A marker from a suspected peer clears the
    /// suspicion immediately — the mechanism that lets a restarted process
    /// rejoin the round structure it fell out of.
    int suspect_after = 0;
    /// Adaptive backoff: every timed-out barrier doubles the effective
    /// timeout (transient congestion should not cascade into a spurious
    /// suspicion storm), every fully complete barrier resets it. The
    /// multiplier is capped at this value.
    int max_backoff = 8;
  };

  /// `expected` lists the node indices whose ROUND_DONE markers gate every
  /// round (this node's neighbors).
  RoundSynchronizer(std::vector<std::uint32_t> expected, Options opts);

  /// Starts the barrier clock for round k.
  void begin_round(std::int64_t round,
                   std::chrono::steady_clock::time_point now);

  /// Feeds one in-order message from the link (protocol or ROUND_DONE).
  void on_message(std::uint32_t from, const WireMessage& msg);

  /// True when every expected neighbor's round-k marker (and therefore, by
  /// FIFO, all its round-k messages) has arrived.
  bool complete(std::int64_t round) const;

  /// True when the barrier should open despite missing markers. Never true
  /// with a zero timeout.
  bool timed_out(std::int64_t round,
                 std::chrono::steady_clock::time_point now) const;

  /// The instant timed_out(round) will flip true, or nullopt when the round's
  /// clock is not running or the timeout is zero — the synchronizer's
  /// contribution to the node's wait bound.
  std::optional<std::chrono::steady_clock::time_point> deadline(
      std::int64_t round) const;

  /// Releases round k's messages in TDMA order (sender index ascending,
  /// per-sender FIFO) and drops the round's bookkeeping. Call once per round,
  /// after complete() or timed_out().
  std::vector<RoundMessage> take(std::int64_t round);

  /// Barriers opened by timeout rather than completion.
  std::uint64_t timeouts() const { return timeouts_; }

  /// Peers currently on the suspect list (not gating barriers).
  std::size_t suspected_count() const { return suspected_.size(); }
  bool is_suspected(std::uint32_t peer) const {
    return suspected_.count(peer) > 0;
  }

  /// Total suspicion *transitions* (a peer suspected, cleared, and suspected
  /// again counts twice) — feeds the peers_suspected obs counter.
  std::uint64_t suspect_transitions() const { return suspect_transitions_; }

  /// Rounds released with at least one expected peer's traffic missing
  /// (opened by timeout, or complete only because suspects were skipped).
  std::uint64_t degraded_rounds() const { return degraded_rounds_; }

  /// Current adaptive timeout multiplier (1 = no backoff), for tests.
  int backoff() const { return backoff_; }

 private:
  struct PeerRound {
    std::vector<Message> msgs;  // arrival order == per-sender FIFO order
    std::optional<std::uint32_t> done_count;
  };
  struct RoundState {
    /// Keyed by sender index; std::map so take() walks senders ascending.
    std::map<std::uint32_t, PeerRound> peers;
    std::chrono::steady_clock::time_point started{};
    bool clock_running = false;
  };

  std::vector<std::uint32_t> expected_;
  Options opts_;
  std::unordered_map<std::int64_t, RoundState> rounds_;
  std::uint64_t timeouts_ = 0;
  /// Consecutive timed-out rounds each peer's marker was missing from.
  std::unordered_map<std::uint32_t, int> miss_streak_;
  std::unordered_set<std::uint32_t> suspected_;
  std::uint64_t suspect_transitions_ = 0;
  std::uint64_t degraded_rounds_ = 0;
  int backoff_ = 1;
};

}  // namespace rbcast
