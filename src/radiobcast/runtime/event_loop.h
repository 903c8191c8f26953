#pragma once
// Edge-triggered epoll event loop and hashed timer wheel.
//
// The runtime paces every node by readiness: a node sleeps in epoll_wait
// until a datagram arrives or its earliest timer (link retransmission,
// barrier timeout, linger deadline) is due, so idle nodes burn no CPU.
//
// Edge-triggered contract: the kernel reports an fd once per readability
// *edge*, so the caller must drain the socket to EWOULDBLOCK before the next
// wait — which PerfectLink::poll already does (its receive loop runs until
// try_receive returns false). Edges that arrive while the fd is armed but
// the caller is outside epoll_wait are remembered by the kernel and reported
// by the next wait, so the drain-then-wait loop never loses a wakeup.
//
// The TimerWheel is the other half: instead of scanning every unacked batch
// each tick (O(batches) at 20 kHz), deadlines hash into coarse slots and
// advance() touches only the slots the clock passed. All methods take
// explicit time points, so tests drive the wheel with a fake clock — no
// sleeps, deterministic under sanitizer load.

#include <chrono>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace rbcast {

/// The runtime's one pacing loop. Nothing in the library reads this: it
/// stays only because the repo benchmark (bench/ledger/workloads.cpp), which
/// is frozen with its baselines, still assigns Scenario::backend.
enum class RuntimeBackend { kEpoll };

/// Hashed timer wheel keyed by caller-chosen 64-bit ids. schedule() upserts
/// (rescheduling an armed id moves its deadline), cancel() disarms, and
/// advance(now) fires everything due, in deadline order. Not thread-safe —
/// each node owns its own wheel, like its link and synchronizer.
class TimerWheel {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  explicit TimerWheel(
      std::chrono::microseconds tick = std::chrono::microseconds(1000),
      std::size_t slots = 256);

  /// Arms (or re-arms) timer `id` for `deadline`.
  void schedule(std::uint64_t id, TimePoint deadline);

  /// Disarms timer `id`; returns false when it was not armed.
  bool cancel(std::uint64_t id);

  /// Appends every armed id whose deadline is <= now to `fired` (sorted by
  /// deadline then id, for deterministic tests) and disarms them.
  void advance(TimePoint now, std::vector<std::uint64_t>& fired);

  /// Earliest armed deadline, or nullopt when nothing is armed. This is what
  /// bounds a node's epoll sleep.
  std::optional<TimePoint> next_deadline() const;

  std::size_t armed() const { return armed_.size(); }

 private:
  std::size_t slot_of(TimePoint t) const;

  std::chrono::microseconds tick_;
  /// slot -> (id, deadline) entries. An entry is live iff armed_ still maps
  /// its id to exactly its deadline; rescheduling leaves a stale entry behind
  /// that advance() discards when it sweeps past.
  std::vector<std::vector<std::pair<std::uint64_t, TimePoint>>> slots_;
  /// Authoritative id -> deadline map (cancel and next_deadline need it).
  std::unordered_map<std::uint64_t, TimePoint> armed_;
  TimePoint last_now_{};
  bool has_last_ = false;
};

/// Thin epoll wrapper: register datagram sockets, block until one is
/// readable or a deadline passes. One instance per node-owning thread.
class EventLoop {
 public:
  /// Throws std::system_error when epoll_create1 fails.
  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` for edge-triggered readability (EPOLLIN | EPOLLET).
  void add(int fd);
  void remove(int fd);

  /// Blocks until a registered fd has a readability edge or `deadline`
  /// passes (nullopt = no deadline). Returns true when woken by readiness.
  /// May wake spuriously; callers re-check their conditions.
  bool wait_until(std::optional<std::chrono::steady_clock::time_point>
                      deadline);

 private:
  int epfd_ = -1;
};

}  // namespace rbcast
