#include "radiobcast/runtime/event_loop.h"

#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <limits>
#include <system_error>

namespace rbcast {

TimerWheel::TimerWheel(std::chrono::microseconds tick, std::size_t slots)
    : tick_(tick.count() > 0 ? tick : std::chrono::microseconds(1)),
      slots_(slots > 0 ? slots : 1) {}

std::size_t TimerWheel::slot_of(TimePoint t) const {
  const auto ticks = std::chrono::duration_cast<std::chrono::microseconds>(
                         t.time_since_epoch())
                         .count() /
                     tick_.count();
  return static_cast<std::size_t>(ticks) % slots_.size();
}

void TimerWheel::schedule(std::uint64_t id, TimePoint deadline) {
  armed_[id] = deadline;
  // A deadline already in the past is placed at the wheel's current position
  // so the very next advance() visits it — a past deadline must not wait a
  // full lap (the zero-RTO eager links in tests rely on this).
  const TimePoint place =
      has_last_ ? std::max(deadline, last_now_) : deadline;
  slots_[slot_of(place)].emplace_back(id, deadline);
}

bool TimerWheel::cancel(std::uint64_t id) {
  // The slot entry stays behind as a stale pair; advance() discards it when
  // its sweep reaches the slot (live iff armed_ agrees on the deadline).
  return armed_.erase(id) > 0;
}

void TimerWheel::advance(TimePoint now, std::vector<std::uint64_t>& fired) {
  if (has_last_ && now < last_now_) return;  // monotone clock only
  std::vector<std::pair<TimePoint, std::uint64_t>> due;
  const std::size_t n = slots_.size();
  // Slots the clock swept over since the last advance; a gap of a full lap
  // (or the first advance ever) degenerates to scanning every slot, which
  // is the wheel's worst case and still O(armed).
  std::size_t first = 0;
  std::size_t count = n;
  if (has_last_) {
    const auto elapsed = now - last_now_;
    if (elapsed < tick_ * static_cast<std::int64_t>(n)) {
      first = slot_of(last_now_);
      count = (slot_of(now) + n - first) % n + 1;
    }
  }
  for (std::size_t i = 0; i < count; ++i) {
    auto& slot = slots_[(first + i) % n];
    std::size_t kept = 0;
    for (auto& entry : slot) {
      const auto it = armed_.find(entry.first);
      const bool live = it != armed_.end() && it->second == entry.second;
      if (!live) continue;  // cancelled or rescheduled: drop the stale pair
      if (entry.second <= now) {
        due.emplace_back(entry.second, entry.first);
        armed_.erase(it);
      } else {
        slot[kept++] = entry;  // not due yet (possibly a future lap)
      }
    }
    slot.resize(kept);
  }
  last_now_ = now;
  has_last_ = true;
  std::sort(due.begin(), due.end());
  fired.reserve(fired.size() + due.size());
  for (const auto& [deadline, id] : due) fired.push_back(id);
}

std::optional<TimerWheel::TimePoint> TimerWheel::next_deadline() const {
  std::optional<TimePoint> next;
  for (const auto& [id, deadline] : armed_) {
    if (!next || deadline < *next) next = deadline;
  }
  return next;
}

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

}  // namespace

EventLoop::EventLoop() {
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) throw_errno("epoll_create1");
}

EventLoop::~EventLoop() {
  if (epfd_ >= 0) ::close(epfd_);
}

void EventLoop::add(int fd) {
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.fd = fd;
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    throw_errno("epoll_ctl(ADD)");
  }
}

void EventLoop::remove(int fd) {
  epoll_event ev{};
  (void)::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, &ev);
}

bool EventLoop::wait_until(
    std::optional<std::chrono::steady_clock::time_point> deadline) {
  int timeout_ms = -1;
  if (deadline.has_value()) {
    const auto now = std::chrono::steady_clock::now();
    if (*deadline <= now) {
      timeout_ms = 0;
    } else {
      // Round up: sleeping 1 ms past a retransmission deadline is harmless;
      // returning early and spinning sub-millisecond is not.
      const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                          *deadline - now)
                          .count();
      const auto ms = (us + 999) / 1000;
      timeout_ms = static_cast<int>(
          std::min<std::int64_t>(ms, std::numeric_limits<int>::max()));
    }
  }
  epoll_event events[8];
  const int n = ::epoll_wait(epfd_, events, 8, timeout_ms);
  if (n < 0) {
    if (errno == EINTR) return false;  // signal: caller re-checks and loops
    throw_errno("epoll_wait");
  }
  return n > 0;
}

}  // namespace rbcast
