#pragma once
// In-memory span log for the traced run (README.md, "Traced run").
//
// A span times one call from the benchmark into a public library function.
// Its name is "<layer>.<call>", where the layer is the src/radiobcast module
// that owns the function. Spans live in memory until the run ends. A span's
// self time is its duration minus the time covered by its direct children.

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace ledger {

struct Span {
  const char* name = "";  // "<layer>.<call>", a string literal
  double start_us = 0.0;  // since the log was created
  double end_us = 0.0;
  int parent = -1;          // index of the enclosing span, -1 for a root
  std::int64_t trial = -1;  // unit the span belongs to, -1 for none
};

class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  int open(const char* name, int parent, std::int64_t trial) {
    spans_.push_back({name, now_us(), 0.0, parent, trial});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end_us = now_us(); }

  std::size_t size() const { return spans_.size(); }
  double duration_us(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.end_us - s.start_us;
  }

  /// Self time of every span, by index.
  std::vector<double> self_us() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] += spans_[i].end_us - spans_[i].start_us;
      if (spans_[i].parent >= 0) {
        self[static_cast<std::size_t>(spans_[i].parent)] -=
            spans_[i].end_us - spans_[i].start_us;
      }
    }
    return self;
  }

  /// Self time summed by layer, over spans [first, size()).
  std::map<std::string, double> self_us_by_layer(std::size_t first = 0) const {
    const std::vector<double> self = self_us();
    std::map<std::string, double> out;
    for (std::size_t i = first; i < spans_.size(); ++i) {
      const std::string name = spans_[i].name;
      out[name.substr(0, name.find('.'))] += self[i];
    }
    return out;
  }

  void write_json(std::ostream& os) const {
    const std::vector<double> self = self_us();
    os << "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
         << "\",\"start_us\":" << s.start_us << ",\"end_us\":" << s.end_us
         << ",\"self_us\":" << self[i] << ",\"parent\":" << s.parent
         << ",\"trial\":" << s.trial << "}";
    }
    os << "\n]}\n";
  }

 private:
  using Clock = std::chrono::steady_clock;
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; does nothing
/// with a null log, so one code path serves traced and untraced units.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int parent = -1,
             std::int64_t trial = -1)
      : log_(log), id_(log ? log->open(name, parent, trial) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace ledger
