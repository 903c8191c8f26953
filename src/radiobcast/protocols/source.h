#pragma once
// The designated source (dealer). Assumed correct and located at the origin
// (Section II). It commits to its own value and announces it once with a
// COMMITTED broadcast; every protocol's first inductive step starts from the
// source's direct neighbors hearing this transmission.

#include <optional>

#include "radiobcast/net/network.h"

namespace rbcast {

class SourceBehavior final : public NodeBehavior {
 public:
  explicit SourceBehavior(std::uint8_t value) : value_(value) {}

  void on_start(NodeContext& ctx) override {
    ctx.note_commit(value_);  // the source is committed from round 0
    ctx.broadcast(make_committed(ctx.self(), value_));
    ctx.ignore(MessageClasses::all());  // and never listens
  }

  void on_receive(NodeContext&, const Envelope&) override {}

  std::optional<std::uint8_t> committed_value() const override {
    return value_;
  }

  std::optional<std::int64_t> commit_round() const override { return 0; }

 private:
  std::uint8_t value_;
};

}  // namespace rbcast
