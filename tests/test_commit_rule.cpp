// The commit rule both Bhandari–Vaidya pools share (BvPool, protocols/
// pool.h): commit to v once t+1 determined committers of v lie in one
// neighborhood. Each test runs against a one-slot BvTwoHopPool and a
// one-slot BvIndirectPool, feeding COMMITTED(origin, v) straight from each
// origin — a direct determination of (origin, v).

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "radiobcast/net/network.h"
#include "radiobcast/protocols/pool.h"

namespace rbcast {
namespace {

// The decider and the source sit where no test puts a committer, so no
// determination below is the source's own COMMITTED.
constexpr Coord kSelf{17, 3};
constexpr Coord kSource{3, 17};

/// One node of one BV pool, driven through the commit rule.
class RuleProbe {
 public:
  RuleProbe(const char* name, std::unique_ptr<BvPool> pool,
            const Torus& torus, std::int32_t r, Metric m)
      : name_(name),
        pool_(std::move(pool)),
        net_(std::make_unique<RadioNetwork>(torus, r, m, 1)) {}

  const char* name() const { return name_; }

  /// Delivers COMMITTED(origin, value) from origin. Returns the value the
  /// node commits to if this delivery fires the rule.
  std::optional<std::uint8_t> record(Coord origin, std::uint8_t value) {
    const bool was_committed = pool_->committed_value(0).has_value();
    const Coord sender = net_->torus().wrap(origin);
    NodeContext ctx(*net_, kSelf);
    pool_->on_receive(ctx, 0, {sender, make_committed(sender, value)});
    if (was_committed) return std::nullopt;
    return pool_->committed_value(0);
  }

  bool is_determined(Coord origin, std::uint8_t value) const {
    return pool_->has_determined(0, origin, value);
  }

 private:
  const char* name_;
  std::unique_ptr<BvPool> pool_;
  std::unique_ptr<RadioNetwork> net_;
};

/// The rule at (r, m, t) on `torus`, once per BV pool.
std::vector<RuleProbe> probes(const Torus& torus, std::int32_t r, Metric m,
                              std::int64_t t) {
  const ProtocolParams params{t, kSource};
  std::vector<RuleProbe> out;
  out.emplace_back("bv-2hop",
                   std::make_unique<BvTwoHopPool>(params, torus, r, m, 1),
                   torus, r, m);
  out.emplace_back("bv-4hop",
                   std::make_unique<BvIndirectPool>(params, torus, r, m,
                                                    RelayMode::kFlood, 1),
                   torus, r, m);
  return out;
}

TEST(CommitCounter, FiresAtExactlyTPlusOneInOneNeighborhood) {
  for (RuleProbe& counter : probes(Torus(20, 20), 2, Metric::kLInf, 2)) {
    SCOPED_TRACE(counter.name());
    // Three committers clustered so one center (e.g. (10,10)) covers them
    // all.
    EXPECT_FALSE(counter.record({9, 9}, 1).has_value());
    EXPECT_FALSE(counter.record({11, 11}, 1).has_value());
    const auto fired = counter.record({9, 11}, 1);
    ASSERT_TRUE(fired.has_value());
    EXPECT_EQ(*fired, 1);
  }
}

TEST(CommitCounter, SpreadOutCommittersDoNotFire) {
  for (RuleProbe& counter : probes(Torus(40, 40), 2, Metric::kLInf, 2)) {
    SCOPED_TRACE(counter.name());
    // Pairwise distances > 2r: no single neighborhood holds even two of
    // them.
    EXPECT_FALSE(counter.record({5, 5}, 1).has_value());
    EXPECT_FALSE(counter.record({15, 15}, 1).has_value());
    EXPECT_FALSE(counter.record({25, 25}, 1).has_value());
    EXPECT_FALSE(counter.record({35, 5}, 1).has_value());
  }
}

TEST(CommitCounter, ValuesCountedSeparately) {
  for (RuleProbe& counter : probes(Torus(20, 20), 2, Metric::kLInf, 1)) {
    SCOPED_TRACE(counter.name());
    EXPECT_FALSE(counter.record({9, 9}, 1).has_value());
    // A nearby '0' determination does not combine with the '1' above, and
    // a far-away '0' shares no neighborhood with it.
    EXPECT_FALSE(counter.record({10, 9}, 0).has_value());
    EXPECT_FALSE(counter.record({2, 2}, 0).has_value());
    // Second '1' committer in the same neighborhood fires for value 1.
    const auto fired = counter.record({10, 10}, 1);
    ASSERT_TRUE(fired.has_value());
    EXPECT_EQ(*fired, 1);
  }
}

TEST(CommitCounter, RecordIsIdempotent) {
  for (RuleProbe& counter : probes(Torus(20, 20), 1, Metric::kLInf, 1)) {
    SCOPED_TRACE(counter.name());
    EXPECT_FALSE(counter.record({5, 5}, 1).has_value());
    // Recording the same determination again adds nothing: t+1 = 2 would
    // fire on a second count.
    EXPECT_FALSE(counter.record({5, 5}, 1).has_value());
    EXPECT_FALSE(counter.record({5, 5}, 1).has_value());
    const auto fired = counter.record({5, 6}, 1);
    EXPECT_TRUE(fired.has_value());
  }
}

TEST(CommitCounter, IsDeterminedTracksPairs) {
  for (RuleProbe& counter : probes(Torus(20, 20), 1, Metric::kLInf, 3)) {
    SCOPED_TRACE(counter.name());
    EXPECT_FALSE(counter.is_determined({4, 4}, 1));
    counter.record({4, 4}, 1);
    EXPECT_TRUE(counter.is_determined({4, 4}, 1));
    EXPECT_FALSE(counter.is_determined({4, 4}, 0));
    // Canonicalization: the same node addressed through a wrap.
    EXPECT_TRUE(counter.is_determined({24, 24}, 1));
  }
}

TEST(CommitCounter, TZeroFiresOnFirstDetermination) {
  for (RuleProbe& counter : probes(Torus(20, 20), 2, Metric::kLInf, 0)) {
    SCOPED_TRACE(counter.name());
    const auto fired = counter.record({5, 5}, 0);
    ASSERT_TRUE(fired.has_value());
    EXPECT_EQ(*fired, 0);
  }
}

TEST(CommitCounter, WrapsAcrossSeam) {
  for (RuleProbe& counter : probes(Torus(20, 20), 1, Metric::kLInf, 1)) {
    SCOPED_TRACE(counter.name());
    EXPECT_FALSE(counter.record({0, 0}, 1).has_value());
    // (19,19) is diagonal-adjacent to (0,0) across the seam; both lie in
    // nbd((0,19)) (and nbd((19,0))).
    EXPECT_TRUE(counter.record({19, 19}, 1).has_value());
  }
}

TEST(CommitCounter, L2MetricGeometry) {
  const Torus torus(20, 20);
  for (RuleProbe& counter : probes(torus, 1, Metric::kL2, 1)) {
    SCOPED_TRACE(counter.name());
    EXPECT_FALSE(counter.record({10, 10}, 1).has_value());
    // (10,10) and (11,11) are not L2-neighbors at r=1, but the centers
    // (10,11) and (11,10) are within distance 1 of both, so a shared
    // neighborhood exists and the rule fires.
    EXPECT_TRUE(counter.record({11, 11}, 1).has_value());
  }
  // But two nodes 3 apart never share one.
  for (RuleProbe& far_counter : probes(torus, 1, Metric::kL2, 1)) {
    SCOPED_TRACE(far_counter.name());
    EXPECT_FALSE(far_counter.record({5, 5}, 1).has_value());
    EXPECT_FALSE(far_counter.record({8, 5}, 1).has_value());
  }
}

}  // namespace
}  // namespace rbcast
