// Zero-allocation contract of the optimized round engine (docs/PERF.md):
// once a RadioNetwork is started, the steady-state delivery path — CSR
// fan-out, small-buffer message copies, retransmission repeats, pool and
// behavior dispatch — performs no heap allocation at all, and the lying
// adversary allocates only when its lie table grows. Pinned with the same
// global-operator-new counter technique as the RoundTrace tests
// (tests/test_obs.cpp); the counter lives in this binary, so any allocation
// anywhere in the measured window trips the assertion.

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include <gtest/gtest.h>

#include "radiobcast/core/experiment.h"
#include "radiobcast/core/simulation.h"
#include "radiobcast/net/network.h"
#include "radiobcast/protocols/byzantine.h"
#include "radiobcast/protocols/pool.h"
#include "radiobcast/protocols/source.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
// Allocations of at least kLargeAllocation bytes: the buffers that fault in
// fresh pages on every trial when they are not reused.
constexpr std::size_t kLargeAllocation = 64 * 1024;
std::atomic<std::uint64_t> g_large_allocations{0};

void count_allocation(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size >= kLargeAllocation) {
    g_large_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}
}  // namespace

void* operator new(std::size_t size) {
  count_allocation(size);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  count_allocation(size);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rbcast {
namespace {

TEST(AllocFreeDelivery, MessageCopyDoesNotAllocate) {
  // Layer-2 contract: the relayer chain is inline, so copying a full HEARD
  // (the per-queued/copied/retransmitted-message cost) touches no heap.
  const Message heard = make_heard({{1, 1}, {2, 2}, {3, 3}}, {0, 0}, 1);
  const std::uint64_t before = g_allocations.load();
  Message copy = heard;
  Message moved = std::move(copy);
  Message assigned;
  assigned = moved;
  EXPECT_EQ(g_allocations.load(), before);
  EXPECT_EQ(assigned, heard);
}

TEST(AllocFreeDelivery, CrashFloodWholeRunIsAllocationFree) {
  // The acceptance criterion verbatim: zero heap allocations per delivered
  // envelope on the steady-state CrashFlood path — asserted in the strongest
  // form, zero allocations across the ENTIRE post-start() run (12x12 torus,
  // ~6.9k envelope deliveries), not just amortized-zero. The honest nodes
  // run in the SoA pool, as run_simulation installs them.
  const Torus torus(12, 12);
  RadioNetwork net(torus, 1, Metric::kLInf, 7);
  net.set_pool(
      std::make_unique<CrashFloodPool>(ProtocolParams{0, {0, 0}}, torus));
  for (const Coord c : torus.all_coords()) {
    if (c == Coord{0, 0}) {
      net.set_behavior(c, std::make_unique<SourceBehavior>(1));
    } else {
      net.assign_to_pool(c);
    }
  }
  net.start();
  const std::uint64_t before = g_allocations.load();
  net.run_until_quiescent(1000);
  EXPECT_EQ(g_allocations.load(), before);
  EXPECT_TRUE(net.quiescent());
  EXPECT_EQ(net.counters().commits, 12u * 12u);  // source commits at start too
  EXPECT_GT(net.counters().envelopes_delivered, 0u);
}

TEST(AllocFreeDelivery, LyingTrialAllocatesFarLessThanItQueuesHeards) {
  // E1's lying barrier at r = 2: a 20x20 torus, checkerboard strips trimmed
  // to t = 4, honest bv-2hop nodes in the pool. A liar keys every delivery
  // into a flat lie table, so only the growth of that table and of the
  // pool's tables allocates — far less than once per queued HEARD, while
  // each of the thousands of HEARDs reaches a liar or two.
  const std::int32_t r = 2;
  const std::int64_t t = 4;
  const Torus torus(20, 20);
  const Coord source{0, 0};
  PlacementConfig placement;
  placement.kind = PlacementKind::kCheckerboardStrip;
  Rng rng(1);
  const FaultSet faults =
      make_faults(placement, torus, r, Metric::kLInf, t, source, rng);
  ASSERT_FALSE(faults.empty());
  RadioNetwork net(torus, r, Metric::kLInf, 1);
  net.set_pool(std::make_unique<BvTwoHopPool>(ProtocolParams{t, source},
                                              torus, r, Metric::kLInf));
  for (const Coord c : torus.all_coords()) {
    if (c == source) {
      net.set_behavior(c, std::make_unique<SourceBehavior>(1));
    } else if (faults.contains(c)) {
      net.set_behavior(c, std::make_unique<LyingBehavior>(0));
    } else {
      net.assign_to_pool(c);
    }
  }
  net.start();
  const std::uint64_t before = g_allocations.load();
  net.run_until_quiescent(1000);
  const std::uint64_t allocations = g_allocations.load() - before;
  EXPECT_TRUE(net.quiescent());
  EXPECT_GT(net.counters().heard_queued, 0u);
  EXPECT_LT(allocations, net.counters().heard_queued / 16);
}

TEST(AllocFreeDelivery, SecondTrialReusesMessageBuffers) {
  // The benchmark's smoke HEARD flood (bv-4hop-flood, 8x8, r = 1, t = 1,
  // fault-free) twice on one thread: the first trial grows the message
  // buffers, and a destroyed network leaves them to the thread, so the
  // second trial makes no large allocation at all.
  SimConfig cfg;
  cfg.width = cfg.height = 8;
  cfg.r = 1;
  cfg.t = 1;
  cfg.protocol = ProtocolKind::kBvIndirectFlood;
  const FaultSet none;
  const SimResult first = run_simulation(cfg, none);
  const std::uint64_t before = g_large_allocations.load();
  const SimResult second = run_simulation(cfg, none);
  EXPECT_EQ(g_large_allocations.load() - before, 0u);
  EXPECT_EQ(second.counters, first.counters);
  EXPECT_EQ(second.correct_commits, second.honest_nodes);
}

TEST(AllocFreeDelivery, HeardRetransmissionSteadyStateIsAllocationFree) {
  // The retransmission path copies each Pending (envelope included) into the
  // repeats scratch every round. With a full 3-relayer HEARD payload this
  // used to heap-allocate per copy; both the copy and the scratch buffer are
  // now allocation-free once primed.
  class HeardChatter final : public NodeBehavior {
   public:
    void on_start(NodeContext& ctx) override {
      ctx.broadcast(make_heard({{1, 0}, {2, 0}, {3, 0}}, {0, 0}, 1));
    }
    void on_receive(NodeContext&, const Envelope&) override {}
    void on_round_end(NodeContext& ctx) override {
      ctx.broadcast(make_heard({{1, 0}, {2, 0}, {3, 0}}, {0, 0}, 1));
    }
  };
  class Sink final : public NodeBehavior {
   public:
    void on_receive(NodeContext&, const Envelope&) override {}
  };
  RadioNetwork net(Torus(12, 12), 2, Metric::kLInf, 7);
  net.set_retransmissions(3);
  for (const Coord c : net.torus().all_coords()) {
    if (c == Coord{5, 5}) {
      net.set_behavior(c, std::make_unique<HeardChatter>());
    } else {
      net.set_behavior(c, std::make_unique<Sink>());
    }
  }
  net.start();
  net.run_round();  // prime the repeats scratch to steady-state capacity
  net.run_round();
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 50; ++i) net.run_round();
  EXPECT_EQ(g_allocations.load(), before);
  EXPECT_GT(net.counters().envelopes_delivered, 0u);
}

}  // namespace
}  // namespace rbcast
