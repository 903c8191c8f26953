// E8 — Engineering micro-benchmarks of the simulator substrate
// (google-benchmark): round-engine throughput, the Dinic disjoint-path
// verifier, the evidence set-packing solver, neighborhood tables and fault
// validators. These do not reproduce paper claims; they document the cost of
// the machinery the reproductions run on.

#include <benchmark/benchmark.h>

#include <memory>
#include <thread>

#include "radiobcast/campaign/engine.h"
#include "radiobcast/net/network.h"
#include "radiobcast/core/analysis.h"
#include "radiobcast/core/simulation.h"
#include "radiobcast/fault/placement.h"
#include "radiobcast/grid/neighborhood.h"
#include "radiobcast/paths/construction.h"
#include "radiobcast/paths/disjoint.h"
#include "radiobcast/paths/packing.h"
#include "radiobcast/protocols/determination.h"
#include "radiobcast/util/rng.h"

namespace {

using namespace rbcast;

void BM_CrashFloodFullTorus(benchmark::State& state) {
  const auto r = static_cast<std::int32_t>(state.range(0));
  SimConfig cfg;
  cfg.r = r;
  cfg.width = cfg.height = 8 * r + 4;
  cfg.protocol = ProtocolKind::kCrashFlood;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_simulation(cfg, FaultSet{}));
  }
  state.SetItemsProcessed(state.iterations() * cfg.width * cfg.height);
}
BENCHMARK(BM_CrashFloodFullTorus)->Arg(1)->Arg(2)->Arg(3);

// The structure-of-arrays trial engine at scale: a full crash-flood trial on
// large toruses, with every honest node in one pool. The rows are the
// million-node scale evidence — bench/artifacts/BENCH_pr10.json curates them
// and scripts/bench_compare.py gates them.
void BM_CrashFloodLargeTorus(benchmark::State& state) {
  const auto side = static_cast<std::int32_t>(state.range(0));
  SimConfig cfg;
  cfg.r = 1;
  cfg.width = cfg.height = side;
  cfg.protocol = ProtocolKind::kCrashFlood;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_simulation(cfg, FaultSet{}));
  }
  state.SetItemsProcessed(state.iterations() * cfg.width * cfg.height);
}
BENCHMARK(BM_CrashFloodLargeTorus)
    ->Arg(256)
    ->Arg(512)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// The same for the two-hop Byzantine protocol, whose pool keeps its
// relations in packed open-addressing tables. Smaller sides than
// crash-flood: the protocol does O(|2-hop nbd|) work per delivery.
void BM_BvTwoHopLargeTorus(benchmark::State& state) {
  const auto side = static_cast<std::int32_t>(state.range(0));
  SimConfig cfg;
  cfg.r = 1;
  cfg.width = cfg.height = side;
  cfg.protocol = ProtocolKind::kBvTwoHop;
  cfg.t = byz_linf_achievable_max(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_simulation(cfg, FaultSet{}));
  }
  state.SetItemsProcessed(state.iterations() * cfg.width * cfg.height);
}
BENCHMARK(BM_BvTwoHopLargeTorus)
    ->Arg(128)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_BvTwoHopFullTorus(benchmark::State& state) {
  const auto r = static_cast<std::int32_t>(state.range(0));
  SimConfig cfg;
  cfg.r = r;
  cfg.width = cfg.height = 8 * r + 4;
  cfg.protocol = ProtocolKind::kBvTwoHop;
  cfg.t = byz_linf_achievable_max(r);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_simulation(cfg, FaultSet{}));
  }
  state.SetItemsProcessed(state.iterations() * cfg.width * cfg.height);
}
BENCHMARK(BM_BvTwoHopFullTorus)->Arg(1)->Arg(2);

// Pure delivery fan-out cost of the round engine: every node rebroadcasts a
// COMMITTED each round, so one run_round() is n transmissions x |nbd|
// deliveries with trivial behavior work. items/s is deliveries/s — the
// direct measure of the per-delivery hot path (CSR adjacency, behavior
// dispatch, counter upkeep) with protocol logic factored out.
void BM_RoundDeliveryFanout(benchmark::State& state) {
  class ChatterBehavior final : public NodeBehavior {
   public:
    void on_start(NodeContext& ctx) override {
      ctx.broadcast(make_committed(ctx.self(), 1));
    }
    void on_receive(NodeContext&, const Envelope&) override {}
    void on_round_end(NodeContext& ctx) override {
      ctx.broadcast(make_committed(ctx.self(), 1));
    }
  };
  const auto r = static_cast<std::int32_t>(state.range(0));
  const std::int32_t side = 8 * r + 4;
  RadioNetwork net(Torus(side, side), r, Metric::kLInf, 1);
  for (const Coord c : net.torus().all_coords()) {
    net.set_behavior(c, std::make_unique<ChatterBehavior>());
  }
  net.start();
  net.run_round();  // prime: buffers at steady-state capacity
  for (auto _ : state) {
    net.run_round();
  }
  const std::int64_t deliveries_per_round =
      net.torus().node_count() * NeighborhoodTable::get(r, Metric::kLInf).size();
  state.SetItemsProcessed(state.iterations() * deliveries_per_round);
}
BENCHMARK(BM_RoundDeliveryFanout)->Arg(1)->Arg(2)->Arg(3);

// HEARD-heavy evidence path: the faithful flooding relay mode generates the
// maximal report traffic (every plausible chain is relayed), so this pins the
// cost of HEARD dedup, evidence accumulation, and the per-round
// determination sweep.
void BM_HeardFlood(benchmark::State& state) {
  const auto r = static_cast<std::int32_t>(state.range(0));
  SimConfig cfg;
  cfg.r = r;
  // Deliberately smaller than the 8r+4 benchmark tori: flood-mode relay
  // traffic grows superlinearly in the node count, and the evidence-path
  // cost this benchmark isolates is already dominant at 4r+4.
  cfg.width = cfg.height = 4 * r + 4;
  cfg.protocol = ProtocolKind::kBvIndirectFlood;
  cfg.t = byz_linf_achievable_max(r);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_simulation(cfg, FaultSet{}));
  }
  state.SetItemsProcessed(state.iterations() * cfg.width * cfg.height);
}
BENCHMARK(BM_HeardFlood)->Arg(1)->Arg(2);

// Isolated cost of the incremental determination engine
// (protocols/determination.h): a synthetic decider at r=2 / t=4 absorbing a
// seeded stream of plausible relayer chains, with the round-end evaluation
// every |nbd| reports. No network, no protocol dispatch — this pins
// add_report (bitset AND + digest update), the dirty-center sweep, and the
// packing memo, the three pieces BM_HeardFlood exercises end-to-end.
void BM_Determination(benchmark::State& state) {
  const std::int32_t r = 2;
  const std::int64_t t = byz_linf_achievable_max(r);
  const CenterTable& table = CenterTable::get(r, Metric::kLInf, 12, 12);
  // Pre-generate plausible chains (each hop <= r, nodes distinct, nonzero):
  // enough that the stream does not just saturate the dedup set.
  Rng rng(1234);
  struct Chain {
    std::array<Offset, 4> rel{};
    std::size_t n = 0;
    std::uint64_t key = 0;
  };
  std::vector<Chain> chains;
  while (chains.size() < 4096) {
    Chain c;
    c.n = 1 + rng.below(3);
    Offset at{0, 0};
    bool ok = true;
    for (std::size_t i = 0; i < c.n; ++i) {
      at.dx += static_cast<std::int32_t>(rng.below(2 * r + 1)) - r;
      at.dy += static_cast<std::int32_t>(rng.below(2 * r + 1)) - r;
      if (at == Offset{0, 0}) {
        ok = false;
        break;
      }
      c.rel[i] = at;
      for (std::size_t j = 0; j < i; ++j) {
        if (c.rel[j] == at) ok = false;
      }
    }
    if (!ok || !within_radius(c.rel[0], r, Metric::kLInf)) continue;
    c.key = c.n;
    for (std::size_t i = 0; i < c.n; ++i) {
      c.key = (c.key << 16) |
              (static_cast<std::uint64_t>(static_cast<std::uint8_t>(
                   c.rel[i].dx))
               << 8) |
              static_cast<std::uint64_t>(static_cast<std::uint8_t>(
                  c.rel[i].dy));
    }
    chains.push_back(c);
  }
  const std::uint64_t seed = det_digest_seed(r, Metric::kLInf, t);
  PackingMemo& memo = PackingMemo::thread_instance();
  std::int64_t reports = 0;
  for (auto _ : state) {
    IncrementalDetermination det(table, t, 8, seed);
    for (std::size_t i = 0; i < chains.size(); ++i) {
      const Chain& c = chains[i];
      if (det.add_report(std::span<const Offset>(c.rel.data(), c.n), c.key)) {
        ++reports;
      }
      if ((i & 31) == 31) benchmark::DoNotOptimize(det.evaluate(memo));
    }
    benchmark::DoNotOptimize(det.evaluate(memo));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(chains.size()));
  state.counters["accepted"] =
      static_cast<double>(reports) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_Determination);

void BM_BvEarmarkedFullTorus(benchmark::State& state) {
  const auto r = static_cast<std::int32_t>(state.range(0));
  SimConfig cfg;
  cfg.r = r;
  cfg.width = cfg.height = 8 * r + 4;
  cfg.protocol = ProtocolKind::kBvIndirectEarmarked;
  cfg.t = byz_linf_achievable_max(r);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_simulation(cfg, FaultSet{}));
  }
}
BENCHMARK(BM_BvEarmarkedFullTorus)->Arg(1)->Arg(2);

void BM_DisjointPathsWorstCase(benchmark::State& state) {
  const auto r = static_cast<std::int32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        best_disjoint_paths({0, 0}, {-r, r}, r, Metric::kLInf));
  }
}
BENCHMARK(BM_DisjointPathsWorstCase)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

void BM_ConstructionPaths(benchmark::State& state) {
  // Worst covered indirect displacement: |d|_1 = 2r with |d|_inf > r.
  const auto r = static_cast<std::int32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        construction_paths(r, {0, 0}, {-(r + 1), r - 1}));
  }
}
BENCHMARK(BM_ConstructionPaths)->Arg(2)->Arg(4)->Arg(8);

void BM_SetPacking(benchmark::State& state) {
  // Adversarially overlapping masks, sized like a busy decider's evidence.
  const int n = static_cast<int>(state.range(0));
  Rng rng(42);
  std::vector<NodeMask> masks;
  for (int i = 0; i < n; ++i) {
    NodeMask m;
    for (int j = 0; j < 3; ++j) m.set(rng.below(24));
    masks.push_back(m);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(max_disjoint_packing(masks, 6));
  }
}
BENCHMARK(BM_SetPacking)->Arg(8)->Arg(32)->Arg(128);

void BM_NeighborhoodTable(benchmark::State& state) {
  const Torus torus(64, 64);
  const auto& table = NeighborhoodTable::get(3, Metric::kLInf);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.neighbors(torus, {5, 5}));
  }
}
BENCHMARK(BM_NeighborhoodTable);

void BM_LocalBoundValidator(benchmark::State& state) {
  const Torus torus(40, 40);
  Rng rng(7);
  const FaultSet faults = iid_faults(torus, 0.2, rng, {0, 0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        max_closed_nbd_faults(torus, faults, 2, Metric::kLInf));
  }
}
BENCHMARK(BM_LocalBoundValidator);

void BM_CampaignParallelScaling(benchmark::State& state) {
  // A fixed 64-trial random-fault campaign; Arg = worker count. items/s is
  // trials/s, so the speedup over the Arg(1) row is the parallel scaling
  // factor (expected near-linear up to the physical core count: trials are
  // independent and the engine only serializes seed setup and the final
  // index-ordered fold).
  const int workers = static_cast<int>(state.range(0));
  CampaignSpec spec;
  spec.base.r = 2;
  spec.base.width = spec.base.height = 20;
  spec.base.protocol = ProtocolKind::kBvTwoHop;
  spec.base.adversary = AdversaryKind::kLying;
  spec.base.t = byz_linf_achievable_max(2);
  spec.placement.kind = PlacementKind::kRandomBounded;
  spec.placements = {PlacementKind::kRandomBounded};
  spec.reps = 64;
  spec.base_seed = 17;
  CampaignOptions options;
  options.workers = workers;
  for (auto _ : state) {
    const CampaignResult result = run_campaign(spec, options);
    benchmark::DoNotOptimize(result.cells.front().aggregate.runs);
  }
  state.SetItemsProcessed(state.iterations() * 64);
  state.counters["workers"] = workers;
}
BENCHMARK(BM_CampaignParallelScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(static_cast<int>(std::thread::hardware_concurrency() == 0
                               ? 4
                               : std::thread::hardware_concurrency()))
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
