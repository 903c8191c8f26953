// E9 — Engineering micro-benchmarks of the networked runtime
// (google-benchmark): wire codec throughput, perfect-link message throughput
// over real UDP loopback sockets, and full scenario executions of the
// threaded harness. Like bench_engine_perf, these document the cost of the
// machinery — here the runtime/ stack a deployment runs on — rather than a
// paper claim.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <vector>

#include "radiobcast/net/message.h"
#include "radiobcast/runtime/harness.h"
#include "radiobcast/runtime/perfect_link.h"
#include "radiobcast/runtime/transport.h"
#include "radiobcast/runtime/wire.h"

namespace {

using namespace rbcast;

Packet full_data_packet() {
  Packet packet;
  packet.sender = 1;
  for (std::size_t i = 0; i < kMaxBatch; ++i) {
    WireMessage wm;
    wm.kind = WireKind::kProtocol;
    wm.round = 12;
    wm.msg = make_heard({{1, 2}, {3, 4}, {5, 6}}, {0, 0}, 1);
    packet.entries.push_back(
        WireEntry{pack_message_id(1, static_cast<std::uint32_t>(i)), wm});
  }
  return packet;
}

// Encode + decode of a full kMaxBatch DATA datagram; items/s is link
// messages through the codec.
void BM_WireCodec(benchmark::State& state) {
  const Packet packet = full_data_packet();
  Packet decoded;
  for (auto _ : state) {
    const std::vector<std::uint8_t> bytes = encode_packet(packet);
    benchmark::DoNotOptimize(decode_packet(bytes, decoded));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kMaxBatch));
}
BENCHMARK(BM_WireCodec);

// Headline runtime number: reliably-delivered messages per second through
// one PerfectLink over real UDP loopback sockets — batching, acking, dedup
// and FIFO release all on the hot path. Each iteration pushes a window of
// messages and pumps both endpoints until everything is delivered and acked.
void BM_RuntimeThroughput(benchmark::State& state) {
  const int window = static_cast<int>(state.range(0));
  UdpTransport ta(0), tb(0);
  const std::vector<std::uint16_t> ports = {ta.local_port(),
                                            tb.local_port()};
  ta.set_peers(ports);
  tb.set_peers(ports);
  PerfectLink a(0, ta);
  PerfectLink b(1, tb);

  WireMessage wm;
  wm.kind = WireKind::kProtocol;
  wm.msg = make_committed({3, 5}, 1);
  std::vector<ReceivedMessage> rx_a, rx_b;
  std::int64_t delivered = 0;
  for (auto _ : state) {
    for (int i = 0; i < window; ++i) {
      wm.round = delivered + i;
      a.send(1, wm);
    }
    a.flush();
    std::size_t got = 0;
    while (got < static_cast<std::size_t>(window) || !a.all_acked()) {
      rx_b.clear();
      b.poll(rx_b);
      got += rx_b.size();
      rx_a.clear();
      a.poll(rx_a);
      a.tick(std::chrono::steady_clock::now());
    }
    delivered += window;
  }
  state.SetItemsProcessed(delivered);
}
BENCHMARK(BM_RuntimeThroughput)->Arg(64)->Arg(512);

// Whole-deployment cost: one full threaded scenario run on a small torus —
// sockets bound, N node threads, every round barriered, verdicts scored.
// items/s is runtime rounds per second across the whole torus.
void BM_RuntimeScenario(benchmark::State& state) {
  Scenario scenario;
  scenario.sim.width = 3;
  scenario.sim.height = 3;
  scenario.sim.r = 1;
  scenario.sim.t = 0;
  scenario.sim.protocol = ProtocolKind::kCrashFlood;
  scenario.sim.max_rounds = 16;
  scenario.round_timeout_ms = 0;
  scenario.linger_timeout_ms = 2000;
  std::int64_t rounds = 0;
  for (auto _ : state) {
    const RuntimeResult result = run_scenario_threads(scenario);
    if (!result.success()) state.SkipWithError("broadcast failed");
    rounds += result.rounds;
  }
  state.SetItemsProcessed(rounds);
}
// Real time, not CPU time: the work happens on the nine node threads, not
// the timing thread, and rounds/s is a wall-clock claim.
BENCHMARK(BM_RuntimeScenario)->Unit(benchmark::kMillisecond)->UseRealTime();

// Transport round-rate comparison: the same 3x3 deployment as
// BM_RuntimeScenario, parametrized over the transport, run long enough
// (128 rounds) that steady-state round rate dominates thread/socket setup.
// The epoll row wakes on socket readiness but pays the kernel for every
// datagram; the epoll_swarm row moves member traffic onto SwarmHub condvar
// mailboxes: user-CPU bound, no kernel on the datagram path.
void BM_RuntimeRoundRate(benchmark::State& state, bool shared_socket) {
  Scenario scenario;
  scenario.sim.width = 3;
  scenario.sim.height = 3;
  scenario.sim.r = 1;
  scenario.sim.t = 0;
  scenario.sim.protocol = ProtocolKind::kCrashFlood;
  scenario.sim.max_rounds = 128;
  scenario.shared_socket = shared_socket;
  scenario.round_timeout_ms = 0;
  scenario.linger_timeout_ms = 2000;
  std::int64_t rounds = 0;
  for (auto _ : state) {
    const RuntimeResult result = run_scenario_threads(scenario);
    if (!result.success()) state.SkipWithError("broadcast failed");
    rounds += result.rounds;
  }
  state.SetItemsProcessed(rounds);
}
BENCHMARK_CAPTURE(BM_RuntimeRoundRate, epoll, false)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_RuntimeRoundRate, epoll_swarm, true)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Swarm scale: a 256-node (16x16) crash-flood deployment as in-process
// threads sharing ONE UDP socket (SwarmHub) — member traffic moves through
// condvar mailboxes, never the kernel. items/s
// is runtime rounds per second across the whole swarm. One iteration is a
// whole deployment (~thousands of node-rounds), so a single iteration per
// measurement keeps the bench under control on shared runners.
void BM_RuntimeSwarm(benchmark::State& state) {
  Scenario scenario;
  scenario.sim.width = 16;
  scenario.sim.height = 16;
  scenario.sim.r = 1;
  scenario.sim.t = 3;
  scenario.sim.protocol = ProtocolKind::kCrashFlood;
  scenario.sim.max_rounds = 12;
  scenario.faults = {{4, 4}, {11, 3}, {7, 12}};
  scenario.shared_socket = true;
  scenario.round_timeout_ms = 0;
  scenario.linger_timeout_ms = 5000;
  std::int64_t rounds = 0;
  for (auto _ : state) {
    const RuntimeResult result = run_scenario_threads(scenario);
    if (!result.success()) state.SkipWithError("broadcast failed");
    rounds += result.rounds;
  }
  state.SetItemsProcessed(rounds);
}
BENCHMARK(BM_RuntimeSwarm)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);

// Lossy-channel deployment cost: every node already fans out per receiver
// (an individual link send per (message, receiver) plus a per-receiver
// ROUND_DONE marker); loss_p > 0 adds one pairwise loss draw per
// (message, receiver) and withholds the lost copies. This is the runtime
// analogue of the simulator's lossy ablations; the interesting number is the
// overhead relative to BM_RuntimeScenario, not the absolute rounds/s.
void BM_RuntimeLossy(benchmark::State& state) {
  Scenario scenario;
  scenario.sim.width = 3;
  scenario.sim.height = 3;
  scenario.sim.r = 1;
  scenario.sim.t = 0;
  scenario.sim.protocol = ProtocolKind::kCrashFlood;
  scenario.sim.max_rounds = 16;
  scenario.sim.seed = 2026;
  scenario.sim.loss_p = 0.1;
  scenario.round_timeout_ms = 0;
  scenario.linger_timeout_ms = 2000;
  std::int64_t rounds = 0;
  for (auto _ : state) {
    const RuntimeResult result = run_scenario_threads(scenario);
    if (result.wrong_commits != 0) state.SkipWithError("wrong commit");
    benchmark::DoNotOptimize(result.counters.envelopes_dropped);
    rounds += result.rounds;
  }
  state.SetItemsProcessed(rounds);
}
BENCHMARK(BM_RuntimeLossy)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
