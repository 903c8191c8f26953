// Observability-layer tests: counter semantics at the network's
// queue/deliver/drop/commit points, the ring-buffer trace sink (wrap-around,
// JSONL rendering, determinism), the no-allocation contract of the sink, and
// the per-trial phase timers.

#include "radiobcast/obs/counters.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "radiobcast/core/simulation.h"
#include "radiobcast/net/network.h"
#include "radiobcast/obs/timers.h"
#include "radiobcast/obs/trace.h"

// Global allocation counter: every operator new in this binary bumps it.
// Used to pin the "record() never allocates" contract of RoundTrace.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rbcast {
namespace {

SimConfig crash_flood_cfg() {
  SimConfig cfg;
  cfg.width = cfg.height = 12;
  cfg.r = 1;
  cfg.protocol = ProtocolKind::kCrashFlood;
  cfg.adversary = AdversaryKind::kSilent;
  return cfg;
}

TEST(Counters, CrashFloodFaultFreeSemantics) {
  const SimConfig cfg = crash_flood_cfg();
  const SimResult res = run_simulation(cfg, FaultSet{});
  const Counters& c = res.counters;

  const std::uint64_t nodes = 12 * 12;
  // Every node (source included) broadcasts COMMITTED exactly once.
  EXPECT_EQ(c.broadcasts_queued, nodes);
  EXPECT_EQ(c.committed_queued, nodes);
  EXPECT_EQ(c.heard_queued, 0u);
  EXPECT_EQ(c.spoofed_sends, 0u);
  EXPECT_EQ(c.retransmission_copies, 0u);
  // Perfect channel: nothing dropped; every transmission reaches the full
  // L-inf r=1 neighborhood of 8 nodes.
  EXPECT_EQ(c.envelopes_dropped, 0u);
  EXPECT_EQ(c.envelopes_delivered, nodes * 8);
  // Every node commits exactly once (source included).
  EXPECT_EQ(c.commits, nodes);
  // last_commit_round matches the per-node commit-round vector's maximum.
  std::int64_t max_round = 0;
  for (const std::int64_t r : res.commit_rounds) {
    max_round = std::max(max_round, r);
  }
  EXPECT_EQ(c.last_commit_round, max_round);
  EXPECT_GT(c.last_commit_round, 0);
}

TEST(Counters, RetransmissionCopiesCounted) {
  SimConfig cfg = crash_flood_cfg();
  cfg.retransmissions = 3;
  const SimResult res = run_simulation(cfg, FaultSet{});
  const Counters& c = res.counters;
  EXPECT_EQ(c.retransmission_copies, c.broadcasts_queued * 2);
  // The repeats are real transmissions: the network transmits every queued
  // broadcast three times.
  EXPECT_EQ(res.transmissions, c.broadcasts_queued * 3);
}

TEST(Counters, LossyChannelSplitsDeliveredAndDropped) {
  SimConfig cfg = crash_flood_cfg();
  cfg.loss_p = 0.3;
  cfg.retransmissions = 2;  // keep liveness likely despite the loss
  const SimResult res = run_simulation(cfg, FaultSet{});
  const Counters& c = res.counters;
  EXPECT_GT(c.envelopes_dropped, 0u);
  EXPECT_GT(c.envelopes_delivered, 0u);
  // Delivered + dropped covers every (transmission, receiver) pair: r=1 L-inf
  // neighborhoods have 8 receivers.
  EXPECT_EQ(c.envelopes_delivered + c.envelopes_dropped,
            res.transmissions * 8);
}

TEST(Counters, HeardTrafficAndSpoofedSends) {
  // bv-2hop generates HEARD relays; the spoofing adversary triggers the
  // spoofed-send counter.
  SimConfig cfg;
  cfg.width = cfg.height = 20;
  cfg.r = 2;
  cfg.protocol = ProtocolKind::kBvTwoHop;
  cfg.adversary = AdversaryKind::kSpoofing;
  cfg.t = 1;
  FaultSet faults;
  const Torus torus(cfg.width, cfg.height);
  faults.add(torus, {10, 10});
  const SimResult res = run_simulation(cfg, faults);
  const Counters& c = res.counters;
  EXPECT_GT(c.heard_queued, 0u);
  EXPECT_GT(c.spoofed_sends, 0u);
  EXPECT_EQ(c.committed_queued + c.heard_queued, c.broadcasts_queued);
}

TEST(Counters, MergeSumsAndMaxes) {
  Counters a;
  a.broadcasts_queued = 5;
  a.commits = 2;
  a.last_commit_round = 7;
  a.engine_bytes_peak = 100;
  Counters b;
  b.broadcasts_queued = 3;
  b.envelopes_dropped = 4;
  b.last_commit_round = 4;
  b.engine_bytes_peak = 250;
  a.merge(b);
  EXPECT_EQ(a.broadcasts_queued, 8u);
  EXPECT_EQ(a.commits, 2u);
  EXPECT_EQ(a.envelopes_dropped, 4u);
  EXPECT_EQ(a.last_commit_round, 7);
  EXPECT_EQ(a.engine_bytes_peak, 250u);  // peak merges by max, not sum
}

TEST(Counters, JsonRenderingIsFixedOrder) {
  Counters c;
  c.broadcasts_queued = 1;
  c.commits = 9;
  c.packets_sent = 12;
  c.barrier_wait_us = 77;
  c.last_commit_round = 3;
  c.chaos_drops = 2;
  c.degraded_rounds = 1;
  c.engine_bytes_peak = 4096;
  EXPECT_EQ(to_json(c),
            "{\"broadcasts_queued\":1,\"spoofed_sends\":0,"
            "\"committed_queued\":0,\"heard_queued\":0,"
            "\"retransmission_copies\":0,\"envelopes_delivered\":0,"
            "\"envelopes_dropped\":0,\"commits\":9,\"trial_retries\":0,"
            "\"trial_timeouts\":0,\"trial_failures\":0,"
            "\"packets_sent\":12,\"packets_retransmitted\":0,"
            "\"packets_acked\":0,\"duplicates_dropped\":0,"
            "\"barrier_timeouts\":0,\"barrier_wait_us\":77,"
            "\"chaos_drops\":2,\"chaos_delays\":0,\"chaos_duplicates\":0,"
            "\"chaos_partition_drops\":0,\"node_restarts\":0,"
            "\"peers_suspected\":0,\"degraded_rounds\":1,"
            "\"engine_bytes_peak\":4096,"
            "\"last_commit_round\":3}");
}

TEST(Counters, SchemaListsEveryField) {
  const Counters c;
  const auto* base = reinterpret_cast<const unsigned char*>(&c);
  std::size_t listed_bytes = 0;
  std::vector<std::ptrdiff_t> offsets;
  std::vector<std::string> names;
  for_each_counter([&](const char* name, auto field, CounterMerge, bool) {
    listed_bytes += sizeof(c.*field);
    offsets.push_back(reinterpret_cast<const unsigned char*>(&(c.*field)) -
                      base);
    names.emplace_back(name);
  });
  // Distinct members whose sizes add up to the struct: a field added to
  // Counters but not to the list leaves the sum short.
  std::sort(offsets.begin(), offsets.end());
  EXPECT_EQ(std::adjacent_find(offsets.begin(), offsets.end()), offsets.end());
  EXPECT_EQ(listed_bytes, sizeof(Counters));
  std::vector<std::string> sorted_names = names;
  std::sort(sorted_names.begin(), sorted_names.end());
  EXPECT_EQ(std::adjacent_find(sorted_names.begin(), sorted_names.end()),
            sorted_names.end());
  // to_json's keys are the listed names, in the listed order.
  const std::string json = to_json(c);
  std::vector<std::string> keys;
  for (std::size_t at = json.find('"'); at != std::string::npos;
       at = json.find('"', json.find('"', at + 1) + 1)) {
    keys.push_back(json.substr(at + 1, json.find('"', at + 1) - at - 1));
  }
  EXPECT_EQ(keys, names);
}

TEST(RoundTrace, RingBufferWrapsDeterministically) {
  RoundTrace trace(4);
  trace.set_enabled(true);
  for (int i = 0; i < 6; ++i) {
    TraceEvent e;
    e.kind = TraceEventKind::kRoundStarted;
    e.round = i;
    trace.record(e);
  }
  EXPECT_EQ(trace.capacity(), 4u);
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.recorded(), 6u);
  EXPECT_EQ(trace.dropped(), 2u);
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest two were evicted; the rest are in order.
  EXPECT_EQ(events.front().round, 2);
  EXPECT_EQ(events.back().round, 5);

  trace.clear();
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.recorded(), 0u);
  EXPECT_TRUE(trace.enabled());  // clear() keeps the enabled state
}

TEST(RoundTrace, DisabledSinkRecordsNothing) {
  RoundTrace trace(8);
  ASSERT_FALSE(trace.enabled());  // disabled is the default
  TraceEvent e;
  e.kind = TraceEventKind::kNodeCommitted;
  trace.record(e);
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.recorded(), 0u);
}

TEST(RoundTrace, RecordNeverAllocates) {
  // The no-allocation contract: after construction, record() writes into the
  // preallocated ring — zero heap traffic whether enabled or disabled, and
  // both below and beyond the wrap-around point.
  RoundTrace trace(64);
  TraceEvent e;
  e.kind = TraceEventKind::kMessageDelivered;
  e.round = 1;
  e.node = {1, 2};
  e.sender = {3, 4};

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) trace.record(e);  // disabled
  trace.set_enabled(true);
  for (int i = 0; i < 1000; ++i) trace.record(e);  // enabled, wraps 15x
  EXPECT_EQ(g_allocations.load(), before);
  EXPECT_EQ(trace.recorded(), 1000u);
}

TEST(RoundTrace, DisabledTrialLeavesSinkUntouchedAndUnallocated) {
  // A full trial run with a sink attached but *disabled* must not touch it:
  // every network emission site either skips on the pointer test or bails at
  // record()'s enabled check, so the sink sees zero events and performs zero
  // allocations after construction. The sink's post-construction allocation
  // count is pinned via the global operator new counter: RoundTrace holds no
  // state besides its preallocated ring, so if it never records it cannot be
  // the source of any allocation — we assert the observable half (no events)
  // on a real network run, and the no-allocation half on the sink directly.
  const SimConfig cfg = crash_flood_cfg();
  RadioNetwork net(Torus(cfg.width, cfg.height), cfg.r, cfg.metric, cfg.seed);
  RoundTrace sink(256);
  ASSERT_FALSE(sink.enabled());
  net.set_trace(&sink);
  const Torus& torus = net.torus();
  for (const Coord c : torus.all_coords()) {
    const NodeRole role =
        c == Coord{0, 0} ? NodeRole::kSource : NodeRole::kHonest;
    net.set_behavior(c, make_node_behavior(cfg, torus, role));
  }
  net.start();
  const std::uint64_t before = g_allocations.load();
  sink.record(TraceEvent{});  // direct disabled record: no allocation
  EXPECT_EQ(g_allocations.load(), before);
  net.run_until_quiescent(1000);
  EXPECT_GT(net.counters().commits, 0u);      // the trial really ran
  EXPECT_EQ(sink.size(), 0u);                 // ...and never touched the sink
  EXPECT_EQ(sink.recorded(), 0u);
}

TEST(RoundTrace, JsonlRendering) {
  TraceEvent started;
  started.kind = TraceEventKind::kRoundStarted;
  started.round = 3;
  EXPECT_EQ(to_jsonl(started), "{\"event\":\"round_started\",\"round\":3}");

  TraceEvent committed;
  committed.kind = TraceEventKind::kNodeCommitted;
  committed.round = 4;
  committed.node = {3, 0};
  committed.value = 1;
  EXPECT_EQ(to_jsonl(committed),
            "{\"event\":\"node_committed\",\"round\":4,\"node\":[3,0],"
            "\"value\":1}");

  TraceEvent delivered;
  delivered.kind = TraceEventKind::kMessageDelivered;
  delivered.round = 2;
  delivered.node = {1, 1};
  delivered.sender = {0, 0};
  delivered.origin = {0, 0};
  delivered.value = 0;
  delivered.msg_type = 1;
  EXPECT_EQ(to_jsonl(delivered),
            "{\"event\":\"message_delivered\",\"round\":2,\"sender\":[0,0],"
            "\"receiver\":[1,1],\"type\":\"HEARD\",\"origin\":[0,0],"
            "\"value\":0}");

  RoundTrace trace(4);
  trace.set_enabled(true);
  trace.record(started);
  trace.record(committed);
  std::ostringstream os;
  trace.write_jsonl(os);
  EXPECT_EQ(os.str(),
            "{\"event\":\"round_started\",\"round\":3}\n"
            "{\"event\":\"node_committed\",\"round\":4,\"node\":[3,0],"
            "\"value\":1}\n");
}

TEST(RoundTrace, TracedTrialIsDeterministic) {
  // Two runs of the same config produce identical event streams, and the
  // stream contains all three event kinds in simulation order.
  const SimConfig cfg = crash_flood_cfg();
  RoundTrace t1, t2;
  ObsOptions obs1{&t1}, obs2{&t2};
  run_simulation(cfg, FaultSet{}, obs1);
  run_simulation(cfg, FaultSet{}, obs2);
  EXPECT_GT(t1.size(), 0u);
  EXPECT_EQ(t1.events(), t2.events());

  const auto events = t1.events();
  // The source's round-0 commit precedes the first round_started.
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().kind, TraceEventKind::kNodeCommitted);
  EXPECT_EQ(events.front().round, 0);
  bool saw_round = false, saw_delivery = false;
  std::int64_t last_round = 0;
  for (const TraceEvent& e : events) {
    saw_round |= e.kind == TraceEventKind::kRoundStarted;
    saw_delivery |= e.kind == TraceEventKind::kMessageDelivered;
    EXPECT_GE(e.round, last_round);  // rounds never go backwards
    last_round = e.round;
  }
  EXPECT_TRUE(saw_round);
  EXPECT_TRUE(saw_delivery);
}

TEST(PhaseTimers, TrialFillsAllPhases) {
  const SimConfig cfg = crash_flood_cfg();
  const SimResult res = run_simulation(cfg, FaultSet{});
  EXPECT_GE(res.timers.setup_seconds, 0.0);
  EXPECT_GE(res.timers.rounds_seconds, 0.0);
  EXPECT_GE(res.timers.verdict_seconds, 0.0);
  EXPECT_DOUBLE_EQ(res.timers.total_seconds(),
                   res.timers.setup_seconds + res.timers.rounds_seconds +
                       res.timers.verdict_seconds);
  // The rounds phase did real work; on any sane clock it is measurable
  // strictly somewhere (total > 0 may be flaky on coarse clocks, so only
  // assert non-negativity plus the sum identity above).
}

TEST(PhaseTimers, MergeSumsPhaseByPhase) {
  PhaseTimers a{1.0, 2.0, 3.0};
  const PhaseTimers b{0.5, 0.25, 0.125};
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.setup_seconds, 1.5);
  EXPECT_DOUBLE_EQ(a.rounds_seconds, 2.25);
  EXPECT_DOUBLE_EQ(a.verdict_seconds, 3.125);
  EXPECT_DOUBLE_EQ(a.total_seconds(), 6.875);
}

}  // namespace
}  // namespace rbcast
