#pragma once
// Per-trial simulation counters (the observability layer's cheapest tier).
//
// A Counters instance is owned by the object running one trial (RadioNetwork,
// and by copy SimResult/TrialOutcome) and is incremented inline at the
// simulator's queue/deliver/drop/commit points. All fields are plain
// unsigned integers incremented from a single thread — no atomics — so the
// always-on cost is a handful of register adds per event, and merging two
// instances (for campaign aggregation) is an exact, associative integer sum:
// the same merge-safety contract as core/experiment.h's Aggregate.
//
// Counter semantics are documented field by field below and in
// docs/OBSERVABILITY.md; tests/test_obs.cpp pins them. for_each_counter, at
// the end of this header, is the one list of fields that every merge,
// export and parser walks.

#include <cstdint>
#include <string>

namespace rbcast {

struct Counters {
  /// NodeContext::broadcast / broadcast_as calls, i.e. distinct transmissions
  /// queued by behaviors (spoofed ones included; retransmission copies not —
  /// they are scheduled by the network, see retransmission_copies).
  std::uint64_t broadcasts_queued = 0;
  /// Subset of broadcasts_queued sent through broadcast_as (Section X's
  /// address-spoofing adversary). Zero in the paper's model.
  std::uint64_t spoofed_sends = 0;
  /// COMMITTED / HEARD breakdown of broadcasts_queued. The HEARD count is the
  /// message-complexity quantity Section VI-B compares protocols on.
  std::uint64_t committed_queued = 0;
  std::uint64_t heard_queued = 0;
  /// Extra transmission copies scheduled by the retransmission knob
  /// (RadioNetwork::set_retransmissions): copies beyond each first send.
  std::uint64_t retransmission_copies = 0;
  /// Per-receiver envelope deliveries that reached on_receive.
  std::uint64_t envelopes_delivered = 0;
  /// Per-receiver deliveries suppressed by the channel model (loss, jamming).
  std::uint64_t envelopes_dropped = 0;
  /// Protocol commit events signalled via NodeContext::note_commit: the
  /// source's initial commit plus every behavior running the protocol commit
  /// rule (including crash-at-round nodes before they crash). Adversarial
  /// behaviors fabricate COMMITTED messages without committing, so they never
  /// count here.
  std::uint64_t commits = 0;
  /// Campaign fault-tolerance tier (set by campaign/engine.cpp, always zero
  /// inside a single run_simulation): retry attempts consumed beyond each
  /// trial's first attempt, trials that ended in a recorded timeout failure,
  /// and trials that ended in any recorded failure. Integer sums like every
  /// other field, so they stay merge-exact across cells and worker counts.
  std::uint64_t trial_retries = 0;
  std::uint64_t trial_timeouts = 0;
  std::uint64_t trial_failures = 0;
  /// Networked-runtime tier (runtime/, docs/RUNTIME.md): always zero inside
  /// the synchronous simulator. Unlike the simulator counters these are NOT
  /// deterministic — retransmissions and barrier waits depend on real packet
  /// timing — but they remain merge-exact integer sums.
  /// UDP datagrams handed to the transport (data + ack packets alike).
  std::uint64_t packets_sent = 0;
  /// Datagrams that carried at least one retransmitted (timed-out) message.
  std::uint64_t packets_retransmitted = 0;
  /// Link messages confirmed by an incoming ack.
  std::uint64_t packets_acked = 0;
  /// Received link messages dropped as duplicates (already delivered or held).
  std::uint64_t duplicates_dropped = 0;
  /// Round barriers that advanced on timeout instead of full traffic.
  std::uint64_t barrier_timeouts = 0;
  /// Microseconds spent waiting at round barriers, cumulative.
  std::uint64_t barrier_wait_us = 0;
  /// Chaos/fault-injection tier (runtime/transport.h's ChaosTransport and the
  /// crash/restart machinery, docs/RUNTIME.md): always zero in the simulator
  /// and in deployments without a chaos section.
  /// Datagrams destroyed outright by the chaos layer.
  std::uint64_t chaos_drops = 0;
  /// Datagrams held back and delivered late by the chaos layer.
  std::uint64_t chaos_delays = 0;
  /// Extra datagram copies injected by the chaos layer.
  std::uint64_t chaos_duplicates = 0;
  /// Datagrams suppressed by a directed partition window.
  std::uint64_t chaos_partition_drops = 0;
  /// Crash/restart cycles this node (or deployment) survived.
  std::uint64_t node_restarts = 0;
  /// Peers moved onto the round synchronizer's suspect list (transitions, so
  /// a peer suspected, cleared, and re-suspected counts twice).
  std::uint64_t peers_suspected = 0;
  /// Rounds that opened with at least one expected peer's traffic missing
  /// (timeout or suspect-skip) — the degraded-mode breadcrumb trail.
  std::uint64_t degraded_rounds = 0;
  /// Memory tier: high-water mark of the engine's resident protocol+transport
  /// state, in bytes, as tracked analytically by RadioNetwork after start()
  /// and after every round — dense per-node arrays, CSR fan-out share,
  /// in-flight transmission buffers (logical element counts, never vector
  /// capacities), and the installed NodePool's state_bytes(). Deterministic
  /// across platforms and standard libraries, unlike an RSS probe
  /// (obs/memory.h — which is why RSS stays summary-only). Merges by max:
  /// "the largest single trial footprint seen", matching last_commit_round's
  /// aggregation style.
  std::uint64_t engine_bytes_peak = 0;
  /// Round in which the last note_commit fired (0 = none beyond the source's
  /// round-0 commit). "In which round did the last node commit?" — this one.
  std::int64_t last_commit_round = 0;

  /// Exact, associative merge: each field sums or takes the max, as
  /// for_each_counter lists it (engine_bytes_peak and last_commit_round take
  /// the max).
  void merge(const Counters& other);

  friend bool operator==(const Counters&, const Counters&) = default;
};

/// How Counters::merge folds one field.
enum class CounterMerge : std::uint8_t { kSum, kMax };

/// The Counters schema, written once. Calls
/// f(name, &Counters::field, merge, timed) for every field, in the fixed
/// order of to_json, the campaign CSV columns, the journal and the runtime
/// verdict file. `timed` marks the fields that depend on real packet timing
/// (the runtime's link, barrier, chaos and recovery tiers); the others are a
/// pure function of the trial or scenario, and they are what
/// write_verdict_core writes. A field added to the struct must be added here
/// too (Counters.SchemaListsEveryField checks it).
template <class F>
constexpr void for_each_counter(F&& f) {
  using M = CounterMerge;
  using C = Counters;
  f("broadcasts_queued", &C::broadcasts_queued, M::kSum, false);
  f("spoofed_sends", &C::spoofed_sends, M::kSum, false);
  f("committed_queued", &C::committed_queued, M::kSum, false);
  f("heard_queued", &C::heard_queued, M::kSum, false);
  f("retransmission_copies", &C::retransmission_copies, M::kSum, false);
  f("envelopes_delivered", &C::envelopes_delivered, M::kSum, false);
  f("envelopes_dropped", &C::envelopes_dropped, M::kSum, false);
  f("commits", &C::commits, M::kSum, false);
  f("trial_retries", &C::trial_retries, M::kSum, false);
  f("trial_timeouts", &C::trial_timeouts, M::kSum, false);
  f("trial_failures", &C::trial_failures, M::kSum, false);
  f("packets_sent", &C::packets_sent, M::kSum, true);
  f("packets_retransmitted", &C::packets_retransmitted, M::kSum, true);
  f("packets_acked", &C::packets_acked, M::kSum, true);
  f("duplicates_dropped", &C::duplicates_dropped, M::kSum, true);
  f("barrier_timeouts", &C::barrier_timeouts, M::kSum, true);
  f("barrier_wait_us", &C::barrier_wait_us, M::kSum, true);
  f("chaos_drops", &C::chaos_drops, M::kSum, true);
  f("chaos_delays", &C::chaos_delays, M::kSum, true);
  f("chaos_duplicates", &C::chaos_duplicates, M::kSum, true);
  f("chaos_partition_drops", &C::chaos_partition_drops, M::kSum, true);
  f("node_restarts", &C::node_restarts, M::kSum, true);
  f("peers_suspected", &C::peers_suspected, M::kSum, true);
  f("degraded_rounds", &C::degraded_rounds, M::kSum, true);
  f("engine_bytes_peak", &C::engine_bytes_peak, M::kMax, false);
  f("last_commit_round", &C::last_commit_round, M::kMax, false);
}

/// The counters as a JSON object fragment, e.g.
/// {"broadcasts_queued":12,...,"last_commit_round":7} — field order fixed,
/// so serialization is deterministic. Used by the campaign report writers.
std::string to_json(const Counters& c);

}  // namespace rbcast
