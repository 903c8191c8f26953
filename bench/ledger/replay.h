#pragma once
// Traced replays (README.md, "Traced run"). Both rebuild work the library
// normally does inside one call out of its public parts, with a span around
// each part, and both are checked against the untimed path:
//
//  * replay_campaign re-runs a batch of campaign cells trial by trial, in
//    run_cells' order, and returns a CampaignResult whose JSON must equal the
//    one run_cells produced for the same cells;
//  * replay_network re-runs one trial through the RadioNetwork API, and its
//    Counters must equal the ones run_simulation returned for that trial.

#include <cstdint>
#include <vector>

#include "radiobcast/campaign/engine.h"
#include "radiobcast/core/simulation.h"
#include "spans.h"

namespace ledger {

/// Sums over the trials of traced replays.
struct ReplayTotals {
  std::int64_t trials = 0;
  /// Trials that broke Theorem 2 or, where completeness_required holds,
  /// did not succeed.
  std::int64_t failed = 0;
  std::int64_t faults = 0;
  /// run_simulation's PhaseTimers, and the rest of its wall time (the
  /// network and pool teardown after the verdict lap), in microseconds.
  double setup_us = 0.0, rounds_us = 0.0, verdict_us = 0.0,
         teardown_us = 0.0;
};

/// One trial's inputs and run_simulation outcome, kept for replay_network.
struct TrialRecord {
  std::int64_t id = -1;
  rbcast::SimConfig config;
  rbcast::FaultSet faults;
  rbcast::SimResult result;
};

/// Replays `cells` serially: per trial trial_seed, Rng, make_faults,
/// run_simulation, max_closed_nbd_faults, summarize_trial, Aggregate::add.
/// Trial ids continue from `next_trial`. The trial at flat index `keep` is
/// copied into `kept`.
rbcast::CampaignResult replay_campaign(
    const std::vector<rbcast::CampaignCell>& cells, SpanLog& log,
    std::int64_t& next_trial, ReplayTotals& totals, std::size_t keep,
    TrialRecord& kept);

struct NetworkReplay {
  rbcast::Counters counters;
  std::int64_t rounds = 0;
  std::int64_t correct_commits = 0;
  std::int64_t wrong_commits = 0;
  /// Wall times of the construct, start and round phases, microseconds.
  double construct_us = 0.0, start_us = 0.0, rounds_us = 0.0;
  std::vector<double> round_us;  // one entry per run_round call
};

/// Drives one trial through RadioNetwork exactly as run_simulation does:
/// constructor, channel and retransmissions, set_pool with the public pool
/// classes or set_behavior(make_node_behavior(...)), start, run_round until
/// quiescent, committed_value_of. Supports the silent, lying and
/// crash-at-round adversaries (the ones the workloads use).
NetworkReplay replay_network(const rbcast::SimConfig& config,
                             const rbcast::FaultSet& faults, SpanLog& log,
                             std::int64_t trial);

/// True iff the replay reproduced run_simulation's outcome.
bool same_outcome(const NetworkReplay& replay, const rbcast::SimResult& sim);

}  // namespace ledger
