#include "replay.h"

#include <chrono>
#include <memory>
#include <stdexcept>

#include "radiobcast/core/experiment.h"
#include "radiobcast/net/network.h"
#include "radiobcast/protocols/pool.h"
#include "workloads.h"

namespace ledger {

using namespace rbcast;

CampaignResult replay_campaign(const std::vector<CampaignCell>& cells,
                               SpanLog& log, std::int64_t& next_trial,
                               ReplayTotals& totals, std::size_t keep,
                               TrialRecord& kept) {
  CampaignResult out;
  out.cells.resize(cells.size());
  std::size_t flat = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const CampaignCell& cell = cells[c];
    CellResult& cell_result = out.cells[c];
    cell_result.cell = cell;
    const Torus torus(cell.sim.width, cell.sim.height);
    for (int rep = 0; rep < cell.reps; ++rep, ++flat) {
      const std::int64_t id = next_trial++;
      const ScopedSpan trial(&log, "campaign.trial", -1, id);
      SimConfig cfg = cell.sim;
      cfg.seed = trial_seed(cell.sim.seed, rep, 0);
      cell_result.seeds.push_back(cfg.seed);
      Rng rng(cfg.seed);

      int span = log.open("fault.place", trial.id(), id);
      const FaultSet faults = make_faults(cell.placement, torus, cfg.r,
                                          cfg.metric, cfg.t, cfg.source, rng);
      log.close(span);

      span = log.open("core.run_simulation", trial.id(), id);
      SimResult result = run_simulation(cfg, faults);
      log.close(span);
      const double sim_us = log.duration_us(span);

      span = log.open("fault.validate", trial.id(), id);
      const std::int64_t nbd =
          max_closed_nbd_faults(torus, faults, cfg.r, cfg.metric);
      log.close(span);

      span = log.open("campaign.summarize", trial.id(), id);
      const TrialOutcome outcome = summarize_trial(
          result, static_cast<std::int64_t>(faults.size()), nbd);
      log.close(span);

      span = log.open("campaign.aggregate", trial.id(), id);
      cell_result.aggregate.add(outcome);
      log.close(span);

      totals.trials += 1;
      totals.faults += static_cast<std::int64_t>(faults.size());
      const bool broke_t2 = result.wrong_commits != 0;
      const bool stalled = completeness_required(cfg) && !result.success();
      totals.failed += (broke_t2 || stalled) ? 1 : 0;
      const PhaseTimers& phases = result.timers;
      totals.setup_us += phases.setup_seconds * 1e6;
      totals.rounds_us += phases.rounds_seconds * 1e6;
      totals.verdict_us += phases.verdict_seconds * 1e6;
      totals.teardown_us += sim_us - phases.total_seconds() * 1e6;
      if (flat == keep) kept = {id, cfg, faults, std::move(result)};
    }
  }
  out.trial_count = flat;
  return out;
}

namespace {

/// The pool run_simulation installs for the honest nodes, or nullptr.
std::unique_ptr<NodePool> honest_pool(const SimConfig& cfg,
                                      const Torus& torus) {
  if (!soa_pools_enabled()) return nullptr;
  const ProtocolParams params{cfg.t, cfg.source};
  switch (cfg.protocol) {
    case ProtocolKind::kCrashFlood:
      return std::make_unique<CrashFloodPool>(params, torus);
    case ProtocolKind::kCpa:
      return std::make_unique<CpaPool>(params, torus);
    case ProtocolKind::kBvTwoHop:
      if (!BvTwoHopPool::supported(torus, cfg.r, cfg.metric)) return nullptr;
      return std::make_unique<BvTwoHopPool>(params, torus, cfg.r, cfg.metric);
    case ProtocolKind::kBvIndirectFlood:
    case ProtocolKind::kBvIndirectEarmarked:
      return nullptr;
  }
  return nullptr;
}

}  // namespace

NetworkReplay replay_network(const SimConfig& cfg, const FaultSet& faults,
                             SpanLog& log, std::int64_t trial) {
  if (cfg.adversary == AdversaryKind::kSpoofing ||
      cfg.adversary == AdversaryKind::kJamming) {
    throw std::invalid_argument("replay_network: unsupported adversary");
  }
  NetworkReplay out;
  const ScopedSpan root(&log, "net.replay", -1, trial);
  const Torus torus(cfg.width, cfg.height);
  const Coord source = torus.wrap(cfg.source);

  int span = log.open("net.construct", root.id(), trial);
  RadioNetwork net(torus, cfg.r, cfg.metric, cfg.seed);
  if (cfg.loss_p > 0.0) {
    if (cfg.loss_model == LossModel::kPairwise) {
      net.set_channel(
          std::make_unique<PairwiseLossChannel>(cfg.loss_p, cfg.seed));
    } else {
      net.set_channel(std::make_unique<IidLossChannel>(cfg.loss_p));
    }
  }
  if (cfg.retransmissions != 1) net.set_retransmissions(cfg.retransmissions);
  log.close(span);
  out.construct_us = log.duration_us(span);

  span = log.open("net.populate", root.id(), trial);
  if (auto pool = honest_pool(cfg, torus)) net.set_pool(std::move(pool));
  for (const Coord c : torus.all_coords()) {
    const NodeRole role = c == source          ? NodeRole::kSource
                          : faults.contains(c) ? NodeRole::kFaulty
                                               : NodeRole::kHonest;
    if (role == NodeRole::kHonest && net.pool() != nullptr) {
      net.assign_to_pool(c);
    } else {
      net.set_behavior(c, make_node_behavior(cfg, torus, role));
    }
  }
  log.close(span);

  span = log.open("net.start", root.id(), trial);
  net.start();
  log.close(span);
  out.start_us = log.duration_us(span);

  span = log.open("net.rounds", root.id(), trial);
  const std::int64_t bound =
      cfg.max_rounds > 0 ? cfg.max_rounds : default_round_bound(cfg);
  while (!net.quiescent() && out.rounds < bound) {
    const auto t0 = std::chrono::steady_clock::now();
    net.run_round();
    out.round_us.push_back(std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - t0)
                               .count());
    ++out.rounds;
  }
  log.close(span);
  out.rounds_us = log.duration_us(span);

  span = log.open("net.verdict", root.id(), trial);
  for (const Coord c : torus.all_coords()) {
    if (c == source || faults.contains(c)) continue;
    const auto committed = net.committed_value_of(c);
    if (!committed.has_value()) continue;
    if (*committed == cfg.value) {
      out.correct_commits += 1;
    } else {
      out.wrong_commits += 1;
    }
  }
  out.counters = net.counters();
  log.close(span);
  return out;
}

bool same_outcome(const NetworkReplay& replay, const SimResult& sim) {
  return replay.counters == sim.counters && replay.rounds == sim.rounds &&
         replay.correct_commits == sim.correct_commits &&
         replay.wrong_commits == sim.wrong_commits;
}

}  // namespace ledger
