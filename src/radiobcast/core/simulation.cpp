#include "radiobcast/core/simulation.h"

#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>

#include "radiobcast/net/jamming.h"
#include "radiobcast/net/network.h"
#include "radiobcast/protocols/byzantine.h"
#include "radiobcast/protocols/common.h"
#include "radiobcast/protocols/pool.h"
#include "radiobcast/protocols/source.h"

namespace rbcast {

std::vector<std::int64_t> SimResult::commits_by_round() const {
  std::vector<std::int64_t> cumulative(static_cast<std::size_t>(rounds) + 1,
                                       0);
  for (const std::int64_t round : commit_rounds) {
    if (round < 0) continue;
    const auto idx = static_cast<std::size_t>(
        round <= rounds ? round : rounds);
    cumulative[idx] += 1;
  }
  for (std::size_t k = 1; k < cumulative.size(); ++k) {
    cumulative[k] += cumulative[k - 1];
  }
  return cumulative;
}

const char* to_string(ProtocolKind k) {
  switch (k) {
    case ProtocolKind::kCrashFlood: return "crash-flood";
    case ProtocolKind::kCpa: return "cpa";
    case ProtocolKind::kBvTwoHop: return "bv-2hop";
    case ProtocolKind::kBvIndirectFlood: return "bv-4hop-flood";
    case ProtocolKind::kBvIndirectEarmarked: return "bv-4hop-earmarked";
  }
  return "?";
}

const char* to_string(AdversaryKind k) {
  switch (k) {
    case AdversaryKind::kSilent: return "silent";
    case AdversaryKind::kLying: return "lying";
    case AdversaryKind::kCrashAtRound: return "crash-at-round";
    case AdversaryKind::kSpoofing: return "spoofing";
    case AdversaryKind::kJamming: return "jamming";
  }
  return "?";
}

std::optional<ProtocolKind> protocol_from_string(std::string_view name) {
  for (const ProtocolKind k :
       {ProtocolKind::kCrashFlood, ProtocolKind::kCpa, ProtocolKind::kBvTwoHop,
        ProtocolKind::kBvIndirectFlood, ProtocolKind::kBvIndirectEarmarked}) {
    if (name == to_string(k)) return k;
  }
  return std::nullopt;
}

std::optional<AdversaryKind> adversary_from_string(std::string_view name) {
  for (const AdversaryKind k :
       {AdversaryKind::kSilent, AdversaryKind::kLying,
        AdversaryKind::kCrashAtRound, AdversaryKind::kSpoofing,
        AdversaryKind::kJamming}) {
    if (name == to_string(k)) return k;
  }
  return std::nullopt;
}

namespace {

/// The pool for `slots` honest nodes of this configuration. Lives here, not
/// in protocols/, because it is the one place SimConfig meets the pool
/// classes.
std::unique_ptr<NodePool> make_honest_pool(const SimConfig& cfg,
                                           const Torus& torus,
                                           std::int64_t slots) {
  const ProtocolParams params{cfg.t, cfg.source};
  switch (cfg.protocol) {
    case ProtocolKind::kCrashFlood:
      return std::make_unique<CrashFloodPool>(params, torus, slots);
    case ProtocolKind::kCpa:
      return std::make_unique<CpaPool>(params, torus, slots);
    case ProtocolKind::kBvTwoHop:
      return std::make_unique<BvTwoHopPool>(params, torus, cfg.r, cfg.metric,
                                            slots);
    case ProtocolKind::kBvIndirectFlood:
      return std::make_unique<BvIndirectPool>(
          params, torus, cfg.r, cfg.metric, RelayMode::kFlood, slots);
    case ProtocolKind::kBvIndirectEarmarked:
      return std::make_unique<BvIndirectPool>(
          params, torus, cfg.r, cfg.metric, RelayMode::kEarmarked, slots);
  }
  throw std::logic_error("unknown protocol");
}

/// One honest node: a one-slot view of the protocol's pool.
std::unique_ptr<NodeBehavior> make_honest(const SimConfig& cfg,
                                          const Torus& torus) {
  return std::make_unique<PoolSlotBehavior>(make_honest_pool(cfg, torus, 1));
}

std::unique_ptr<NodeBehavior> make_faulty(const SimConfig& cfg,
                                          const Torus& torus) {
  switch (cfg.adversary) {
    case AdversaryKind::kSilent:
      return std::make_unique<SilentBehavior>();
    case AdversaryKind::kLying:
      // Lies only of classes the honest nodes read: the protocol's standing
      // classes, read off a one-slot pool.
      return std::make_unique<LyingBehavior>(
          static_cast<std::uint8_t>(1 - (cfg.value & 1)),
          make_honest_pool(cfg, torus, 1)->ignored());
    case AdversaryKind::kCrashAtRound:
      return std::make_unique<CrashAtRoundBehavior>(make_honest(cfg, torus),
                                                    cfg.crash_round);
    case AdversaryKind::kSpoofing:
      return std::make_unique<SpoofingBehavior>(
          static_cast<std::uint8_t>(1 - (cfg.value & 1)), cfg.r, cfg.metric);
    case AdversaryKind::kJamming:
      // Jammers are silent nodes; their power lives in the channel (set up
      // by run_simulation).
      return std::make_unique<SilentBehavior>();
  }
  throw std::logic_error("unknown adversary");
}

}  // namespace

std::unique_ptr<NodeBehavior> make_node_behavior(const SimConfig& cfg,
                                                 const Torus& torus,
                                                 NodeRole role) {
  switch (role) {
    case NodeRole::kSource:
      return std::make_unique<SourceBehavior>(cfg.value);
    case NodeRole::kHonest:
      return make_honest(cfg, torus);
    case NodeRole::kFaulty:
      return make_faulty(cfg, torus);
  }
  throw std::logic_error("unknown node role");
}

std::int64_t default_round_bound(const SimConfig& cfg) {
  // Generous: diameter in hops times slack for the multi-round evidence
  // accumulation of the BV protocols.
  const std::int64_t diameter_hops =
      (cfg.width + cfg.height) / (2 * cfg.r) + 2;
  // Retransmission copies stretch every hop by up to `retransmissions`
  // rounds.
  return (8 * diameter_hops + 40) * cfg.retransmissions;
}

SimResult run_simulation(const SimConfig& cfg, const FaultSet& faults) {
  return run_simulation(cfg, faults, ObsOptions{});
}

SimResult run_simulation(const SimConfig& cfg, const FaultSet& faults,
                         const ObsOptions& obs) {
  if (cfg.width < 4 * cfg.r + 2 || cfg.height < 4 * cfg.r + 2) {
    throw std::invalid_argument("torus sides must be at least 4r+2");
  }
  // Wall-clock watchdog: measured from entry so a pathological setup phase
  // counts against the budget too. Checked cooperatively between rounds.
  const bool wall_deadline_on = cfg.deadline_ms > 0;
  const auto wall_deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(cfg.deadline_ms);
  const auto check_wall_deadline = [&] {
    if (wall_deadline_on && std::chrono::steady_clock::now() >= wall_deadline) {
      throw TrialTimeoutError("trial exceeded wall-clock deadline of " +
                              std::to_string(cfg.deadline_ms) + " ms");
    }
  };
  PhaseStopwatch stopwatch;
  SimResult result;
  Torus torus(cfg.width, cfg.height);
  const Coord source = torus.wrap(cfg.source);
  if (faults.contains(source)) {
    throw std::invalid_argument("the designated source must be correct");
  }

  RadioNetwork net(torus, cfg.r, cfg.metric, cfg.seed);
  if (obs.trace != nullptr) {
    obs.trace->set_enabled(true);
    net.set_trace(obs.trace);
  }
  if (cfg.adversary == AdversaryKind::kSpoofing) net.allow_spoofing(true);
  if (cfg.adversary == AdversaryKind::kJamming) {
    net.set_channel(std::make_unique<JammingChannel>(
        torus, cfg.r, cfg.metric, faults.sorted(), cfg.jam_budget));
  } else if (cfg.loss_p > 0.0) {
    if (cfg.loss_model == LossModel::kPairwise) {
      net.set_channel(
          std::make_unique<PairwiseLossChannel>(cfg.loss_p, cfg.seed));
    } else {
      net.set_channel(std::make_unique<IidLossChannel>(cfg.loss_p));
    }
  }
  if (cfg.retransmissions != 1) {
    net.set_retransmissions(cfg.retransmissions);
  }
  net.set_pool(make_honest_pool(cfg, torus, torus.node_count()));
  for (const Coord c : torus.all_coords()) {
    const NodeRole role = c == source         ? NodeRole::kSource
                          : faults.contains(c) ? NodeRole::kFaulty
                                               : NodeRole::kHonest;
    if (role == NodeRole::kHonest) {
      net.assign_to_pool(c);
    } else {
      net.set_behavior(c, make_node_behavior(cfg, torus, role));
    }
  }

  result.timers.setup_seconds = stopwatch.lap();

  net.start();
  check_wall_deadline();
  const std::int64_t bound =
      cfg.max_rounds > 0 ? cfg.max_rounds : default_round_bound(cfg);
  // The round loop of RadioNetwork::run_until_quiescent, inlined so the
  // deadline watchdog runs between rounds (cooperatively — a single round is
  // never interrupted, keeping every completed trial deterministic).
  std::int64_t rounds = 0;
  while (!net.quiescent() && rounds < bound) {
    if (cfg.deadline_rounds > 0 && rounds >= cfg.deadline_rounds) {
      throw TrialTimeoutError("trial exceeded round budget of " +
                              std::to_string(cfg.deadline_rounds) + " rounds");
    }
    net.run_round();
    ++rounds;
    check_wall_deadline();
  }
  result.rounds = rounds;
  result.timers.rounds_seconds = stopwatch.lap();
  result.reached_quiescence = net.quiescent();
  result.transmissions = net.stats().transmissions;
  result.payload_units = net.stats().payload_units;
  result.counters = net.counters();

  result.outcomes.resize(static_cast<std::size_t>(torus.node_count()),
                         NodeOutcome::kUndecided);
  result.commit_rounds.assign(static_cast<std::size_t>(torus.node_count()),
                              -1);
  for (const Coord c : torus.all_coords()) {
    const auto idx = static_cast<std::size_t>(torus.index(c));
    if (c == source) {
      result.outcomes[idx] = NodeOutcome::kSource;
      result.commit_rounds[idx] = 0;
      continue;
    }
    if (faults.contains(c)) {
      result.outcomes[idx] = NodeOutcome::kFaulty;
      continue;
    }
    result.honest_nodes += 1;
    const auto committed = net.committed_value_of(c);
    if (!committed.has_value()) {
      result.undecided += 1;
      continue;
    }
    result.commit_rounds[idx] = net.commit_round_of(c).value_or(-1);
    result.outcomes[idx] = (*committed & 1) ? NodeOutcome::kCommitted1
                                            : NodeOutcome::kCommitted0;
    if (*committed == cfg.value) {
      result.correct_commits += 1;
    } else {
      result.wrong_commits += 1;
    }
  }
  result.timers.verdict_seconds = stopwatch.lap();
  return result;
}

}  // namespace rbcast
