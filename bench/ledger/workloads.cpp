#include "workloads.h"

#include <algorithm>
#include <stdexcept>

#include "radiobcast/core/analysis.h"
#include "radiobcast/util/rng.h"

namespace ledger {

using namespace rbcast;

namespace {

CampaignCell make_cell(ProtocolKind protocol, AdversaryKind adversary,
                       PlacementKind placement, std::int32_t side,
                       std::int32_t r, std::int64_t t, int reps) {
  CampaignCell cell;
  cell.sim.width = cell.sim.height = side;
  cell.sim.r = r;
  cell.sim.metric = Metric::kLInf;
  cell.sim.t = t;
  cell.sim.protocol = protocol;
  cell.sim.adversary = adversary;
  cell.placement.kind = placement;
  cell.reps = reps;
  cell.label = std::string(to_string(protocol)) + "/" + to_string(adversary) +
               "/t=" + std::to_string(t);
  return cell;
}

}  // namespace

Workload find_workload(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  w.smoke = smoke;
  if (name == "threshold-sweep" || name == "lossy-retx") {
    w.workers = name == "threshold-sweep" ? 2 : 1;
    w.side = 20;
    w.r = 2;
  } else if (name == "heard-flood") {
    w.side = smoke ? 8 : 12;
    w.r = smoke ? 1 : 2;
  } else if (name == "million-node") {
    w.side = smoke ? 128 : 1024;
    w.r = 1;
  } else if (name == "runtime-deploy") {
    // One thread per node, and the load must not exceed 4 threads: 2x2 is
    // the torus with four nodes.
    w.runtime = true;
    w.side = 2;
    w.r = 1;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

std::vector<CampaignCell> Workload::cells(std::uint64_t seed,
                                          int batch) const {
  std::vector<CampaignCell> out;
  // Trial times cluster by cell. Rep counts are chosen so that the median
  // trial falls inside a cluster, not on the edge between two, where it
  // would jump from run to run.
  if (name == "threshold-sweep") {
    // E1's grid at r=2 on E1's torus, without crash-flood against lying
    // faults: that pair is outside crash-flood's fault model, and without it
    // Theorem 2 applies to every trial. The workers take trials in cell
    // order, so after the cheap set-up cell the slowest cells come first
    // and the fastest fill the batch's tail.
    struct Pair {
      ProtocolKind protocol;
      AdversaryKind adversary;
    };
    const Pair pairs[] = {
        {ProtocolKind::kCrashFlood, AdversaryKind::kSilent},
        {ProtocolKind::kBvTwoHop, AdversaryKind::kLying},
        {ProtocolKind::kBvTwoHop, AdversaryKind::kSilent},
        {ProtocolKind::kCpa, AdversaryKind::kLying},
        {ProtocolKind::kCpa, AdversaryKind::kSilent},
    };
    for (const Pair& p : pairs) {
      for (std::int64_t t = 6; t >= 3; --t) {
        out.push_back(make_cell(p.protocol, p.adversary,
                                PlacementKind::kRandomBounded, side, r, t,
                                smoke ? 1 : 2));
      }
    }
  } else if (name == "heard-flood") {
    // The fault-free trial comes first: it is the set-up unit, and it does
    // not depend on the seed.
    const std::int64_t t = byz_linf_achievable_max(r);
    out.push_back(make_cell(ProtocolKind::kBvIndirectFlood,
                            AdversaryKind::kSilent, PlacementKind::kNone, side,
                            r, t, smoke ? 1 : 2));
    out.push_back(make_cell(ProtocolKind::kBvIndirectFlood,
                            AdversaryKind::kLying,
                            PlacementKind::kRandomBounded, side, r, t, 1));
  } else if (name == "million-node") {
    out.push_back(make_cell(ProtocolKind::kCrashFlood, AdversaryKind::kSilent,
                            PlacementKind::kNone, side, r, 0, 1));
  } else if (name == "lossy-retx") {
    // E10's two protocol rows at their sound budgets, over the lossy half of
    // its (loss_p, retransmissions) grid.
    struct Row {
      ProtocolKind protocol;
      AdversaryKind adversary;
      std::int64_t t;
      int reps;
    };
    const Row rows[] = {
        {ProtocolKind::kCrashFlood, AdversaryKind::kSilent,
         crash_linf_achievable_max(r) / 2, smoke ? 1 : 3},
        {ProtocolKind::kBvTwoHop, AdversaryKind::kLying,
         byz_linf_achievable_max(r), 1},
    };
    for (const Row& row : rows) {
      for (const double loss_p : {0.1, 0.3}) {
        for (const int retransmissions : {2, 4}) {
          CampaignCell cell =
              make_cell(row.protocol, row.adversary,
                        PlacementKind::kRandomBounded, side, r, row.t,
                        row.reps);
          cell.sim.loss_p = loss_p;
          cell.sim.retransmissions = retransmissions;
          cell.label += "/loss=" + std::to_string(loss_p).substr(0, 3) +
                        "/k=" + std::to_string(retransmissions);
          out.push_back(std::move(cell));
        }
      }
    }
  } else {
    throw std::logic_error(name + " is not a campaign workload");
  }
  const std::uint64_t batch_seed =
      hash_seeds(seed, static_cast<std::uint64_t>(batch));
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].sim.seed = hash_seeds(batch_seed, i);
  }
  return out;
}

Scenario Workload::scenario(std::uint64_t seed, int unit) const {
  if (!runtime) throw std::logic_error(name + " is not a runtime workload");
  Scenario s;
  s.sim.width = s.sim.height = side;
  s.sim.r = r;
  s.sim.t = 0;
  s.sim.protocol = ProtocolKind::kCrashFlood;
  s.sim.seed = hash_seeds(seed, static_cast<std::uint64_t>(unit));
  s.sim.max_rounds = smoke ? 200 : 10000;
  s.backend = RuntimeBackend::kEpoll;
  s.round_timeout_ms = 0;
  s.linger_timeout_ms = 2000;
  return s;
}

bool completeness_required(const SimConfig& sim) {
  if (sim.loss_p > 0.0 || sim.metric != Metric::kLInf) return false;
  std::int64_t achievable = -1;
  switch (sim.protocol) {
    case ProtocolKind::kCrashFlood:
      achievable = crash_linf_achievable_max(sim.r);
      break;
    case ProtocolKind::kCpa:
      achievable = cpa_linf_achievable_max(sim.r);
      break;
    case ProtocolKind::kBvTwoHop:
    case ProtocolKind::kBvIndirectFlood:
    case ProtocolKind::kBvIndirectEarmarked:
      achievable = byz_linf_achievable_max(sim.r);
      break;
  }
  return sim.t <= achievable;
}

std::int64_t cell_failures(const CampaignCell& cell,
                           const Aggregate& aggregate,
                           std::size_t recorded_failures) {
  const std::int64_t unsuccessful =
      completeness_required(cell.sim) ? aggregate.runs - aggregate.successes
                                      : 0;
  const std::int64_t wrong = aggregate.wrong_total > 0 ? 1 : 0;
  return static_cast<std::int64_t>(recorded_failures) +
         std::max(unsuccessful, wrong);
}

}  // namespace ledger
