#pragma once
// The five benchmark workloads (README.md, "Workloads") and their
// correctness oracles. The benchmark derives every input from the run seed;
// the library only ever sees the generated campaign cells or scenarios.

#include <cstdint>
#include <string>
#include <vector>

#include "radiobcast/campaign/spec.h"
#include "radiobcast/core/experiment.h"
#include "radiobcast/runtime/scenario.h"

namespace ledger {

struct Workload {
  std::string name;
  /// Sub-second sizes for the smoke test.
  bool smoke = false;
  /// True for the runtime workload, whose unit is one deployment pair; the
  /// others are campaigns whose unit is one trial.
  bool runtime = false;
  /// Campaign worker threads.
  int workers = 1;
  /// Geometry of the workload's torus (for the cold grid-table probe).
  std::int32_t side = 0;
  std::int32_t r = 0;

  /// Campaign workloads: the cells of batch `batch`. A batch is a whole
  /// campaign, so its JSON is a pure function of (seed, batch).
  std::vector<rbcast::CampaignCell> cells(std::uint64_t seed, int batch) const;
  /// Runtime workload: the scenario of unit `unit` (shared_socket unset).
  rbcast::Scenario scenario(std::uint64_t seed, int unit) const;
};

/// The named workload. Throws std::invalid_argument for an unknown name.
Workload find_workload(const std::string& name, bool smoke);

/// Completeness oracle: with no loss and t at most the protocol's achievable
/// maximum (Theorems 3, 5 and 6 in L-infinity), every trial must succeed.
bool completeness_required(const rbcast::SimConfig& sim);

/// Failing trials of a finished cell, as far as its aggregate shows them:
/// recorded TrialFailures, wrong commits (Theorem 2; counted as one trial
/// when the aggregate cannot say how many), and unsuccessful trials where
/// completeness_required holds.
std::int64_t cell_failures(const rbcast::CampaignCell& cell,
                           const rbcast::Aggregate& aggregate,
                           std::size_t recorded_failures);

}  // namespace ledger
