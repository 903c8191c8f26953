#pragma once
// Declarative experiment campaigns: a CampaignSpec names the parameter axes
// to sweep (protocol, adversary, placement, radius, budget t, torus side,
// channel loss) and a repetition count; expand() takes the cartesian product
// and flattens it into a list of cells, one per parameter combination.
//
// Seeding scheme (deterministic for any worker count):
//   cell seed    = hash_seeds(base_seed, cell_index)
//   trial seed   = hash_seeds(cell_seed, rep_index)
//   retry seed   = hash_seeds(cell_seed, rep_index, attempt)   [attempt >= 1]
// with hash_seeds built on splitmix64 (util/rng.h). A cell built by hand
// (run_cells) keeps whatever seed its SimConfig carries, which is how
// run_repeated(base, placement, reps) reproduces its historical seed stream
// hash_seeds(base.seed, 0..reps-1) exactly. The retry stream (see
// engine.h's trial_seed) only engages when a transient failure is retried,
// so retry-free campaigns keep their historical seeds bit for bit.

#include <cstdint>
#include <string>
#include <vector>

#include "radiobcast/core/experiment.h"
#include "radiobcast/core/simulation.h"

namespace rbcast {

/// One campaign cell: a fully resolved (SimConfig, PlacementConfig) pair that
/// is run `reps` times under seeds hash_seeds(sim.seed, 0..reps-1).
struct CampaignCell {
  std::string label;  // free-form; spec expansion fills in a param summary
  SimConfig sim;
  PlacementConfig placement;
  int reps = 1;
};

/// A cartesian parameter grid over SimConfig/PlacementConfig. Empty axis
/// vectors mean "keep the base value"; non-empty ones are swept in order.
struct CampaignSpec {
  SimConfig base;            // values for everything not swept
  PlacementConfig placement; // placement knobs (kind, iid_p, trim, ...)

  std::vector<ProtocolKind> protocols;
  std::vector<AdversaryKind> adversaries;
  std::vector<PlacementKind> placements;
  std::vector<std::int32_t> radii;   // transmission radius r
  std::vector<std::int64_t> budgets; // local fault bound t
  std::vector<std::int32_t> sides;   // square torus side (0 = keep base w/h)
  std::vector<double> loss_ps;       // per-receiver iid loss probability

  int reps = 1;
  std::uint64_t base_seed = 1;

  /// Number of cells expand() will produce (product of axis lengths, empty
  /// axes counting as 1).
  std::size_t cell_count() const;

  /// Total trials: cell_count() * reps.
  std::size_t trial_count() const;

  /// Cartesian expansion in axis order protocol > adversary > placement >
  /// side > r > t > loss_p, slowest axis first. Cell i gets seed
  /// hash_seeds(base_seed, i) and a "key=value key=value" label naming the
  /// swept axes only.
  std::vector<CampaignCell> expand() const;
};

}  // namespace rbcast
