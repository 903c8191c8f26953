#pragma once
// Experiment driver: fault-placement recipes plus repeated-run aggregation.
//
// A note on strips and the torus: on the infinite grid one width-r vertical
// strip of faults separates a half-plane from the source (Theorem 4, Fig 8).
// On a torus the x-axis wraps, so the same cut requires *two* strips; placing
// them half a torus apart keeps every closed neighborhood inside at most one
// strip, leaving the per-neighborhood fault count identical to the single-
// strip construction. All strip placements here therefore instantiate the
// pattern at x = width/4 and x = 3*width/4, enclosing the region opposite
// the source. Each strip is r columns wide, and a punctured strip loses one
// node every 2r+1 rows.

#include <cstdint>
#include <optional>
#include <string_view>

#include "radiobcast/core/simulation.h"
#include "radiobcast/fault/fault_set.h"
#include "radiobcast/util/rng.h"

namespace rbcast {

enum class PlacementKind : std::uint8_t {
  kNone,               // no faults
  kFullStrip,          // width-r strips, all rows (Theorem 4 construction)
  kPuncturedStrip,     // strips with one node removed per 2r+1 rows
  kCheckerboardStrip,  // half-density strips (Koo's Fig 13 arrangement)
  kRandomBounded,      // uniform random respecting the local bound t
  kIid,                // each node faulty with probability iid_p
};

const char* to_string(PlacementKind k);

/// Inverse of to_string(PlacementKind). Returns nullopt for unknown names.
std::optional<PlacementKind> placement_from_string(std::string_view name);

struct PlacementConfig {
  PlacementKind kind = PlacementKind::kNone;
  std::int64_t random_target = -1;  // -1 = as many as fit (bounded attempts)
  double iid_p = 0.0;
  /// Greedily remove faults until the local bound t holds. Lets over-budget
  /// patterns (e.g. a checkerboard at t below its density) act as "densest
  /// legal barrier" adversaries.
  bool trim = true;
};

/// Materializes a fault set for one run.
FaultSet make_faults(const PlacementConfig& placement, const Torus& torus,
                     std::int32_t r, Metric m, std::int64_t t, Coord source,
                     Rng& rng);

/// Compact summary of one simulation trial — everything the aggregator needs,
/// without retaining the per-node vectors of SimResult. The campaign engine
/// stores one of these per trial so aggregates can be folded in trial order
/// regardless of which worker thread finished first. The campaign journal
/// (campaign/journal.h) serializes exactly the deterministic fields below —
/// timers excluded — which is what lets a killed-and-resumed campaign fold to
/// byte-identical exports.
struct TrialOutcome {
  std::int64_t honest_nodes = 0;
  std::int64_t correct_commits = 0;
  std::int64_t wrong_commits = 0;
  std::int64_t rounds = 0;
  std::uint64_t transmissions = 0;
  std::int64_t fault_count = 0;
  std::int64_t nbd_faults = 0;  // worst closed-neighborhood fault count
  bool success = false;
  double coverage = 1.0;
  /// Observability counters of the trial (deterministic given the seed).
  Counters counters;
  /// Wall-clock phase split (nondeterministic; excluded from byte-identical
  /// payloads — see campaign/report.h).
  PhaseTimers timers;
};

/// Summarizes one SimResult (plus the fault-set statistics of the run it was
/// scored against) into the aggregation record.
TrialOutcome summarize_trial(const SimResult& result, std::int64_t fault_count,
                             std::int64_t nbd_faults);

/// Aggregated outcome of `runs` simulations that differ only in seed.
///
/// All accumulated quantities are *sums of integers* (coverage is pooled:
/// total correct commits over total honest nodes), so merging two aggregates
/// is exact and associative: run_repeated(reps=a) ⊕ run_repeated(reps=b over
/// the continuation seeds) equals run_repeated(reps=a+b) bit for bit. This is
/// what lets the parallel campaign engine combine per-trial partials in any
/// grouping and still produce results identical to a serial run.
struct Aggregate {
  int runs = 0;
  int successes = 0;              // full coverage, no wrong commits
  std::int64_t correct_total = 0;  // honest correct commits across all runs
  std::int64_t honest_total = 0;   // honest (non-source) nodes across all runs
  std::int64_t wrong_total = 0;    // honest wrong commits across all runs
  std::int64_t rounds_total = 0;
  std::uint64_t transmissions_total = 0;
  std::int64_t fault_total = 0;     // faults placed across all runs
  double min_coverage = 1.0;        // worst single-run coverage
  std::int64_t max_nbd_faults = 0;  // worst closed-neighborhood fault count
  /// Summed observability counters (integer sums — merge-exact like every
  /// other accumulated field; last_commit_round keeps the max).
  Counters counters_total;
  /// Summed wall-clock phase timings. Nondeterministic: the fold order is
  /// fixed (trial order), so merging stays reproducible within a run, but the
  /// values differ run to run and are excluded from deterministic payloads.
  PhaseTimers timers_total;

  /// Folds one trial into the aggregate.
  void add(const TrialOutcome& trial);

  /// Exact, associative combination of two aggregates (disjoint run sets).
  void merge(const Aggregate& other);

  /// Pooled coverage: correct commits / honest-node slots over all runs.
  double mean_coverage() const;
  double mean_rounds() const;
  double mean_transmissions() const;
  double mean_fault_count() const;

  bool all_success() const { return successes == runs; }
};

/// Runs `reps` simulations with seeds hash_seeds(base.seed, 0.. reps-1) and
/// fresh fault placements, and aggregates. Defined in campaign/engine.cpp:
/// this is a one-cell campaign on the serial path, so the repeated-run and
/// campaign code paths share one trial runner and one aggregation routine.
Aggregate run_repeated(const SimConfig& base, const PlacementConfig& placement,
                       int reps);

/// As run_repeated, but over the rep window [first_rep, first_rep + reps):
/// trial i uses seed hash_seeds(base.seed, first_rep + i). Splitting a run
/// into ranges and merging the aggregates reproduces the unsplit run exactly.
Aggregate run_repeated_range(const SimConfig& base,
                             const PlacementConfig& placement, int first_rep,
                             int reps);

}  // namespace rbcast
