#include "radiobcast/core/experiment.h"

#include <algorithm>

#include "radiobcast/fault/placement.h"

namespace rbcast {

const char* to_string(PlacementKind k) {
  switch (k) {
    case PlacementKind::kNone: return "none";
    case PlacementKind::kFullStrip: return "full-strip";
    case PlacementKind::kPuncturedStrip: return "punctured-strip";
    case PlacementKind::kCheckerboardStrip: return "checkerboard-strip";
    case PlacementKind::kRandomBounded: return "random-bounded";
    case PlacementKind::kIid: return "iid";
  }
  return "?";
}

std::optional<PlacementKind> placement_from_string(std::string_view name) {
  for (const PlacementKind k :
       {PlacementKind::kNone, PlacementKind::kFullStrip,
        PlacementKind::kPuncturedStrip, PlacementKind::kCheckerboardStrip,
        PlacementKind::kRandomBounded, PlacementKind::kIid}) {
    if (name == to_string(k)) return k;
  }
  return std::nullopt;
}

FaultSet make_faults(const PlacementConfig& placement, const Torus& torus,
                     std::int32_t r, Metric m, std::int64_t t, Coord source,
                     Rng& rng) {
  // Strip presets: one band r wide at x = W/4 and one at 3W/4.
  const std::int32_t positions[] = {torus.width() / 4, 3 * torus.width() / 4};

  FaultSet out;
  switch (placement.kind) {
    case PlacementKind::kNone:
      break;
    case PlacementKind::kFullStrip:
      for (const std::int32_t x : positions) {
        place_band(out, torus, full_band(r), x, source);
      }
      break;
    case PlacementKind::kPuncturedStrip:
      for (const std::int32_t x : positions) {
        place_band(out, torus, punctured_band(r), x, source);
      }
      break;
    case PlacementKind::kCheckerboardStrip:
      for (const std::int32_t x : positions) {
        place_band(out, torus, checkerboard_band(torus, x, r), x, source);
      }
      break;
    case PlacementKind::kRandomBounded: {
      const std::int64_t target = placement.random_target >= 0
                                      ? placement.random_target
                                      : torus.node_count();
      out = random_bounded(torus, r, m, t, target,
                           /*attempts=*/torus.node_count() * 20, rng, source);
      break;
    }
    case PlacementKind::kIid:
      out = iid_faults(torus, placement.iid_p, rng, source);
      break;
  }
  if (placement.trim && placement.kind != PlacementKind::kIid &&
      placement.kind != PlacementKind::kRandomBounded) {
    trim_to_budget(out, torus, r, m, t);
  }
  return out;
}

TrialOutcome summarize_trial(const SimResult& result, std::int64_t fault_count,
                             std::int64_t nbd_faults) {
  TrialOutcome out;
  out.honest_nodes = result.honest_nodes;
  out.correct_commits = result.correct_commits;
  out.wrong_commits = result.wrong_commits;
  out.rounds = result.rounds;
  out.transmissions = result.transmissions;
  out.fault_count = fault_count;
  out.nbd_faults = nbd_faults;
  out.success = result.success();
  out.coverage = result.coverage();
  out.counters = result.counters;
  out.timers = result.timers;
  return out;
}

void Aggregate::add(const TrialOutcome& trial) {
  runs += 1;
  successes += trial.success ? 1 : 0;
  correct_total += trial.correct_commits;
  honest_total += trial.honest_nodes;
  wrong_total += trial.wrong_commits;
  rounds_total += trial.rounds;
  transmissions_total += trial.transmissions;
  fault_total += trial.fault_count;
  min_coverage = std::min(min_coverage, trial.coverage);
  max_nbd_faults = std::max(max_nbd_faults, trial.nbd_faults);
  counters_total.merge(trial.counters);
  timers_total.merge(trial.timers);
}

void Aggregate::merge(const Aggregate& other) {
  runs += other.runs;
  successes += other.successes;
  correct_total += other.correct_total;
  honest_total += other.honest_total;
  wrong_total += other.wrong_total;
  rounds_total += other.rounds_total;
  transmissions_total += other.transmissions_total;
  fault_total += other.fault_total;
  min_coverage = std::min(min_coverage, other.min_coverage);
  max_nbd_faults = std::max(max_nbd_faults, other.max_nbd_faults);
  counters_total.merge(other.counters_total);
  timers_total.merge(other.timers_total);
}

double Aggregate::mean_coverage() const {
  return honest_total == 0 ? 1.0
                           : static_cast<double>(correct_total) /
                                 static_cast<double>(honest_total);
}

double Aggregate::mean_rounds() const {
  return runs == 0 ? 0.0
                   : static_cast<double>(rounds_total) /
                         static_cast<double>(runs);
}

double Aggregate::mean_transmissions() const {
  return runs == 0 ? 0.0
                   : static_cast<double>(transmissions_total) /
                         static_cast<double>(runs);
}

double Aggregate::mean_fault_count() const {
  return runs == 0 ? 0.0
                   : static_cast<double>(fault_total) /
                         static_cast<double>(runs);
}

// run_repeated / run_repeated_range are defined in campaign/engine.cpp on top
// of the campaign engine so the serial and parallel sweeps share one trial
// runner and one aggregation code path.

}  // namespace rbcast
