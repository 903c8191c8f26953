// E4 — Reproduces Section VIII and Figs 11-13: reliable broadcast in the
// Euclidean (L2) metric.
//
// The paper gives informal large-r estimates:
//   Byzantine:  achievable for t < 0.23*pi*r^2, impossible for t >= 0.3*pi*r^2
//   crash-stop: achievable ~ 0.46*pi*r^2,       impossible ~ 0.6*pi*r^2
//
// This harness (a) verifies the lattice-count approximation |nbd| ~ pi r^2
// that the whole section leans on, and (b) sweeps the fault fraction
// f = t/(pi r^2) for both failure modes, reporting measured success against
// the paper's estimated bands. Exact thresholds are NOT expected (the paper
// refrains from establishing them; all estimates carry ±O(r) slack that is
// material at laptop-scale radii) — the reproducible shape is: success at
// small fractions, failure above the impossibility band, crossover between.

#include <cmath>
#include <iostream>

#include "radiobcast/core/analysis.h"
#include "radiobcast/core/experiment.h"
#include "radiobcast/core/simulation.h"
#include "radiobcast/fault/placement.h"
#include "radiobcast/util/table.h"

namespace {
constexpr double kPi = 3.14159265358979323846;
}

int main() {
  using namespace rbcast;
  std::cout << "E4: Euclidean-metric thresholds (Section VIII, Figs 11-13)\n\n";

  std::cout << "Lattice-count approximation |nbd_L2(r)| ~ pi r^2 +/- O(r):\n";
  Table counts({"r", "|nbd| exact", "pi r^2", "error", "error / r"});
  for (std::int32_t r = 2; r <= 12; ++r) {
    const double pir2 = kPi * r * r;
    const auto exact = neighborhood_size(r, Metric::kL2);
    counts.row()
        .cell(std::to_string(r))
        .cell(exact)
        .cell(pir2, 1)
        .cell(static_cast<double>(exact) - pir2, 1)
        .cell((static_cast<double>(exact) - pir2) / r, 2);
  }
  counts.print(std::cout);
  std::cout << "\n";

  bool shape_ok = true;

  // --- Byzantine sweep -----------------------------------------------------
  std::cout << "Byzantine (bv-2hop, lying adversary, random bounded "
               "placement): paper bands 0.23 / 0.30\n";
  Table byz({"r", "fraction", "t", "success", "mean coverage",
             "wrong commits", "paper band"});
  for (std::int32_t r = 2; r <= 3; ++r) {
    double low_frac_coverage = -1.0, high_frac_coverage = -1.0;
    for (const double frac : {0.10, 0.17, 0.23, 0.30, 0.40}) {
      SimConfig cfg;
      cfg.r = r;
      cfg.width = cfg.height = 8 * r + 4;
      cfg.metric = Metric::kL2;
      cfg.t = static_cast<std::int64_t>(std::floor(frac * kPi * r * r));
      cfg.protocol = ProtocolKind::kBvTwoHop;
      cfg.adversary = AdversaryKind::kLying;
      cfg.seed = 600 + static_cast<std::uint64_t>(100 * frac);
      PlacementConfig placement;
      placement.kind = PlacementKind::kRandomBounded;
      const Aggregate agg = run_repeated(cfg, placement, 3);
      const char* band = frac < 0.23   ? "achievable (est.)"
                         : frac < 0.30 ? "uncertain"
                                       : "impossible (est.)";
      byz.row()
          .cell(std::to_string(r))
          .cell(frac, 2)
          .cell(cfg.t)
          .cell(std::to_string(agg.successes) + "/" + std::to_string(agg.runs))
          .cell(agg.mean_coverage(), 4)
          .cell(agg.wrong_total)
          .cell(band);
      if (agg.wrong_total != 0) shape_ok = false;
      if (frac == 0.10) low_frac_coverage = agg.mean_coverage();
      if (frac == 0.40) high_frac_coverage = agg.mean_coverage();
    }
    // Shape: low fractions must do at least as well as absurd ones.
    if (low_frac_coverage < high_frac_coverage) shape_ok = false;
    if (low_frac_coverage < 1.0) shape_ok = false;  // 0.10 band must succeed
  }
  byz.print(std::cout);
  std::cout << "\n";

  // --- Fig 13 geometry: the strip barrier under the L2 metric --------------
  // A full width-r strip's worst closed L2 neighborhood holds ~0.6*pi*r^2
  // faults (the paper's circled region in Fig 13); the half-density
  // checkerboard strip holds ~0.3*pi*r^2. Verify those counts exactly.
  std::cout << "Fig 13 counting argument (strip ∩ disc lattice counts):\n";
  Table fig13({"r", "full strip worst nbd", "0.6 pi r^2",
               "checkerboard worst nbd", "0.3 pi r^2"});
  for (std::int32_t r = 2; r <= 6; ++r) {
    const Torus torus(8 * r + 4, 8 * r + 4);
    FaultSet full, half;
    place_band(full, torus, full_band(r), 4 * r, {0, 0});
    place_band(half, torus, checkerboard_band(torus, 4 * r, r), 4 * r, {0, 0});
    fig13.row()
        .cell(std::to_string(r))
        .cell(max_closed_nbd_faults(torus, full, r, Metric::kL2))
        .cell(0.6 * kPi * r * r, 1)
        .cell(max_closed_nbd_faults(torus, half, r, Metric::kL2))
        .cell(0.3 * kPi * r * r, 1);
  }
  fig13.print(std::cout);
  std::cout << "\n";

  // --- Crash-stop sweep against the Fig-13 strip barrier -------------------
  std::cout << "Crash-stop (flooding) vs the strip barrier, trimmed to "
               "budget: paper bands 0.46 / 0.60\n";
  Table crash({"r", "fraction", "t", "success", "mean coverage",
               "paper band"});
  for (std::int32_t r = 2; r <= 3; ++r) {
    double low_cov = -1.0, high_cov = -1.0;
    for (const double frac : {0.20, 0.35, 0.46, 0.60, 0.75}) {
      SimConfig cfg;
      cfg.r = r;
      cfg.width = cfg.height = 8 * r + 4;
      cfg.metric = Metric::kL2;
      cfg.t = static_cast<std::int64_t>(std::floor(frac * kPi * r * r));
      cfg.protocol = ProtocolKind::kCrashFlood;
      cfg.adversary = AdversaryKind::kSilent;
      cfg.seed = 700 + static_cast<std::uint64_t>(100 * frac);
      PlacementConfig placement;
      placement.kind = PlacementKind::kFullStrip;
      placement.trim = true;  // densest legal sub-barrier at budget t
      const Aggregate agg = run_repeated(cfg, placement, 1);
      const char* band = frac < 0.46   ? "achievable (est.)"
                         : frac < 0.60 ? "uncertain"
                                       : "impossible (est.)";
      crash.row()
          .cell(std::to_string(r))
          .cell(frac, 2)
          .cell(cfg.t)
          .cell(std::to_string(agg.successes) + "/" + std::to_string(agg.runs))
          .cell(agg.mean_coverage(), 4)
          .cell(band);
      if (frac == 0.20) low_cov = agg.mean_coverage();
      if (frac == 0.75) high_cov = agg.mean_coverage();
    }
    // The barrier must go from harmless to partitioning across the sweep.
    if (low_cov < 1.0 || high_cov > 0.8) shape_ok = false;
  }
  crash.print(std::cout);

  std::cout << "\nNote: the small-r crossover sits above the asymptotic "
               "0.46/0.60 bands because the lattice O(r) corrections favor "
               "the flood at laptop-scale radii.\n";
  std::cout << (shape_ok
                    ? "SHAPE MATCHES PAPER: clean success in the achievable "
                      "band, no wrong commits\n"
                    : "SHAPE MISMATCH — see rows above\n");
  return shape_ok ? 0 : 1;
}
