#pragma once
// Adversarial and randomized fault placement strategies.
//
// The theorems quantify over *all* placements respecting the local bound t,
// so the benchmarks exercise the extremal constructions from the proofs.
// Each barrier construction is a PeriodicBand, one mask repeated down the
// torus, and place_band lays any band at any column. Three preset bands:
//
//  * full_band         — Theorem 4 / Fig 8: a width-r vertical strip of faults
//                        has exactly r(2r+1) faults in the worst closed
//                        neighborhood and partitions the torus for crash-stop.
//  * punctured_band    — the same strip with one node removed every 2r+1
//                        rows: the densest legal barrier at t = r(2r+1) - 1.
//  * checkerboard_band — Koo's Byzantine impossibility arrangement (Fig 13
//                        adapted to L∞): half-density strip; the worst closed
//                        neighborhood contains exactly ceil(r(2r+1)/2) faults,
//                        which is precisely the impossibility budget.
//
// and the generic adversaries:
//
//  * random_bounded    — repeatedly draws uniform nodes and keeps those that
//                        do not violate the bound (the "generic" adversary).
//  * iid_faults        — each node fails independently with probability p_f
//                        (Section XI's percolation-style model; not bound-
//                        constrained).
//  * trim_to_budget    — greedy repair: removes faults until the bound holds;
//                        turns any over-budget pattern into the densest legal
//                        sub-pattern our greedy finds.

#include <cstdint>
#include <vector>

#include "radiobcast/fault/fault_set.h"
#include "radiobcast/util/rng.h"

namespace rbcast {

/// A fault pattern that repeats down the torus: `width` columns, and a mask
/// of `period` rows of `width` cells each, row-major (mask[row * width + dx]
/// is true where band column dx of mask row `row` is faulty).
struct PeriodicBand {
  std::int32_t width = 0;
  std::int32_t period = 0;
  std::vector<bool> mask;
};

/// Adds `band`'s faults to `faults` with its left column at x_lo: band column
/// dx lies on torus column x_lo + dx (wrapping), and canonical row y reads
/// mask row y mod period, counted from y = 0, so a period that does not
/// divide the torus height leaves a seam where the rows wrap. Never adds
/// `exclude` (the source). Throws std::invalid_argument, before adding
/// anything, unless 1 <= width < torus width, period >= 1 and the mask holds
/// width * period cells.
void place_band(FaultSet& faults, const Torus& torus, const PeriodicBand& band,
                std::int32_t x_lo, Coord exclude);

/// r columns, every cell faulty (period 1).
PeriodicBand full_band(std::int32_t r);

/// r columns, period 2r + 1, every cell faulty but cell (0, 0): the band's
/// left column loses the nodes in rows 0, 2r + 1, 2(2r + 1), ...
PeriodicBand punctured_band(std::int32_t r);

/// r columns, period 2, for a band whose left column is x_lo: the cells whose
/// canonical coordinates (x, y) have x + y even. The mask depends on where
/// the band goes: its phase follows the parity of x_lo, and a band that wraps
/// past the last column of an odd-width torus changes phase there.
PeriodicBand checkerboard_band(const Torus& torus, std::int32_t x_lo,
                               std::int32_t r);

/// Draws uniform random nodes, keeping each draw only if the local bound t
/// still holds; stops after `target` accepted faults or when `attempts` draws
/// are exhausted.
FaultSet random_bounded(const Torus& torus, std::int32_t r, Metric m,
                        std::int64_t t, std::int64_t target,
                        std::int64_t attempts, Rng& rng, Coord exclude);

/// Independent failures with probability p_f (no local-bound enforcement).
FaultSet iid_faults(const Torus& torus, double p_f, Rng& rng, Coord exclude);

/// Greedily removes faults until the local bound t holds. Each removal takes
/// the first worst closed neighborhood in row-major order and removes its
/// center if faulty, else its smallest fault by (x, y). Only centers within r
/// of a fault are visited, so an empty set costs nothing.
void trim_to_budget(FaultSet& faults, const Torus& torus, std::int32_t r,
                    Metric m, std::int64_t t);

}  // namespace rbcast
