#pragma once
// Adversarial and randomized fault placement strategies.
//
// The theorems quantify over *all* placements respecting the local bound t,
// so the benchmarks exercise the extremal constructions from the proofs:
//
//  * full_strip        — Theorem 4 / Fig 8: a width-r vertical strip of faults
//                        has exactly r(2r+1) faults in the worst closed
//                        neighborhood and partitions the torus for crash-stop.
//  * punctured_strip   — the same strip with one node removed every `period`
//                        rows: the densest legal barrier at t = r(2r+1) - 1.
//  * checkerboard_strip— Koo's Byzantine impossibility arrangement (Fig 13
//                        adapted to L∞): half-density strip; the worst closed
//                        neighborhood contains exactly ceil(r(2r+1)/2) faults,
//                        which is precisely the impossibility budget.
//  * random_bounded    — repeatedly draws uniform nodes and keeps those that
//                        do not violate the bound (the "generic" adversary).
//  * iid_faults        — each node fails independently with probability p_f
//                        (Section XI's percolation-style model; not bound-
//                        constrained).
//  * trim_to_budget    — greedy repair: removes faults until the bound holds;
//                        turns any over-budget pattern into the densest legal
//                        sub-pattern our greedy finds.

#include <cstdint>

#include "radiobcast/fault/fault_set.h"
#include "radiobcast/util/rng.h"

namespace rbcast {

/// All nodes with x_lo <= x <= x_lo + width - 1 (all rows). Never includes
/// `exclude` (the source).
FaultSet full_strip(const Torus& torus, std::int32_t x_lo, std::int32_t width,
                    Coord exclude);

/// full_strip minus the nodes (x_lo, y) with y % period == 0.
FaultSet punctured_strip(const Torus& torus, std::int32_t x_lo,
                         std::int32_t width, std::int32_t period,
                         Coord exclude);

/// Strip cells with (x + y) % 2 == parity.
FaultSet checkerboard_strip(const Torus& torus, std::int32_t x_lo,
                            std::int32_t width, std::int32_t parity,
                            Coord exclude);

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
