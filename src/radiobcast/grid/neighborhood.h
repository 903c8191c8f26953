#pragma once
// Neighborhood offset tables.
//
// nbd(c) is the set of nodes within distance r of c (Section II). Protocols
// consult neighborhoods constantly, so we precompute, per (metric, r), the
// sorted list of offsets with 0 < |o| <= r. Tables are cached process-wide.

#include <cstdint>
#include <span>
#include <vector>

#include "radiobcast/grid/coord.h"
#include "radiobcast/grid/metric.h"
#include "radiobcast/grid/torus.h"

namespace rbcast {

class NeighborhoodTable {
 public:
  /// Returns the cached table for (r, m), built on first use. Thread-safe: a
  /// mutex covers the lookup and the build, and a built table never changes
  /// or moves.
  static const NeighborhoodTable& get(std::int32_t r, Metric m);

  std::int32_t radius() const { return r_; }
  Metric metric() const { return m_; }

  /// Offsets o with 0 < dist(o) <= r, in deterministic (row-major) order.
  std::span<const Offset> offsets() const { return offsets_; }

  /// |nbd| — number of neighbors of any node.
  std::int64_t size() const { return static_cast<std::int64_t>(offsets_.size()); }

  /// Materializes nbd(center) on a torus (canonical coords).
  std::vector<Coord> neighbors(const Torus& torus, Coord center) const;

  /// Materializes nbd(center) ∪ {center} on a torus.
  std::vector<Coord> closed_neighbors(const Torus& torus, Coord center) const;

 private:
  NeighborhoodTable(std::int32_t r, Metric m);

  std::int32_t r_;
  Metric m_;
  std::vector<Offset> offsets_;
};

/// pnbd(c) = nbd(c-1,·) ∪ nbd(c+1,·) ∪ nbd(·,c-1) ∪ nbd(·,c+1) (Section IV):
/// the union of the four neighborhoods whose centers are grid-adjacent to c.
/// Returned as canonical torus coordinates, deduplicated, sorted.
std::vector<Coord> perturbed_neighborhood(const Torus& torus, Coord center,
                                          std::int32_t r, Metric m);

}  // namespace rbcast
