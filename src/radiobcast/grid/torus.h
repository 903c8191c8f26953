#pragma once
// Finite toroidal grid (Section II: "The results also hold for a finite
// toroidal network, as boundary anomalies are eliminated").
//
// The torus canonicalizes coordinates into [0,width) x [0,height) and defines
// the displacement between two nodes as the *minimal* wrap-around
// displacement. For that displacement to be unique for every pair of nodes
// that a protocol ever compares (distances up to a few multiples of r), the
// simulation layer enforces width,height >= 8r+4; the Torus itself only
// requires positive dimensions.

#include <cstdint>
#include <vector>

#include "radiobcast/grid/coord.h"
#include "radiobcast/grid/metric.h"

namespace rbcast {

class Torus {
 public:
  Torus(std::int32_t width, std::int32_t height);

  std::int32_t width() const { return width_; }
  std::int32_t height() const { return height_; }
  std::int64_t node_count() const {
    return static_cast<std::int64_t>(width_) * height_;
  }

  /// Canonical representative of a (possibly negative / out-of-range) coord.
  /// Inline: this and delta() sit on the per-delivery hot path (hundreds of
  /// millions of calls per flood trial — see docs/PERF.md).
  Coord wrap(Coord c) const {
    return {mod_floor(c.x, width_), mod_floor(c.y, height_)};
  }

  /// Dense index of a canonical coordinate, in [0, node_count()).
  std::int32_t index(Coord c) const {
    const Coord w = wrap(c);
    return w.y * width_ + w.x;
  }

  /// Inverse of index().
  Coord coord(std::int32_t idx) const {
    return {idx % width_, idx / width_};
  }

  /// Minimal wrap-around displacement taking `from` to `to`; each component
  /// is in (-dim/2, dim/2].
  Offset delta(Coord from, Coord to) const {
    const Coord a = wrap(from);
    const Coord b = wrap(to);
    std::int32_t dx = b.x - a.x;
    std::int32_t dy = b.y - a.y;
    // Fold into (-dim/2, dim/2].
    if (2 * dx > width_) dx -= width_;
    if (2 * dx <= -width_) dx += width_;
    if (2 * dy > height_) dy -= height_;
    if (2 * dy <= -height_) dy += height_;
    return {dx, dy};
  }

  /// Distance-r containment test under the torus metric.
  bool within(Coord a, Coord b, std::int32_t r, Metric m) const {
    return within_radius(delta(a, b), r, m);
  }

  /// All canonical coordinates, row-major (y outer, x inner), matching
  /// index() order.
  std::vector<Coord> all_coords() const;

 private:
  // Mathematical modulus (result in [0, m)). Hot-path coordinates are
  // canonical or at most one period out (a node plus a neighbor offset), so
  // those skip the division; the result is the same for every input.
  static std::int32_t mod_floor(std::int32_t v, std::int32_t m) {
    if (v >= 0) {
      if (v < m) return v;
      if (v - m < m) return v - m;
    } else if (v >= -m) {
      return v + m;
    }
    const std::int32_t r = v % m;
    return r < 0 ? r + m : r;
  }

  std::int32_t width_;
  std::int32_t height_;
};

}  // namespace rbcast
