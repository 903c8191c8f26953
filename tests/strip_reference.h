#pragma once
// The three strip generators that PeriodicBand's presets replaced, kept as
// the reference those presets must match fault for fault, and as fixed
// patterns for the local-bound validator's cross-check.

#include <cstdint>
#include <stdexcept>

#include "radiobcast/fault/fault_set.h"

namespace rbcast::strip_reference {

inline void check_strip(const Torus& torus, std::int32_t width) {
  if (width < 1 || width >= torus.width()) {
    throw std::invalid_argument("strip width must be in [1, torus width)");
  }
}

/// All nodes with x_lo <= x <= x_lo + width - 1 (all rows). Never includes
/// `exclude` (the source).
inline FaultSet full_strip(const Torus& torus, std::int32_t x_lo,
                           std::int32_t width, Coord exclude) {
  check_strip(torus, width);
  FaultSet out;
  const Coord excl = torus.wrap(exclude);
  for (std::int32_t dx = 0; dx < width; ++dx) {
    for (std::int32_t y = 0; y < torus.height(); ++y) {
      const Coord c = torus.wrap({x_lo + dx, y});
      if (c == excl) continue;
      out.add(torus, c);
    }
  }
  return out;
}

/// full_strip minus the nodes (x_lo, y) with y % period == 0.
inline FaultSet punctured_strip(const Torus& torus, std::int32_t x_lo,
                                std::int32_t width, std::int32_t period,
                                Coord exclude) {
  if (period < 1) throw std::invalid_argument("puncture period must be >= 1");
  FaultSet out = full_strip(torus, x_lo, width, exclude);
  for (std::int32_t y = 0; y < torus.height(); y += period) {
    out.remove(torus, {x_lo, y});
  }
  return out;
}

/// Strip cells with (x + y) % 2 == parity.
inline FaultSet checkerboard_strip(const Torus& torus, std::int32_t x_lo,
                                   std::int32_t width, std::int32_t parity,
                                   Coord exclude) {
  check_strip(torus, width);
  FaultSet out;
  const Coord excl = torus.wrap(exclude);
  for (std::int32_t dx = 0; dx < width; ++dx) {
    for (std::int32_t y = 0; y < torus.height(); ++y) {
      const Coord c = torus.wrap({x_lo + dx, y});
      if (c == excl) continue;
      if (((c.x + c.y) % 2 + 2) % 2 != parity) continue;
      out.add(torus, c);
    }
  }
  return out;
}

}  // namespace rbcast::strip_reference
