#include "radiobcast/fault/placement.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "radiobcast/grid/neighborhood.h"

namespace rbcast {

void place_band(FaultSet& faults, const Torus& torus, const PeriodicBand& band,
                std::int32_t x_lo, Coord exclude) {
  if (band.width < 1 || band.width >= torus.width()) {
    throw std::invalid_argument("band width must be in [1, torus width)");
  }
  if (band.period < 1) throw std::invalid_argument("band period must be >= 1");
  if (band.mask.size() != static_cast<std::size_t>(band.width) *
                              static_cast<std::size_t>(band.period)) {
    throw std::invalid_argument("band mask must hold width * period cells");
  }
  const Coord excl = torus.wrap(exclude);
  for (std::int32_t y = 0; y < torus.height(); ++y) {
    const auto row = static_cast<std::size_t>(y % band.period) *
                     static_cast<std::size_t>(band.width);
    for (std::int32_t dx = 0; dx < band.width; ++dx) {
      if (!band.mask[row + static_cast<std::size_t>(dx)]) continue;
      const Coord c = torus.wrap({x_lo + dx, y});
      if (c != excl) faults.add(torus, c);
    }
  }
}

PeriodicBand full_band(std::int32_t r) {
  PeriodicBand band{r, 1, {}};
  for (std::int32_t dx = 0; dx < r; ++dx) band.mask.push_back(true);
  return band;
}

PeriodicBand punctured_band(std::int32_t r) {
  PeriodicBand band{r, 2 * r + 1, {}};
  for (std::int32_t row = 0; row < band.period; ++row) {
    for (std::int32_t dx = 0; dx < r; ++dx) {
      band.mask.push_back(row != 0 || dx != 0);
    }
  }
  return band;
}

PeriodicBand checkerboard_band(const Torus& torus, std::int32_t x_lo,
                               std::int32_t r) {
  PeriodicBand band{r, 2, {}};
  for (std::int32_t row = 0; row < 2; ++row) {
    for (std::int32_t dx = 0; dx < r; ++dx) {
      band.mask.push_back((torus.wrap({x_lo + dx, 0}).x + row) % 2 == 0);
    }
  }
  return band;
}

FaultSet random_bounded(const Torus& torus, std::int32_t r, Metric m,
                        std::int64_t t, std::int64_t target,
                        std::int64_t attempts, Rng& rng, Coord exclude) {
  FaultSet out;
  const auto& table = NeighborhoodTable::get(r, m);
  const auto nodes = static_cast<std::size_t>(torus.node_count());
  // Incremental closed-neighborhood counts: counts[c] = number of faults in
  // nbd(c) ∪ {c}.
  std::vector<std::int64_t> counts(nodes, 0);
  // Nodes no later draw can add: the excluded node, the faults, and every
  // node can_add once refused (counts only grow, so it stays refused). A
  // draw of one is skipped without a look.
  std::vector<char> settled(nodes, 0);
  settled[static_cast<std::size_t>(torus.index(exclude))] = 1;
  auto can_add = [&](Coord f) {
    if (counts[static_cast<std::size_t>(torus.index(f))] + 1 > t) return false;
    for (const Offset o : table.offsets()) {
      const Coord c = torus.wrap(f + o);
      if (counts[static_cast<std::size_t>(torus.index(c))] + 1 > t) {
        return false;
      }
    }
    return true;
  };
  auto apply_add = [&](Coord f) {
    counts[static_cast<std::size_t>(torus.index(f))] += 1;
    for (const Offset o : table.offsets()) {
      counts[static_cast<std::size_t>(torus.index(torus.wrap(f + o)))] += 1;
    }
  };
  for (std::int64_t i = 0;
       i < attempts && static_cast<std::int64_t>(out.size()) < target; ++i) {
    const auto idx = static_cast<std::size_t>(rng.below(nodes));
    if (settled[idx] != 0) continue;
    settled[idx] = 1;
    const Coord c = torus.coord(static_cast<std::int32_t>(idx));
    if (!can_add(c)) continue;
    out.add(torus, c);
    apply_add(c);
  }
  return out;
}

FaultSet iid_faults(const Torus& torus, double p_f, Rng& rng, Coord exclude) {
  FaultSet out;
  const Coord excl = torus.wrap(exclude);
  for (const Coord c : torus.all_coords()) {
    if (c == excl) continue;
    if (rng.chance(p_f)) out.add(torus, c);
  }
  return out;
}

void trim_to_budget(FaultSet& faults, const Torus& torus, std::int32_t r,
                    Metric m, std::int64_t t) {
  const auto& table = NeighborhoodTable::get(r, m);
  // Only a center whose closed neighborhood holds a fault — a fault f itself
  // or f - o for a neighborhood offset o — can exceed the bound, and
  // removals only lower counts. So the scan below visits just those centers,
  // in the whole-torus scan's row-major (index) order, and keeps their
  // closed-neighborhood fault counts up to date as faults go.
  auto for_each_center_of = [&](Coord f, auto&& fn) {
    fn(torus.index(f));
    for (const Offset o : table.offsets()) fn(torus.index(f - o));
  };
  const std::vector<Coord> initial = faults.sorted();
  std::vector<std::int32_t> centers;
  for (const Coord f : initial) {
    for_each_center_of(f, [&](std::int32_t c) { centers.push_back(c); });
  }
  std::sort(centers.begin(), centers.end());
  centers.erase(std::unique(centers.begin(), centers.end()), centers.end());
  auto position = [&](std::int32_t c) {
    return static_cast<std::size_t>(
        std::lower_bound(centers.begin(), centers.end(), c) - centers.begin());
  };
  std::vector<std::int64_t> counts(centers.size(), 0);
  for (const Coord f : initial) {
    for_each_center_of(f, [&](std::int32_t c) { ++counts[position(c)]; });
  }
  while (true) {
    // Find the worst closed neighborhood (first center in row-major order).
    std::int64_t worst_count = t;
    Coord worst_center{};
    bool found = false;
    for (std::size_t i = 0; i < centers.size(); ++i) {
      if (counts[i] > worst_count) {
        worst_count = counts[i];
        worst_center = torus.coord(centers[i]);
        found = true;
      }
    }
    if (!found) return;
    // Remove its center if faulty, else its smallest fault by (x, y).
    Coord victim{};
    bool have_victim = false;
    if (faults.contains(worst_center)) {
      victim = worst_center;
      have_victim = true;
    } else {
      std::vector<Coord> members;
      for (const Offset o : table.offsets()) {
        const Coord c = torus.wrap(worst_center + o);
        if (faults.contains(c)) members.push_back(c);
      }
      std::sort(members.begin(), members.end());
      if (!members.empty()) {
        victim = members.front();
        have_victim = true;
      }
    }
    if (!have_victim) return;  // defensive; cannot happen
    faults.remove(torus, victim);
    for_each_center_of(victim, [&](std::int32_t c) { --counts[position(c)]; });
  }
}

}  // namespace rbcast
