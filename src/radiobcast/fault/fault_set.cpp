#include "radiobcast/fault/fault_set.h"

#include <algorithm>

#include "radiobcast/grid/neighborhood.h"

namespace rbcast {

FaultSet::FaultSet(const Torus& torus, std::vector<Coord> faults) {
  for (const Coord c : faults) add(torus, c);
}

bool FaultSet::add(const Torus& torus, Coord c) {
  return set_.insert(torus.wrap(c)).second;
}

bool FaultSet::remove(const Torus& torus, Coord c) {
  return set_.erase(torus.wrap(c)) > 0;
}

std::vector<Coord> FaultSet::sorted() const {
  std::vector<Coord> out(set_.begin(), set_.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::int64_t max_closed_nbd_faults(const Torus& torus, const FaultSet& faults,
                                   std::int32_t r, Metric m) {
  // Center c counts fault f once if f = c and once per offset o with
  // c + o = f. So listing f and f - o for every fault f and offset o lists
  // each center once per fault it counts (the centers trim_to_budget
  // enumerates), and the worst count is the longest run in the sorted list.
  // An empty set lists nothing.
  const auto& table = NeighborhoodTable::get(r, m);
  std::vector<std::int32_t> centers;
  centers.reserve(faults.size() * (table.offsets().size() + 1));
  for (const Coord f : faults.sorted()) {
    centers.push_back(torus.index(f));
    for (const Offset o : table.offsets()) {
      centers.push_back(torus.index(f - o));
    }
  }
  std::sort(centers.begin(), centers.end());
  std::int64_t best = 0;
  for (std::size_t i = 0; i < centers.size();) {
    std::size_t end = i + 1;
    while (end < centers.size() && centers[end] == centers[i]) ++end;
    best = std::max(best, static_cast<std::int64_t>(end - i));
    i = end;
  }
  return best;
}

bool satisfies_local_bound(const Torus& torus, const FaultSet& faults,
                           std::int32_t r, Metric m, std::int64_t t) {
  return max_closed_nbd_faults(torus, faults, r, m) <= t;
}

}  // namespace rbcast
