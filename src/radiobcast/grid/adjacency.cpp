#include "radiobcast/grid/adjacency.h"

#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <tuple>

namespace rbcast {

Adjacency::Adjacency(const Torus& torus, const NeighborhoodTable& table)
    : node_count_(static_cast<std::int32_t>(torus.node_count())),
      degree_(static_cast<std::int32_t>(table.size())) {
  const std::int64_t n = torus.node_count();
  receiver_index_.reserve(static_cast<std::size_t>(n) *
                          static_cast<std::size_t>(degree_));
  for (std::int64_t i = 0; i < n; ++i) {
    const Coord c = torus.coord(static_cast<std::int32_t>(i));
    for (const Offset o : table.offsets()) {
      receiver_index_.push_back(torus.index(c + o));
    }
  }
}

Adjacency::Adjacency(const std::vector<std::vector<std::int32_t>>& rows)
    : node_count_(static_cast<std::int32_t>(rows.size())),
      degree_(rows.empty() ? 0 : static_cast<std::int32_t>(rows[0].size())) {
  row_start_.push_back(0);
  for (const std::vector<std::int32_t>& row : rows) {
    for (const std::int32_t receiver : row) {
      if (receiver < 0 || receiver >= node_count_) {
        throw std::invalid_argument("adjacency row entry out of range");
      }
    }
    receiver_index_.insert(receiver_index_.end(), row.begin(), row.end());
    row_start_.push_back(receiver_index_.size());
    if (row.size() != static_cast<std::size_t>(degree_)) degree_ = -1;
  }
  if (degree_ >= 0) row_start_ = std::vector<std::size_t>();  // implicit
}

const Adjacency& Adjacency::get(const Torus& torus,
                                const NeighborhoodTable& table) {
  // Keyed cache with a per-key once_flag: the global mutex covers only the
  // map lookup/insert (std::map nodes are address-stable), and the CSR table
  // is built inside call_once OUTSIDE that lock — so campaign workers
  // hitting different keys construct concurrently instead of queueing behind
  // one potentially-100MB build, while racers on the same key still get
  // exactly one construction. tests/test_cache_concurrency.cpp hammers this
  // under TSan (scripts/check_tsan.sh).
  struct Slot {
    std::once_flag once;
    std::unique_ptr<Adjacency> value;
  };
  static std::mutex mutex;
  static std::map<std::tuple<std::int32_t, std::int32_t, std::int32_t, int>,
                  Slot>
      cache;
  const auto key = std::make_tuple(torus.width(), torus.height(),
                                   table.radius(),
                                   static_cast<int>(table.metric()));
  Slot* slot;
  {
    const std::lock_guard<std::mutex> lock(mutex);
    slot = &cache[key];
  }
  std::call_once(slot->once, [&] {
    slot->value.reset(new Adjacency(torus, table));
  });
  return *slot->value;
}

}  // namespace rbcast
