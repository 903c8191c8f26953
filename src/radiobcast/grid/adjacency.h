#pragma once
// Precomputed CSR delivery fan-out.
//
// Row i lists the dense indices of the nodes that hear a transmission by
// node i, in delivery order. RadioNetwork delivers by dense index from this
// table: no per-delivery wrap(), index(), or neighborhood-cache lookups, and
// receivers stream through one flat std::int32_t array.
//
// On a torus every node has the same neighborhood shape, so the table is a
// dense |V| x |nbd| array: row i lists the node indices within distance r of
// node i, in the NeighborhoodTable's row-major offset order, exactly the
// order the per-offset loop used to visit them (the bit-identical
// determinism contract, docs/PERF.md). A general radio graph passes its
// neighbor lists as rows (graph/graph_protocols.h).
//
// Regular rows (every torus) make the row offsets of a general CSR
// implicit: row i starts at i * degree(). Only rows of different lengths
// store their n + 1 row starts.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "radiobcast/grid/neighborhood.h"
#include "radiobcast/grid/torus.h"

namespace rbcast {

class Adjacency {
 public:
  Adjacency(const Torus& torus, const NeighborhoodTable& table);

  /// Row v holds the receivers of node v's transmissions, in delivery order.
  /// Throws std::invalid_argument on an entry outside [0, rows.size()).
  explicit Adjacency(const std::vector<std::vector<std::int32_t>>& rows);

  /// Process-wide cached table for (torus dims, table radius, table metric).
  /// The CSR depends only on geometry, so every same-shaped RadioNetwork in a
  /// campaign shares one build — per-trial setup cost drops to a map lookup.
  static const Adjacency& get(const Torus& torus,
                              const NeighborhoodTable& table);

  /// Receivers per transmission when all rows have one length (|nbd| on a
  /// torus); -1 otherwise.
  std::int32_t degree() const { return degree_; }

  /// Rows, one per node.
  std::int32_t node_count() const { return node_count_; }

  /// Receiver entries over all rows.
  std::size_t size() const { return receiver_index_.size(); }

  /// Node indices hearing a transmission by `sender` (a dense node index),
  /// in delivery order.
  std::span<const std::int32_t> receivers(std::int32_t sender) const {
    const auto i = static_cast<std::size_t>(sender);
    if (degree_ >= 0) {
      const auto d = static_cast<std::size_t>(degree_);
      return {receiver_index_.data() + i * d, d};
    }
    return {receiver_index_.data() + row_start_[i],
            row_start_[i + 1] - row_start_[i]};
  }

 private:
  std::int32_t node_count_;
  std::int32_t degree_;
  std::vector<std::int32_t> receiver_index_;  // the rows, concatenated
  std::vector<std::size_t> row_start_;  // n + 1 entries iff degree_ < 0
};

}  // namespace rbcast
