#pragma once
// Arbitrary radio graphs (Sections III and V).
//
// The paper's Section V states a general sufficient condition for reliable
// broadcast on an arbitrary graph G = (V, E) under the locally bounded fault
// model: for each pair (v1, v2), either they are adjacent, or there is a
// subset S ⊆ V in which the adversary can place at most f faults without
// violating the per-neighborhood bound t, with v1 and v2 connected by 2f+1
// node-disjoint paths inside S. Section III contrasts CPA (the simple
// protocol) with RPA (indirect reports) on arbitrary graphs, citing
// [Pelc-Peleg05]'s result that RPA is strictly more powerful.
//
// This module provides the graph substrate: an undirected graph with radio
// (local broadcast) semantics, the locally bounded fault machinery (legal
// placement validation and enumeration, and the "maximum legal faults inside
// S" quantity f(S) from the sufficient condition), plus builders for the
// graphs the experiments use.

#include <cstdint>
#include <string>
#include <vector>

namespace rbcast {

/// Node ids are dense indices 0..node_count()-1.
using NodeId = std::int32_t;

class RadioGraph {
 public:
  explicit RadioGraph(std::int32_t node_count);

  std::int32_t node_count() const {
    return static_cast<std::int32_t>(adjacency_.size());
  }

  /// Adds an undirected edge (idempotent; self-loops rejected).
  void add_edge(NodeId a, NodeId b);

  bool adjacent(NodeId a, NodeId b) const;

  /// Sorted neighbor ids.
  const std::vector<NodeId>& neighbors(NodeId v) const;

  /// neighbors(v) for every v, by node id.
  const std::vector<std::vector<NodeId>>& neighbor_lists() const {
    return adjacency_;
  }

  std::int64_t edge_count() const;

  /// True iff every node can reach every other.
  bool connected() const;

 private:
  std::vector<std::vector<NodeId>> adjacency_;
};

/// A fault placement on a graph: characteristic vector by node id.
using GraphFaultSet = std::vector<bool>;

/// Number of faults in the closed neighborhood N(v) ∪ {v}.
std::int64_t closed_nbd_faults(const RadioGraph& graph,
                               const GraphFaultSet& faults, NodeId v);

/// True iff every closed neighborhood contains at most t faults (the locally
/// bounded constraint, in the same closed-ball form as the grid validator).
bool satisfies_local_bound(const RadioGraph& graph, const GraphFaultSet& faults,
                           std::int64_t t);

/// All legal fault placements that avoid `protected_node` (the source),
/// enumerated exhaustively — exponential, intended for the small analysis
/// graphs (node_count <= ~20). Includes the empty placement.
std::vector<GraphFaultSet> enumerate_legal_placements(const RadioGraph& graph,
                                                      std::int64_t t,
                                                      NodeId protected_node);

/// f(S) from the Section V sufficient condition: the maximum number of
/// faults the adversary can place inside S without violating the bound t
/// anywhere in the graph. Exhaustive branch-and-bound over subsets of S
/// (|S| is small in every use).
std::int64_t max_legal_faults_within(const RadioGraph& graph,
                                     const std::vector<NodeId>& subset,
                                     std::int64_t t);

// ---------------------------------------------------------------------------
// Builders
// ---------------------------------------------------------------------------

/// The grid/torus as a RadioGraph (for cross-checking graph protocols
/// against the native grid implementation). Node id = torus index.
RadioGraph make_torus_graph(std::int32_t width, std::int32_t height,
                            std::int32_t r, bool l2_metric);

/// The CPA ⊊ RPA separation graph (t = 1), in the spirit of [Pelc-Peleg05]:
///
///   node 0        — the source s (degree 3: 2t+1 disjoint outward routes)
///   nodes 1..3    — a1..a3: adjacent to s only among themselves' layer
///                   (they commit directly; NOT adjacent to each other)
///   nodes 4..12   — w_ij (i,j in 1..3): middleman j of branch i, adjacent
///                   to a_i and to u
///   node 13       — u: adjacent to all nine middlemen, not to the a's or s
///   cross edges   — w_ij ~ w_kj and w_ij ~ w_k((j+1) mod 3) for every pair
///                   of branches i != k: two disjoint indirect routes from
///                   every middleman to each far a_k, avoiding u.
///
/// Fault-free, CPA with t=1 stalls at every middleman (exactly one committed
/// neighbor each) and hence at u, while RPA completes; and RPA completes
/// under EVERY legal placement (all of which are singletons — any two nodes
/// here share a closed neighborhood), verified exhaustively in the
/// tests/bench.
RadioGraph make_separation_graph();

/// Names for the separation graph's nodes (diagnostics).
std::string separation_node_name(NodeId v);

constexpr NodeId kSeparationSource = 0;
constexpr std::int64_t kSeparationT = 1;

}  // namespace rbcast
