#pragma once
// Broadcast protocols on arbitrary radio graphs (Sections III and V).
//
// A graph broadcast runs on the torus's round engine, RadioNetwork, over the
// graph's neighbor lists as its Adjacency: graph node v is Coord{v, 0} on an
// n x 1 Torus (net/network.h). The source, the silent fault and CPA are the
// torus's own SourceBehavior, SilentBehavior and CpaPool, and the liar is
// LyingBehavior forging every lie, with up to three relayers.
//
//  * CPA — the Certified Propagation Algorithm: source neighbors commit
//    directly; everyone else commits on hearing the same value from t+1
//    distinct neighbors; one re-broadcast. (The simple protocol of [Koo04],
//    called CPA by [Pelc-Peleg05].)
//
//  * GraphRpaBehavior — the Relaxed Propagation Algorithm: additionally
//    circulates HEARD reports (up to three relayers) and applies the
//    Section V sufficient condition with full topology knowledge: a decider
//    reliably determines (origin, v) once it holds a node-disjoint family of
//    k reported paths whose relayer union S admits at most f(S) <= k-1 legal
//    faults (max_legal_faults_within), so that at least one report is relayed
//    by honest nodes only. Commits once t+1 determined committers of v lie
//    in one neighborhood.
//
// [Pelc-Peleg05] show RPA is strictly more powerful than CPA on some graphs;
// bench_cpa_rpa_separation verifies that on make_separation_graph(): CPA
// stalls even fault-free while RPA completes under EVERY legal placement.

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "radiobcast/graph/graph.h"
#include "radiobcast/net/network.h"

namespace rbcast {

class GraphRpaBehavior final : public NodeBehavior {
 public:
  /// `graph` must outlive the behavior.
  GraphRpaBehavior(const RadioGraph& graph, std::int64_t t, NodeId source);

  void on_receive(NodeContext& ctx, const Envelope& env) override;
  void on_round_end(NodeContext& ctx) override;
  std::optional<std::uint8_t> committed_value() const override {
    return committed_;
  }

 private:
  struct Evidence {
    std::vector<std::vector<NodeId>> reports;  // relayer chains, deduped
    std::set<std::vector<NodeId>> dedup;
    std::size_t evaluated_at = 0;
  };

  void handle_committed(NodeContext& ctx, const Envelope& env);
  void handle_heard(NodeContext& ctx, const Envelope& env);
  void determine(NodeContext& ctx, NodeId origin, std::uint8_t value);
  void commit(NodeContext& ctx, std::uint8_t value);
  bool satisfies_section_v(const Evidence& evidence) const;

  const RadioGraph& graph_;
  std::int64_t t_;
  NodeId source_;
  static constexpr std::size_t kMaxRelayers = 3;  // "up to three"
  /// Evidence kept per (origin, value); bounded to keep the exponential
  /// disjoint-subfamily search tiny (sound: dropping reports only delays).
  static constexpr std::size_t kMaxReports = 12;
  std::optional<std::uint8_t> committed_;
  std::map<NodeId, std::uint8_t> first_committed_;
  std::set<std::pair<NodeId, std::uint8_t>> determined_;
  std::map<std::pair<NodeId, std::uint8_t>, Evidence> evidence_;
  std::set<std::pair<NodeId, std::uint8_t>> dirty_;
  std::map<std::pair<NodeId, std::uint8_t>, std::int64_t> center_counts_;
};

// ---------------------------------------------------------------------------
// Whole-run driver
// ---------------------------------------------------------------------------

enum class GraphProtocol : std::uint8_t { kCpa, kRpa };
enum class GraphAdversary : std::uint8_t { kSilent, kLying };

struct GraphSimResult {
  std::int64_t honest_nodes = 0;
  std::int64_t correct_commits = 0;
  std::int64_t wrong_commits = 0;
  std::int64_t undecided = 0;
  std::int64_t rounds = 0;
  std::uint64_t transmissions = 0;

  bool success() const {
    return wrong_commits == 0 && correct_commits == honest_nodes;
  }
};

/// Runs one broadcast on `graph` from `source` with the given protocol and
/// fault placement. Throws if the source is faulty.
GraphSimResult run_graph_simulation(const RadioGraph& graph, NodeId source,
                                    std::int64_t t, GraphProtocol protocol,
                                    GraphAdversary adversary,
                                    const GraphFaultSet& faults,
                                    std::uint8_t value = 1,
                                    std::int64_t max_rounds = 200);

}  // namespace rbcast
