#include "radiobcast/graph/graph_protocols.h"

#include <gtest/gtest.h>

#include <string>

#include "radiobcast/grid/torus.h"
#include "radiobcast/protocols/pool.h"
#include "radiobcast/protocols/source.h"
#include "radiobcast/util/rng.h"
#include "radiobcast/util/sha256.h"

namespace rbcast {
namespace {

GraphFaultSet no_faults(const RadioGraph& g) {
  return GraphFaultSet(static_cast<std::size_t>(g.node_count()), false);
}

// ---------------------------------------------------------------------------
// The round engine on a graph: node v is Coord{v, 0} on an n x 1 torus
// ---------------------------------------------------------------------------

TEST(GraphNetwork, RequiresBehaviors) {
  RadioGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const Adjacency adjacency(g.neighbor_lists());
  RadioNetwork net(Torus(g.node_count(), 1), adjacency, 1);
  EXPECT_THROW(net.start(), std::logic_error);
}

TEST(GraphNetwork, BroadcastReachesGraphNeighborsOnly) {
  RadioGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  const Adjacency adjacency(g.neighbor_lists());
  RadioNetwork net(Torus(g.node_count(), 1), adjacency, 1);
  net.set_pool(std::make_unique<CpaPool>(ProtocolParams{0, {0, 0}},
                                         net.torus()));
  net.set_behavior({0, 0}, std::make_unique<SourceBehavior>(1));
  for (NodeId v = 1; v < 4; ++v) net.assign_to_pool({v, 0});
  net.start();
  net.run_until_quiescent(10);
  EXPECT_TRUE(net.committed_value_of({1, 0}).has_value());
  EXPECT_TRUE(net.committed_value_of({2, 0}).has_value());
  EXPECT_FALSE(net.committed_value_of({3, 0}).has_value());  // unreachable
}

// ---------------------------------------------------------------------------
// CPA on graphs
// ---------------------------------------------------------------------------

TEST(GraphCpa, CompleteGraphCommitsEveryone) {
  RadioGraph g(6);
  for (NodeId a = 0; a < 6; ++a) {
    for (NodeId b = a + 1; b < 6; ++b) g.add_edge(a, b);
  }
  const auto res = run_graph_simulation(g, 0, 2, GraphProtocol::kCpa,
                                        GraphAdversary::kSilent, no_faults(g));
  EXPECT_TRUE(res.success());
}

TEST(GraphCpa, MatchesGridCpaOnTorusGraph) {
  // CPA on the torus-as-graph must reach everyone fault-free, like the
  // native grid implementation.
  const RadioGraph g = make_torus_graph(10, 10, 1, false);
  const Torus torus(10, 10);
  const auto res = run_graph_simulation(g, torus.index({0, 0}), 0,
                                        GraphProtocol::kCpa,
                                        GraphAdversary::kSilent, no_faults(g));
  EXPECT_TRUE(res.success());
  EXPECT_EQ(res.honest_nodes, 99);
}

TEST(GraphCpa, NeverCommitsWrongUnderLiars) {
  const RadioGraph g = make_separation_graph();
  for (NodeId f = 1; f < g.node_count(); ++f) {
    GraphFaultSet faults = no_faults(g);
    faults[static_cast<std::size_t>(f)] = true;
    const auto res =
        run_graph_simulation(g, kSeparationSource, kSeparationT,
                             GraphProtocol::kCpa, GraphAdversary::kLying,
                             faults);
    EXPECT_EQ(res.wrong_commits, 0) << separation_node_name(f);
  }
}

// ---------------------------------------------------------------------------
// RPA on graphs
// ---------------------------------------------------------------------------

TEST(GraphRpa, CompleteGraphCommitsEveryone) {
  RadioGraph g(5);
  for (NodeId a = 0; a < 5; ++a) {
    for (NodeId b = a + 1; b < 5; ++b) g.add_edge(a, b);
  }
  const auto res = run_graph_simulation(g, 0, 1, GraphProtocol::kRpa,
                                        GraphAdversary::kSilent, no_faults(g));
  EXPECT_TRUE(res.success());
}

TEST(GraphRpa, TorusGraphFaultFree) {
  const RadioGraph g = make_torus_graph(8, 8, 1, false);
  const Torus torus(8, 8);
  const auto res = run_graph_simulation(g, torus.index({0, 0}), 1,
                                        GraphProtocol::kRpa,
                                        GraphAdversary::kSilent, no_faults(g));
  EXPECT_TRUE(res.success());
}

// ---------------------------------------------------------------------------
// The CPA ⊊ RPA separation ([Pelc-Peleg05], discussed in Section III)
// ---------------------------------------------------------------------------

TEST(Separation, CpaStallsFaultFree) {
  const RadioGraph g = make_separation_graph();
  const auto res =
      run_graph_simulation(g, kSeparationSource, kSeparationT,
                           GraphProtocol::kCpa, GraphAdversary::kSilent,
                           no_faults(g));
  EXPECT_FALSE(res.success());
  EXPECT_EQ(res.wrong_commits, 0);
  // Exactly the three source neighbors commit; all middlemen and u stall.
  EXPECT_EQ(res.correct_commits, 3);
  EXPECT_EQ(res.undecided, 10);
}

TEST(Separation, RpaCompletesFaultFree) {
  const RadioGraph g = make_separation_graph();
  const auto res =
      run_graph_simulation(g, kSeparationSource, kSeparationT,
                           GraphProtocol::kRpa, GraphAdversary::kSilent,
                           no_faults(g));
  EXPECT_TRUE(res.success());
}

TEST(Separation, RpaCompletesUnderEveryLegalPlacement) {
  // Exhaustive: RPA achieves reliable broadcast for EVERY legal placement
  // under both adversary types — the full quantifier of the separation
  // theorem, checkable because the placement space is tiny.
  const RadioGraph g = make_separation_graph();
  const auto placements =
      enumerate_legal_placements(g, kSeparationT, kSeparationSource);
  for (const auto& faults : placements) {
    for (const GraphAdversary adversary :
         {GraphAdversary::kSilent, GraphAdversary::kLying}) {
      const auto res = run_graph_simulation(g, kSeparationSource,
                                            kSeparationT, GraphProtocol::kRpa,
                                            adversary, faults);
      std::string placement_name = "{";
      for (NodeId v = 0; v < g.node_count(); ++v) {
        if (faults[static_cast<std::size_t>(v)]) {
          placement_name += separation_node_name(v) + " ";
        }
      }
      placement_name += "}";
      EXPECT_TRUE(res.success())
          << placement_name << " adversary="
          << (adversary == GraphAdversary::kSilent ? "silent" : "lying")
          << " correct=" << res.correct_commits
          << " undecided=" << res.undecided
          << " wrong=" << res.wrong_commits;
    }
  }
}

TEST(Separation, FaultySourceRejected) {
  const RadioGraph g = make_separation_graph();
  GraphFaultSet faults = no_faults(g);
  faults[kSeparationSource] = true;
  EXPECT_THROW(run_graph_simulation(g, kSeparationSource, kSeparationT,
                                    GraphProtocol::kRpa,
                                    GraphAdversary::kSilent, faults),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Recorded results: every GraphSimResult field over a fixed corpus
// ---------------------------------------------------------------------------

/// Appends one line per (protocol, adversary) run of `g` with all six
/// GraphSimResult fields, after `label`.
void append_runs(std::string& out, const std::string& label,
                 const RadioGraph& g, NodeId source, std::int64_t t,
                 const GraphFaultSet& faults) {
  for (const GraphProtocol protocol :
       {GraphProtocol::kCpa, GraphProtocol::kRpa}) {
    for (const GraphAdversary adversary :
         {GraphAdversary::kSilent, GraphAdversary::kLying}) {
      const auto res =
          run_graph_simulation(g, source, t, protocol, adversary, faults);
      out += label;
      out += protocol == GraphProtocol::kCpa ? " cpa" : " rpa";
      out += adversary == GraphAdversary::kSilent ? " silent" : " lying";
      for (const std::int64_t field :
           {res.honest_nodes, res.correct_commits, res.wrong_commits,
            res.undecided, res.rounds,
            static_cast<std::int64_t>(res.transmissions)}) {
        out += " " + std::to_string(field);
      }
      out += "\n";
    }
  }
}

std::string fault_list(const GraphFaultSet& faults) {
  std::string out = "{";
  for (std::size_t v = 0; v < faults.size(); ++v) {
    if (faults[v]) out += " " + std::to_string(v);
  }
  return out + " }";
}

TEST(GraphGolden, ResultsMatchRecordedDigest) {
  // The corpus: 100 random connected graphs (GraphFuzz's generator, widened
  // to 6-19 nodes and up to 3n chords) with t in {0, 1, 2} and a random legal
  // placement; the separation graph under each legal placement; and the
  // r = 1 torus graph under both metrics, fault-free. Every graph runs under
  // CPA and RPA against silent and lying faults. Each random graph also
  // writes a line naming its size, edge count, t and faults, so the digest
  // pins the corpus as well as the results.
  std::string lines;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Rng rng(hash_seeds(0x60D1, seed));
    const std::int32_t n = 6 + static_cast<std::int32_t>(rng.below(14));
    RadioGraph g(n);
    for (NodeId v = 1; v < n; ++v) {
      g.add_edge(v,
                 static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(v))));
    }
    const auto chords = rng.below(static_cast<std::uint64_t>(3 * n));
    const auto node = [&] {
      return static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n)));
    };
    for (std::uint64_t e = 0; e < chords; ++e) {
      const NodeId a = node();
      const NodeId b = node();
      if (a != b) g.add_edge(a, b);
    }
    const auto t = static_cast<std::int64_t>(rng.below(3));
    GraphFaultSet faults(static_cast<std::size_t>(n), false);
    for (std::int32_t attempt = 0; attempt < n; ++attempt) {
      const NodeId v = node();
      if (v == 0) continue;  // the source
      faults[static_cast<std::size_t>(v)] = true;
      if (!satisfies_local_bound(g, faults, t)) {
        faults[static_cast<std::size_t>(v)] = false;
      }
    }
    const std::string label = "random " + std::to_string(seed);
    lines += label + " n=" + std::to_string(n) +
             " edges=" + std::to_string(g.edge_count()) +
             " t=" + std::to_string(t) + " faults=" + fault_list(faults) + "\n";
    append_runs(lines, label, g, 0, t, faults);
  }
  const RadioGraph separation = make_separation_graph();
  for (const GraphFaultSet& faults : enumerate_legal_placements(
           separation, kSeparationT, kSeparationSource)) {
    append_runs(lines, "separation " + fault_list(faults), separation,
                kSeparationSource, kSeparationT, faults);
  }
  for (const bool l2 : {false, true}) {
    const RadioGraph g = make_torus_graph(10, 10, 1, l2);
    append_runs(lines, l2 ? "torus l2" : "torus linf", g, 0, 1, no_faults(g));
  }
  EXPECT_EQ(sha256_hex(lines),
            "79dbbbcd9691d885a5c88a4158373db93c8ef29117d7105a5c0d8b49eb24effd");
}

}  // namespace
}  // namespace rbcast
