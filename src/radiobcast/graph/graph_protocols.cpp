#include "radiobcast/graph/graph_protocols.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "radiobcast/protocols/byzantine.h"
#include "radiobcast/protocols/pool.h"
#include "radiobcast/protocols/source.h"

namespace rbcast {

// ---------------------------------------------------------------------------
// RPA
// ---------------------------------------------------------------------------

GraphRpaBehavior::GraphRpaBehavior(const RadioGraph& graph, std::int64_t t,
                                   NodeId source)
    : graph_(graph), t_(t), source_(source) {}

void GraphRpaBehavior::commit(NodeContext& ctx, std::uint8_t value) {
  if (committed_.has_value()) return;
  committed_ = value;
  ctx.note_commit(value);
  ctx.broadcast(make_committed(ctx.self(), value));
}

void GraphRpaBehavior::determine(NodeContext& ctx, NodeId origin,
                                 std::uint8_t value) {
  if (!determined_.insert({origin, value}).second) return;
  evidence_.erase({origin, value});
  // Commit once t+1 determined committers of one value share a neighborhood:
  // bump the counter of every node whose neighborhood contains `origin`.
  for (const NodeId c : graph_.neighbors(origin)) {
    auto& count = center_counts_[{c, value}];
    count += 1;
    if (count >= t_ + 1) commit(ctx, value);
  }
}

void GraphRpaBehavior::on_receive(NodeContext& ctx, const Envelope& env) {
  if (env.msg.type == MsgType::kCommitted) {
    handle_committed(ctx, env);
  } else {
    handle_heard(ctx, env);
  }
}

void GraphRpaBehavior::handle_committed(NodeContext& ctx,
                                        const Envelope& env) {
  if (env.msg.origin != env.sender) return;  // no spoofing
  const NodeId sender = ctx.torus().index(env.sender);
  const auto [it, inserted] = first_committed_.emplace(sender, env.msg.value);
  if (!inserted) return;
  const std::uint8_t v = it->second;
  ctx.broadcast(make_heard({ctx.self()}, env.sender, v));
  if (sender == source_) commit(ctx, v);
  determine(ctx, sender, v);
}

void GraphRpaBehavior::handle_heard(NodeContext& ctx, const Envelope& env) {
  const Message& msg = env.msg;
  if (msg.relayers.empty() || msg.relayers.size() > kMaxRelayers) return;
  if (msg.relayers.back() != env.sender) return;  // no spoofing
  const Torus& torus = ctx.torus();
  const NodeId self = torus.index(ctx.self());
  const NodeId origin = torus.index(msg.origin);
  if (origin == self) return;
  // Chain plausibility: consecutive adjacency, all distinct, avoids us.
  std::vector<NodeId> chain;
  NodeId prev = origin;
  for (const Coord c : msg.relayers) {
    const NodeId relayer = torus.index(c);
    if (relayer == origin || relayer == self) return;
    if (std::find(chain.begin(), chain.end(), relayer) != chain.end()) return;
    if (!graph_.adjacent(prev, relayer)) return;
    chain.push_back(relayer);
    prev = relayer;
  }

  const std::uint8_t v = msg.value & 1;
  if (!determined_.count({origin, v})) {
    Evidence& ev = evidence_[{origin, v}];
    if (ev.reports.size() < kMaxReports && ev.dedup.insert(chain).second) {
      ev.reports.push_back(chain);
      dirty_.insert({origin, v});
    }
  }

  if (msg.relayers.size() < kMaxRelayers) {
    RelayerChain extended = msg.relayers;
    extended.push_back(ctx.self());
    ctx.broadcast(make_heard(extended, msg.origin, v));
  }
}

bool GraphRpaBehavior::satisfies_section_v(const Evidence& evidence) const {
  const auto& reports = evidence.reports;
  const auto n = reports.size();
  if (n == 0) return false;
  // Pairwise conflicts (shared relayers).
  std::vector<std::uint32_t> conflicts(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      bool share = false;
      for (const NodeId a : reports[i]) {
        if (std::find(reports[j].begin(), reports[j].end(), a) !=
            reports[j].end()) {
          share = true;
          break;
        }
      }
      if (share) {
        conflicts[i] |= (1u << j);
        conflicts[j] |= (1u << i);
      }
    }
  }
  // Enumerate disjoint subfamilies; accept if some family of k reports has a
  // relayer union S with max_legal_faults_within(S) <= k-1.
  for (std::uint32_t mask = 1; mask < (1u << n); ++mask) {
    bool disjoint_family = true;
    int k = 0;
    for (std::size_t i = 0; i < n && disjoint_family; ++i) {
      if (!(mask & (1u << i))) continue;
      ++k;
      if (conflicts[i] & mask) disjoint_family = false;
    }
    if (!disjoint_family) continue;
    std::vector<NodeId> union_s;
    for (std::size_t i = 0; i < n; ++i) {
      if (!(mask & (1u << i))) continue;
      union_s.insert(union_s.end(), reports[i].begin(), reports[i].end());
    }
    std::sort(union_s.begin(), union_s.end());
    union_s.erase(std::unique(union_s.begin(), union_s.end()), union_s.end());
    // Keep the exponential f(S) search tiny; a union this large would need
    // an equally large disjoint family to pass anyway.
    if (union_s.size() > 14) continue;
    if (max_legal_faults_within(graph_, union_s, t_) + 1 <= k) return true;
  }
  return false;
}

void GraphRpaBehavior::on_round_end(NodeContext& ctx) {
  if (dirty_.empty()) return;
  const auto keys = std::vector<std::pair<NodeId, std::uint8_t>>(
      dirty_.begin(), dirty_.end());
  dirty_.clear();
  for (const auto& key : keys) {
    const auto it = evidence_.find(key);
    if (it == evidence_.end()) continue;
    Evidence& ev = it->second;
    if (ev.reports.size() == ev.evaluated_at) continue;
    ev.evaluated_at = ev.reports.size();
    if (satisfies_section_v(ev)) determine(ctx, key.first, key.second);
  }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

GraphSimResult run_graph_simulation(const RadioGraph& graph, NodeId source,
                                    std::int64_t t, GraphProtocol protocol,
                                    GraphAdversary adversary,
                                    const GraphFaultSet& faults,
                                    std::uint8_t value,
                                    std::int64_t max_rounds) {
  if (faults[static_cast<std::size_t>(source)]) {
    throw std::invalid_argument("the designated source must be correct");
  }
  const Adjacency adjacency(graph.neighbor_lists());
  RadioNetwork net(Torus(graph.node_count(), 1), adjacency, /*seed=*/0);
  if (protocol == GraphProtocol::kCpa) {
    net.set_pool(std::make_unique<CpaPool>(ProtocolParams{t, {source, 0}},
                                           net.torus()));
  }
  for (NodeId v = 0; v < graph.node_count(); ++v) {
    const Coord c{v, 0};
    if (v == source) {
      net.set_behavior(c, std::make_unique<SourceBehavior>(value));
    } else if (faults[static_cast<std::size_t>(v)]) {
      if (adversary == GraphAdversary::kSilent) {
        net.set_behavior(c, std::make_unique<SilentBehavior>());
      } else {
        net.set_behavior(c, std::make_unique<LyingBehavior>(
                                static_cast<std::uint8_t>(1 - (value & 1))));
      }
    } else if (protocol == GraphProtocol::kCpa) {
      net.assign_to_pool(c);
    } else {
      net.set_behavior(c, std::make_unique<GraphRpaBehavior>(graph, t, source));
    }
  }
  net.start();
  GraphSimResult result;
  result.rounds = net.run_until_quiescent(max_rounds);
  result.transmissions = net.stats().transmissions;
  for (NodeId v = 0; v < graph.node_count(); ++v) {
    if (v == source || faults[static_cast<std::size_t>(v)]) continue;
    result.honest_nodes += 1;
    const auto committed = net.committed_value_of({v, 0});
    if (!committed.has_value()) {
      result.undecided += 1;
    } else if (*committed == value) {
      result.correct_commits += 1;
    } else {
      result.wrong_commits += 1;
    }
  }
  return result;
}

}  // namespace rbcast
