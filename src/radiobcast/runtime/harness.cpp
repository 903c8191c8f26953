#include "radiobcast/runtime/harness.h"

#include <algorithm>
#include <exception>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "radiobcast/runtime/swarm.h"

namespace rbcast {

RuntimeNode::Options node_options(const Scenario& scenario,
                                  std::int32_t index) {
  const Torus torus(scenario.sim.width, scenario.sim.height);
  const Coord self = torus.coord(index);
  const Coord source = torus.wrap(scenario.sim.source);
  const FaultSet faults = scenario.fault_set();
  RuntimeNode::Options opts;
  opts.sim = scenario.sim;
  opts.self = self;
  opts.role = self == source          ? NodeRole::kSource
              : faults.contains(self) ? NodeRole::kFaulty
                                      : NodeRole::kHonest;
  opts.max_rounds = scenario.sim.max_rounds;
  opts.round_timeout = std::chrono::milliseconds(scenario.round_timeout_ms);
  opts.linger_timeout = std::chrono::milliseconds(scenario.linger_timeout_ms);
  opts.suspect_after = static_cast<int>(scenario.suspect_after);
  if (scenario.sim.adversary == AdversaryKind::kJamming) {
    opts.jammers = scenario.faults;
  }
  if (scenario.crash_node && *scenario.crash_node == self) {
    opts.crash_at_round = scenario.crash_at_round;
  }
  if (!scenario.state_dir.empty()) {
    opts.snapshot_path =
        scenario.state_dir + "/state-" + std::to_string(index) + ".txt";
  }
  return opts;
}

RuntimeResult score_verdicts(const Scenario& scenario,
                             std::vector<RuntimeVerdict> verdicts) {
  const Torus torus(scenario.sim.width, scenario.sim.height);
  const std::int64_t n = torus.node_count();
  if (static_cast<std::int64_t>(verdicts.size()) != n) {
    throw std::invalid_argument("score_verdicts: expected " +
                                std::to_string(n) + " verdicts, got " +
                                std::to_string(verdicts.size()));
  }
  std::sort(verdicts.begin(), verdicts.end(),
            [](const RuntimeVerdict& a, const RuntimeVerdict& b) {
              return a.index < b.index;
            });
  for (std::int64_t i = 0; i < n; ++i) {
    if (verdicts[static_cast<std::size_t>(i)].index != i) {
      throw std::invalid_argument(
          "score_verdicts: missing or duplicate verdict for node " +
          std::to_string(i));
    }
  }
  RuntimeResult result;
  for (const RuntimeVerdict& v : verdicts) {
    result.rounds = std::max(result.rounds, v.rounds);
    result.any_interrupted = result.any_interrupted || v.interrupted;
    result.crashed_nodes += v.crashed ? 1 : 0;
    result.counters.merge(v.counters);
    if (v.role != NodeRole::kHonest) continue;
    result.honest_nodes += 1;
    if (!v.committed.has_value()) {
      result.undecided += 1;
      if (v.crashed) result.crashed_undecided += 1;
    } else if (*v.committed == scenario.sim.value) {
      result.correct_commits += 1;
    } else {
      result.wrong_commits += 1;
    }
  }
  for (const RuntimeVerdict& v : verdicts) {
    result.round_latency.merge(v.round_latency);
    result.commit_latency.merge(v.commit_latency);
  }
  result.verdicts = std::move(verdicts);
  return result;
}

RuntimeResult run_scenario_threads(
    const Scenario& scenario,
    const std::function<void(RuntimeNode::Options&)>& tweak) {
  const Torus torus(scenario.sim.width, scenario.sim.height);
  const std::int64_t n = torus.node_count();
  // Pre-warm the process-wide geometry caches on this thread: the
  // NeighborhoodTable cache is populated lazily without synchronization, so
  // it must be resolved before node threads race into it.
  const NeighborhoodTable& table =
      NeighborhoodTable::get(scenario.sim.r, scenario.sim.metric);
  (void)Adjacency::get(torus, table);

  // Bind every socket first (ephemeral ports), then tell everyone about
  // everyone: the peer table must be complete before any node transmits.
  // shared_socket collapses the whole deployment onto one SwarmHub socket
  // (runtime/swarm.h) so a swarm-sized n costs one fd instead of n.
  std::unique_ptr<SwarmHub> hub;
  std::vector<std::unique_ptr<Transport>> transports;
  transports.reserve(static_cast<std::size_t>(n));
  if (scenario.shared_socket) {
    hub = std::make_unique<SwarmHub>(static_cast<std::uint32_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      transports.push_back(hub->transport(static_cast<std::uint32_t>(i)));
    }
  } else {
    std::vector<UdpTransport*> udp;
    std::vector<std::uint16_t> ports;
    udp.reserve(static_cast<std::size_t>(n));
    ports.reserve(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      auto t = std::make_unique<UdpTransport>(0);
      udp.push_back(t.get());
      ports.push_back(t->local_port());
      transports.push_back(std::move(t));
    }
    for (UdpTransport* t : udp) t->set_peers(ports);
  }

  // Chaos wrappers are per-node and live outside the restart loop, so a
  // restarted node keeps the same datagram-fate stream and cumulative stats.
  std::vector<std::unique_ptr<ChaosTransport>> chaos;
  if (scenario.chaos.enabled()) {
    chaos.reserve(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      chaos.push_back(std::make_unique<ChaosTransport>(
          static_cast<std::uint32_t>(i), *transports[static_cast<std::size_t>(i)],
          make_chaos_options(scenario, static_cast<std::int32_t>(i))));
    }
  }

  std::vector<RuntimeVerdict> verdicts(static_cast<std::size_t>(n));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  std::mutex error_mutex;
  std::exception_ptr first_error;
  for (std::int64_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      const auto idx = static_cast<std::size_t>(i);
      try {
        RuntimeNode::Options opts =
            node_options(scenario, static_cast<std::int32_t>(i));
        if (tweak) tweak(opts);
        Transport& transport =
            chaos.empty() ? static_cast<Transport&>(*transports[idx])
                          : static_cast<Transport&>(*chaos[idx]);
        const bool can_restart =
            scenario.restart_after_ms >= 0 && !opts.snapshot_path.empty();
        for (;;) {
          RuntimeNode node(opts, transport);
          verdicts[idx] = node.run();
          if (!verdicts[idx].crashed || !can_restart) break;
          // Crash/restart recovery: relaunch this node from its snapshot.
          // The UDP socket stays bound, so peers keep retransmitting into it
          // while the node is "down" — strictly more benign than process
          // mode, which is fine for a convergence test.
          std::this_thread::sleep_for(
              std::chrono::milliseconds(scenario.restart_after_ms));
          opts.resume = true;
          opts.crash_at_round = -1;
        }
        if (!chaos.empty()) {
          const ChaosStats& st = chaos[idx]->stats();
          verdicts[idx].counters.chaos_drops = st.drops;
          verdicts[idx].counters.chaos_duplicates = st.duplicates;
          verdicts[idx].counters.chaos_delays = st.delays;
          verdicts[idx].counters.chaos_partition_drops = st.partition_drops;
        }
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
  return score_verdicts(scenario, std::move(verdicts));
}

namespace {

const char* role_name(NodeRole role) {
  switch (role) {
    case NodeRole::kSource: return "source";
    case NodeRole::kHonest: return "honest";
    case NodeRole::kFaulty: return "faulty";
  }
  return "?";
}

}  // namespace

void write_verdict(std::ostream& out, const RuntimeVerdict& v) {
  out << "index " << v.index << '\n'
      << "self " << v.self.x << ' ' << v.self.y << '\n'
      << "role " << role_name(v.role) << '\n'
      << "committed " << (v.committed ? static_cast<int>(*v.committed) : -1)
      << '\n'
      << "commit_round " << v.commit_round << '\n'
      << "rounds " << v.rounds << '\n'
      << "lingered_clean " << (v.lingered_clean ? 1 : 0) << '\n'
      << "interrupted " << (v.interrupted ? 1 : 0) << '\n'
      << "crashed " << (v.crashed ? 1 : 0) << '\n'
      << "commits " << v.counters.commits << '\n'
      << "broadcasts_queued " << v.counters.broadcasts_queued << '\n'
      << "envelopes_delivered " << v.counters.envelopes_delivered << '\n'
      << "envelopes_dropped " << v.counters.envelopes_dropped << '\n'
      << "packets_sent " << v.counters.packets_sent << '\n'
      << "packets_retransmitted " << v.counters.packets_retransmitted << '\n'
      << "packets_acked " << v.counters.packets_acked << '\n'
      << "duplicates_dropped " << v.counters.duplicates_dropped << '\n'
      << "barrier_timeouts " << v.counters.barrier_timeouts << '\n'
      << "barrier_wait_us " << v.counters.barrier_wait_us << '\n'
      << "chaos_drops " << v.counters.chaos_drops << '\n'
      << "chaos_delays " << v.counters.chaos_delays << '\n'
      << "chaos_duplicates " << v.counters.chaos_duplicates << '\n'
      << "chaos_partition_drops " << v.counters.chaos_partition_drops << '\n'
      << "node_restarts " << v.counters.node_restarts << '\n'
      << "peers_suspected " << v.counters.peers_suspected << '\n'
      << "degraded_rounds " << v.counters.degraded_rounds << '\n'
      << "last_commit_round " << v.counters.last_commit_round << '\n'
      << "round_latency_hist " << v.round_latency.serialize() << '\n'
      << "commit_latency_hist " << v.commit_latency.serialize() << '\n';
}

void write_verdict_core(std::ostream& out, const RuntimeVerdict& v) {
  out << "index " << v.index << '\n'
      << "self " << v.self.x << ' ' << v.self.y << '\n'
      << "role " << role_name(v.role) << '\n'
      << "committed " << (v.committed ? static_cast<int>(*v.committed) : -1)
      << '\n'
      << "commit_round " << v.commit_round << '\n'
      << "rounds " << v.rounds << '\n'
      << "crashed " << (v.crashed ? 1 : 0) << '\n'
      << "commits " << v.counters.commits << '\n'
      << "broadcasts_queued " << v.counters.broadcasts_queued << '\n'
      << "committed_queued " << v.counters.committed_queued << '\n'
      << "heard_queued " << v.counters.heard_queued << '\n'
      << "envelopes_delivered " << v.counters.envelopes_delivered << '\n'
      << "envelopes_dropped " << v.counters.envelopes_dropped << '\n'
      << "last_commit_round " << v.counters.last_commit_round << '\n';
}

RuntimeVerdict parse_verdict(std::istream& in) {
  RuntimeVerdict v;
  std::string line;
  bool saw_index = false;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key)) continue;
    const auto want_i64 = [&](std::int64_t& out) {
      if (!(ls >> out)) {
        throw std::invalid_argument("verdict: bad value for '" + key + "'");
      }
    };
    std::int64_t x = 0;
    if (key == "index") {
      want_i64(x);
      v.index = static_cast<std::int32_t>(x);
      saw_index = true;
    } else if (key == "self") {
      want_i64(x);
      v.self.x = static_cast<std::int32_t>(x);
      want_i64(x);
      v.self.y = static_cast<std::int32_t>(x);
    } else if (key == "role") {
      std::string name;
      ls >> name;
      if (name == "source") {
        v.role = NodeRole::kSource;
      } else if (name == "honest") {
        v.role = NodeRole::kHonest;
      } else if (name == "faulty") {
        v.role = NodeRole::kFaulty;
      } else {
        throw std::invalid_argument("verdict: unknown role '" + name + "'");
      }
    } else if (key == "committed") {
      want_i64(x);
      if (x >= 0) v.committed = static_cast<std::uint8_t>(x);
    } else if (key == "commit_round") {
      want_i64(v.commit_round);
    } else if (key == "rounds") {
      want_i64(v.rounds);
    } else if (key == "lingered_clean") {
      want_i64(x);
      v.lingered_clean = x != 0;
    } else if (key == "interrupted") {
      want_i64(x);
      v.interrupted = x != 0;
    } else if (key == "crashed") {
      want_i64(x);
      v.crashed = x != 0;
    } else if (key == "commits") {
      want_i64(x);
      v.counters.commits = static_cast<std::uint64_t>(x);
    } else if (key == "broadcasts_queued") {
      want_i64(x);
      v.counters.broadcasts_queued = static_cast<std::uint64_t>(x);
    } else if (key == "envelopes_delivered") {
      want_i64(x);
      v.counters.envelopes_delivered = static_cast<std::uint64_t>(x);
    } else if (key == "envelopes_dropped") {
      want_i64(x);
      v.counters.envelopes_dropped = static_cast<std::uint64_t>(x);
    } else if (key == "packets_sent") {
      want_i64(x);
      v.counters.packets_sent = static_cast<std::uint64_t>(x);
    } else if (key == "packets_retransmitted") {
      want_i64(x);
      v.counters.packets_retransmitted = static_cast<std::uint64_t>(x);
    } else if (key == "packets_acked") {
      want_i64(x);
      v.counters.packets_acked = static_cast<std::uint64_t>(x);
    } else if (key == "duplicates_dropped") {
      want_i64(x);
      v.counters.duplicates_dropped = static_cast<std::uint64_t>(x);
    } else if (key == "barrier_timeouts") {
      want_i64(x);
      v.counters.barrier_timeouts = static_cast<std::uint64_t>(x);
    } else if (key == "barrier_wait_us") {
      want_i64(x);
      v.counters.barrier_wait_us = static_cast<std::uint64_t>(x);
    } else if (key == "chaos_drops") {
      want_i64(x);
      v.counters.chaos_drops = static_cast<std::uint64_t>(x);
    } else if (key == "chaos_delays") {
      want_i64(x);
      v.counters.chaos_delays = static_cast<std::uint64_t>(x);
    } else if (key == "chaos_duplicates") {
      want_i64(x);
      v.counters.chaos_duplicates = static_cast<std::uint64_t>(x);
    } else if (key == "chaos_partition_drops") {
      want_i64(x);
      v.counters.chaos_partition_drops = static_cast<std::uint64_t>(x);
    } else if (key == "node_restarts") {
      want_i64(x);
      v.counters.node_restarts = static_cast<std::uint64_t>(x);
    } else if (key == "peers_suspected") {
      want_i64(x);
      v.counters.peers_suspected = static_cast<std::uint64_t>(x);
    } else if (key == "degraded_rounds") {
      want_i64(x);
      v.counters.degraded_rounds = static_cast<std::uint64_t>(x);
    } else if (key == "last_commit_round") {
      want_i64(v.counters.last_commit_round);
    } else if (key == "round_latency_hist" || key == "commit_latency_hist") {
      std::string rest;
      std::getline(ls, rest);
      LatencyHistogram& h = key[0] == 'r' ? v.round_latency : v.commit_latency;
      try {
        h = LatencyHistogram::deserialize(rest);
      } catch (const std::invalid_argument& e) {
        throw std::invalid_argument("verdict: bad value for '" + key +
                                    "': " + e.what());
      }
    } else {
      throw std::invalid_argument("verdict: unknown key '" + key + "'");
    }
  }
  if (!saw_index) throw std::invalid_argument("verdict: missing index");
  return v;
}

}  // namespace rbcast
