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
        const bool can_restart =
            scenario.restart_after_ms >= 0 && !opts.snapshot_path.empty();
        for (;;) {
          // One chaos wrapper per incarnation, as radiobcast-node builds one
          // per process: a restarted node's datagram-fate stream starts over,
          // and its chaos_* counters cover its last incarnation, as
          // packets_sent does.
          std::unique_ptr<ChaosTransport> chaos;
          Transport* transport = transports[idx].get();
          if (scenario.chaos.enabled()) {
            chaos = std::make_unique<ChaosTransport>(
                static_cast<std::uint32_t>(i), *transport,
                make_chaos_options(scenario));
            transport = chaos.get();
          }
          RuntimeNode node(opts, *transport);
          verdicts[idx] = node.run();
          if (chaos) record_chaos(chaos->stats(), verdicts[idx].counters);
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

void record_chaos(const ChaosStats& stats, Counters& counters) {
  counters.chaos_drops = stats.drops;
  counters.chaos_duplicates = stats.duplicates;
  counters.chaos_delays = stats.delays;
  counters.chaos_partition_drops = stats.partition_drops;
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

/// Writes the counters whose for_each_counter `timed` flag equals `timed`,
/// as `name value` lines in the schema's order.
void write_counters(std::ostream& out, const Counters& c, bool timed) {
  for_each_counter([&](const char* name, auto field, CounterMerge, bool t) {
    if (t == timed) out << name << ' ' << c.*field << '\n';
  });
}

/// Reads the value of the counter named `key` from `in` into `c`. Returns
/// false when no counter has that name.
bool parse_counter(const std::string& key, std::istream& in, Counters& c) {
  bool found = false;
  for_each_counter([&](const char* name, auto field, CounterMerge, bool) {
    if (found || key != name) return;
    found = true;
    if (!(in >> c.*field)) {
      throw std::invalid_argument("verdict: bad value for '" + key + "'");
    }
  });
  return found;
}

}  // namespace

void write_verdict_core(std::ostream& out, const RuntimeVerdict& v) {
  out << "index " << v.index << '\n'
      << "self " << v.self.x << ' ' << v.self.y << '\n'
      << "role " << role_name(v.role) << '\n'
      << "committed " << (v.committed ? static_cast<int>(*v.committed) : -1)
      << '\n'
      << "commit_round " << v.commit_round << '\n'
      << "rounds " << v.rounds << '\n'
      << "crashed " << (v.crashed ? 1 : 0) << '\n';
  write_counters(out, v.counters, /*timed=*/false);
}

void write_verdict(std::ostream& out, const RuntimeVerdict& v) {
  write_verdict_core(out, v);
  out << "lingered_clean " << (v.lingered_clean ? 1 : 0) << '\n'
      << "interrupted " << (v.interrupted ? 1 : 0) << '\n';
  write_counters(out, v.counters, /*timed=*/true);
  out << "round_latency_hist " << v.round_latency.serialize() << '\n'
      << "commit_latency_hist " << v.commit_latency.serialize() << '\n';
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
    } else if (!parse_counter(key, ls, v.counters)) {
      throw std::invalid_argument("verdict: unknown key '" + key + "'");
    }
  }
  if (!saw_index) throw std::invalid_argument("verdict: missing index");
  return v;
}

}  // namespace rbcast
