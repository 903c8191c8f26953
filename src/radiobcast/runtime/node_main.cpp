// radiobcast-node: one node of a networked deployment.
//
// Reads the shared scenario file, binds loopback port base_port + index,
// runs its RuntimeNode event loop, and reports its verdict — to stdout and,
// with --out, to <out>/verdict-<index>.txt for the orchestrator to collect.
//
// Chaos and recovery: when the scenario has a chaos section, the UDP socket
// is wrapped in a seeded ChaosTransport (datagram drop/dup/delay/partition).
// --crash-at-round k makes the node exit right after finishing round k with
// exit code 9 and a crashed verdict; --restart-after-ms m instead restarts
// it in-process from its fsync'd snapshot after m milliseconds (the socket
// is closed and rebound across the gap, so in-flight datagrams die with the
// old incarnation). --resume starts directly from the snapshot — the flag
// the orchestrator's --respawn passes to a relaunched process.
//
// Exit codes: 0 success, 9 crash injection (stayed dead), 130/143 on
// SIGINT/SIGTERM (after flushing the verdict and trace), 2 on bad usage,
// 1 on runtime errors.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "radiobcast/runtime/harness.h"
#include "radiobcast/runtime/node.h"
#include "radiobcast/runtime/scenario.h"
#include "radiobcast/runtime/transport.h"
#include "radiobcast/util/cli.h"
#include "radiobcast/util/shutdown.h"

namespace {

int run(int argc, char** argv) {
  using namespace rbcast;
  const CliArgs args(argc, argv,
                     {"scenario", "index", "out", "trace", "quiet", "help",
                      "state-dir", "crash-at-round", "restart-after-ms",
                      "resume"});
  if (!args.ok()) {
    std::cerr << "radiobcast-node: " << args.error() << "\n";
    return 2;
  }
  if (args.get_bool("help", false)) {
    std::cout
        << "usage: radiobcast-node --scenario <file> --index <i> "
           "[--out <dir>] [--trace <file.jsonl>] [--quiet]\n"
           "       [--state-dir <dir>] [--crash-at-round <k>] "
           "[--restart-after-ms <m>] [--resume]\n"
           "Runs node <i> of the scenario over UDP loopback (port "
           "base_port+i)\nand prints its verdict.\n";
    return 0;
  }
  const std::string scenario_path = args.get("scenario", "");
  const std::int64_t index = args.get_int("index", -1);
  if (scenario_path.empty() || index < 0) {
    std::cerr << "radiobcast-node: --scenario and --index are required "
                 "(--help for usage)\n";
    return 2;
  }

  const Scenario scenario = load_scenario(scenario_path);
  const Torus torus(scenario.sim.width, scenario.sim.height);
  if (index >= torus.node_count()) {
    std::cerr << "radiobcast-node: index " << index << " out of range for a "
              << scenario.sim.width << "x" << scenario.sim.height
              << " torus\n";
    return 2;
  }

  ShutdownGuard shutdown;
  RoundTrace trace;
  const std::string trace_path = args.get("trace", "");
  const std::string out_dir = args.get("out", "");

  RuntimeNode::Options opts =
      node_options(scenario, static_cast<std::int32_t>(index));
  opts.stop_requested = [&shutdown] { return shutdown.requested(); };
  if (!trace_path.empty()) {
    trace.set_enabled(true);
    opts.trace = &trace;
  }
  // Snapshot location: --state-dir beats the scenario's state_dir beats the
  // verdict directory (so process-mode crash tests work with just --out).
  std::string state_dir = args.get("state-dir", scenario.state_dir);
  if (state_dir.empty()) state_dir = out_dir;
  if (!state_dir.empty()) {
    std::filesystem::create_directories(state_dir);
    opts.snapshot_path =
        state_dir + "/state-" + std::to_string(index) + ".txt";
  }
  const std::int64_t crash_at = args.get_int("crash-at-round", -1);
  if (crash_at >= 0) opts.crash_at_round = crash_at;
  const std::int64_t restart_after_ms =
      args.get_int("restart-after-ms", scenario.restart_after_ms);
  opts.resume = args.get_bool("resume", false);

  const auto port = static_cast<std::uint16_t>(scenario.base_port + index);
  std::vector<std::uint16_t> peers;
  peers.reserve(static_cast<std::size_t>(torus.node_count()));
  for (std::int64_t i = 0; i < torus.node_count(); ++i) {
    peers.push_back(static_cast<std::uint16_t>(scenario.base_port + i));
  }

  RuntimeVerdict verdict;
  for (;;) {
    {
      UdpTransport udp(port);
      udp.set_peers(peers);
      std::unique_ptr<ChaosTransport> chaos;
      Transport* transport = &udp;
      if (scenario.chaos.enabled()) {
        chaos = std::make_unique<ChaosTransport>(
            static_cast<std::uint32_t>(index), udp,
            make_chaos_options(scenario, static_cast<std::int32_t>(index)));
        transport = chaos.get();
      }
      RuntimeNode node(opts, *transport);
      verdict = node.run();
      if (chaos) {
        const ChaosStats& st = chaos->stats();
        verdict.counters.chaos_drops = st.drops;
        verdict.counters.chaos_duplicates = st.duplicates;
        verdict.counters.chaos_delays = st.delays;
        verdict.counters.chaos_partition_drops = st.partition_drops;
      }
    }  // socket closed here — a dead incarnation loses its in-flight traffic
    if (!verdict.crashed || restart_after_ms < 0 || shutdown.requested()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(restart_after_ms));
    opts.resume = true;
    opts.crash_at_round = -1;
  }

  // Flush everything before deciding the exit code: an interrupted or
  // crashed node still reports what it saw.
  if (!out_dir.empty()) {
    std::filesystem::create_directories(out_dir);
    const std::string path =
        out_dir + "/verdict-" + std::to_string(index) + ".txt";
    std::ofstream out(path);
    if (!out) {
      std::cerr << "radiobcast-node: cannot write " << path << "\n";
      return 1;
    }
    write_verdict(out, verdict);
  }
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (out) trace.write_jsonl(out);
  }
  if (!args.get_bool("quiet", false)) {
    write_verdict(std::cout, verdict);
  }
  if (verdict.interrupted) return shutdown.exit_code();
  if (verdict.crashed) return 9;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "radiobcast-node: " << e.what() << "\n";
    return 1;
  }
}
