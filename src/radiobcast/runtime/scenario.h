#pragma once
// Scenario files: the shared ground truth a runtime deployment launches from.
//
// The orchestrator and every radiobcast-node process read the same scenario
// file, so they agree on topology, protocol, fault placement, and timing
// without any runtime negotiation. The format is a line-based `key value`
// text file (order-insensitive, `#` comments, one `fault x y` line per
// faulty node), chosen over JSON so a scenario can be written by hand in a
// CI yaml block or a shell heredoc.
//
//   protocol bv-2hop          adversary silent
//   width 8                   height 8
//   r 1                       metric linf
//   t 1                       value 1
//   source 0 0                seed 42
//   crash_round 1             max_rounds 0
//   round_timeout_ms 5000     linger_timeout_ms 2000
//   base_port 47000           suspect_after 2
//   fault 3 3
//   fault 6 1
//
// Chaos section (all optional; datagram-level fault injection, applied by
// ChaosTransport on every node's outgoing traffic — docs/RUNTIME.md):
//
//   loss_p 0.1                # message-level loss, the simulator's knob
//   chaos_drop_p 0.05         # datagram drop (masked by retransmission)
//   chaos_dup_p 0.05          # datagram duplication
//   chaos_delay_p 0.1         # datagram delay probability ...
//   chaos_delay_ms 20         # ... and duration
//   chaos_seed 7              # 0 / absent = derived from seed
//   partition 0 0 1 0 0 500   # from x y, to x y, [start_ms end_ms)
//   crash_node 2 2            # this node crashes after finishing ...
//   crash_at_round 3          # ... round 3, and
//   restart_after_ms 100      # restarts from its snapshot (-1 = stays dead)
//   state_dir out             # snapshot directory (process mode default: out)
//   shared_socket 1           # in-process: one SwarmHub socket for all nodes
//
// Every scalar key may appear at most once; `fault` and `partition` repeat.

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "radiobcast/core/simulation.h"
#include "radiobcast/fault/fault_set.h"
#include "radiobcast/runtime/transport.h"

namespace rbcast {

/// The scenario's datagram-level chaos section (coordinates canonicalized at
/// parse time; converted to per-node ChaosOptions by make_chaos_options).
struct ScenarioChaos {
  double drop_p = 0.0;
  double duplicate_p = 0.0;
  double delay_p = 0.0;
  std::int64_t delay_ms = 0;
  /// 0 = derive from sim.seed (hash-split so chaos and protocol streams
  /// never correlate).
  std::uint64_t seed = 0;
  struct Partition {
    Coord from{};
    Coord to{};
    std::int64_t start_ms = 0;
    std::int64_t end_ms = -1;  // -1 = forever
  };
  std::vector<Partition> partitions;

  bool enabled() const {
    return drop_p > 0.0 || duplicate_p > 0.0 || delay_p > 0.0 ||
           !partitions.empty();
  }
};

struct Scenario {
  SimConfig sim;
  /// Faulty node coordinates (canonicalized at parse time).
  std::vector<Coord> faults;
  /// Node i binds loopback port base_port + i (process mode). The in-process
  /// harness ignores this and uses ephemeral ports.
  std::uint16_t base_port = 47000;
  std::int64_t round_timeout_ms = 5000;
  std::int64_t linger_timeout_ms = 2000;
  /// Consecutive timed-out rounds before a silent peer is suspected
  /// (RoundSynchronizer::Options::suspect_after); 0 disables suspicion.
  std::int64_t suspect_after = 2;
  /// Datagram-level fault injection (ChaosTransport).
  ScenarioChaos chaos;
  /// Process-crash injection: the node at crash_node _exits right after
  /// finishing round crash_at_round; restart_after_ms >= 0 relaunches it
  /// from its snapshot after that many milliseconds (-1 = stays dead).
  std::optional<Coord> crash_node;
  std::int64_t crash_at_round = 0;
  std::int64_t restart_after_ms = -1;
  /// Where per-node state snapshots live ("" = no snapshots in thread mode;
  /// process mode defaults to the verdict directory).
  std::string state_dir;
  /// Inert: no scenario key sets it and nothing reads it. It stays only
  /// because the repo benchmark (bench/ledger/workloads.cpp), which is frozen
  /// with its baselines, still assigns it.
  RuntimeBackend backend = RuntimeBackend::kEpoll;
  /// In-process deployments only: multiplex every node onto one SwarmHub
  /// socket (runtime/swarm.h) instead of one UDP socket per node, so a
  /// 256-node swarm costs one fd. Ignored in process mode.
  bool shared_socket = false;

  /// Rebuilds the FaultSet on the scenario's torus.
  FaultSet fault_set() const;

  /// The effective chaos seed (chaos.seed, or a hash-split of sim.seed).
  std::uint64_t chaos_seed() const;
};

/// Converts the scenario's chaos section into the ChaosOptions every node's
/// ChaosTransport runs with (partition coords resolved to indices; each
/// transport keeps the partitions sent from its own index). Returns disabled
/// options when the scenario has no chaos section.
ChaosOptions make_chaos_options(const Scenario& scenario);

/// Parses a scenario from text. Throws std::invalid_argument with a
/// line-numbered message on unknown keys or malformed values.
Scenario parse_scenario(std::istream& in);
Scenario parse_scenario_string(const std::string& text);

/// Loads from a file. Throws std::runtime_error if unreadable.
Scenario load_scenario(const std::string& path);

/// Serializes a scenario in the format parse_scenario reads
/// (round-tripping: parse(write(s)) == s for every representable field).
void write_scenario(std::ostream& out, const Scenario& scenario);

}  // namespace rbcast
