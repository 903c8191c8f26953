#pragma once
// End-to-end simulation runner: builds a torus radio network, installs the
// chosen protocol on honest nodes and the chosen adversary on faulty nodes,
// runs to quiescence, and scores the outcome.
//
// Scoring: reliable broadcast succeeds when every honest node commits to the
// source's value. `wrong_commits` counts honest nodes committing any other
// value — Theorem 2 (and the trivial safety of the crash/CPA rules) predicts
// this is zero in every run, and the test-suite enforces it.

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "radiobcast/fault/fault_set.h"
#include "radiobcast/grid/metric.h"
#include "radiobcast/grid/torus.h"
#include "radiobcast/obs/counters.h"
#include "radiobcast/obs/timers.h"
#include "radiobcast/obs/trace.h"

namespace rbcast {

enum class ProtocolKind : std::uint8_t {
  kCrashFlood,           // Section VII
  kCpa,                  // Section IX ([Koo04]'s simple protocol)
  kBvTwoHop,             // Section VI-B
  kBvIndirectFlood,      // Section VI, faithful flooding relays
  kBvIndirectEarmarked,  // Section VI, constructive-path relays (L∞ only)
};

const char* to_string(ProtocolKind k);

/// Inverse of to_string(ProtocolKind). Returns nullopt for unknown names.
std::optional<ProtocolKind> protocol_from_string(std::string_view name);

enum class AdversaryKind : std::uint8_t {
  kSilent,        // crash-from-start / silent Byzantine
  kLying,         // pushes the complement value, forges reports
  kCrashAtRound,  // honest until crash_round, then silent (crash-stop)
  kSpoofing,      // Section X negative control: impersonates honest nodes
                  // (enables address spoofing in the network!)
  kJamming,       // Section X: silent faults + bounded collision budget
};

const char* to_string(AdversaryKind k);

/// Inverse of to_string(AdversaryKind). Returns nullopt for unknown names.
std::optional<AdversaryKind> adversary_from_string(std::string_view name);

/// How loss_p randomness is drawn. kSharedStream is the historical default
/// (one network-wide rng consumed in global delivery order — cheapest, and
/// what every recorded campaign digest pins). kPairwise gives each ordered
/// (sender, receiver) pair its own seeded stream, which is the only layout a
/// distributed deployment can replicate; the networked runtime maps loss_p
/// onto it (net/channel.h's PairwiseLossChannel).
enum class LossModel : std::uint8_t { kSharedStream, kPairwise };

struct SimConfig {
  std::int32_t width = 20;
  std::int32_t height = 20;
  std::int32_t r = 2;
  Metric metric = Metric::kLInf;
  std::int64_t t = 0;  // the local fault bound the protocol assumes
  ProtocolKind protocol = ProtocolKind::kBvTwoHop;
  AdversaryKind adversary = AdversaryKind::kSilent;
  std::uint8_t value = 1;  // the source's value (the adversary pushes 1-value)
  Coord source{0, 0};
  std::int64_t crash_round = 1;  // for kCrashAtRound
  std::uint64_t seed = 1;
  std::int64_t max_rounds = 0;  // 0 = automatic bound
  /// Channel-error extension (Section II remark): per-receiver iid loss
  /// probability, and how many times each broadcast is transmitted. The
  /// paper's model is loss_p = 0, retransmissions = 1.
  double loss_p = 0.0;
  int retransmissions = 1;
  LossModel loss_model = LossModel::kSharedStream;
  /// For kJamming: deliveries each faulty node may destroy (-1 = unbounded).
  std::int64_t jam_budget = 0;
  /// Per-trial deadline watchdog (0 = off). `deadline_rounds` is a
  /// cooperative round budget: a run still non-quiescent after this many
  /// rounds throws TrialTimeoutError instead of continuing toward max_rounds.
  /// `deadline_ms` is a wall-clock budget measured from run_simulation entry
  /// (setup included) and checked between rounds, so a runaway trial turns
  /// into a thrown timeout rather than a hung worker. The campaign engine
  /// classifies TrialTimeoutError as a non-retried `timeout` failure. Note
  /// that a wall-clock deadline makes the *set of completed trials* depend on
  /// machine speed; the outcome of any trial that completes is still
  /// deterministic.
  std::int64_t deadline_rounds = 0;
  std::int64_t deadline_ms = 0;
};

/// Thrown by run_simulation when a SimConfig deadline is exceeded. Derives
/// from std::runtime_error (not invalid_argument): the configuration is
/// legal, the trial just ran past its budget.
class TrialTimeoutError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Per-node outcome for visualization: the source and honest committed nodes
/// carry their value; faulty and undecided nodes are flagged.
enum class NodeOutcome : std::int8_t {
  kUndecided,
  kCommitted0,
  kCommitted1,
  kFaulty,
  kSource,
};

struct SimResult {
  std::int64_t honest_nodes = 0;  // excluding the source
  std::int64_t correct_commits = 0;
  std::int64_t wrong_commits = 0;
  std::int64_t undecided = 0;
  std::int64_t rounds = 0;
  bool reached_quiescence = false;
  std::uint64_t transmissions = 0;
  std::uint64_t payload_units = 0;  // see TrafficStats::payload_units
  /// Observability counters of the run (deterministic given the seed).
  Counters counters;
  /// Wall-clock phase split of the run (nondeterministic; never serialized
  /// into byte-identical payloads).
  PhaseTimers timers;
  std::vector<NodeOutcome> outcomes;  // by torus node index
  /// Round in which each node committed (-1 = never / faulty). The source
  /// has round 0. Feeds the propagation-stage analyses (Figs 9-10, 14-19).
  std::vector<std::int64_t> commit_rounds;

  /// Number of honest nodes (plus the source) committed by the end of each
  /// round: commits_by_round()[k] counts nodes with commit round <= k.
  std::vector<std::int64_t> commits_by_round() const;

  /// Fraction of honest non-source nodes that committed to the correct value.
  double coverage() const {
    return honest_nodes == 0
               ? 1.0
               : static_cast<double>(correct_commits) /
                     static_cast<double>(honest_nodes);
  }

  /// Reliable broadcast achieved: full coverage and no wrong commits.
  bool success() const {
    return wrong_commits == 0 && correct_commits == honest_nodes;
  }
};

/// Optional observability attachments for one run. Everything here is
/// off/null by default and adds nothing to the hot path when absent.
struct ObsOptions {
  /// Event sink for round/delivery/commit events (not owned; may be null).
  /// The sink is enabled for the duration of the run.
  RoundTrace* trace = nullptr;
};

/// The role a node plays in a trial, used to pick its behavior.
enum class NodeRole : std::uint8_t { kSource, kHonest, kFaulty };

/// Builds the behavior a node of the given role runs under `config`. This is
/// the single node-population recipe shared by the simulator and the
/// networked runtime (runtime/node.h), which is what makes their verdicts
/// comparable: same config + same roles = same protocol code. An honest
/// node is a one-slot view of the pool run_simulation installs
/// (protocols/pool.h). Throws std::invalid_argument when the protocol does
/// not support the geometry (bv-2hop and bv-4hop: BvPool::supported) or,
/// for bv-4hop-earmarked, the metric (L∞ only). Forward-declared
/// NodeBehavior lives in net/backend.h.
class NodeBehavior;
std::unique_ptr<NodeBehavior> make_node_behavior(const SimConfig& config,
                                                 const Torus& torus,
                                                 NodeRole role);

/// The automatic round budget used when SimConfig::max_rounds is 0: generous
/// diameter-in-hops times slack for multi-round evidence accumulation. The
/// runtime harness uses the same bound so both backends observe the same
/// horizon.
std::int64_t default_round_bound(const SimConfig& config);

/// Runs one simulation. Throws std::invalid_argument, before round 1, if the
/// fault set contains the source, if the torus is too small for unambiguous
/// wrap-around geometry (min side 4r+2; protocols reasoning across 2r-balls
/// get sides of at least 8r+4 in the provided experiment configs), or if the
/// protocol rejects the geometry (see make_node_behavior).
SimResult run_simulation(const SimConfig& config, const FaultSet& faults);

/// As above, with observability attachments (e.g. a RoundTrace sink).
SimResult run_simulation(const SimConfig& config, const FaultSet& faults,
                         const ObsOptions& obs);

}  // namespace rbcast
