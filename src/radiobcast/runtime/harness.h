#pragma once
// Runtime harnesses: launch every node of a scenario and score the verdicts.
//
// Two launch modes share all scoring code:
//
//  * run_scenario_threads — one std::thread per node, ephemeral UDP ports
//    discovered after binding. This is what the tests and benchmarks use: no
//    subprocess machinery, real sockets.
//  * process mode — the radiobcast-runtime orchestrator fork/execs one
//    radiobcast-node per node on fixed ports (scenario base_port + index);
//    each child serializes its RuntimeVerdict into a per-node file that the
//    orchestrator collects and scores with the same score_verdicts().

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "radiobcast/runtime/node.h"
#include "radiobcast/runtime/scenario.h"

namespace rbcast {

/// Scenario-wide outcome, scored exactly like SimResult's verdict section so
/// the equivalence test can compare field-for-field.
struct RuntimeResult {
  std::vector<RuntimeVerdict> verdicts;  // by node index
  std::int64_t honest_nodes = 0;         // excluding the source
  std::int64_t correct_commits = 0;
  std::int64_t wrong_commits = 0;
  std::int64_t undecided = 0;
  std::int64_t rounds = 0;  // max over nodes
  bool any_interrupted = false;
  /// Verdicts that ended in a crash (injected or synthesized for a dead
  /// process), any role.
  std::int64_t crashed_nodes = 0;
  /// Honest nodes whose final verdict is a crash without a commit — excused
  /// from the degraded-correct bar (they died, they were not wrong).
  std::int64_t crashed_undecided = 0;
  Counters counters;  // merged over nodes
  /// Deployment-wide latency distributions, merged over nodes (log-bucketed,
  /// so merging loses nothing — obs/latency.h). Quantiles via quantile_us.
  LatencyHistogram round_latency;
  LatencyHistogram commit_latency;

  bool success() const {
    return wrong_commits == 0 && correct_commits == honest_nodes;
  }

  /// The deployment hit faults (crashes, restarts, timed-out or incomplete
  /// barriers) even if the protocol outcome is intact.
  bool degraded() const {
    return crashed_nodes > 0 || counters.node_restarts > 0 ||
           counters.barrier_timeouts > 0 || counters.degraded_rounds > 0;
  }

  /// Degraded-but-correct: nobody committed a wrong value and every honest
  /// node that survived to the end committed correctly. This is the bar a
  /// chaos deployment must clear — weaker than success() only in excusing
  /// nodes that died.
  bool degraded_correct() const {
    return wrong_commits == 0 &&
           correct_commits + crashed_undecided == honest_nodes;
  }
};

/// Scores collected per-node verdicts against the scenario's ground truth.
/// Throws std::invalid_argument if verdicts are missing or duplicated.
RuntimeResult score_verdicts(const Scenario& scenario,
                             std::vector<RuntimeVerdict> verdicts);

/// Runs every node of the scenario as a thread in this process over real
/// loopback UDP sockets (ephemeral ports). `tweak`, when set, may adjust
/// each node's options before construction (test hook: behavior factories,
/// timeouts, trace sinks). Propagates the first node exception, if any.
/// When the scenario has a chaos section, every node's transport is wrapped
/// in a seeded ChaosTransport; when it has crash_node + restart_after_ms and
/// a state_dir, the crashed node's thread relaunches it from its snapshot.
RuntimeResult run_scenario_threads(
    const Scenario& scenario,
    const std::function<void(RuntimeNode::Options&)>& tweak = nullptr);

/// Serializes a verdict as line-based `key value` text (the per-node file of
/// process mode): write_verdict_core's lines, then the timing-dependent rest
/// (linger and interrupt flags, every counter for_each_counter marks timed,
/// latency histograms). Every Counters field is written.
void write_verdict(std::ostream& out, const RuntimeVerdict& verdict);

/// Serializes only the deterministic subset of a verdict: the fields that are
/// a pure function of the scenario (protocol outcome and the counters
/// for_each_counter does not mark timed), excluding everything
/// timing-dependent (link traffic, barrier waits, chaos stats, latency
/// histograms). Two runs of one scenario over different transports (per-node
/// UDP sockets or one SwarmHub socket) must produce byte-identical cores —
/// the cross-transport equivalence bar (tests/test_runtime_equivalence.cpp).
void write_verdict_core(std::ostream& out, const RuntimeVerdict& verdict);

/// Inverse of write_verdict. Throws std::invalid_argument on malformed input,
/// unknown keys included.
RuntimeVerdict parse_verdict(std::istream& in);

/// Copies what the chaos layer did to a node's traffic into its chaos_*
/// counters; both launch modes (the thread harness and radiobcast-node) call
/// it on the verdict a node's run returns.
void record_chaos(const ChaosStats& stats, Counters& counters);

/// Builds the RuntimeNode options a given node index runs with — the single
/// recipe shared by the thread harness and the radiobcast-node binary, so
/// both modes configure nodes identically.
RuntimeNode::Options node_options(const Scenario& scenario,
                                  std::int32_t index);

}  // namespace rbcast
