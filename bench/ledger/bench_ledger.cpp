// bench_ledger — the repo benchmark (README.md in this directory).
//
//   bench_ledger --workload NAME --seed N [--seconds S] [--trace 0|1]
//                [--smoke] [--out DIR]
//
// Runs one workload closed loop for S seconds and prints every metric as
// "<workload> <metric> <value> <unit>", then, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. Untraced runs
// (--trace 0) put the end-to-end metrics in that object, traced runs the
// per-layer ledger. Exit status 1 when a correctness oracle fails.
//
// The benchmark measures each layer from outside, by timing its calls into
// public library functions; nothing inside the library is instrumented.

#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "radiobcast/campaign/engine.h"
#include "radiobcast/campaign/report.h"
#include "radiobcast/campaign/thread_pool.h"
#include "radiobcast/grid/adjacency.h"
#include "radiobcast/obs/memory.h"
#include "radiobcast/protocols/determination.h"
#include "radiobcast/runtime/harness.h"
#include "radiobcast/runtime/wire.h"
#include "radiobcast/util/sha256.h"
#include "replay.h"
#include "spans.h"
#include "workloads.h"

extern char** environ;

namespace {

using namespace rbcast;
using ledger::ScopedSpan;
using ledger::SpanLog;
using ledger::Workload;
using Clock = std::chrono::steady_clock;

struct MetricDef {
  std::string name;
  std::string unit;
};

// The metric sets of BENCHMARK.json; the JSON line carries exactly these.
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},          {"trials_per_s", "1/s"},
    {"cpu_ms_per_trial", "ms"}, {"rounds_per_s", "1/s"},
    {"cpu_us_per_round", "us"}, {"peak_rss_mib", "MiB"}};

// Only grid.adjacency_build_ms is a time: every workload builds that table.
// The other layers are absent from some workloads, so they are reported as
// shares, ratios and counts, which read 0 where a layer is absent.
const std::vector<MetricDef> kPerLayer = {
    {"grid.adjacency_build_ms", "ms"},
    {"fault.share", "frac"},
    {"fault.faults_per_trial", "count"},
    {"core.setup_share", "frac"},
    {"core.rounds_share", "frac"},
    {"core.verdict_share", "frac"},
    {"core.teardown_share", "frac"},
    {"net.deliveries_per_trial", "count"},
    {"net.deliveries_per_s", "1/s"},
    {"net.drop_ratio", "frac"},
    {"net.engine_mib_peak", "MiB"},
    {"protocols.broadcasts_per_trial", "count"},
    {"protocols.heard_per_trial", "count"},
    {"protocols.commits_per_trial", "count"},
    {"protocols.memo_hit_rate", "frac"},
    {"protocols.memo_misses_per_trial", "count"},
    {"campaign.share", "frac"},
    {"campaign.worker_busy_frac", "frac"},
    {"runtime.share", "frac"},
    {"runtime.udp.packets_per_round", "count"},
    {"runtime.swarm.packets_per_round", "count"},
    {"runtime.udp.acks_per_packet", "ratio"},
    {"runtime.swarm.acks_per_packet", "ratio"},
    {"runtime.udp.retransmit_ratio", "frac"},
    {"runtime.swarm.retransmit_ratio", "frac"},
    {"runtime.udp.barrier_wait_frac", "frac"},
    {"runtime.swarm.barrier_wait_frac", "frac"},
    {"runtime.udp.sys_cpu_frac", "frac"},
    {"runtime.swarm.sys_cpu_frac", "frac"},
    {"runtime.udp.cpu_share", "frac"},
    {"runtime.wire_packets_per_s", "1/s"},
    {"trace.overhead_frac", "frac"},
    {"trace.unattributed_frac", "frac"}};

// Other tenants of the host slow every unit they overlap, in bursts of about
// a second. Rates are reported at this upper quantile over batches, and
// costs and set-up at the matching lower one: the run's quiet end, which
// the bursts do not reach.
constexpr double kQuiet = 0.1;
// Fresh processes timed for setup_s: at least the minimum, then more while
// they have taken under the budget, up to the maximum. A probe costs 3 ms
// on some workloads and 0.5 s on others.
constexpr std::size_t kMinSetupProbes = 7;
constexpr std::size_t kMaxSetupProbes = 31;
constexpr double kSetupProbeBudgetS = 0.5;
// A run that has not finished by then is killed: the limit is 180 s.
constexpr unsigned kWatchdogSeconds = 170;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  bool setup_probe = false;
  std::string out;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "bench_ledger: " << error
            << "\nusage: bench_ledger --workload NAME --seed N [--seconds S]"
               " [--trace 0|1] [--smoke] [--out DIR]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        args.workload = value();
      } else if (flag == "--seed") {
        args.seed = std::stoull(value());
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value());
      } else if (flag == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        args.trace = v == "1";
      } else if (flag == "--smoke") {
        args.smoke = true;
      } else if (flag == "--setup-probe") {
        args.setup_probe = true;
      } else if (flag == "--out") {
        args.out = value();
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (args.workload.empty() || !have_seed) {
    usage("--workload and --seed are required");
  }
  if (!(args.seconds >= 0.0 && args.seconds <= 120.0)) {
    usage("--seconds must be in [0, 120]");
  }
  if (args.smoke) args.seconds = 0.0;
  return args;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process CPU time over all threads, seconds.
struct Cpu {
  double user = 0.0, sys = 0.0;
  double total() const { return user + sys; }
  Cpu operator-(const Cpu& o) const { return {user - o.user, sys - o.sys}; }
  Cpu& operator+=(const Cpu& o) {
    user += o.user;
    sys += o.sys;
    return *this;
  }
};

Cpu cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime)};
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Linear-interpolated quantile (q in [0, 1]); 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Every metric of a run, in the order it was first added.
class Metrics {
 public:
  /// Adds a metric, or replaces the value of one already added.
  void add(const std::string& name, double value, const std::string& unit) {
    const auto it = index_.find(name);
    if (it == index_.end()) {
      index_[name] = values_.size();
      values_.push_back({name, value, unit});
    } else {
      values_[it->second].value = value;
    }
  }
  void add_zeros(const std::vector<MetricDef>& defs) {
    for (const MetricDef& d : defs) add(d.name, 0.0, d.unit);
  }
  void note(const std::string& name, const std::string& text) {
    notes_.emplace_back(name, text);
  }

  void print_lines(std::ostream& os, const std::string& workload) const {
    for (const auto& [name, text] : notes_) {
      os << workload << ' ' << name << ' ' << text << '\n';
    }
    for (const Value& v : values_) {
      os << workload << ' ' << v.name << ' ' << number(v.value) << ' '
         << v.unit << '\n';
    }
  }

  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  /// over exactly `defs`.
  std::string result_json(const std::vector<MetricDef>& defs, bool correct,
                          std::int64_t attempted, std::int64_t failed) const {
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < defs.size(); ++i) {
      const auto it = index_.find(defs[i].name);
      if (it == index_.end() || values_[it->second].unit != defs[i].unit) {
        throw std::logic_error("metric not measured as defined: " +
                               defs[i].name);
      }
      const Value& v = values_[it->second];
      os << (i ? ", " : "") << '"' << v.name << "\": {\"value\": "
         << number(v.value) << ", \"unit\": \"" << v.unit << "\"}";
    }
    os << "}}";
    return os.str();
  }

 private:
  struct Value {
    std::string name;
    double value;
    std::string unit;
  };

  /// Shortest decimal form that reads back as the same double.
  static std::string number(double value) {
    if (!std::isfinite(value)) throw std::logic_error("non-finite metric");
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), value);
    return std::string(buf, res.ptr);
  }

  std::vector<Value> values_;
  std::map<std::string, std::size_t> index_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

// ---------------------------------------------------------------------------
// Units of work.

Clock::time_point& trial_start() {
  thread_local Clock::time_point start;
  return start;
}

/// One campaign batch through run_cells. With `latency_ms`, each trial's
/// wall time is appended: the engine polls `cancel` on the worker thread
/// just before a trial starts and calls `progress` on the same thread just
/// after it ends, under its bookkeeping mutex, so the push is serialized.
CampaignResult run_batch(const Workload& w,
                         const std::vector<CampaignCell>& cells,
                         std::vector<double>* latency_ms) {
  CampaignOptions options;
  options.workers = w.workers;
  options.on_error = ErrorPolicy::kKeepGoing;
  if (latency_ms != nullptr) {
    options.cancel = [] {
      trial_start() = Clock::now();
      return false;
    };
    options.progress = [latency_ms](std::size_t, std::size_t) {
      latency_ms->push_back(seconds_since(trial_start()) * 1e3);
    };
  }
  return run_cells(cells, options);
}

std::int64_t batch_failures(const CampaignResult& result) {
  std::int64_t failed = 0;
  for (const CellResult& cell : result.cells) {
    failed += ledger::cell_failures(cell.cell, cell.aggregate,
                                    cell.failures.size());
  }
  return failed;
}

/// The campaign CLI's two exports of a batch; returns the JSON's SHA-256.
std::string export_batch(const CampaignResult& result) {
  const std::string json = to_json(result);
  if (to_csv(result).empty()) throw std::runtime_error("empty CSV export");
  return sha256_hex(json);
}

struct Deployment {
  RuntimeResult result;
  double wall_s = 0.0;
  Cpu cpu;
};

Deployment deploy(Scenario scenario, bool shared_socket) {
  scenario.shared_socket = shared_socket;
  Deployment d;
  const Cpu c0 = cpu_now();
  const auto t0 = Clock::now();
  d.result = run_scenario_threads(scenario);
  d.wall_s = seconds_since(t0);
  d.cpu = cpu_now() - c0;
  return d;
}

std::string verdict_cores(const RuntimeResult& result) {
  std::ostringstream os;
  for (const RuntimeVerdict& v : result.verdicts) write_verdict_core(os, v);
  return os.str();
}

/// The runtime unit: one scenario over per-node UDP sockets, then over one
/// SwarmHub socket.
struct DeploymentPair {
  Deployment udp, swarm;
  bool ok = false;
  double wall_s = 0.0;
  std::int64_t rounds() const {
    return udp.result.rounds + swarm.result.rounds;
  }
};

/// Runtime oracle: both deployments succeed, run every round, and agree on
/// every node's deterministic verdict core.
DeploymentPair run_pair(const Workload& w, std::uint64_t seed, int unit,
                        SpanLog* log) {
  const Scenario scenario = w.scenario(seed, unit);
  DeploymentPair pair;
  const auto t0 = Clock::now();
  {
    const ScopedSpan span(log, "runtime.deploy_udp", -1, unit);
    pair.udp = deploy(scenario, false);
  }
  {
    const ScopedSpan span(log, "runtime.deploy_swarm", -1, unit);
    pair.swarm = deploy(scenario, true);
  }
  {
    const ScopedSpan span(log, "runtime.check", -1, unit);
    const std::int64_t rounds = scenario.sim.max_rounds;
    pair.ok = pair.udp.result.success() && pair.swarm.result.success() &&
              pair.udp.result.rounds == rounds &&
              pair.swarm.result.rounds == rounds &&
              verdict_cores(pair.udp.result) ==
                  verdict_cores(pair.swarm.result);
  }
  pair.wall_s = seconds_since(t0);
  return pair;
}

/// The first unit of a run, which pays for cold caches. Returns whether it
/// passed the oracles.
bool run_first_unit(const Workload& w, std::uint64_t seed) {
  if (w.runtime) return run_pair(w, seed, 0, nullptr).ok;
  CampaignCell first = w.cells(seed, 0).front();
  first.reps = 1;
  return batch_failures(run_batch(w, {first}, nullptr)) == 0;
}

/// Wall time from spawning a fresh `bench_ledger --setup-probe` to its
/// report that the first unit passed.
double probe_setup(const Args& args) {
  std::vector<std::string> argv_s = {"bench_ledger", "--setup-probe",
                                     "--workload",   args.workload,
                                     "--seed",       std::to_string(args.seed)};
  if (args.smoke) argv_s.push_back("--smoke");
  std::vector<char*> argv;
  for (std::string& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const auto t0 = Clock::now();
  const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    throw std::runtime_error("cannot spawn the set-up probe");
  }
  std::string line;
  char c = 0;
  while (read(fds[0], &c, 1) == 1 && c != '\n') line += c;
  const double elapsed = seconds_since(t0);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (line != "ok" || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up probe failed its oracles");
  }
  return elapsed;
}

struct RunResult {
  Metrics metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

// ---------------------------------------------------------------------------
// End-to-end run (--trace 0).

RunResult run_end_to_end(const Workload& w, const Args& args) {
  std::vector<double> setups;
  double probed_s = 0.0;
  while (setups.size() < (args.smoke ? 1 : kMinSetupProbes) ||
         (!args.smoke && setups.size() < kMaxSetupProbes &&
          probed_s < kSetupProbeBudgetS)) {
    setups.push_back(probe_setup(args));
    probed_s += setups.back();
  }
  RunResult run;
  // setup_s covers the first unit, so it is excluded from the rest.
  if (!run_first_unit(w, args.seed)) run.failed += 1;

  // Rates and costs are taken per batch (per unit for the runtime) and
  // reported at kQuiet, so contention from outside the process moves them
  // only when it covers nearly the whole run.
  std::vector<double> latency_ms, trials_per_s, rounds_per_s, cpu_ms_per_trial,
      cpu_us_per_round;
  std::int64_t units = 0;
  std::string first_digest;
  const auto t0 = Clock::now();
  for (int b = 0; b == 0 || seconds_since(t0) < args.seconds; ++b) {
    const Cpu c = cpu_now();
    const auto t = Clock::now();
    double batch_units = 0.0, batch_rounds = 0.0;
    if (w.runtime) {
      const DeploymentPair pair = run_pair(w, args.seed, b + 1, nullptr);
      latency_ms.push_back(pair.wall_s * 1e3);
      batch_units = 1.0;
      batch_rounds = static_cast<double>(pair.rounds());
      run.failed += pair.ok ? 0 : 1;
    } else {
      const CampaignResult result =
          run_batch(w, w.cells(args.seed, b), &latency_ms);
      const std::string digest = export_batch(result);
      if (b == 0) first_digest = digest;
      batch_units = static_cast<double>(result.trial_count);
      batch_rounds = static_cast<double>(result.total().rounds_total);
      run.failed += batch_failures(result);
    }
    const double wall_s = seconds_since(t);
    const double cpu_s = (cpu_now() - c).total();
    units += static_cast<std::int64_t>(batch_units);
    trials_per_s.push_back(ratio(batch_units, wall_s));
    rounds_per_s.push_back(ratio(batch_rounds, wall_s));
    cpu_ms_per_trial.push_back(ratio(cpu_s * 1e3, batch_units));
    cpu_us_per_round.push_back(ratio(cpu_s * 1e6, batch_rounds));
  }
  run.attempted = units;

  Metrics& m = run.metrics;
  if (!first_digest.empty()) {
    m.note("campaign_sha256", first_digest + " sha256");
  }
  const double n = static_cast<double>(units);
  m.add("setup_s", quantile(setups, kQuiet), "s");
  m.add("setup_probes", static_cast<double>(setups.size()), "count");
  m.add("trials_per_s", quantile(trials_per_s, 1.0 - kQuiet), "1/s");
  m.add("trial_ms_p50", quantile(latency_ms, 0.5), "ms");
  m.add("cpu_ms_per_trial", quantile(cpu_ms_per_trial, kQuiet), "ms");
  m.add("rounds_per_s", quantile(rounds_per_s, 1.0 - kQuiet), "1/s");
  m.add("cpu_us_per_round", quantile(cpu_us_per_round, kQuiet), "us");
  m.add("peak_rss_mib", static_cast<double>(peak_rss_bytes()) / (1 << 20),
        "MiB");
  m.add("batches", static_cast<double>(trials_per_s.size()), "count");
  m.add("trial_samples", n, "count");
  // The highest percentile with at least ten samples beyond it.
  for (const int p : {99, 90}) {
    if (n * (100 - p) / 100.0 >= 10.0) {
      m.add("trial_ms_p" + std::to_string(p), quantile(latency_ms, p / 100.0),
            "ms");
      break;
    }
  }
  m.add("failed_frac", ratio(static_cast<double>(run.failed), n), "frac");
  return run;
}

// ---------------------------------------------------------------------------
// Traced run (--trace 1).

/// Runs `job` on `lane`'s thread and rethrows what it threw.
template <typename F>
void on_lane(ThreadPool& lane, F&& job) {
  std::exception_ptr error;
  lane.submit([&] {
    try {
      job();
    } catch (...) {
      error = std::current_exception();
    }
  });
  lane.wait_idle();
  if (error) std::rethrow_exception(error);
}

/// Cold builds of the workload's grid tables, timed before anything else
/// fills the process-wide caches. `cells` is empty for the runtime.
void probe_grid(const Workload& w, const std::vector<CampaignCell>& cells,
                SpanLog& log, Metrics& m) {
  const Torus torus(w.side, w.side);
  {
    const ScopedSpan span(&log, "grid.adjacency_build");
    const auto t0 = Clock::now();
    (void)Adjacency::get(torus, NeighborhoodTable::get(w.r, Metric::kLInf));
    m.add("grid.adjacency_build_ms", seconds_since(t0) * 1e3, "ms");
  }
  // The evidence protocols are the ones that use the center table.
  if (std::any_of(cells.begin(), cells.end(), [](const CampaignCell& c) {
        return c.sim.protocol != ProtocolKind::kCrashFlood &&
               c.sim.protocol != ProtocolKind::kCpa;
      })) {
    const ScopedSpan span(&log, "grid.center_table_build");
    const auto t0 = Clock::now();
    (void)CenterTable::get(w.r, Metric::kLInf, w.side, w.side);
    m.add("grid.center_table_build_ms", seconds_since(t0) * 1e3, "ms");
  }
}

/// Layer self times inside the traced window, and the window's wall time.
/// Spans outside it (grid probes, RadioNetwork replays) are not counted.
struct Window {
  std::map<std::string, double> self_us;
  double wall_us = 0.0;

  void add(const SpanLog& log, std::size_t first_span, double wall) {
    for (const auto& [layer, us] : log.self_us_by_layer(first_span)) {
      self_us[layer] += us;
    }
    wall_us += wall;
  }
  double share(const std::string& layer) const {
    const auto it = self_us.find(layer);
    return it == self_us.end() ? 0.0 : ratio(it->second, wall_us);
  }
  /// 1 - (time covered by spans) / (wall time).
  double unattributed() const {
    double covered = 0.0;
    for (const auto& [layer, us] : self_us) covered += us;
    return 1.0 - ratio(covered, wall_us);
  }
};

void write_spans(const Args& args, const SpanLog& log) {
  if (args.out.empty()) return;
  std::ofstream os(args.out + "/" + args.workload + "-s" +
                   std::to_string(args.seed) + ".spans.json");
  log.write_json(os);
  if (!os) throw std::runtime_error("cannot write spans.json");
}

RunResult run_traced_campaign(const Workload& w, const Args& args) {
  RunResult run;
  Metrics& m = run.metrics;
  m.add_zeros(kPerLayer);
  SpanLog log;
  probe_grid(w, w.cells(args.seed, 0), log, m);
  if (!run_first_unit(w, args.seed)) run.failed += 1;

  // PackingMemo is thread-local. Each side runs on a thread whose memo lives
  // as long as it would in an untraced run: the whole run for one worker,
  // one batch for a worker pool.
  ThreadPool untraced_lane(1);
  auto traced_lane = std::make_unique<ThreadPool>(1);

  std::int64_t untraced_trials = 0, batches = 0, net_deliveries = 0;
  double untraced_wall_s = 0.0, busy_ms = 0.0, trial_sum_s = 0.0;
  double report_us = 0.0;
  Cpu untraced_cpu, traced_cpu;
  std::int64_t memo_hits = 0, memo_misses = 0, next_trial = 0;
  Window window;
  ledger::ReplayTotals totals;
  Counters counters;
  ledger::NetworkReplay net_sum;  // phase times and rounds, summed

  const auto t0 = Clock::now();
  for (int b = 0; b == 0 || seconds_since(t0) < args.seconds; ++b) {
    const std::vector<CampaignCell> cells = w.cells(args.seed, b);
    batches += 1;

    CampaignResult untraced;
    std::vector<double> latency_ms;
    Cpu c = cpu_now();
    auto t = Clock::now();
    const auto untraced_batch = [&] {
      untraced = run_batch(w, cells, &latency_ms);
    };
    if (w.workers == 1) {
      on_lane(untraced_lane, untraced_batch);
    } else {
      untraced_batch();
    }
    const std::string untraced_digest = export_batch(untraced);
    untraced_wall_s += seconds_since(t);
    untraced_cpu += cpu_now() - c;
    untraced_trials += static_cast<std::int64_t>(untraced.trial_count);
    for (const double ms : latency_ms) busy_ms += ms;
    trial_sum_s += untraced.total().timers_total.total_seconds();
    run.failed += batch_failures(untraced);

    // The trial replayed through RadioNetwork: rep 0 of every 7th cell in
    // turn, so that a few batches already visit each protocol's cells.
    const std::size_t keep_cell = static_cast<std::size_t>(b) * 7 % cells.size();
    std::size_t keep = 0;
    for (std::size_t i = 0; i < keep_cell; ++i) {
      keep += static_cast<std::size_t>(cells[i].reps);
    }
    ledger::TrialRecord kept;
    std::string traced_digest;
    double wall_us = 0.0;
    const std::size_t first_span = log.size();
    if (w.workers > 1) traced_lane = std::make_unique<ThreadPool>(1);
    c = cpu_now();
    on_lane(*traced_lane, [&] {
      const PackingMemo& memo = PackingMemo::thread_instance();
      const std::int64_t hits0 = memo.hits(), misses0 = memo.misses();
      const auto start = Clock::now();
      const CampaignResult replayed = ledger::replay_campaign(
          cells, log, next_trial, totals, keep, kept);
      {
        const ScopedSpan span(&log, "campaign.report");
        const auto r0 = Clock::now();
        traced_digest = export_batch(replayed);
        report_us += seconds_since(r0) * 1e6;
      }
      wall_us = seconds_since(start) * 1e6;
      memo_hits += memo.hits() - hits0;
      memo_misses += memo.misses() - misses0;
      counters.merge(replayed.total().counters_total);
    });
    traced_cpu += cpu_now() - c;
    window.add(log, first_span, wall_us);
    if (traced_digest != untraced_digest) {
      std::cerr << "batch " << b << ": replayed campaign JSON differs\n";
      run.failed += 1;
    }

    const ledger::NetworkReplay net =
        ledger::replay_network(kept.config, kept.faults, log, kept.id);
    if (!ledger::same_outcome(net, kept.result)) {
      std::cerr << "batch " << b
                << ": RadioNetwork replay differs from run_simulation\n";
      run.failed += 1;
    }
    net_deliveries +=
        static_cast<std::int64_t>(net.counters.envelopes_delivered);
    net_sum.rounds += net.rounds;
    net_sum.construct_us += net.construct_us;
    net_sum.start_us += net.start_us;
    net_sum.rounds_us += net.rounds_us;
    net_sum.round_us.insert(net_sum.round_us.end(), net.round_us.begin(),
                            net.round_us.end());
  }
  run.failed += totals.failed;
  run.attempted = untraced_trials + totals.trials;
  write_spans(args, log);

  const double trials = static_cast<double>(totals.trials);
  const double wall_us = window.wall_us;
  const auto per_trial = [&](double x) { return ratio(x, trials); };
  const double delivered = static_cast<double>(counters.envelopes_delivered);
  const double dropped = static_cast<double>(counters.envelopes_dropped);
  const double lookups = static_cast<double>(memo_hits + memo_misses);
  m.add("fault.share", window.share("fault"), "frac");
  m.add("fault.faults_per_trial", per_trial(totals.faults), "count");
  m.add("core.setup_share", ratio(totals.setup_us, wall_us), "frac");
  m.add("core.rounds_share", ratio(totals.rounds_us, wall_us), "frac");
  m.add("core.verdict_share", ratio(totals.verdict_us, wall_us), "frac");
  m.add("core.teardown_share", ratio(totals.teardown_us, wall_us), "frac");
  m.add("net.deliveries_per_trial", per_trial(delivered), "count");
  m.add("net.deliveries_per_s",
        ratio(static_cast<double>(net_deliveries), net_sum.rounds_us * 1e-6),
        "1/s");
  m.add("net.drop_ratio", ratio(dropped, delivered + dropped), "frac");
  m.add("net.engine_mib_peak",
        static_cast<double>(counters.engine_bytes_peak) / (1 << 20), "MiB");
  m.add("protocols.broadcasts_per_trial",
        per_trial(static_cast<double>(counters.broadcasts_queued)), "count");
  m.add("protocols.heard_per_trial",
        per_trial(static_cast<double>(counters.heard_queued)), "count");
  m.add("protocols.commits_per_trial",
        per_trial(static_cast<double>(counters.commits)), "count");
  m.add("protocols.memo_hit_rate",
        ratio(static_cast<double>(memo_hits), lookups), "frac");
  m.add("protocols.memo_misses_per_trial",
        per_trial(static_cast<double>(memo_misses)), "count");
  m.add("campaign.share", window.share("campaign"), "frac");
  m.add("campaign.worker_busy_frac",
        ratio(busy_ms * 1e-3, untraced_wall_s * w.workers), "frac");
  m.add("trace.overhead_frac",
        ratio(per_trial(traced_cpu.total()),
              ratio(untraced_cpu.total(),
                    static_cast<double>(untraced_trials))) -
            1.0,
        "frac");
  m.add("trace.unattributed_frac", window.unattributed(), "frac");

  // The per-call times behind the shares.
  const double n_batches = static_cast<double>(batches);
  m.add("fault.ms_per_trial", per_trial(window.self_us["fault"] * 1e-3), "ms");
  m.add("core.setup_ms", per_trial(totals.setup_us * 1e-3), "ms");
  m.add("core.rounds_ms", per_trial(totals.rounds_us * 1e-3), "ms");
  m.add("core.verdict_ms", per_trial(totals.verdict_us * 1e-3), "ms");
  m.add("core.teardown_ms", per_trial(totals.teardown_us * 1e-3), "ms");
  m.add("net.replays", n_batches, "count");
  m.add("net.construct_ms", ratio(net_sum.construct_us * 1e-3, n_batches),
        "ms");
  m.add("net.start_ms", ratio(net_sum.start_us * 1e-3, n_batches), "ms");
  m.add("net.round_ms_p50", quantile(net_sum.round_us, 0.5) * 1e-3, "ms");
  m.add("net.round_ms_max", quantile(net_sum.round_us, 1.0) * 1e-3, "ms");
  m.add("net.rounds_per_replay",
        ratio(static_cast<double>(net_sum.rounds), n_batches), "count");
  m.add("net.ns_per_delivery",
        ratio(net_sum.rounds_us * 1e3, static_cast<double>(net_deliveries)),
        "ns");
  m.add("protocols.memo_hits", static_cast<double>(memo_hits), "count");
  m.add("protocols.memo_misses", static_cast<double>(memo_misses), "count");
  m.add("campaign.wall_ms", ratio(untraced_wall_s * 1e3, n_batches), "ms");
  m.add("campaign.trial_sum_ms", ratio(trial_sum_s * 1e3, n_batches), "ms");
  m.add("campaign.report_ms", ratio(report_us * 1e-3, n_batches), "ms");
  m.add("trace.spans", static_cast<double>(log.size()), "count");
  return run;
}

/// Per-transport sums over the traced deployments.
struct TransportTotals {
  double wall_s = 0.0;
  Cpu cpu;
  std::int64_t rounds = 0;
  Counters counters;

  void add(const Deployment& d) {
    wall_s += d.wall_s;
    cpu += d.cpu;
    rounds += d.result.rounds;
    counters.merge(d.result.counters);
  }

  void report(Metrics& m, const std::string& prefix, double nodes) const {
    const double r = static_cast<double>(rounds);
    const double sent = static_cast<double>(counters.packets_sent);
    const double wait_us = static_cast<double>(counters.barrier_wait_us);
    m.add(prefix + "packets_per_round", ratio(sent, r), "count");
    m.add(prefix + "acks_per_packet",
          ratio(static_cast<double>(counters.packets_acked), sent), "ratio");
    m.add(prefix + "retransmit_ratio",
          ratio(static_cast<double>(counters.packets_retransmitted), sent),
          "frac");
    m.add(prefix + "barrier_wait_frac", ratio(wait_us, wall_s * 1e6 * nodes),
          "frac");
    m.add(prefix + "sys_cpu_frac", ratio(cpu.sys, cpu.total()), "frac");
    m.add(prefix + "cpu_user_us_per_round", ratio(cpu.user * 1e6, r), "us");
    m.add(prefix + "cpu_sys_us_per_round", ratio(cpu.sys * 1e6, r), "us");
    m.add(prefix + "barrier_wait_us_per_round", ratio(wait_us, r), "us");
    m.add(prefix + "dup_drops",
          static_cast<double>(counters.duplicates_dropped), "count");
    m.add(prefix + "barrier_timeouts",
          static_cast<double>(counters.barrier_timeouts), "count");
  }
};

/// Encode + decode rate of a full data datagram (kMaxBatch HEARD messages),
/// computed on this one packet rather than observed in the deployments.
double wire_packets_per_s() {
  Packet packet;
  packet.sender = 1;
  for (std::size_t i = 0; i < kMaxBatch; ++i) {
    WireMessage wm;
    wm.kind = WireKind::kProtocol;
    wm.round = 12;
    wm.msg = make_heard({{1, 2}, {3, 4}, {5, 6}}, {0, 0}, 1);
    packet.entries.push_back(
        WireEntry{pack_message_id(1, static_cast<std::uint32_t>(i)), wm});
  }
  constexpr int kPackets = 20000;
  Packet decoded;
  int ok = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < kPackets; ++i) {
    ok += decode_packet(encode_packet(packet), decoded) ? 1 : 0;
  }
  const double s = seconds_since(t0);
  if (ok != kPackets || decoded.entries.size() != kMaxBatch) {
    throw std::runtime_error("wire codec round trip failed");
  }
  return kPackets / s;
}

RunResult run_traced_runtime(const Workload& w, const Args& args) {
  RunResult run;
  Metrics& m = run.metrics;
  m.add_zeros(kPerLayer);
  SpanLog log;
  probe_grid(w, {}, log, m);
  if (!run_first_unit(w, args.seed)) run.failed += 1;

  TransportTotals udp, swarm;
  Cpu untraced_cpu, traced_cpu;
  Window window;
  int pairs = 0;
  const auto t0 = Clock::now();
  for (int b = 0; b == 0 || seconds_since(t0) < args.seconds; ++b) {
    Cpu c = cpu_now();
    const DeploymentPair untraced =
        run_pair(w, args.seed, 2 * b + 1, nullptr);
    untraced_cpu += cpu_now() - c;
    run.failed += untraced.ok ? 0 : 1;

    const std::size_t first_span = log.size();
    c = cpu_now();
    const auto t = Clock::now();
    const DeploymentPair traced = run_pair(w, args.seed, 2 * b + 2, &log);
    window.add(log, first_span, seconds_since(t) * 1e6);
    traced_cpu += cpu_now() - c;
    run.failed += traced.ok ? 0 : 1;
    udp.add(traced.udp);
    swarm.add(traced.swarm);
    pairs += 1;
  }
  run.attempted = 2 * pairs;
  write_spans(args, log);

  const double nodes = static_cast<double>(w.side) * w.side;
  m.add("runtime.share", window.share("runtime"), "frac");
  udp.report(m, "runtime.udp.", nodes);
  swarm.report(m, "runtime.swarm.", nodes);
  m.add("runtime.udp.cpu_share",
        ratio(udp.cpu.total(), udp.cpu.total() + swarm.cpu.total()), "frac");
  const double wire = wire_packets_per_s();
  m.add("runtime.wire_packets_per_s", wire, "1/s");
  m.add("runtime.wire_ns_per_packet", 1e9 / wire, "ns");
  m.add("trace.overhead_frac",
        ratio(traced_cpu.total(), untraced_cpu.total()) - 1.0, "frac");
  m.add("trace.unattributed_frac", window.unattributed(), "frac");
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    const Workload w = ledger::find_workload(args.workload, args.smoke);
    alarm(kWatchdogSeconds);
    if (args.setup_probe) {
      // Die with the parent rather than outlive it.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      const bool ok = run_first_unit(w, args.seed);
      std::cout << (ok ? "ok" : "failed") << std::endl;
      return ok ? 0 : 1;
    }
    RunResult run = !args.trace  ? run_end_to_end(w, args)
                    : w.runtime  ? run_traced_runtime(w, args)
                                 : run_traced_campaign(w, args);
    const bool correct = run.failed == 0;
    const std::string json =
        run.metrics.result_json(args.trace ? kPerLayer : kEndToEnd, correct,
                                run.attempted, run.failed);
    run.metrics.print_lines(std::cout, w.name);
    std::cout << json << std::endl;
    if (!args.out.empty()) {
      std::ofstream os(args.out + "/" + w.name + "-s" +
                       std::to_string(args.seed) + "-t" +
                       (args.trace ? "1" : "0") + ".json");
      os << "{\"workload\": \"" << w.name << "\", \"seed\": " << args.seed
         << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"result\": " << json
         << "}\n";
      if (!os) throw std::runtime_error("cannot write the run file");
    }
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "bench_ledger: " << e.what() << '\n';
    return 1;
  }
}
