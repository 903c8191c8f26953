// radiobcast-campaign: the command-line front end of the parallel campaign
// engine. Declares a cartesian parameter sweep with flags, fans the trials
// out over a worker pool, prints a per-cell table, and optionally exports the
// results as JSON and/or CSV (docs/CAMPAIGNS.md documents the schema).
//
//   $ radiobcast-campaign --protocols=bv-2hop --adversaries=silent,lying
//       --placements=checkerboard-strip --r=2 --t=3:6 --reps=5
//       --workers=8 --json=sweep.json --csv=sweep.csv
//
// (one command line, wrapped here).
//
// List-valued flags take comma-separated canonical names (the to_string
// spellings); --t and --r also accept lo:hi ranges. Results are bit-identical
// for every --workers value, including 1.

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "radiobcast/campaign/engine.h"
#include "radiobcast/campaign/report.h"
#include "radiobcast/campaign/spec.h"
#include "radiobcast/campaign/thread_pool.h"
#include "radiobcast/core/analysis.h"
#include "radiobcast/util/cli.h"
#include "radiobcast/util/shutdown.h"
#include "radiobcast/util/table.h"

namespace {

using namespace rbcast;

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string item;
  while (std::getline(is, item, sep)) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Parses "3", "1,2,5" or "0:6" (inclusive range) into integers.
bool parse_int_list(const std::string& s, std::vector<std::int64_t>& out) {
  if (s.empty()) return true;
  const auto colon = s.find(':');
  if (colon != std::string::npos) {
    const std::int64_t lo = std::strtoll(s.substr(0, colon).c_str(), nullptr, 10);
    const std::int64_t hi = std::strtoll(s.substr(colon + 1).c_str(), nullptr, 10);
    if (hi < lo) return false;
    for (std::int64_t v = lo; v <= hi; ++v) out.push_back(v);
    return true;
  }
  for (const std::string& item : split(s, ',')) out.push_back(std::strtoll(item.c_str(), nullptr, 10));
  return !out.empty();
}

int usage(const char* msg) {
  std::cerr
      << msg << "\n\n"
      << "usage: radiobcast-campaign [flags]\n"
      << "  --protocols=LIST    crash-flood|cpa|bv-2hop|bv-4hop-flood|"
         "bv-4hop-earmarked\n"
      << "  --adversaries=LIST  silent|lying|crash-at-round|spoofing|jamming\n"
      << "  --placements=LIST   none|full-strip|punctured-strip|"
         "checkerboard-strip|random-bounded|iid\n"
      << "  --r=LIST|LO:HI      transmission radii (default 2)\n"
      << "  --t=LIST|LO:HI      local fault budgets (default: threshold sweep\n"
      << "                      t*-2 .. t*+1 around the Byzantine threshold)\n"
      << "  --size=LIST         square torus sides (default 8r+4 per cell)\n"
      << "  --loss=LIST         channel loss probabilities\n"
      << "  --metric=linf|l2    distance metric (default linf)\n"
      << "  --iid-p=P --trim=B  placement knobs\n"
      << "  --reps=N --seed=S   repetitions per cell / campaign base seed\n"
      << "  --workers=N         worker threads (default: hardware)\n"
      << "  --counters          add observability-counter columns to the "
         "table\n"
      << "  --trace-dir=DIR     write one JSONL round trace per trial "
         "(docs/OBSERVABILITY.md)\n"
      << "  --stream-traces     stream trace events to disk as they happen: "
         "O(1) trace\n"
         "                      memory per trial, nothing evicted (needs "
         "--trace-dir)\n"
      << "  --journal=FILE      fsync'd JSONL write-ahead journal, one record "
         "per trial\n"
      << "  --resume            replay --journal, skip completed trials "
         "(byte-identical exports)\n"
      << "  --keep-going        record trial failures and continue (default: "
         "abort with the\n"
         "                      deterministically lowest failing trial's "
         "error)\n"
      << "  --max-retries=N     retries for transient failures (default 2), "
         "seeded\n"
         "                      hash_seeds(cell, rep, attempt)\n"
      << "  --trial-deadline-ms=N  per-trial wall-clock watchdog; a runaway "
         "trial becomes\n"
         "                      a recorded timeout failure\n"
      << "  --json=FILE --csv=FILE --quiet\n";
  return EXIT_FAILURE;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv,
                     {"protocols", "adversaries", "placements", "r", "t",
                      "size", "loss", "metric", "iid-p", "trim", "reps",
                      "seed", "workers", "json", "csv", "quiet", "help",
                      "counters", "trace-dir", "stream-traces", "journal",
                      "resume", "keep-going", "max-retries",
                      "trial-deadline-ms"});
  if (!args.ok()) return usage(args.error().c_str());
  if (args.get_bool("help", false)) return usage("radiobcast-campaign");

  CampaignSpec spec;
  for (const std::string& name : split(args.get("protocols", "bv-2hop"), ',')) {
    const auto k = protocol_from_string(name);
    if (!k) return usage(("bad protocol: " + name).c_str());
    spec.protocols.push_back(*k);
  }
  for (const std::string& name : split(args.get("adversaries", "silent"), ',')) {
    const auto k = adversary_from_string(name);
    if (!k) return usage(("bad adversary: " + name).c_str());
    spec.adversaries.push_back(*k);
  }
  for (const std::string& name :
       split(args.get("placements", "random-bounded"), ',')) {
    const auto k = placement_from_string(name);
    if (!k) return usage(("bad placement: " + name).c_str());
    spec.placements.push_back(*k);
  }
  const auto metric = metric_from_string(args.get("metric", "linf"));
  if (!metric) return usage("bad --metric (want linf or l2)");
  spec.base.metric = *metric;

  std::vector<std::int64_t> radii, budgets, sides;
  if (!parse_int_list(args.get("r", "2"), radii)) return usage("bad --r");
  if (!parse_int_list(args.get("t", ""), budgets)) return usage("bad --t");
  if (!parse_int_list(args.get("size", ""), sides)) return usage("bad --size");
  for (const std::int64_t r : radii) {
    spec.radii.push_back(static_cast<std::int32_t>(r));
  }
  if (!budgets.empty()) {
    spec.budgets = budgets;
  } else {
    // Default: a threshold sweep straddling the Byzantine L∞ threshold of
    // the largest requested radius.
    const std::int32_t r_max = *std::max_element(spec.radii.begin(),
                                                 spec.radii.end());
    const std::int64_t t_star = byz_linf_achievable_max(r_max);
    for (std::int64_t t = std::max<std::int64_t>(0, t_star - 2);
         t <= t_star + 2; ++t) {
      spec.budgets.push_back(t);
    }
  }
  for (const std::int64_t side : sides) {
    spec.sides.push_back(static_cast<std::int32_t>(side));
  }
  for (const std::string& p : split(args.get("loss", ""), ',')) {
    spec.loss_ps.push_back(std::strtod(p.c_str(), nullptr));
  }

  spec.placement.iid_p = args.get_double("iid-p", 0.1);
  spec.placement.trim = args.get_bool("trim", true);
  spec.reps = static_cast<int>(args.get_int("reps", 3));
  spec.base_seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  // Cells whose torus was not pinned with --size get the per-radius default
  // side 8r+4 (the geometry floor run_simulation enforces). With several
  // radii and no explicit size, expansion handles it via sides={0} markers —
  // resolve those here so every cell is explicit.
  const std::int64_t trial_deadline_ms = args.get_int("trial-deadline-ms", 0);
  std::vector<CampaignCell> cells = spec.expand();
  for (CampaignCell& cell : cells) {
    if (spec.sides.empty()) {
      cell.sim.width = cell.sim.height = 8 * cell.sim.r + 4;
    }
    if (trial_deadline_ms > 0) cell.sim.deadline_ms = trial_deadline_ms;
  }

  CampaignOptions options;
  options.workers = static_cast<int>(args.get_int("workers", 0));
  options.trace_dir = args.get("trace-dir", "");
  options.stream_traces = args.get_bool("stream-traces", false);
  if (options.stream_traces && options.trace_dir.empty()) {
    return usage("--stream-traces requires --trace-dir");
  }
  options.journal_path = args.get("journal", "");
  options.resume = args.get_bool("resume", false);
  if (options.resume && options.journal_path.empty()) {
    return usage("--resume requires --journal");
  }
  options.on_error = args.get_bool("keep-going", false)
                         ? ErrorPolicy::kKeepGoing
                         : ErrorPolicy::kAbort;
  options.max_retries = static_cast<int>(args.get_int("max-retries", 2));
  if (options.max_retries < 0) return usage("bad --max-retries");
  const bool show_counters = args.get_bool("counters", false);
  const bool quiet = args.get_bool("quiet", false);
  std::size_t last_percent = 0;
  if (!quiet) {
    options.progress = [&last_percent](std::size_t done, std::size_t total) {
      const std::size_t percent = total == 0 ? 100 : done * 100 / total;
      if (percent / 10 > last_percent / 10) {
        std::cerr << "  " << percent << "% (" << done << "/" << total
                  << " trials)\n";
      }
      last_percent = percent;
    };
  }

  if (!quiet) {
    std::cerr << "radiobcast-campaign: " << cells.size() << " cells x "
              << spec.reps << " reps = " << cells.size() * static_cast<std::size_t>(spec.reps)
              << " trials, "
              << (options.workers > 0 ? options.workers
                                      : ThreadPool::hardware_workers())
              << " workers\n";
  }

  // Graceful shutdown: on SIGINT/SIGTERM the engine stops scheduling new
  // trials, in-flight trials finish (keeping the journal sealed), and the
  // partial results are still tabulated and exported below before exiting
  // with the conventional 128+signal code.
  ShutdownGuard shutdown;
  options.cancel = [&shutdown] { return shutdown.requested(); };

  CampaignResult result;
  try {
    result = run_cells(cells, options);
  } catch (const std::exception& e) {
    std::cerr << "campaign failed: " << e.what() << "\n";
    return EXIT_FAILURE;
  }

  std::vector<std::string> headers = {"cell", "protocol", "adversary",
                                      "placement", "r", "t", "success",
                                      "mean coverage", "wrong", "mean faults"};
  if (show_counters) {
    // Per-trial means of the summed observability counters (exact sums live
    // in the JSON/CSV exports; the table shows per-trial rates).
    for (const char* h : {"committed/trial", "heard/trial", "delivered/trial",
                          "dropped/trial", "commits/trial", "last commit"}) {
      headers.push_back(h);
    }
  }
  Table table(headers);
  for (const CellResult& cell : result.cells) {
    const Aggregate& agg = cell.aggregate;
    Table& row = table.row();
    row.cell(cell.cell.label.empty() ? "-" : cell.cell.label)
        .cell(to_string(cell.cell.sim.protocol))
        .cell(to_string(cell.cell.sim.adversary))
        .cell(to_string(cell.cell.placement.kind))
        .cell(cell.cell.sim.r)
        .cell(cell.cell.sim.t)
        .cell(std::to_string(agg.successes) + "/" + std::to_string(agg.runs))
        .cell(agg.mean_coverage(), 4)
        .cell(agg.wrong_total)
        .cell(agg.mean_fault_count(), 1);
    if (show_counters) {
      const Counters& c = agg.counters_total;
      const double n = agg.runs > 0 ? static_cast<double>(agg.runs) : 1.0;
      row.cell(static_cast<double>(c.committed_queued) / n, 1)
          .cell(static_cast<double>(c.heard_queued) / n, 1)
          .cell(static_cast<double>(c.envelopes_delivered) / n, 1)
          .cell(static_cast<double>(c.envelopes_dropped) / n, 1)
          .cell(static_cast<double>(c.commits) / n, 1)
          .cell(c.last_commit_round);
    }
  }
  table.print(std::cout);
  write_summary(std::cout, result);

  // Under --keep-going, failed trials are recorded (not fatal): list them on
  // stderr so they are visible even when only the exports are kept. Exit
  // status stays zero — only the abort policy makes failures fatal.
  for (const CellResult& cell : result.cells) {
    for (const TrialFailure& failure : cell.failures) {
      std::cerr << "trial failure: cell " << failure.cell
                << (cell.cell.label.empty() ? "" : " (" + cell.cell.label + ")")
                << " rep " << failure.rep << " [" << to_string(failure.kind)
                << ", " << failure.attempts << " attempt"
                << (failure.attempts == 1 ? "" : "s") << "]: " << failure.what
                << "\n";
    }
  }

  if (args.has("json")) {
    std::ofstream os(args.get("json", ""));
    if (!os) {
      std::cerr << "cannot open --json path\n";
      return EXIT_FAILURE;
    }
    write_json(os, result);
  }
  if (args.has("csv")) {
    std::ofstream os(args.get("csv", ""));
    if (!os) {
      std::cerr << "cannot open --csv path\n";
      return EXIT_FAILURE;
    }
    write_csv(os, result);
  }
  if (result.interrupted()) {
    std::cerr << "campaign interrupted: " << result.skipped_trials
              << " trial(s) skipped"
              << (options.journal_path.empty()
                      ? ""
                      : "; resume with --resume --journal=" +
                            options.journal_path)
              << "\n";
    return shutdown.exit_code();
  }
  return EXIT_SUCCESS;
}
