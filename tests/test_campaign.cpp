// Campaign-engine tests: spec expansion, the thread pool, worker-count
// determinism (including the byte-identical-JSON contract the report layer
// promises), error propagation, and the JSON/CSV sinks.
//
// The determinism cases here are the ones scripts/check_tsan.sh runs under
// -fsanitize=thread to race-check the pool.

#include "radiobcast/campaign/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "radiobcast/campaign/report.h"
#include "radiobcast/campaign/spec.h"
#include "radiobcast/campaign/thread_pool.h"

namespace rbcast {
namespace {

// A ≥200-trial random-fault threshold sweep, small enough to run in seconds:
// 5 budgets x 40 reps on a 12x12 torus at r=1.
CampaignSpec random_fault_sweep() {
  CampaignSpec spec;
  spec.base.width = spec.base.height = 12;
  spec.base.r = 1;
  spec.base.protocol = ProtocolKind::kCrashFlood;
  spec.base.adversary = AdversaryKind::kSilent;
  spec.placement.random_target = -1;
  spec.placements = {PlacementKind::kRandomBounded};
  spec.budgets = {0, 1, 2, 3, 4};
  spec.reps = 40;
  spec.base_seed = 2026;
  return spec;
}

TEST(ThreadPool, RunsEverySubmittedJob) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.workers(), 4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
  // The pool is reusable after wait_idle.
  for (int i = 0; i < 10; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 110);
}

TEST(ThreadPool, HardwareWorkersIsPositive) {
  EXPECT_GE(ThreadPool::hardware_workers(), 1);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
}

TEST(CampaignSpec, ExpandIsCartesianWithBaseDefaults) {
  CampaignSpec spec;
  spec.protocols = {ProtocolKind::kCrashFlood, ProtocolKind::kCpa};
  spec.budgets = {1, 2, 3};
  spec.reps = 4;
  spec.base.width = spec.base.height = 16;
  EXPECT_EQ(spec.cell_count(), 6u);
  EXPECT_EQ(spec.trial_count(), 24u);
  const std::vector<CampaignCell> cells = spec.expand();
  ASSERT_EQ(cells.size(), 6u);
  // Protocol is the slower axis; budgets cycle fastest.
  EXPECT_EQ(cells[0].sim.protocol, ProtocolKind::kCrashFlood);
  EXPECT_EQ(cells[0].sim.t, 1);
  EXPECT_EQ(cells[2].sim.t, 3);
  EXPECT_EQ(cells[3].sim.protocol, ProtocolKind::kCpa);
  EXPECT_EQ(cells[3].sim.t, 1);
  // Unswept values come from the base config.
  EXPECT_EQ(cells[5].sim.width, 16);
  EXPECT_EQ(cells[5].reps, 4);
  // Labels name only the swept axes.
  EXPECT_EQ(cells[0].label, "protocol=crash-flood t=1");
  // Cell seeds are distinct and deterministic.
  std::set<std::uint64_t> seeds;
  for (const CampaignCell& cell : cells) seeds.insert(cell.sim.seed);
  EXPECT_EQ(seeds.size(), cells.size());
  EXPECT_EQ(cells[0].sim.seed, hash_seeds(spec.base_seed, 0));
  EXPECT_EQ(cells[5].sim.seed, hash_seeds(spec.base_seed, 5));
}

TEST(CampaignSpec, EmptyAxesYieldOneBaseCell) {
  CampaignSpec spec;
  spec.reps = 2;
  EXPECT_EQ(spec.cell_count(), 1u);
  const std::vector<CampaignCell> cells = spec.expand();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].label, "");
  EXPECT_EQ(cells[0].sim.protocol, spec.base.protocol);
}

TEST(CampaignEngine, RunRepeatedUnchangedByRewire) {
  // The engine-backed run_repeated must reproduce the historical seed
  // stream hash_seeds(base.seed, rep): spot-check against a hand-rolled
  // serial loop over the same seeds.
  SimConfig cfg;
  cfg.width = cfg.height = 12;
  cfg.r = 1;
  cfg.protocol = ProtocolKind::kCrashFlood;
  cfg.t = 2;
  cfg.seed = 7;
  PlacementConfig placement;
  placement.kind = PlacementKind::kRandomBounded;
  placement.random_target = 5;
  const Aggregate agg = run_repeated(cfg, placement, 4);

  Aggregate manual;
  const Torus torus(cfg.width, cfg.height);
  for (int i = 0; i < 4; ++i) {
    SimConfig trial = cfg;
    trial.seed = hash_seeds(cfg.seed, static_cast<std::uint64_t>(i));
    Rng rng(trial.seed);
    const FaultSet faults = make_faults(placement, torus, trial.r,
                                        trial.metric, trial.t, trial.source,
                                        rng);
    const SimResult result = run_simulation(trial, faults);
    manual.add(summarize_trial(
        result, static_cast<std::int64_t>(faults.size()),
        max_closed_nbd_faults(torus, faults, trial.r, trial.metric)));
  }
  EXPECT_EQ(agg.runs, manual.runs);
  EXPECT_EQ(agg.successes, manual.successes);
  EXPECT_EQ(agg.correct_total, manual.correct_total);
  EXPECT_EQ(agg.transmissions_total, manual.transmissions_total);
  EXPECT_EQ(agg.fault_total, manual.fault_total);
  EXPECT_EQ(agg.min_coverage, manual.min_coverage);
}

TEST(CampaignEngine, DeterministicAcrossWorkerCounts) {
  // Acceptance bar for the subsystem: a ≥200-trial random-fault sweep yields
  // identical per-cell aggregates and seeds at 1 worker and at 8.
  const CampaignSpec spec = random_fault_sweep();
  ASSERT_GE(spec.trial_count(), 200u);

  CampaignOptions serial;
  serial.workers = 1;
  CampaignOptions parallel;
  parallel.workers = 8;
  const CampaignResult a = run_campaign(spec, serial);
  const CampaignResult b = run_campaign(spec, parallel);

  ASSERT_EQ(a.cells.size(), b.cells.size());
  EXPECT_EQ(a.trial_count, b.trial_count);
  for (std::size_t c = 0; c < a.cells.size(); ++c) {
    EXPECT_EQ(a.cells[c].seeds, b.cells[c].seeds) << "cell " << c;
    const Aggregate& x = a.cells[c].aggregate;
    const Aggregate& y = b.cells[c].aggregate;
    EXPECT_EQ(x.runs, y.runs) << "cell " << c;
    EXPECT_EQ(x.successes, y.successes) << "cell " << c;
    EXPECT_EQ(x.correct_total, y.correct_total) << "cell " << c;
    EXPECT_EQ(x.honest_total, y.honest_total) << "cell " << c;
    EXPECT_EQ(x.wrong_total, y.wrong_total) << "cell " << c;
    EXPECT_EQ(x.rounds_total, y.rounds_total) << "cell " << c;
    EXPECT_EQ(x.transmissions_total, y.transmissions_total) << "cell " << c;
    EXPECT_EQ(x.fault_total, y.fault_total) << "cell " << c;
    EXPECT_EQ(x.min_coverage, y.min_coverage) << "cell " << c;
    EXPECT_EQ(x.max_nbd_faults, y.max_nbd_faults) << "cell " << c;
    // Observability counters are part of the deterministic payload: the
    // summed Counters must be bit-identical at 1 and 8 workers.
    EXPECT_EQ(x.counters_total, y.counters_total) << "cell " << c;
  }
  // The exported artifacts are byte-identical: the payload excludes
  // wall-clock and worker-count stats by design (counters included,
  // phase timers excluded).
  EXPECT_EQ(to_json(a), to_json(b));
  EXPECT_EQ(to_csv(a), to_csv(b));
}

TEST(CampaignEngine, CountersMergeAssociatively) {
  // Splitting a repeated run into ranges and merging the partial aggregates
  // must reproduce the unsplit counters exactly — same contract as the other
  // integer-sum fields, now for every Counters field.
  SimConfig cfg;
  cfg.width = cfg.height = 12;
  cfg.r = 1;
  cfg.protocol = ProtocolKind::kBvTwoHop;
  cfg.adversary = AdversaryKind::kLying;
  cfg.t = 1;
  cfg.seed = 99;
  PlacementConfig placement;
  placement.kind = PlacementKind::kRandomBounded;
  placement.random_target = 4;

  const Aggregate whole = run_repeated(cfg, placement, 10);
  EXPECT_GT(whole.counters_total.broadcasts_queued, 0u);
  EXPECT_GT(whole.counters_total.commits, 0u);

  Aggregate merged = run_repeated_range(cfg, placement, 0, 3);
  merged.merge(run_repeated_range(cfg, placement, 3, 7));
  EXPECT_EQ(whole.counters_total, merged.counters_total);

  // Merging in a different grouping gives the same counters (associativity).
  Aggregate regrouped = run_repeated_range(cfg, placement, 0, 7);
  regrouped.merge(run_repeated_range(cfg, placement, 7, 3));
  EXPECT_EQ(whole.counters_total, regrouped.counters_total);
}

TEST(CampaignEngine, TraceDirByteIdenticalAcrossWorkerCounts) {
  // --trace-dir contract: per-trial JSONL traces are a pure function of the
  // spec, so the full directory contents match byte for byte at any worker
  // count.
  CampaignSpec spec = random_fault_sweep();
  spec.budgets = {1, 2};
  spec.reps = 4;

  const auto root = std::filesystem::temp_directory_path();
  const std::string dir1 = (root / "rbcast_trace_w1").string();
  const std::string dir8 = (root / "rbcast_trace_w8").string();
  std::filesystem::remove_all(dir1);
  std::filesystem::remove_all(dir8);

  CampaignOptions serial;
  serial.workers = 1;
  serial.trace_dir = dir1;
  CampaignOptions parallel;
  parallel.workers = 8;
  parallel.trace_dir = dir8;
  run_campaign(spec, serial);
  run_campaign(spec, parallel);

  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir1)) {
    const auto name = entry.path().filename();
    std::ifstream a(entry.path());
    std::ifstream b(std::filesystem::path(dir8) / name);
    ASSERT_TRUE(b.good()) << "missing " << name;
    std::stringstream sa, sb;
    sa << a.rdbuf();
    sb << b.rdbuf();
    const std::string text = sa.str();
    EXPECT_EQ(text, sb.str()) << name;
    // Traces are non-trivial and JSONL-shaped.
    EXPECT_NE(text.find("{\"event\":\"round_started\",\"round\":1}"),
              std::string::npos);
    EXPECT_NE(text.find("\"event\":\"node_committed\""), std::string::npos);
    ++files;
  }
  EXPECT_EQ(files, spec.trial_count());
  std::filesystem::remove_all(dir1);
  std::filesystem::remove_all(dir8);
}

TEST(CampaignEngine, ProgressReportsEveryTrialOnce) {
  CampaignSpec spec = random_fault_sweep();
  spec.budgets = {2};
  spec.reps = 12;
  CampaignOptions options;
  options.workers = 4;
  std::size_t calls = 0;
  std::size_t last_done = 0;
  options.progress = [&](std::size_t done, std::size_t total) {
    // Serialized by the engine's mutex: done increments by exactly 1.
    EXPECT_EQ(done, last_done + 1);
    EXPECT_EQ(total, 12u);
    last_done = done;
    ++calls;
  };
  const CampaignResult result = run_campaign(spec, options);
  EXPECT_EQ(calls, 12u);
  EXPECT_EQ(last_done, 12u);
  EXPECT_EQ(result.trial_count, 12u);
  EXPECT_EQ(result.workers_used, 4);
  EXPECT_GE(result.wall_seconds, 0.0);
}

TEST(CampaignEngine, TrialExceptionsPropagateToCaller) {
  CampaignCell bad;
  bad.sim.width = bad.sim.height = 6;  // below the 4r+2 floor for r=2
  bad.sim.r = 2;
  bad.reps = 3;
  for (const int workers : {1, 4}) {
    CampaignOptions options;
    options.workers = workers;
    EXPECT_THROW(run_cells({bad}, options), std::invalid_argument)
        << workers << " workers";
  }
}

// Regression: with several failing cells in flight, abort must surface the
// error of the deterministically lowest (cell, rep) trial — not whichever
// worker happened to fail first.
TEST(CampaignEngine, AbortSurfacesLowestFailingTrialError) {
  CampaignCell metric_clash;  // earmarked relays reject the L2 metric
  metric_clash.sim.width = metric_clash.sim.height = 20;
  metric_clash.sim.r = 2;
  metric_clash.sim.protocol = ProtocolKind::kBvIndirectEarmarked;
  metric_clash.sim.metric = Metric::kL2;
  metric_clash.reps = 2;
  CampaignCell tiny_torus;  // below the 4r+2 geometry floor
  tiny_torus.sim.width = tiny_torus.sim.height = 6;
  tiny_torus.sim.r = 2;
  tiny_torus.reps = 2;
  for (const int workers : {1, 4}) {
    for (const bool flipped : {false, true}) {
      const std::vector<CampaignCell> cells =
          flipped ? std::vector<CampaignCell>{tiny_torus, metric_clash}
                  : std::vector<CampaignCell>{metric_clash, tiny_torus};
      const std::string expected = flipped ? "torus sides must be at least 4r+2"
                                           : "earmarked relays require the "
                                             "L-infinity metric";
      CampaignOptions options;
      options.workers = workers;
      try {
        run_cells(cells, options);
        FAIL() << "expected run_cells to throw";
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()), expected)
            << workers << " workers, flipped=" << flipped;
      }
    }
  }
}

TEST(CampaignEngine, TotalMergesAllCells) {
  CampaignSpec spec = random_fault_sweep();
  spec.reps = 3;
  const CampaignResult result = run_campaign(spec, {});
  const Aggregate total = result.total();
  EXPECT_EQ(total.runs, static_cast<int>(result.trial_count));
  std::int64_t rounds = 0;
  for (const CellResult& cell : result.cells) {
    rounds += cell.aggregate.rounds_total;
  }
  EXPECT_EQ(total.rounds_total, rounds);
}

TEST(CampaignReport, JsonShapeAndEscaping) {
  CampaignSpec spec;
  spec.base.width = spec.base.height = 12;
  spec.base.r = 1;
  spec.base.protocol = ProtocolKind::kCrashFlood;
  spec.placements = {PlacementKind::kNone};
  spec.reps = 2;
  const CampaignResult result = run_campaign(spec, {});
  const std::string json = to_json(result);
  EXPECT_NE(json.find("\"schema\":\"radiobcast-campaign-v5\""),
            std::string::npos);
  EXPECT_NE(json.find("\"failures\":[]"), std::string::npos);
  EXPECT_NE(json.find("\"trials\":2"), std::string::npos);
  EXPECT_NE(json.find("\"protocol\":\"crash-flood\""), std::string::npos);
  EXPECT_NE(json.find("\"placement\":\"none\""), std::string::npos);
  EXPECT_NE(json.find("\"runs\":2"), std::string::npos);
  // Fault-free flooding covers everything.
  EXPECT_NE(json.find("\"mean_coverage\":1"), std::string::npos);
  // Timing stats must not leak into the deterministic payload.
  EXPECT_EQ(json.find("wall"), std::string::npos);
  EXPECT_EQ(json.find("workers"), std::string::npos);

  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(json_number(3.0), "3");
  EXPECT_EQ(json_number(-41.0), "-41");
  EXPECT_EQ(json_number(0.5), "0.5");
}

/// The value of the first `"schema": "..."` field in `text` (JSON with or
/// without a space after the colon), or "" when there is none.
std::string schema_field(const std::string& text) {
  const std::string key = "\"schema\":";
  const std::size_t at = text.find(key);
  if (at == std::string::npos) return "";
  const std::size_t open = text.find('"', at + key.size());
  const std::size_t close = text.find('"', open + 1);
  if (open == std::string::npos || close == std::string::npos) return "";
  return text.substr(open + 1, close - open - 1);
}

TEST(CampaignReport, DocumentedSchemaMatchesEmitted) {
  // docs/CAMPAIGNS.md documents the JSON with a worked example; its schema
  // string (and every other schema name the docs and report.h mention) must
  // be the one to_json actually emits.
  CampaignSpec spec;
  spec.base.width = spec.base.height = 12;
  spec.base.r = 1;
  spec.base.protocol = ProtocolKind::kCrashFlood;
  spec.placements = {PlacementKind::kNone};
  spec.reps = 1;
  const std::string emitted = schema_field(to_json(run_campaign(spec, {})));
  ASSERT_EQ(emitted.rfind("radiobcast-campaign-v", 0), 0u) << emitted;

  const auto read = [](const std::string& relative) {
    std::ifstream in(std::string(RADIOBCAST_SOURCE_DIR) + "/" + relative);
    EXPECT_TRUE(in.good()) << relative;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const std::string campaigns = read("docs/CAMPAIGNS.md");
  EXPECT_EQ(schema_field(campaigns), emitted);
  for (const std::string relative :
       {"docs/CAMPAIGNS.md", "docs/RUNTIME.md", "docs/OBSERVABILITY.md",
        "src/radiobcast/campaign/report.h"}) {
    const std::string text = read(relative);
    for (std::size_t at = text.find("radiobcast-campaign-v");
         at != std::string::npos;
         at = text.find("radiobcast-campaign-v", at + 1)) {
      std::size_t end = at + std::string("radiobcast-campaign-v").size();
      while (end < text.size() && std::isdigit(
                                      static_cast<unsigned char>(text[end]))) {
        ++end;
      }
      EXPECT_EQ(text.substr(at, end - at), emitted) << relative;
    }
  }
}

TEST(CampaignReport, CsvHasHeaderPlusOneRowPerCell) {
  CampaignSpec spec = random_fault_sweep();
  spec.budgets = {0, 1};
  spec.reps = 2;
  const CampaignResult result = run_campaign(spec, {});
  const std::string csv = to_csv(result);
  std::size_t lines = 0;
  for (const char c : csv) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 1u + result.cells.size());
  EXPECT_EQ(csv.compare(0, 5, "label"), 0);
  EXPECT_NE(csv.find("crash-flood"), std::string::npos);
  EXPECT_NE(csv.find("random-bounded"), std::string::npos);
}

}  // namespace
}  // namespace rbcast
