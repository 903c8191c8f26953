// Fault-tolerance tests for the campaign engine: failure classification and
// the deterministic retry seed schedule, keep-going vs abort policies, the
// per-trial deadline watchdog, and the write-ahead journal — including the
// headline contract that a killed-and-resumed campaign emits JSON/CSV
// byte-identical to an uninterrupted run at any worker count.

#include "radiobcast/campaign/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "radiobcast/campaign/journal.h"
#include "radiobcast/campaign/report.h"
#include "radiobcast/core/simulation.h"
#include "radiobcast/util/rng.h"

namespace rbcast {
namespace {

CampaignCell healthy_cell(std::uint64_t seed = 2026, int reps = 3) {
  CampaignCell cell;
  cell.label = "healthy";
  cell.sim.width = cell.sim.height = 12;
  cell.sim.r = 1;
  cell.sim.protocol = ProtocolKind::kCrashFlood;
  cell.sim.adversary = AdversaryKind::kSilent;
  cell.sim.t = 2;
  cell.sim.seed = seed;
  cell.placement.kind = PlacementKind::kRandomBounded;
  cell.reps = reps;
  return cell;
}

CampaignCell tiny_torus_cell(int reps = 1) {
  CampaignCell cell;  // 6 < 4r+2 for r=2: run_simulation rejects it
  cell.label = "tiny";
  cell.sim.width = cell.sim.height = 6;
  cell.sim.r = 2;
  cell.sim.seed = 7;
  cell.reps = reps;
  return cell;
}

std::filesystem::path temp_path(const std::string& name) {
  const auto path = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove(path);
  return path;
}

void write_file(const std::filesystem::path& path, const std::string& body) {
  std::ofstream os(path, std::ios::binary);
  os << body;
}

std::vector<std::string> file_lines(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

// ---------------------------------------------------------------------------
// Retry seed schedule + failure classification

TEST(FaultTolerance, TrialSeedScheduleIsPureAndBackwardCompatible) {
  const std::uint64_t cell_seed = 0xfeedfacedeadbeefULL;
  // Attempt 0 keeps the historical stream: retry-free campaigns reproduce
  // pre-retry seeds bit for bit.
  for (int rep = 0; rep < 5; ++rep) {
    EXPECT_EQ(trial_seed(cell_seed, rep, 0),
              hash_seeds(cell_seed, static_cast<std::uint64_t>(rep)));
  }
  // Retries draw the 3-argument stream, a pure function of its inputs.
  EXPECT_EQ(trial_seed(cell_seed, 3, 2), hash_seeds(cell_seed, 3, 2));
  EXPECT_EQ(hash_seeds(cell_seed, 3, 2),
            hash_seeds(hash_seeds(cell_seed, 3), 2));
  // Distinct attempts get distinct seeds.
  EXPECT_NE(trial_seed(cell_seed, 3, 0), trial_seed(cell_seed, 3, 1));
  EXPECT_NE(trial_seed(cell_seed, 3, 1), trial_seed(cell_seed, 3, 2));
  // And distinct reps never collide with each other's retries here.
  EXPECT_NE(trial_seed(cell_seed, 0, 1), trial_seed(cell_seed, 1, 1));
}

TEST(FaultTolerance, ClassifyFailureByExceptionType) {
  const auto classify = [](auto&& e) {
    return classify_failure(std::make_exception_ptr(e));
  };
  EXPECT_EQ(classify(TraceIoError("disk")), FailureKind::kTransient);
  EXPECT_EQ(classify(std::bad_alloc()), FailureKind::kTransient);
  EXPECT_EQ(classify(std::ios_base::failure("io")), FailureKind::kTransient);
  EXPECT_EQ(classify(TrialTimeoutError("slow")), FailureKind::kTimeout);
  EXPECT_EQ(classify(std::invalid_argument("bad")), FailureKind::kPermanent);
  EXPECT_EQ(classify(std::logic_error("bug")), FailureKind::kPermanent);
}

TEST(FaultTolerance, FailureKindStringsRoundTrip) {
  for (const FailureKind k : {FailureKind::kTransient, FailureKind::kPermanent,
                              FailureKind::kTimeout}) {
    EXPECT_EQ(failure_kind_from_string(to_string(k)), k);
  }
  // Unknown names resume conservatively as permanent.
  EXPECT_EQ(failure_kind_from_string("cosmic-ray"), FailureKind::kPermanent);
}

// ---------------------------------------------------------------------------
// Keep-going vs abort

TEST(FaultTolerance, KeepGoingCompletesHealthyCellsAroundOneBadCell) {
  const std::vector<CampaignCell> cells = {healthy_cell(11, 3),
                                           tiny_torus_cell(1),
                                           healthy_cell(22, 2)};
  for (const int workers : {1, 4}) {
    CampaignOptions options;
    options.workers = workers;
    options.on_error = ErrorPolicy::kKeepGoing;
    const CampaignResult result = run_cells(cells, options);
    ASSERT_EQ(result.cells.size(), 3u);
    // Healthy cells are fully aggregated; the broken one records exactly one
    // structured failure and nothing else.
    EXPECT_EQ(result.cells[0].aggregate.runs, 3);
    EXPECT_EQ(result.cells[2].aggregate.runs, 2);
    EXPECT_EQ(result.failed_trials(), 1u);
    ASSERT_EQ(result.cells[1].failures.size(), 1u);
    const TrialFailure& failure = result.cells[1].failures.front();
    EXPECT_EQ(failure.cell, 1u);
    EXPECT_EQ(failure.rep, 0);
    EXPECT_EQ(failure.attempts, 1);  // permanent: no retries
    EXPECT_EQ(failure.kind, FailureKind::kPermanent);
    EXPECT_EQ(failure.what, "torus sides must be at least 4r+2");
    EXPECT_EQ(failure.seed, trial_seed(cells[1].sim.seed, 0, 0));
    EXPECT_EQ(result.total().counters_total.trial_failures, 1u);
    // The schema-v3 export carries the failure.
    const std::string json = to_json(result);
    EXPECT_NE(json.find("\"kind\":\"permanent\""), std::string::npos);
    EXPECT_NE(json.find("\"what\":\"torus sides must be at least 4r+2\""),
              std::string::npos);
  }
}

TEST(FaultTolerance, AbortStillThrowsAfterCompletingHealthyWork) {
  const std::vector<CampaignCell> cells = {healthy_cell(), tiny_torus_cell()};
  CampaignOptions options;
  options.workers = 4;
  EXPECT_THROW(run_cells(cells, options), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Retries

TEST(FaultTolerance, TransientFailureRetriesUnderDeterministicSeed) {
  const std::vector<CampaignCell> cells = {healthy_cell(2026, 3)};
  std::string reference_json;
  for (const int workers : {1, 4}) {
    CampaignOptions options;
    options.workers = workers;
    // Rep 1 fails its first attempt with a transient error, then recovers.
    options.fault_injection = [](std::size_t, int rep, int attempt) {
      if (rep == 1 && attempt == 0) throw TraceIoError("injected disk error");
    };
    const CampaignResult result = run_cells(cells, options);
    EXPECT_EQ(result.failed_trials(), 0u);
    EXPECT_EQ(result.cells[0].aggregate.runs, 3);
    // The retried trial ran under the attempt-1 seed; the others kept the
    // historical attempt-0 stream.
    ASSERT_EQ(result.cells[0].seeds.size(), 3u);
    EXPECT_EQ(result.cells[0].seeds[0], trial_seed(2026, 0, 0));
    EXPECT_EQ(result.cells[0].seeds[1], trial_seed(2026, 1, 1));
    EXPECT_EQ(result.cells[0].seeds[2], trial_seed(2026, 2, 0));
    EXPECT_EQ(result.total().counters_total.trial_retries, 1u);
    // Retried campaigns stay worker-count deterministic.
    const std::string json = to_json(result);
    if (reference_json.empty()) {
      reference_json = json;
    } else {
      EXPECT_EQ(json, reference_json);
    }
  }
}

TEST(FaultTolerance, TransientRetriesExhaustIntoRecordedFailure) {
  const std::vector<CampaignCell> cells = {healthy_cell(5, 2)};
  std::atomic<int> rep0_attempts{0};
  CampaignOptions options;
  options.workers = 2;
  options.on_error = ErrorPolicy::kKeepGoing;
  options.max_retries = 2;
  options.fault_injection = [&rep0_attempts](std::size_t, int rep, int) {
    if (rep == 0) {
      ++rep0_attempts;
      throw TraceIoError("injected disk error");
    }
  };
  const CampaignResult result = run_cells(cells, options);
  EXPECT_EQ(rep0_attempts.load(), 3);  // 1 try + max_retries
  ASSERT_EQ(result.cells[0].failures.size(), 1u);
  const TrialFailure& failure = result.cells[0].failures.front();
  EXPECT_EQ(failure.kind, FailureKind::kTransient);
  EXPECT_EQ(failure.attempts, 3);
  EXPECT_EQ(failure.seed, trial_seed(5, 0, 2));  // final attempt's seed
  EXPECT_EQ(result.total().counters_total.trial_retries, 2u);
  EXPECT_EQ(result.total().counters_total.trial_failures, 1u);
  EXPECT_EQ(result.cells[0].aggregate.runs, 1);  // rep 1 still aggregated
}

TEST(FaultTolerance, PermanentFailureIsNeverRetried) {
  const std::vector<CampaignCell> cells = {healthy_cell(5, 2)};
  std::atomic<int> rep0_attempts{0};
  CampaignOptions options;
  options.workers = 1;
  options.on_error = ErrorPolicy::kKeepGoing;
  options.max_retries = 5;
  options.fault_injection = [&rep0_attempts](std::size_t, int rep, int) {
    if (rep == 0) {
      ++rep0_attempts;
      throw std::invalid_argument("injected config error");
    }
  };
  const CampaignResult result = run_cells(cells, options);
  EXPECT_EQ(rep0_attempts.load(), 1);
  ASSERT_EQ(result.cells[0].failures.size(), 1u);
  EXPECT_EQ(result.cells[0].failures.front().kind, FailureKind::kPermanent);
  EXPECT_EQ(result.cells[0].failures.front().attempts, 1);
  EXPECT_EQ(result.total().counters_total.trial_retries, 0u);
}

// ---------------------------------------------------------------------------
// Deadline watchdog

TEST(FaultTolerance, RoundBudgetDeadlineThrowsTimeout) {
  SimConfig cfg;
  cfg.width = cfg.height = 12;
  cfg.r = 1;
  cfg.protocol = ProtocolKind::kCrashFlood;
  cfg.deadline_rounds = 1;  // flooding a 12x12 torus needs ~6 rounds
  EXPECT_THROW(run_simulation(cfg, FaultSet{}), TrialTimeoutError);
  cfg.deadline_rounds = 0;  // watchdog off: same config completes
  EXPECT_TRUE(run_simulation(cfg, FaultSet{}).success());
}

TEST(FaultTolerance, WallClockDeadlineThrowsTimeout) {
  SimConfig cfg;  // big enough that setup alone exceeds 1 ms
  cfg.width = cfg.height = 48;
  cfg.r = 2;
  cfg.protocol = ProtocolKind::kBvIndirectFlood;
  cfg.deadline_ms = 1;
  EXPECT_THROW(run_simulation(cfg, FaultSet{}), TrialTimeoutError);
}

TEST(FaultTolerance, TimeoutIsRecordedNotRetried) {
  CampaignCell slow = healthy_cell(9, 2);
  slow.sim.deadline_rounds = 1;
  CampaignOptions options;
  options.workers = 2;
  options.on_error = ErrorPolicy::kKeepGoing;
  options.max_retries = 3;
  const CampaignResult result = run_cells({slow}, options);
  ASSERT_EQ(result.cells[0].failures.size(), 2u);
  for (const TrialFailure& failure : result.cells[0].failures) {
    EXPECT_EQ(failure.kind, FailureKind::kTimeout);
    EXPECT_EQ(failure.attempts, 1);  // timeouts never retry
  }
  EXPECT_EQ(result.total().counters_total.trial_timeouts, 2u);
  EXPECT_EQ(result.total().counters_total.trial_failures, 2u);
  EXPECT_EQ(result.total().counters_total.trial_retries, 0u);
}

// ---------------------------------------------------------------------------
// Journal format

TEST(Journal, RecordJsonRoundTripsExactly) {
  JournalRecord rec;
  rec.trial = 17;
  rec.cell = 2;
  rec.rep = 5;
  rec.attempts = 2;
  rec.seed = 0xdeadbeefcafef00dULL;
  rec.ok = true;
  rec.outcome.honest_nodes = 143;
  rec.outcome.correct_commits = 141;
  rec.outcome.wrong_commits = 1;
  rec.outcome.rounds = 19;
  rec.outcome.transmissions = 1234;
  rec.outcome.fault_count = 6;
  rec.outcome.nbd_faults = 3;
  rec.outcome.success = false;
  rec.outcome.coverage = 141.0 / 143.0;  // non-terminating binary fraction
  // Every counter distinct and nonzero, so a field the record drops or swaps
  // breaks the whole-struct comparison below.
  rec.outcome.counters = Counters{.broadcasts_queued = 9,
                                  .spoofed_sends = 2,
                                  .committed_queued = 3,
                                  .heard_queued = 6,
                                  .retransmission_copies = 4,
                                  .envelopes_delivered = 1500,
                                  .envelopes_dropped = 5,
                                  .commits = 141,
                                  .trial_retries = 1,
                                  .trial_timeouts = 7,
                                  .trial_failures = 8,
                                  .packets_sent = 10,
                                  .packets_retransmitted = 11,
                                  .packets_acked = 12,
                                  .duplicates_dropped = 13,
                                  .barrier_timeouts = 14,
                                  .barrier_wait_us = 15,
                                  .chaos_drops = 16,
                                  .chaos_delays = 17,
                                  .chaos_duplicates = 19,
                                  .chaos_partition_drops = 20,
                                  .node_restarts = 21,
                                  .peers_suspected = 22,
                                  .degraded_rounds = 23,
                                  .engine_bytes_peak = 4096,
                                  .last_commit_round = 18};
  const auto parsed = parse_journal_record(to_json(rec));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->trial, rec.trial);
  EXPECT_EQ(parsed->cell, rec.cell);
  EXPECT_EQ(parsed->rep, rec.rep);
  EXPECT_EQ(parsed->attempts, rec.attempts);
  EXPECT_EQ(parsed->seed, rec.seed);
  EXPECT_TRUE(parsed->ok);
  EXPECT_EQ(parsed->outcome.honest_nodes, rec.outcome.honest_nodes);
  EXPECT_EQ(parsed->outcome.correct_commits, rec.outcome.correct_commits);
  EXPECT_EQ(parsed->outcome.wrong_commits, rec.outcome.wrong_commits);
  EXPECT_EQ(parsed->outcome.rounds, rec.outcome.rounds);
  EXPECT_EQ(parsed->outcome.transmissions, rec.outcome.transmissions);
  EXPECT_EQ(parsed->outcome.fault_count, rec.outcome.fault_count);
  EXPECT_EQ(parsed->outcome.nbd_faults, rec.outcome.nbd_faults);
  EXPECT_EQ(parsed->outcome.success, rec.outcome.success);
  // Bit-exact double round trip (%.17g out, strtod back).
  EXPECT_EQ(parsed->outcome.coverage, rec.outcome.coverage);
  EXPECT_EQ(parsed->outcome.counters, rec.outcome.counters) << to_json(rec);
}

TEST(Journal, FailedRecordRoundTripsEscapedWhat) {
  JournalRecord rec;
  rec.trial = 3;
  rec.cell = 1;
  rec.rep = 0;
  rec.attempts = 3;
  rec.seed = 42;
  rec.ok = false;
  rec.kind = FailureKind::kTransient;
  rec.what = "cannot write \"trace\"\n\tpath\\x";
  rec.what += '\x01';
  const auto parsed = parse_journal_record(to_json(rec));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->ok);
  EXPECT_EQ(parsed->kind, FailureKind::kTransient);
  EXPECT_EQ(parsed->what, rec.what);
}

TEST(Journal, MalformedLinesAreRejected) {
  EXPECT_FALSE(parse_journal_record("").has_value());
  EXPECT_FALSE(parse_journal_record("{\"trial\":1").has_value());
  EXPECT_FALSE(parse_journal_record("not json at all").has_value());
  // A record truncated mid-outcome (torn write) must not parse.
  JournalRecord rec;
  rec.ok = true;
  const std::string full = to_json(rec);
  EXPECT_FALSE(parse_journal_record(full.substr(0, full.size() / 2))
                   .has_value());
  std::uint64_t fp = 0;
  std::size_t trials = 0;
  EXPECT_FALSE(parse_journal_header("{\"journal\":\"other-v9\"}", &fp,
                                    &trials));
}

TEST(Journal, HeaderRoundTripAndFingerprintSensitivity) {
  const std::vector<CampaignCell> cells = {healthy_cell(), tiny_torus_cell()};
  const std::uint64_t fp = campaign_fingerprint(cells);
  std::uint64_t parsed_fp = 0;
  std::size_t parsed_trials = 0;
  ASSERT_TRUE(parse_journal_header(journal_header(fp, 4), &parsed_fp,
                                   &parsed_trials));
  EXPECT_EQ(parsed_fp, fp);
  EXPECT_EQ(parsed_trials, 4u);
  // Any trial-affecting edit moves the fingerprint.
  std::vector<CampaignCell> edited = cells;
  edited[0].sim.t += 1;
  EXPECT_NE(campaign_fingerprint(edited), fp);
  edited = cells;
  edited[1].reps += 1;
  EXPECT_NE(campaign_fingerprint(edited), fp);
  edited = cells;
  edited[0].sim.seed += 1;
  EXPECT_NE(campaign_fingerprint(edited), fp);
  edited = cells;
  edited[0].sim.loss_model = LossModel::kPairwise;
  EXPECT_NE(campaign_fingerprint(edited), fp);
}

// ---------------------------------------------------------------------------
// Kill-and-resume equivalence

TEST(Journal, KillAndResumeEmitsByteIdenticalExports) {
  std::vector<CampaignCell> cells;
  for (int i = 0; i < 2; ++i) {
    CampaignCell cell = healthy_cell(100 + static_cast<std::uint64_t>(i), 6);
    cell.sim.t = 1 + i;
    cells.push_back(cell);
  }

  // Uninterrupted reference (no journal).
  CampaignOptions plain;
  plain.workers = 1;
  const CampaignResult reference = run_cells(cells, plain);
  const std::string ref_json = to_json(reference);
  const std::string ref_csv = to_csv(reference);

  // A complete journaled run, serial so records land in trial order.
  const auto full_path = temp_path("rbcast_ft_full.jsonl");
  CampaignOptions journaled = plain;
  journaled.journal_path = full_path.string();
  const CampaignResult full = run_cells(cells, journaled);
  EXPECT_EQ(to_json(full), ref_json);
  const std::vector<std::string> lines = file_lines(full_path);
  ASSERT_EQ(lines.size(), 13u);  // header + 12 trials

  // "SIGKILL" after 5 completed trials: header + 5 whole records, and a
  // second variant with a torn (half-written, unterminated) 6th record.
  std::string clean5, torn;
  for (std::size_t i = 0; i < 6; ++i) clean5 += lines[i] + "\n";
  torn = clean5 + lines[6].substr(0, lines[6].size() / 2);

  for (const bool torn_tail : {false, true}) {
    for (const int workers : {1, 8}) {
      const auto path = temp_path("rbcast_ft_resume.jsonl");
      write_file(path, torn_tail ? torn : clean5);
      CampaignOptions resume;
      resume.workers = workers;
      resume.journal_path = path.string();
      resume.resume = true;
      const CampaignResult resumed = run_cells(cells, resume);
      EXPECT_EQ(resumed.replayed_trials, 5u)
          << "workers=" << workers << " torn=" << torn_tail;
      EXPECT_EQ(to_json(resumed), ref_json)
          << "workers=" << workers << " torn=" << torn_tail;
      EXPECT_EQ(to_csv(resumed), ref_csv)
          << "workers=" << workers << " torn=" << torn_tail;
      // The resumed journal is complete again: a second resume replays
      // everything and still matches byte for byte.
      CampaignOptions resume_all = resume;
      resume_all.workers = 1;
      const CampaignResult replayed = run_cells(cells, resume_all);
      EXPECT_EQ(replayed.replayed_trials, 12u);
      EXPECT_EQ(to_json(replayed), ref_json);
      std::filesystem::remove(path);
    }
  }
  std::filesystem::remove(full_path);
}

// Cooperative cancellation (the campaign CLI wires a ShutdownGuard here):
// once the cancel hook fires, remaining trials are skipped — not failed, not
// journaled — and a resume completes exactly the trials the cancelled run
// never started, emitting byte-identical exports to an uninterrupted run.
TEST(Journal, CancelSkipsCleanlyAndResumeFinishesTheRest) {
  std::vector<CampaignCell> cells;
  for (int i = 0; i < 2; ++i) {
    CampaignCell cell = healthy_cell(300 + static_cast<std::uint64_t>(i), 6);
    cell.sim.t = 1 + i;
    cells.push_back(cell);
  }

  CampaignOptions plain;
  plain.workers = 1;
  const CampaignResult reference = run_cells(cells, plain);
  const std::string ref_json = to_json(reference);
  EXPECT_FALSE(reference.interrupted());

  const auto path = temp_path("rbcast_ft_cancel.jsonl");
  CampaignOptions cancelled = plain;
  cancelled.journal_path = path.string();
  std::size_t done = 0;
  cancelled.progress = [&](std::size_t, std::size_t) { ++done; };
  cancelled.cancel = [&] { return done >= 4; };  // "SIGINT" after 4 trials
  const CampaignResult partial = run_cells(cells, cancelled);
  EXPECT_TRUE(partial.interrupted());
  EXPECT_EQ(partial.skipped_trials, 8u);
  // Skipped trials are not journaled: header + the 4 completed records.
  EXPECT_EQ(file_lines(path).size(), 5u);

  CampaignOptions resume = plain;
  resume.journal_path = path.string();
  resume.resume = true;
  const CampaignResult resumed = run_cells(cells, resume);
  EXPECT_FALSE(resumed.interrupted());
  EXPECT_EQ(resumed.replayed_trials, 4u);
  EXPECT_EQ(to_json(resumed), ref_json);
  std::filesystem::remove(path);
}

TEST(Journal, ResumeReplaysRecordedFailuresByteIdentically) {
  const std::vector<CampaignCell> cells = {tiny_torus_cell(2),
                                           healthy_cell(77, 3)};
  CampaignOptions keep;
  keep.workers = 1;
  keep.on_error = ErrorPolicy::kKeepGoing;
  const std::string ref_json = to_json(run_cells(cells, keep));

  const auto path = temp_path("rbcast_ft_failures.jsonl");
  CampaignOptions journaled = keep;
  journaled.journal_path = path.string();
  EXPECT_EQ(to_json(run_cells(cells, journaled)), ref_json);

  // Truncate past the two failure records, resume, and the replayed failures
  // must reappear in the export exactly as fresh ones would.
  const std::vector<std::string> lines = file_lines(path);
  ASSERT_EQ(lines.size(), 6u);
  std::string head;
  for (std::size_t i = 0; i < 4; ++i) head += lines[i] + "\n";
  write_file(path, head);
  CampaignOptions resume = journaled;
  resume.resume = true;
  resume.workers = 8;
  const CampaignResult resumed = run_cells(cells, resume);
  EXPECT_EQ(resumed.replayed_trials, 3u);
  EXPECT_EQ(resumed.failed_trials(), 2u);
  EXPECT_EQ(to_json(resumed), ref_json);
  std::filesystem::remove(path);
}

TEST(Journal, FingerprintMismatchRefusesToResume) {
  const std::vector<CampaignCell> cells = {healthy_cell(1, 2)};
  const auto path = temp_path("rbcast_ft_mismatch.jsonl");
  CampaignOptions journaled;
  journaled.workers = 1;
  journaled.journal_path = path.string();
  run_cells(cells, journaled);

  std::vector<CampaignCell> edited = cells;
  edited[0].sim.t += 1;  // different campaign now
  CampaignOptions resume = journaled;
  resume.resume = true;
  EXPECT_THROW(run_cells(edited, resume), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Journal, ResumeFromMissingJournalRunsFresh) {
  const std::vector<CampaignCell> cells = {healthy_cell(3, 2)};
  CampaignOptions plain;
  plain.workers = 1;
  const std::string ref_json = to_json(run_cells(cells, plain));

  const auto path = temp_path("rbcast_ft_missing.jsonl");
  CampaignOptions resume = plain;
  resume.journal_path = path.string();
  resume.resume = true;
  const CampaignResult result = run_cells(cells, resume);
  EXPECT_EQ(result.replayed_trials, 0u);
  EXPECT_EQ(to_json(result), ref_json);
  // The fresh run wrote a full journal behind itself.
  EXPECT_EQ(file_lines(path).size(), 3u);
  std::filesystem::remove(path);
}

TEST(Journal, ResumeWithoutJournalPathIsAnError) {
  CampaignOptions options;
  options.resume = true;
  EXPECT_THROW(run_cells({healthy_cell()}, options), std::invalid_argument);
}

}  // namespace
}  // namespace rbcast
