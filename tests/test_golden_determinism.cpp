// Golden determinism-across-refactor regression (the bit-identical contract
// of docs/PERF.md): a fixed-seed mini-campaign per protocol, run with
// counters and a per-trial trace sink, must serialize to byte-identical
// JSON / CSV / trace files forever — across refactors, optimization PRs, and
// worker counts. The same campaign without a trace sink must give the same
// JSON / CSV bytes. The SHA-256 digests below were recorded from the
// pre-optimization round engine (the PR 5 seed state); any hot-path change
// that alters a single byte of any export fails here.
//
// If a digest changes *intentionally* (schema bump, new counter), re-record
// by running this test and copying the "actual" digests from the failure
// output — but first make sure the change is a schema change, not an
// accidental loss of determinism: the w=1 and w=8 runs must at least agree
// with each other.
//
// The crash_flood_r1, cpa_r1, bv_2hop_r1, bv_2hop_r2 and bv_2hop_r3 digests
// (JSON, CSV and trace) were re-recorded when the lying adversary began to
// forge only the lies the attacked protocol's honest nodes read (none against
// crash-flood and CPA, one-relayer lies against bv-2hop). Their lying cells
// queue fewer broadcasts, so traffic counters, engine_bytes_peak and round
// counts moved, and the lossy cells' loss draws shifted with the deliveries.
// On a perfect channel honest nodes receive the same deliveries in the same
// order (tests/test_byzantine.cpp, Lying.HonestNodesSeeTheSameDeliveries).
// The bv-4hop rows, whose liar forges every lie as before, are unchanged.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "radiobcast/campaign/engine.h"
#include "radiobcast/campaign/report.h"
#include "radiobcast/core/analysis.h"
#include "radiobcast/util/sha256.h"

namespace rbcast {
namespace {

/// Digest of every trace file in `dir`, folded in sorted-filename order as
/// "name\n<bytes>" — one digest pins the whole trace directory.
std::string hash_trace_dir(const std::filesystem::path& dir) {
  std::map<std::string, std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.emplace(entry.path().filename().string(), entry.path());
  }
  Sha256 hash;
  for (const auto& [name, path] : files) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    hash.update(name);
    hash.update("\n");
    hash.update(bytes.str());
  }
  return hash.hex_digest();
}

struct CampaignHashes {
  std::string json;
  std::string csv;
  std::string traces;
};

/// One deterministic mini-campaign for `protocol`: silent + lying (+spoofing
/// for bv-2hop) adversaries, a perfect and a lossy channel cell each, with
/// retransmissions so the repeat-delivery path is pinned too. Without a
/// trace sink (`traced` false) the perfect-channel cells take the engine's
/// fast delivery path, and `traces` stays empty.
CampaignHashes run_golden_campaign(ProtocolKind protocol, std::int32_t r,
                                   std::int64_t t, std::int64_t reps,
                                   int workers, const std::string& tag,
                                   bool traced = true) {
  CampaignSpec spec;
  // 12 for every r <= 2 (the historical golden geometry); the r = 3 row
  // needs the 4r+2 floor run_simulation enforces.
  spec.base.width = spec.base.height = std::max<std::int32_t>(12, 4 * r + 2);
  spec.base.r = r;
  spec.base.protocol = protocol;
  spec.base.t = t;
  spec.base.retransmissions = 2;
  spec.adversaries = {AdversaryKind::kSilent, AdversaryKind::kLying};
  if (protocol == ProtocolKind::kBvTwoHop) {
    // One protocol also pins the spoofed-broadcast queue path.
    spec.adversaries.push_back(AdversaryKind::kSpoofing);
  }
  spec.placements = {PlacementKind::kRandomBounded};
  spec.loss_ps = {0.0, 0.25};
  spec.reps = reps;
  spec.base_seed = 20260806;

  const std::filesystem::path trace_dir =
      std::filesystem::path(testing::TempDir()) /
      ("golden_" + tag + "_w" + std::to_string(workers));
  std::filesystem::remove_all(trace_dir);

  CampaignOptions options;
  options.workers = workers;
  if (traced) options.trace_dir = trace_dir.string();
  const CampaignResult result = run_campaign(spec, options);

  CampaignHashes hashes;
  hashes.json = sha256_hex(to_json(result));
  hashes.csv = sha256_hex(to_csv(result));
  if (traced) hashes.traces = hash_trace_dir(trace_dir);
  std::filesystem::remove_all(trace_dir);
  return hashes;
}

struct GoldenRow {
  ProtocolKind protocol;
  std::int32_t r;
  std::int64_t t;
  std::int64_t reps;
  const char* json_sha;
  const char* csv_sha;
  const char* trace_sha;
};

// JSON/CSV digests re-recorded when engine_bytes_peak joined the counter
// schema (campaign schema v4 -> v5, see header comment) — but only AFTER the
// structure-of-arrays trial engine had been landed against the v4 digests
// unchanged, proving the SoA refactor itself is byte-identical. Trace
// digests are unchanged since trace events carry no counters.
//
// The r = 2 rows (fewer reps: they are ~100x the work per trial) were
// recorded from the pre-incremental-determination engine (PR 7 parent
// commit); they pin the r >= 2 evidence/set-packing path that the r = 1 rows
// barely exercise. The r = 3 row pins the SoA two-hop pool on the larger
// (4r+2 = 14) geometry the HEARD-flood presets build on.
const GoldenRow kGolden[] = {
    {ProtocolKind::kCrashFlood, 1, 3, 3,
     "c9ccd42a0cbb8913ce624cdb8016d05f770abad644fbcb5afc7aa5a19c9e707d",
     "d07cd545250ad8c2075eb7d148e02ad09cfec87dc70bca61fe964b821c01c49e",
     "94ef461e16efc5f9c2156098b16bffd94c6801bf2b95a9b5ecac8e8770e7a119"},
    {ProtocolKind::kCpa, 1, 1, 3,
     "62b9ce080b4132d1f20aeb824e453eb445ca42aeb04698b67d295e433c3e3d9a",
     "01f34624d88124b35394744f65459a44c25298821161cb96dc3c66fe24cbd60a",
     "966c08aa3474716c8b469b4da7e58e0b848a948e7387b6665ac60c3c4f204a4c"},
    {ProtocolKind::kBvTwoHop, 1, 1, 3,
     "301e731d58cd4ab2a81dba66811ac6acacd9d86a3360d96aa181deff32ceae29",
     "4532ec27325fcde4a04e15a1c8b5d17660d87c4d7f17db50ca54364ed47b747c",
     "bb95d170b1981de9a2de05855c5f84781ad0e0ff1fc0e332b2f3446aaeb7e1c9"},
    {ProtocolKind::kBvIndirectFlood, 1, 1, 3,
     "ba228b4c71a281f78928ee1c45b7ea122b88e80f750ca4bd328767a75ee105b9",
     "09ce891919a1aad059e4a4605cecfdb9d4dfd0a075d26f6898ca9fa047ad481a",
     "dbcb5c458c2906f9585378a34857bd49b554dea3dd64149179d33d47d08058ad"},
    {ProtocolKind::kBvIndirectEarmarked, 1, 1, 3,
     "e9f205a66d90de915274f06004156d4eabb5a2c749de4941480af927596607a4",
     "6d51e8131f7be92db845ab007fdd3e3b042b6cc487913d4ae4e9f82bcd495239",
     "3dba37c6cee5ba895874b233b976532f3e29342b76ed70c9f3cbfcfd61599a95"},
    // r = 2 rows recorded from the pre-incremental (PR 5) engine; the
    // incremental rewrite must reproduce them byte-for-byte.
    {ProtocolKind::kBvTwoHop, 2, 4, 2,
     "e2ea505893db0ef11d343ed3383f57128e48d43eff74aec822ffc572b433f07d",
     "252371ee175cc10714797cd0aca314ceef4e42fb307dcc413dcfa03efb733344",
     "e70b03630f4868e6e0dfb747699ad699cd0693ce39a00388ed818e90c8cb58b3"},
    {ProtocolKind::kBvIndirectFlood, 2, 4, 2,
     "02f0b6b8f903f44c92329894330babdd6da957181892bf4933650a7086e5aec1",
     "1717c6325caa6b5419b5313a713c3805ad0f50c7982867797141661ed89e4dfc",
     "48ab91405ca0ef5e5ff4e2050fee11b1f6f4521ad90245418e8ba9f51ee0fa02"},
    {ProtocolKind::kBvIndirectEarmarked, 2, 4, 2,
     "acb14ff8ba985067c3dc833977ddff9ffe8d04baaf2d6b817ae3cb961f776b0b",
     "b876a0d26ca4d9faaf6dc345c224ed467ff89fa1d9dbd57ee79ff148a95408e8",
     "8e2be41f3e0aa0a0bcf65ee61720e2cfd863a36dd01ed4ed35e5525dd3999e91"},
    // r = 3 (t = byz_linf_achievable_max(3) = 10, torus 14x14): the SoA
    // two-hop pool at the radius the HEARD-flood presets start from.
    {ProtocolKind::kBvTwoHop, 3, 10, 1,
     "1368c877ff2f381b40669bcbd0f2255c79c82af7fe6be496793c75f67dc6115e",
     "ac0be6e6624125e6eb461410c9df150eb6d2c26581c4da6a126004386f49f17e",
     "cfb4b3acfb0884b7c601175a9b040f992c4b5f37d1d30ecad2024d5489914708"},
};

class GoldenDeterminism : public testing::TestWithParam<GoldenRow> {};

TEST_P(GoldenDeterminism, CampaignBytesMatchRecordedDigests) {
  const GoldenRow& row = GetParam();
  const std::string tag =
      std::string(to_string(row.protocol)) + "_r" + std::to_string(row.r);
  const CampaignHashes w1 =
      run_golden_campaign(row.protocol, row.r, row.t, row.reps, 1, tag);
  const CampaignHashes w8 =
      run_golden_campaign(row.protocol, row.r, row.t, row.reps, 8, tag);

  // Worker-count independence first: if these disagree, determinism itself
  // broke (worse than a schema change).
  EXPECT_EQ(w1.json, w8.json) << tag << ": JSON differs across worker counts";
  EXPECT_EQ(w1.csv, w8.csv) << tag << ": CSV differs across worker counts";
  EXPECT_EQ(w1.traces, w8.traces)
      << tag << ": trace bytes differ across worker counts";

  // Then the recorded goldens: byte-identical to the pre-optimization engine.
  EXPECT_EQ(w1.json, row.json_sha) << tag << ": JSON golden mismatch";
  EXPECT_EQ(w1.csv, row.csv_sha) << tag << ": CSV golden mismatch";
  EXPECT_EQ(w1.traces, row.trace_sha) << tag << ": trace golden mismatch";

  // A trace sink forces the per-receiver delivery loop, so the runs above
  // never reach the fast path; the untraced campaign must serialize to the
  // same JSON/CSV bytes.
  const CampaignHashes untraced = run_golden_campaign(
      row.protocol, row.r, row.t, row.reps, 8, tag, /*traced=*/false);
  EXPECT_EQ(untraced.json, row.json_sha)
      << tag << ": untraced JSON golden mismatch";
  EXPECT_EQ(untraced.csv, row.csv_sha)
      << tag << ": untraced CSV golden mismatch";
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, GoldenDeterminism, testing::ValuesIn(kGolden),
    [](const testing::TestParamInfo<GoldenRow>& info) {
      std::string name = std::string(to_string(info.param.protocol)) + "_r" +
                         std::to_string(info.param.r);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(Sha256, MatchesKnownVectors) {
  // FIPS 180-4 test vectors — guards the hasher the goldens depend on.
  EXPECT_EQ(sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  // Incremental updates across block boundaries agree with one-shot hashing.
  Sha256 h;
  const std::string million_a(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(million_a);
  EXPECT_EQ(h.hex_digest(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

}  // namespace
}  // namespace rbcast
