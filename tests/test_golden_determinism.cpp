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
     "342eff9096f1ba65102a4dad5526bddac079710af4d79cd46155f7e7dc44b4b0",
     "579a6718884e0cbd4e5a6cd60c98062a0bb782e32efe8f33706b1bce123da578",
     "102189cc5240713ab49e6fb74e9a17a981d5ed4c02a5b3955408d5f9eff60ddc"},
    {ProtocolKind::kCpa, 1, 1, 3,
     "9dbc655b2bd84591d42e4b73e8856e807c19b385b2b891328e809c0051b3a6d3",
     "f0cf162bdbf39c762780d1793a347019b82854a239ff218f54750dceb8f2bfd6",
     "20df3a755dac1411923306328f544bedbdcbf59eb35bd7de496b74d6c3dca92b"},
    {ProtocolKind::kBvTwoHop, 1, 1, 3,
     "7e9ca651796e809e38f8095d3804ce6584f04c347b7fb64d4c016b26e4f300ec",
     "916d36cef96cb635b286b6236e0b053e2bf67db223114bbaa00c1fc8f6fc7e7b",
     "249ced1b5baa733926ca02b77c87fb2ea4da4e4ad05811eb3fd7b7863e68b8db"},
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
     "3f03065ffbc81c5fbc2df82f2525e940a680f07d9d81629cbaaae77d93024e24",
     "820d36c4dd62f0ac693535ae49515e289f45477a9250d38329360489d64f74f2",
     "8d831c1ab43b66f9c194c65100aee8aae6d626625537e4ff4ec70e1c7531fbe0"},
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
     "0fa7ce909e2d1ac01dff2c237d72386a36fc80dac6fbfd12d36766c59e05ad4b",
     "52b616da8502436d461ada39f04dc846322119dba573fe2d976102108c0c2993",
     "01e42ae8123468c0a394b97daba02cb9db41d3e3abaa2890ab058cd7853afab7"},
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
