#include "radiobcast/campaign/journal.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "radiobcast/campaign/report.h"
#include "radiobcast/obs/counters.h"
#include "radiobcast/util/rng.h"

namespace rbcast {

namespace {

// --- fingerprint helpers ----------------------------------------------------

std::uint64_t mix(std::uint64_t h, std::uint64_t v) { return hash_seeds(h, v); }

std::uint64_t mix_double(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return mix(h, bits);
}

std::uint64_t mix_string(std::uint64_t h, const std::string& s) {
  std::uint64_t fnv = 0xCBF29CE484222325ULL;  // FNV-1a over the bytes
  for (const char c : s) {
    fnv ^= static_cast<unsigned char>(c);
    fnv *= 0x100000001B3ULL;
  }
  return mix(mix(h, s.size()), fnv);
}

// --- strict line parsing ----------------------------------------------------
//
// The journal is machine-written with a fixed field order and no whitespace,
// so a substring scanner for "key": patterns is exact: every key occurs at
// most once per line before any free-form string field ("what" is last).

bool find_key(const std::string& s, const char* key, std::size_t* value_pos) {
  std::string pattern;
  pattern.reserve(std::strlen(key) + 3);
  pattern += '"';
  pattern += key;
  pattern += "\":";
  const std::size_t at = s.find(pattern);
  if (at == std::string::npos) return false;
  *value_pos = at + pattern.size();
  return true;
}

bool find_u64(const std::string& s, const char* key, std::uint64_t* out) {
  std::size_t pos = 0;
  if (!find_key(s, key, &pos)) return false;
  const char* begin = s.c_str() + pos;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(begin, &end, 10);
  if (end == begin) return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

bool find_i64(const std::string& s, const char* key, std::int64_t* out) {
  std::size_t pos = 0;
  if (!find_key(s, key, &pos)) return false;
  const char* begin = s.c_str() + pos;
  char* end = nullptr;
  const long long v = std::strtoll(begin, &end, 10);
  if (end == begin) return false;
  *out = static_cast<std::int64_t>(v);
  return true;
}

bool find_double(const std::string& s, const char* key, double* out) {
  std::size_t pos = 0;
  if (!find_key(s, key, &pos)) return false;
  const char* begin = s.c_str() + pos;
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  if (end == begin) return false;
  *out = v;
  return true;
}

bool find_bool(const std::string& s, const char* key, bool* out) {
  std::size_t pos = 0;
  if (!find_key(s, key, &pos)) return false;
  if (s.compare(pos, 4, "true") == 0) {
    *out = true;
    return true;
  }
  if (s.compare(pos, 5, "false") == 0) {
    *out = false;
    return true;
  }
  return false;
}

/// Inverse of json_escape for the escapes it emits.
bool find_string(const std::string& s, const char* key, std::string* out) {
  std::size_t pos = 0;
  if (!find_key(s, key, &pos)) return false;
  if (pos >= s.size() || s[pos] != '"') return false;
  ++pos;
  std::string value;
  while (pos < s.size()) {
    const char c = s[pos];
    if (c == '"') {
      *out = std::move(value);
      return true;
    }
    if (c != '\\') {
      value += c;
      ++pos;
      continue;
    }
    if (pos + 1 >= s.size()) return false;
    switch (s[pos + 1]) {
      case '"': value += '"'; break;
      case '\\': value += '\\'; break;
      case 'n': value += '\n'; break;
      case 'r': value += '\r'; break;
      case 't': value += '\t'; break;
      case 'u': {
        if (pos + 5 >= s.size()) return false;
        const std::string hex = s.substr(pos + 2, 4);
        char* end = nullptr;
        const long code = std::strtol(hex.c_str(), &end, 16);
        if (end != hex.c_str() + 4 || code < 0 || code > 0xFF) return false;
        value += static_cast<char>(code);
        pos += 4;
        break;
      }
      default: return false;
    }
    pos += 2;
  }
  return false;  // unterminated string: a torn line
}

bool parse_counters(const std::string& s, Counters* c) {
  bool ok = true;
  for_each_counter([&](const char* name, auto field, CounterMerge, bool) {
    auto& value = c->*field;
    if constexpr (std::is_signed_v<std::remove_reference_t<decltype(value)>>) {
      ok = ok && find_i64(s, name, &value);
    } else {
      ok = ok && find_u64(s, name, &value);
    }
  });
  return ok;
}

void append_outcome_json(std::string& out, const TrialOutcome& o) {
  out += "{\"honest_nodes\":" + std::to_string(o.honest_nodes);
  out += ",\"correct_commits\":" + std::to_string(o.correct_commits);
  out += ",\"wrong_commits\":" + std::to_string(o.wrong_commits);
  out += ",\"rounds\":" + std::to_string(o.rounds);
  out += ",\"transmissions\":" + std::to_string(o.transmissions);
  out += ",\"fault_count\":" + std::to_string(o.fault_count);
  out += ",\"nbd_faults\":" + std::to_string(o.nbd_faults);
  out += ",\"success\":";
  out += o.success ? "true" : "false";
  out += ",\"coverage\":" + json_number(o.coverage);
  out += ",\"counters\":" + to_json(o.counters);
  out += "}";
}

}  // namespace

std::uint64_t campaign_fingerprint(const std::vector<CampaignCell>& cells) {
  std::uint64_t h = 0x52424341u;  // "RBCA"
  h = mix(h, cells.size());
  for (const CampaignCell& cell : cells) {
    const SimConfig& sim = cell.sim;
    h = mix_string(h, cell.label);
    h = mix(h, static_cast<std::uint64_t>(cell.reps));
    h = mix(h, static_cast<std::uint64_t>(sim.width));
    h = mix(h, static_cast<std::uint64_t>(sim.height));
    h = mix(h, static_cast<std::uint64_t>(sim.r));
    h = mix(h, static_cast<std::uint64_t>(sim.metric));
    h = mix(h, static_cast<std::uint64_t>(sim.t));
    h = mix(h, static_cast<std::uint64_t>(sim.protocol));
    h = mix(h, static_cast<std::uint64_t>(sim.adversary));
    h = mix(h, static_cast<std::uint64_t>(sim.value));
    h = mix(h, static_cast<std::uint64_t>(sim.source.x));
    h = mix(h, static_cast<std::uint64_t>(sim.source.y));
    h = mix(h, static_cast<std::uint64_t>(sim.crash_round));
    h = mix(h, sim.seed);
    h = mix(h, static_cast<std::uint64_t>(sim.max_rounds));
    h = mix_double(h, sim.loss_p);
    h = mix(h, static_cast<std::uint64_t>(sim.retransmissions));
    h = mix(h, static_cast<std::uint64_t>(sim.loss_model));
    h = mix(h, static_cast<std::uint64_t>(sim.jam_budget));
    h = mix(h, static_cast<std::uint64_t>(sim.deadline_rounds));
    h = mix(h, static_cast<std::uint64_t>(sim.deadline_ms));
    const PlacementConfig& p = cell.placement;
    h = mix(h, static_cast<std::uint64_t>(p.kind));
    h = mix(h, static_cast<std::uint64_t>(p.random_target));
    h = mix_double(h, p.iid_p);
    h = mix(h, static_cast<std::uint64_t>(p.trim));
  }
  return h;
}

std::string journal_header(std::uint64_t fingerprint, std::size_t trials) {
  std::string out = "{\"journal\":\"";
  out += kJournalSchema;
  out += "\",\"fingerprint\":" + std::to_string(fingerprint);
  out += ",\"trials\":" + std::to_string(trials) + "}";
  return out;
}

bool parse_journal_header(const std::string& line, std::uint64_t* fingerprint,
                          std::size_t* trials) {
  if (line.empty() || line.front() != '{' || line.back() != '}') return false;
  std::string schema;
  if (!find_string(line, "journal", &schema) || schema != kJournalSchema) {
    return false;
  }
  std::uint64_t trial_count = 0;
  if (!find_u64(line, "fingerprint", fingerprint) ||
      !find_u64(line, "trials", &trial_count)) {
    return false;
  }
  *trials = static_cast<std::size_t>(trial_count);
  return true;
}

std::string to_json(const JournalRecord& rec) {
  std::string out = "{\"trial\":" + std::to_string(rec.trial);
  out += ",\"cell\":" + std::to_string(rec.cell);
  out += ",\"rep\":" + std::to_string(rec.rep);
  out += ",\"seed\":" + std::to_string(rec.seed);
  out += ",\"status\":\"";
  out += rec.ok ? "ok" : "failed";
  out += "\",\"attempts\":" + std::to_string(rec.attempts);
  if (rec.ok) {
    out += ",\"outcome\":";
    append_outcome_json(out, rec.outcome);
  } else {
    out += ",\"kind\":\"";
    out += to_string(rec.kind);
    out += "\",\"what\":\"" + json_escape(rec.what) + "\"";
  }
  out += "}";
  return out;
}

std::optional<JournalRecord> parse_journal_record(const std::string& line) {
  if (line.empty() || line.front() != '{' || line.back() != '}') {
    return std::nullopt;
  }
  JournalRecord rec;
  std::uint64_t trial = 0, cell = 0;
  std::int64_t rep = 0, attempts = 0;
  std::string status;
  if (!find_u64(line, "trial", &trial) || !find_u64(line, "cell", &cell) ||
      !find_i64(line, "rep", &rep) || !find_u64(line, "seed", &rec.seed) ||
      !find_string(line, "status", &status) ||
      !find_i64(line, "attempts", &attempts)) {
    return std::nullopt;
  }
  rec.trial = static_cast<std::size_t>(trial);
  rec.cell = static_cast<std::size_t>(cell);
  rec.rep = static_cast<int>(rep);
  rec.attempts = static_cast<int>(attempts);
  if (status == "ok") {
    rec.ok = true;
    TrialOutcome& o = rec.outcome;
    bool success = false;
    if (!find_i64(line, "honest_nodes", &o.honest_nodes) ||
        !find_i64(line, "correct_commits", &o.correct_commits) ||
        !find_i64(line, "wrong_commits", &o.wrong_commits) ||
        !find_i64(line, "rounds", &o.rounds) ||
        !find_u64(line, "transmissions", &o.transmissions) ||
        !find_i64(line, "fault_count", &o.fault_count) ||
        !find_i64(line, "nbd_faults", &o.nbd_faults) ||
        !find_bool(line, "success", &success) ||
        !find_double(line, "coverage", &o.coverage) ||
        !parse_counters(line, &o.counters)) {
      return std::nullopt;
    }
    o.success = success;
  } else if (status == "failed") {
    rec.ok = false;
    std::string kind;
    if (!find_string(line, "kind", &kind) ||
        !find_string(line, "what", &rec.what)) {
      return std::nullopt;
    }
    rec.kind = failure_kind_from_string(kind);
  } else {
    return std::nullopt;
  }
  return rec;
}

JournalContents read_journal(const std::string& path,
                             std::uint64_t fingerprint, std::size_t trials) {
  JournalContents out;
  std::ifstream is(path, std::ios::binary);
  if (!is) return out;  // missing journal: resume degenerates to a fresh run
  std::string text((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());

  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') {
      lines.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  // Anything after the last '\n' is a torn write: never trusted.

  if (lines.empty()) return out;
  std::uint64_t file_fingerprint = 0;
  std::size_t file_trials = 0;
  if (!parse_journal_header(lines[0], &file_fingerprint, &file_trials)) {
    return out;  // corrupt header: treat the journal as absent
  }
  if (file_fingerprint != fingerprint || file_trials != trials) {
    throw std::runtime_error(
        "journal " + path +
        " was written by a different campaign (fingerprint or trial-count "
        "mismatch); refusing to resume");
  }
  out.header = true;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (auto rec = parse_journal_record(lines[i])) {
      out.records.push_back(std::move(*rec));
    }
  }
  return out;
}

JournalWriter::JournalWriter(const std::string& path, bool truncate)
    : path_(path) {
  bool torn_tail = false;
  if (!truncate) {
    if (std::FILE* probe = std::fopen(path.c_str(), "rb")) {
      if (std::fseek(probe, -1, SEEK_END) == 0) {
        torn_tail = std::fgetc(probe) != '\n';
      }
      std::fclose(probe);
    }
  }
  file_ = std::fopen(path.c_str(), truncate ? "wb" : "ab");
  if (file_ == nullptr) {
    throw std::runtime_error("cannot open journal " + path + ": " +
                             std::strerror(errno));
  }
  if (torn_tail) append_line("");  // seal the fragment so it can't splice
}

JournalWriter::~JournalWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void JournalWriter::append_line(const std::string& line) {
  std::string out = line;
  out += '\n';
  if (std::fwrite(out.data(), 1, out.size(), file_) != out.size() ||
      std::fflush(file_) != 0) {
    throw std::runtime_error("journal write failed for " + path_ + ": " +
                             std::strerror(errno));
  }
#if defined(__unix__) || defined(__APPLE__)
  if (::fsync(fileno(file_)) != 0) {
    throw std::runtime_error("journal fsync failed for " + path_ + ": " +
                             std::strerror(errno));
  }
#endif
}

}  // namespace rbcast
