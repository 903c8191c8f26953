#include "radiobcast/campaign/report.h"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <string_view>

#include "radiobcast/obs/counters.h"
#include "radiobcast/obs/memory.h"
#include "radiobcast/util/table.h"

namespace rbcast {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::fabs(value) < 9007199254740992.0 /* 2^53 */) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(value));
    return buf;
  }
  if (!std::isfinite(value)) return "null";  // JSON has no inf/nan
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

namespace {

void write_params(std::ostream& os, const CampaignCell& cell) {
  const SimConfig& sim = cell.sim;
  os << "{\"protocol\":\"" << to_string(sim.protocol) << "\""
     << ",\"adversary\":\"" << to_string(sim.adversary) << "\""
     << ",\"placement\":\"" << to_string(cell.placement.kind) << "\""
     << ",\"width\":" << sim.width << ",\"height\":" << sim.height
     << ",\"r\":" << sim.r << ",\"metric\":\"" << to_string(sim.metric)
     << "\",\"t\":" << sim.t << ",\"loss_p\":" << json_number(sim.loss_p)
     << ",\"retransmissions\":" << sim.retransmissions
     << ",\"reps\":" << cell.reps << ",\"seed\":" << sim.seed << "}";
}

void write_aggregate(std::ostream& os, const Aggregate& agg) {
  os << "{\"runs\":" << agg.runs << ",\"successes\":" << agg.successes
     << ",\"correct_total\":" << agg.correct_total
     << ",\"honest_total\":" << agg.honest_total
     << ",\"wrong_total\":" << agg.wrong_total
     << ",\"rounds_total\":" << agg.rounds_total
     << ",\"transmissions_total\":" << agg.transmissions_total
     << ",\"fault_total\":" << agg.fault_total
     << ",\"min_coverage\":" << json_number(agg.min_coverage)
     << ",\"max_nbd_faults\":" << agg.max_nbd_faults
     << ",\"mean_coverage\":" << json_number(agg.mean_coverage())
     << ",\"mean_rounds\":" << json_number(agg.mean_rounds())
     << ",\"mean_transmissions\":" << json_number(agg.mean_transmissions())
     << ",\"mean_fault_count\":" << json_number(agg.mean_fault_count())
     << ",\"counters\":" << to_json(agg.counters_total) << "}";
}

}  // namespace

void write_json(std::ostream& os, const CampaignResult& result) {
  os << "{\"schema\":\"radiobcast-campaign-v5\",\"trials\":"
     << result.trial_count << ",\"cells\":[";
  for (std::size_t c = 0; c < result.cells.size(); ++c) {
    const CellResult& cell = result.cells[c];
    if (c > 0) os << ",";
    os << "\n{\"label\":\"" << json_escape(cell.cell.label)
       << "\",\"params\":";
    write_params(os, cell.cell);
    os << ",\"seeds\":[";
    for (std::size_t i = 0; i < cell.seeds.size(); ++i) {
      if (i > 0) os << ",";
      os << cell.seeds[i];
    }
    os << "],\"aggregate\":";
    write_aggregate(os, cell.aggregate);
    os << ",\"failures\":[";
    for (std::size_t f = 0; f < cell.failures.size(); ++f) {
      const TrialFailure& failure = cell.failures[f];
      if (f > 0) os << ",";
      os << "{\"rep\":" << failure.rep
         << ",\"attempts\":" << failure.attempts
         << ",\"seed\":" << failure.seed << ",\"kind\":\""
         << to_string(failure.kind) << "\",\"what\":\""
         << json_escape(failure.what) << "\"}";
    }
    os << "]}";
  }
  os << "\n]}\n";
}

std::string to_json(const CampaignResult& result) {
  std::ostringstream os;
  write_json(os, result);
  return os.str();
}

void write_csv(std::ostream& os, const CampaignResult& result) {
  os << "label,protocol,adversary,placement,width,height,r,metric,t,loss_p,"
        "retransmissions,reps,seed,runs,successes,correct_total,honest_total,"
        "wrong_total,rounds_total,transmissions_total,fault_total,"
        "min_coverage,max_nbd_faults,mean_coverage,mean_rounds,"
        "mean_transmissions,mean_fault_count";
  for_each_counter([&os](const char* name, auto, CounterMerge, bool) {
    os << ',' << name;
  });
  os << '\n';
  for (const CellResult& cell : result.cells) {
    const SimConfig& sim = cell.cell.sim;
    const Aggregate& agg = cell.aggregate;
    std::string label = cell.cell.label;
    for (char& c : label) {
      if (c == ',' || c == '\n') c = ' ';  // keep the CSV single-token simple
    }
    os << label << ',' << to_string(sim.protocol) << ','
       << to_string(sim.adversary) << ',' << to_string(cell.cell.placement.kind)
       << ',' << sim.width << ',' << sim.height << ',' << sim.r << ','
       << to_string(sim.metric) << ',' << sim.t << ','
       << json_number(sim.loss_p) << ',' << sim.retransmissions << ','
       << cell.cell.reps << ',' << sim.seed << ',' << agg.runs << ','
       << agg.successes << ',' << agg.correct_total << ',' << agg.honest_total
       << ',' << agg.wrong_total << ',' << agg.rounds_total << ','
       << agg.transmissions_total << ',' << agg.fault_total << ','
       << json_number(agg.min_coverage) << ',' << agg.max_nbd_faults << ','
       << json_number(agg.mean_coverage()) << ','
       << json_number(agg.mean_rounds()) << ','
       << json_number(agg.mean_transmissions()) << ','
       << json_number(agg.mean_fault_count());
    for_each_counter([&](const char*, auto field, CounterMerge, bool) {
      os << ',' << agg.counters_total.*field;
    });
    os << '\n';
  }
}

std::string to_csv(const CampaignResult& result) {
  std::ostringstream os;
  write_csv(os, result);
  return os.str();
}

void write_summary(std::ostream& os, const CampaignResult& result) {
  os << "campaign: " << result.cells.size() << " cells, "
     << result.trial_count << " trials, " << result.workers_used
     << " worker" << (result.workers_used == 1 ? "" : "s") << ", "
     << format_double(result.wall_seconds, 3) << " s wall ("
     << format_double(result.trials_per_second(), 1) << " trials/s)\n";
  if (result.replayed_trials > 0 || result.failed_trials() > 0) {
    const Counters& counters = result.total().counters_total;
    os << "fault tolerance: " << result.replayed_trials
       << " trials replayed from journal, " << result.failed_trials()
       << " failed (" << counters.trial_timeouts << " timeouts), "
       << counters.trial_retries << " retries\n";
  }
  // Per-trial phase split (wall-clock, nondeterministic — summary only).
  const PhaseTimers& t = result.total().timers_total;
  const double cpu = t.total_seconds();
  if (cpu > 0.0 && result.trial_count > 0) {
    const double n = static_cast<double>(result.trial_count);
    os << "phases: setup " << format_double(t.setup_seconds / n * 1e3, 3)
       << " ms/trial, rounds " << format_double(t.rounds_seconds / n * 1e3, 3)
       << " ms/trial, verdict "
       << format_double(t.verdict_seconds / n * 1e3, 3) << " ms/trial\n";
  }
  // Memory: the deterministic analytical engine peak (largest single trial)
  // next to the OS's view of the whole process (nondeterministic, so like
  // wall_seconds it appears only here, never in the JSON/CSV payload).
  const std::uint64_t engine_peak =
      result.total().counters_total.engine_bytes_peak;
  if (engine_peak > 0) {
    os << "memory: engine peak "
       << format_double(static_cast<double>(engine_peak) / (1024.0 * 1024.0),
                        1)
       << " MiB/trial";
    if (const std::uint64_t rss = peak_rss_bytes(); rss > 0) {
      os << ", process peak RSS "
         << format_double(static_cast<double>(rss) / (1024.0 * 1024.0), 1)
         << " MiB";
    }
    os << '\n';
  }
}

}  // namespace rbcast
