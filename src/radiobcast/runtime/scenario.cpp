#include "radiobcast/runtime/scenario.h"

#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "radiobcast/util/rng.h"

namespace rbcast {

namespace {

[[noreturn]] void fail(int line, const std::string& what) {
  throw std::invalid_argument("scenario line " + std::to_string(line) + ": " +
                              what);
}

}  // namespace

FaultSet Scenario::fault_set() const {
  const Torus torus(sim.width, sim.height);
  return FaultSet(torus, faults);
}

std::uint64_t Scenario::chaos_seed() const {
  // Split the chaos stream off the protocol seed with a fixed tag so the two
  // never correlate, while keeping one-seed scenarios fully reproducible.
  return chaos.seed != 0 ? chaos.seed
                         : hash_seeds(sim.seed, 0x9e3779b97f4a7c15ULL);
}

ChaosOptions make_chaos_options(const Scenario& scenario, std::int32_t index) {
  ChaosOptions opts;
  opts.drop_p = scenario.chaos.drop_p;
  opts.duplicate_p = scenario.chaos.duplicate_p;
  opts.delay_p = scenario.chaos.delay_p;
  opts.delay = std::chrono::milliseconds(scenario.chaos.delay_ms);
  opts.seed = scenario.chaos_seed();
  const Torus torus(scenario.sim.width, scenario.sim.height);
  for (const ScenarioChaos::Partition& p : scenario.chaos.partitions) {
    ChaosOptions::Partition cp;
    cp.from = static_cast<std::uint32_t>(torus.index(torus.wrap(p.from)));
    cp.to = static_cast<std::uint32_t>(torus.index(torus.wrap(p.to)));
    cp.start_ms = p.start_ms;
    cp.end_ms = p.end_ms;
    opts.partitions.push_back(cp);
  }
  (void)index;  // ChaosTransport filters partitions by its own index
  return opts;
}

Scenario parse_scenario(std::istream& in) {
  Scenario s;
  std::string line;
  int lineno = 0;
  // Scalar keys may appear once; a silent second assignment is almost always
  // a hand-edited scenario gone wrong, so report both lines.
  std::map<std::string, int> first_seen;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key)) continue;  // blank / comment-only line

    if (key != "fault" && key != "partition") {
      const auto [it, inserted] = first_seen.emplace(key, lineno);
      if (!inserted) {
        fail(lineno, "duplicate key '" + key + "' (first on line " +
                         std::to_string(it->second) + ")");
      }
    }

    const auto want_i64 = [&](std::int64_t& out) {
      if (!(ls >> out)) fail(lineno, "expected an integer after '" + key + "'");
    };
    const auto want_i32 = [&](std::int32_t& out) {
      std::int64_t v = 0;
      want_i64(v);
      out = static_cast<std::int32_t>(v);
    };
    const auto want_f64 = [&](double& out) {
      if (!(ls >> out)) fail(lineno, "expected a number after '" + key + "'");
    };
    const auto want_p = [&](double& out) {
      want_f64(out);
      if (!(out >= 0.0 && out <= 1.0)) {
        fail(lineno, "'" + key + "' must be in [0,1]");
      }
    };

    if (key == "protocol") {
      std::string name;
      ls >> name;
      const auto p = protocol_from_string(name);
      if (!p) fail(lineno, "unknown protocol '" + name + "'");
      s.sim.protocol = *p;
    } else if (key == "adversary") {
      std::string name;
      ls >> name;
      const auto a = adversary_from_string(name);
      if (!a) fail(lineno, "unknown adversary '" + name + "'");
      s.sim.adversary = *a;
    } else if (key == "metric") {
      std::string name;
      ls >> name;
      const auto m = metric_from_string(name);
      if (!m) fail(lineno, "unknown metric '" + name + "'");
      s.sim.metric = *m;
    } else if (key == "width") {
      want_i32(s.sim.width);
    } else if (key == "height") {
      want_i32(s.sim.height);
    } else if (key == "r") {
      want_i32(s.sim.r);
    } else if (key == "t") {
      want_i64(s.sim.t);
    } else if (key == "value") {
      std::int64_t v = 0;
      want_i64(v);
      if (v != 0 && v != 1) fail(lineno, "value must be 0 or 1");
      s.sim.value = static_cast<std::uint8_t>(v);
    } else if (key == "source") {
      want_i32(s.sim.source.x);
      want_i32(s.sim.source.y);
    } else if (key == "seed") {
      std::int64_t v = 0;
      want_i64(v);
      s.sim.seed = static_cast<std::uint64_t>(v);
    } else if (key == "crash_round") {
      want_i64(s.sim.crash_round);
    } else if (key == "max_rounds") {
      want_i64(s.sim.max_rounds);
    } else if (key == "loss_p") {
      want_p(s.sim.loss_p);
    } else if (key == "jam_budget") {
      want_i64(s.sim.jam_budget);
    } else if (key == "round_timeout_ms") {
      want_i64(s.round_timeout_ms);
    } else if (key == "linger_timeout_ms") {
      want_i64(s.linger_timeout_ms);
    } else if (key == "suspect_after") {
      want_i64(s.suspect_after);
      if (s.suspect_after < 0) fail(lineno, "suspect_after must be >= 0");
    } else if (key == "base_port") {
      std::int64_t v = 0;
      want_i64(v);
      if (v < 1024 || v > 65535) fail(lineno, "base_port out of range");
      s.base_port = static_cast<std::uint16_t>(v);
    } else if (key == "chaos_drop_p") {
      want_p(s.chaos.drop_p);
    } else if (key == "chaos_dup_p") {
      want_p(s.chaos.duplicate_p);
    } else if (key == "chaos_delay_p") {
      want_p(s.chaos.delay_p);
    } else if (key == "chaos_delay_ms") {
      want_i64(s.chaos.delay_ms);
      if (s.chaos.delay_ms < 0) fail(lineno, "chaos_delay_ms must be >= 0");
    } else if (key == "chaos_seed") {
      std::int64_t v = 0;
      want_i64(v);
      s.chaos.seed = static_cast<std::uint64_t>(v);
    } else if (key == "partition") {
      ScenarioChaos::Partition p;
      want_i32(p.from.x);
      want_i32(p.from.y);
      want_i32(p.to.x);
      want_i32(p.to.y);
      // Optional window; default is a permanent blackout.
      if (ls >> p.start_ms) {
        if (!(ls >> p.end_ms)) {
          fail(lineno, "partition window needs both start_ms and end_ms");
        }
      }
      s.chaos.partitions.push_back(p);
    } else if (key == "crash_node") {
      Coord c{};
      want_i32(c.x);
      want_i32(c.y);
      s.crash_node = c;
    } else if (key == "crash_at_round") {
      want_i64(s.crash_at_round);
      if (s.crash_at_round < 0) fail(lineno, "crash_at_round must be >= 0");
    } else if (key == "restart_after_ms") {
      want_i64(s.restart_after_ms);
    } else if (key == "state_dir") {
      if (!(ls >> s.state_dir)) {
        fail(lineno, "expected a path after 'state_dir'");
      }
    } else if (key == "shared_socket") {
      std::int64_t v = 0;
      want_i64(v);
      if (v != 0 && v != 1) fail(lineno, "shared_socket must be 0 or 1");
      s.shared_socket = v != 0;
    } else if (key == "fault") {
      Coord c{};
      want_i32(c.x);
      want_i32(c.y);
      s.faults.push_back(c);
    } else {
      fail(lineno, "unknown key '" + key + "'");
    }
    std::string trailing;
    if (ls >> trailing) fail(lineno, "trailing tokens after '" + key + "'");
  }
  if (s.sim.width < 1 || s.sim.height < 1) {
    throw std::invalid_argument("scenario: torus dimensions must be positive");
  }
  const Torus torus(s.sim.width, s.sim.height);
  for (Coord& c : s.faults) c = torus.wrap(c);
  for (ScenarioChaos::Partition& p : s.chaos.partitions) {
    p.from = torus.wrap(p.from);
    p.to = torus.wrap(p.to);
  }
  if (s.crash_node) s.crash_node = torus.wrap(*s.crash_node);
  s.sim.source = torus.wrap(s.sim.source);
  return s;
}

Scenario parse_scenario_string(const std::string& text) {
  std::istringstream in(text);
  return parse_scenario(in);
}

Scenario load_scenario(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open scenario file: " + path);
  return parse_scenario(in);
}

void write_scenario(std::ostream& out, const Scenario& s) {
  // max_digits10 makes the probability fields round-trip bit-exactly.
  out << std::setprecision(std::numeric_limits<double>::max_digits10)
      << "protocol " << to_string(s.sim.protocol) << '\n'
      << "adversary " << to_string(s.sim.adversary) << '\n'
      << "width " << s.sim.width << '\n'
      << "height " << s.sim.height << '\n'
      << "r " << s.sim.r << '\n'
      << "metric " << to_string(s.sim.metric) << '\n'
      << "t " << s.sim.t << '\n'
      << "value " << static_cast<int>(s.sim.value) << '\n'
      << "source " << s.sim.source.x << ' ' << s.sim.source.y << '\n'
      << "seed " << s.sim.seed << '\n'
      << "crash_round " << s.sim.crash_round << '\n'
      << "max_rounds " << s.sim.max_rounds << '\n'
      << "loss_p " << s.sim.loss_p << '\n'
      << "jam_budget " << s.sim.jam_budget << '\n'
      << "round_timeout_ms " << s.round_timeout_ms << '\n'
      << "linger_timeout_ms " << s.linger_timeout_ms << '\n'
      << "suspect_after " << s.suspect_after << '\n'
      << "base_port " << s.base_port << '\n'
      << "chaos_drop_p " << s.chaos.drop_p << '\n'
      << "chaos_dup_p " << s.chaos.duplicate_p << '\n'
      << "chaos_delay_p " << s.chaos.delay_p << '\n'
      << "chaos_delay_ms " << s.chaos.delay_ms << '\n'
      << "chaos_seed " << s.chaos.seed << '\n'
      << "crash_at_round " << s.crash_at_round << '\n'
      << "restart_after_ms " << s.restart_after_ms << '\n'
      << "shared_socket " << (s.shared_socket ? 1 : 0) << '\n';
  if (s.crash_node) {
    out << "crash_node " << s.crash_node->x << ' ' << s.crash_node->y << '\n';
  }
  if (!s.state_dir.empty()) out << "state_dir " << s.state_dir << '\n';
  for (const ScenarioChaos::Partition& p : s.chaos.partitions) {
    out << "partition " << p.from.x << ' ' << p.from.y << ' ' << p.to.x << ' '
        << p.to.y << ' ' << p.start_ms << ' ' << p.end_ms << '\n';
  }
  for (const Coord& c : s.faults) {
    out << "fault " << c.x << ' ' << c.y << '\n';
  }
}

}  // namespace rbcast
