// E6 — Reproduces the communication-overhead claim of Section VI-B / the
// Section III comparison with [Pelc-Peleg05]: the two-hop variant "localizes
// the circulation of indirect reports, and thus reduces communication
// overhead", and the earmarked 4-hop mode (the paper's state-reduction
// remark) collapses the flood.
//
// Fault-free runs on a common torus, all protocols; reported per protocol:
// transmissions total / per node, deliveries, rounds to quiescence.

#include <iostream>

#include "radiobcast/core/analysis.h"
#include "radiobcast/core/simulation.h"
#include "radiobcast/util/table.h"

int main() {
  using namespace rbcast;
  std::cout << "E6: message overhead by protocol (fault-free, L-infinity)\n\n";

  bool shape_ok = true;
  for (std::int32_t r = 1; r <= 2; ++r) {
    SimConfig base;
    base.r = r;
    base.width = base.height = 8 * r + 4;
    base.metric = Metric::kLInf;
    base.t = byz_linf_achievable_max(r);
    base.adversary = AdversaryKind::kSilent;
    base.seed = 3;

    const double nodes = static_cast<double>(base.width) * base.height;
    std::cout << "r=" << r << ", " << base.width << "x" << base.height
              << " torus (" << nodes << " nodes), t=" << base.t << "\n";
    Table table({"protocol", "rounds", "transmissions", "tx per node",
                 "payload units", "deliveries", "success"});

    double tx_crash = 0, tx_cpa = 0, tx_2hop = 0, tx_flood = 0, tx_earm = 0;
    std::vector<ProtocolKind> kinds = {ProtocolKind::kCrashFlood,
                                       ProtocolKind::kCpa,
                                       ProtocolKind::kBvTwoHop,
                                       ProtocolKind::kBvIndirectEarmarked};
    // The faithful flood is exponential in relays; keep it to r=1.
    if (r == 1) kinds.push_back(ProtocolKind::kBvIndirectFlood);

    for (const ProtocolKind kind : kinds) {
      SimConfig cfg = base;
      cfg.protocol = kind;
      // CPA and crash flood run with their own sound budgets.
      if (kind == ProtocolKind::kCrashFlood) cfg.t = 0;
      if (kind == ProtocolKind::kCpa) cfg.t = cpa_linf_achievable_max(r);
      const SimResult res = run_simulation(cfg, FaultSet{});
      const double tx = static_cast<double>(res.transmissions);
      table.row()
          .cell(to_string(kind))
          .cell(res.rounds)
          .cell(res.transmissions)
          .cell(tx / nodes, 2)
          .cell(res.payload_units)
          .cell(res.counters.envelopes_delivered)
          .cell(res.success());
      if (!res.success()) shape_ok = false;
      switch (kind) {
        case ProtocolKind::kCrashFlood: tx_crash = tx; break;
        case ProtocolKind::kCpa: tx_cpa = tx; break;
        case ProtocolKind::kBvTwoHop: tx_2hop = tx; break;
        case ProtocolKind::kBvIndirectFlood: tx_flood = tx; break;
        case ProtocolKind::kBvIndirectEarmarked: tx_earm = tx; break;
      }
    }
    table.print(std::cout);

    // Expected ordering: crash <= cpa <= 2hop <= earmarked (<= flood at r=1).
    if (!(tx_crash <= tx_cpa && tx_cpa <= tx_2hop && tx_2hop <= tx_earm)) {
      shape_ok = false;
    }
    if (r == 1 && tx_flood < tx_earm) shape_ok = false;
    if (r == 1) {
      std::cout << "earmarked / flood transmission ratio: "
                << (tx_flood > 0 ? tx_earm / tx_flood : 0.0) << "\n";
    }
    std::cout << "\n";
  }

  std::cout << (shape_ok
                    ? "SHAPE MATCHES PAPER: indirect reports cost more than "
                      "CPA, earmarking collapses the 4-hop flood\n"
                    : "SHAPE MISMATCH — see rows above\n");
  return shape_ok ? 0 : 1;
}
