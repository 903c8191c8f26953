#pragma once
// Result sinks for campaign runs: JSON and CSV writers (no external
// dependencies) plus a human-readable run summary.
//
// The JSON/CSV payload is deliberately a pure function of the campaign's
// deterministic results — wall-clock and worker-count stats are excluded —
// so two runs of the same spec at different worker counts serialize to
// byte-identical files. The determinism test in tests/test_campaign.cpp
// asserts exactly that.

#include <iosfwd>
#include <string>

#include "radiobcast/campaign/engine.h"

namespace rbcast {

/// Writes the campaign as a JSON document:
/// {
///   "schema": "radiobcast-campaign-v5",
///   "trials": N,
///   "cells": [
///     {"label": ..., "params": {protocol, adversary, placement, width,
///      height, r, metric, t, loss_p, retransmissions, reps, seed},
///      "seeds": [...],
///      "aggregate": {runs, successes, correct_total, honest_total,
///       wrong_total, rounds_total, transmissions_total, fault_total,
///       min_coverage, max_nbd_faults, mean_coverage, mean_rounds,
///       mean_transmissions, mean_fault_count,
///       "counters": {every Counters field, named and ordered as
///        for_each_counter (obs/counters.h) lists it}},
///      "failures": [{"rep", "attempts", "seed", "kind", "what"}, ...]},
///     ...]
/// }
/// (v2 = v1 plus the per-cell summed observability counters; v3 adds the
/// structured per-cell `failures` array and the three fault-tolerance
/// counters; v4 the runtime chaos/recovery counters; v5 engine_bytes_peak.
/// `aggregate.runs` counts completed trials only, so it can be below
/// `params.reps` when failures were kept. Wall-clock phase timings remain
/// excluded: they are not deterministic.)
void write_json(std::ostream& os, const CampaignResult& result);
std::string to_json(const CampaignResult& result);

/// Writes one CSV row per cell with the same params + aggregate columns; the
/// counter columns follow for_each_counter's order.
void write_csv(std::ostream& os, const CampaignResult& result);
std::string to_csv(const CampaignResult& result);

/// One-paragraph human summary: cells, trials, workers, wall-clock,
/// throughput. This is where the non-deterministic stats go.
void write_summary(std::ostream& os, const CampaignResult& result);

/// JSON string escaping (quotes, backslashes, control characters).
std::string json_escape(std::string_view s);

/// Deterministic number formatting: integers render without a decimal point,
/// everything else with up to 17 significant digits (round-trip exact).
std::string json_number(double value);

}  // namespace rbcast
