#!/usr/bin/env python3
"""Compare, check and summarize runs of the repo benchmark (README.md here).

  compare.py PARENT CHANGE     judge a change against its parent commit
  compare.py --spread RUNS     spread of one set of runs, per metric
  compare.py --check-runs RUNS check result files against BENCHMARK.json
  compare.py --selftest        feed in a synthetic regression and a clean run

PARENT, CHANGE and RUNS are directories of run files written by
`run.sh --out DIR` (<workload>-s<seed>-t<trace>.json) or JSONL files with
one such record per line. Only untraced runs (trace 0) are compared.

The verdict follows the benchmark's rule for claiming a gain. Runs pair up
by (workload, seed); make them alternating, parent and change in turn, and
make at least ten pairs per workload. For each workload and end-to-end
metric the row gives both sides' median and quartiles and one verdict:

  regression  the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json, or more runs failed;
              setup_s must also be worse by more than its 0.02 s floor
  unresolved  a side's quartile distance exceeds what the bound (and
              floor) allows and not every change run beats every parent run
  gain        the change wins at least 9 of 10 pairs and the medians differ
              by more than the parent's quartile distance
  same        none of the above

Exit status: 0 when nothing regressed, 1 on a regression or a failed check,
2 on bad input.
"""

import argparse
import json
import os
import random
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")
MIN_PAIRS = 10
# Absolute floors under the relative bounds, in the metric's unit. A set-up
# of a few milliseconds is mostly process start, so only a change of more
# than 20 ms counts there.
FLOORS = {"setup_s": 0.02}


def load_benchmark():
    with open(BENCHMARK) as f:
        return json.load(f)


def load_runs(path):
    """Run records from a directory of run files or a JSONL file."""
    records = []
    if os.path.isdir(path):
        for name in sorted(os.listdir(path)):
            if name.endswith(".json") and not name.endswith(".spans.json"):
                with open(os.path.join(path, name)) as f:
                    records.append(json.load(f))
    else:
        with open(path) as f:
            records = [json.loads(line) for line in f if line.strip()]
    return records


def by_workload(records, trace=0):
    """{workload: {seed: result}} over the records with the given trace."""
    out = {}
    for rec in records:
        if rec["trace"] == trace:
            out.setdefault(rec["workload"], {})[rec["seed"]] = rec["result"]
    return out


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def allowed(metric, median):
    """The change a metric may show at this median without counting: its
    bound as a share of the median, but never less than its floor."""
    return max(metric["bound"] * median, FLOORS.get(metric["name"], 0.0))


def judge(parent, change, metric):
    """Verdict for one metric over paired value lists."""
    direction = metric["better"]
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    sign = 1.0 if direction == "lower" else -1.0
    worse = sign * (c_med - p_med) / p_med if p_med else 0.0
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    all_better = all(better(c, p, direction) for p in parent for c in change)
    wide = (p_q3 - p_q1 > allowed(metric, p_med) or
            c_q3 - c_q1 > allowed(metric, c_med))
    if sign * (c_med - p_med) > allowed(metric, p_med):
        verdict = "regression"
    elif wide and not all_better:
        verdict = "unresolved"
    elif (wins >= 0.9 * len(parent) and better(c_med, p_med, direction)
          and abs(c_med - p_med) > p_q3 - p_q1):
        verdict = "gain"
    else:
        verdict = "same"
    return {
        "verdict": verdict, "worse": worse, "wins": wins,
        "parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
    }


def compare(parent_records, change_records, bench, out=sys.stdout):
    """Prints one row per workload; returns True when nothing regressed."""
    parent = by_workload(parent_records)
    change = by_workload(change_records)
    ok = True
    for workload in [w["name"] for w in bench["workloads"]]:
        seeds = sorted(set(parent.get(workload, {})) &
                       set(change.get(workload, {})))
        if len(seeds) < MIN_PAIRS:
            print(f"{workload}: {len(seeds)} pairs, need {MIN_PAIRS}",
                  file=out)
            ok = False
            continue
        p_runs = [parent[workload][s] for s in seeds]
        c_runs = [change[workload][s] for s in seeds]
        cells = []
        p_failed = sum(r["failed"] for r in p_runs)
        c_failed = sum(r["failed"] for r in c_runs)
        if c_failed > p_failed:
            cells.append(f"failed {p_failed}->{c_failed} regression")
            ok = False
        for metric in bench["end_to_end"]:
            name = metric["name"]
            res = judge([r["metrics"][name]["value"] for r in p_runs],
                        [r["metrics"][name]["value"] for r in c_runs], metric)
            ok = ok and res["verdict"] != "regression"
            p, c = res["parent"], res["change"]
            cells.append(
                f"{name} {p[1]:.6g} [{p[0]:.6g},{p[2]:.6g}] -> "
                f"{c[1]:.6g} [{c[0]:.6g},{c[2]:.6g}] "
                f"{res['worse']:+.1%} worse, {res['wins']}/{len(seeds)} wins: "
                f"{res['verdict']}")
        print(f"{workload} ({len(seeds)} pairs): " + "; ".join(cells),
              file=out)
    return ok


def report_spread(records, bench, out=sys.stdout):
    """Quartile spread of every end-to-end metric; True when each is within
    its bound (setup_s excepted, as in the acceptance rule)."""
    runs = by_workload(records)
    ok = True
    for workload in [w["name"] for w in bench["workloads"]]:
        results = list(runs.get(workload, {}).values())
        if not results:
            print(f"{workload}: no runs", file=out)
            ok = False
            continue
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, med, q3 = quartiles(values)
            s = spread(values)
            flag = ("over bound" if s > metric["bound"]
                    else "over a third" if s > metric["bound"] / 3 else "ok")
            if s > metric["bound"] and metric["name"] != "setup_s":
                ok = False
            print(f"{workload} {metric['name']} n={len(values)} "
                  f"median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
                  f"spread={s:.2%} bound={metric['bound']:.0%} {flag}",
                  file=out)
    return ok


def check_runs(records, bench, out=sys.stdout):
    """Every run passed its oracles and reports exactly the metrics and units
    BENCHMARK.json lists for its mode."""
    ok = bool(records)
    for rec in records:
        res = rec["result"]
        defs = bench["per_layer" if rec["trace"] else "end_to_end"]
        want = {m["name"]: m["unit"] for m in defs}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        problems = []
        if set(res) != {"correct", "attempted", "failed", "metrics"}:
            problems.append("result keys")
        if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
            problems.append("oracle failure")
        if got != want:
            problems.append("metrics differ from BENCHMARK.json")
        if problems:
            ok = False
            print(f"{rec['workload']} seed {rec['seed']} trace {rec['trace']}:"
                  f" {', '.join(problems)}", file=out)
    return ok


def synthetic_set(bench, rng, scale=None):
    """Ten runs per workload with ~2% noise; `scale` multiplies one metric."""
    records = []
    for w in bench["workloads"]:
        for seed in range(1, 11):
            metrics = {}
            for m in bench["end_to_end"]:
                value = 100.0 * (1.0 + rng.gauss(0.0, 0.02))
                if scale and m["name"] == scale[0]:
                    value *= scale[1]
                metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            records.append({"workload": w["name"], "seed": seed, "trace": 0,
                            "result": {"correct": True, "attempted": 10,
                                       "failed": 0, "metrics": metrics}})
    return records


def selftest(bench):
    rng = random.Random(7)
    sink = open(os.devnull, "w")
    parent = synthetic_set(bench, rng)
    metric = next(m for m in bench["end_to_end"] if m["name"] != "setup_s")
    worse = 1.3 if metric["better"] == "lower" else 0.7
    cases = [
        ("clean run", synthetic_set(bench, rng), True),
        ("regression", synthetic_set(bench, rng, (metric["name"], worse)),
         False),
    ]
    passed = True
    for label, change, expect_ok in cases:
        got = compare(parent, change, bench, out=sink)
        print(f"selftest {label}: {'no regression' if got else 'regression'}"
              f" ({'as expected' if got == expect_ok else 'WRONG'})")
        passed = passed and got == expect_ok
    gain = judge([1.0 + 0.01 * i for i in range(10)],
                 [0.8 + 0.01 * i for i in range(10)],
                 {"name": "cpu_ms_per_trial", "better": "lower", "bound": 0.1})
    print(f"selftest gain: {gain['verdict']}")
    passed = passed and gain["verdict"] == "gain"
    # 3 ms -> 4 ms of set-up is 33% worse but under the 0.02 s floor.
    floor = judge([0.003 + 0.0001 * i for i in range(10)],
                  [0.004 + 0.0001 * i for i in range(10)],
                  {"name": "setup_s", "better": "lower", "bound": 0.1})
    print(f"selftest setup_s floor: {floor['verdict']}")
    passed = passed and floor["verdict"] != "regression"
    return passed


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("sets", nargs="*", help="PARENT CHANGE")
    ap.add_argument("--spread", metavar="RUNS")
    ap.add_argument("--check-runs", metavar="RUNS")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    bench = load_benchmark()
    if args.selftest:
        ok = selftest(bench)
    elif args.spread:
        ok = report_spread(load_runs(args.spread), bench)
    elif args.check_runs:
        ok = check_runs(load_runs(args.check_runs), bench)
    elif len(args.sets) == 2:
        ok = compare(load_runs(args.sets[0]), load_runs(args.sets[1]), bench)
    else:
        ap.print_usage(sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
