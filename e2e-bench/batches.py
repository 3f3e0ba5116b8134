#!/usr/bin/env python3
"""Two batches of untraced runs per workload, and whether they agree.

    python3 e2e-bench/batches.py --log e2e-bench/target/runs.jsonl [--first-seed 301]
    python3 e2e-bench/batches.py --log e2e-bench/target/runs.jsonl --report-only

Run from the repository root. Batch 1 runs ten seeds from first-seed on
every workload of BENCHMARK.json, then batch 2 runs the ten seeds a
hundred higher the same way. Each run's result line is appended to the log,
so `--report-only` reprints the tables from it. Per workload the report
lists every run, then each batch's median and spread (the distance between
the first and third quartile over the median), the ratio of the medians,
and the check BENCHMARK.json's bounds imply: every spread but set-up's
within the bound, and the second median no worse than the first by more
than it. Where the log holds them, it adds each batch's median and spread
of the timings as measured on the wall clock, and of the host factor that
corrected them.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

SPEC = json.load(open("BENCHMARK.json"))
METRICS = SPEC["end_to_end"]
RUNS = 10


# Context-line fields kept beside the metrics: the timings as measured
# on the wall clock, and the host-speed correction applied to them.
WALL = ["wall_items_per_s", "wall_item_p50_ms", "wall_item_p99_ms", "wall_setup_s",
        "host_factor"]


def run(workload, seed):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    *_, info, result = out.strip().splitlines()
    info, result = json.loads(info), json.loads(result)
    assert result["correct"] and result["failed"] == 0, result
    return ({m: v["value"] for m, v in result["metrics"].items()},
            {k: info[k] for k in WALL})


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def report(runs):
    for workload in [w["name"] for w in SPEC["workloads"]]:
        mine = [r for r in runs if r["workload"] == workload]
        if not mine:
            continue
        names = [m["name"] for m in METRICS]
        print(f"\n### `{workload}`\n")
        print("| batch | seed | " + " | ".join(names) + " |")
        print("|---|---|" + "---|" * len(names))
        for r in mine:
            cells = [f"{r['metrics'][n]:.4g}" for n in names]
            print(f"| {r['batch']} | {r['seed']} | " + " | ".join(cells) + " |")
        batches = [[r["metrics"] for r in mine if r["batch"] == b] for b in (1, 2)]
        rows = {"median 1": [], "median 2": [], "ratio 2/1": [], "spread 1": [],
                "spread 2": [], "check": []}
        for m in METRICS:
            name, bound = m["name"], m["bound"]
            vals = [[v[name] for v in batch] for batch in batches]
            if not all(len(v) >= 2 for v in vals):
                continue
            med = [statistics.median(v) for v in vals]
            spreads = [spread(v) for v in vals]
            ratio = med[1] / med[0]
            worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
            fails = [f"spread {b + 1}" for b, s in enumerate(spreads)
                     if name != "setup_s" and s > bound]
            if worse > bound:
                fails.append("medians")
            rows["median 1"].append(f"{med[0]:.4g}")
            rows["median 2"].append(f"{med[1]:.4g}")
            rows["ratio 2/1"].append(f"{ratio:.3f}")
            rows["spread 1"].append(f"{spreads[0]:.3f}")
            rows["spread 2"].append(f"{spreads[1]:.3f}")
            rows["check"].append("OUT: " + ", ".join(fails) if fails else f"ok (bound {bound})")
        for label, cells in rows.items():
            if cells:
                print(f"| {label} | | " + " | ".join(cells) + " |")
        walls = [[r["wall"] for r in mine if r["batch"] == b and "wall" in r] for b in (1, 2)]
        if all(len(w) >= 2 for w in walls):
            print("\nOn the wall clock, as measured, and the host factor applied:\n")
            print("| | " + " | ".join(WALL) + " |")
            print("|---|" + "---|" * len(WALL))
            for b, batch in enumerate(walls):
                meds = [f"{statistics.median(w[k] for w in batch):.4g}" for k in WALL]
                spreads = [f"{spread([w[k] for w in batch]):.3f}" for k in WALL]
                print(f"| median {b + 1} | " + " | ".join(meds) + " |")
                print(f"| spread {b + 1} | " + " | ".join(spreads) + " |")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--log", required=True)
    p.add_argument("--first-seed", type=int, default=301)
    p.add_argument("--report-only", action="store_true")
    args = p.parse_args()
    if not args.report_only:
        os.makedirs(os.path.dirname(args.log) or ".", exist_ok=True)
        with open(args.log, "a") as log:
            for batch in (1, 2):
                for w in SPEC["workloads"]:
                    for i in range(RUNS):
                        seed = args.first_seed + 100 * (batch - 1) + i
                        metrics, wall = run(w["name"], seed)
                        entry = {"batch": batch, "workload": w["name"], "seed": seed,
                                 "metrics": metrics, "wall": wall}
                        log.write(json.dumps(entry) + "\n")
                        log.flush()
                        print(json.dumps(entry), file=sys.stderr, flush=True)
    with open(args.log) as log:
        report([json.loads(line) for line in log if line.strip()])


if __name__ == "__main__":
    main()
