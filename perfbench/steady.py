#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seed-base 100]
                                [--trace 0] [--save FILE] [--compare FILE]

Runs every workload --runs times, each run with its own seed, alternating
the workload order from one pass to the next. For each metric it prints the
median and the interquartile spread (q3 - q1, as statistics.quantiles(n=4)
gives them) as a share of the median, next to the metric's bound in
BENCHMARK.json. A spread below a third of the bound is marked "steady"; the
bounds were set from these figures, and the same command re-checks them.

--save writes the raw results as JSON; --compare reads such a file and
reports, per metric, how far this set's median moved from the saved one in
the metric's "worse" direction (setup_s included), plus whether the share
of failed operations is identical.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("%s seed %d failed (exit %d)"
                         % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--save")
    parser.add_argument("--compare")
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    results = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            r = run_once(w, args.seed_base + i, args.seconds, args.trace)
            results[w].append(r)
            print("run %2d %-14s seed %d  %.1f s  correct=%s attempted=%d "
                  "failed=%d" % (i, w, args.seed_base + i, r["wall_s"],
                                 r["correct"], r["attempted"], r["failed"]),
                  flush=True)

    previous = json.loads(Path(args.compare).read_text()) if args.compare else None
    all_ok = True
    for w in workloads:
        runs = results[w]
        print("\n== %s (%d runs, wall %.1f-%.1f s)"
              % (w, len(runs), min(r["wall_s"] for r in runs),
                 max(r["wall_s"] for r in runs)))
        shares = {r["failed"] / r["attempted"] for r in runs}
        print("  failed share per run: %s" % sorted(shares))
        all_ok &= all(r["correct"] for r in runs) and len(shares) == 1
        for m in metrics:
            name = m["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            if len(values) < 2:
                continue
            med, q1, q3, share = spread(values)
            bound = m.get("bound")
            verdict = ""
            if bound is not None and name != "setup_s":
                verdict = "steady" if share < bound / 3 else (
                    "within bound" if share <= bound else "TOO WIDE")
                all_ok &= share <= bound
            line = "  %-34s median %14.6f  q1 %14.6f  q3 %14.6f  spread %6.2f%%" % (
                name, med, q1, q3, 100 * share)
            if bound is not None:
                line += "  bound %5.1f%%  %s" % (100 * bound, verdict)
            if previous is not None and w in previous:
                old = statistics.median(
                    r["metrics"][name]["value"] for r in previous[w])
                worse = (med - old) / old if m["better"] == "lower" else (
                    old - med) / old
                line += "  vs saved %+6.2f%% worse" % (100 * worse)
                if bound is not None and worse > bound:
                    line += " REGRESSED"
                    all_ok = False
            print(line)
        if previous is not None and w in previous:
            old_shares = {r["failed"] / r["attempted"] for r in previous[w]}
            same = old_shares == shares
            print("  failed share identical to saved set: %s" % same)
            all_ok &= same
    if args.save:
        Path(args.save).write_text(json.dumps(results))
    print("\nall checks passed" if all_ok else "\nSOME CHECKS FAILED")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
