#!/usr/bin/env python3
"""Steadiness tooling for the benchmark.

Run a workload N times, each with its own seed, and print every
end-to-end metric's median, quartiles, spread and worst deviation
against the bound in BENCHMARK.json:

    python3 perfbench/steady.py run --workload census --runs 10 --out a.json

Compare two such sets (the same code measured twice, or parent vs
change): the second set's median must not be worse than the first's by
more than the bound.

    python3 perfbench/steady.py compare a.json b.json

Spread is (Q3 - Q1) / median with statistics.quantiles(values, n=4).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd), proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("incorrect run: %s\n%s" % (" ".join(cmd), proc.stdout))
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / med if med else float("inf"),
        "worst": max(abs(v - med) for v in values) / med if med else float("inf"),
    }


def report(workload, runs, metrics):
    print("%s: %d runs" % (workload, len(runs)))
    print("  %-18s %12s %12s %12s %8s %8s %6s  verdict" %
          ("metric", "median", "q1", "q3", "spread", "worst", "bound"))
    ok = True
    for m in metrics:
        s = summarize([r["metrics"][m["name"]] for r in runs])
        bound = m["bound"]
        if m["name"] == "setup_s":
            verdict = "median-checked only"
        elif s["spread"] <= bound / 3:
            verdict = "steady"
        elif s["spread"] <= bound:
            verdict = "within bound"
        else:
            verdict = "TOO NOISY"
            ok = False
        print("  %-18s %12.6g %12.6g %12.6g %7.1f%% %7.1f%% %5.0f%%  %s" %
              (m["name"], s["median"], s["q1"], s["q3"], 100 * s["spread"],
               100 * s["worst"], 100 * bound, verdict))
    return ok


def cmd_run(args):
    metrics = spec()["end_to_end"]
    workloads = ([w["name"] for w in spec()["workloads"]]
                 if args.workload == "all" else [args.workload])
    doc = {"seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            runs.append({"seed": seed,
                         "metrics": run_once(workload, seed, args.seconds, 0)})
            print("  %s seed %d: %s" % (workload, seed, json.dumps(runs[-1]["metrics"])),
                  flush=True)
        doc["workloads"][workload] = runs
        ok = report(workload, runs, metrics) and ok
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
    return 0 if ok else 1


def cmd_compare(args):
    metrics = spec()["end_to_end"]
    with open(args.first) as f:
        first = json.load(f)["workloads"]
    with open(args.second) as f:
        second = json.load(f)["workloads"]
    ok = True
    print("  %-18s %-18s %12s %12s %8s %6s  verdict" %
          ("workload", "metric", "first", "second", "worse", "bound"))
    for workload in sorted(set(first) & set(second)):
        for m in metrics:
            a = statistics.median(r["metrics"][m["name"]] for r in first[workload])
            b = statistics.median(r["metrics"][m["name"]] for r in second[workload])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            verdict = "ok" if worse <= m["bound"] else "REGRESSED"
            ok = ok and verdict == "ok"
            print("  %-18s %-18s %12.6g %12.6g %7.1f%% %5.0f%%  %s" %
                  (workload, m["name"], a, b, 100 * worse, 100 * m["bound"], verdict))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run a workload N times")
    run.add_argument("--workload", required=True, help="a workload name, or all")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--seconds", type=int, default=spec()["run_seconds"])
    run.add_argument("--out", help="write the runs as JSON for compare")
    cmp_ = sub.add_parser("compare", help="compare two sets of runs")
    cmp_.add_argument("first")
    cmp_.add_argument("second")
    args = parser.parse_args()
    return cmd_run(args) if args.cmd == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
