#!/usr/bin/env python3
"""Check that the benchmark is steady: two sets of runs of one build.

Usage (from the repository root):

  python3 perfbench/steadiness.py [--workloads a,b] [--runs 10] [--sets 2]
                                  [--seconds S] [--trace 0|1]
  python3 perfbench/steadiness.py --held-out --workloads a

Every run uses its own seed (set k, run i uses seed 1 + k*runs + i), and
runs of different workloads are interleaved. For each set the script
prints each metric's median, first and third quartile
(statistics.quantiles(n=4)) and spread = (Q3 - Q1) / median; then the
drift of the second set's median from the first, signed so that
positive is worse. A spread above a third of the metric's bound is
marked "wide", one above the bound "FAIL"; a drift worse than the bound
is "FAIL". setup_s is exempt from the spread check only. The report is
also written as JSON under .bench_build/steadiness/.

--held-out runs only HELD_OUT_SEED, which tuning never uses, so a
performance claim can be re-checked on a seed it was not fitted to.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HELD_OUT_SEED = 90210


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: correctness check failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf"),
            "values": values}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--held-out", action="store_true",
                   help=f"one run per workload on seed {HELD_OUT_SEED}")
    args = p.parse_args()
    workloads = args.workloads.split(",")
    group = "per_layer" if args.trace else "end_to_end"
    defs = {m["name"]: m for m in bench[group]}

    if args.held_out:
        for w in workloads:
            print(w, json.dumps(run_once(w, HELD_OUT_SEED, args.seconds,
                                         args.trace)))
        return 0
    if args.runs < 4:
        p.error("--runs must be at least 4 for quartiles")

    # samples[workload][set] = list of metric dicts
    samples = {w: [[] for _ in range(args.sets)] for w in workloads}
    for s in range(args.sets):
        for i in range(args.runs):
            seed = 1 + s * args.runs + i
            for w in workloads:
                samples[w][s].append(run_once(w, seed, args.seconds,
                                              args.trace))
                print(f"set {s + 1} run {i + 1}/{args.runs} {w} done",
                      file=sys.stderr, flush=True)

    report = {"runs": args.runs, "sets": args.sets, "seconds": args.seconds,
              "trace": args.trace, "workloads": {}}
    failed = False
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':40} {'set':>3} {'median':>14} {'q1':>14} "
              f"{'q3':>14} {'spread':>7} {'drift':>7}")
        report["workloads"][w] = {}
        for name, d in defs.items():
            sets = [summarize([r[name] for r in runs]) for runs in samples[w]]
            bound = d.get("bound")
            sign = 1 if d["better"] == "lower" else -1
            base = sets[0]["median"]
            rows = []
            for k, st in enumerate(sets):
                drift = (sign * (st["median"] - base) / abs(base)
                         if base else 0.0)
                st["drift"] = drift
                mark = ""
                if bound is not None:
                    if name != "setup_s" and st["spread"] > bound:
                        mark = "FAIL"
                    elif drift > bound:
                        mark = "FAIL"
                    elif name != "setup_s" and st["spread"] > bound / 3:
                        mark = "wide"
                failed |= mark == "FAIL"
                rows.append(st)
                print(f"  {name:40} {k + 1:>3} {st['median']:14.6g} "
                      f"{st['q1']:14.6g} {st['q3']:14.6g} "
                      f"{st['spread']:7.2%} {drift:+7.2%} {mark}")
            report["workloads"][w][name] = rows

    out = ROOT / ".bench_build" / "steadiness"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"steadiness-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nreport: {path.relative_to(ROOT)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
