#!/usr/bin/env python3
"""Repeated-run steadiness check for perfbench.

Runs the benchmark once per seed on one workload, then prints, for every
end-to-end metric, the median, the quartiles and the spread (distance
between the quartiles as a share of the median), with the bound from
BENCHMARK.json beside it. The feed digest of every run is printed too, so
two sets of runs can be shown to have had identical inputs, and so is the
largest share of CPU time the hypervisor stole during any of the run's
passes (the run-to-run noise on a shared virtual machine) and how many
passes the run used. Each run measures for BENCHMARK.json's run_seconds.

Run from the repository root:

    python3 perfbench/steady.py --workload large --seeds 1-10
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
import time


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    runs = []
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        t0 = time.time()
        p = subprocess.run(cmd, capture_output=True, text=True)
        took = time.time() - t0
        if p.returncode != 0:
            sys.stderr.write(p.stderr[-4000:])
            sys.exit(f"seed {seed}: exit {p.returncode}")
        res = json.loads(p.stdout.strip().splitlines()[-1])
        feed = re.search(r"feed sha256 (\w+)", p.stderr)
        steal = max(float(s) for s in re.findall(r"steal ([0-9.]+)", p.stderr))
        used = re.search(r"(\d+ of \d+) passes used", p.stderr).group(1)
        runs.append({k: v["value"] for k, v in res["metrics"].items()})
        print(f"seed {seed}: {took:.1f}s feed {feed and feed.group(1)} steal {steal:.3f} passes used {used} "
              f"correct={res['correct']} attempted={res['attempted']} failed={res['failed']}", flush=True)

    print(f"\n{args.workload}: {len(runs)} runs")
    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in sorted(bounds):
        vals = [r[name] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "" if spread <= bounds[name]["bound"] / 3 else "  <-- above bound/3"
        print(f"{name:28} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} {bounds[name]['bound']:6.2f}{flag}")


if __name__ == "__main__":
    main()
