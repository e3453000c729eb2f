#!/usr/bin/env python3
"""Run the benchmark on several seeds per workload and summarize it.

For each workload and end-to-end metric this prints and records the
median, the first and third quartiles (statistics.quantiles, n=4) and
the spread: the distance between the quartiles as a share of the
median, next to the metric's bound from BENCHMARK.json.

Run from the repository root:

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline/first.json
    python3 perfbench/baseline.py --workloads serve-read --seeds 1-5
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    start = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.time() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1]), wall


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default="", help="comma list (default: all in BENCHMARK.json)")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default="", help="write the summary JSON here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)

    summary = {
        "box": {"machine": platform.machine(), "cpus": os.cpu_count(), "python": platform.python_version()},
        "run_seconds": bench["run_seconds"],
        "seeds": seeds,
        "trace": args.trace,
        "workloads": {},
    }
    for wl in workloads:
        runs = []
        for seed in seeds:
            res, wall = run_once(bench, wl, seed, args.trace)
            runs.append({"seed": seed, "wall_s": round(wall, 1), "result": res})
            print(f"{wl} seed {seed}: {wall:.1f}s correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)
        table = {}
        for m in metrics:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            s = summarize(vals) if len(vals) >= 2 else {"median": vals[0], "values": vals}
            if "bound" in m:
                s["bound"] = m["bound"]
            table[m["name"]] = s
            if "spread" in s:
                bound = s.get("bound")
                flag = "" if bound is None else ("  within a third of bound" if s["spread"] < bound / 3
                                                  else ("  within bound" if s["spread"] <= bound else "  OVER BOUND"))
                print(f"  {m['name']:<36} median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                      f"spread {s['spread']:.4f}{'' if bound is None else f' bound {bound}'}{flag}")
        summary["workloads"][wl] = {"runs": runs, "metrics": table,
                                    "max_wall_s": max(r["wall_s"] for r in runs)}
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
