#!/usr/bin/env python3
"""Run-to-run spread of the consult benchmark.

Runs one workload with consecutive seeds, the way BENCHMARK.json's
command is run, and prints for every end-to-end metric the median and the
quartile spread (Q3 - Q1) / median, computed with
statistics.quantiles(values, n=4). The raw wall-clock figures each run
prints before its result line are summarised the same way, so the effect
of the host-corrected clock can be read off side by side.

Usage, from the root of the repository:

    python3 consultbench/spread.py --workload solve_mix --runs 5 \
        --seconds 10 [--first-seed 1] [--json out.json]
"""

import argparse
import json
import statistics
import subprocess
import sys

BENCH = json.load(open("BENCHMARK.json"))


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("nan")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--json")
    args = p.parse_args()

    corrected, raw = {}, {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = BENCH["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", "0",
        ]
        out = subprocess.run(cmd, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            corrected.setdefault(name, []).append(m["value"])
        for line in lines:
            if line.startswith("raw: "):
                for name, v in json.loads(line[5:]).items():
                    raw.setdefault(name, []).append(v)
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            file=sys.stderr)

    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    report = {"workload": args.workload, "runs": args.runs,
              "seconds": args.seconds, "corrected": {}, "raw": {}}
    print(f"{args.workload}: {args.runs} runs of {args.seconds} s")
    print(f"  {'metric':28} {'median':>14} {'spread':>8} {'bound':>6}")
    for name, values in corrected.items():
        med, s = spread(values)
        report["corrected"][name] = {"median": med, "spread": s,
                                     "values": values}
        print(f"  {name:28} {med:14.6g} {s:8.4f} {bounds.get(name, 0):6}")
    print("  raw wall figures:")
    for name, values in raw.items():
        med, s = spread(values)
        report["raw"][name] = {"median": med, "spread": s, "values": values}
        print(f"  {name:28} {med:14.6g} {s:8.4f}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
