#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints, per workload and
end-to-end metric, the median and the spread: the distance between the
first and third quartiles (statistics.quantiles, n=4) over the median.

Run from the root of the repository:

    python3 perfbench/steady.py --seeds 1-10 --workloads serve-churn --seconds 25
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default="", help="also write every run's result line to this JSON file")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    secs = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = {}
    for name in names:
        for seed in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(secs), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            res = json.loads(lines[-1])
            log = proc.stderr.strip().splitlines()
            runs.setdefault(name, []).append({"seed": seed, **res, "log": log[-1] if log else ""})
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), file=sys.stderr)
    summary = {}
    for name, rs in runs.items():
        summary[name] = {}
        for metric in sorted(rs[0]["metrics"]):
            vals = [r["metrics"][metric]["value"] for r in rs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else float("inf")
            summary[name][metric] = {"median": med, "spread": spread, "unit": rs[0]["metrics"][metric]["unit"]}
            b = bounds.get(metric)
            flag = "" if b is None else ("  ok" if spread < b / 3 else "  WIDE")
            print(f"{name:18} {metric:34} median {med:12.5g}  spread {spread:6.3f}{flag}")
    if args.out:
        json.dump({"runs": runs, "summary": summary}, open(args.out, "w"), indent=1)


if __name__ == "__main__":
    main()
