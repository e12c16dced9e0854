"""Run every workload on several seeds and summarize each end-to-end metric.

    python3 perfbench/record_baseline.py --seeds 1-10 --out perfbench/baseline.json

For each workload and metric the summary holds the values in seed order,
their median, first and third quartile (``statistics.quantiles(n=4)``) and
the quartile spread as a share of the median, next to the metric's bound
from ``BENCHMARK.json``.  Runs are untraced, one after another, with the
run length ``BENCHMARK.json`` sets.  Exits non-zero if any run is incorrect
or any spread (except ``setup_s``) exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(spec, workload, seed):
    proc = subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec["run_seconds"]), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line.split(" ", 2)[2]) for line in lines if " environment " in line), None)
    return json.loads(lines[-1]), env


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--out", default=None, help="summary JSON path")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = parse_seeds(args.seeds)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for name in names:
        values: dict = {}
        for seed in seeds:
            line, env = run_once(spec, name, seed)
            summary.setdefault("environment", env)
            ok &= line["correct"] and line["failed"] == 0
            for metric, m in line["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(name, seed, json.dumps({k: round(v[-1], 6) for k, v in values.items()}), flush=True)
        rows = {}
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            rows[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                            "bound": bounds[metric], "values": vals}
            ok &= metric == "setup_s" or spread <= bounds[metric]
            print(f"{name:20s} {metric:16s} median={med:.6g} spread={spread:.4f} bound={bounds[metric]}")
        summary["workloads"][name] = rows
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
