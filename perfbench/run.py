"""Run one workload of the toepcov benchmark and print its result line.

    python3 perfbench/run.py --workload mc-ar1-p16-n32 --seed 1 --seconds 58 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(environment, per-estimator times, per-operation checks, spans) is written
under ``.perfbench-out/``.  ``--workload all`` runs every workload in turn
and prints one result line for each.
"""

import os

# Serial workload: BLAS is pinned to one thread before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "toepcov" / "__init__.py").is_file():
        sys.stderr.write(f"error: no toepcov sources under {SRC}; run from a checkout\n")
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import harness
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in WORKLOADS:
            sys.stderr.write(f"error: unknown workload {name!r}; known: {', '.join(WORKLOADS)}\n")
            return 2
    if args.seconds <= 0:
        sys.stderr.write("error: --seconds must be positive\n")
        return 2
    for name in names:
        line, payload, path = harness.run(name, args.seed, args.seconds, bool(args.trace))
        print(f"[{name}] environment", json.dumps(payload["environment"], sort_keys=True))
        print(f"[{name}] results written to {path.relative_to(HERE.parent)}")
        for est, row in sorted(payload["fits"].items()):
            extra = " ".join(f"{k}={v:.3f}" for k, v in row.items() if k.startswith("p"))
            print(f"[{name}] fit {est:<13s} n={row['n']:<5d} median={row['median_ms']:.3f} ms {extra}")
        print(f"[{name}] quality", json.dumps(payload["quality"], sort_keys=True))
        if "speed_index" in payload:
            print(f"[{name}] speed index {payload['speed_index']:.4f}; raw times",
                  json.dumps(payload["raw_times"], sort_keys=True))
        for metric, m in line["metrics"].items():
            print(f"[{name}] {metric} = {m['value']} {m['unit']}")
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
