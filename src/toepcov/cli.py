"""Command-line interface: estimate, benchmark, timing, list-estimators.

Exit codes: 0 success, 1 usage or parse error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import bench
from .likelihood import DegenerateDataError, SampleSet
from .toeplitz import NotPositiveDefiniteError, UnstableARError

USAGE_ERROR = 1
NUMERIC_ERROR = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="toepcov", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="fit one estimator to a CSV of samples")
    est.add_argument("--input", required=True, help="CSV file, one sample per row")
    est.add_argument("--estimator", required=True)
    est.add_argument("--order", default="auto", help="'auto' or a fixed AR order (GS estimators only)")
    est.add_argument("--icm", action="store_true", help="include the dense precision estimate")
    est.add_argument("--out", default=None, help="report path (stdout when omitted)")

    run = sub.add_parser("benchmark", help="run a config-driven Monte Carlo benchmark")
    run.add_argument("--config", required=True)
    run.add_argument("--runs", type=int, default=None, help="override the configured run count")
    run.add_argument("--seed", type=int, default=None, help="override the configured base seed")
    run.add_argument("--out", default="bench-out")
    run.add_argument("--svg", action="store_true")

    tim = sub.add_parser("timing", help="measure per-estimate wall time across dimensions")
    tim.add_argument("--config", default=None, help="optional config with a [timing] section")
    tim.add_argument("--runs", type=int, default=None, help="override the repetitions per measurement")
    tim.add_argument("--seed", type=int, default=None, help="override the base seed")
    tim.add_argument("--out", default="timing.csv")

    sub.add_parser("list-estimators", help="print the estimator registry")
    return parser


def _read_samples(path: str) -> np.ndarray:
    rows = []
    width = None
    try:
        handle = open(path)
    except OSError as exc:
        raise _UsageError(f"cannot open {path}: {exc}")
    with handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            try:
                vals = [float(p) for p in parts]
            except ValueError:
                if not rows and width is None:
                    width = len(parts)  # header row
                    continue
                raise _UsageError(f"{path}:{lineno}: non-numeric value")
            if not all(math.isfinite(v) for v in vals):
                raise _UsageError(f"{path}:{lineno}: non-finite value")
            if width is None:
                width = len(vals)
            elif len(vals) != width:
                raise _UsageError(f"{path}:{lineno}: expected {width} columns, got {len(vals)}")
            rows.append(vals)
    if not rows:
        raise _UsageError(f"{path}: no samples found")
    return np.asarray(rows)


# The report key of each field of a registry fit record that it carries.
_REPORT_FIELDS = {"order": "order", "mask_k": "order", "family": "family_id", "loglik": "loglik",
                  "iterations": "iterations", "converged": "converged"}


def _cmd_estimate(args) -> int:
    name = args.estimator
    if name not in bench.ESTIMATORS:
        raise _UsageError(
            f"unknown estimator {name!r}; see `toepcov list-estimators`"
        )
    info = bench.ESTIMATORS[name]
    if args.icm and not info.supports_icm:
        raise _UsageError(
            f"estimator {name!r} does not guarantee an invertible estimate; "
            "--icm is unavailable"
        )
    samples = _read_samples(args.input)
    data = SampleSet(samples)
    order = None
    if args.order != "auto":
        try:
            order = int(args.order)
        except ValueError:
            raise _UsageError(f"--order must be 'auto' or an integer, got {args.order!r}")
        if info.pinned is None:
            raise _UsageError(f"estimator {name!r} has no AR order; --order must be 'auto'")
    start = time.perf_counter()
    cm, icm, meta, fit = info.tuned(data) if order is None else info.pinned(data, order)
    report = dict.fromkeys(("alpha0", "alpha", "nmse_c", "nmse_icm", *_REPORT_FIELDS.values()))
    report.update((_REPORT_FIELDS[k], v) for k, v in meta.items() if k in _REPORT_FIELDS)
    report.update(estimator=name, cm_first_col=cm[:, 0].tolist())
    if fit is not None:
        report.update(alpha0=fit.alpha.alpha0, alpha=fit.alpha.alpha_rest.tolist())
    if args.icm:
        report["icm_dense"] = icm.tolist()
    report["wall_ms"] = (time.perf_counter() - start) * 1e3
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _load_sections(path, section, **flags) -> dict:
    """The sections of the config file at ``path`` (none without a path),
    with each flag that is not None overriding its key in ``section``.
    Parse errors surface as ValueError (exit 1)."""
    try:
        if path is None:
            sections = {}
        else:
            with open(path) as handle:
                sections = bench.parse_config(handle.read())
    except OSError as exc:
        raise _UsageError(str(exc))
    sections.setdefault(section, {}).update((k, v) for k, v in flags.items() if v is not None)
    return sections


def _cmd_benchmark(args) -> int:
    sections = _load_sections(args.config, "grid", runs=args.runs, seed=args.seed)
    rows = bench.run_benchmark(bench.config_from_sections(sections), args.out, svg=args.svg)
    sys.stdout.write(f"wrote {len(rows)} aggregate rows to {args.out}/results.csv\n")
    return 0


def _cmd_timing(args) -> int:
    """Flags override the config's [timing] section, which overrides the
    defaults of :func:`bench.timing_benchmark`, as for ``benchmark``."""
    sections = _load_sections(args.config, "timing", reps=args.runs, seed=args.seed)
    kwargs = bench.section_args(sections, "timing")
    for name in kwargs.get("estimator_names", ()):
        if name not in bench.ESTIMATORS:
            raise _UsageError(f"unknown estimator {name!r}")
    rows = bench.timing_benchmark(**kwargs)
    bench.write_timing_csv(rows, args.out)
    for row in rows:
        sys.stdout.write(
            f"{row['estimator']:>12s}  P={row['dim']:<5d} {row['median_ms']:10.3f} ms   {row['complexity']}\n"
        )
    return 0


def _cmd_list() -> int:
    sys.stdout.write(f"{'name':<14s}{'kind':<10s}{'icm':<5s}complexity\n")
    for name in sorted(bench.ESTIMATORS):
        info = bench.ESTIMATORS[name]
        sys.stdout.write(
            f"{name:<14s}{info.kind:<10s}{'yes' if info.supports_icm else 'no':<5s}{info.complexity}\n"
        )
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    try:
        if args.command == "estimate":
            return _cmd_estimate(args)
        if args.command == "benchmark":
            return _cmd_benchmark(args)
        if args.command == "timing":
            return _cmd_timing(args)
        return _cmd_list()
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except (DegenerateDataError, NotPositiveDefiniteError, UnstableARError, np.linalg.LinAlgError,
            RuntimeError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return NUMERIC_ERROR
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
