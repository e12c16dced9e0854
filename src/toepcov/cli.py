"""Command-line interface: estimate, benchmark, timing, list-estimators.

Exit codes: 0 success, 1 usage or parse error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
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


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged (each call fills a new namespace, and no default is mutable)."""
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
    """The samples of the CSV at ``path``, one per row.

    Blank lines and ``#`` comments are skipped; a first row that is not all
    numbers is a header, which sets the width.  The cells are converted in
    one pass, so a bad line is looked for only once that conversion or the
    finiteness check has failed.
    """
    try:
        handle = open(path)
    except OSError as exc:
        raise _UsageError(f"cannot open {path}: {exc}")
    rows = []  # (line number, cells) of each data line
    with handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if line and not line.startswith("#"):
                rows.append((lineno, line.split(",")))
    width = len(rows[0][1]) if rows else 0
    if rows and not _all_numbers(rows[0][1]):
        del rows[0]  # header row
    if not rows:
        raise _UsageError(f"{path}: no samples found")
    if all(len(cells) == width for _, cells in rows):
        try:
            samples = np.array([c for _, cells in rows for c in cells], dtype=float).reshape(-1, width)
        except ValueError:  # a cell float() rejects
            pass
        else:
            if np.isfinite(samples).all():
                return samples
    raise _UsageError(_bad_line(path, rows, width))


def _all_numbers(cells) -> bool:
    try:
        list(map(float, cells))
    except ValueError:
        return False
    return True


def _bad_line(path: str, rows, width: int) -> str:
    """``path:line:`` message of the first of ``rows`` with a cell that is
    not a number, a non-finite value, or other than ``width`` cells, checked
    in that order on each line.  Called once the bulk conversion failed:
    numpy converts each cell with ``float``, so some row is bad."""
    for lineno, cells in rows:
        try:
            vals = [float(c) for c in cells]
        except ValueError:
            return f"{path}:{lineno}: non-numeric value"
        if not all(map(math.isfinite, vals)):
            return f"{path}:{lineno}: non-finite value"
        if len(vals) != width:
            return f"{path}:{lineno}: expected {width} columns, got {len(vals)}"


# The report key of each field of a registry fit record that it carries.
_REPORT_FIELDS = {"order": "order", "mask_k": "order", "family": "family_id", "loglik": "loglik",
                  "iterations": "iterations", "converged": "converged"}


def _report_text(report: dict) -> str:
    """``json.dumps(report, sort_keys=True)`` plus a newline, for a flat
    report whose matrices are float arrays, written by :func:`_json_matrix`."""
    fields = (f"{json.dumps(key)}: {_json_matrix(value) if isinstance(value, np.ndarray) else json.dumps(value)}"
              for key, value in sorted(report.items()))
    return "{" + ", ".join(fields) + "}\n"


def _json_matrix(mat) -> str:
    """``json.dumps(mat.tolist())`` for a float matrix, with each distinct
    value formatted once.  Entries are matched by bit pattern (so ``-0.0``
    and ``0.0`` stay apart), and one ``json.dumps`` of the distinct values
    spells them all as the stdlib does; a symmetric matrix, as every
    registry precision is, has about half as many values to format."""
    mat = np.asarray(mat, dtype=float)
    bits, inverse = np.unique(mat.view(np.uint64), return_inverse=True)
    words = np.array(json.dumps(bits.view(float).tolist())[1:-1].split(", "), dtype=object)
    rows = words[inverse.reshape(mat.shape)].tolist()
    return "[" + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]"


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
    start = time.perf_counter()
    cm, icm, meta, fit = info.fit(data, order)
    report = dict.fromkeys(("alpha0", "alpha", *_REPORT_FIELDS.values()))
    report.update((_REPORT_FIELDS[k], v) for k, v in meta.items() if k in _REPORT_FIELDS)
    report.update(estimator=name, cm_first_col=cm[:, 0].tolist())
    if fit is not None:
        report.update(alpha0=fit.alpha.alpha0, alpha=fit.alpha.alpha_rest.tolist())
    if args.icm:
        report["icm_dense"] = icm()
    report["wall_ms"] = (time.perf_counter() - start) * 1e3
    text = _report_text(report)
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
    rows = bench.timing_benchmark(**bench.section_args(sections, "timing"))
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
    except (ValueError, OSError) as exc:  # OSError: an output path that cannot be written
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
