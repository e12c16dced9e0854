"""Config-driven Monte Carlo benchmark harness.

One dataset is drawn per (grid point, run) and shared by every estimator,
seeds are derived deterministically from the base seed and the cell
coordinates, and aggregation order is canonical, so results are bit-stable
across repeated and parallel invocations.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import os
import time
from collections import Counter
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from . import baselines
from .constraints import DEFAULT_FAMILIES, box_spec_for
from .estimators import (
    estimate_eig,
    estimate_frob,
    estimate_pgd,
    estimate_pls,
    tune_box_family,
    tune_order,
    white_noise_report,
)
from .processes import _KINDS, ProcessSpec, coloring, nmse, sample, true_cm
from .toeplitz import NotPositiveDefiniteError

__all__ = [
    "EstimatorInfo",
    "ESTIMATORS",
    "ExperimentConfig",
    "parse_config",
    "run_benchmark",
    "timing_benchmark",
    "worker_count",
]

#: Hyperparameters pinned for timing: bandwidth and AR order fixed to 6.
TIMING_PIN = 6


@dataclass(frozen=True)
class EstimatorInfo:
    """One estimator: its capabilities and its fitting policy.

    ``fit(data, order=None)`` fits a :class:`SampleSet` and returns ``(cm,
    icm, meta, report)``: the dense covariance, the zero-argument call that
    forms the dense precision (None without ``supports_icm``; a caller that
    reads only the covariance neither pays for nor fails on it), the chosen
    hyperparameters, and the GS :class:`EstimationReport` (None for
    baselines).  Without ``order`` the estimator selects its own
    hyperparameters; a ``"proposed"`` estimator fits at a given AR order
    instead, and a baseline, which has none, refuses one.  ``timed(data)``
    returns the zero-argument call that :func:`timing_benchmark` measures:
    the fit, or the estimate at a tuned bandwidth or order pinned to
    ``TIMING_PIN``.
    """

    name: str
    kind: str  # "proposed" | "baseline"
    supports_icm: bool
    complexity: str
    fit: Callable
    timed: Callable


def _pd_inverse(mat):
    chol = np.linalg.cholesky(mat)  # raises LinAlgError when not PD
    ident = np.eye(mat.shape[0])
    half = np.linalg.solve(chol, ident)
    return half.T.conj() @ half


def _dense_precision(data, cm):
    return _pd_inverse(cm)


def _baseline(name, precision, complexity, fit, pinned=None):
    """Baseline from ``fit(data)``, its dense covariance and chosen
    hyperparameters, and ``precision(data, cm)``, its dense precision (None
    for a covariance-only baseline), which the fit hands back uncalled.

    Timing measures ``fit``, or ``pinned(data)`` where a bandwidth is tuned:
    the estimate at bandwidth ``TIMING_PIN``, not densified.
    """

    def fit_at(data, order=None):
        if order is not None:
            raise ValueError(f"estimator {name!r} has no AR order; --order must be 'auto'")
        cm, meta = fit(data)
        return cm, (lambda: precision(data, cm)) if precision else None, meta, None

    timed = pinned or fit
    return EstimatorInfo(name, "baseline", precision is not None, complexity, fit_at,
                         lambda d: lambda: timed(d))


def _gs_result(r):
    meta = {"order": r.order, "family": r.family_id, "loglik": r.loglik,
            "iterations": r.iterations, "converged": r.converged}
    if "scan" in r.extras:  # a tuning scan's totals (results.json only)
        meta["scan"] = r.extras["scan"]
    return r.cm().dense(), r.icm_dense, meta, r


def _gs(name, complexity, fit_at, boxed=False, **timing):
    """GS estimator from ``fit_at(ctx, order, spec, **kw)``, one fixed-order fit.

    ``spec`` is the box of box estimators (None for the others).  Order 0 is
    the white-noise fit.  Without an order the fit scans orders by BIC and,
    for box estimators, the default bound families (:func:`tune_box_family`,
    which also picks the family at a given order).  Timing fits at
    ``TIMING_PIN`` in the exp-1 box with the ``timing`` keywords.
    """

    def fit(data, order=None):
        if order is not None and not 0 <= order <= data.p - 1:
            raise ValueError(f"order must lie in [0, {data.p - 1}], got {order}")
        ctx = data.context()
        if order == 0:
            return _gs_result(white_noise_report(ctx))
        if boxed:
            return _gs_result(tune_box_family(fit_at, ctx, order=order))
        if order is None:
            return _gs_result(tune_order(lambda c, w: fit_at(c, w, None), ctx))
        return _gs_result(fit_at(ctx, order, None))

    def timed(data):
        spec = box_spec_for(DEFAULT_FAMILIES[1], data.p) if boxed else None
        return lambda: fit_at(data.context(), TIMING_PIN, spec, **timing)

    return EstimatorInfo(name, "proposed", True, complexity, fit, timed)


def _banded(kind):
    """``(fit, pinned)`` of banding/tapering: cross-validated or pinned bandwidth."""
    pinned = baselines.MaskSpec(kind, TIMING_PIN)

    def fit(data):
        spec = baselines.cv_tune_mask(data.samples, kind=kind)
        return baselines.band_estimate(data.scm, spec).dense(), {"mask_k": spec.k}

    return fit, lambda d: baselines.band_estimate(d.scm, pinned)


def _em(data):
    """``em`` with its iteration count and convergence."""
    work: dict = {}
    return baselines.em_toeplitz(data.scm, work=work), work


def _shrink(target, data):
    """Shrinkage toward ``target`` at the plug-in weight, which it records."""
    est, rho = baselines._plugin_shrink(data.scm, target, data.samples)
    return est, {"rho": rho}


# Entries reach the estimators through module-level names at call time, so
# rebinding those names (to trace them, say) reaches every call.
ESTIMATORS = {
    info.name: info
    for info in (
        _baseline("scm", None, "quadratic per entry pass", lambda d: (d.scm, {})),
        _baseline("avg", None, "quadratic (diagonal averages)",
                  lambda d: (baselines.toeplitz_avg(d.scm).dense(), {})),
        _baseline("banding", None, "linear in dim times bandwidth", *_banded("banding")),
        _baseline("tapering", None, "linear in dim times bandwidth", *_banded("tapering")),
        # circ's precision is the circulant of its reciprocal spectrum
        _baseline("circ", lambda d, cm: baselines._circulant_precision(d.scm), "quadratic (lag sums and FFT)",
                  lambda d: (baselines.circulant_mle(d.scm), {})),
        _baseline("em", _dense_precision, "cubic per iteration (for real data two half-size LU systems, P^3/6 flops, "
                  "and 2P^3 flops of GS and half-size E-step products; no FFT)", _em),
        _baseline("shrink_avg", None, "cubic (target build dominates)", partial(_shrink, "avg")),
        _baseline("shrink_const", _dense_precision, "quadratic", partial(_shrink, "const")),
        # one eig Newton iteration: one Cholesky factorization of the P-square
        # slack, then P-square products per coefficient for exact derivatives
        _gs("eig", "cubic times the order per iteration (small dims)",
            lambda c, w, spec: estimate_eig(c, order=w)),
        # after the O(P^2) table of the SCM's diagonal sums, one frob Newton iteration takes
        # its likelihood and constraint Hessians on (order + 1)-square GS factors, quartic in the order
        _gs("frob", "quadratic once (SCM diagonal sums), then quartic in the order per iteration",
            lambda c, w, spec: estimate_frob(c, order=w)),
        _gs("pgd", "quadratic once (SCM diagonal sums), then quartic in the order per iteration",
            lambda c, w, spec: estimate_pgd(c, spec, w), boxed=True),
        _gs("pls", "linear plus cubic in the order",
            lambda c, w, spec, **kw: estimate_pls(c, spec, order=w, **kw), boxed=True,
            with_loglik=False),
    )
}


def _check_nonempty(**axes):
    for axis, values in axes.items():
        if len(values) == 0:
            raise ValueError(f"{axis} must not be empty")


def _check_names(names):
    for name in names:
        if name not in ESTIMATORS:
            raise ValueError(f"unknown estimator {name!r}; known: {', '.join(sorted(ESTIMATORS))}")


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    points: tuple
    dims: tuple
    sample_counts: tuple
    estimators: tuple
    sigma2: float = 1.0
    runs: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        # named by their config keys
        _check_nonempty(points=self.points, dims=self.dims, sample_counts=self.sample_counts,
                        names=self.estimators)
        if any(n < 1 for n in self.sample_counts):
            raise ValueError("sample_counts must be at least 1")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown process kind {self.kind!r}; known: {', '.join(_KINDS)}")
        _check_names(self.estimators)

    def process_spec(self, point, p) -> ProcessSpec:
        if self.kind == "ar":
            return ProcessSpec("ar", p, a=point, sigma2=self.sigma2)
        if self.kind == "ma":
            return ProcessSpec("ma", p, b=point, sigma2=self.sigma2)
        if self.kind == "arma":
            return ProcessSpec("arma", p, a=point[:1], b=point[1:], sigma2=self.sigma2)
        return ProcessSpec("fbm", p, h=float(np.atleast_1d(point)[0]))


def _ints(values):
    return tuple(int(v) for v in values)


def _points(points):
    return tuple(tuple(np.atleast_1d(pt).tolist()) for pt in points)


# Every config key: the ExperimentConfig field it sets ([timing]: the
# timing_benchmark argument), its cast, and whether it is required.  An
# omitted optional key leaves that field's or argument's default.
_CONFIG_KEYS = {
    "grid": {"dims": ("dims", _ints, True), "sample_counts": ("sample_counts", _ints, True),
             "runs": ("runs", int, False), "seed": ("seed", int, False)},
    "process": {"kind": ("kind", str, True), "sigma2": ("sigma2", float, False),
                "points": ("points", _points, True)},
    "estimators": {"names": ("estimators", tuple, True)},
    "timing": {"dims": ("dims", _ints, False), "estimators": ("estimator_names", tuple, False),
               "reps": ("reps", int, False), "sample_count": ("n", int, False),
               "seed": ("seed", int, False)},
}


def parse_config(text: str) -> dict:
    """Parse the sectioned key/value config format.

    Values use JSON syntax (numbers, strings, booleans, nested lists).
    Unknown sections or keys are hard errors.
    """
    sections: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _CONFIG_KEYS:
                raise ValueError(f"line {lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if current is None:
            raise ValueError(f"line {lineno}: key outside of any section")
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        key, _, rhs = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS[current]:
            raise ValueError(f"line {lineno}: unknown key {key!r} in section [{current}]")
        try:
            value = json.loads(rhs.strip())
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
        sections[current][key] = value
    return sections


def section_args(sections: dict, *names) -> dict:
    """Keyword arguments set by the keys of config sections ``names``."""
    kwargs = {}
    for section in names:
        given = sections.get(section, {})
        for key, (arg, cast, required) in _CONFIG_KEYS[section].items():
            if key in given:
                kwargs[arg] = cast(given[key])
            elif required:
                raise ValueError(f"missing required key {key!r} in section [{section}]")
    return kwargs


def config_from_sections(sections: dict) -> ExperimentConfig:
    return ExperimentConfig(**section_args(sections, "grid", "process", "estimators"))


def derive_seed(base: int, point, p: int, n: int, run: int) -> int:
    key = f"{point!r}|{p}|{n}|{run}".encode()
    digest = hashlib.sha256(key).digest()
    return (base ^ int.from_bytes(digest[:8], "big")) & 0x7FFFFFFFFFFFFFFF


def _run_cell(config: ExperimentConfig, task):
    """All estimators on one shared dataset, ``task = ((point, p, n), run)``;
    returns per-estimator records."""
    (point, p, n), run = task
    spec = config.process_spec(point, p)
    seed = derive_seed(config.seed, point, p, n, run)
    data = sample(spec, n, seed)
    truth_cm = true_cm(spec).dense()
    truth_icm = _pd_inverse(truth_cm)
    records = []
    for name in config.estimators:
        rec = {"estimator": name, "run": run}
        start = time.perf_counter()
        try:
            cm, icm, meta, _ = ESTIMATORS[name].fit(data)
            icm = icm() if icm else None
            rec["wall_ms"] = (time.perf_counter() - start) * 1e3
            rec.update(meta)
            rec["nmse_c"] = nmse(cm, truth_cm)
            if icm is not None:
                rec["nmse_icm"] = nmse(icm, truth_icm)
        except Exception as exc:  # failed cell: recorded, never silently dropped
            rec["wall_ms"] = (time.perf_counter() - start) * 1e3
            rec["error"] = f"{type(exc).__name__}: {exc}"
        records.append(rec)
    return records


def worker_count() -> int:
    raw = os.environ.get("TOEPCOV_WORKERS", "1")
    if not (raw.strip().isdecimal() and int(raw) >= 1):
        raise ValueError(f"TOEPCOV_WORKERS must be a positive integer, got {raw!r}")
    return int(raw)


def _mean_se(values):
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return None, None
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return mean, se


def _hist(values):
    return dict(sorted(Counter(str(v) for v in values).items()))


def _csv_cell(value):
    if isinstance(value, (dict, list)):
        return json.dumps(value)
    if value is None:
        return ""
    return f"{value:.10g}" if isinstance(value, float) else value


def _write_csv(path, fields, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(fields)
        writer.writerows([_csv_cell(row[f]) for f in fields] for row in rows)


# Wall times live in results.json only: the CSV is byte-deterministic.
_CSV_FIELDS = (
    "process", "point", "dim", "samples", "estimator", "runs", "failures",
    "nmse_c_count", "nmse_c_mean", "nmse_c_se",
    "nmse_icm_count", "nmse_icm_mean", "nmse_icm_se",
    "order_hist", "family_hist", "mask_hist",
)


def run_benchmark(config: ExperimentConfig, out_dir: str, svg: bool = False):
    """Execute the full grid and write results.csv / results.json.

    Returns the aggregated rows.  Output files contain no timestamps, so
    identical configs produce identical bytes.  Every process of the grid is
    built and factored before any cell runs, so a bad point or dimension, or
    a singular truth, fails at once.  ``TOEPCOV_WORKERS`` sizes the pool.
    """
    for point, p in itertools.product(config.points, config.dims):
        try:
            coloring(config.process_spec(point, p))  # the factor sample() draws with
        except (ValueError, NotPositiveDefiniteError) as exc:
            raise ValueError(f"{config.kind} point {list(point)} at dimension {p}: {exc}") from exc
    os.makedirs(out_dir, exist_ok=True)
    cells = list(itertools.product(config.points, config.dims, config.sample_counts))
    tasks = [(cell, run) for cell in cells for run in range(config.runs)]
    # a fork pool starts all its workers on the first task: no more than there are tasks
    workers = min(worker_count(), len(tasks))
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        results = dict(zip(tasks, (pool.map if pool else map)(partial(_run_cell, config), tasks)))

    rows = []
    detail = []
    for cell in cells:
        point, p, n = cell
        for i, name in enumerate(config.estimators):
            # _run_cell returns one record per estimator, in config order
            recs = [results[(cell, run)][i] for run in range(config.runs)]
            ok = [r for r in recs if "error" not in r]
            coords = {"process": config.kind, "point": list(point), "dim": p, "samples": n,
                      "estimator": name}
            detail.append({**coords, "records": recs})
            row = {**coords, "runs": config.runs, "failures": len(recs) - len(ok)}
            for metric in ("nmse_c", "nmse_icm"):
                values = [r[metric] for r in ok if metric in r]
                row[f"{metric}_count"] = len(values)
                row[f"{metric}_mean"], row[f"{metric}_se"] = _mean_se(values)
            for key, column in (("order", "order_hist"), ("family", "family_hist"),
                                ("mask_k", "mask_hist")):
                row[column] = _hist(r[key] for r in ok if key in r)
            rows.append(row)

    _write_csv(os.path.join(out_dir, "results.csv"), _CSV_FIELDS, rows)
    with open(os.path.join(out_dir, "results.json"), "w") as handle:
        json.dump({"config": asdict(config), "cells": detail}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    if svg:
        _write_svg(config, rows, out_dir)
    return rows


def _sweep_axis(config: ExperimentConfig):
    if len(config.points) > 1:
        return "point", [float(np.atleast_1d(pt)[0]) for pt in config.points]
    if len(config.sample_counts) > 1:
        return "samples", list(config.sample_counts)
    if len(config.dims) > 1:
        return "dim", list(config.dims)
    return "point", [0.0]


def _write_svg(config: ExperimentConfig, rows, out_dir):
    """One chart per metric and combination of the varying axes other than
    the sweep axis; the file name carries that combination."""
    from .svg import line_chart

    axis, xs = _sweep_axis(config)
    others = [a for a, values in (("dim", config.dims), ("samples", config.sample_counts))
              if a != axis and len(values) > 1]
    charts: dict = {}  # other-axis values -> estimator -> rows in sweep order
    for row in rows:
        key = tuple(row[a] for a in others)
        charts.setdefault(key, {}).setdefault(row["estimator"], []).append(row)
    for key, by_name in charts.items():
        tags = [f"{a}{v}" for a, v in zip(others, key)]
        for metric in ("nmse_c_mean", "nmse_icm_mean"):
            series = []
            for name in config.estimators:
                ys = [r[metric] for r in by_name[name]]
                if any(y is not None for y in ys):
                    series.append((name, xs, ys))
            if series:
                label = "covariance NMSE" if metric == "nmse_c_mean" else "precision NMSE"
                line_chart(
                    series,
                    os.path.join(out_dir, "-".join([metric, *tags]) + ".svg"),
                    title=" ".join([f"{config.kind} sweep", *tags]),
                    xlabel=axis,
                    ylabel=label,
                )


# -- timing ------------------------------------------------------------------


def timing_benchmark(dims=(64, 128, 256), estimator_names=("pgd", "pls", "banding", "em"),
                     n: int = 64, reps: int = 5, seed: int = 2024):
    """Median wall time of one estimate per estimator and dimension.

    Hyperparameter tuning and the sample covariance computation are outside
    the timed region; bandwidth and order are pinned.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    _check_nonempty(dims=dims, estimators=estimator_names)
    _check_names(estimator_names)
    small = [p for p in dims if p <= TIMING_PIN]
    if small and any(ESTIMATORS[name].kind == "proposed" for name in estimator_names):
        raise ValueError(f"GS timing fits at order {TIMING_PIN}, so it needs dimensions of at least "
                         f"{TIMING_PIN + 1}; got {', '.join(map(str, small))}")
    spec_params = {"a": (0.7,), "b": (0.3,), "sigma2": 0.64}
    rows = []
    for p in dims:
        process = ProcessSpec("arma", p, **spec_params)
        data = sample(process, n, derive_seed(seed, ("timing",), p, n, 0))
        for name in estimator_names:
            fit = ESTIMATORS[name].timed(data)
            fit()  # warm-up outside the timed region
            times = []
            for _ in range(reps):
                start = time.perf_counter()
                fit()
                times.append((time.perf_counter() - start) * 1e3)
            rows.append(
                {
                    "estimator": name,
                    "dim": p,
                    "median_ms": float(np.median(times)),
                    "complexity": ESTIMATORS[name].complexity,
                }
            )
    return rows


def write_timing_csv(rows, path):
    _write_csv(path, ("estimator", "dim", "median_ms", "complexity"), rows)
