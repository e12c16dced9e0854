"""Measurement loop, metrics and result files of the benchmark.

``run(workload, seed, seconds, trace)`` returns the result line that
``run.py`` prints.  With ``trace=False`` the operations run untraced and the
end-to-end metrics are reported; set-up time comes from fresh interpreters
(``probe_setup.py``), and every time is scaled to the nominal machine speed
by the speed index ``reference.py`` measures between operations.  With
``trace=True`` every operation group runs twice, untraced and then traced,
on identical inputs: the per-layer metrics come from the traced pass, the
wall-time difference is the tracing overhead, and the two passes must
produce byte-identical outputs.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np

import reference
import tracing
from workloads import GS_ESTIMATORS, WORKLOADS, OpResult

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"

#: Fresh-interpreter set-ups per run; set-up time is their median.
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "group_ms": "ms",
    "fit_ms.gs": "ms",
    "fit_ms.baseline": "ms",
}

_PER_LAYER = [
    ("likelihood.value.calls", "count"),
    ("likelihood.value.us_per_call", "us"),
    ("likelihood.gradient.calls", "count"),
    ("likelihood.gradient.us_per_call", "us"),
    ("estimators.estimate_pgd.calls", "count"),
    ("estimators.estimate_pgd.ms", "ms"),
    ("estimators.estimate_pgd.iterations", "count"),
    ("estimators.estimate_pgd.values_per_iter", "ratio"),
    ("estimators.estimate_pgd.nonconverged", "count"),
    ("estimators.tune_order.calls", "count"),
    ("estimators.tune_order.ms", "ms"),
    ("estimators.tune_order.fits_per_call", "ratio"),
    ("estimators.tune_box_family.calls", "count"),
    ("estimators.tune_box_family.ms", "ms"),
    ("estimators.infeasible", "count"),
    ("estimators.estimate_pls.calls", "count"),
    ("estimators.estimate_pls.ms", "ms"),
    ("estimators.estimate_frob.calls", "count"),
    ("estimators.estimate_frob.ms", "ms"),
    ("estimators.estimate_frob.iterations", "count"),
    ("constraints.frob_constraint.calls", "count"),
    ("constraints.frob_constraint.ms", "ms"),
    ("constraints.frobenius_gain_sq.calls", "count"),
    ("constraints.frobenius_gain_sq.ms", "ms"),
    ("constraints.bisect_box_scale.ms", "ms"),
    ("constraints.box_spec_for.calls", "count"),
    ("toeplitz.diag_sums.ms", "ms"),
    ("toeplitz.ar_to_autocov.calls", "count"),
    ("toeplitz.ar_to_autocov.ms", "ms"),
    ("toeplitz.gs_assemble.calls", "count"),
    ("toeplitz.gs_assemble.ms", "ms"),
    *((f"baselines.{fn}.ms", "ms") for fn in (
        "circulant_mle", "em_toeplitz", "cv_tune_mask", "shrink_coefficient",
        "shrink", "band_estimate", "sample_cov")),
    ("processes.sample.calls", "count"),
    ("processes.sample.ms", "ms"),
    ("processes.true_cm.ms", "ms"),
    ("bench.run_benchmark.self_ms", "ms"),
    ("cli.main.self_ms", "ms"),
    *((f"{layer}.self_ms", "ms") for layer in tracing.LAYERS),
    ("harness.self_ms", "ms"),
    *((f"{layer}.self_share", "ratio") for layer in tracing.LAYERS),
    ("gs_tree.self_share", "ratio"),
    ("baselines_processes.self_share", "ratio"),
    ("numpy_warnings", "count"),
    ("tracing.overhead_frac", "ratio"),
    ("estimators.nmse_icm.pls", "ratio"),
    ("estimators.nmse_icm.gs", "ratio"),
    ("estimators.loglik_gain.gs", "nats"),
]
PER_LAYER_UNITS = dict(_PER_LAYER)

#: The GS-estimator call tree and the data-side layers, for the share checks.
GS_TREE = ("estimators", "likelihood", "toeplitz", "constraints")
DATA_SIDE = ("baselines", "processes")
ESTIMATE_FNS = ("estimators.estimate_pgd", "estimators.estimate_pls",
                "estimators.estimate_frob", "estimators.estimate_eig")
INFEASIBLE = ("NotPositiveDefiniteError", "UnstableARError")


# -- running operations -----------------------------------------------------------


def run_op(op, op_id, tracer=None) -> OpResult:
    """Time one operation (traced when ``tracer`` is given), then check it."""
    raw, error = None, None
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        span = tracer.op_span(op_id, log) if tracer else contextlib.nullcontext()
        with span:
            start = time.perf_counter()
            try:
                raw = op.run()
            except Exception as exc:  # a failed operation is counted, never dropped
                error = f"{op.label}: {type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
        caught = sum(issubclass(w.category, RuntimeWarning) for w in log)
    if error is None:
        try:
            result = op.check(raw, wall)
        except Exception as exc:
            result = OpResult(wall, error=f"{op.label}: check failed: {type(exc).__name__}: {exc}")
    else:
        result = OpResult(wall, error=error)
    result.warnings = caught
    return result


def measure(workload, seed, workdir, seconds, tracer=None, probe=None):
    """Run operation groups one after another (closed loop, one client).

    Stops at the group boundary nearest to ``seconds``, judging the next
    group's length by the last one; at least one group always runs.  With a
    ``tracer`` every group runs twice on identical inputs, untraced and then
    traced, so that drift in machine speed falls on both passes alike.  With
    a ``probe`` the reference kernel is timed between operations, outside
    their timing.  Returns the untraced results, the traced ones and the
    number of groups.
    """
    plain, traced = [], []
    start = time.perf_counter()
    index = 0
    while True:
        group_start = time.perf_counter()
        for op in workload.group(seed, index, workdir):
            if probe is not None:
                probe.maybe_sample()
            plain.append(run_op(op, len(plain)))
            plain[-1].group = index
        if tracer is not None:
            tracer.install()
            try:
                for op in workload.group(seed, index, workdir):
                    traced.append(run_op(op, len(traced), tracer))
                    traced[-1].group = index
            finally:
                tracer.uninstall()
        index += 1
        now = time.perf_counter()
        if now - start + 0.5 * (now - group_start) > seconds:
            break
    return plain, traced, index


def probe_setup(workload_name, seed, workdir) -> float:
    """Cold set-up time in a fresh interpreter (see ``probe_setup.py``)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe_setup.py"), workload_name, str(seed), workdir],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


# -- metrics ------------------------------------------------------------------------


def _mean(values):
    return statistics.fmean(values) if values else None


def fit_table(results):
    """Per estimator: sample count, median ms and the highest percentile that
    has at least ten samples beyond it."""
    by_est: dict = {}
    for res in results:
        if res.error is None:
            for fit in res.fits:
                by_est.setdefault(fit.estimator, []).append(fit.ms)
    table = {}
    for name, times in by_est.items():
        row = {"n": len(times), "median_ms": statistics.median(times)}
        for q in (99.9, 99.0, 95.0, 90.0, 75.0):
            if len(times) * (1.0 - q / 100.0) >= 10:
                row[f"p{q:g}_ms"] = float(np.percentile(times, q))
                break
        table[name] = row
    return table


def interquartile_mean(values):
    """Mean of the middle half of the values.

    A quarter of the values, rounded up, is dropped at each end, but at
    least one value is kept: the median for three values, the mean for one
    or two.  Per-group cost is heavy-tailed (the optimizer's path depends on
    the data) and a busy machine can slow single groups, so this is steadier
    across seeds than the mean, and than the median for the ~40 cells of a
    criterion-10 run at N=8.
    """
    values = sorted(values)
    k = min(math.ceil(len(values) / 4), (len(values) - 1) // 2)
    return statistics.fmean(values[k:len(values) - k])


def _group_times(results):
    """Interquartile means over operation groups without a failed operation
    of the group's wall time and of the summed fit times of its GS and
    baseline fits (ms)."""
    bad = {r.group for r in results if r.error is not None}
    sums: dict = {}
    for res in results:
        if res.group not in bad:
            row = sums.setdefault(res.group, [0.0, 0.0, 0.0])
            row[0] += res.wall_s * 1e3
            for fit in res.fits:
                row[1 if fit.estimator in GS_ESTIMATORS else 2] += fit.ms
    if not sums:
        return None, None, None
    return tuple(interquartile_mean(col) for col in zip(*sums.values()))


def raw_times(results, setup_times):
    """The end-to-end times as measured, before scaling to nominal speed."""
    group_ms, gs_ms, baseline_ms = _group_times(results)
    return {"setup_s": statistics.median(setup_times), "group_ms": group_ms,
            "fit_ms.gs": gs_ms, "fit_ms.baseline": baseline_ms}


def end_to_end_metrics(raw, speed_index):
    """Every raw time divided by the run's speed index (``reference.py``)."""
    return {k: {"value": raw[k] / speed_index, "unit": u} for k, u in END_TO_END_UNITS.items()}


def quality(results):
    """Accuracy of the successful fits, failures and throughput of the loop."""
    ok = [r for r in results if r.error is None]
    gs = [f for r in ok for f in r.fits if f.estimator in GS_ESTIMATORS]
    return {
        "fail_frac": 1.0 - len(ok) / len(results),
        "ops_per_s": len(ok) / sum(r.wall_s for r in results),
        "nmse_icm.pls": _mean([f.nmse_icm for f in gs if f.estimator == "pls"]),
        "nmse_icm.gs": _mean([f.nmse_icm for f in gs if f.nmse_icm is not None]),
        "loglik_gain.gs": _mean([f.loglik_gain for f in gs]),
    }


def per_layer_metrics(spans, summary, setup_spans, n_ops, overhead_frac, accuracy):
    stats, self_times = summary
    setup_stats, _ = tracing.summarize(setup_spans)
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "iterations": 0, "nonconverged": 0}

    def st(name, source=stats):
        return source.get(name, empty)

    def per_op(x):
        return x / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for short in ("value", "gradient"):
        s = st(f"likelihood.{short}")
        values[f"likelihood.{short}.calls"] = per_op(s["calls"])
        values[f"likelihood.{short}.us_per_call"] = ratio(s["busy_s"] * 1e6, s["calls"])
    for name in ("estimators.estimate_pgd", "estimators.tune_order", "estimators.tune_box_family",
                 "estimators.estimate_pls", "estimators.estimate_frob",
                 "constraints.frob_constraint", "constraints.frobenius_gain_sq",
                 "toeplitz.ar_to_autocov", "toeplitz.gs_assemble", "processes.sample"):
        values[f"{name}.calls"] = per_op(st(name)["calls"])
        values[f"{name}.ms"] = per_op(st(name)["busy_s"] * 1e3)
    pgd = st("estimators.estimate_pgd")
    values["estimators.estimate_pgd.iterations"] = ratio(pgd["iterations"], pgd["calls"])
    values["estimators.estimate_pgd.values_per_iter"] = ratio(
        tracing.count_under(spans, "likelihood.value", "estimators.estimate_pgd"), pgd["iterations"])
    values["estimators.estimate_pgd.nonconverged"] = per_op(pgd["nonconverged"])
    frob = st("estimators.estimate_frob")
    values["estimators.estimate_frob.iterations"] = ratio(frob["iterations"], frob["calls"])
    values["estimators.tune_order.fits_per_call"] = ratio(
        tracing.count_children(spans, "estimators.tune_order",
                               ESTIMATE_FNS + ("estimators.white_noise_report",)),
        st("estimators.tune_order")["calls"])
    values["estimators.infeasible"] = per_op(sum(
        n for name in ESTIMATE_FNS for err, n in stats.get(name, {}).get("errors", {}).items()
        if err in INFEASIBLE))
    values["constraints.bisect_box_scale.ms"] = st("constraints.bisect_box_scale", setup_stats)["busy_s"] * 1e3
    values["constraints.box_spec_for.calls"] = st("constraints.box_spec_for", setup_stats)["calls"]
    values["toeplitz.diag_sums.ms"] = per_op(st("toeplitz.diag_sums")["busy_s"] * 1e3)
    values["processes.true_cm.ms"] = per_op(st("processes.true_cm")["busy_s"] * 1e3)
    for fn in ("circulant_mle", "em_toeplitz", "cv_tune_mask", "shrink_coefficient",
               "shrink", "band_estimate", "sample_cov"):
        values[f"baselines.{fn}.ms"] = per_op(st(f"baselines.{fn}")["busy_s"] * 1e3)
    values["bench.run_benchmark.self_ms"] = per_op(st("bench.run_benchmark")["self_s"] * 1e3)
    values["cli.main.self_ms"] = per_op(st("cli.main")["self_s"] * 1e3)

    layer_self = {layer: 0.0 for layer in tracing.LAYERS}
    layer_self["harness"] = 0.0
    for rec, self_s in zip(spans, self_times):
        layer = tracing.layer_of(rec[tracing.NAME])
        layer_self[layer if layer in layer_self else "harness"] += self_s
    total = sum(layer_self.values())
    for layer, secs in layer_self.items():
        values[f"{layer}.self_ms"] = per_op(secs * 1e3)
        if layer != "harness":
            values[f"{layer}.self_share"] = ratio(secs, total)
    values["gs_tree.self_share"] = ratio(sum(layer_self[k] for k in GS_TREE), total)
    values["baselines_processes.self_share"] = ratio(sum(layer_self[k] for k in DATA_SIDE), total)
    values["numpy_warnings"] = per_op(sum(rec[tracing.WARNINGS] for rec in spans))
    values["tracing.overhead_frac"] = overhead_frac
    for key in ("nmse_icm.pls", "nmse_icm.gs", "loglik_gain.gs"):
        values[f"estimators.{key}"] = accuracy[key]
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}


def check_spans(spans, self_times):
    """Spans nest inside their parents within one operation, and per operation
    the self times add up to the root span's wall time.  Returns problems."""
    problems = []
    root_wall: dict = {}
    self_sum: dict = {}
    for i, rec in enumerate(spans):
        op, parent = rec[tracing.OP], rec[tracing.PARENT]
        if parent < 0:
            root_wall[op] = rec[tracing.END] - rec[tracing.START]
        else:
            outer = spans[parent]
            if outer[tracing.OP] != op or not (
                    outer[tracing.START] <= rec[tracing.START] <= rec[tracing.END] <= outer[tracing.END]):
                problems.append(f"span {i} ({rec[tracing.NAME]}) escapes its parent")
        self_sum[op] = self_sum.get(op, 0.0) + self_times[i]
    for op, wall in root_wall.items():
        if abs(self_sum[op] - wall) > 1e-9 * max(1.0, wall):
            problems.append(f"op {op}: self times sum to {self_sum[op]!r}, wall {wall!r}")
    return problems


# -- environment and result files ---------------------------------------------------


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (AttributeError, KeyError, TypeError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():  # a plain source checkout has no commit to report
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10, check=False)
            commit = proc.stdout.strip() if proc.returncode == 0 else None
        except OSError:
            pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "machine": platform.machine(),
    }


def _write_results(name, payload, spans=None):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True, default=str) + "\n")
    if spans is not None:
        with open(OUT_DIR / f"{name}-spans.jsonl", "w") as handle:
            for rec in spans:
                handle.write(json.dumps(rec) + "\n")
    return path


def _op_records(results):
    return [{"wall_s": r.wall_s, "error": r.error, "warnings": r.warnings,
             "fits": [vars(f) for f in r.fits]} for r in results]


# -- one run ------------------------------------------------------------------------------


def run(workload_name, seed, seconds, trace, workload=None):
    """One benchmark run.  Returns the result object printed as the last line,
    the full record and the path it was written to."""
    workload = workload or WORKLOADS[workload_name]
    env = environment()
    workdir = OUT_DIR / "work" / f"{workload_name}-{seed}-{int(trace)}"
    workdir.mkdir(parents=True, exist_ok=True)
    workdir = str(workdir)
    tag = f"{workload_name}-seed{seed}-trace{int(trace)}"
    payload = {"workload": workload_name, "seed": seed, "seconds": seconds,
               "trace": trace, "environment": env}

    if not trace:
        start = time.perf_counter()
        workload.setup(seed, workdir)
        payload["setup_in_process_s"] = time.perf_counter() - start
        speed = reference.SpeedProbe()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            speed.sample()
            setup_times.append(probe_setup(workload_name, seed, os.path.join(workdir, "probe")))
        results, _, groups = measure(workload, seed, workdir, seconds, probe=speed)
        speed.sample()
        raw = raw_times(results, setup_times)
        metrics = end_to_end_metrics(raw, speed.index())
        failed = sum(r.error is not None for r in results)
        correct = failed == 0
        payload.update(setup_probe_s=setup_times, groups=groups, fits=fit_table(results),
                       quality=quality(results), ops=_op_records(results), raw_times=raw,
                       speed_index=speed.index(), reference_medians_s=speed.medians(),
                       reference_samples=len(speed.samples["python"]))
        spans = None
    else:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            with tracer.op_span("setup", name="setup"):
                workload.setup(seed, workdir)
        finally:
            tracer.uninstall()
        setup_spans, tracer.spans = tracer.spans, []
        plain, traced, groups = measure(workload, seed, workdir, seconds, tracer)
        spans = tracer.spans
        summary = tracing.summarize(spans)
        stats, self_times = summary
        overhead = sum(r.wall_s for r in traced) / sum(r.wall_s for r in plain) - 1.0
        accuracy = quality(plain)
        metrics = per_layer_metrics(spans, summary, setup_spans, len(traced), overhead, accuracy)
        mismatched = [i for i, (a, b) in enumerate(zip(plain, traced))
                      if a.fingerprint != b.fingerprint]
        span_problems = check_spans(spans, self_times)
        results = traced
        failed = sum(a.error is not None or b.error is not None for a, b in zip(plain, traced))
        correct = failed == 0 and not mismatched and not span_problems
        payload.update(
            groups=groups, fits=fit_table(plain), quality=accuracy, untraced_ops=_op_records(plain),
            ops=_op_records(traced), mismatched_outputs=mismatched, span_problems=span_problems[:20],
            untraced_targets=tracer.missing,
            warnings_by_span={k: s["warnings"] for k, s in stats.items() if s["warnings"]},
            span_stats=stats,
        )
    line = {"correct": correct, "attempted": len(results), "failed": failed, "metrics": metrics}
    payload["result"] = line
    payload["errors"] = sorted({r.error for r in results if r.error})[:20]
    path = _write_results(tag, payload, spans)
    return line, payload, path
