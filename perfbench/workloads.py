"""The benchmark's workloads.

Each workload turns the seed into inputs, hands the program one operation at
a time (closed loop, one client, ``workers=1``) and checks every output from
outside.  An operation group is the unit the loop schedules: one Monte Carlo
cell, or one round of ``estimate`` calls on a fresh dataset.

Why these two (the same text, shortened, is in ``BENCHMARK.json``):

* ``mc-ar1-p16-n32`` is one cell of the paper's precision-error experiment
  on AR(1) a=0.5, sigma^2=0.64, P=16, with N=32 samples.  Tuned ``pgd`` is
  ~98% of a cell, so the optimizer, tuning and likelihood layers do almost
  all the work and the baselines almost none: many cheap likelihood calls
  at P=16.
* ``estimate-arma-p128`` is per-estimate latency for a CLI user at P=128,
  N=64 on the ARMA(1,1) process of ``toepcov timing``: O(P^3) ``em``,
  dense-DFT ``circ``, the finite-difference Frobenius gradient in ``frob``,
  dense-per-bandwidth CV banding, the O(P^2) context precompute and CLI I/O.
  The order is pinned at 6 so per-evaluation cost dominates: few O(P^2)
  likelihood calls.  Baselines do a fifth of its work and almost none of
  the other workload's, so a change to them shows only here.

Sizes are set by how steady a run must be.  A run lasts about a minute and
a change is judged on the median over seeds, so a group's cost must not
depend much on the data the seed draws:

* The criterion-10 cell (N=8 < P) costs a number of likelihood evaluations
  with a log standard deviation of ~0.57 across datasets; at N=32 it is
  ~0.2, and a run fits ~50 cells.
* At P=256 a round of ``estimate`` calls takes ~14 s, so a run has four
  rounds and their data-dependent cost (``frob`` and ``pgd`` iterations)
  does not average out; at P=128 a round takes ~5-7 s.

A third, data-rich workload (one cell of MA(1) b=0.5, P=64, N=256 with
``pls banding tapering shrink_avg shrink_const circ``) was dropped to give
the other two longer runs.  P=256 and larger wait for a scaling workload:
box calibration raises "box bounds must be strictly positive" at P=512
(exp-1.8, exp-2.2) and at P=768 (exp-1), so tuned or pinned ``pgd``/``pls``
cannot run there, and ``em`` takes ~28 s per fit at P=512.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from toepcov import bench, cli, constraints, estimators, likelihood, processes

#: The Gohberg-Semencul (proposed) estimators; every other one is a baseline.
GS_ESTIMATORS = frozenset({"pgd", "pls", "frob", "eig"})
#: Estimators whose precision estimate the program reports.
ICM_ESTIMATORS = frozenset({"pgd", "pls", "frob", "eig", "circ", "em", "shrink_const"})


@dataclass
class Fit:
    estimator: str
    ms: float
    nmse_icm: float | None = None
    loglik_gain: float | None = None


@dataclass
class OpResult:
    wall_s: float
    error: str | None = None
    fits: list = field(default_factory=list)
    fingerprint: bytes = b""
    warnings: int = 0
    group: int = 0


@dataclass
class Op:
    """One measured call: ``run()`` is timed, ``check(raw, wall_s)`` is not."""

    label: str
    run: object
    check: object


def white_noise_loglik(samples) -> float:
    """Objective value of the closed-form order-zero fit, the gain's zero point."""
    return estimators.white_noise_report(likelihood.SampleSet(samples).context()).loglik


def _finite(x) -> bool:
    return x is not None and math.isfinite(x)


def calibrate_boxes(p: int) -> None:
    for family in constraints.DEFAULT_FAMILIES:
        constraints.box_spec_for(family, p)


# -- Monte Carlo cells ----------------------------------------------------------


@dataclass(frozen=True)
class MonteCarloWorkload:
    name: str
    kind: str
    point: tuple
    sigma2: float
    p: int
    n: int
    estimators: tuple

    def setup(self, seed: int, workdir: str) -> None:
        self.config(seed, 0)
        calibrate_boxes(self.p)

    def config(self, seed: int, index: int) -> bench.ExperimentConfig:
        return bench.ExperimentConfig(
            kind=self.kind, points=(self.point,), sigma2=self.sigma2, dims=(self.p,),
            sample_counts=(self.n,), estimators=self.estimators, runs=1,
            seed=seed * 2**20 + index,
        )

    def group(self, seed: int, index: int, workdir: str) -> list:
        config = self.config(seed, index)
        out_dir = os.path.join(workdir, "cell")
        return [Op(f"cell{index}", lambda: bench.run_benchmark(config, out_dir),
                   lambda raw, wall: self._check(config, out_dir, wall))]

    def _check(self, config, out_dir, wall_s) -> OpResult:
        with open(os.path.join(out_dir, "results.csv"), "rb") as handle:
            csv_bytes = handle.read()
        with open(os.path.join(out_dir, "results.json")) as handle:
            detail = json.load(handle)
        result = OpResult(wall_s, fingerprint=csv_bytes)
        rows = list(csv.DictReader(io.StringIO(csv_bytes.decode())))
        if [r["estimator"] for r in rows] != list(self.estimators):
            result.error = "results.csv does not list the configured estimators"
            return result
        failures = sum(int(r["failures"]) for r in rows)
        if failures:
            result.error = f"results.csv reports {failures} failed fit(s)"
            return result
        spec = config.process_spec(self.point, self.p)
        data = processes.sample(spec, self.n, bench.derive_seed(config.seed, self.point, self.p, self.n, 0))
        wn = white_noise_loglik(data.samples)
        for cell in detail["cells"]:
            (rec,) = cell["records"]
            name = rec["estimator"]
            if "error" in rec or not _finite(rec.get("nmse_c")):
                result.error = f"{name}: no finite covariance NMSE"
                return result
            fit = Fit(name, rec["wall_ms"])
            if name in ICM_ESTIMATORS:
                if not _finite(rec.get("nmse_icm")):
                    result.error = f"{name}: no finite precision NMSE"
                    return result
                fit.nmse_icm = rec["nmse_icm"]
            if name in GS_ESTIMATORS:
                if not _finite(rec.get("loglik")):
                    result.error = f"{name}: no finite log-likelihood"
                    return result
                fit.loglik_gain = rec["loglik"] - wn
            result.fits.append(fit)
        return result


# -- estimate calls ---------------------------------------------------------------


def arma11_autocov(a: float, b: float, sigma2: float, p: int) -> np.ndarray:
    c = np.empty(p)
    c[0] = sigma2 * (1.0 + 2.0 * a * b + b * b) / (1.0 - a * a)
    c[1] = sigma2 * (1.0 + a * b) * (a + b) / (1.0 - a * a)
    c[2:] = c[1] * a ** np.arange(1, p - 1)
    return c


def toeplitz_dense(col: np.ndarray) -> np.ndarray:
    idx = np.arange(col.size)
    return col[np.abs(idx[:, None] - idx[None, :])]


@dataclass(frozen=True)
class EstimateWorkload:
    name: str
    p: int
    n: int
    a: float
    b: float
    sigma2: float
    #: ``(estimator, extra arguments, with --icm)`` in call order.
    calls: tuple

    def setup(self, seed: int, workdir: str) -> None:
        self._write_samples(seed, 0, workdir)
        calibrate_boxes(self.p)

    @cached_property
    def _truth(self):
        """Cholesky factor of the true covariance and the true precision."""
        cov = toeplitz_dense(arma11_autocov(self.a, self.b, self.sigma2, self.p))
        return np.linalg.cholesky(cov), np.linalg.inv(cov)

    def _write_samples(self, seed: int, index: int, workdir: str):
        rng = np.random.default_rng([seed, index])
        samples = rng.standard_normal((self.n, self.p)) @ self._truth[0].T
        path = os.path.join(workdir, f"samples{index}.csv")
        np.savetxt(path, samples, delimiter=",", fmt="%.17g")
        return path, samples

    def group(self, seed: int, index: int, workdir: str) -> list:
        path, samples = self._write_samples(seed, index, workdir)
        truth_icm = self._truth[1]
        wn = white_noise_loglik(samples)
        out = os.path.join(workdir, "report.json")
        ops = []
        for name, extra, icm in self.calls:
            argv = ["estimate", "--input", path, "--estimator", name, "--out", out, *extra]
            if icm:
                argv.append("--icm")
            ops.append(Op(f"round{index}:{name}", lambda argv=argv: cli.main(argv),
                          lambda rc, wall, name=name, icm=icm: self._check(
                              name, icm, rc, wall, out, truth_icm, wn)))
        return ops

    def _check(self, name, icm, rc, wall_s, out, truth_icm, wn) -> OpResult:
        result = OpResult(wall_s)
        if rc != 0:
            result.error = f"{name}: exit code {rc}"
            return result
        try:
            with open(out) as handle:
                report = json.load(handle)
            os.remove(out)  # a later call that writes no report must not pass on this one
        except (OSError, ValueError) as exc:
            result.error = f"{name}: unreadable report: {exc}"
            return result
        report.pop("wall_ms", None)
        result.fingerprint = json.dumps(report, sort_keys=True).encode()
        first_col = np.asarray(report.get("cm_first_col") or [], dtype=float)
        if first_col.shape != (self.p,) or not np.all(np.isfinite(first_col)):
            result.error = f"{name}: cm_first_col is missing or not finite"
            return result
        fit = Fit(name, wall_s * 1e3)
        if icm:
            dense = np.asarray(report.get("icm_dense") or [], dtype=float)
            if dense.shape != (self.p, self.p) or not np.all(np.isfinite(dense)):
                result.error = f"{name}: icm_dense is missing or not finite"
                return result
            if not np.allclose(dense, dense.T, rtol=1e-8, atol=1e-10 * np.abs(dense).max()):
                result.error = f"{name}: icm_dense is not symmetric"
                return result
            try:
                np.linalg.cholesky(dense)
            except np.linalg.LinAlgError:
                result.error = f"{name}: icm_dense is not positive definite"
                return result
            fit.nmse_icm = float(np.sum((dense - truth_icm) ** 2) / np.sum(truth_icm ** 2))
        if name in GS_ESTIMATORS:
            if not _finite(report.get("loglik")):
                result.error = f"{name}: no finite log-likelihood"
                return result
            fit.loglik_gain = report["loglik"] - wn
        result.fits.append(fit)
        return result


WORKLOADS = {
    w.name: w
    for w in (
        MonteCarloWorkload("mc-ar1-p16-n32", "ar", (0.5,), 0.64, 16, 32,
                           ("pgd", "pls", "circ", "em", "shrink_const")),
        EstimateWorkload("estimate-arma-p128", 128, 64, 0.7, 0.3, 0.64, (
            ("pls", ("--order", "auto"), True),
            ("pgd", ("--order", "6"), True),
            ("frob", ("--order", "6"), True),
            ("em", (), True),
            ("circ", (), True),
            ("banding", (), False),
            ("shrink_const", (), True),
        )),
    )
}
