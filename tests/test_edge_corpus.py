"""Edge corpus: every registry estimator through ``toepcov estimate`` on
tiny, degenerate and badly scaled samples, with ``--icm`` where the
estimator has a precision, and every warning an error.

Each call exits 0 with a finite ``cm_first_col`` and, with ``--icm``, a
finite ``icm_dense`` that passes Cholesky, or refuses with the exit code and
message that :func:`refusal` pins (README, "Command line").
"""

import json
import warnings

import numpy as np
import pytest

from toepcov.bench import ESTIMATORS
from toepcov.cli import main

DIMS = (2, 3, 5, 16)
# Constant, alternating and rank-one rows leave the GS fits of eig and frob
# slow to settle, 0.7 s per input at P = 5 and 1-3 s at P = 16, so those two
# take them at P = 2 and 3 only, an even and an odd order.
_SLOW_ON_RANK_ONE, RANK_ONE_DIMS = ("eig", "frob"), (2, 3)
_TUNED_GS = ("pgd", "pls", "frob", "eig")
_CROSS_VALIDATED = ("banding", "tapering")


def corpus(p: int, rank_one: bool) -> dict:
    """The inputs at dimension ``p``, by name: Gaussian samples at N = 1, 2,
    3, P and 4P; constant, alternating (+-1 checkerboard) and rank-one rows
    if ``rank_one``; duplicated rows; Gaussian samples times 1e-160 and
    1e150; and columns scaled from 1e-150 to 1e150."""
    rng = np.random.default_rng(p)
    inputs = {f"gauss-n{n}": rng.standard_normal((n, p)) for n in sorted({1, 2, 3, p, 4 * p})}
    if rank_one:
        inputs["constant"] = np.ones((4, p))
        inputs["alternating"] = np.outer((-1.0) ** np.arange(4), (-1.0) ** np.arange(p))
        inputs["rank-one"] = np.outer(rng.standard_normal(4), rng.standard_normal(p))
    inputs["duplicated"] = np.tile(rng.standard_normal((3, p)), (2, 1))
    inputs["x1e-160"] = 1e-160 * rng.standard_normal((2 * p, p))
    inputs["x1e150"] = 1e150 * rng.standard_normal((2 * p, p))
    inputs["columns"] = rng.standard_normal((2 * p, p)) * np.logspace(-150, 150, p)
    return inputs


def refusal(name: str, label: str, p: int):
    """``(exit code, stderr)`` of a call that refuses its input, None for a
    call that fits it."""
    if label == "x1e-160":  # a subnormal mean power, whose reciprocal overflows
        return 2, "numerical failure: the samples' squares leave the float range; rescale the samples\n"
    if name in _TUNED_GS and label == "gauss-n1":
        return 1, "error: BIC order tuning needs at least two samples\n"
    if name in _CROSS_VALIDATED and label in ("gauss-n1", "gauss-n2", "gauss-n3"):
        return 1, f"error: cross validation needs at least 4 samples, got {label[-1]}\n"
    # the SCM is v v^T with v a DFT vector (frequency 0, or P/2 at even P),
    # so the circulant spectrum has one nonzero: no precision
    if name == "circ" and (label == "constant" or label == "alternating" and p % 2 == 0):
        return 2, "numerical failure: the circulant estimate is singular\n"
    # every row gives the same outer product, so the plug-in weight is 0
    # and the estimate is the singular SCM
    if name == "shrink_const" and label in ("constant", "alternating"):
        return 2, "numerical failure: Matrix is not positive definite\n"
    return None


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_edge_corpus(name, tmp_path, capsys):
    info = ESTIMATORS[name]
    samples, out = tmp_path / "x.csv", tmp_path / "report.json"
    argv = ["estimate", "--input", str(samples), "--estimator", name, "--out", str(out)]
    argv += ["--icm"] if info.supports_icm else []
    for p in DIMS:
        for label, x in corpus(p, name not in _SLOW_ON_RANK_ONE or p in RANK_ONE_DIMS).items():
            np.savetxt(samples, x, delimiter=",")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(argv)
            case, err = (p, label), capsys.readouterr().err
            want = refusal(name, label, p)
            if want is not None:
                assert (code, err) == want and not out.exists(), case
                continue
            assert (code, err) == (0, ""), case
            report = json.loads(out.read_text())
            out.unlink()
            assert np.isfinite(report["cm_first_col"]).all(), case
            if info.supports_icm:
                icm = np.array(report["icm_dense"])
                assert np.isfinite(icm).all(), case
                np.linalg.cholesky(icm)
