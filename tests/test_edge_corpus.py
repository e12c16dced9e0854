"""Edge corpus: every registry estimator through ``toepcov estimate`` on
tiny, degenerate and badly scaled samples, with ``--icm`` where the
estimator has a precision (and on constant, alternating and rank-one rows
once more without it), and every warning an error.

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

DIMS = (1, 2, 3, 5, 16)
# Constant, alternating and rank-one rows leave the GS fits of eig and frob
# slow to settle, 0.7 s per input at P = 5 and 1-3 s at P = 16, so those two
# take them at P = 2 and 3 only, an even and an odd order, and at P = 1, where
# white noise is the only order.
_SLOW_ON_RANK_ONE, RANK_ONE_DIMS = ("eig", "frob"), (1, 2, 3)
_RANK_ONE = ("constant", "alternating", "rank-one")
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


def refusal(name: str, label: str, n: int, p: int, icm: bool):
    """``(exit code, stderr)`` of a call on ``n`` samples that refuses its
    input, None for a call that fits it; ``icm`` says whether it asks for
    the precision."""
    if label == "x1e-160":  # a subnormal mean power, whose reciprocal overflows
        return 2, "numerical failure: the samples' squares leave the float range; rescale the samples\n"
    if name in _TUNED_GS and n == 1:
        return 1, "error: BIC order tuning needs at least two samples\n"
    if name in _CROSS_VALIDATED and n < 4:  # at P = 1 the 2P-row inputs too
        return 1, f"error: cross validation needs at least 4 samples, got {n}\n"
    # Only a precision can fail below, and only at P > 1, where constant and
    # alternating rows leave the SCM of rank one.
    if not icm or p == 1:
        return None
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
    for p in DIMS:
        for label, x in corpus(p, name not in _SLOW_ON_RANK_ONE or p in RANK_ONE_DIMS).items():
            np.savetxt(samples, x, delimiter=",")
            runs = (True, False) if info.supports_icm and label in _RANK_ONE else (info.supports_icm,)
            for with_icm in runs:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    code = main(argv + ["--icm"] * with_icm)
                case, err = (p, label, with_icm), capsys.readouterr().err
                want = refusal(name, label, len(x), p, with_icm)
                if want is not None:
                    assert (code, err) == want and not out.exists(), case
                    continue
                assert (code, err) == (0, ""), case
                report = json.loads(out.read_text())
                out.unlink()
                assert np.isfinite(report["cm_first_col"]).all(), case
                assert ("icm_dense" in report) == with_icm, case
                if with_icm:
                    icm = np.array(report["icm_dense"])
                    assert np.isfinite(icm).all(), case
                    np.linalg.cholesky(icm)
