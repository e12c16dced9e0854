"""Toeplitz covariance and precision estimation via the Gohberg-Semencul
parameterization, with positive-definiteness certifying constraint sets,
likelihood optimizers, a closed-form projected least-squares estimator, the
standard baseline estimators, and a reproducible benchmark harness.
"""

from .baselines import (
    MaskSpec,
    band_estimate,
    circulant_mle,
    cv_tune_mask,
    em_toeplitz,
    mask_apply,
    sample_cov,
    shrink,
    shrink_coefficient,
    toeplitz_avg,
)
from .constraints import (
    DEFAULT_FAMILIES,
    EPS_EIG,
    EPS_F,
    BoxSpec,
    FunctionFamily,
    bisect_box_scale,
    box_bound,
    box_spec_for,
    cross_diagonals,
    frob_constraint,
    frobenius_gain_sq,
    project_box,
    spectral_pd_check,
    strictly_inside_box,
)
from .estimators import (
    EstimationReport,
    PgdOptions,
    estimate_eig,
    estimate_frob,
    estimate_pgd,
    estimate_pls,
    tune_box_family,
    tune_order,
    white_noise_report,
)
from .likelihood import (
    DegenerateDataError,
    GsObjective,
    LikelihoodContext,
    SampleSet,
    grad,
    loglik,
)
from .processes import ProcessSpec, nmse, sample, true_cm
from .toeplitz import (
    GsParams,
    HermitianToeplitz,
    LowerTriToeplitz,
    NotPositiveDefiniteError,
    PartialDiagSums,
    UnstableARError,
    ar_to_autocov,
    ar_to_gs,
    fib_seq,
    gs_assemble,
    gs_factor_b,
    gs_factor_z,
    gs_to_ar,
    toeplitz_logdet,
    trace_general_tri_shift,
    trace_toep_tri_shift,
)

__version__ = "0.1.0"
