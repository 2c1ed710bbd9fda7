"""qsign: dual-route verification of the periodic sign pattern of the
Fourier coefficients of the tenth-order shifted-product quotient and its
reciprocal.

The coefficients are computed two independent ways -- exact truncated
integer series, and a Kloosterman/Bessel exact formula -- and every
quantitative step of the sign-pattern argument (twisted-sum bounds,
reduction identities, Bessel inequalities, modular transformations, and
the closing threshold inequality) is machine-checked with rigorous error
bounds.
"""

from .arithmetic import (
    CuspData,
    KloostermanValue,
    a_k,
    a_kj,
    a_kj_reduced_d5,
    a_kj_reduced_d10_abs,
    a_kj_rewrite,
    aggregated_bound_check,
    bound_check_d5,
    bound_check_d10,
    cal_a_k,
    decompose,
    divisor_count,
    kloosterman,
    weil_bound_check,
)
from .exactformula import (
    ExactEval,
    MainErrorSplit,
    c_exact,
    error_bound_total,
    main_error_split,
    main_term,
    tail_bound_op,
    term_k,
    threshold_lhs,
)
from .modularcheck import (
    EtaMultiplier,
    ThetaPoint,
    eta,
    f_eval,
    growth_classifier,
    omega_hk,
    theta,
    transformation_check,
)
from .numerics import (
    ErrComplex,
    ErrReal,
    Sign,
    bessel_bound_checks,
    bessel_i1,
    working_precision,
    zeta_3_2,
)
from .qseries import (
    TruncatedSeries,
    Verdict,
    q10_series,
    series_mul,
    series_recip,
    sign_pattern_verdict,
)
from .verifier import (
    PipelineConfig,
    SignReport,
    full_pipeline,
    run_bound_sweeps,
    run_exact_oracle,
    verify_conjecture,
)

__version__ = "0.1.0"
