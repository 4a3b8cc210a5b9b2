"""Numerical toolkit for Cauchy-Stieltjes kernel families.

Measure representations, the analytic transform stack (Cauchy, M, Psi,
chi, S, Sigma, R, K), moment-level free/Boolean/multiplicative
convolutions with real powers, variance and pseudo-variance functions
with their transformation laws, and a desk-scale harness for the
associated convolution limit theorems.
"""

from .conv import (
    BooleanCumulants,
    FreeCumulants,
    affine_image,
    boolean_cumulants_to_moments,
    boxplus,
    boxplus_power,
    boxtimes,
    boxtimes_power,
    bp_transform,
    dilate,
    free_cumulants_to_moments,
    moments_to_boolean_cumulants,
    moments_to_free_cumulants,
    uplus,
    uplus_power,
)
from .csk import (
    CskDescriptor,
    VarianceProfile,
    affine_pseudo_variance,
    boxplus_power_variance,
    boxtimes_power_pseudo_variance,
    boxtimes_power_variance,
    bt_pseudo_variance,
    bt_variance,
    closed_form_variance,
    csk_density_weight,
    csk_family,
    k_mean,
    mean_domain,
    pseudo_variance,
    psi_mean_inverse,
    uplus_power_variance,
    variance,
)
from .errors import (
    AccuracyError,
    CskfamError,
    DomainError,
    FormalPowerWarning,
    InsufficientDataError,
    MeasureSpecError,
    NumericError,
    SingularityError,
    TruncationAccuracyWarning,
)
from .limits import (
    ConvergenceReport,
    LimitLaw,
    convergence_report,
    limit_law,
    limit_law_moments,
    limit_variance_eta,
    limit_variance_sigma,
    scaled_sequence_moments,
    verify_bp_identity,
)
from .measure import (
    AtomicMeasure,
    FreePoisson,
    MarchenkoPasturCentered,
    Measure,
    MomentSeq,
    Semicircle,
    mean,
    moments,
    parse_measure_spec,
    quadrature_integrate,
    variance_of,
)
from .series import DEFAULT_ORDER, TruncatedSeries, ps_add, ps_compose, ps_mul, ps_pow_real, ps_revert
from .transforms import (
    cauchy_transform,
    chi_inverse,
    k_transform,
    m_transform,
    psi_transform,
    r_transform,
    s_series,
    s_series_to_moments,
    s_transform,
    sigma_transform,
)

__version__ = "0.1.0"
