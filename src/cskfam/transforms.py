"""The analytic transform stack: G, M, Psi, chi, S, Sigma, R and K.

Every transform is written once against the measure protocol of
:mod:`.measure`: point values come from ``cauchy_transform`` and
``psi_integral``, which each representation answers in its own way (exact
sums, edge-stable quadrature, or truncated series that warn outside their
trust region).  The series dictionary between moments and the S-transform
lives here as well, since the convolution layer and the limit-law layer
both need it.

All real-line inversions (chi, the S-transform, R) work on intervals where
the underlying transform is strictly monotone, so roots are found by
bracket expansion followed by Brent's method.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize

from .errors import DomainError, InsufficientDataError, NumericError, SingularityError
from .measure import Measure, MomentSeq
from .series import TruncatedSeries, ps_compose, ps_mul, ps_reciprocal, ps_revert

#: Brent tolerances for all monotone 1-D inversions in this module.
ROOT_RTOL = 4.0 * np.finfo(float).eps
ROOT_XTOL = 1e-14
ROOT_MAXITER = 200


def bracketed_root(f, lo: float, hi: float) -> float:
    """Brent root of ``f`` on a bracket with a sign change."""
    return float(
        optimize.brentq(f, lo, hi, xtol=ROOT_XTOL, rtol=ROOT_RTOL, maxiter=ROOT_MAXITER)
    )


# ---------------------------------------------------------------------------
# Cauchy transform


def cauchy_transform(nu: Measure, z: complex) -> complex:
    """Cauchy transform ``G(z) = integral of 1/(z - x)``.

    ``z`` must avoid the support.  For moment-sequence measures the value is
    the truncated Laurent sum, trusted only for ``|z|`` beyond
    :func:`.measure.laurent_trust_radius`; evaluation inside that disk emits a
    :class:`TruncationAccuracyWarning`.
    """
    return nu.cauchy(complex(z))


# ---------------------------------------------------------------------------
# M and Psi


def _check_theta(nu: Measure, theta: float):
    t_lo, t_hi = nu.theta_range()
    if not t_lo < theta < t_hi:
        raise DomainError(f"theta = {theta:g} outside admissible range ({t_lo:g}, {t_hi:g})")


def psi_integral(nu: Measure, theta: float) -> float:
    """``integral of theta*x / (1 - theta*x)`` for any compactly known measure.

    This is M - 1 computed without cancellation near theta = 0; the kernel
    positivity requirement of the public Psi transform does not apply here.
    For a moment sequence it is the truncated power sum, which warns with
    :class:`TruncationAccuracyWarning` outside its trust region.
    """
    if theta == 0.0:
        return 0.0
    return nu.psi_integral(theta)


def m_transform(nu: Measure, theta: float) -> float:
    """``M(theta) = integral of 1/(1 - theta*x)``; equals ``G(1/theta)/theta``."""
    if theta == 0.0:
        return 1.0
    _check_theta(nu, theta)
    return 1.0 + psi_integral(nu, theta)


def _require_positive(nu: Measure, what: str):
    if not nu.is_positive:
        raise DomainError(f"{what} requires a measure supported on [0, inf)")


def psi_transform(nu: Measure, z: complex) -> complex:
    """``Psi(z) = integral of z*x / (1 - z*x)`` for positive measures."""
    _require_positive(nu, "the Psi transform")
    z = complex(z)
    if z == 0.0:
        return 0.0
    if z.imag == 0.0:
        zr = z.real
        lo, hi = nu.support()
        if zr != 0.0 and lo <= 1.0 / zr <= hi:
            raise SingularityError(f"1/z = {1.0 / zr:g} lies in the support")
        return complex(psi_integral(nu, zr), 0.0)
    return nu.psi_integral(z)


def chi_inverse(nu: Measure, w: float) -> float:
    """The unique ``z < 0`` with ``Psi(z) = w``, for ``w in (delta - 1, 0)``.

    ``delta`` is the mass of the measure at 0; Psi is strictly increasing on
    the negative half-line, so a sign-change bracket always exists inside
    the admissible interval.
    """
    _require_positive(nu, "the chi inverse")
    delta = nu.zero_mass
    if delta >= 1.0:
        raise DomainError("the measure is concentrated at 0; chi is undefined")
    if not delta - 1.0 < w < 0.0:
        raise DomainError(f"w = {w:g} outside ({delta - 1.0:g}, 0)")
    f = lambda z: psi_integral(nu, z) - w
    lo = -1.0
    for _ in range(200):
        if f(lo) < 0.0:
            break
        lo *= 2.0
    else:
        raise NumericError("no bracket for the chi inverse; Psi did not cross w")
    hi = -1e-300
    return bracketed_root(f, lo, hi)


def s_transform(nu: Measure, w: float) -> float:
    """``S(w) = chi(w) * (1 + w) / w``; positive and strictly decreasing."""
    return chi_inverse(nu, w) * (1.0 + w) / w


def sigma_transform(nu: Measure, z: float) -> float:
    """``Sigma(z) = S(z / (1 - z))`` where the inner point is admissible."""
    if z == 1.0:
        raise DomainError("z = 1 is outside the Sigma domain")
    return s_transform(nu, z / (1.0 - z))


# ---------------------------------------------------------------------------
# R and K


def r_transform(nu: Measure, z: float) -> float:
    """``R(z) = G^{-1}(z) - 1/z`` with the inverse taken on the real axis.

    The preimage is searched outside the support: above it for ``z > 0``,
    below it for ``z < 0``, so a moment sequence raises
    :class:`InsufficientDataError`.
    """
    if z == 0.0:
        raise DomainError("R is evaluated at nonzero arguments only")
    # One walk for both sides: away from the support edge ``edge`` in the
    # direction ``side``, where ``side * (G - z)`` falls from positive to
    # negative through the preimage.
    side = 1.0 if z > 0.0 else -1.0
    edge = nu.support()[z > 0.0]
    f = lambda y: side * (cauchy_transform(nu, y).real - z)
    start = edge + side * max(1e-9, 1e-9 * abs(edge))
    if f(start) < 0.0:
        where = "exceeds G just above" if z > 0.0 else "is below G just under"
        raise DomainError(f"z = {z:g} {where} the support; no real preimage")
    y = start + side
    for _ in range(200):
        if f(y) < 0.0:
            break
        y = edge + 2.0 * (y - edge)
    else:
        raise NumericError("no bracket found for the inverse Cauchy transform")
    return bracketed_root(f, *sorted((start, y))) - 1.0 / z


def k_transform(nu: Measure, z: complex) -> complex:
    """Self-energy ``K(z) = z - 1/G(z)``; additive under Boolean convolution."""
    g = cauchy_transform(nu, z)
    if g == 0.0:
        raise SingularityError(f"G vanishes at z = {z}")
    return z - 1.0 / g


# ---------------------------------------------------------------------------
# series dictionary: moments <-> S


def s_series(m: MomentSeq) -> TruncatedSeries:
    """S-transform power series around 0, at order ``K - 1``.

    Reverts the Psi series ``(0, m1, ..., mK)`` to chi and multiplies by
    ``(1 + w) / w``.  Requires ``m1 != 0``.
    """
    if m.values[0] == 0.0:
        raise DomainError("the S series needs a nonzero first moment")
    chi = ps_revert(TruncatedSeries((0.0,) + m.values))
    chi_over_w = TruncatedSeries(chi.coeffs[1:])  # order K-1
    one_plus_w = TruncatedSeries((1.0, 1.0) + (0.0,) * max(0, chi_over_w.order - 1))
    return ps_mul(chi_over_w, one_plus_w)


def s_series_to_moments(s: TruncatedSeries, order: int) -> MomentSeq:
    """Invert :func:`s_series`: recover ``order`` moments from an S series.

    Needs ``s`` through order ``order - 1`` and a nonzero constant term.
    """
    if s.order < order - 1:
        raise InsufficientDataError(
            f"S series order {s.order} cannot produce {order} moments"
        )
    if s.coeffs[0] == 0.0:
        raise DomainError("S series must have a nonzero constant term")
    head = s.truncate(order - 1)
    one_plus_w = TruncatedSeries((1.0, 1.0) + (0.0,) * max(0, order - 2))
    ratio = ps_mul(head, ps_reciprocal(one_plus_w))  # S/(1+w), order-1
    chi = TruncatedSeries((0.0,) + ratio.coeffs)  # w*S/(1+w), order
    psi = ps_revert(chi)
    return MomentSeq(psi.coeffs[1:])


def _compose_moebius(s: TruncatedSeries, r: float) -> TruncatedSeries:
    """``s(w/(1 + r*w))`` at the order of ``s``; the inner series is
    ``sum_k (-r)**(k-1) * w**k``."""
    return ps_compose(s, TruncatedSeries((0.0,) + tuple((-r) ** k for k in range(s.order))))


def sigma_series_to_s_series(sigma: TruncatedSeries) -> TruncatedSeries:
    """Convert a Sigma series to an S series via ``S(w) = Sigma(w/(1+w))``."""
    return _compose_moebius(sigma, 1.0)
