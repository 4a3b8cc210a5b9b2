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

import math

import numpy as np

from .errors import DomainError, InsufficientDataError, NumericError, SingularityError
from .measure import Measure, MomentSeq
from .series import ps_mul, ps_revert

#: Brent tolerances for all monotone 1-D inversions in this module.
ROOT_RTOL = 4.0 * np.finfo(float).eps
ROOT_XTOL = 1e-14
ROOT_MAXITER = 200


def bracketed_root(f, lo: float, hi: float) -> float:
    """Brent root of ``f`` on the bracket ``[lo, hi]``, with a sign change.

    Brent's method (Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 4) as written in scipy's ``brentq``: the same
    steps in the same floating-point order, so it calls ``f`` at the same
    points and returns the same root.  It calls ``f(lo)``, then ``f(hi)``,
    then ``f`` at one point per iteration, and stops when half the bracket
    is below ``(ROOT_XTOL + ROOT_RTOL*|x|)/2``.  Raises
    :class:`NumericError` when ``f(lo)`` or ``f(hi)`` is not finite, when
    they have the same sign, when a value is NaN, or after
    ``ROOT_MAXITER`` iterations without convergence.
    """
    xpre, xcur = float(lo), float(hi)
    fpre = _root_value(xpre, f(xpre))
    fcur = _root_value(xcur, f(xcur))
    if not (math.isfinite(fpre) and math.isfinite(fcur)):
        raise NumericError(f"f is not finite at the bracket ends: f({xpre:g}) = {fpre}, "
                           f"f({xcur:g}) = {fcur}")
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise NumericError(f"no sign change on the bracket [{xpre:g}, {xcur:g}]")
    xblk = fblk = spre = scur = 0.0
    for _ in range(ROOT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (ROOT_XTOL + ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless interpolation gives a good short step
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic extrapolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                if den != 0.0:  # underflowed: C divides to an inf or NaN step, and bisects
                    stry = -fcur * (fblk * dblk - fpre * dpre) / den
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = _root_value(xcur, f(xcur))
    raise NumericError(f"Brent did not converge in {ROOT_MAXITER} iterations near {xcur:g}")


def _root_value(x: float, fx) -> float:
    value = float(fx)
    if math.isnan(value):
        raise NumericError(f"f({x:g}) is NaN; the root search cannot continue")
    return value


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


def s_series(m: MomentSeq) -> np.ndarray:
    """S-transform power series around 0, at order ``K - 1``.

    Reverts the Psi series ``(0, m1, ..., mK)`` to chi and multiplies by
    ``(1 + w) / w``.  Requires ``m1 != 0``.
    """
    if m.values[0] == 0.0:
        raise DomainError("the S series needs a nonzero first moment")
    chi = ps_revert(np.array((0.0,) + m.values))
    return chi[1:] + chi[:-1]  # coefficient k of (1 + w)*chi/w, chi0 = 0


def s_series_to_moments(s: np.ndarray, order: int) -> MomentSeq:
    """Invert :func:`s_series`: recover ``order`` moments from an S series.

    Needs ``s`` through order ``order - 1`` and a nonzero constant term.
    """
    if len(s) < order:
        raise InsufficientDataError(
            f"S series order {len(s) - 1} cannot produce {order} moments"
        )
    if s[0] == 0.0:
        raise DomainError("S series must have a nonzero constant term")
    ratio = ps_mul(s[:order], np.resize((1.0, -1.0), order))  # S/(1+w), order-1
    chi = np.concatenate(((0.0,), ratio))  # w*S/(1+w), order
    psi = ps_revert(chi)
    return MomentSeq(psi[1:].tolist())
