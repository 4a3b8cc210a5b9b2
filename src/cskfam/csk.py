"""Cauchy-Stieltjes kernel family machinery.

A generating measure ``nu`` is tilted by the kernel ``1/(1 - theta*x)``;
sweeping ``theta`` produces a family of measures parametrized either by
``theta`` or, after inverting the mean map, by the mean ``m``.  This module
computes the mean map and its inverse, domains of means, pseudo-variance
and variance functions, member densities, and the transformation laws of
the variance function under affine images, convolution powers and the
Boolean-to-free map.  ``family_rows`` gives theta, the pseudo-variance and
the variance at each mean of a grid, and is what ``cskfam csk``
tabulates; ``variances`` gives the variance alone, as ``cskfam limit``
needs it.  The scalar calls (``family_row``, ``variance``,
``pseudo_variance``, ``psi_mean_inverse``) are one-mean grids whose error
is raised, so each quantity has one code path.

Everything here reads the generator through the measure protocol (mean,
support, G, Psi and the Jacobi parameters), and each quantity has one
formula for every representation: both ends of the domain of means are
``K(edge) = edge - 1/G(edge)``, taken in closed form from a constant
Jacobi tail and from the finite sum of an atomic G, so that no ``cskfam
csk`` number needs quadrature; the pseudo-variance and variance are read
off the mean-map root ``theta``.  Only that root (``_roots``) picks a route by
representation.  A moment sequence's truncated power series of Psi
diverges at the relevant ``theta``, so its root comes from the reverted
S-series, which converges regardless of the unknown support radius.
Every other law has Jacobi parameters, which give the exact root in
closed form (``_jacobi_roots``: the free Meixner continued fraction for a
constant tail, an extreme eigenvalue for a finite Jacobi matrix), and a
mean whose root is not admissible is refused.  ``k_mean``, the mean map
from one Psi integral, is what the tests check those roots against.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

from .errors import (
    CskfamError,
    DomainError,
    NumericError,
    raise_error,
    require_nonnegative,
    require_positive,
    value_or_error,
)
from .measure import Measure, MomentSeq, mean, support_bounds, variance_of
from .transforms import _check_theta, bracketed_root, cauchy_transform, psi_integral, s_series

_MEAN_MATCH_TOL = 1e-12

#: Floor on ``1 + psi_integral`` below which ``k_mean`` declares the mean
#: lost: under it the sum has cancelled to fewer than half its digits.
_MEAN_MAP_FLOOR = math.sqrt(np.finfo(float).eps)

#: Means whose roots ``_roots`` reads at a time, which bounds the
#: (means x k x k) array of the eigenvalue route.
_GRID_CHUNK = 64


# ---------------------------------------------------------------------------
# mean parametrization


def k_mean(nu: Measure, theta: float) -> float:
    """Mean of the family member at kernel parameter ``theta``, from one
    Psi integral.  No root of this module is read off it: it is the mean
    map that the tests hold those roots against.

    Strictly increasing in ``theta``; ``theta = 0`` returns the generator
    mean.  Computed as ``P/(theta*(1+P))`` with ``P = integral of
    theta*x/(1-theta*x)``, which stays stable as ``theta -> 0``.

    ``1 + P``, the integral of ``1/(1 - theta*x)``, is positive, but at a
    large unbounded ``theta`` it cancels in floating point: once it is at
    most ``sqrt(eps)`` (about 1.5e-8) fewer than half its digits are left,
    the computed mean can fall on the wrong side of a target, and
    NumericError is raised.
    """
    if theta == 0.0:
        return mean(nu)
    _check_theta(nu, theta)
    p = psi_integral(nu, theta)
    if not 1.0 + p > _MEAN_MAP_FLOOR:
        raise NumericError(f"the mean map is lost to cancellation at theta = {theta:g}")
    return p / (theta * (1.0 + p))


def _jacobi_roots(nu: Measure, m0: float, means: Sequence[float]) -> list[float]:
    """The mean-map root ``theta = 1/p`` at each mean, from one read of
    :meth:`.Measure.jacobi`: nan where ``nu`` has no Jacobi parameters (a
    moment sequence) or the mean gives no root.

    The mean map is ``m = K(p)`` with ``K(z) = z - 1/G(z)``, and the
    continued fraction of G gives ``K(p) = alpha_0 + omega_1*G'(p)``, with
    ``G'`` the Cauchy transform of the Jacobi matrix ``J'`` that is ``J``
    without its first row and column.  With ``d = m - alpha_0``, where
    ``alpha_0`` is the generator mean ``m0``:

    * a constant tail (length at most 2: the named densities, laws of one
      or two atoms) gives ``p = alpha_1 + omega_1/d + omega_2*d/omega_1``,
      the free Meixner root (Bryc & Ismail, arXiv math/0512224).  It is
      the root only where ``G'(p) = d/omega_1`` can hold, which is where
      ``omega_2*d**2 < omega_1**2``; elsewhere it is the quadratic's other
      root (free Poisson at ``m = 3`` would give ``theta = 2/9``), and nan.
      Where ``alpha_1**2 = 4*omega_2`` the support ends at 0 (free Poisson,
      a semicircle with ``center**2 = 4*variance``), and ``p*d`` is the
      square ``(omega_2/omega_1)*(m - e)**2`` about the end ``e = m0 -
      alpha_1*omega_1/(2*omega_2)`` of the domain of means;
    * a finite matrix (three atoms or more, ``omega_n = 0``) gives ``p`` as
      the eigenvalue of ``J' + (omega_1/d)*e1*e1^T`` beyond the spectrum of
      ``J'`` on the side of ``d``: the largest for ``m > m0`` and the
      smallest below, from one batched ``eigvalsh`` for all the means.
    """
    jacobi = nu.jacobi()
    if jacobi is None:
        return [math.nan] * len(means)
    alpha, omega = jacobi
    m = np.asarray(means, dtype=float)
    d = m - m0
    with np.errstate(all="ignore"):
        if max(alpha.size, omega.size) <= 2:
            # theta = d/(p*d) with p*d a quadratic in d: fewer roundings than
            # 1/p, whose three terms cancel next to an end of the domain;
            # a square is taken as one, since expanded it cancels next to e
            (_, a1), (w1, w2) = (np.append(x, x[-1])[:2] for x in jacobi)
            if w2 > 0.0 and a1 * a1 == 4.0 * w2:
                r = m - (m0 - a1 * w1 / (2.0 * w2))
                pd = (w2 / w1) * (r * r)
            else:
                pd = (w1 + a1 * d) + w2 * d * (d / w1)
            return np.where(w2 * d * d < w1 * w1, d / pd, math.nan).tolist()
        k = alpha.size - 1
        off = np.diag(np.sqrt(omega[1:k]), 1)
        tail = np.broadcast_to(np.diag(alpha[1:]) + off + off.T, (d.size, k, k)).copy()
        c = omega[0] / d
        finite = np.isfinite(c)
        tail[:, 0, 0] += np.where(finite, c, 0.0)
        eig = np.linalg.eigvalsh(tail)
        return (1.0 / np.where(finite, np.where(d > 0.0, eig[:, -1], eig[:, 0]), math.nan)).tolist()


def _roots(nu: Measure, m0: float, means: Sequence[float]) -> list:
    """The mean-map root at each mean (``m0`` the generator mean), or the
    CskfamError raised there; 0 within ``_MEAN_MATCH_TOL`` of ``m0``.

    The one place that picks a route by representation.  A moment
    sequence's truncated Psi series diverges at the relevant ``theta``, so
    its root ``1/(m + PV/m)`` comes from the reverted S-series.  Any other
    law has Jacobi parameters, and its root is :func:`_jacobi_roots`, read
    ``_GRID_CHUNK`` means at a time; no Psi is evaluated.  That root is
    answered where it is admissible: ``m`` strictly inside the support
    hull (at an atom on its end, rounding can put ``theta`` just inside
    ``theta_range``) and ``theta`` inside ``theta_range`` on the side of 0
    of ``m - m0``, which also refuses nan.  A refused mean is a
    DomainError that names the end of the domain on its side: "m above
    (below) the attainable means" where ``theta`` is unbounded on that
    side, and "m at or above (below) the upper (lower) mean endpoint"
    where it is not.
    """
    if isinstance(nu, MomentSeq):
        return [value_or_error(_moment_root, nu, m, m0) for m in means]
    (lo, hi), (t_lo, t_hi) = nu.support(), nu.theta_range()
    roots = []
    for first in range(0, len(means), _GRID_CHUNK):
        part = means[first:first + _GRID_CHUNK]
        for m, theta in zip(part, _jacobi_roots(nu, m0, part)):
            if abs(m - m0) <= _MEAN_MATCH_TOL:
                roots.append(0.0)
            elif m > m0:
                roots.append(theta if lo < m < hi and 0.0 < theta < t_hi else
                             _refusal(m, "above", "upper", t_hi))
            else:
                roots.append(theta if lo < m < hi and t_lo < theta < 0.0 else
                             _refusal(m, "below", "lower", t_lo))
    return roots


def _refusal(m: float, side: str, edge: str, end: float) -> DomainError:
    """The refusal of mean ``m``, on the side of the domain whose end of
    ``theta_range`` is ``end``."""
    if math.isinf(end):
        return DomainError(f"m = {m:g} {side} the attainable means")
    return DomainError(f"m = {m:g} at or {side} the {edge} mean endpoint")


def _moment_root(mseq: MomentSeq, m: float, m0: float) -> float:
    if abs(m - m0) <= _MEAN_MATCH_TOL:
        return 0.0
    if m == 0.0:
        raise DomainError("moment-sequence inversion needs a nonzero target mean")
    return 1.0 / (m + _pseudo_variance_from_moments(mseq, m) / m)


def psi_mean_inverse(nu: Measure, m: float) -> float:
    """The kernel parameter whose family member has mean ``m``: a one-mean
    :func:`_roots`, whose CskfamError is raised here."""
    return raise_error(_roots(nu, mean(nu), [m])[0])


# ---------------------------------------------------------------------------
# mean-domain endpoints


def _mean_endpoint(nu: Measure, upper: bool) -> float:
    """``K(edge)`` at the lower or upper end ``edge`` of :func:`support_bounds`:
    ``edge`` itself where G diverges, the exact ``edge - 1/G(edge)`` of a
    finite Jacobi matrix (``omega_n = 0``: atoms), and for a constant tail
    ``(alpha_0, alpha_1; omega_1, omega_2)`` ``alpha_0 + omega_1*G'(edge)``,
    with ``G'(e) = 2/(d + sgn(d)*sqrt(d**2 - 4*omega_2))``, ``d = e -
    alpha_1``, the tail's Cauchy transform: ``alpha_0 +/-
    omega_1/sqrt(omega_2)`` at an end of the support."""
    edge = support_bounds(nu)[upper]
    at_support = edge == nu.support()[upper]
    if at_support and (nu.upper_edge_singular if upper else nu.lower_edge_singular):
        return edge
    alpha, omega = nu.jacobi()
    if omega[-1] == 0.0:
        return edge - 1.0 / cauchy_transform(nu, edge).real
    (a0, a1), (w1, w2) = alpha.tolist(), omega.tolist()
    if at_support:
        # omega_1/sqrt(omega_2), rounded once where omega_1 = omega_2, as on
        # every named density: the end is center +/- sqrt(variance)
        step = math.sqrt(w1 * (w1 / w2))
        return a0 + step if upper else a0 - step
    d = edge - a1
    # d*d - 4*omega_2 rounded once, from Dekker's exact square p + err (d split in 26-bit
    # halves, which overflow past 1e150): the plain difference cancels next to the support
    p, split = d * d, 134217729.0 * d  # 2**27 + 1
    hi = split - (split - d)
    err = ((hi * hi - p) + 2.0 * hi * (d - hi)) + (d - hi) * (d - hi) if abs(d) < 1e150 else 0.0
    return a0 + w1 * (2.0 / (d + math.copysign(math.sqrt((p - 4.0 * w2) + err), d)))


def mean_domain(nu: Measure) -> tuple[float, float]:
    """Open interval of attainable means.

    Each end is ``m = K(edge) = edge - 1/G(edge)`` at the matching end of
    :func:`support_bounds` (Bryc & Hassairi, "One-sided Cauchy-Stieltjes
    kernel families", 2011), and ``edge`` itself where G diverges.  No
    quadrature: :func:`_mean_endpoint` reads K off the Jacobi parameters
    (Bryc & Ismail, arXiv math/0512224), and an atomic law's G is a finite
    sum.  Needs the support, so a moment sequence raises
    InsufficientDataError.

    Envelope on the named densities against the exact end of the float
    parameters (mpmath, 40000 random semicircles; the Marchenko-Pastur and
    free Poisson ends are exact): ``center +/- sqrt(variance)`` within 1
    ulp (0.75 measured), or half an ulp of each term where they cancel;
    ``K(0)`` within 1.5 ulp over 3000 semicircles with 0 from 1e-9 to 3
    support radii from the support (the plain ``d*d - 4*omega_2`` was 2.1e3
    ulp off at 1e-8).
    """
    return _mean_endpoint(nu, upper=False), _mean_endpoint(nu, upper=True)


# ---------------------------------------------------------------------------
# pseudo-variance and variance


@functools.lru_cache(maxsize=32)
def _unit_growth_s_series(mseq: MomentSeq) -> tuple[float, np.ndarray]:
    """Growth rate ``rho`` and the highest-first coefficients of the S-series
    of ``mseq`` dilated to unit growth.

    Built once per moment law: every mean on a grid solves against the same
    polynomial.
    """
    values = np.asarray(mseq.values)
    if not np.all(np.isfinite(values)):
        raise NumericError("moment-route reconstruction needs finite moments")
    orders = np.arange(1, mseq.order + 1)
    rho = float(np.max(np.abs(values) ** (1.0 / orders)))
    s = s_series(MomentSeq(tuple(values / rho**orders)))
    poly = s[::-1]
    if not np.all(np.isfinite(poly)):
        raise NumericError("the S-series of the moment sequence is not finite")
    poly.flags.writeable = False  # shared by every caller of the cache
    return rho, poly


def _pseudo_variance_from_moments(mseq: MomentSeq, m: float) -> float:
    """Reconstruct the pseudo-variance at mean ``m`` from truncated moments.

    Solves ``S(w) = 1/m`` on the truncated S-series and returns ``m**2/w``.
    The S-series is the reverted moment series, so this converges for the
    relevant ``w`` regardless of the measure's support radius; the direct
    power series in ``theta`` would diverge there.

    The sequence is dilated to unit growth before reverting: the root
    variable ``w = m**2/PV(m)`` is dilation-invariant, and reverting a
    series with order-unity coefficients keeps roundoff from being
    amplified into the high-order S coefficients.  The root is bracketed by
    the first sign change along a 0.01-step walk away from 0.
    """
    if not (m > 0.0 and mseq.values[0] > 0.0):  # also catches nan
        raise DomainError("moment-route reconstruction requires positive means")
    rho, poly = _unit_growth_s_series(mseq)
    f = lambda w: float(np.polyval(poly, w)) - rho / m
    f0 = f(0.0)
    if abs(f0) <= 1e-15 * rho:
        raise DomainError("pseudo-variance diverges at the generator mean")
    # m below the generator mean puts the root at negative w
    step = -0.01 if f0 < 0.0 else 0.01
    ws = np.cumsum(np.full(402, step))  # accumulated one step at a time
    ws = ws[(ws > -0.999) & (ws <= 4.0)]
    vals = np.polyval(poly, ws) - rho / m
    inside = vals < 0.0 if f0 < 0.0 else vals > 0.0
    if inside.all():
        raise NumericError(
            f"no S-series bracket {'left' if f0 < 0.0 else 'right'} of 0 for m = {m:g}; "
            "the mean may be outside the reconstructable domain"
        )
    k = int(np.argmin(inside))
    prev = float(ws[k - 1]) if k else 0.0
    lo, hi = sorted((prev, float(ws[k])))
    root = bracketed_root(f, lo, hi)
    return m * m / root


def _pseudo_variance(nu: Measure, m: float, m0: float, theta: float) -> float:
    if m == 0.0:
        return variance_of(nu) if abs(m0) <= _MEAN_MATCH_TOL else 0.0
    if abs(m - m0) <= _MEAN_MATCH_TOL:
        if abs(m0) <= _MEAN_MATCH_TOL:
            return variance_of(nu)
        raise DomainError("pseudo-variance diverges at a nonzero generator mean")
    return m * (1.0 / theta - m)


def _variance(nu: Measure, m: float, m0: float, theta: float) -> float:
    if abs(m - m0) <= _MEAN_MATCH_TOL:
        return variance_of(nu)
    return (1.0 / theta - m) * (m - m0)


def pseudo_variance(nu: Measure, m: float) -> float:
    """Pseudo-variance ``m * (1/psi(m) - m)`` of the member with mean ``m``.

    At ``m = 0`` the continuous-limit convention applies: the value is the
    generator variance when the generator mean is 0, and 0 otherwise.
    Diverges at the generator mean when that mean is nonzero.  Elsewhere
    the middle column of :func:`family_row`.  The convention needs no
    root, and free Poisson has none at 0.
    """
    if m == 0.0:
        return _pseudo_variance(nu, m, mean(nu), math.nan)  # theta is not read at 0
    return family_row(nu, m)[1]


def variance(nu: Measure, m: float) -> float:
    """Variance of the family member with mean ``m``.

    Evaluated as ``(1/psi(m) - m) * (m - m0)``, which stays regular at
    ``m = 0``; at the generator mean it returns the generator variance.
    A one-mean :func:`variances`, whose CskfamError is raised here.
    """
    return raise_error(variances(nu, [m])[0])


def family_row(nu: Measure, m: float) -> tuple[float, float, float]:
    """``(theta, pseudo_variance, variance)`` at mean ``m`` from one root
    solve, which both variances read: a one-mean :func:`family_rows`, whose
    CskfamError is raised here."""
    return raise_error(family_rows(nu, [m])[0])


def family_rows(nu: Measure, means: Sequence[float]) -> list:
    """The ``(theta, pseudo_variance, variance)`` row at each mean of a grid,
    or the CskfamError raised there.  The roots come from one
    :func:`_roots` of the grid, and both variances read them.

    Envelope on laws with Jacobi parameters, whose root is exact up to its
    last few roundings.  From 0.06 to 0.86 of the way from the generator
    mean to either end of the domain, all three columns are within 2e-15
    relative of the closed form on the named densities (4.8e-16
    measured).  Against the 50-digit family, atomic laws of two atoms
    are within 1e-14 (8.0e-15 measured, on atoms (3.625, 4), whose domain
    ends 0.005 below the generator mean), and of three or four atoms, from
    an eigenvalue, within 5e-14 (2.4e-14 measured on atoms (2.375, 2.9375,
    3)).  Where the support ends at 0 (free Poisson, a semicircle with
    ``center**2 = 4*variance``) theta and the variance stay within 1e-15
    down to 1e-6 from that end of the domain (1.9e-16 measured).  Next to
    an end of the domain where ``V/(m - m0)`` is small against ``m``,
    ``1/theta - m`` cancels whatever the root: 2.3e-14 at ``m = -0.999``
    on the centered Marchenko-Pastur law ``a = 1``."""
    m0 = mean(nu)
    return [root if isinstance(root, CskfamError) else value_or_error(_row, nu, m, m0, root)
            for m, root in zip(means, _roots(nu, m0, means))]


def variances(nu: Measure, means: Sequence[float]) -> list:
    """The variance at each mean of a grid, or the CskfamError raised there,
    from one :func:`_roots` of the grid.  Variance only: the pseudo-variance
    that :func:`family_rows` adds diverges near a nonzero generator mean,
    where the variance stays regular."""
    m0 = mean(nu)
    return [root if isinstance(root, CskfamError) else value_or_error(_variance, nu, m, m0, root)
            for m, root in zip(means, _roots(nu, m0, means))]


def _row(nu: Measure, m: float, m0: float, theta: float) -> tuple[float, float, float]:
    return theta, _pseudo_variance(nu, m, m0, theta), _variance(nu, m, m0, theta)


def _pseudo_variance_slope_at_zero(nu: Measure) -> float:
    """Derivative of the pseudo-variance at mean 0 (Richardson differences)."""
    lo, hi = mean_domain(nu)
    if not lo < 0.0 < hi:
        raise DomainError("mean 0 is not inside the domain of means")
    h = min(1e-4, 0.25 * min(-lo, hi))
    d1 = (pseudo_variance(nu, h) - pseudo_variance(nu, -h)) / (2.0 * h)
    d2 = (pseudo_variance(nu, h / 2) - pseudo_variance(nu, -h / 2)) / h
    return (4.0 * d2 - d1) / 3.0


def csk_density_weight(nu: Measure, x: float, m: float) -> float:
    """Density of the mean-``m`` member with respect to the generator.

    ``V(m) / (V(m) + m*(m - x))`` for nonzero means, with the two mean-zero
    branches: identically 1 when the pseudo-variance at 0 is nonzero, and
    ``s/(s - x)`` with ``s`` the pseudo-variance slope when it vanishes.
    """
    lo, hi = nu.support()
    if m == 0.0:
        pv0 = pseudo_variance(nu, 0.0)
        if pv0 != 0.0:
            return 1.0
        slope = _pseudo_variance_slope_at_zero(nu)
        if lo <= slope <= hi:
            raise DomainError(
                "member density is singular: the slope parameter falls inside the support"
            )
        return slope / (slope - x)
    pv = pseudo_variance(nu, m)
    pole = m + pv / m  # the denominator vanishes exactly at this point
    if lo <= pole <= hi:
        raise DomainError(
            f"member density is singular on the support: pole at {pole:g}"
        )
    return pv / (pv + m * (m - x))


# ---------------------------------------------------------------------------
# transformation laws of (pseudo-)variance functions


def affine_pseudo_variance(nu: Measure, beta: float, lam: float, m: float) -> float:
    """Pseudo-variance of the family generated by the image under
    ``x -> (x - lam)/beta``: ``m/(beta*(m*beta + lam)) * PV(beta*m + lam)``."""
    if beta == 0.0:
        raise DomainError("affine image requires beta != 0")
    if m == 0.0:
        raise DomainError("the affine pseudo-variance rule needs m != 0")
    inner = beta * m + lam
    if inner == 0.0:
        raise DomainError("beta*m + lam = 0 is outside the rule's domain")
    return m / (beta * inner) * pseudo_variance(nu, inner)


def boxplus_power_variance(vfun: Callable[[float], float], m0: float, alpha: float,
                           m: float) -> float:
    """Variance law under the free convolution power: ``alpha * V(m/alpha)``."""
    require_positive("alpha", alpha)
    return alpha * vfun(m / alpha)


def uplus_power_variance(vfun: Callable[[float], float], m0: float, alpha: float,
                         m: float) -> float:
    """Variance law under the Boolean convolution power."""
    require_positive("alpha", alpha)
    return alpha * vfun(m / alpha) + m * (m - alpha * m0) * (1.0 / alpha - 1.0)


def boxtimes_power_pseudo_variance(pvfun: Callable[[float], float], alpha: float,
                                   m: float) -> float:
    """Pseudo-variance law under the multiplicative convolution power:
    ``m**(2 - 2/alpha) * PV(m**(1/alpha))``."""
    require_positive("alpha", alpha)
    require_positive("m", m)
    return m ** (2.0 - 2.0 / alpha) * pvfun(m ** (1.0 / alpha))


def boxtimes_power_variance(vfun: Callable[[float], float], m0: float, alpha: float,
                            m: float) -> float:
    """Variance law under the multiplicative convolution power.

    Its ratio ``(m - m0**alpha)/(m**(1/alpha) - m0)`` is taken as
    ``m0**(alpha - 1) * expm1(L)/expm1(L/alpha)``, ``L = log(m) -
    alpha*log(m0)``, which does not cancel at large ``alpha``; where
    ``expm1(L/alpha)`` is 0 it is the limit ``alpha*m0**(alpha - 1)``."""
    require_positive("alpha", alpha)
    require_positive("m", m)
    require_positive("m0", m0)
    big_l = math.log(m) - alpha * math.log(m0)
    small = math.expm1(big_l / alpha)
    ratio = alpha if small == 0.0 else math.expm1(big_l) / small
    return ratio * m0 ** (alpha - 1.0) * m ** (1.0 - 1.0 / alpha) * vfun(m ** (1.0 / alpha))


def bt_pseudo_variance(pvfun: Callable[[float], float], t: float, m: float) -> float:
    """Pseudo-variance law under the Boolean-to-free map: ``PV(m) + t*m**2``."""
    require_nonnegative("t", t)
    return pvfun(m) + t * m * m


def bt_variance(vfun: Callable[[float], float], m0: float, t: float, m: float) -> float:
    """Variance law under the Boolean-to-free map: ``V(m) + t*m*(m - m0)``."""
    require_nonnegative("t", t)
    return vfun(m) + t * m * (m - m0)
