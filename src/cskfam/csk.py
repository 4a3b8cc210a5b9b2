"""Cauchy-Stieltjes kernel family machinery.

A generating measure ``nu`` is tilted by the kernel ``1/(1 - theta*x)``;
sweeping ``theta`` produces a family of measures parametrized either by
``theta`` or, after inverting the mean map, by the mean ``m``.  This module
computes the mean map and its inverse, domains of means, pseudo-variance
and variance functions, member densities, and the transformation laws of
the variance function under affine images, convolution powers and the
Boolean-to-free map.

Everything here reads the generator through the measure protocol (mean,
support, G and Psi) and inverts the mean map by monotone root-finding in
``theta``.  The one exception is a moment sequence: its truncated power
series of Psi diverges at the relevant ``theta``, so its mean map is
inverted on the reverted S-series, which converges regardless of the
unknown support radius.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .errors import DomainError, NumericError
from .measure import (
    FreePoisson,
    MarchenkoPasturCentered,
    Measure,
    MomentSeq,
    Semicircle,
    mean,
    support_bounds,
    variance_of,
)
from .transforms import (
    _check_theta,
    bracketed_root,
    cauchy_transform,
    psi_integral,
    s_series,
    theta_range,
)

Side = Literal["plus", "minus", "two_sided"]

_MEAN_MATCH_TOL = 1e-12


@dataclass(frozen=True)
class CskDescriptor:
    """A kernel family: generator, side, parameter range and mean domain."""

    generator: Measure
    side: Side
    theta_range: tuple[float, float]
    mean_domain: tuple[float, float]


@dataclass(frozen=True)
class VarianceProfile:
    """A variance or pseudo-variance function over a mean interval.

    Either closed form (a callable) or a sampled table interpolated
    linearly.  ``kind`` is ``"true"`` for a genuine variance function and
    ``"pseudo"`` for the pseudo-variance surrogate.
    """

    kind: Literal["pseudo", "true"]
    fn: Callable[[float], float] | None = None
    samples: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.kind not in ("pseudo", "true"):
            raise DomainError(f"unknown variance-profile kind {self.kind!r}")
        if (self.fn is None) == (self.samples is None):
            raise DomainError("provide exactly one of fn or samples")
        if self.samples is not None:
            ms = [p[0] for p in self.samples]
            if sorted(ms) != ms or len(set(ms)) != len(ms):
                raise DomainError("sample means must be strictly increasing")
            if self.kind == "true" and any(p[1] <= 0.0 for p in self.samples):
                raise DomainError("a true variance function must be positive")

    def __call__(self, m: float) -> float:
        if self.fn is not None:
            return float(self.fn(m))
        xs = np.array([p[0] for p in self.samples])
        ys = np.array([p[1] for p in self.samples])
        if not xs[0] <= m <= xs[-1]:
            raise DomainError(f"m = {m:g} outside the sampled interval")
        return float(np.interp(m, xs, ys))


def closed_form_variance(nu: Measure) -> VarianceProfile:
    """Known closed-form variance functions of the named generators."""
    if isinstance(nu, FreePoisson):
        return VarianceProfile("true", fn=lambda m: m)
    if isinstance(nu, MarchenkoPasturCentered):
        a = nu.a
        return VarianceProfile("true", fn=lambda m: 1.0 + a * m)
    if isinstance(nu, Semicircle):
        v = nu.variance
        return VarianceProfile("true", fn=lambda m: v)
    raise DomainError(f"no closed-form variance function for {type(nu).__name__}")


# ---------------------------------------------------------------------------
# mean parametrization


def k_mean(nu: Measure, theta: float) -> float:
    """Mean of the family member at kernel parameter ``theta``.

    Strictly increasing in ``theta``; ``theta = 0`` returns the generator
    mean.  Computed as ``P/(theta*(1+P))`` with ``P = integral of
    theta*x/(1-theta*x)``, which stays stable as ``theta -> 0``.
    """
    if theta == 0.0:
        return mean(nu)
    _check_theta(nu, theta)
    p = psi_integral(nu, theta)
    return p / (theta * (1.0 + p))


def _bracket_theta(nu: Measure, m: float, m0: float) -> tuple[float, float]:
    """Sign-change bracket for ``k_mean(theta) = m``, expanding toward the
    admissible endpoint."""
    t_lo, t_hi = theta_range(nu)
    f = lambda t: k_mean(nu, t) - m
    if m > m0:
        if math.isinf(t_hi):
            t = 1.0
            for _ in range(80):
                if f(t) > 0.0:
                    return t / 2.0 if t > 1.0 else 1e-300, t
                t *= 2.0
            raise DomainError(f"m = {m:g} above the attainable means")
        prev = 0.0
        for k in range(1, 41):
            t = t_hi * (1.0 - 2.0**-k)
            if f(t) > 0.0:
                return (prev if prev > 0.0 else 1e-300), t
            prev = t
        raise DomainError(f"m = {m:g} at or above the upper mean endpoint")
    if math.isinf(t_lo):
        t = -1.0
        for _ in range(80):
            if f(t) < 0.0:
                return t, (t / 2.0 if t < -1.0 else -1e-300)
            t *= 2.0
        raise DomainError(f"m = {m:g} below the attainable means")
    prev = 0.0
    for k in range(1, 41):
        t = t_lo * (1.0 - 2.0**-k)
        if f(t) < 0.0:
            return t, (prev if prev < 0.0 else -1e-300)
        prev = t
    raise DomainError(f"m = {m:g} at or below the lower mean endpoint")


def psi_mean_inverse(nu: Measure, m: float) -> float:
    """The kernel parameter whose family member has mean ``m``."""
    if isinstance(nu, MomentSeq):
        m0 = nu.values[0]
        if abs(m - m0) <= _MEAN_MATCH_TOL:
            return 0.0
        if m == 0.0:
            raise DomainError("moment-sequence inversion needs a nonzero target mean")
        pv = _pseudo_variance_from_moments(nu, m)
        return 1.0 / (m + pv / m)
    m0 = mean(nu)
    if abs(m - m0) <= _MEAN_MATCH_TOL:
        return 0.0
    lo, hi = _bracket_theta(nu, m, m0)
    return bracketed_root(lambda t: k_mean(nu, t) - m, lo, hi)


# ---------------------------------------------------------------------------
# mean-domain endpoints


def _aitken(seq: np.ndarray) -> np.ndarray:
    out = []
    for i in range(len(seq) - 2):
        d = seq[i + 2] - 2.0 * seq[i + 1] + seq[i]
        if d == 0.0:
            out.append(seq[i + 2])
        else:
            out.append(seq[i + 2] - (seq[i + 2] - seq[i + 1]) ** 2 / d)
    return np.asarray(out)


def _upper_mean_endpoint(nu: Measure) -> float:
    """``m_plus = B - lim_{z -> B+} 1/G(z)`` by geometric-sequence extrapolation.

    The limit is approached along ``B + 10**-k`` for ``k = 2..8``; two Aitken
    passes remove the leading square-root (or geometric) error term.
    Declared failed when the accelerated estimates still differ by more
    than 1e-6.
    """
    _, big = support_bounds(nu)
    scale = max(1.0, abs(big))
    seq = np.array(
        [big - 1.0 / cauchy_transform(nu, big + scale * 10.0**-k).real for k in range(2, 9)]
    )
    acc = _aitken(_aitken(seq))
    if abs(acc[-1] - acc[-2]) > 1e-6:
        raise NumericError(
            f"upper mean endpoint failed to converge: last estimates {acc[-2]!r}, {acc[-1]!r}"
        )
    return float(acc[-1])


def _lower_mean_endpoint(nu: Measure) -> float:
    """``m_minus = b - 1/G(b)``, with ``m_minus = b`` when G diverges at b."""
    b, _ = support_bounds(nu)
    if b == nu.support()[0] and nu.lower_edge_singular:
        return b
    return b - 1.0 / cauchy_transform(nu, b).real


def mean_domain(nu: Measure, side: Side = "two_sided") -> tuple[float, float]:
    """Open interval of attainable means on the requested side.

    Needs the support, so a moment sequence raises InsufficientDataError.
    """
    if side not in ("plus", "minus", "two_sided"):
        raise DomainError(f"unknown side {side!r}")
    m0 = mean(nu)
    if side == "plus":
        return m0, _upper_mean_endpoint(nu)
    if side == "minus":
        return _lower_mean_endpoint(nu), m0
    return _lower_mean_endpoint(nu), _upper_mean_endpoint(nu)


def csk_family(nu: Measure, side: Side = "two_sided") -> CskDescriptor:
    """Assemble the family descriptor for ``nu`` on the requested side."""
    t_lo, t_hi = theta_range(nu)
    if side == "plus":
        t_range = (0.0, t_hi)
    elif side == "minus":
        t_range = (t_lo, 0.0)
    else:
        t_range = (t_lo, t_hi)
    return CskDescriptor(nu, side, t_range, mean_domain(nu, side))


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
    poly = np.asarray(s.coeffs[::-1])
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


def pseudo_variance(nu: Measure, m: float) -> float:
    """Pseudo-variance ``m * (1/psi(m) - m)`` of the member with mean ``m``.

    At ``m = 0`` the continuous-limit convention applies: the value is the
    generator variance when the generator mean is 0, and 0 otherwise.
    Diverges at the generator mean when that mean is nonzero.
    """
    if isinstance(nu, MomentSeq):
        return _pseudo_variance_from_moments(nu, m)
    m0 = mean(nu)
    if m == 0.0:
        return variance_of(nu) if abs(m0) <= _MEAN_MATCH_TOL else 0.0
    if abs(m - m0) <= _MEAN_MATCH_TOL:
        if abs(m0) <= _MEAN_MATCH_TOL:
            return variance_of(nu)
        raise DomainError("pseudo-variance diverges at a nonzero generator mean")
    theta = psi_mean_inverse(nu, m)
    return m * (1.0 / theta - m)


def variance(nu: Measure, m: float) -> float:
    """Variance of the family member with mean ``m``.

    Evaluated as ``(1/psi(m) - m) * (m - m0)``, which stays regular at
    ``m = 0``; at the generator mean it returns the generator variance.
    """
    if isinstance(nu, MomentSeq):
        m0 = nu.values[0]
        if abs(m - m0) <= _MEAN_MATCH_TOL:
            return nu.variance
        pv = _pseudo_variance_from_moments(nu, m)
        return pv * (m - m0) / m
    m0 = mean(nu)
    if abs(m - m0) <= _MEAN_MATCH_TOL:
        return variance_of(nu)
    theta = psi_mean_inverse(nu, m)
    return (1.0 / theta - m) * (m - m0)


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
    if alpha <= 0.0:
        raise DomainError("alpha must be positive")
    return alpha * vfun(m / alpha)


def uplus_power_variance(vfun: Callable[[float], float], m0: float, alpha: float,
                         m: float) -> float:
    """Variance law under the Boolean convolution power."""
    if alpha <= 0.0:
        raise DomainError("alpha must be positive")
    return alpha * vfun(m / alpha) + m * (m - alpha * m0) * (1.0 / alpha - 1.0)


def boxtimes_power_pseudo_variance(pvfun: Callable[[float], float], alpha: float,
                                   m: float) -> float:
    """Pseudo-variance law under the multiplicative convolution power:
    ``m**(2 - 2/alpha) * PV(m**(1/alpha))``."""
    if alpha <= 0.0:
        raise DomainError("alpha must be positive")
    if m <= 0.0:
        raise DomainError("the multiplicative power law needs m > 0")
    return m ** (2.0 - 2.0 / alpha) * pvfun(m ** (1.0 / alpha))


def boxtimes_power_variance(vfun: Callable[[float], float], m0: float, alpha: float,
                            m: float) -> float:
    """Variance law under the multiplicative convolution power."""
    if alpha <= 0.0:
        raise DomainError("alpha must be positive")
    if m <= 0.0:
        raise DomainError("the multiplicative power law needs m > 0")
    root = m ** (1.0 / alpha)
    if abs(root - m0) <= 1e-13:
        ratio = alpha * m0 ** (alpha - 1.0)  # removable singularity at the mean
    else:
        ratio = (m - m0**alpha) / (root - m0)
    return ratio * m ** (1.0 - 1.0 / alpha) * vfun(root)


def bt_pseudo_variance(pvfun: Callable[[float], float], t: float, m: float) -> float:
    """Pseudo-variance law under the Boolean-to-free map: ``PV(m) + t*m**2``."""
    if t < 0.0:
        raise DomainError("t must be nonnegative")
    return pvfun(m) + t * m * m


def bt_variance(vfun: Callable[[float], float], m0: float, t: float, m: float) -> float:
    """Variance law under the Boolean-to-free map: ``V(m) + t*m*(m - m0)``."""
    if t < 0.0:
        raise DomainError("t must be nonnegative")
    return vfun(m) + t * m * (m - m0)
