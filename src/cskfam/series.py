"""Truncated formal power-series arithmetic.

Every moment-level computation in this package (cumulant extraction,
convolution powers, limit-law moments) reduces to arithmetic on truncated
power series: addition, Cauchy products, composition, compositional
reversion and real powers via series exp/log.

Coefficients are double-precision reals.  Binary operations truncate the
result to the smaller of the two operand orders; nothing silently extends
a series.  All functions are pure, so values can be shared freely between
threads.

Reversion, which every S-transform and cumulant dictionary goes through,
is one Lagrange-inversion pass followed by one Newton step built from
:func:`ps_compose`, :func:`ps_reciprocal` and :func:`ps_derivative`; the
Newton step removes the roundoff that the Lagrange powers accumulate (see
:func:`ps_revert`).  Each kernel exists once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

#: Working order used by callers that do not request anything else.
DEFAULT_ORDER = 40


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients ``c0..cN`` of a power series truncated at order ``N``."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("a truncated series needs at least the constant term")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> float:
        return self.coeffs[k]

    def truncate(self, order: int) -> "TruncatedSeries":
        if order < 0:
            raise ValueError("order must be nonnegative")
        if order >= self.order:
            return self
        return TruncatedSeries(self.coeffs[: order + 1])

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return ps_add(self, other)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return ps_mul(self, other)

    def __call__(self, x: float) -> float:
        """Evaluate the truncated polynomial at ``x`` (Horner)."""
        return float(np.polynomial.polynomial.polyval(x, np.asarray(self.coeffs)))


def one_series(order: int = DEFAULT_ORDER) -> TruncatedSeries:
    return TruncatedSeries((1.0,) + (0.0,) * order)


def identity_series(order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """The series of ``z`` itself: coefficients (0, 1, 0, ...)."""
    c = [0.0] * (order + 1)
    if order >= 1:
        c[1] = 1.0
    return TruncatedSeries(tuple(c))


def _arr(s: TruncatedSeries) -> np.ndarray:
    return np.asarray(s.coeffs, dtype=float)


def _wrap(a: np.ndarray) -> TruncatedSeries:
    return TruncatedSeries(tuple(a.tolist()))


def _common_order(a: TruncatedSeries, b: TruncatedSeries) -> int:
    return min(a.order, b.order)


def ps_add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Coefficientwise sum, truncated to the smaller operand order."""
    n = _common_order(a, b) + 1
    return _wrap(_arr(a)[:n] + _arr(b)[:n])


def ps_scale(a: TruncatedSeries, c: float) -> TruncatedSeries:
    return _wrap(c * _arr(a))


def ps_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated to the smaller operand order."""
    n = _common_order(a, b) + 1
    return _wrap(np.convolve(_arr(a)[:n], _arr(b)[:n])[:n])


def ps_derivative(a: TruncatedSeries) -> TruncatedSeries:
    """Termwise derivative, padded with a trailing zero to keep the order."""
    c = _arr(a)
    out = np.zeros_like(c)
    out[:-1] = c[1:] * np.arange(1, len(c))
    return _wrap(out)


def ps_reciprocal(a: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse; requires a nonzero constant term."""
    c = _arr(a)
    if c[0] == 0.0:
        raise DomainError("series reciprocal requires a nonzero constant term")
    out = np.zeros_like(c)
    out[0] = 1.0 / c[0]
    for k in range(1, len(c)):
        out[k] = -np.dot(c[1 : k + 1], out[k - 1 :: -1]) / c[0]
    return _wrap(out)


def ps_compose(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Coefficients of ``a(b(z))`` up to the smaller operand order.

    ``b`` must have zero constant term, otherwise the composition would need
    all coefficients of ``a``.
    """
    if b.coeffs[0] != 0.0:
        raise DomainError("inner series of a composition must have zero constant term")
    n = _common_order(a, b) + 1
    ca, cb = _arr(a)[:n], _arr(b)[:n]
    out = np.zeros(n)
    out[0] = ca[-1]
    for k in range(n - 2, -1, -1):
        out = np.convolve(out, cb)[:n]
        out[0] += ca[k]
    return _wrap(out)


def ps_revert(a: TruncatedSeries) -> TruncatedSeries:
    """Compositional inverse: the series ``g`` with ``a(g(z)) = z``.

    Requires ``a0 = 0`` and ``a1 != 0``.  One Lagrange-inversion pass,
    ``g_k = [w**(k-1)] (w/a(w))**k / k``, reads every coefficient off the
    running powers of ``w/a(w)``: ``N - 1`` Cauchy products in all.  Those
    powers accumulate roundoff that grows with ``k`` and with the growth
    rate of the coefficients: on its own the pass misses the order-30
    reversion of the Catalan series by 0.29 relative, and the order-160
    Fuss-Catalan moments of ``boxtimes_power`` by more than 1e3 relative.
    Exactly one full-order Newton step ``g <- g - (a(g) - z) / a'(g)``
    therefore follows; it leaves an error quadratic in the pass's error.
    Accuracy envelope after the step: residual ``a(g) - z`` within 1e-12
    for order-20 inputs with unit-scale coefficients; order-160
    Fuss-Catalan moments within 1e-9 relative (5.3e-10 measured).
    Inputs whose coefficients grow like ``4**k`` lose all accuracy past
    order about 30, with or without the step: scale them to unit growth
    first.
    """
    c = _arr(a)
    if c[0] != 0.0:
        raise DomainError("series reversion requires zero constant term")
    if c[1] == 0.0:
        raise DomainError("series reversion requires a nonzero linear coefficient")
    n = len(c)
    f = _arr(ps_reciprocal(_wrap(c[1:])))  # w/a(w), order N-1
    g = np.zeros(n)
    power = f
    g[1] = f[0]
    for k in range(2, n):
        power = np.convolve(power, f)[: n - 1]
        g[k] = power[k - 1] / k
    guess = _wrap(g)
    residual = _arr(ps_compose(a, guess))
    residual[1] -= 1.0
    slope = _arr(ps_reciprocal(ps_compose(ps_derivative(a), guess)))
    g -= np.convolve(residual, slope)[:n]
    g[0] = 0.0
    return _wrap(g)


def ps_log(a: TruncatedSeries) -> TruncatedSeries:
    """Series logarithm; requires a positive constant term."""
    c = _arr(a)
    if c[0] <= 0.0:
        raise DomainError("series log requires a positive constant term")
    out = np.zeros_like(c)
    out[0] = math.log(c[0])
    # from (log a)' * a = a':  k*out_k*a0 = k*a_k - sum_{j<k} j*out_j*a_{k-j}
    for k in range(1, len(c)):
        s = np.dot(np.arange(1, k) * out[1:k], c[k - 1 : 0 : -1]) if k > 1 else 0.0
        out[k] = (c[k] - s / k) / c[0]
    return _wrap(out)


def ps_exp(a: TruncatedSeries) -> TruncatedSeries:
    """Series exponential."""
    c = _arr(a)
    out = np.zeros_like(c)
    out[0] = math.exp(c[0])
    for k in range(1, len(c)):
        out[k] = np.dot(np.arange(1, k + 1) * c[1 : k + 1], out[k - 1 :: -1]) / k
    return _wrap(out)


def ps_pow_real(a: TruncatedSeries, alpha: float) -> TruncatedSeries:
    """Real power ``a**alpha`` computed as ``exp(alpha * log(a))``.

    Requires a positive constant term.  For integer ``alpha`` the result
    agrees with repeated multiplication up to roundoff.
    """
    if a.coeffs[0] <= 0.0:
        raise DomainError("real series power requires a positive constant term")
    return ps_exp(ps_scale(ps_log(a), alpha))


def ps_pow_int(a: TruncatedSeries, n: int) -> TruncatedSeries:
    """Integer power by binary exponentiation; no constant-term restriction.

    ``n < 0`` additionally requires an invertible constant term.
    """
    if n < 0:
        return ps_pow_int(ps_reciprocal(a), -n)
    result = one_series(a.order)
    base = a
    while n:
        if n & 1:
            result = ps_mul(result, base)
        base = ps_mul(base, base)
        n >>= 1
    return result
