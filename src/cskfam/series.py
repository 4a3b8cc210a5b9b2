"""Truncated formal power-series arithmetic.

Every moment-level computation in this package (cumulant extraction,
convolution powers, the generator of a limit report) reduces to arithmetic
on truncated power series: Cauchy products, composition, compositional
reversion and real powers via series exp/log.  The moments of the limit
laws and scaled laws then come from a Lagrange formula on ``-log S``.

A series is a 1-D float64 (or, for :func:`ps_log` in :mod:`.limits`,
``np.longdouble``) array of its coefficients ``c0..cN``; its order is
``len(a) - 1``.  Binary operations truncate the result to the shorter
operand; nothing silently extends a series.  No function writes to its
arguments, so values can be shared freely between threads.

Reversion, which the moment dictionaries (free cumulants and S) go through,
is one Lagrange-inversion pass followed by one Newton step built from
:func:`ps_compose`, :func:`ps_reciprocal` and :func:`ps_derivative`; the
Newton step removes the roundoff that the Lagrange powers accumulate (see
:func:`ps_revert`).  Each kernel exists once.

One kernel is not a series operation: :func:`jacobi_moments` reads the
moments of a law off its Jacobi parameters by the three-term recurrence,
in ``O(K**2)`` with no reversion.  The named densities' moments and the
additive powers that keep a Jacobi matrix (:mod:`.conv`) go through it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError


def identity_series(order: int) -> np.ndarray:
    """The series of ``z`` itself: coefficients (0, 1, 0, ...)."""
    c = np.zeros(order + 1)
    if order >= 1:
        c[1] = 1.0
    return c


def ps_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cauchy product truncated to the shorter operand."""
    n = min(len(a), len(b))
    return np.convolve(a[:n], b[:n])[:n]


def ps_derivative(c: np.ndarray) -> np.ndarray:
    """Termwise derivative, padded with a trailing zero to keep the order."""
    out = np.zeros_like(c)
    out[:-1] = c[1:] * np.arange(1, len(c))
    return out


def ps_reciprocal(c: np.ndarray) -> np.ndarray:
    """Multiplicative inverse; requires a nonzero constant term."""
    if c[0] == 0.0:
        raise DomainError("series reciprocal requires a nonzero constant term")
    n = len(c)
    rev = np.zeros_like(c)  # highest coefficient first, so the dot reads forward
    rev[-1] = 1.0 / c[0]
    for k in range(1, n):
        rev[n - 1 - k] = -np.dot(c[1 : k + 1], rev[n - k :]) / c[0]
    return rev[::-1].copy()


def ps_compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients of ``a(b(z))`` up to the shorter operand's order.

    ``b`` must have zero constant term, otherwise the composition would need
    all coefficients of ``a``.
    """
    if b[0] != 0.0:
        raise DomainError("inner series of a composition must have zero constant term")
    n = min(len(a), len(b))
    ca, cb = a[:n], b[:n]
    out = np.zeros(n)
    out[0] = ca[-1]
    for k in range(n - 2, -1, -1):
        out = np.convolve(out, cb)[:n]
        out[0] += ca[k]
    return out


def ps_revert(a: np.ndarray) -> np.ndarray:
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
    It composes once: ``a'(g) = (a o g)' / g'`` by the chain rule, so the
    slope comes from the same ``a(g)`` as the residual.  Cost: ``N - 1``
    Lagrange products, one composition and two reciprocals.
    Accuracy envelope after the step: residual ``a(g) - z`` within 1e-12
    for order-20 inputs with unit-scale coefficients; order-160
    Fuss-Catalan moments within 1e-9 relative (8.2e-10 measured for
    ``boxtimes_power(moments(FreePoisson(), 160), 2, 160)``).
    Inputs whose coefficients grow like ``4**k`` lose all accuracy past
    order about 30, with or without the step: scale them to unit growth
    first.  The in-place updates touch only arrays made here, never ``a``.
    """
    if a[0] != 0.0:
        raise DomainError("series reversion requires zero constant term")
    if a[1] == 0.0:
        raise DomainError("series reversion requires a nonzero linear coefficient")
    n = len(a)
    f = ps_reciprocal(a[1:])  # w/a(w), order N-1
    g = np.zeros(n)
    power = f
    g[1] = f[0]
    for k in range(2, n):
        power = np.convolve(power, f)[: n - 1]
        g[k] = power[k - 1] / k
    composed = ps_compose(a, g)
    # 1/a'(g) = g'/(a o g)'; a(g) has no constant term, so order N-2 is enough
    slope = ps_mul(ps_derivative(g)[:-1], ps_reciprocal(ps_derivative(composed)[:-1]))
    composed[1] -= 1.0  # now the residual a(g) - z
    g -= np.convolve(composed, slope)[:n]
    g[0] = 0.0
    return g


def jacobi_moments(alpha: np.ndarray, omega: np.ndarray, order: int) -> np.ndarray:
    """Moments ``m1..m_order`` of the probability measure with Jacobi
    parameters ``alpha`` (``alpha_0, alpha_1, ...``) and ``omega``
    (``omega_1, omega_2, ...``), each a nonempty sequence whose last entry
    repeats forever (see :meth:`.Measure.jacobi`).

    With the monic orthogonal polynomials ``x P_k = P_(k+1) + alpha_k P_k +
    omega_k P_(k-1)``, write ``x**j = sum_k c[j, k] P_k``, so that
    ``c[j+1, k] = c[j, k-1] + alpha_k c[j, k] + omega_(k+1) c[j, k+1]``.
    Orthogonality gives ``m_(i+j) = sum_k c[i, k] c[j, k] h_k`` with ``h_k =
    omega_1 ... omega_k``, so the rows ``j <= (order + 1)//2``, each one
    vector step from the last, give every moment by two matrix-vector
    products: ``O(K**2)`` and no reversion.  The arithmetic runs in
    ``np.longdouble`` (a 64-bit significand on x86-64), so the moments are
    rounded once, to about one ulp: the Catalan numbers of free Poisson
    come out correctly rounded through order 160.  Where ``longdouble`` is
    plain double, the error of ``m_n`` is within a few ``n*eps*rho**n``,
    ``rho`` the largest ``|x|`` on the support.
    """
    top = (order + 1) // 2
    a, w = (np.full(top + 1, x[-1], dtype=np.longdouble) for x in (alpha, omega))
    a[:min(top + 1, len(alpha))] = alpha[:top + 1]
    w[:min(top + 1, len(omega))] = omega[:top + 1]
    c = np.zeros((top + 1, top + 1), dtype=np.longdouble)
    c[0, 0] = 1.0
    for row, following in zip(c, c[1:]):  # x**j has degree j <= top
        following[:] = a * row
        following[:-1] += w[:-1] * row[1:]
        following[1:] += row[:-1]
    h = np.cumprod(np.concatenate(((1.0,), w[:-1])))
    m = np.empty(2 * top + 1, dtype=np.longdouble)
    m[0::2] = (c * c) @ h
    m[1::2] = (c[:-1] * c[1:]) @ h
    return m[1:order + 1].astype(float)


def ps_log(c: np.ndarray) -> np.ndarray:
    """Series logarithm; requires a positive constant term."""
    if c[0] <= 0.0:
        raise DomainError("series log requires a positive constant term")
    out = np.zeros_like(c)
    out[0] = math.log(c[0])
    # from (log a)' * a = a':  k*out_k*a0 = k*a_k - sum_{j<k} j*out_j*a_{k-j}
    for k in range(1, len(c)):
        s = np.dot(np.arange(1, k) * out[1:k], c[k - 1 : 0 : -1]) if k > 1 else 0.0
        out[k] = (c[k] - s / k) / c[0]
    return out


def ps_exp(c: np.ndarray) -> np.ndarray:
    """Series exponential."""
    out = np.zeros_like(c)
    out[0] = math.exp(c[0])
    for k in range(1, len(c)):
        out[k] = np.dot(np.arange(1, k + 1) * c[1 : k + 1], out[k - 1 :: -1]) / k
    return out


def ps_pow_real(a: np.ndarray, alpha: float) -> np.ndarray:
    """Real power ``a**alpha`` computed as ``exp(alpha * log(a))``.

    Requires a positive constant term.  For integer ``alpha`` the result
    agrees with repeated multiplication up to roundoff.
    """
    if a[0] <= 0.0:
        raise DomainError("real series power requires a positive constant term")
    return ps_exp(alpha * ps_log(a))


def ps_pow_int(a: np.ndarray, n: int) -> np.ndarray:
    """Integer power by binary exponentiation; no constant-term restriction.

    ``n < 0`` additionally requires an invertible constant term.
    """
    if n < 0:
        return ps_pow_int(ps_reciprocal(a), -n)
    if n == 0:
        result = np.zeros(len(a))
        result[0] = 1.0
        return result
    result, base = None, a
    while True:
        if n & 1:
            result = base.copy() if result is None else ps_mul(result, base)
        n >>= 1
        if not n:
            return result
        base = ps_mul(base, base)
