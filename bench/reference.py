"""Reference values for the benchmark, computed without the ``cskfam`` package.

Everything here is independent of the code under test:

* an exact ``fractions.Fraction`` series dictionary (moments <-> free and
  Boolean cumulants, moments <-> S-series, multiplicative powers and the
  eta/sigma limit laws), valid at any order because the dictionaries are
  triangular;
* closed forms: Catalan, Narayana and Fuss-Catalan numbers, free Poisson
  moments with rate and jump size, semicircle moments, and the Cauchy
  transforms of the named densities at their support edges;
* an ``mpmath`` solver for the kernel family of a finite atomic measure.

Series are Python lists of coefficients ``c0..cN``.  This module must never
import ``cskfam``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb

import mpmath

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# exact series arithmetic


def ps_mul(a, b, n):
    """Cauchy product of two coefficient lists, truncated to ``n`` terms."""
    out = [ZERO] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[: n - i]):
                out[i + j] += x * y
    return out


def ps_reciprocal(a, n):
    if a[0] == 0:
        raise ZeroDivisionError("reciprocal needs a nonzero constant term")
    out = [ONE / a[0]] + [ZERO] * (n - 1)
    for k in range(1, n):
        acc = sum((a[j] * out[k - j] for j in range(1, min(k, len(a) - 1) + 1)), ZERO)
        out[k] = -acc / a[0]
    return out


def ps_revert(a, n):
    """Compositional inverse by Lagrange inversion: ``g_k = [w^(k-1)] (w/a(w))^k / k``.

    ``a`` has ``a0 = 0`` and ``a1 != 0``; returns ``n`` coefficients.
    """
    base = ps_reciprocal(a[1:n + 1], n)  # w / a(w)
    out = [ZERO] * n
    power = [ONE] + [ZERO] * (n - 1)
    for k in range(1, n):
        power = ps_mul(power, base, n)
        out[k] = power[k - 1] / k
    return out


def ps_compose(outer, inner, n):
    """``outer(inner(w))`` for ``inner`` with zero constant term (Horner)."""
    out = [ZERO] * n
    for c in reversed(outer[:n]):
        out = ps_mul(out, inner, n)
        out[0] += c
    return out


# ---------------------------------------------------------------------------
# moment dictionaries (moment lists are m1..mN; m0 = 1 is implicit)


def _moment_series(m):
    return [ONE] + list(m)


def moments_to_free_cumulants(m):
    """Free cumulants from ``M(z) = 1 + sum_s k_s z^s M(z)^s``."""
    n = len(m)
    big_m = _moment_series(m)
    powers = [[ONE] + [ZERO] * n]
    for _ in range(n):
        powers.append(ps_mul(powers[-1], big_m, n + 1))
    k = []
    for order in range(1, n + 1):
        acc = sum((k[s - 1] * powers[s][order - s] for s in range(1, order)), ZERO)
        k.append(m[order - 1] - acc)
    return k


def free_cumulants_to_moments(k):
    n = len(k)
    m = []
    for order in range(1, n + 1):
        big_m = _moment_series(m) + [ZERO] * (n + 1 - len(m) - 1)
        acc = ZERO
        power = [ONE] + [ZERO] * n
        for s in range(1, order + 1):
            power = ps_mul(power, big_m, n + 1)
            acc += k[s - 1] * power[order - s]
        m.append(acc)
    return m


def moments_to_boolean_cumulants(m):
    """Boolean cumulants from ``M = 1 / (1 - B)``: ``m_n = sum_j b_j m_(n-j)``."""
    big_m = _moment_series(m)
    b = []
    for n in range(1, len(m) + 1):
        b.append(big_m[n] - sum((b[j - 1] * big_m[n - j] for j in range(1, n)), ZERO))
    return b


def boolean_cumulants_to_moments(b):
    big_m = [ONE]
    for n in range(1, len(b) + 1):
        big_m.append(sum((b[j - 1] * big_m[n - j] for j in range(1, n + 1)), ZERO))
    return big_m[1:]


def s_series(m):
    """S-series coefficients ``s0..s(N-1)`` from moments ``m1..mN`` (``m1 != 0``).

    ``psi(z) = sum m_k z^k``, ``chi = psi^(-1)`` and ``S(w) = chi(w) (1 + w) / w``.
    """
    n = len(m)
    chi = ps_revert([ZERO] + list(m), n + 1)
    return ps_mul(chi[1:], [ONE, ONE], n)


def s_series_to_moments(s, n):
    """Moments ``m1..mn`` of the law whose S-series starts with ``s``."""
    ratio = ps_mul(s[:n], ps_reciprocal([ONE, ONE], n), n)  # S / (1 + w)
    psi = ps_revert([ZERO] + ratio, n + 1)
    return psi[1:]


def exp_series(c, n):
    """Coefficients of ``exp(c*z)``, ``n`` terms."""
    out, term = [], ONE
    for k in range(n):
        out.append(term)
        term = term * c / (k + 1)
    return out


def dilate(m, c):
    return [v * c ** k for k, v in enumerate(m, start=1)]


def shift(m, c):
    """Moments of ``X + c`` from the moments of ``X``."""
    big_m = _moment_series(m)
    return [sum((comb(n, j) * big_m[j] * c ** (n - j) for j in range(n + 1)), ZERO)
            for n in range(1, len(m) + 1)]


def atomic_moments(atoms, weights, n):
    return [sum((w * a ** k for a, w in zip(atoms, weights)), ZERO) for k in range(1, n + 1)]


def boxplus_power(m, alpha):
    return free_cumulants_to_moments([alpha * v for v in moments_to_free_cumulants(m)])


def uplus_power(m, alpha):
    return boolean_cumulants_to_moments([alpha * v for v in moments_to_boolean_cumulants(m)])


def boxtimes_power_int(m, p):
    """Moments of the ``p``-fold free multiplicative power (integer ``p``)."""
    n = len(m)
    s = s_series(m)
    powered = [ONE] + [ZERO] * (n - 1)
    for _ in range(p):
        powered = ps_mul(powered, s, n)
    return s_series_to_moments(powered, n)


def scaled_sequence(m, n, kind):
    """Moments of ``D_(1/(n m0^n))`` of the ``n``-th additive power of ``nu^(boxtimes n)``."""
    powered = boxtimes_power_int(m, n)
    added = boxplus_power(powered, n) if kind == "boxplus" else uplus_power(powered, n)
    return dilate(added, ONE / (n * m[0] ** n))


def limit_law_moments(kind, gamma, n):
    """Moments of the eta (S = exp(-gamma w)) or sigma (Sigma = exp(-gamma z)) limit."""
    e = exp_series(-gamma, n)
    if kind == "eta":
        return s_series_to_moments(e, n)
    w_over_1pw = [ZERO] + [Fraction((-1) ** (k + 1)) for k in range(1, n)]
    return s_series_to_moments(ps_compose(e, w_over_1pw, n), n)


# ---------------------------------------------------------------------------
# closed forms


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def narayana(n, k):
    return comb(n, k) * comb(n, k - 1) // n


def fuss_catalan(n, p):
    """Moments of the ``p``-fold free multiplicative power of free Poisson."""
    return comb((p + 1) * n, n) // (p * n + 1)


def free_poisson_moments(n, rate=ONE, jump=ONE):
    """Free Poisson law with free cumulants ``rate * jump**k``: Narayana polynomials."""
    return [sum((narayana(k, j) * rate ** j for j in range(1, k + 1)), ZERO) * jump ** k
            for k in range(1, n + 1)]


def semicircle_moments(n, variance):
    """Centered semicircle: ``m_2k = variance**k * C_k``, odd moments 0."""
    return [ZERO if k % 2 else variance ** (k // 2) * catalan(k // 2) for k in range(1, n + 1)]


def mp_centered_moments(n, a, alpha=ONE):
    """Moments of the ``alpha``-th free power of the centered Marchenko-Pastur law.

    Its free cumulants are ``alpha * a**(k-2)`` for ``k >= 2``: a free Poisson law
    with rate ``alpha/a**2`` and jump ``a``, shifted by ``-alpha/a``.
    """
    return shift(free_poisson_moments(n, alpha / a ** 2, a), -alpha / a)


# ---------------------------------------------------------------------------
# kernel families: variance functions and domains of means


def _free_poisson_g_edge(edge, rate):
    """Cauchy transform at a support edge of free Poisson (rate > 0, jump 1)."""
    return (edge + 1 - rate) / (2 * edge)


def named_family(name, params):
    """``(m0, V, (m_minus, m_plus))`` of a named density, all closed form.

    Domain endpoints are ``b - 1/G(b)`` and ``B - 1/G(B)`` with
    ``b = min(0, inf supp)``, ``B = max(0, sup supp)``; ``1/G = 0`` where G
    diverges (an inverse-square-root edge).
    """
    if name == "free_poisson":
        # G(4) = 1/2; G(0-) = -inf
        return 1.0, (lambda m: m), (0.0, 2.0)
    if name == "marchenko_pastur_centered":
        a = params["a"]
        # X = a*P - 1/a with P free Poisson of rate 1/a**2; at the support
        # edges G_X = 1/(a+1) above and 1/(a-1) below, so the domain is (-1, 1)
        # for every 0 < a <= 1 (G diverges at the lower edge when a = 1).
        rate = 1.0 / a ** 2
        hi_p = (1.0 + 1.0 / a) ** 2
        g_hi = _free_poisson_g_edge(hi_p, rate) / a
        lo, hi = a - 2.0, a + 2.0
        if a == 1.0:
            m_lo = lo
        else:
            lo_p = (1.0 - 1.0 / a) ** 2
            m_lo = lo - 1.0 / (_free_poisson_g_edge(lo_p, rate) / a)
        return 0.0, (lambda m: 1.0 + a * m), (m_lo, hi - 1.0 / g_hi)
    if name == "semicircle":
        c, v = params.get("center", 0.0), params.get("variance", 1.0)
        r = 2.0 * math.sqrt(v)

        def g(z):  # real z outside (c - r, c + r)
            d = math.sqrt(max((z - c) ** 2 - r * r, 0.0))
            return ((z - c) - math.copysign(d, z - c)) / (2.0 * v)

        b, big = min(0.0, c - r), max(0.0, c + r)
        return c, (lambda m: v), (b - 1.0 / g(b), big - 1.0 / g(big))
    raise ValueError(f"unknown density {name!r}")


def named_row(name, params, m):
    """``(theta, pseudo_variance, variance)`` at mean ``m != m0`` of a named family."""
    m0, vfun, _ = named_family(name, params)
    v = vfun(m)
    return 1.0 / (m + v / (m - m0)), m * v / (m - m0), v


class AtomicFamily:
    """Kernel family of ``sum w_i delta_(a_i)``, solved at 50 significant digits."""

    DPS = 50

    def __init__(self, atoms, weights):
        with mpmath.workdps(self.DPS):
            self.atoms = [mpmath.mpf(a) for a in atoms]
            self.weights = [mpmath.mpf(w) for w in weights]
            self.m0 = mpmath.fsum(w * a for a, w in zip(self.atoms, self.weights))
        b, big = min(0.0, min(atoms)), max(0.0, max(atoms))
        self.theta_lo = -mpmath.inf if b == 0.0 else 1 / mpmath.mpf(b)
        self.theta_hi = mpmath.inf if big == 0.0 else 1 / mpmath.mpf(big)
        self.domain = (self._endpoint(b, atoms), self._endpoint(big, atoms))

    def _endpoint(self, z, atoms):
        if z in atoms:
            return float(z)  # G diverges at an atom
        with mpmath.workdps(self.DPS):
            g = mpmath.fsum(w / (z - a) for a, w in zip(self.atoms, self.weights))
            return float(z - 1 / g)

    def _tilted(self, theta):
        q = [w / (1 - theta * a) for a, w in zip(self.atoms, self.weights)]
        total = mpmath.fsum(q)
        return [x / total for x in q]

    def mean_at(self, theta):
        return mpmath.fsum(p * a for p, a in zip(self._tilted(theta), self.atoms))

    def row(self, m):
        """``(theta, pseudo_variance, variance)`` of the member with mean ``m``.

        ``theta`` solves the tilted-mean equation by bisection; the variance is
        the variance of the tilted measure itself.
        """
        with mpmath.workdps(self.DPS):
            m = mpmath.mpf(m)
            if m > self.m0:
                lo, hi = mpmath.mpf(0), self.theta_hi
                if hi == mpmath.inf:
                    hi = mpmath.mpf(1)
                    while self.mean_at(hi) < m:
                        hi *= 2
            else:
                lo, hi = self.theta_lo, mpmath.mpf(0)
                if lo == -mpmath.inf:
                    lo = mpmath.mpf(-1)
                    while self.mean_at(lo) > m:
                        lo *= 2
            for _ in range(4 * self.DPS):
                mid = (lo + hi) / 2
                if self.mean_at(mid) < m:
                    lo = mid
                else:
                    hi = mid
            theta = (lo + hi) / 2
            p = self._tilted(theta)
            mean = mpmath.fsum(pi * a for pi, a in zip(p, self.atoms))
            v = mpmath.fsum(pi * (a - mean) ** 2 for pi, a in zip(p, self.atoms))
            return float(theta), float(m * v / (m - self.m0)), float(v)

    def variance(self, m):
        return self.row(m)[2]


# ---------------------------------------------------------------------------
# transformation laws of variance functions


def boxtimes_power_variance(vfun, m0, alpha, m):
    root = m ** (1.0 / alpha)
    return (m - m0 ** alpha) / (root - m0) * m ** (1.0 - 1.0 / alpha) * vfun(root)


def scaled_law_variance(vfun, m0, n, kind, m):
    """Variance function of the scaled law at step ``n``, from the generator's.

    Chain: multiplicative power ``n`` (mean ``m0**n``), additive power ``n``
    (free: ``n V(x/n)``; Boolean adds ``x (x - n mu) (1/n - 1)``), then the
    dilation by ``c = 1/(n m0**n)``: ``V_c(m) = c**2 V(m/c)``.
    """
    c = 1.0 / (n * m0 ** n)
    x = m / c
    if n == 1:
        inner = vfun(x)
    else:
        mu = m0 ** n
        inner = n * boxtimes_power_variance(vfun, m0, n, x / n)
        if kind == "uplus":
            inner += x * (x - n * mu) * (1.0 / n - 1.0)
    return c * c * inner


def limit_variance(kind, gamma, m):
    """Closed-form variance of the eta limit, plus ``m (1 - m)`` for sigma."""
    v = gamma * m * (m - 1.0) / math.log(m) if m != 1.0 else gamma
    return v + (m * (1.0 - m) if kind == "sigma" else 0.0)
