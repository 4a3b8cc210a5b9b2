"""Independent brute-force oracles used to validate the production code.

Everything here is deliberately naive: direct polynomial substitution,
Lagrange inversion, and explicit enumeration of set partitions.  None of it
shares code paths with the package internals it checks.  The production
reversion is itself a Lagrange pass, so :func:`substitution_revert`, which
solves for one coefficient at a time through :func:`compose_direct`, is the
reference that shares no algorithm with it.  The exact series helpers work
on plain lists in the arithmetic of their inputs (``Fraction`` or mpmath
numbers), so their results carry no double rounding at all.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np


# ---------------------------------------------------------------------------
# polynomial / series oracles


def compose_direct(outer, inner, order: int) -> np.ndarray:
    """Coefficients of outer(inner(z)) by accumulating full polynomial powers."""
    outer = np.asarray(outer, dtype=float)
    inner = np.asarray(inner, dtype=float)
    acc = np.zeros(order + 1)
    power = np.array([1.0])  # inner**0
    for k, c in enumerate(outer):
        take = min(order + 1, len(power))
        acc[:take] += c * power[:take]
        power = np.convolve(power, inner)
    return acc


def substitution_revert(coeffs, order: int | None = None) -> np.ndarray:
    """Compositional inverse, one coefficient at a time.

    With ``g_k`` still 0, the ``z**k`` coefficient of ``a(g(z))`` holds
    everything but the ``a1*g_k`` term, so ``g_k`` is minus that over ``a1``.
    """
    a = np.asarray(coeffs, dtype=float)
    if order is None:
        order = len(a) - 1
    assert a[0] == 0.0 and a[1] != 0.0
    g = np.zeros(order + 1)
    g[1] = 1.0 / a[1]
    for k in range(2, order + 1):
        g[k] = -compose_direct(a[: k + 1], g[: k + 1], k)[k] / a[1]
    return g


def lagrange_revert(coeffs, order: int | None = None) -> np.ndarray:
    """Compositional inverse via the Lagrange inversion formula.

    ``g_n = (1/n) [w**(n-1)] (w / a(w))**n`` for ``a`` with ``a0 = 0``,
    ``a1 != 0``.
    """
    a = np.asarray(coeffs, dtype=float)
    if order is None:
        order = len(a) - 1
    assert a[0] == 0.0 and a[1] != 0.0
    # w/a(w) = 1 / (a(w)/w)
    aw = a[1 : order + 2]
    if len(aw) < order + 1:
        aw = np.concatenate([aw, np.zeros(order + 1 - len(aw))])
    f = np.zeros(order + 1)
    f[0] = 1.0 / aw[0]
    for k in range(1, order + 1):
        f[k] = -np.dot(aw[1 : k + 1], f[k - 1 :: -1]) / aw[0]
    g = np.zeros(order + 1)
    power = np.zeros(order + 1)
    power[0] = 1.0
    for n in range(1, order + 1):
        power = np.convolve(power, f)[: order + 1]  # f**n
        g[n] = power[n - 1] / n
    return g


# ---------------------------------------------------------------------------
# partition enumeration


def set_partitions(n: int):
    """All set partitions of {0..n-1} as tuples of frozen blocks."""
    if n == 0:
        yield ()
        return
    for rest in set_partitions(n - 1):
        last = n - 1
        yield rest + ((last,),)
        for i, block in enumerate(rest):
            yield rest[:i] + (block + (last,),) + rest[i + 1 :]


def is_non_crossing(partition) -> bool:
    """No a < b < c < d with {a, c} and {b, d} in different blocks."""
    labels = {}
    for idx, block in enumerate(partition):
        for item in block:
            labels[item] = idx
    n = len(labels)
    for a, b, c, d in itertools.combinations(range(n), 4):
        if labels[a] == labels[c] != labels[b] == labels[d]:
            return False
    return True


def is_interval(partition) -> bool:
    """Every block is a contiguous run of integers."""
    return all(max(block) - min(block) + 1 == len(block) for block in partition)


def _moments_by_enumeration(cumulants, n_max: int, keep) -> list[float]:
    out = []
    for n in range(1, n_max + 1):
        total = 0  # int start values keep Fraction inputs exact
        for partition in set_partitions(n):
            if not keep(partition):
                continue
            term = 1
            for block in partition:
                term *= cumulants[len(block) - 1]
            total += term
        out.append(total)
    return out


def nc_moments_from_free_cumulants(cumulants, n_max: int) -> list[float]:
    """Moments as sums over non-crossing partitions."""
    return _moments_by_enumeration(cumulants, n_max, is_non_crossing)


def interval_moments_from_boolean_cumulants(cumulants, n_max: int) -> list[float]:
    """Moments as sums over interval partitions."""
    return _moments_by_enumeration(cumulants, n_max, is_interval)


def _cumulants_by_enumeration(moments_, n_max: int, keep) -> list[float]:
    """Invert the partition sum triangularly: the full block carries k_n."""
    kappa: list[float] = []
    for n in range(1, n_max + 1):
        rest = 0
        for partition in set_partitions(n):
            if len(partition) == 1 or not keep(partition):
                continue
            term = 1
            for block in partition:
                term *= kappa[len(block) - 1]
            rest += term
        kappa.append(moments_[n - 1] - rest)
    return kappa


def nc_free_cumulants_from_moments(moments_, n_max: int) -> list[float]:
    return _cumulants_by_enumeration(moments_, n_max, is_non_crossing)


def interval_boolean_cumulants_from_moments(moments_, n_max: int) -> list[float]:
    return _cumulants_by_enumeration(moments_, n_max, is_interval)


# ---------------------------------------------------------------------------
# exact and high-precision series (lists c0..c(n-1), any field)


def series_mul(a, b, n: int) -> list:
    out = [0] * n
    for i, x in enumerate(a[:n]):
        for j, y in enumerate(b[: n - i]):
            out[i + j] += x * y
    return out


def series_power(a, p: int, n: int) -> list:
    out = [1] + [0] * (n - 1)
    for _ in range(p):
        out = series_mul(out, a, n)
    return out


def series_compose(outer, inner, n: int) -> list:
    """``outer(inner(w))`` for ``inner`` with zero constant term (Horner)."""
    out = [0] * n
    for c in reversed(outer[:n]):
        out = series_mul(out, inner, n)
        out[0] += c
    return out


def series_revert(a, n: int) -> list:
    """Lagrange inversion, ``g_k = [w**(k-1)] (w/a(w))**k / k``; exact in exact arithmetic."""
    tail = list(a[1:n + 1]) + [0] * max(0, n - len(a) + 1)
    base = [1 / tail[0]]  # w/a(w), the reciprocal of a(w)/w
    for k in range(1, n):
        base.append(-sum(tail[j] * base[k - j] for j in range(1, k + 1)) / tail[0])
    g, power = [0] * n, [1] + [0] * (n - 1)
    for k in range(1, n):
        power = series_mul(power, base, n)
        g[k] = power[k - 1] / k
    return g


def series_reciprocal(a, n: int) -> list:
    """``1/a(w)`` through order ``n - 1``; requires ``a0 != 0``."""
    out = [1 / a[0]]
    for k in range(1, n):
        out.append(-sum(a[j] * out[k - j] for j in range(1, min(k, len(a) - 1) + 1)) / a[0])
    return out


def boolean_power_moments(moments_, alpha) -> list:
    """Moments of the Boolean power ``alpha`` of the law with moments
    ``m1..mK``: with ``M = 1 + sum m_k w**k`` the Boolean cumulant series is
    ``1 - 1/M``, it scales by ``alpha``, and ``1/(1 - alpha*(1 - 1/M))`` is
    the new ``M``.  Exact in exact arithmetic."""
    k = len(moments_) + 1
    r = series_reciprocal([moments_[0] ** 0] + list(moments_), k)  # m0 = 1 in their field
    return series_reciprocal([1 - alpha + alpha * r[0]] + [alpha * c for c in r[1:]], k)[1:]


def free_power_moments(moments_, alpha) -> list:
    """Moments of the free power ``alpha`` of the law with moments ``m1..mK``,
    through the reverted Cauchy series as in ``conv``: the free cumulants
    scale by ``alpha``.  Exact in exact arithmetic; the reversions make it
    cubic in ``K``, so keep ``K`` to a few dozen."""
    k = len(moments_)
    one = moments_[0] ** 0
    h = series_revert([0 * one, one] + list(moments_), k + 2)[1:]  # theta(w)/w
    cumulants = series_reciprocal(h, k + 1)[1:]
    r = series_reciprocal([one] + [alpha * c for c in cumulants], k + 1)
    return series_revert([0 * one] + r, k + 2)[2:]


def s_of_moments(moments_) -> list:
    """S-series ``s0..s(K-1)`` of the moments ``m1..mK``: ``chi(w) (1 + w) / w``."""
    k = len(moments_)
    chi = series_revert([0] + list(moments_), k + 1)
    return series_mul(chi[1:], [1, 1], k)


def moments_of_s(s) -> list:
    """Moments ``m1..mK`` of the law whose S-series is ``s0..s(K-1)``."""
    k = len(s)
    ratio = series_mul(s, [(-1) ** j for j in range(k)], k)  # S / (1 + w)
    return series_revert([0] + ratio, k + 1)[1:]


def boxtimes_power_moments(moments_, p: int) -> list:
    """Moments ``m1..mK`` of the free multiplicative power ``p`` (an integer)
    of the law with moments ``m1..mK``: ``S**p`` and back.  Exact in exact
    arithmetic; cubic in ``K``."""
    k = len(moments_)
    return moments_of_s(series_power(s_of_moments(moments_), p, k))


def jacobi_path_moments(alpha, omega, n: int) -> list:
    """Moments ``m1..mn`` from Jacobi parameters whose last entries repeat,
    as weighted Motzkin paths from level 0 back to 0 (Flajolet 1980): a
    step up weighs 1, a level step at level ``j`` weighs ``alpha_j`` and a
    step down from level ``j`` weighs ``omega_j``."""
    def at(seq, j):
        return seq[min(j, len(seq) - 1)]

    paths, out = [1] + [0] * n, []
    for _ in range(n):
        paths = [(paths[j - 1] if j else 0) + at(alpha, j) * paths[j]
                 + (at(omega, j) * paths[j + 1] if j < n else 0) for j in range(n + 1)]
        out.append(paths[0])
    return out


def three_op_jacobi_moments(alpha, omega, order: int) -> np.ndarray:
    """The three-term recurrence of ``series.jacobi_moments`` written as
    three array updates per row and two matrix-vector products, in
    ``np.longdouble``: the reference that the production kernel matches
    bit for bit where ``longdouble`` is wider than double."""
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


def exact_scaled_sequence(moments_, n: int, kind: str) -> list[Fraction]:
    """Moments of ``D_{1/(n m0**n)}((nu ** boxtimes n) ** kind n)`` from exact
    moments, one operation at a time: the multiplicative power through
    ``S**n``, the additive power by scaling the free (non-crossing) or
    Boolean (interval) cumulants, both found by partition enumeration."""
    k = len(moments_)
    powered = moments_of_s(series_power(s_of_moments(moments_), n, k))
    if kind == "boxplus":
        cumulants = nc_free_cumulants_from_moments(powered, k)
        added = nc_moments_from_free_cumulants([n * c for c in cumulants], k)
    else:
        cumulants = interval_boolean_cumulants_from_moments(powered, k)
        added = interval_moments_from_boolean_cumulants([n * c for c in cumulants], k)
    c = Fraction(1) / (n * moments_[0] ** n)
    return [v * c**j for j, v in enumerate(added, start=1)]


def mp_scaled_law_variance(moments_, n: int, kind: str, m: float, dps: int = 60) -> float:
    """Variance function at mean ``m`` of the law of :func:`exact_scaled_sequence`,
    from its S-series at ``dps`` digits.

    The S-series of the generator (from exact ``moments_``) goes through the
    textbook laws one at a time: ``S**n`` for the multiplicative power;
    ``S(z/n)/n`` for the free power, or the same law on
    ``Sigma(z) = S(z/(1 - z))`` for the Boolean one; ``S/c`` for the
    dilation by ``c``.  Then ``S(w) = 1/m`` is solved for ``w`` and
    ``V(m) = m (m - 1)/w`` (the scaled law has mean 1).  Converges where the
    root lies well inside the S-series' disk: small ``n``, ``m`` near 1.
    """
    with mpmath.workdps(dps):
        k = len(moments_)
        mom = [mpmath.mpf(v.numerator) / v.denominator for v in moments_]
        s = series_power(s_of_moments(mom), n, k)
        if kind == "uplus":  # to Sigma and back
            s = series_compose(s, [0] + [1] * (k - 1), k)
        s = [c / mpmath.mpf(n) ** (j + 1) for j, c in enumerate(s)]
        if kind == "uplus":
            s = series_compose(s, [0] + [(-1) ** (j + 1) for j in range(1, k)], k)
        c = 1 / (n * mom[0] ** n)
        s = [v / c for v in s]
        target = 1 / mpmath.mpf(m)
        w = mpmath.findroot(lambda x: mpmath.polyval(s[::-1], x) - target,
                            (target - 1) / s[1])
        return float(m * (m - 1) / w)


# ---------------------------------------------------------------------------
# CSK families


def atomic_family_row(atoms, weights, m: float, dps: int = 50) -> tuple[float, float, float]:
    """``(theta, pseudo_variance, variance)`` of the member with mean ``m`` of
    the CSK family of ``sum w_i delta(a_i)``, at ``dps`` digits.  The member
    at ``theta`` is the law ``w_i/(1 - theta*a_i)``, normalized; its mean
    increases with ``theta`` over ``(1/min(0, a), 1/max(0, a))``, so
    ``theta`` is bisected there (an infinite end is first pushed out by
    doubling until its mean passes ``m``), ``4*dps`` times.  The variance
    is the member's own, and the pseudo-variance ``m*V/(m - m0)``."""
    with mpmath.workdps(dps):
        a = [mpmath.mpf(x) for x in atoms]
        w = [mpmath.mpf(x) for x in weights]

        def member(theta):
            q = [wi / (1 - theta * ai) for ai, wi in zip(a, w)]
            total = mpmath.fsum(q)
            return [qi / total for qi in q]

        def mean_at(theta):
            return mpmath.fsum(p * ai for p, ai in zip(member(theta), a))

        target, m0 = mpmath.mpf(m), mean_at(0)
        if target > m0:
            lo, hi = mpmath.mpf(0), (1 / max(a) if max(a) > 0 else mpmath.mpf(1))
            while max(a) <= 0 and mean_at(hi) < target:
                hi *= 2
        else:
            lo, hi = (1 / min(a) if min(a) < 0 else mpmath.mpf(-1)), mpmath.mpf(0)
            while min(a) >= 0 and mean_at(lo) > target:
                lo *= 2
        for _ in range(4 * dps):
            mid = (lo + hi) / 2
            if mean_at(mid) < target:
                lo = mid
            else:
                hi = mid
        theta = (lo + hi) / 2
        p = member(theta)
        mu = mpmath.fsum(pi * ai for pi, ai in zip(p, a))
        v = mpmath.fsum(pi * (ai - mu) ** 2 for pi, ai in zip(p, a))
        return float(theta), float(target * v / (target - m0)), float(v)


# ---------------------------------------------------------------------------
# miscellaneous closed forms


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def free_poisson_moments(n: int, rate) -> list:
    """Moments ``m1..mn`` of the free Poisson law whose free cumulants all
    equal ``rate``: Narayana polynomials, exact for a rational ``rate``."""
    return [sum(Fraction(math.comb(k, j) * math.comb(k, j - 1), k) * rate**j
                for j in range(1, k + 1)) for k in range(1, n + 1)]


def shifted_moments(moments_, c) -> list:
    """Moments ``m1..mK`` of the law moved by ``c``, by the binomial sums."""
    m = [moments_[0] ** 0] + list(moments_)
    return [sum(math.comb(n, j) * m[j] * c ** (n - j) for j in range(n + 1))
            for n in range(1, len(m))]


def semicircle_moments(n: int, center, variance) -> list:
    """Moments ``m1..mn`` of the semicircle law: ``variance**k * C_k`` at
    even order ``2k`` about its center, moved to ``center``."""
    centered = [variance ** (k // 2) * (0 if k % 2 else catalan(k // 2)) for k in range(1, n + 1)]
    return shifted_moments(centered, center)


def mp_centered_moments(n: int, a, alpha) -> list:
    """Moments ``m1..mn`` of the free power ``alpha`` of the centered
    Marchenko-Pastur law ``a``: free cumulants ``alpha * a**(k-2)`` past
    ``k = 1``, the free Poisson law of rate ``alpha/a**2`` and jump ``a``
    moved by ``-alpha/a``."""
    jumped = [v * a**k for k, v in enumerate(free_poisson_moments(n, alpha / a**2), start=1)]
    return shifted_moments(jumped, -alpha / a)


def fuss_catalan(p: int, n: int) -> float:
    """Moments of the p-th multiplicative power of the free Poisson law."""
    return math.comb((p + 1) * n, n) / (p * n + 1)


def random_atomic(rng, max_atoms: int = 4, positive: bool = False):
    """A random atomic measure with well-separated atoms and fat weights."""
    k = int(rng.integers(2, max_atoms + 1))
    lo, hi = (0.2, 2.5) if positive else (-2.0, 2.0)
    while True:
        atoms = np.sort(rng.uniform(lo, hi, k))
        if np.min(np.diff(atoms)) > 0.05:
            break
    weights = rng.uniform(0.2, 1.0, k)
    weights /= weights.sum()
    weights[-1] = 1.0 - weights[:-1].sum()  # exact normalization
    return tuple(atoms.tolist()), tuple(weights.tolist())


def mp_cauchy(nu, z: float, dps: int = 50):
    """``G(z)`` of a named density at a real ``z`` outside its support, at
    ``dps`` digits.  ``G`` is the root, decaying like ``1/z``, of the
    quadratic that ``z = 1/G + R(G)`` gives for the law's R-transform (free
    Poisson ``1/(1 - w)``, semicircle ``c + v*w``, centered Marchenko-Pastur
    ``w/(1 - a*w)``), written as ``2 / (B + sign * sqrt(B**2 - 4AC))`` so that
    nothing cancels.  Only the law's parameters are read off ``nu``."""
    with mpmath.workdps(dps):
        z = mpmath.mpf(z)
        name = type(nu).__name__
        if name == "FreePoisson":  # z G**2 - z G + 1 = 0
            return 2 / (z + mpmath.sign(z - 2) * mpmath.sqrt(z * z - 4 * z))
        if name == "Semicircle":  # v G**2 - (z - c) G + 1 = 0
            w = z - nu.center
            return 2 / (w + mpmath.sign(w) * mpmath.sqrt(w * w - 4 * mpmath.mpf(nu.variance)))
        a = mpmath.mpf(nu.a)  # (1 + a z) G**2 - (z + a) G + 1 = 0
        return 2 / (z + a + mpmath.sign(z - a) * mpmath.sqrt((z - a) ** 2 - 4))


def mp_cauchy_complex(nu, z: complex, dps: int = 50):
    """``G(z)`` of a named density at a ``z`` off the real axis, at ``dps``
    digits: of the two roots ``2 / (B +- sqrt(B**2 - 4A))`` of the quadratic
    ``A G**2 - B G + 1 = 0`` of :func:`mp_cauchy`, the one whose imaginary
    part has the sign opposite to ``Im z`` (G maps the upper half-plane to
    the lower one, and the other root is ``1/(A G)``)."""
    with mpmath.workdps(dps):
        z = mpmath.mpc(z)
        name = type(nu).__name__
        if name == "FreePoisson":
            a_coef, b_coef = z, z
        elif name == "Semicircle":
            a_coef, b_coef = mpmath.mpf(nu.variance), z - nu.center
        else:
            a = mpmath.mpf(nu.a)
            a_coef, b_coef = 1 + a * z, z + a
        root = mpmath.sqrt(b_coef * b_coef - 4 * a_coef)
        g = 2 / (b_coef + root)
        return g if g.imag * z.imag < 0 else 2 / (b_coef - root)


def _image(nu):
    """``(center, s, a)`` of a named density at the working precision, ``s =
    sqrt(variance)``: the image ``center + s*y`` of the centered
    Marchenko-Pastur law ``y`` with parameter ``a``."""
    return (mpmath.mpf(nu.center), mpmath.sqrt(mpmath.mpf(nu.variance)), mpmath.mpf(nu.a))


def mp_integral(nu, f, dps: int = 20):
    """The integral of ``f`` against a named density at ``dps`` digits, by
    mpmath's tanh-sinh quadrature after ``x = lo + u**2`` below ``alpha_1 =
    center + s*a`` and ``x = hi - u**2`` above it, ``u`` in ``(0,
    sqrt(2*s))``: the density ``sqrt((x - lo)*(hi - x))/(2*pi*s**2*(1 +
    a*y))``, ``y = (x - center)/s``, times ``2*u`` is then smooth, with ``1 +
    a*y = (1 -/+ a)**2 +/- a*u**2/s`` written without cancellation at an
    inverse-square-root edge.  ``f`` is called with mpmath numbers."""
    with mpmath.workdps(dps):
        c, s, a = _image(nu)
        lo, hi = c + s * (a - 2), c + s * (a + 2)

        def piece(edge, sign):
            return lambda u: (u * u * mpmath.sqrt(4 * s - u * u) * f(edge + sign * u * u)
                              / (mpmath.pi * s * s * ((1 - sign * a) ** 2 + sign * a * u * u / s)))

        umax = mpmath.sqrt(2 * s)
        return mpmath.quad(piece(lo, 1), [0, umax]) + mpmath.quad(piece(hi, -1), [0, umax])


def mp_psi(nu, theta, dps: int = 60):
    """``Psi(theta) = integral of theta*x/(1 - theta*x)`` of an atomic law
    or a named density at the exact ``theta``, real or complex, at ``dps``
    digits: the finite sum, or ``r*G(r) - 1`` at ``r = 1/theta`` from
    :func:`mp_cauchy` (:func:`mp_cauchy_complex` off the real axis)."""
    with mpmath.workdps(dps):
        if hasattr(nu, "atoms"):
            t = mpmath.mpmathify(theta)
            return mpmath.fsum(w * t * a / (1 - t * a) for a, w in zip(nu.atoms, nu.weights))
        if isinstance(theta, complex) and theta.imag:
            r = 1 / mpmath.mpc(theta)
            return r * mp_cauchy_complex(nu, r, dps) - 1
        r = 1 / mpmath.mpf(theta.real)
        return r * mp_cauchy(nu, r, dps) - 1


def mp_k_mean(nu, theta: float, dps: int = 50) -> float:
    """The mean ``Psi/(theta*(1 + Psi))`` of the family member at kernel
    parameter ``theta``, from :func:`mp_psi` at ``dps`` digits, and the
    generator mean at ``theta = 0``: the mean map that the package's roots
    are held against.  It reads the law's parameters or atoms only, never
    its Jacobi parameters.  Where ``1 + Psi`` is below ``10**(-dps/2)``, fewer
    than half its digits are left, and the assertion fails."""
    with mpmath.workdps(dps):
        if theta == 0.0:
            if hasattr(nu, "atoms"):
                return float(mpmath.fsum(mpmath.mpf(a) * w for a, w in zip(nu.atoms, nu.weights)))
            return float(nu.center)
        psi = mp_psi(nu, theta, dps)
        assert 1 + psi > mpmath.mpf(10) ** (-dps // 2), f"mean map lost at theta = {theta}"
        return float(psi / (theta * (1 + psi)))
