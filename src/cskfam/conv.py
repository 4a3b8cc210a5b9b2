"""Moment-level convolution calculus.

Free cumulants (additive under the free convolution), Boolean cumulants
(additive under the Boolean convolution), the multiplicative convolution
through S-series products, real convolution powers, dilation, affine
images and the Boolean-to-free interpolation map.

Every convolution, of two measures or a power of one, takes measures and
an order, and reads what it needs of each operand through the measure
protocol: free cumulants for the free convolution and the Boolean-to-free
map, the S series for the multiplicative one, moments for the Boolean
one.  A named density answers the first from its exact free cumulants and
the second from its Jacobi parameters, with no reversion; atomic measures
and moment sequences go through the dictionaries here.  The additive powers
read :meth:`.Measure.jacobi` first: ``uplus_power`` scales the first
Jacobi parameters of any measure that has them (the named densities and
atomic laws), and ``boxplus_power`` and ``bp_transform`` map those of a
free Meixner law (a named density, or a law of one or two atoms); the
moments then come from :func:`.series.jacobi_moments`, with no reversion.
A measure without them (a moment sequence) or with three or more atoms
under the free power keeps the series route, as do the pair operations;
both multiplicative ones revert their S series once, back to moments.
Cumulant series are float64 arrays, as S series are: a convolution adds
them and a power scales them.  The dictionaries are triangular, so results
are exact in the stored orders up to roundoff; there is no truncation
error beyond the order cut itself.  A moment that overflows to inf or nan
raises :class:`NumericError`.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import (
    DomainError,
    FormalPowerWarning,
    NumericError,
    require_nonnegative,
    require_order,
    require_positive,
)
from .measure import Measure, MomentSeq, moments
from .series import jacobi_moments, ps_mul, ps_pow_int, ps_pow_real, ps_reciprocal, ps_revert
from .transforms import s_series_to_moments


# ---------------------------------------------------------------------------
# moment <-> cumulant dictionaries


def moments_to_free_cumulants(m: MomentSeq) -> np.ndarray:
    """Free cumulants ``k1..kK``, the coefficients of the R-transform series,
    by reverting the Cauchy-transform series.

    In the variable ``theta = 1/z`` the Cauchy transform is the power series
    ``theta*(1 + m1*theta + ...)``; its compositional inverse gives the
    inverse Cauchy transform, whose regular part carries the cumulants.

    Accuracy envelope: ill-conditioned at high order when the cumulants lie
    far below ``rho**n``, ``rho`` the growth rate of the moments.  From the
    moments of free Poisson (every ``k_n = 1``, ``rho = 4``) it returns
    ``k_n`` off by up to 2e8 at order 40 and 5e89 at order 160; from those
    of the unit semicircle (``k_n = 0`` past ``n = 2``) by 1.7e11 at order
    80.  Mapped back by :func:`free_cumulants_to_moments` the errors mostly
    cancel, but not at every order: the order-160 round trip of free
    Poisson misses its moments by up to 1.05e-3 on the ``rho**n`` scale,
    and the free power 2.5 of a two-atom law (atoms 0.75 and 1.625) by
    1.2e-2 at order 80.  Scaling to unit growth does not help.  This is why
    the named densities answer :meth:`.Measure.free_cumulants` exactly, and
    why the additive powers of the named densities and of two-atom laws
    map Jacobi parameters instead; none of them comes here.
    """
    g_hat = np.array((0.0, 1.0) + m.values)  # order K+1
    theta_of_w = ps_revert(g_hat)
    h = theta_of_w[1:]  # theta(w)/w, constant term 1
    r = ps_reciprocal(h)  # 1/h = w * G^{-1}(w) = 1 + k1*w + k2*w^2 + ...
    return r[1:]


def free_cumulants_to_moments(k: np.ndarray) -> MomentSeq:
    """Inverse of :func:`moments_to_free_cumulants`: moments from the free
    cumulants ``k1..kK``, any 1-D sequence of floats."""
    r = np.concatenate(((1.0,), k))
    theta_of_w = np.concatenate(((0.0,), ps_reciprocal(r)))  # w/r(w), order K+1
    g_hat = ps_revert(theta_of_w)
    return MomentSeq(g_hat[2:].tolist())


def moments_to_boolean_cumulants(m: MomentSeq) -> np.ndarray:
    """Boolean cumulants ``b1..bK``, the coefficients of the self-energy
    series, via series division: ``(M - 1) / M`` in ``theta``."""
    big_m = np.array((1.0,) + m.values)
    numer = np.array((0.0,) + m.values)
    e = ps_mul(numer, ps_reciprocal(big_m))
    return e[1:]


def boolean_cumulants_to_moments(b: np.ndarray) -> MomentSeq:
    """Inverse map, from Boolean cumulants ``b1..bK`` (any sequence): ``M = 1 / (1 - E)``."""
    one_minus_e = np.concatenate(((1.0,), np.negative(b)))
    big_m = ps_reciprocal(one_minus_e)
    return MomentSeq(big_m[1:].tolist())


# ---------------------------------------------------------------------------
# additive convolutions


def _finite(result: MomentSeq, what: str) -> MomentSeq:
    """``result`` of a convolution computed under ``np.errstate(all="ignore")``;
    an overflow there leaves inf or nan in it, which is an error."""
    if not all(map(math.isfinite, result.values)):
        raise NumericError(f"{what} overflows: a moment is not finite")
    return result


def boxplus(mu: Measure, nu: Measure, order: int) -> MomentSeq:
    """Moments ``m1..m_order`` of the free additive convolution of ``mu`` and
    ``nu``: free cumulants add, and one reversion turns them into moments."""
    require_order(order)
    with np.errstate(all="ignore"):
        k = mu.free_cumulants(order) + nu.free_cumulants(order)
        result = free_cumulants_to_moments(k)
    return _finite(result, "free additive convolution")


def boxplus_power(nu: Measure, alpha: float, order: int) -> MomentSeq:
    """Moments ``m1..m_order`` of the free convolution power ``nu**boxplus(alpha)``.

    A free Meixner law (:meth:`.Measure.jacobi` of length at most 2: the
    named densities and the laws of one or two atoms) stays one, and its
    Jacobi parameters map in closed form (:func:`_free_power_jacobi`).
    Every other law goes through its free cumulants, which scale by
    ``alpha``, and one reversion back to moments.

    Defined for ``alpha >= 1``; values in (0, 1) are computed formally and
    flagged with :class:`FormalPowerWarning`.
    """
    require_positive("alpha", alpha)
    require_order(order)
    if alpha < 1.0:
        warnings.warn(
            f"free convolution power alpha = {alpha:g} < 1 is a formal moment "
            "sequence; it may not be a probability measure",
            FormalPowerWarning,
            stacklevel=2,
        )
    jacobi = _free_power_jacobi(nu.jacobi(), alpha)
    with np.errstate(all="ignore"):
        if jacobi is None:
            result = free_cumulants_to_moments(alpha * nu.free_cumulants(order))
        else:
            result = MomentSeq(jacobi_moments(*jacobi, order).tolist())
    return _finite(result, f"free convolution power alpha = {alpha:g}")


def uplus(mu: Measure, nu: Measure, order: int) -> MomentSeq:
    """Moments ``m1..m_order`` of the Boolean additive convolution of ``mu`` and
    ``nu``: the Boolean cumulants of their moments add."""
    require_order(order)
    with np.errstate(all="ignore"):
        b = (moments_to_boolean_cumulants(mu.moments(order))
             + moments_to_boolean_cumulants(nu.moments(order)))
        result = boolean_cumulants_to_moments(b)
    return _finite(result, "Boolean additive convolution")


def uplus_power(nu: Measure, alpha: float, order: int) -> MomentSeq:
    """Moments ``m1..m_order`` of the Boolean convolution power
    ``nu**uplus(alpha)``, defined for every ``alpha > 0``.

    A law with Jacobi parameters (:meth:`.Measure.jacobi`: the named
    densities and atomic laws) has them scaled in their first entries
    (:func:`_boolean_power_jacobi`), and the three-term recurrence gives
    the moments.  Envelope, relative on the ``rho**n`` scale of the
    moments' growth, at order 160 against exact moments: the named
    densities within 1e-14 and atomic laws within 1e-12 at every
    ``alpha``, below 1 too.  A moment sequence goes through its Boolean
    cumulants, which scale by ``alpha``: two series reciprocals, within
    1e-9 at ``alpha >= 1`` (2.5e-14 measured on the moments of atomic
    laws) but off by up to 1e52 at ``alpha = 0.25``, with no error.
    """
    require_positive("alpha", alpha)
    require_order(order)
    jacobi = nu.jacobi()
    with np.errstate(all="ignore"):
        if jacobi is None:
            b = moments_to_boolean_cumulants(nu.moments(order))
            result = boolean_cumulants_to_moments(alpha * b)
        else:
            powered = _boolean_power_jacobi(jacobi, alpha)
            result = MomentSeq(jacobi_moments(*powered, order).tolist())
    return _finite(result, f"Boolean convolution power alpha = {alpha:g}")


def _boolean_power_jacobi(jacobi, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Jacobi parameters of the Boolean power ``t``: ``alpha_0`` and
    ``omega_1`` scale by ``t`` and the rest stay, for every Jacobi matrix.
    ``K(z) = z - 1/G(z) = alpha_0 + omega_1/(z - alpha_1 - ...)`` is the
    continued fraction, and the power scales ``K``."""
    # entry 0 scales, and a copy of the last entry keeps the tail as it was
    return tuple(np.concatenate(((t * x[0],), x[1:], x[-1:])) for x in jacobi)


def _free_power_jacobi(jacobi, t: float) -> tuple[np.ndarray, np.ndarray] | None:
    """Jacobi parameters of the free power ``t`` of a free Meixner law, or
    None unless ``jacobi`` is one (length at most 2).  A constant tail
    after the first entry stays constant: ``(t*alpha_0, alpha_1 +
    (t-1)*alpha_0)`` and ``(t*omega_1, omega_2 + (t-1)*omega_1)``, which is
    ``nu**boxplus(t) = D_sqrt(t) FM(a/sqrt(t), b/t)`` of the standard free
    Meixner law ``FM(a, b)`` (Saitoh & Yoshida 2001)."""
    if jacobi is None or max(len(x) for x in jacobi) > 2:
        return None
    (a0, a1), (w1, w2) = ((x[0], x[-1]) for x in jacobi)
    return np.array((t * a0, a1 + (t - 1.0) * a0)), np.array((t * w1, w2 + (t - 1.0) * w1))


# ---------------------------------------------------------------------------
# multiplicative convolution


def boxtimes(mu: Measure, nu: Measure, order: int) -> MomentSeq:
    """Moments ``m1..m_order`` of the free multiplicative convolution of
    ``mu`` and ``nu``: their S series (:meth:`.Measure.s_series`) multiply,
    and one reversion turns the product into moments.

    Both means must be nonzero: a zero-mean operand raises the S series'
    :class:`DomainError` ("the S series needs a nonzero first moment").
    Positivity cannot be verified from truncated moments and is the
    caller's responsibility.
    """
    require_order(order)
    with np.errstate(all="ignore"):
        product = ps_mul(mu.s_series(order), nu.s_series(order))
        result = s_series_to_moments(product, order)
    return _finite(result, "free multiplicative convolution")


def boxtimes_power(nu: Measure, alpha: float, order: int) -> MomentSeq:
    """Moments ``m1..m_order`` of the free multiplicative convolution power
    ``nu**boxtimes(alpha)``, via ``S**alpha``: the S series of ``nu``
    (:meth:`.Measure.s_series`), its power, and one reversion back to
    moments.

    ``alpha >= 1`` is the guaranteed regime; (0, 1) computes formally with a
    :class:`FormalPowerWarning`.  The first moment must be nonzero; the
    S series checks it (a named density reads its ``alpha_0``).  Non-integer
    powers need a positive first moment so the S-series power stays on the
    real branch; integer powers fall back to repeated multiplication and
    carry no sign restriction.  Envelope, ``rho**n`` scale: free Poisson
    1.7-2.3e-15 at order 160, ``alpha = 2..5``.  A semicircle loses digits
    on the way back from S, with no error: ``Semicircle(3, 0.5)`` squared is
    6.5e-11 off at order 40, past 1e-9 from 55, 1.9e-5 at 160 (``(4, 2)``: 5.2e-6).
    """
    require_positive("alpha", alpha)
    require_order(order)
    with np.errstate(all="ignore"):
        s = nu.s_series(order)
        if alpha < 1.0:
            warnings.warn(
                f"multiplicative power alpha = {alpha:g} < 1 is a formal moment "
                "sequence; it may not be a probability measure",
                FormalPowerWarning,
                stacklevel=2,
            )
        if abs(alpha - round(alpha)) <= 1e-12:
            powered = ps_pow_int(s, int(round(alpha)))
        else:
            if s[0] <= 0.0:
                raise DomainError(
                    "non-integer multiplicative power of a negative-mean sequence "
                    "would leave the real branch"
                )
            powered = ps_pow_real(s, alpha)
        result = s_series_to_moments(powered, order)
    return _finite(result, f"multiplicative convolution power alpha = {alpha:g}")


# ---------------------------------------------------------------------------
# pushforwards and the Boolean-to-free map


def dilate(nu: MomentSeq, r: float) -> MomentSeq:
    """Moments of the dilation ``x -> r*x``: ``m_n -> r**n * m_n``."""
    if not (r != 0.0 and math.isfinite(r)):
        raise DomainError(f"dilation factor r = {r:g} must be nonzero and finite")
    with np.errstate(all="ignore"):
        scale = np.power(r, np.arange(1, nu.order + 1, dtype=float))
        result = MomentSeq(tuple(scale * np.asarray(nu.values)))
    return _finite(result, f"dilation by r = {r:g}")


def affine_image(nu: MomentSeq, beta: float, lam: float) -> MomentSeq:
    """Moments of the image under ``x -> (x - lam) / beta``; a moment out of
    floating-point range raises :class:`NumericError`."""
    if not (beta != 0.0 and math.isfinite(beta) and math.isfinite(lam)):
        raise DomainError(f"affine image needs finite lam and beta != 0, got {lam:g}, {beta:g}")
    what = f"affine image with lam = {lam:g}, beta = {beta:g}"
    m = [1.0] + list(nu.values)
    out = []
    try:
        for n in range(1, nu.order + 1):
            acc = sum(math.comb(n, j) * m[j] * (-lam) ** (n - j) for j in range(n + 1))
            out.append(acc / beta**n)
    except (OverflowError, ZeroDivisionError) as exc:
        raise NumericError(f"{what} overflows: a term is out of floating-point range") from exc
    return _finite(MomentSeq(tuple(out)), what)


def bp_transform(nu: Measure, t: float, order: int) -> MomentSeq:
    """Moments ``m1..m_order`` of the Boolean-to-free interpolation: free power
    ``1+t`` then Boolean power ``1/(1+t)``.  A free Meixner law takes both
    as maps of its Jacobi parameters, one recurrence and no reversion;
    every other law takes the free power's reversion
    (:func:`boxplus_power`), then the Boolean power of the moments.

    Forms a semigroup in ``t``; ``t = 0`` is the identity and ``t = 1`` is the
    Boolean Bercovici-Pata bijection.
    """
    require_nonnegative("t", t)
    if t == 0.0:
        return moments(nu, order)
    jacobi = _free_power_jacobi(nu.jacobi(), 1.0 + t)
    if jacobi is None:
        return uplus_power(boxplus_power(nu, 1.0 + t, order), 1.0 / (1.0 + t), order)
    with np.errstate(all="ignore"):
        result = MomentSeq(jacobi_moments(*_boolean_power_jacobi(jacobi, 1.0 / (1.0 + t)),
                                          order).tolist())
    return _finite(result, f"Boolean-to-free map t = {t:g}")
