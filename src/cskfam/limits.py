"""Desk-scale reproduction of the convolution limit theorems.

The scaled sequences ``D_{1/(n*m0**n)}((nu ** boxtimes n) ** boxplus n)`` and
their Boolean counterparts converge (here: at moment level) to a pair of
limit laws indexed by ``gamma = Var(nu)/mean(nu)**2``.  The limits are
characterized by exponential S- and Sigma-transforms, which makes their
moments and closed-form variance functions directly computable.  This
module builds the scaled sequences, compares them to the limit laws, and
checks that the Boolean-to-free map at t = 1 carries one limit to the
other.

Both ingredients of a scaled law come from the generator by transformation
laws, never by rebuilding the law step by step:

* moments, from the S-series ``S1`` of ``nu`` dilated to unit mean.  With
  ``S_{mu ** boxtimes n} = S_mu**n``, ``S_{mu ** boxplus t}(z) = S_mu(z/t)/t``
  and ``S_{D_c mu} = S_mu/c``, the free scaled law of step ``n`` has
  ``S_n(z) = S1(z/n)**n``.  The Boolean one has ``Sigma_n(z) = Sigma1(z/n)**n``
  with ``Sigma(z) = S(z/(1 - z))``, because
  ``Sigma_{mu ** uplus t}(z) = Sigma_mu(z/t)/t`` (Belinschi & Nica, "On a
  remarkable semigroup of homomorphisms with respect to free multiplicative
  convolution", 2008).  Either way ``U_n = -log S_n`` (``-log Sigma_n``)
  is ``n*U1(z/n)``, and one Lagrange-inversion pass reads the moments of
  every step off those series, with no reversion (:func:`_lagrange_moments`).
* variance functions, from the generator's own variance function through
  the multiplicative, additive and dilation laws of :mod:`.csk` (the
  "machinery of variance functions" of the paper's proofs).

Every series of a report stops at the printed moment order ``K`` (``K - 1``
for S): the dictionaries are triangular, so longer series would change
moments ``1..K`` by roundoff only.  Moments 1-6 stay within 2e-15 relative
of the exact values for n up to 64 (see :func:`scaled_sequence_moments`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Literal, NamedTuple, Sequence

import numpy as np

from . import conv, csk
from .errors import (CskfamError, DomainError, raise_error, require_order, require_positive,
                     value_or_error)
from .measure import Measure, MomentSeq, moments
from .series import ps_log
from .transforms import s_series

LimitKind = Literal["eta", "sigma"]
ConvKind = Literal["boxplus", "uplus"]

#: Which limit law each scaled-convolution kind approaches.
LIMIT_OF_KIND: dict[str, str] = {"boxplus": "eta", "uplus": "sigma"}

DEFAULT_SCHEDULE = (1, 2, 4, 8, 16, 32, 64)
#: Means at which every report compares variance functions with the limit's.
VARIANCE_GRID = (0.6, 0.8, 0.9)
#: Largest moment error at which :func:`verify_bp_identity` passes.
BP_IDENTITY_TOL = 1e-9


def _lagrange_moments(u: np.ndarray, sigma: bool) -> np.ndarray:
    """Moments ``m1..mK`` of the laws whose S series (Sigma series where
    ``sigma``) are ``exp(-U)``, one law per row of the ``(rows, K)`` array
    ``u`` of the coefficients ``u_0..u_(K-1)`` of ``U``.

    Lagrange inversion of ``chi(w) = w*S(w)/(1 + w)`` gives
    ``m_k = (1/k) [w**(k-1)] (1 + w)**k * exp(k*U(w))``, and in the variable
    ``v = w/(1 + w)`` of ``Sigma(v) = S(w)``
    ``m_k = (1/k) [v**(k-1)] exp(k*U(v))/(1 - v)**2``: the sum over ``j < k``
    of ``[w**j] exp(k*U)`` with the positive weights ``C(k, j + 1)`` or
    ``k - j``.  One recurrence ``j*e_j = k * sum_(i=1..j) i*u_i*e_(j-i)``
    runs over every row and ``k`` at once in ``np.longdouble``, so each
    moment is rounded to float once; each ``e_j`` is one product and one
    reduction over ``i``, and the weighted sum one over ``j``.  Rows do not
    mix, so stacking laws into one call changes no bit of any of them.
    Reductions along axis 0 run in increasing ``i`` (``j``), and each weight
    is rounded to ``np.longdouble`` alone: moment ``k`` is the same at every
    ``K >= k``.
    """
    u = u.astype(np.longdouble)
    order = u.shape[1]
    k = np.arange(1, order + 1)
    iu = (u * np.arange(order)).T[:, :, None]  # iu[i, row] = i*u_i
    e = np.empty((order, *u.shape), np.longdouble)  # e[j, row, k - 1] = [w**j] exp(k*U)
    e[0] = np.exp(u[:, :1] * k)
    for j in range(1, order):
        e[j] = np.add.reduce(iu[1:j + 1] * e[j - 1::-1], axis=0) * k / j
    weights = np.array([[max(c - j, 0) if sigma else math.comb(c, j + 1)
                         for c in range(1, order + 1)] for j in range(order)], np.longdouble)
    return (np.add.reduce(weights[:, None] * e, axis=0) / k).astype(float)


def limit_law_moments(kind: LimitKind, gamma: float, order: int) -> MomentSeq:
    """Moments of the limit law with parameter ``gamma``.

    ``kind = "eta"``: S-transform ``exp(-gamma*w)``; ``kind = "sigma"``:
    Sigma-transform ``exp(-gamma*v)``.  Both have first moment exactly 1.
    :func:`_lagrange_moments` of ``U = gamma*w`` sums positive terms only:
    within an ulp of the exact moments of the float ``gamma`` through order
    12 at ``gamma`` 0.129, 0.37, 1 and 2.5 (9.8e-17 relative measured).
    """
    require_positive("gamma", gamma)
    require_order(order)
    if kind not in ("eta", "sigma"):
        raise DomainError(f"unknown limit-law kind {kind!r}")
    return MomentSeq(_lagrange_moments(gamma * np.eye(1, order, 1), kind == "sigma")[0].tolist())


def limit_variance_eta(gamma: float, m: float) -> float:
    """Closed-form variance of the free-side limit: ``gamma*m*(m-1)/log(m)``.

    Defined on (0, 1]; the singularity at m = 1 is removable with value
    ``gamma``.
    """
    require_positive("gamma", gamma)
    if not 0.0 < m <= 1.0:
        raise DomainError(f"m = {m:g} outside (0, 1]")
    if m == 1.0:
        return gamma
    t = m - 1.0
    return gamma * m * t / math.log1p(t)


def limit_variance_sigma(gamma: float, m: float) -> float:
    """Closed-form variance of the Boolean-side limit: the eta value plus
    ``m*(1-m)``."""
    return limit_variance_eta(gamma, m) + m * (1.0 - m)


def limit_pseudo_variance_eta(gamma: float, m: float) -> float:
    """Pseudo-variance of the eta limit: ``gamma*m**2/log(m)`` (m in (0,1))."""
    require_positive("gamma", gamma)
    if not 0.0 < m < 1.0:
        raise DomainError(f"m = {m:g} outside (0, 1)")
    return gamma * m * m / math.log(m)


def limit_pseudo_variance_sigma(gamma: float, m: float) -> float:
    """Pseudo-variance of the sigma limit: ``gamma*m**2/log(m) - m**2``."""
    return limit_pseudo_variance_eta(gamma, m) - m * m


# ---------------------------------------------------------------------------
# scaled sequences


def _check_kind(kind: str):
    if kind not in LIMIT_OF_KIND:
        raise DomainError(f"unknown convolution kind {kind!r}")


def _check_step(n) -> int:
    """``n`` as an int, or DomainError unless it is an integer ``n >= 1``
    with a finite float square: the scaled law of step ``n`` is dilated by
    ``1/n`` and its variance by ``1/n**2``."""
    if not n * n <= sys.float_info.max:  # exact for a large int, false for nan
        raise DomainError(f"n must be at most {math.sqrt(sys.float_info.max):g}")
    if n < 1 or n != int(n):
        raise DomainError("n must be a positive integer")
    return int(n)


def _unit_generator(nu: Measure, order: int,
                    kind: ConvKind) -> tuple[float, float, MomentSeq, np.ndarray]:
    """``gamma = Var(nu)/m0**2``, the mean ``m0``, the first ``order``
    moments of ``nu`` dilated to unit mean, and ``U1 = -log S1`` of their
    S-series ``S1`` (order ``order - 1``) for ``boxplus``, ``-log Sigma1``
    for ``uplus``, all from one moment sequence of ``nu``.

    Dilating first keeps every later series at unit scale: the scaled law
    of step ``n`` needs no power of ``m0``, where the raw moments of the
    powers overflow for ``m0 > 1`` (about ``m0**(n*order)``).
    """
    if not nu.is_positive:
        raise DomainError("the scaled sequence needs a positive generator measure")
    m = moments(nu, max(order, 2))
    m0 = m.values[0]
    if m0 <= 0.0:
        raise DomainError("the scaled sequence needs a positive generator mean")
    unit = conv.dilate(MomentSeq(m.values[:order]), 1.0 / m0)
    s = s_series(unit)
    # The rounded 1/m0 leaves a mean 1 + O(eps), which S1**n would carry
    # into moment k of step n as an error of about n*k*eps; dividing by
    # S(0) = 1/mean sets the mean to exactly 1.
    u1 = -ps_log((s / s[0]).astype(np.longdouble))
    if kind == "uplus":  # Sigma1(v) = S1(v/(1 - v)); [v**j] (v/(1 - v))**i = C(j-1, i-1)
        u1 = np.array([[math.comb(j - 1, i - 1) if i and j else float(i == j)
                        for i in range(order)] for j in range(order)]) @ u1
    return m.variance / m0**2, m0, unit, u1


def _scaled_moments(unit: MomentSeq, u1: np.ndarray, ns: Sequence[int], kind: ConvKind,
                    gamma: float | None = None) -> list:
    """Moments of the scaled law of each step ``n`` of ``ns``, as many as
    ``unit`` holds: the unit-mean generator's own at ``n = 1`` (first, if
    at all), then one :func:`_lagrange_moments` of ``U_n = n*U1(w/n)``.
    Given ``gamma``, the limit law of ``kind`` comes last, from the row
    ``U = gamma*w`` of the same call (bitwise :func:`limit_law_moments`)."""
    later = [n for n in ns if n > 1]
    out = [unit.values] * (len(ns) - len(later))
    u = u1 * np.power.outer(np.array(later, dtype=float), 1.0 - np.arange(len(u1)))
    if gamma is not None:
        u = np.vstack([u, gamma * np.eye(1, len(u1), 1)])
    if len(u):
        out += _lagrange_moments(u, kind == "uplus").tolist()
    return out


def scaled_sequence_moments(nu: Measure, n: int, kind: ConvKind, order: int) -> MomentSeq:
    """Moments of the scaled iterated convolution at step ``n``.

    The law is ``D_{1/(n*m0**n)}`` of the additive power ``n`` (of the
    requested kind) of ``nu ** boxtimes n``; its first moment equals 1 up
    to roundoff.  It is built from the S-series ``S1`` of ``nu`` dilated to
    unit mean, never through the powers themselves: ``S_n(z) = S1(z/n)**n``
    for ``boxplus`` and ``Sigma_n(z) = Sigma1(z/n)**n`` for ``uplus`` (the
    module docstring derives both), then read back by Lagrange inversion.

    Accuracy envelope: on free Poisson and on the atomic generators of the
    ``limit_report`` benchmark (seeds 201 and 7919), at order 6 as in
    :func:`convergence_report` and at order 40, moments 1-6 agree with the
    exact rational values within 2e-15 relative for n up to 64 (1.8e-15
    measured).
    """
    n = _check_step(n)
    _check_kind(kind)
    _, _, unit, u1 = _unit_generator(nu, order, kind)
    return MomentSeq(_scaled_moments(unit, u1, (n,), kind)[0])


def _scaled_law_variance(vfun: Callable[[float], float], m0: float, n: int, kind: ConvKind,
                         m: float) -> float:
    """Variance function of the scaled law of step ``n`` at mean ``m``.

    The chain of :mod:`.csk` laws on the generator's own variance function
    ``vfun``: ``boxtimes_power_variance`` for ``nu ** boxtimes n``, then
    ``boxplus_power_variance`` (``uplus_power_variance``) for the additive
    power, then the dilation ``V_c(m) = c**2 * V(m/c)``.  As for the
    moments, the generator is dilated to unit mean first, so
    ``c = 1/n`` and no power of ``m0``, the generator mean, appears.
    ``vfun`` is read once, at the pulled-back mean ``m0 * m**(1/n)``.
    """
    unit = lambda x: vfun(m0 * x) / (m0 * m0)  # V of nu dilated to unit mean
    powered = lambda y: csk.boxtimes_power_variance(unit, 1.0, n, y)
    additive = csk.boxplus_power_variance if kind == "boxplus" else csk.uplus_power_variance
    return additive(powered, 1.0, n, n * m) / (n * n)


def _scaled_law_variances(nu: Measure, m0: float, kind: ConvKind, cells: list) -> list:
    """:func:`_scaled_law_variance` of ``csk.variance(nu, .)`` at each step
    and mean ``(n, m)`` of ``cells``, bit for bit: the value or the
    CskfamError raised.  The pulled-back mean of a cell is the chain's own
    float expression ``m0 * ((n*m)/n)**(1/n)``, asked for only where the
    chain's ``require_positive`` checks let it reach ``vfun``;
    ``csk.variances`` solves them as one grid, and one pass of the chain
    reads each answer in the same order, raising a stored error where
    ``csk.variance`` would have raised it."""
    means = [m0 * y ** (1.0 / n) for n, m in cells if 0.0 < (y := (n * m) / n) < math.inf]
    answers = iter(csk.variances(nu, means))
    stored = lambda _: raise_error(next(answers))
    return [value_or_error(_scaled_law_variance, stored, m0, n, kind, m) for n, m in cells]


# ---------------------------------------------------------------------------
# convergence reporting


class MomentRow(NamedTuple):
    n: int
    order: int
    value: float
    limit: float
    error: float


class VarianceRow(NamedTuple):
    n: int
    m: float
    value: float | None
    limit: float
    error: float | None
    note: str = ""


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-step moment and variance-function errors against the limit law."""

    measure: str
    kind: ConvKind
    limit_kind: LimitKind
    gamma: float
    moment_order: int
    n_values: tuple[int, ...]
    rows: tuple[MomentRow, ...]
    variance_rows: tuple[VarianceRow, ...]

    def moment_errors(self, order: int) -> list[float]:
        """Errors of one moment order along the schedule."""
        return [r.error for r in self.rows if r.order == order]


def convergence_report(
    nu: Measure,
    kind: ConvKind,
    n_values: Sequence[int] = DEFAULT_SCHEDULE,
    moment_order: int = 6,
) -> ConvergenceReport:
    """Run the scaled-sequence experiment and tabulate errors.

    The generator's S-series, of order ``moment_order - 1``, is the one
    series a report reverts.  Moment rows compare orders
    ``1..moment_order`` of each scaled law (see
    :func:`scaled_sequence_moments`) with the limit law for
    ``gamma = Var(nu)/mean(nu)**2``; one :func:`_lagrange_moments` gives
    both, for all steps.
    Variance rows evaluate each scaled law's variance function through the
    paper's transformation laws: with ``c = 1/(n*m0**n)`` and ``x = m/c``,
    ``V_n(m) = c**2 * W(x)``, where ``W`` is the ``boxplus`` (``uplus``,
    mean ``m0**n``) power law applied to the ``boxtimes`` power law of
    ``csk.variance`` of ``nu`` (``W = V_nu`` at ``n = 1``).  A row whose
    pulled-back mean ``m0 * m**(1/n)`` leaves the generator's domain of
    means, or that raises any other ``CskfamError``, carries a note instead
    of a value.
    The pulled-back means of all rows are solved as one grid
    (``csk.variances``), with the values and notes of ``csk.variance``
    row by row.

    Accuracy envelope: on seeds 201 and 7919 of the ``limit_report``
    benchmark every variance row agrees with the same chain at 50 digits,
    on the generator's exact variance function, within 1e-15 relative
    (8.5e-16 measured), and moments 1-6 agree with the exact rational
    values within 2e-15 relative (1.8e-15 measured; 1.1e-16 for the limit
    law's).  The rows read the generator's exact
    mean-map root (:func:`.csk.family_rows`), and the ``boxtimes`` law does
    not cancel as ``n`` grows: free Poisson's rows stay within 1e-13 of
    ``m(m - 1)/(n expm1(log(m)/n))`` up to ``n = 1e15``.
    """
    ns = tuple(_check_step(n) for n in n_values)
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise DomainError("the n schedule must be strictly increasing")
    require_order(moment_order)
    _check_kind(kind)
    gamma, m0, unit, u1 = _unit_generator(nu, moment_order, kind)
    require_positive("gamma", gamma)  # the limit law's; a one-atom generator has gamma = 0
    limit_kind = LIMIT_OF_KIND[kind]
    *scaled, lim = _scaled_moments(unit, u1, ns, kind, gamma)
    lim_variance = limit_variance_eta if limit_kind == "eta" else limit_variance_sigma

    rows = [MomentRow(n, order, value, target, abs(value - target))
            for n, values in zip(ns, scaled)
            for order, value, target in zip(range(1, moment_order + 1), values, lim)]
    cells = [(n, m) for n in ns for m in VARIANCE_GRID]
    vrows: list[VarianceRow] = []
    for (n, m), value in zip(cells, _scaled_law_variances(nu, m0, kind, cells)):
        target = lim_variance(gamma, m)
        if isinstance(value, CskfamError):  # e.g. m0 * m**(1/n) outside the domain of means
            vrows.append(VarianceRow(n, m, None, target, None,
                                     f"{type(value).__name__}: {value}"))
        else:
            vrows.append(VarianceRow(n, m, value, target, abs(value - target)))
    return ConvergenceReport(nu.describe(), kind, limit_kind, gamma, moment_order, ns,
                             tuple(rows), tuple(vrows))


# ---------------------------------------------------------------------------
# the Boolean-to-free identity between the two limits


@dataclass(frozen=True)
class BpIdentityReport:
    gamma: float
    order: int
    tolerance: float
    errors: tuple[float, ...]
    max_error: float
    passed: bool


def verify_bp_identity(gamma: float, order: int = 8) -> BpIdentityReport:
    """Check that the Boolean-to-free map at t = 1 sends the sigma limit to
    the eta limit, moment by moment."""
    eta = limit_law_moments("eta", gamma, order)
    sigma = limit_law_moments("sigma", gamma, order)
    mapped = conv.bp_transform(sigma, 1.0, order)
    errors = tuple(abs(a - b) for a, b in zip(mapped.values, eta.values))
    worst = max(errors)
    return BpIdentityReport(gamma, order, BP_IDENTITY_TOL, errors, worst, worst <= BP_IDENTITY_TOL)
