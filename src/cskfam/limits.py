"""Desk-scale reproduction of the convolution limit theorems.

The scaled sequences ``D_{1/(n*m0**n)}((nu ** boxtimes n) ** boxplus n)`` and
their Boolean counterparts converge (here: at moment level) to a pair of
limit laws indexed by ``gamma = Var(nu)/mean(nu)**2``.  The limits are
characterized by exponential S- and Sigma-transforms, which makes their
moments and closed-form variance functions directly computable.  This
module builds the scaled sequences, compares them to the limit laws, and
checks that the Boolean-to-free map at t = 1 carries one limit to the
other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

from . import conv
from .csk import variance as csk_variance
from .errors import CskfamError, DomainError
from .measure import Measure, MomentSeq, mean, moments, variance_of
from .series import DEFAULT_ORDER, TruncatedSeries
from .transforms import s_series_to_moments, sigma_series_to_s_series

LimitKind = Literal["eta", "sigma"]
ConvKind = Literal["boxplus", "uplus"]

#: Which limit law each scaled-convolution kind approaches.
LIMIT_OF_KIND: dict[str, str] = {"boxplus": "eta", "uplus": "sigma"}

DEFAULT_SCHEDULE = (1, 2, 4, 8, 16, 32, 64)
DEFAULT_VARIANCE_GRID = (0.6, 0.8, 0.9)


def _exp_series(gamma: float, order: int) -> TruncatedSeries:
    """Series of ``exp(-gamma*z)`` truncated at ``order``."""
    coeffs = []
    c = 1.0
    for k in range(order + 1):
        coeffs.append(c)
        c *= -gamma / (k + 1)
    return TruncatedSeries(tuple(coeffs))


def limit_law_moments(kind: LimitKind, gamma: float, order: int) -> MomentSeq:
    """Moments of the limit law with parameter ``gamma``.

    ``kind = "eta"``: S-transform series ``exp(-gamma*z)``;
    ``kind = "sigma"``: Sigma-transform series ``exp(-gamma*z)``.
    Both have first moment exactly 1.
    """
    if gamma <= 0.0:
        raise DomainError("gamma must be positive")
    if kind == "eta":
        s = _exp_series(gamma, order - 1)
    elif kind == "sigma":
        s = sigma_series_to_s_series(_exp_series(gamma, order - 1))
    else:
        raise DomainError(f"unknown limit-law kind {kind!r}")
    return s_series_to_moments(s, order)


def limit_variance_eta(gamma: float, m: float) -> float:
    """Closed-form variance of the free-side limit: ``gamma*m*(m-1)/log(m)``.

    Defined on (0, 1]; the singularity at m = 1 is removable with value
    ``gamma``.
    """
    if gamma <= 0.0:
        raise DomainError("gamma must be positive")
    if m <= 0.0 or m > 1.0:
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
    if gamma <= 0.0:
        raise DomainError("gamma must be positive")
    if m <= 0.0 or m >= 1.0:
        raise DomainError(f"m = {m:g} outside (0, 1)")
    return gamma * m * m / math.log(m)


def limit_pseudo_variance_sigma(gamma: float, m: float) -> float:
    """Pseudo-variance of the sigma limit: ``gamma*m**2/log(m) - m**2``."""
    return limit_pseudo_variance_eta(gamma, m) - m * m


@dataclass(frozen=True)
class LimitLaw:
    """A limit law bundled with its series, moments and variance forms."""

    kind: LimitKind
    gamma: float
    transfer_series: TruncatedSeries  # S series for eta, Sigma series for sigma
    moments: MomentSeq

    def variance(self, m: float) -> float:
        if self.kind == "eta":
            return limit_variance_eta(self.gamma, m)
        return limit_variance_sigma(self.gamma, m)

    def pseudo_variance(self, m: float) -> float:
        if self.kind == "eta":
            return limit_pseudo_variance_eta(self.gamma, m)
        return limit_pseudo_variance_sigma(self.gamma, m)


def limit_law(kind: LimitKind, gamma: float, order: int = DEFAULT_ORDER) -> LimitLaw:
    return LimitLaw(kind, gamma, _exp_series(gamma, order - 1),
                    limit_law_moments(kind, gamma, order))


# ---------------------------------------------------------------------------
# scaled sequences


def scaled_sequence_moments(nu: Measure, n: int, kind: ConvKind, order: int) -> MomentSeq:
    """Moments of the scaled iterated convolution at step ``n``.

    Pipeline: multiplicative power ``n``, then additive power ``n`` of the
    requested kind, then dilation by ``1/(n*m0**n)``.  The first moment of
    the result equals 1 up to roundoff.

    The generator is dilated to unit mean first, which is exact because
    ``D_{1/m0}(nu) ** boxtimes n = D_{1/m0**n}(nu ** boxtimes n)`` and
    dilations commute with additive powers.  Powering the raw moments
    instead overflows for ``m0 > 1`` (about ``m0**(n*order)``).
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    if kind not in ("boxplus", "uplus"):
        raise DomainError(f"unknown convolution kind {kind!r}")
    if not nu.is_positive:
        raise DomainError("the scaled sequence needs a positive generator measure")
    m = moments(nu, order)
    m0 = m.values[0]
    if m0 <= 0.0:
        raise DomainError("the scaled sequence needs a positive generator mean")
    powered = conv.boxtimes_power(conv.dilate(m, 1.0 / m0), float(n))
    if kind == "boxplus":
        added = conv.boxplus_power(powered, float(n))
    else:
        added = conv.uplus_power(powered, float(n))
    return conv.dilate(added, 1.0 / n)


# ---------------------------------------------------------------------------
# convergence reporting


@dataclass(frozen=True)
class MomentRow:
    n: int
    order: int
    value: float
    limit: float
    error: float


@dataclass(frozen=True)
class VarianceRow:
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
    series_order: int
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
    series_order: int = DEFAULT_ORDER,
    variance_grid: Sequence[float] = DEFAULT_VARIANCE_GRID,
) -> ConvergenceReport:
    """Run the scaled-sequence experiment and tabulate errors.

    Moment rows compare orders ``1..moment_order`` of each scaled law with
    the limit law for ``gamma = Var(nu)/mean(nu)**2``.  Variance rows
    reconstruct the variance function of each scaled law from its truncated
    moments (S-series route) and compare with the closed form; rows where
    the reconstruction fails carry a note instead of a value.
    """
    ns = tuple(int(n) for n in n_values)
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise DomainError("the n schedule must be strictly increasing")
    if moment_order > series_order:
        raise DomainError("moment_order cannot exceed series_order")
    m0 = mean(nu)
    gamma = variance_of(nu) / m0**2
    limit_kind = LIMIT_OF_KIND[kind]
    lim = limit_law_moments(limit_kind, gamma, moment_order)
    lim_variance = limit_variance_eta if limit_kind == "eta" else limit_variance_sigma

    rows: list[MomentRow] = []
    vrows: list[VarianceRow] = []
    for n in ns:
        scaled = scaled_sequence_moments(nu, n, kind, series_order)
        for order in range(1, moment_order + 1):
            value = scaled.values[order - 1]
            target = lim.values[order - 1]
            rows.append(MomentRow(n, order, value, target, abs(value - target)))
        for m in variance_grid:
            target = lim_variance(gamma, m)
            try:
                value = csk_variance(scaled, float(m))
            except CskfamError as exc:  # reconstruction can fail near domain edges
                vrows.append(VarianceRow(n, float(m), None, target, None,
                                         f"{type(exc).__name__}: {exc}"))
            else:
                vrows.append(VarianceRow(n, float(m), value, target, abs(value - target)))
    return ConvergenceReport(
        measure=nu.describe(),
        kind=kind,
        limit_kind=limit_kind,
        gamma=gamma,
        moment_order=moment_order,
        series_order=series_order,
        n_values=ns,
        rows=tuple(rows),
        variance_rows=tuple(vrows),
    )


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


def verify_bp_identity(gamma: float, order: int = 8, tolerance: float = 1e-9) -> BpIdentityReport:
    """Check that the Boolean-to-free map at t = 1 sends the sigma limit to
    the eta limit, moment by moment."""
    eta = limit_law_moments("eta", gamma, order)
    sigma = limit_law_moments("sigma", gamma, order)
    mapped = conv.bp_transform(sigma, 1.0)
    errors = tuple(abs(a - b) for a, b in zip(mapped.values, eta.values))
    worst = max(errors)
    return BpIdentityReport(gamma, order, tolerance, errors, worst, worst <= tolerance)
