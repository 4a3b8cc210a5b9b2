"""Probability-measure representations, their moments, and ingestion.

Every generating measure is a :class:`Measure` and implements one protocol:
``moments``, ``integrate``, ``cauchy`` (G), ``psi_integral``, ``support``,
``theta_range`` and the flag ``lower_edge_singular``.  Atomic measures
answer with exact weighted sums; the named densities (semicircle, centered
Marchenko-Pastur, free Poisson) with adaptive quadrature, and take their
moments from their exact free cumulants.  A :class:`MomentSeq` is known
only through ``m1..mK``: it answers with truncated series that warn outside
their trust radius, and raises :class:`InsufficientDataError` for what a
moment list does not fix (the support, integrals of arbitrary functions).
It is also the value type of the moment-level calculus.  The public
functions (``moments``, ``quadrature_integrate``, ``cauchy_transform``,
``psi_integral``, ``theta_range``) are the only callers of the numeric methods.

Densities with an inverse-square-root edge (free Poisson at 0, the
centered Marchenko-Pastur law at |a| = 1) are integrated after the
substitution ``x = edge +/- u**2``, which turns every integrand built from
the density into a smooth one.  Each density therefore exposes a list of
:class:`QuadPiece` objects; all quadrature in the package runs over those
pieces.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy import integrate

from .errors import (
    AccuracyError,
    DomainError,
    InsufficientDataError,
    MeasureSpecError,
    SingularityError,
    TruncationAccuracyWarning,
)

#: Absolute tolerance targeted by adaptive quadrature for order-unity
#: integrands.  Larger integrals are resolved to ~1e-12 relative accuracy.
QUAD_ABS_TOL = 1e-10

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class QuadPiece:
    """One edge-regularized integration piece of a density.

    Integration runs over ``u`` in ``(0, umax)`` with ``x = anchor + sign*u**2``,
    and ``weight(u)`` already contains the density times ``|dx/du|``.
    """

    anchor: float
    sign: int
    umax: float
    weight: Callable[[np.ndarray], np.ndarray]


class Measure:
    """Base class of the measure representations: the measure protocol."""

    #: True when the Cauchy transform is infinite at the lowest support
    #: point: an atom there, or an inverse-square-root density edge.
    lower_edge_singular: bool = False

    @property
    def is_positive(self) -> bool:
        """True when the support is certified to lie in ``[0, inf)``."""
        raise NotImplementedError

    @property
    def zero_mass(self) -> float:
        """The mass of the single point 0."""
        raise NotImplementedError

    def support(self) -> tuple[float, float]:
        """The (closed) convex hull of the support."""
        raise NotImplementedError

    def theta_range(self) -> tuple[float, float]:
        """Admissible open interval of theta: ``(1/b, 1/B)`` from
        :func:`support_bounds`, infinite where a bound is 0."""
        b, big = support_bounds(self)
        theta_plus = math.inf if big == 0.0 else 1.0 / big
        theta_minus = -math.inf if b == 0.0 else 1.0 / b
        return theta_minus, theta_plus

    def moments(self, order: int) -> "MomentSeq":
        """Raw moments ``m1..m_order`` (``order >= 1``)."""
        raise NotImplementedError

    def integrate(self, f) -> float | complex:
        """Integral of ``f`` against the measure."""
        raise NotImplementedError

    def cauchy(self, z: complex) -> complex:
        """``G(z) = integral of 1/(z - x)``."""
        raise NotImplementedError

    def psi_integral(self, theta: float) -> float:
        """``integral of theta*x / (1 - theta*x)`` at ``theta != 0``.

        Positive measures also take a complex ``theta`` off the real axis
        (the Psi transform).
        """
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class AtomicMeasure(Measure):
    """Finitely many finite atoms with positive weights summing to one."""

    atoms: tuple[float, ...]
    weights: tuple[float, ...]

    lower_edge_singular = True  # the lowest point is an atom

    def __post_init__(self):
        atoms = tuple(float(a) for a in self.atoms)
        weights = tuple(float(w) for w in self.weights)
        if len(atoms) != len(weights) or not atoms:
            raise DomainError("atoms and weights must be nonempty parallel lists")
        if not all(math.isfinite(a) for a in atoms):
            raise DomainError("atoms must be finite")
        if len(set(atoms)) != len(atoms):
            raise DomainError("atoms must be distinct")
        if not all(w > 0.0 for w in weights):  # written to reject nan
            raise DomainError("weights must be strictly positive")
        if not abs(sum(weights) - 1.0) <= 1e-12:
            raise DomainError(f"weights sum to {sum(weights)!r}, expected 1")
        order = np.argsort(atoms)
        object.__setattr__(self, "atoms", tuple(atoms[i] for i in order))
        object.__setattr__(self, "weights", tuple(weights[i] for i in order))

    @property
    def is_positive(self) -> bool:
        return self.atoms[0] >= 0.0

    @property
    def zero_mass(self) -> float:
        for a, w in zip(self.atoms, self.weights):
            if a == 0.0:
                return w
        return 0.0

    def support(self) -> tuple[float, float]:
        return self.atoms[0], self.atoms[-1]

    def moments(self, order: int) -> "MomentSeq":
        a = np.asarray(self.atoms)
        w = np.asarray(self.weights)
        return MomentSeq(tuple(float(np.dot(w, a**n)) for n in range(1, order + 1)))

    def integrate(self, f) -> float | complex:
        return sum(w * f(a) for a, w in zip(self.atoms, self.weights))

    def cauchy(self, z: complex) -> complex:
        if any(z == complex(a) for a in self.atoms):
            raise SingularityError(f"z = {z} is an atom of the measure")
        return sum(w / (z - a) for a, w in zip(self.atoms, self.weights))

    def psi_integral(self, theta: float | complex) -> float | complex:
        return sum(w * theta * a / (1.0 - theta * a) for a, w in zip(self.atoms, self.weights))

    def describe(self) -> str:
        pairs = ";".join(f"{a:g}:{w:g}" for a, w in zip(self.atoms, self.weights))
        return f"atomic({pairs})"


class DensityMeasure(Measure):
    """Base for the named absolutely continuous laws."""

    @property
    def zero_mass(self) -> float:
        return 0.0

    def density(self, x: float) -> float:
        raise NotImplementedError

    def pieces(self) -> list[QuadPiece]:
        raise NotImplementedError

    def free_cumulants(self, order: int) -> tuple[float, ...]:
        """Exact free cumulants ``k1..k_order``; the moment source."""
        raise NotImplementedError

    def moments(self, order: int) -> "MomentSeq":
        return MomentSeq(_density_moments(self, order))

    def integrate(self, f) -> float | complex:
        lo, hi = self.support()
        probe = f(0.5 * (lo + hi))
        if isinstance(probe, complex):
            re = integrate_pieces(self, lambda p, u, x: p.weight(u) * f(x).real)
            im = integrate_pieces(self, lambda p, u, x: p.weight(u) * f(x).imag)
            return complex(re, im)
        return integrate_pieces(self, lambda p, u, x: p.weight(u) * f(x))

    def cauchy(self, z: complex) -> complex:
        lo, hi = self.support()
        if z.imag == 0.0 and lo < z.real < hi:
            raise SingularityError(f"z = {z.real:g} lies inside the support ({lo:g}, {hi:g})")
        value = _cauchy_density(self, z)
        return value.real if z.imag == 0.0 else value

    def psi_integral(self, theta: float | complex) -> float | complex:
        if isinstance(theta, complex):
            # zx/(1-zx) = -1 + (1/z)/(1/z - x) pointwise; reuse the stable G kernel
            return _cauchy_density(self, 1.0 / theta) / theta - 1.0
        hint = _edge_points_hint(lambda p: 1.0 / theta - p.anchor)

        def g(p, u, x):
            # theta*x/(1-theta*x) = x / (1/theta - x), stable at edges
            return p.weight(u) * x / ((1.0 / theta - p.anchor) - p.sign * u * u)

        return integrate_pieces(self, g, hint)


@dataclass(frozen=True)
class Semicircle(DensityMeasure):
    """Semicircle law with the given center and variance (radius ``2*sqrt(v)``)."""

    center: float = 0.0
    variance: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.center):
            raise DomainError("semicircle center must be finite")
        if not 0.0 < self.variance < math.inf:
            raise DomainError("semicircle variance must be positive and finite")

    @property
    def radius(self) -> float:
        return 2.0 * math.sqrt(self.variance)

    @property
    def is_positive(self) -> bool:
        return self.center - self.radius >= 0.0

    def support(self) -> tuple[float, float]:
        return self.center - self.radius, self.center + self.radius

    def density(self, x: float) -> float:
        r = self.radius
        d = r * r - (x - self.center) ** 2
        return math.sqrt(d) / (2.0 * math.pi * self.variance) if d > 0.0 else 0.0

    def pieces(self) -> list[QuadPiece]:
        r, v = self.radius, self.variance
        umax = math.sqrt(r)

        def w(u):
            return u * u * np.sqrt(2.0 * r - u * u) / (math.pi * v)

        lo, hi = self.support()
        return [QuadPiece(lo, +1, umax, w), QuadPiece(hi, -1, umax, w)]

    def free_cumulants(self, order: int) -> tuple[float, ...]:
        out = [0.0] * order
        out[0] = self.center
        if order >= 2:
            out[1] = self.variance
        return tuple(out)

    def describe(self) -> str:
        return f"semicircle(center={self.center:g},variance={self.variance:g})"


@dataclass(frozen=True)
class MarchenkoPasturCentered(DensityMeasure):
    """Centered Marchenko-Pastur law with parameter ``a``, ``0 < a**2 <= 1``.

    Density ``sqrt(4 - (x-a)**2) / (2*pi*(1+a*x))`` on ``(a-2, a+2)``; mean 0,
    unit variance.  At ``|a| = 1`` one support edge carries an integrable
    inverse-square-root singularity.
    """

    a: float

    def __post_init__(self):
        if not 0.0 < self.a * self.a <= 1.0:
            raise DomainError("marchenko_pastur_centered requires 0 < a**2 <= 1")

    @property
    def lower_edge_singular(self) -> bool:
        return self.a == 1.0

    @property
    def is_positive(self) -> bool:
        return False  # support (a-2, a+2) always reaches below 0

    def support(self) -> tuple[float, float]:
        return self.a - 2.0, self.a + 2.0

    def density(self, x: float) -> float:
        lo, hi = self.support()
        if not lo < x < hi:
            return 0.0
        return math.sqrt((x - lo) * (hi - x)) / (2.0 * math.pi * (1.0 + self.a * x))

    def pieces(self) -> list[QuadPiece]:
        a = self.a
        lo, hi = self.support()
        # 1 + a*x at x = lo + u**2 is (1-a)**2 + a*u**2; at x = hi - u**2 it is
        # (1+a)**2 - a*u**2.  Both forms are exact where the naive expression
        # cancels catastrophically (|a| = 1 near the singular edge).

        def w_lo(u):
            return u * u * np.sqrt(4.0 - u * u) / (math.pi * ((1.0 - a) ** 2 + a * u * u))

        def w_hi(u):
            return u * u * np.sqrt(4.0 - u * u) / (math.pi * ((1.0 + a) ** 2 - a * u * u))

        return [QuadPiece(lo, +1, _SQRT2, w_lo), QuadPiece(hi, -1, _SQRT2, w_hi)]

    def free_cumulants(self, order: int) -> tuple[float, ...]:
        # centered free Poisson type: k1 = 0, k2 = 1, k_n = a**(n-2)
        out = [0.0] * order
        for n in range(2, order + 1):
            out[n - 1] = self.a ** (n - 2)
        return tuple(out)

    def describe(self) -> str:
        return f"marchenko_pastur_centered(a={self.a:g})"


@dataclass(frozen=True)
class FreePoisson(DensityMeasure):
    """Free Poisson law: density ``sqrt((4-x)/x) / (2*pi)`` on ``(0, 4)``."""

    lower_edge_singular = True  # inverse-square-root edge at 0

    @property
    def is_positive(self) -> bool:
        return True

    def support(self) -> tuple[float, float]:
        return 0.0, 4.0

    def density(self, x: float) -> float:
        if not 0.0 < x < 4.0:
            return 0.0
        return math.sqrt((4.0 - x) / x) / (2.0 * math.pi)

    def pieces(self) -> list[QuadPiece]:
        def w_lo(u):
            return np.sqrt(4.0 - u * u) / math.pi

        def w_hi(u):
            return u * u / (math.pi * np.sqrt(4.0 - u * u))

        return [QuadPiece(0.0, +1, _SQRT2, w_lo), QuadPiece(4.0, -1, _SQRT2, w_hi)]

    def free_cumulants(self, order: int) -> tuple[float, ...]:
        return (1.0,) * order

    def describe(self) -> str:
        return "free_poisson"


@dataclass(frozen=True)
class MomentSeq(Measure):
    """Raw moments ``m1..mK`` of a probability measure (``m0 = 1`` implicit).

    As a measure it is known only through these moments: G and Psi are
    truncated sums trusted outside :func:`laurent_trust_radius`, and
    positivity cannot be certified.  Values are kept as given, non-finite
    ones included; the routes that need finite moments check them.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not self.values:
            raise DomainError("a moment sequence needs at least m1")

    @property
    def order(self) -> int:
        return len(self.values)

    def moment(self, n: int) -> float:
        """Return ``m_n``; ``n = 0`` gives the total mass 1."""
        if n == 0:
            return 1.0
        if n > self.order:
            raise InsufficientDataError(f"moment m_{n} beyond stored order {self.order}")
        return self.values[n - 1]

    @property
    def mean(self) -> float:
        return self.values[0]

    @property
    def variance(self) -> float:
        if self.order < 2:
            raise InsufficientDataError("variance needs the first two moments")
        return self.values[1] - self.values[0] ** 2

    @property
    def is_positive(self) -> bool:
        return False  # positivity is not certifiable from a truncated list

    @property
    def zero_mass(self) -> float:
        return 0.0

    def support(self) -> tuple[float, float]:
        raise InsufficientDataError("support of a moment-sequence measure is unknown")

    def theta_range(self) -> tuple[float, float]:
        # no support bound; the truncated sums warn outside their trust region
        return -math.inf, math.inf

    def moments(self, order: int) -> "MomentSeq":
        if self.order < order:
            raise InsufficientDataError(f"measure stores {self.order} moments, {order} requested")
        return MomentSeq(self.values[:order])

    def integrate(self, f) -> float | complex:
        raise InsufficientDataError(
            "cannot integrate an arbitrary function against a moment-sequence measure"
        )

    def cauchy(self, z: complex) -> complex:
        radius = laurent_trust_radius(self)
        if abs(z) <= radius:
            warnings.warn(
                f"|z| = {abs(z):.3g} inside the Laurent trust radius "
                f"{radius:.3g}; truncated G is unreliable here",
                TruncationAccuracyWarning,
                stacklevel=3,
            )
        theta = 1.0 / z
        coeffs = (1.0,) + self.values  # m0..mK
        acc = 0.0 + 0.0j
        for c in reversed(coeffs):
            acc = acc * theta + c
        return theta * acc

    def psi_integral(self, theta: float) -> float:
        radius = laurent_trust_radius(self)
        if abs(theta) >= 1.0 / radius:
            warnings.warn(
                f"|theta| = {abs(theta):.3g} outside the trust region "
                f"(< {1.0 / radius:.3g}) of the truncated moment series",
                TruncationAccuracyWarning,
                stacklevel=4,
            )
        acc = 0.0
        for v in reversed(self.values):
            acc = acc * theta + v
        return theta * acc

    def describe(self) -> str:
        return f"moments(order={self.order})"


def support_bounds(nu: Measure) -> tuple[float, float]:
    """``b = min(0, inf supp)`` and ``B = max(0, sup supp)``."""
    lo, hi = nu.support()
    return min(0.0, lo), max(0.0, hi)


def laurent_trust_radius(m: MomentSeq) -> float:
    """Radius outside which the truncated Laurent sum of G is trusted."""
    growth = max(abs(v) ** (1.0 / n) for n, v in enumerate(m.values, start=1))
    return 2.0 * (1.0 + growth)


# ---------------------------------------------------------------------------
# quadrature


def _quad(f, lo: float, hi: float, points=None) -> float:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, estimate = integrate.quad(
            f, lo, hi, epsabs=QUAD_ABS_TOL * 1e-2, epsrel=1e-12, limit=400, points=points
        )
    if estimate > max(QUAD_ABS_TOL, 1e-9 * abs(value)):
        raise AccuracyError(
            f"quadrature error estimate {estimate:.3e} exceeds tolerance", best_estimate=value
        )
    return value


def integrate_pieces(nu: DensityMeasure, g, points_hint=None) -> float:
    """Integrate ``g(u, x)`` over the density pieces of ``nu``.

    ``g`` receives the substitution variable ``u`` and the original
    coordinate ``x = anchor + sign*u**2``; it must already include the piece
    weight.  This is the edge-stable entry point of every density method.
    """
    total = 0.0
    for piece in nu.pieces():
        anchor, sign, umax = piece.anchor, piece.sign, piece.umax
        pts = None
        if points_hint is not None:
            pts = [p for p in points_hint(piece) if 0.0 < p < umax] or None
        total += _quad(lambda u: g(piece, u, anchor + sign * u * u), 0.0, umax, points=pts)
    return total


def _edge_points_hint(dz_of_piece):
    def hint(piece):
        dz = dz_of_piece(piece)
        if 0.0 < abs(dz) < 0.5:
            s = math.sqrt(abs(dz))
            return (s, 10.0 * s, 100.0 * s)
        return ()

    return hint


def _cauchy_density(nu: DensityMeasure, z: complex) -> complex:
    # x = anchor + sign*u**2, so z - x = (z - anchor) - sign*u**2 without
    # cancellation even when z sits on a support edge.
    if z.imag == 0.0:
        zr = z.real
        hint = _edge_points_hint(lambda p: zr - p.anchor)
        val = integrate_pieces(
            nu, lambda p, u, x: p.weight(u) / ((zr - p.anchor) - p.sign * u * u), hint
        )
        return complex(val, 0.0)
    re = integrate_pieces(
        nu, lambda p, u, x: p.weight(u) * ((z - p.anchor) - p.sign * u * u).real
        / abs((z - p.anchor) - p.sign * u * u) ** 2
    )
    im = integrate_pieces(
        nu, lambda p, u, x: -p.weight(u) * ((z - p.anchor) - p.sign * u * u).imag
        / abs((z - p.anchor) - p.sign * u * u) ** 2
    )
    return complex(re, im)


def quadrature_integrate(nu: Measure, f) -> float | complex:
    """Integrate ``f`` against ``nu``.

    Exact weighted sums for atomic measures; adaptive edge-regularized
    quadrature for densities.  Absolute tolerance ``1e-10`` for order-unity
    results, ~1e-12 relative accuracy for large ones.  Complex-valued
    integrands are handled componentwise.  Raises
    :class:`InsufficientDataError` for moment-sequence measures and
    :class:`AccuracyError` when the quadrature cannot reach its tolerance.
    """
    return nu.integrate(f)


# ---------------------------------------------------------------------------
# moments


@lru_cache(maxsize=256)
def _density_moments(nu: DensityMeasure, order: int) -> tuple[float, ...]:
    # The named densities have exact closed-form free cumulants, so their
    # moments come from the cumulant dictionary; quadrature of x**n is the
    # independent cross-check exercised by the test suite.
    from .conv import FreeCumulants, free_cumulants_to_moments

    return free_cumulants_to_moments(FreeCumulants(nu.free_cumulants(order))).values


def moments(nu: Measure, order: int) -> MomentSeq:
    """First ``order`` raw moments of ``nu``.

    Exact power sums for atomic measures, the free-cumulant dictionary for
    the named densities.  A moment sequence must already store at least
    ``order`` moments.
    """
    if order < 1:
        raise DomainError("moment order must be at least 1")
    return nu.moments(order)


def mean(nu: Measure) -> float:
    return moments(nu, 1).values[0]


def variance_of(nu: Measure) -> float:
    return moments(nu, 2).variance


# ---------------------------------------------------------------------------
# measure-spec parsing
#
# The parser checks the document's structure and that every number is a
# finite number; the constructors check ranges, and their DomainError is
# reported as a MeasureSpecError at the enclosing object.


def _require(cond: bool, message: str, location: str):
    if not cond:
        raise MeasureSpecError(message, location)


def _number(v, location: str) -> float:
    # integers arrive as floats (parse_int=float): anything else is not a number
    _require(isinstance(v, float) and math.isfinite(v), "expected a finite number", location)
    return v


def _number_list(obj, location: str) -> tuple[float, ...]:
    _require(isinstance(obj, list) and obj, "expected a nonempty array of numbers", location)
    return tuple(_number(v, f"{location}[{i}]") for i, v in enumerate(obj))


def _construct(cls, location: str, *args) -> Measure:
    try:
        return cls(*args)
    except DomainError as exc:
        raise MeasureSpecError(str(exc), location) from exc


def parse_measure_spec(text: str) -> Measure:
    """Parse a measure-spec document (JSON object notation, UTF-8).

    Top-level field ``type`` selects the representation:

    * ``{"type": "atomic", "atoms": [...], "weights": [...]}``
    * ``{"type": "named", "name": "...", "params": {...}}``
    * ``{"type": "moments", "values": [...]}``

    Every number must be finite (``NaN`` and ``Infinity`` are rejected).
    Malformed documents raise :class:`MeasureSpecError` annotated with the
    position of the offending field.
    """
    try:
        doc = json.loads(text, parse_int=float)
    except json.JSONDecodeError as exc:
        raise MeasureSpecError(exc.msg, f"line {exc.lineno}, column {exc.colno}") from exc

    _require(isinstance(doc, dict), "top level must be an object", "$")
    kind = doc.get("type")
    _require(kind in ("atomic", "named", "moments"),
             f"unknown type {kind!r}; expected atomic, named or moments", "$.type")

    if kind == "atomic":
        atoms = _number_list(doc.get("atoms"), "$.atoms")
        weights = _number_list(doc.get("weights"), "$.weights")
        return _construct(AtomicMeasure, "$", atoms, weights)

    if kind == "moments":
        return MomentSeq(_number_list(doc.get("values"), "$.values"))

    name = doc.get("name")
    _require(name in ("semicircle", "marchenko_pastur_centered", "free_poisson"),
             f"unknown density name {name!r}", "$.name")
    params = doc.get("params", {})
    _require(isinstance(params, dict), "params must be an object", "$.params")
    if name == "free_poisson":
        _require(not params, "free_poisson takes no parameters", "$.params")
        return FreePoisson()
    if name == "semicircle":
        extra = set(params) - {"center", "variance"}
        _require(not extra, f"unknown parameters {sorted(extra)}", "$.params")
        center = _number(params.get("center", 0.0), "$.params.center")
        var = _number(params.get("variance", 1.0), "$.params.variance")
        return _construct(Semicircle, "$.params", center, var)
    extra = set(params) - {"a"}
    _require(not extra, f"unknown parameters {sorted(extra)}", "$.params")
    _require("a" in params, "marchenko_pastur_centered requires parameter a", "$.params.a")
    return _construct(MarchenkoPasturCentered, "$.params", _number(params["a"], "$.params.a"))
