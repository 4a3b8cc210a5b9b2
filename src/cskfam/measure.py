"""Probability-measure representations, their moments, and ingestion.

Every generating measure is a :class:`Measure` and implements one protocol:
``moments``, ``mean`` (a named density's is its ``center``),
``free_cumulants``, ``s_series``, ``cauchy`` (G), ``psi_integral``,
``support``, ``theta_range``, ``jacobi`` (the recurrence coefficients of
the orthogonal polynomials, None unless known: closed forms for the named
densities, Lanczos once per atomic law; the additive powers of :mod:`.conv`
map them, and :mod:`.csk` reads its mean-map roots and mean-domain ends off
them) and the flags ``lower_edge_singular`` and ``upper_edge_singular``,
which say where G diverges at an end of the support (the mean-domain
formula needs it there).  The base class gives ``is_positive`` (read off
the support) and ``zero_mass`` (0 unless an atom sits at 0).  Atomic
measures answer with exact weighted sums.  The named densities (semicircle,
centered Marchenko-Pastur, free Poisson) answer G and Psi in closed form
from their Jacobi parameters, and take their moments and their S series
from them too.  One class, :class:`DensityMeasure`, is the image ``center +
sqrt(variance)*y`` of the centered Marchenko-Pastur law ``y`` with
parameter ``a``; the three subclass it and set only those parameters and
their spec name (the semicircle at ``a = 0``, free Poisson at ``a = 1``
moved to mean 1).  A :class:`MomentSeq` is known only through ``m1..mK``:
its G is its Psi power sum, both truncated and warning outside their trust
radius, and it raises :class:`InsufficientDataError` for what a moment list
does not fix (the support).  It is also the value type of the moment-level
calculus.  The numeric methods are called only through ``moments`` and
``mean`` here, through the transforms of :mod:`.transforms`
(``cauchy_transform``, ``psi_integral``, ``psi_transform``) and through the
convolutions of :mod:`.conv` (``free_cumulants``, ``s_series``: float64
arrays); ``theta_range`` is read by :mod:`.transforms` and :mod:`.csk`, and
``jacobi`` by :mod:`.csk` and :mod:`.conv`.

A named density's Jacobi parameters are ``(alpha_0, alpha_1; omega,
omega)``, constant past the first step, so its G is one step of the
continued fraction over the Cauchy transform ``G'(z) = 2/((z - alpha_1) +
S)`` of the constant tail, ``S = sqrt(z - lo)*sqrt(z - hi)`` on the branch
``S ~ z - alpha_1``, with ``[lo, hi]`` the support.  The radicand is kept
factored, each end with its rounding error, so nothing cancels next to an
edge, and G and Psi come out in forms that do not cancel there, off the
real axis or at small ``theta`` (see :meth:`DensityMeasure.cauchy` and
:meth:`DensityMeasure.psi_integral`).  ``density(x)`` gives the density
pointwise.  Everything here is numpy and the standard library.
"""

from __future__ import annotations

import cmath
import json
import math
import warnings
from dataclasses import MISSING, dataclass, fields
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    DomainError,
    InsufficientDataError,
    MeasureSpecError,
    SingularityError,
    TruncationAccuracyWarning,
    require_order,
)
from .series import jacobi_moments

class Measure:
    """Base class of the measure representations: the measure protocol, with
    defaults for ``is_positive`` (read off the support) and ``zero_mass``."""

    #: True when the Cauchy transform is infinite at the lowest support
    #: point: an atom there, or an inverse-square-root density edge.
    lower_edge_singular: bool = False
    #: The same at the highest support point.
    upper_edge_singular: bool = False
    #: The mass of the single point 0: none, unless an atom sits there.
    zero_mass: float = 0.0

    @property
    def is_positive(self) -> bool:
        """True when the support is certified to lie in ``[0, inf)``: its
        lowest point, from :meth:`support`, is not negative."""
        return self.support()[0] >= 0.0

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

    def mean(self) -> float:
        """The first moment, here from :meth:`moments`."""
        return self.moments(1).values[0]

    def free_cumulants(self, order: int) -> np.ndarray:
        """Free cumulants ``k1..k_order``, the coefficients of
        ``R~(z) = sum_n k_n z**n``, an array.  Here from :meth:`moments` through the
        dictionary :func:`.conv.moments_to_free_cumulants` (one reversion);
        the named densities know theirs exactly."""
        from .conv import moments_to_free_cumulants

        return moments_to_free_cumulants(self.moments(order))

    def s_series(self, order: int) -> np.ndarray:
        """The S-transform series at order ``order - 1``, all that ``order``
        moments fix.  Here from :meth:`moments` through
        :func:`.transforms.s_series` (one reversion); the named densities
        solve a quadratic from their Jacobi parameters instead."""
        from .transforms import s_series

        return s_series(self.moments(order))

    def cauchy(self, z: complex) -> complex:
        """``G(z) = integral of 1/(z - x)``."""
        raise NotImplementedError

    def psi_integral(self, theta: float) -> float:
        """``integral of theta*x / (1 - theta*x)`` at ``theta != 0``.

        Positive measures also take a complex ``theta`` off the real axis
        (the Psi transform).  A real ``theta`` whose pole ``1/theta`` meets
        the support (an atom, or the closed support of a density) raises
        SingularityError.
        """
        raise NotImplementedError

    def jacobi(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The Jacobi parameters ``(alpha, omega)`` of the measure, or None
        where they are not known, as here.

        ``alpha = (alpha_0, alpha_1, ...)`` and ``omega = (omega_1, omega_2,
        ...)`` are the coefficients of the three-term recurrence ``x P_k =
        P_(k+1) + alpha_k P_k + omega_k P_(k-1)`` of the monic orthogonal
        polynomials: nonempty float64 arrays whose last entry repeats
        forever.  A law with ``n`` atoms ends in ``omega_n = 0``, from the
        Lanczos algorithm (Gautschi, *Orthogonal Polynomials: Computation
        and Approximation*, 2004); a pair of length at most 2 is a free
        Meixner law.  :func:`.series.jacobi_moments` turns them into
        moments, and the additive powers of :mod:`.conv` map them without
        any reversion.
        """
        return None

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class AtomicMeasure(Measure):
    """Finitely many finite atoms with positive weights summing to one."""

    atoms: tuple[float, ...]
    weights: tuple[float, ...]

    lower_edge_singular = True  # the lowest point is an atom
    upper_edge_singular = True  # so is the highest

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
        with np.errstate(all="ignore"):  # an overflow leaves inf, which callers refuse
            return MomentSeq(tuple(float(np.dot(w, a**n)) for n in range(1, order + 1)))

    def jacobi(self) -> tuple[np.ndarray, np.ndarray]:
        return self._lanczos

    @cached_property
    def _lanczos(self) -> tuple[np.ndarray, np.ndarray]:
        """Lanczos on ``diag(atoms)`` from the unit vector ``sqrt(weights)``,
        with full reorthogonalisation, twice per step, once per law: ``n``
        atoms give ``alpha_0..alpha_(n-1)`` and ``omega_1..omega_(n-1)``,
        then ``omega_n = 0``."""
        x = np.asarray(self.atoms)
        n = x.size
        basis = np.zeros((n, n))
        basis[0] = np.sqrt(self.weights) / math.sqrt(math.fsum(self.weights))
        alpha, omega = np.zeros(n), np.zeros(n)
        for k in range(n):
            v = x * basis[k]
            alpha[k] = basis[k] @ v
            if k + 1 < n:
                for _ in range(2):
                    v -= basis[:k + 1].T @ (basis[:k + 1] @ v)
                omega[k] = v @ v
                basis[k + 1] = v / math.sqrt(omega[k])
        alpha.flags.writeable = omega.flags.writeable = False  # shared by every caller
        return alpha, omega

    def cauchy(self, z: complex) -> complex:
        if any(z == complex(a) for a in self.atoms):
            raise SingularityError(f"z = {z} is an atom of the measure")
        return sum(w / (z - a) for a, w in zip(self.atoms, self.weights))

    def psi_integral(self, theta: float | complex) -> float | complex:
        if any(theta * a == 1.0 for a in self.atoms):
            raise SingularityError(f"the pole 1/theta = {1.0 / theta:g} is an atom of the measure")
        return sum(w * theta * a / (1.0 - theta * a) for a, w in zip(self.atoms, self.weights))

    def describe(self) -> str:
        pairs = ";".join(f"{a:g}:{w:g}" for a, w in zip(self.atoms, self.weights))
        return f"atomic({pairs})"


class DensityMeasure(Measure):
    """The named absolutely continuous laws: the image ``center + s*y``,
    ``s = sqrt(variance)``, of the centered Marchenko-Pastur law ``y`` with
    parameter ``a``, the free Meixner laws with ``b = 0``.  A subclass fixes
    ``a``, ``center`` and ``variance``, each as a dataclass field or as a
    class attribute, and names its spec ``name``; the fields are its spec
    parameters."""

    @property
    def lower_edge_singular(self) -> bool:
        return self.a == 1.0

    @property
    def upper_edge_singular(self) -> bool:
        return self.a == -1.0

    @cached_property
    def _support(self) -> tuple[float, float]:
        s = math.sqrt(self.variance)
        return self.center + s * (self.a - 2.0), self.center + s * (self.a + 2.0)

    def support(self) -> tuple[float, float]:
        return self._support

    def density(self, x: float) -> float:
        lo, hi = self.support()
        if not lo < x < hi:
            return 0.0
        y = (x - self.center) / math.sqrt(self.variance)
        return math.sqrt((x - lo) * (hi - x)) / (2.0 * math.pi * self.variance * (1.0 + self.a * y))

    def free_cumulants(self, order: int) -> np.ndarray:
        """Exact free cumulants ``k1..k_order``, which the free convolutions
        add."""
        # k1 = center, k_n = variance * (s*a)**(n-2); Python's float power,
        # since numpy's array power differs in the last bit
        scaled_a = math.sqrt(self.variance) * self.a
        return np.array([self.center, *(self.variance * scaled_a**k for k in range(order - 1))],
                        dtype=float)

    def s_series(self, order: int) -> np.ndarray:
        """S with no reversion: ``w*S(w)`` inverts ``R~``, a quadratic for a
        free Meixner law (Saitoh & Yoshida 2001), so with Jacobi parameters
        ``(a0, a1; w1, w2)``, ``beta = a1 - a0`` and ``b = (w2 - w1)/w1``:
        ``1 - a0*S = w*((w1 - beta*a0 + b*a0**2)*S**2 + (beta - 2*b*a0)*S + b)``.
        Free Poisson's S is ``(-1)**k`` exactly, a semicircle's within 7e-15 relative."""
        (a0, a1), (w1, w2) = self.jacobi()
        if a0 == 0.0:
            raise DomainError("the S series needs a nonzero first moment")
        beta, b = a1 - a0, (w2 - w1) / w1
        big_a, big_b = w1 - beta * a0 + b * a0 * a0, beta - 2.0 * b * a0
        s = np.full(order, 1.0 / a0)
        for k in range(1, order):
            s[k] = -(big_a * np.dot(s[:k], s[k - 1::-1]) + big_b * s[k - 1] + b * (k == 1)) / a0
        return s

    def moments(self, order: int) -> "MomentSeq":
        return MomentSeq(_density_moments(self, order))

    def mean(self) -> float:
        return float(self.center)  # alpha_0: bitwise the order-1 recurrence

    @cached_property
    def _closed_form(self) -> tuple[float, float, tuple[float, float], tuple[float, float]]:
        """``c = alpha_1 - 2*alpha_0``, ``k = omega - alpha_0*(alpha_1 -
        alpha_0)`` and each end ``alpha_1 -/+ 2*sqrt(omega)`` of the support
        as the float of :meth:`support` and its rest to about 32 digits: the
        rounding error of the sum (Knuth's two-sum) and twice the Newton
        correction ``(omega - s**2)/(2*s)`` of ``s = sqrt(omega)``, from an
        exact square.  A rest is 0 where the end is exact (free Poisson,
        Marchenko-Pastur).  Read once per measure."""
        (a0, a1), (w, _) = (x.tolist() for x in self.jacobi())
        s = math.sqrt(w)
        p, err = two_product(s, s)
        rest = ((w - p) - err) / s

        def end(e, step):
            gap = e - a1
            return e, ((a1 - (e - gap)) + (step - gap)) + (rest if step > 0.0 else -rest)

        lo, hi = self.support()
        return a1 - 2.0 * a0, w - a0 * (a1 - a0), end(lo, -2.0 * s), end(hi, 2.0 * s)

    def cauchy(self, z: complex) -> float | complex:
        """``G = 1/((z - alpha_0) - omega*G')``, which is ``2/((z + c) + S)``
        where ``omega_1 = omega_2``, with ``c`` of :attr:`_closed_form` added
        to ``z`` before ``S``; ``z - lo`` and ``z - hi`` read the rests of the
        ends.  A real ``z`` is answered as a float, and raises
        SingularityError inside the support and at a singular edge, where the
        denominator is 0."""
        c, _, (lo, lo_rest), (hi, hi_rest) = self._closed_form
        if z.imag != 0.0:
            return 2.0 / ((z + c) + cmath.sqrt((z - lo) - lo_rest) * cmath.sqrt((z - hi) - hi_rest))
        z = z.real
        if lo < z < hi:
            raise SingularityError(f"z = {z:g} lies inside the support ({lo:g}, {hi:g})")
        den = (z + c) + math.copysign(_root_of_product((z - lo) - lo_rest, (z - hi) - hi_rest),
                                      z - hi)
        if den == 0.0:
            raise SingularityError(f"G diverges at the support edge z = {z:g}")
        return 2.0 / den

    def psi_integral(self, theta: float | complex) -> float | complex:
        """``Psi = r*G(r) - 1`` at ``r = 1/theta``, in ``theta`` with no
        rounded ``1/theta``: with ``T = theta*S(r) = sqrt(1 -
        lo*theta)*sqrt(1 - hi*theta)``, ``u = 1 - c*theta`` and ``c``, ``k``
        of :attr:`_closed_form`, ``Psi = (u - T)/(1 + c*theta + T)``, whose
        numerator is ``4*theta*(alpha_0 + k*theta)/(u + T)``; of ``u - T`` and
        ``u + T`` the larger is kept, so that neither cancels (the first does
        at small ``|theta|``).  ``1 - lo*theta`` and ``1 - hi*theta`` read the
        rests of the ends and an exact product.  The principal roots give
        the branch of ``S`` off the real axis.  A real ``theta`` whose pole
        ``1/theta`` lies in the closed support, where ``(1 - lo*theta)*(1 -
        hi*theta) <= 0``, raises SingularityError; where both factors are
        negative (the pole beyond the support on the far side of 0) ``T`` is
        negative."""
        c, k, *ends = self._closed_form
        (lo, lo_rest), (hi, hi_rest) = ends
        if theta.imag != 0.0:
            t = cmath.sqrt((1.0 - lo * theta) - lo_rest * theta) * cmath.sqrt(
                (1.0 - hi * theta) - hi_rest * theta)
        else:
            theta = float(theta.real)
            f_lo, f_hi = (_one_minus_product(e, theta) - rest * theta for e, rest in ends)
            if not f_lo * f_hi > 0.0:
                raise SingularityError(
                    f"the pole 1/theta = {1.0 / theta:g} lies in the support [{lo:g}, {hi:g}]")
            t = math.copysign(_root_of_product(f_lo, f_hi), f_lo)
        u = 1.0 - c * theta
        den = (1.0 + c * theta) + t
        if abs(u - t) > abs(u + t):  # u + t cancels, as at small |theta| u - t does
            return (u - t) / den
        return 4.0 * theta * (self.center + k * theta) / (den * (u + t))

    def jacobi(self) -> tuple[np.ndarray, np.ndarray]:
        """``alpha = (center, center + sqrt(variance)*a)`` and ``omega =
        (variance, variance)``: the free Meixner law with ``b = 0``, whose
        recursion is constant past the first step (Saitoh & Yoshida 2001)."""
        return (np.array((self.center, self.center + math.sqrt(self.variance) * self.a)),
                np.array((self.variance, self.variance)))

    def describe(self) -> str:
        params = ",".join(f"{f.name}={getattr(self, f.name):g}" for f in fields(self))
        return f"{self.name}({params})" if params else self.name


@dataclass(frozen=True)
class Semicircle(DensityMeasure):
    """Semicircle law with the given center and variance (radius ``2*sqrt(v)``)."""

    center: float = 0.0
    variance: float = 1.0
    a = 0.0
    name = "semicircle"

    def __post_init__(self):
        if not math.isfinite(self.center):
            raise DomainError("semicircle center must be finite")
        if not 0.0 < self.variance < math.inf:
            raise DomainError("semicircle variance must be positive and finite")


@dataclass(frozen=True)
class MarchenkoPasturCentered(DensityMeasure):
    """Centered Marchenko-Pastur law with parameter ``a``, ``0 < a**2 <= 1``.

    Density ``sqrt(4 - (x-a)**2) / (2*pi*(1+a*x))`` on ``(a-2, a+2)``; mean 0,
    unit variance.  At ``|a| = 1`` one support edge carries an integrable
    inverse-square-root singularity.
    """

    a: float
    center = 0.0
    variance = 1.0
    name = "marchenko_pastur_centered"

    def __post_init__(self):
        if not 0.0 < self.a * self.a <= 1.0:
            raise DomainError("marchenko_pastur_centered requires 0 < a**2 <= 1")


@dataclass(frozen=True)
class FreePoisson(DensityMeasure):
    """Free Poisson law: density ``sqrt((4-x)/x) / (2*pi)`` on ``(0, 4)``, the
    Marchenko-Pastur law at ``a = 1`` moved to mean 1."""

    a = center = variance = 1.0
    name = "free_poisson"


@dataclass(frozen=True)
class MomentSeq(Measure):
    """Raw moments ``m1..mK`` of a probability measure (``m0 = 1`` implicit).

    As a measure it is known only through these moments: Psi is their
    truncated power sum, trusted outside :func:`laurent_trust_radius`, and G
    is the same sum, ``G(z) = theta*(1 + Psi(theta))`` at ``theta = 1/z``.
    Positivity cannot be certified, so ``is_positive`` is False where the
    base would read a support.  Values are kept as given, non-finite ones
    included; the routes that need finite moments check them.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(map(float, self.values)))
        if not self.values:
            raise DomainError("a moment sequence needs at least m1")

    @property
    def order(self) -> int:
        return len(self.values)

    @property
    def variance(self) -> float:
        if self.order < 2:
            raise InsufficientDataError("variance needs the first two moments")
        return self.values[1] - self.values[0] ** 2

    @property
    def is_positive(self) -> bool:
        return False  # positivity is not certifiable from a truncated list

    def support(self) -> tuple[float, float]:
        raise InsufficientDataError("support of a moment-sequence measure is unknown")

    def theta_range(self) -> tuple[float, float]:
        # no support bound; the truncated sums warn outside their trust region
        return -math.inf, math.inf

    def moments(self, order: int) -> "MomentSeq":
        if self.order < order:
            raise InsufficientDataError(f"measure stores {self.order} moments, {order} requested")
        return MomentSeq(self.values[:order])

    def cauchy(self, z: complex) -> complex:
        if z == 0:
            raise SingularityError("z = 0 is the pole of the truncated Laurent series of G")
        theta = 1.0 / z  # Psi's warning |theta| >= 1/radius is |z| <= radius, up to rounding
        return theta * (1.0 + self.psi_integral(theta))

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


def two_product(x: float, y: float) -> tuple[float, float]:
    """``x*y`` as ``p + err`` exactly (Dekker 1971), from Veltkamp's split of
    each factor in 26-bit halves, which overflows past 1e150: ``err`` is 0
    there."""
    p = x * y
    if not (abs(x) < 1e150 and abs(y) < 1e150):
        return p, 0.0

    def split(v):
        c = 134217729.0 * v  # 2**27 + 1
        return c - (c - v), v - (c - (c - v))

    (x1, x2), (y1, y2) = split(x), split(y)
    return p, ((x1 * y1 - p) + x1 * y2 + x2 * y1) + x2 * y2


def _root_of_product(x: float, y: float) -> float:
    """``sqrt(|x*y|)`` rounded twice, or from two roots where the product
    overflows."""
    square = abs(x * y)
    return math.sqrt(square) if square < math.inf else math.sqrt(abs(x)) * math.sqrt(abs(y))


def _one_minus_product(x: float, y: float) -> float:
    """``1 - x*y`` rounded once where it cancels (``x*y`` near 1)."""
    p, err = two_product(x, y)
    return (1.0 - p) - err


def support_bounds(nu: Measure) -> tuple[float, float]:
    """``b = min(0, inf supp)`` and ``B = max(0, sup supp)``."""
    lo, hi = nu.support()
    return min(0.0, lo), max(0.0, hi)


def laurent_trust_radius(m: MomentSeq) -> float:
    """Radius outside which the truncated Laurent sum of G is trusted."""
    growth = max(abs(v) ** (1.0 / n) for n, v in enumerate(m.values, start=1))
    return 2.0 * (1.0 + growth)


# ---------------------------------------------------------------------------
# moments


@lru_cache(maxsize=256)
def _density_moments(nu: DensityMeasure, order: int) -> tuple[float, ...]:
    # The named densities have exact closed-form Jacobi parameters, so their
    # moments come from the three-term recurrence; the tests check them
    # against mpmath quadrature of the density.
    return tuple(jacobi_moments(*nu.jacobi(), order).tolist())


def moments(nu: Measure, order: int) -> MomentSeq:
    """First ``order`` raw moments of ``nu``.

    Exact power sums for atomic measures, the three-term recurrence on
    their Jacobi parameters for the named densities.  A moment sequence
    must already store at least ``order`` moments.
    """
    require_order(order)
    return nu.moments(order)


def mean(nu: Measure) -> float:
    return nu.mean()


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


#: The named densities by spec name; each reads its parameters from its fields.
_NAMED_LAWS = {cls.name: cls for cls in (Semicircle, MarchenkoPasturCentered, FreePoisson)}


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
    cls = _NAMED_LAWS.get(name) if isinstance(name, str) else None
    _require(cls is not None, f"unknown density name {name!r}", "$.name")
    params = doc.get("params", {})
    _require(isinstance(params, dict), "params must be an object", "$.params")
    extra = set(params) - {f.name for f in fields(cls)}
    _require(not extra, f"unknown parameters {sorted(extra)}", "$.params")
    args = []
    for f in fields(cls):
        location = f"$.params.{f.name}"
        _require(f.name in params or f.default is not MISSING,
                 f"{cls.name} requires parameter {f.name}", location)
        args.append(_number(params.get(f.name, f.default), location))
    return _construct(cls, "$.params", *args)
