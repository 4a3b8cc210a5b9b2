"""Probability-measure representations, their moments, and ingestion.

Every generating measure is a :class:`Measure` and implements one protocol:
``moments``, ``mean`` (a named density's is its ``center``),
``free_cumulants``, ``s_series``, ``integrate``, ``cauchy`` (G),
``psi_integral``, ``support``, ``theta_range``, ``jacobi`` (the
recurrence coefficients of the orthogonal polynomials, None unless known:
closed forms for the named densities, Lanczos once per atomic law; the
additive powers of :mod:`.conv` map them, and :mod:`.csk` reads its
mean-map roots and mean-domain ends off them) and the flags
``lower_edge_singular`` and ``upper_edge_singular``, which say where G
diverges at an end of the support (the mean-domain formula needs it
there).  The base class gives ``is_positive`` (read off the support) and
``zero_mass`` (0 unless an atom sits at 0).  Atomic measures answer with
exact weighted sums; the named densities (semicircle, centered
Marchenko-Pastur, free Poisson) with quadrature, and take their moments
and their S series from their Jacobi parameters.  One class,
:class:`DensityMeasure`, is the image ``center + sqrt(variance)*y`` of the
centered Marchenko-Pastur law ``y`` with parameter ``a``; the three
subclass it and set only those parameters and their spec name (the
semicircle at ``a = 0``, free Poisson at ``a = 1`` moved to mean 1), except
that free Poisson keeps its own pieces, whose weights cancel the ``u**2``
of the shared ones by hand.  A :class:`MomentSeq` is known only through
``m1..mK``: its G is its Psi power sum, both truncated and warning outside
their trust radius, and it raises :class:`InsufficientDataError` for what
a moment list does not fix (the support, integrals of arbitrary
functions).  It is also the value type of the moment-level calculus.  The
numeric methods are called only through ``moments`` and ``mean`` here,
through the transforms of :mod:`.transforms` (``cauchy_transform``,
``psi_integral``, ``psi_transform``) and through the convolutions of :mod:`.conv`
(``free_cumulants``, ``s_series``: float64 arrays); ``theta_range`` is
read by :mod:`.transforms` and :mod:`.csk`, ``jacobi`` by :mod:`.csk` and
:mod:`.conv`, and ``integrate`` only by the tests.

Densities with an inverse-square-root edge (free Poisson at 0, the
centered Marchenko-Pastur law at |a| = 1) are integrated after the
substitution ``x = edge +/- u**2``, which turns every integrand built from
the density into a smooth one.  Each density therefore exposes a list of
:class:`QuadPiece` objects; all quadrature in the package runs over those
pieces, in :func:`integrate_pieces`.  On each piece a fixed pair of composite
Gauss-Legendre rules (33 and 65 nodes per sub-interval) is tried first: the
density's weights at their nodes are computed once per measure, so a smooth
integral costs one vectorized integrand evaluation and one matrix product.
The 65-node sum is kept when it agrees with the 33-node sum within
``FIXED_RULE_TOL * max(1, |I|)``; otherwise (a pole of the integrand near the
piece, a node on a pole, a non-finite sum) the piece goes to an adaptive
fallback that bisects it and applies the same pair to each part until the
parts pass the same check.  An integrand may be real or complex: both are
summed as they are, in one pass, and the check reads the modulus ``|I|``
of the sum, so G and Psi off the real axis take the same path as on it.
Everything here is numpy and the standard library.
"""

from __future__ import annotations

import cmath
import json
import math
import warnings
from dataclasses import MISSING, dataclass, fields
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .errors import (
    AccuracyError,
    DomainError,
    InsufficientDataError,
    MeasureSpecError,
    SingularityError,
    TruncationAccuracyWarning,
    require_order,
)
from .series import jacobi_moments

#: Nodes per sub-interval of the fixed Gauss-Legendre pair (coarse, fine).
#: Both are odd, so both have a node at the middle of each sub-interval: a
#: pole there makes the sums non-finite.  Even rules would place their nodes
#: symmetrically around it and agree on a finite principal value.
FIXED_RULE_NODES = (33, 65)
#: The fine sum of the fixed pair is accepted when it lies within
#: ``FIXED_RULE_TOL * max(1, |I|)`` of the coarse one.  The difference bounds
#: the coarse rule's error, and for the analytic integrands that pass, the
#: fine rule's error is far smaller.
FIXED_RULE_TOL = 1e-13
#: Bisection levels and sub-intervals per piece allowed to the adaptive
#: fallback of :func:`integrate_pieces` before it gives up.
FALLBACK_MAX_DEPTH = 40
FALLBACK_MAX_INTERVALS = 400

@dataclass(frozen=True)
class QuadPiece:
    """One edge-regularized integration piece of a density.

    Integration runs over ``u`` in ``(0, umax)`` with ``x = anchor + sign*u**2``,
    and ``weight(u)`` already contains the density times ``|dx/du|``.  The
    weight acts elementwise, on a numpy array of nodes and on a float: it is
    evaluated once on the nodes of the fixed rule (see
    :attr:`DensityMeasure.fixed_rule`) and once on the nodes of each
    sub-interval of the adaptive fallback.  ``breaks`` are fixed break
    points in ``(0, umax)`` where the weight has a pole just off the
    interval; the fixed rule and the fallback both split the piece there.
    """

    anchor: float
    sign: int
    umax: float
    weight: Callable[[float], float]
    breaks: tuple[float, ...] = ()


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

    def integrate(self, f) -> float | complex:
        """Integral of ``f`` against the measure."""
        raise NotImplementedError

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

    def integrate(self, f) -> float | complex:
        return sum(w * f(a) for a, w in zip(self.atoms, self.weights))

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
        return self._support  # read once per theta by psi_integral

    def density(self, x: float) -> float:
        lo, hi = self.support()
        if not lo < x < hi:
            return 0.0
        y = (x - self.center) / math.sqrt(self.variance)
        return math.sqrt((x - lo) * (hi - x)) / (2.0 * math.pi * self.variance * (1.0 + self.a * y))

    @cached_property
    def pieces(self) -> tuple[QuadPiece, ...]:
        """The edge-regularized integration pieces, built once per measure."""
        a, s = self.a, math.sqrt(self.variance)
        four_s, pi_v, umax = 4.0 * s, math.pi * self.variance, math.sqrt(2.0 * s)
        lo, hi = self.support()
        # 1 + a*y at x = lo + u**2 is (1-a)**2 + a*u**2/s; at x = hi - u**2 it
        # is (1+a)**2 - a*u**2/s.  Both forms are exact where the naive
        # expression cancels catastrophically (|a| = 1 near the singular edge).
        c_lo, c_hi = (1.0 - a) ** 2, (1.0 + a) ** 2

        def w_lo(u):
            return u * u * np.sqrt(four_s - u * u) / (pi_v * (c_lo + a * u * u / s))

        def w_hi(u):
            return u * u * np.sqrt(four_s - u * u) / (pi_v * (c_hi - a * u * u / s))

        # For |a| near 1, 1 + a*y vanishes just outside the support, at
        # u = i*r with r = sqrt(s*c/|a|) on the piece whose c is small: break
        # that piece at 4r, 16r, 64r, ... below umax.
        def breaks(c):
            out, b = [], 4.0 * math.sqrt(s * c / abs(a))
            while 0.0 < b < umax:
                out.append(b)
                b *= 4.0
            return tuple(out)

        return (
            QuadPiece(lo, +1, umax, w_lo, breaks(c_lo) if a > 0.0 else ()),
            QuadPiece(hi, -1, umax, w_hi, breaks(c_hi) if a < 0.0 else ()),
        )

    @cached_property
    def fixed_rule(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nodes of the fixed Gauss-Legendre pair on all pieces, built once
        per measure: ``(anchor, offset, matrix)``.  A node at ``u`` on a piece
        has ``anchor`` the piece's anchor and ``offset = sign*u**2``; row ``i``
        of ``matrix`` holds the coarse rule's weights of piece ``i`` times the
        piece weight, row ``P + i`` the fine rule's (``P`` pieces)."""
        return _fixed_rule(self.pieces)

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

    def integrate(self, f) -> float | complex:
        return integrate_pieces(self, _pullback(f))

    def cauchy(self, z: complex) -> float | complex:
        # x = anchor + offset, so z - x = (z - anchor) - offset without
        # cancellation even when z sits on a support edge; a real z is
        # integrated as a float.  z is the integrand's pole either way.
        if z.imag == 0.0:
            lo, hi = self.support()
            if lo < z.real < hi:
                raise SingularityError(f"z = {z.real:g} lies inside the support ({lo:g}, {hi:g})")
            z = z.real
        return integrate_pieces(self, lambda a, d: 1.0 / ((z - a) - d), pole=z)

    def psi_integral(self, theta: float | complex) -> float | complex:
        """One kernel for real and complex ``theta``: ``theta*x/(1 - theta*x)
        = x / ((r - anchor) - offset)`` with ``r = 1/theta``, stable at the
        edges and free of the cancellation of ``-1 + r*G(r)`` at small
        ``|theta|``.  ``r`` is the integrand's pole, and only a real one can
        meet the support."""
        r = 1.0 / theta
        pole = r
        if r.imag == 0.0:
            lo, hi = self.support()
            pole = r.real
            if lo <= pole <= hi:
                raise SingularityError(
                    f"the pole 1/theta = {pole:g} lies in the support [{lo:g}, {hi:g}]"
                )
        return integrate_pieces(self, lambda a, d: (a + d) / ((r - a) - d), pole)

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
    Marchenko-Pastur law at ``a = 1`` moved to mean 1.  Its weights cancel
    the ``u**2`` of the shared ones by hand, which the golden tables pin."""

    a = center = variance = 1.0
    name = "free_poisson"

    @cached_property
    def pieces(self) -> tuple[QuadPiece, ...]:
        def w_lo(u):
            return np.sqrt(4.0 - u * u) / math.pi

        def w_hi(u):
            return u * u / (math.pi * np.sqrt(4.0 - u * u))

        umax = math.sqrt(2.0)
        return QuadPiece(0.0, +1, umax, w_lo), QuadPiece(4.0, -1, umax, w_hi)


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

    def integrate(self, f) -> float | complex:
        raise InsufficientDataError(
            "cannot integrate an arbitrary function against a moment-sequence measure"
        )

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


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``n``-point Gauss-Legendre rule on (0, 1).

    Golub-Welsch nodes (the eigenvalues of the dense ``n x n`` Jacobi
    matrix, from ``numpy.linalg.eigvalsh``), one Newton step on the
    three-term recurrence, weights ``2 / ((1 - x**2) * P_n'(x)**2)`` made
    symmetric: nodes and weights within about one ulp (numpy's ``leggauss``
    misses the weights of the 65-node rule by up to 3e-13 relative).
    """
    def legendre(x):  # P_{n-1}(x), P_n(x)
        p0, p1 = np.ones_like(x), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        return p0, p1

    k = np.arange(1.0, n)
    off = np.diag(k / np.sqrt(4.0 * k * k - 1.0), 1)
    x = np.linalg.eigvalsh(off + off.T)
    p0, p1 = legendre(x)
    x = x - p1 * (x * x - 1.0) / (n * (x * p1 - p0))
    p0, p1 = legendre(x)
    dp = n * (x * p1 - p0) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
    return 0.5 * (1.0 + x), 0.5 * w


#: The coarse and the fine rule of the fixed pair on (0, 1), built at import.
_FIXED_RULES = tuple(_gauss_legendre(n) for n in FIXED_RULE_NODES)
#: The nodes of both rules, coarse first, as the fallback evaluates them.
_PAIR_NODES = np.concatenate([x for x, _ in _FIXED_RULES])


def _fixed_rule(pieces) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # composite rules on the sub-intervals between 0, a piece's breaks and
    # its umax; row k of the matrix is zero off its own rule and piece
    blocks = []
    for x, w in _FIXED_RULES:
        for piece in pieces:
            ends = np.array((0.0, *piece.breaks, piece.umax))
            lo, width = ends[:-1, None], np.diff(ends)[:, None]
            blocks.append((piece, (lo + width * x).ravel(), (width * w).ravel()))
    matrix = np.zeros((len(blocks), sum(nodes.size for _, nodes, _ in blocks)))
    start = 0
    for row, (piece, nodes, w) in enumerate(blocks):
        matrix[row, start:start + nodes.size] = w * piece.weight(nodes)
        start += nodes.size
    anchor = np.concatenate([np.full(nodes.size, piece.anchor) for piece, nodes, _ in blocks])
    offset = np.concatenate([piece.sign * nodes * nodes for piece, nodes, _ in blocks])
    return anchor, offset, matrix


def integrate_pieces(nu: DensityMeasure, integrand: Callable,
                     pole: float | complex | None = None) -> float | complex:
    """Sum over the density pieces of ``nu`` of the integral of ``weight * integrand``.

    ``integrand(a, d)`` is the function integrated against the density at
    ``x = a + d``, given as a piece's anchor ``a`` and the signed offset
    ``d = sign*u**2`` from it, so that a distance ``z - x`` computes as
    ``(z - a) - d`` without cancellation at an edge.  It acts elementwise,
    on numpy arrays of nodes and on Python floats, and may return real or
    complex values: a complex integrand is summed as it is, in the same one
    pass, and the result is complex.

    Each piece is first integrated by the fixed Gauss-Legendre pair on the
    measure's cached :attr:`~DensityMeasure.fixed_rule`: one call of
    ``integrand`` on the nodes of all pieces (numpy warnings silenced) and
    one matrix product.  A piece's fine sum is kept when both of its sums
    are finite and agree within ``FIXED_RULE_TOL * max(1, |I|)``, with
    ``|I|`` the modulus of the fine sum.
    Otherwise the piece goes to the adaptive fallback,
    :func:`_bisect_piece`, which applies the same pair to sub-intervals of
    ``(0, umax)`` split at the piece's ``breaks`` and at the
    :func:`_pole_breaks` of the integrand's ``pole``, real or complex.
    The fallback raises :class:`SingularityError` when the integrand is not
    finite where it bisects and :class:`AccuracyError` (with
    ``best_estimate``) when bisection stops short of the tolerance.  This
    is the edge-stable entry point of every density method.
    """
    anchor, offset, matrix = nu.fixed_rule
    with np.errstate(all="ignore"):
        sums = (matrix @ integrand(anchor, offset)).tolist()
    pieces = nu.pieces
    total = 0.0
    for piece, coarse, fine in zip(pieces, sums, sums[len(pieces):]):
        if abs(fine - coarse) <= FIXED_RULE_TOL * max(1.0, abs(fine)) and cmath.isfinite(fine):
            total += fine
            continue
        pts, centre = _pole_breaks(piece, pole)
        total += _bisect_piece(piece, integrand, sorted([*piece.breaks, *pts]), centre)
    return total


def _pole_breaks(piece: QuadPiece,
                 pole: float | complex | None) -> tuple[list[float], float | None]:
    """Where the fallback splits a piece near the integrand's pole, in
    ``(0, umax)``, and the node its offsets are taken from (None: the
    anchor; see :func:`_nodes`).

    A complex pole over the piece, whose real part is ``x`` at the node
    ``u*``, gives ``u*`` and ``u* -/+ f*|Im(pole)|/u*`` for ``f = 1, 10,
    100``, since the peak of the integrand is about ``|Im(pole)|/u*`` wide
    in ``u``; its offsets are taken from ``u*``.  A real pole, or a complex
    one whose real part misses the piece, at a distance ``0 < q < 0.5``
    from the anchor gives ``sqrt(q)``, ``10*sqrt(q)`` and ``100*sqrt(q)``,
    where the integrand turns steep."""
    if isinstance(pole, complex):
        q = piece.sign * (pole.real - piece.anchor)
        centre = float(np.float32(math.sqrt(q))) if q > 0.0 else 0.0  # 24 bits: exact squares
        if 0.0 < centre < piece.umax:
            step = abs(pole.imag) / centre
            pts = [centre, *(centre + k * f * step for f in (1.0, 10.0, 100.0) for k in (-1.0, 1.0))]
            return [p for p in pts if 0.0 < p < piece.umax], centre
        pole = pole.real
    q = math.inf if pole is None else abs(pole - piece.anchor)
    if not 0.0 < q < 0.5:
        return [], None
    root = math.sqrt(q)
    return [p for p in (root, 10.0 * root, 100.0 * root) if p < piece.umax], None


def _nodes(piece: QuadPiece, lo: float, steps, centre: float | None):
    """The nodes ``u = lo + steps`` of a piece with the integrand's ``(a,
    d)`` there: ``(anchor, sign*u**2)``, or, about the node ``centre``,
    ``a = anchor + sign*centre**2`` and ``d = x - a`` from ``t = (lo -
    centre) + steps``.  Next to a complex pole whose real part is ``a``,
    ``t`` and ``d`` keep their digits, which ``u`` and ``sign*u**2``
    rounded at the scale of ``u`` lose."""
    if centre is None:
        u = lo + steps
        return u, piece.anchor, piece.sign * u * u
    t = (lo - centre) + steps
    square = centre * centre  # exact: centre has 24 significant bits
    a = piece.anchor + piece.sign * square
    rest = math.fsum((piece.anchor, piece.sign * square, -a))
    return centre + t, a, rest + piece.sign * t * (2.0 * centre + t)


def _pair_sums(piece: QuadPiece, integrand: Callable, lo: float, hi: float,
               centre: float | None) -> tuple[float | complex, float | complex]:
    """The coarse and the fine sum of the fixed pair on ``(lo, hi)`` of a piece,
    from one evaluation on the nodes of both rules (:func:`_nodes`)."""
    (_, w_coarse), (_, w_fine) = _FIXED_RULES
    u, a, d = _nodes(piece, lo, (hi - lo) * _PAIR_NODES, centre)
    values = (hi - lo) * piece.weight(u) * integrand(a, d)
    return (w_coarse @ values[:w_coarse.size]).item(), (w_fine @ values[w_coarse.size:]).item()


def _bisect_piece(piece: QuadPiece, integrand: Callable, points: list[float],
                  centre: float | None) -> float | complex:
    """Adaptive fallback of :func:`integrate_pieces` on one piece.

    Starts from the sub-intervals of ``(0, umax)`` between the sorted
    ``points`` and sums each by the fixed pair.  Without ``points`` the only
    such sub-interval is the whole piece, whose sums on the same nodes
    :func:`integrate_pieces` has just rejected, so the fallback starts from
    its two halves instead.  A sub-interval that is a
    share ``s`` of ``umax`` is accepted when both sums are finite and agree
    within ``FIXED_RULE_TOL * max(s, |I|)``: the whole piece's check, split
    over its parts, with ``|I|`` the modulus of a real or complex sum.
    Otherwise it is bisected, after a pole probe at the split point
    (:func:`_halves`).  A sub-interval that still
    fails after ``FALLBACK_MAX_DEPTH`` bisections, or once the piece has
    used ``FALLBACK_MAX_INTERVALS`` sub-intervals, keeps its fine sum, and
    the piece then raises :class:`AccuracyError` with the total as
    ``best_estimate``.
    """
    total, evaluated, converged = 0.0, 0, True
    with np.errstate(all="ignore"):
        if points:
            ends = [0.0, *points, piece.umax]
            stack = [(lo, hi, 0) for lo, hi in reversed(list(zip(ends, ends[1:])))]
        else:
            # the fixed pair has just failed on the whole piece, on these same
            # nodes: it counts as the first sub-interval, and its halves follow
            stack, evaluated = _halves(piece, integrand, 0.0, piece.umax, 0, centre), 1
        while stack:  # leftmost sub-interval first: a fixed summation order
            lo, hi, depth = stack.pop()
            coarse, fine = _pair_sums(piece, integrand, lo, hi, centre)
            evaluated += 1
            tol = FIXED_RULE_TOL * max((hi - lo) / piece.umax, abs(fine))
            if abs(fine - coarse) <= tol and cmath.isfinite(fine):
                total += fine
            elif depth == FALLBACK_MAX_DEPTH or evaluated >= FALLBACK_MAX_INTERVALS:
                total += fine
                converged = False
            else:
                stack += _halves(piece, integrand, lo, hi, depth, centre)
    if not converged:
        raise AccuracyError(
            f"adaptive quadrature did not reach its tolerance in {evaluated} sub-intervals",
            best_estimate=total,
        )
    return total


def _halves(piece: QuadPiece, integrand: Callable, lo: float, hi: float, depth: int,
            centre: float | None) -> list[tuple[float, float, int]]:
    """The halves of ``(lo, hi)`` at ``depth + 1``, the right one first for
    :func:`_bisect_piece`'s stack, once the integrand is finite at the split
    point: both odd rules had their middle node there, so a non-finite value
    or a ``ZeroDivisionError`` is a pole, and raises
    :class:`SingularityError`."""
    mid = 0.5 * (lo + hi)
    try:
        u, a, d = _nodes(piece, mid, 0.0, centre)
        value = piece.weight(u) * integrand(a, d)
    except ZeroDivisionError:
        value = math.nan
    if not cmath.isfinite(value):
        raise SingularityError("a quadrature node fell on a pole of the integrand")
    return [(mid, hi, depth + 1), (lo, mid, depth + 1)]


def _pullback(f) -> Callable:
    """The :func:`integrate_pieces` integrand of ``f``: ``f(a + d)``, broadcast
    to the shape of ``d`` (``f`` may be a constant)."""
    return lambda a, d: np.broadcast_to(f(a + d), np.shape(d))


# ---------------------------------------------------------------------------
# moments


@lru_cache(maxsize=256)
def _density_moments(nu: DensityMeasure, order: int) -> tuple[float, ...]:
    # The named densities have exact closed-form Jacobi parameters, so their
    # moments come from the three-term recurrence; quadrature of x**n is the
    # independent cross-check exercised by the test suite.
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
