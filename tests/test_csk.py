"""Kernel-family machinery: mean parametrization, domains, variance laws."""

import json
import math
from fractions import Fraction
from pathlib import Path

import mpmath as mp

import numpy as np
import pytest
from cli_runner import invoke

from cskfam import csk as csk_module
from cskfam import measure as measure_module
from cskfam.csk import (
    affine_pseudo_variance,
    boxplus_power_variance,
    boxtimes_power_pseudo_variance,
    boxtimes_power_variance,
    bt_pseudo_variance,
    bt_variance,
    csk_density_weight,
    family_row,
    family_rows,
    k_mean,
    mean_domain,
    pseudo_variance,
    psi_mean_inverse,
    uplus_power_variance,
    variance,
)
from cskfam.errors import (
    CskfamError,
    DomainError,
    InsufficientDataError,
    NumericError,
    raise_error,
    value_or_error,
)
from cskfam.measure import (
    AtomicMeasure,
    DensityMeasure,
    FreePoisson,
    MarchenkoPasturCentered,
    MomentSeq,
    Semicircle,
    mean,
    moments,
    variance_of,
)
from cskfam.transforms import bracketed_root, cauchy_transform, psi_transform, s_transform

from oracles import atomic_family_row

FP = FreePoisson()
TWO_ATOM = AtomicMeasure((0.5, 2.5), (0.4, 0.6))


@pytest.fixture
def psi_calls(monkeypatch):
    """Every theta at which an atomic law or a named density evaluates Psi
    from here on: the two classes whose roots come from Jacobi parameters."""
    calls = []
    for cls in (AtomicMeasure, DensityMeasure):
        monkeypatch.setattr(cls, "psi_integral",
                            lambda self, theta, psi=cls.psi_integral:
                            calls.append(theta) or psi(self, theta))
    return calls


@pytest.fixture
def jacobi_reads(monkeypatch):
    """The means of each call of ``csk._jacobi_roots`` from here on."""
    reads = []
    jacobi_roots = csk_module._jacobi_roots
    monkeypatch.setattr(csk_module, "_jacobi_roots",
                        lambda nu, m0, means: reads.append(list(means))
                        or jacobi_roots(nu, m0, means))
    return reads


# ---------------------------------------------------------------------------
# mean parametrization


def test_k_mean_at_zero_is_generator_mean():
    assert k_mean(FP, 0.0) == 1.0
    assert abs(k_mean(FP, 1e-12) - 1.0) <= 1e-10


def test_k_mean_point_mass_constant():
    nu = AtomicMeasure((1.5,), (1.0,))
    for theta in (-2.0, -0.1, 0.3):
        assert abs(k_mean(nu, theta) - 1.5) <= 1e-14


def test_k_mean_strictly_increasing():
    thetas = np.linspace(-3.0, 0.24, 12)
    values = [k_mean(FP, float(t)) for t in thetas]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_k_mean_free_poisson_quadrature_consistency():
    # k = Psi / (theta * (1 + Psi)) with Psi evaluated independently
    for theta in (1.0 / 8.0, 1.0 / 16.0, -0.5):
        psi = psi_transform(FP, theta).real
        want = psi / (theta * (1.0 + psi))
        assert abs(k_mean(FP, theta) - want) <= 1e-11
    assert k_mean(FP, 1.0 / 16.0) < k_mean(FP, 1.0 / 8.0)


def test_k_mean_theta_range():
    with pytest.raises(DomainError):
        k_mean(FP, 0.3)


def test_psi_mean_inverse_round_trip():
    for nu in (FP, TWO_ATOM, MarchenkoPasturCentered(0.5)):
        lo, hi = mean_domain(nu)
        for m in np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 7):
            theta = psi_mean_inverse(nu, float(m))
            assert abs(k_mean(nu, theta) - m) <= 1e-10


def test_psi_mean_inverse_at_mean_is_zero():
    assert psi_mean_inverse(FP, 1.0) == 0.0


def test_psi_mean_inverse_free_poisson_interval():
    theta = psi_mean_inverse(FP, 1.5)
    assert 0.0 < theta < 0.25


def test_psi_mean_inverse_bisection_oracle():
    m = 1.5
    theta = psi_mean_inverse(FP, m)
    lo, hi = 1e-12, 0.25 - 1e-9
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if k_mean(FP, mid) < m:
            lo = mid
        else:
            hi = mid
    assert abs(theta - 0.5 * (lo + hi)) <= 1e-10


def test_psi_mean_inverse_outside_domain():
    with pytest.raises(DomainError):
        psi_mean_inverse(FP, 2.5)  # above m_plus = 2
    with pytest.raises(DomainError):
        psi_mean_inverse(FP, -0.5)  # below m_minus = 0


@pytest.mark.parametrize(
    "nu, m, side",
    [
        (TWO_ATOM, 0.5, "below"),  # lower mean endpoint 1/1.04
        (AtomicMeasure((0.1, 0.2, 0.7), (0.1, 0.2, 0.7)), 0.25, "below"),
        (Semicircle(3.0, 0.5), -1.5, "below"),
        (AtomicMeasure((-2.0, -1.0), (0.5, 0.5)), 0.0, "above"),  # theta walks to +inf
        # just below the domain: without the sqrt(eps) floor of k_mean the
        # walk stopped on a sign change made by rounding, at |theta| ~ 1e13-1e15
        (TWO_ATOM, 0.9605, "below"),
        (Semicircle(3.0, 0.5), 2.0, "below"),  # lower mean endpoint 2.823
        (Semicircle(3.0, 0.5), 2.4, "below"),
        (Semicircle(3.0, 0.5), 2.6, "below"),
    ],
)
def test_psi_mean_inverse_beyond_an_unbounded_walk(nu, m, side):
    # theta is unbounded on the side of m, so no end of theta_range names
    # the refusal; a walk in theta toward -inf (+inf) once lost 1 + Psi to
    # cancellation there before it could bracket the mean.
    with pytest.raises(DomainError, match=f"^m = {m:g} {side} the attainable means$"):
        psi_mean_inverse(nu, m)


def test_k_mean_lost_to_cancellation():
    with pytest.raises(NumericError, match="cancellation"):
        k_mean(TWO_ATOM, -1e17)


def test_k_mean_floor_on_one_plus_psi():
    # 1 + Psi(theta) is about 1.04/|theta| for TWO_ATOM at large negative theta:
    # 6.2e-8 at -2**24 (kept) and 7.7e-9 at -2**27, under sqrt(eps) = 1.49e-8
    lower_end = 1.0 / (0.4 / 0.5 + 0.6 / 2.5)
    assert lower_end < k_mean(TWO_ATOM, -2.0**24) < lower_end + 1e-6
    with pytest.raises(NumericError, match="cancellation"):
        k_mean(TWO_ATOM, -2.0**27)


@pytest.mark.parametrize(
    "nu, means",
    [
        (FP, (0.05, 0.5, 1.5, 1.99)),
        (MarchenkoPasturCentered(0.5), (-0.9, -0.2, 0.4, 0.95)),
        (Semicircle(1.0, 0.5), (0.35, 0.8, 1.3, 1.65)),
        (TWO_ATOM, (1.0, 1.5, 2.0, 2.3)),
    ],
    ids=lambda v: v.describe() if hasattr(v, "describe") else None,
)
@pytest.mark.parametrize("route", ["psi_mean_inverse", "family_rows"])
def test_one_inversion_reads_the_jacobi_parameters_once_and_no_psi(nu, means, route,
                                                                   psi_calls, jacobi_reads):
    # both routes read the root off one _jacobi_roots, and evaluate no mean
    # map; the quadrature mean map k_mean takes the root back to m
    if route == "psi_mean_inverse":
        invert = psi_mean_inverse
    else:
        invert = lambda nu_, m: family_rows(nu_, [m])[0][0]
    for m in means:
        psi_calls.clear()
        jacobi_reads.clear()
        theta = invert(nu, m)
        assert jacobi_reads == [[m]] and psi_calls == []
        assert abs(k_mean(nu, theta) - m) <= 1e-10


# ---------------------------------------------------------------------------
# mean domains


def test_free_poisson_mean_domain():
    lo, hi = mean_domain(FP)
    assert lo == 0.0  # G diverges at the inverse-square-root edge
    assert abs(hi - 2.0) <= 1e-13


def test_free_poisson_upper_endpoint_direct_check():
    # m_plus = 4 - 1/G(4) with G(4) = 1/2
    g4 = cauchy_transform(FP, 4.0)
    assert abs((4.0 - 1.0 / g4) - 2.0) <= 1e-10


@pytest.mark.parametrize("a", [0.3, 0.5, 1.0, -1.0, -0.6, 15 / 16])
def test_marchenko_pastur_mean_domain(a):
    # a = 1 and a = -1 have G infinite at the lower and upper edge
    lo, hi = mean_domain(MarchenkoPasturCentered(a))
    assert abs(lo + 1.0) <= 1e-13
    assert abs(hi - 1.0) <= 1e-13


@pytest.mark.parametrize("center, var", [(0.0, 1.0), (1.0, 0.5), (-1.0, 2.0), (0.5, 4.0)])
def test_semicircle_mean_domain(center, var):
    # the support contains 0, so both ends are edge - 1/G(edge) = center +- sqrt(var)
    lo, hi = mean_domain(Semicircle(center, var))
    assert abs(lo - (center - math.sqrt(var))) <= 1e-13
    assert abs(hi - (center + math.sqrt(var))) <= 1e-13


def test_one_sided_domains():
    lo, hi = mean(FP), mean_domain(FP)[1]
    assert lo == 1.0 and abs(hi - 2.0) <= 1e-13
    lo, hi = mean_domain(FP)[0], mean(FP)
    assert lo == 0.0 and hi == 1.0


def test_atomic_mean_domain():
    # positive atoms, no mass at zero: m_minus = -1/G(0) > 0
    lo, hi = mean_domain(TWO_ATOM)
    g0 = cauchy_transform(TWO_ATOM, 0.0)
    assert abs(lo + 1.0 / g0) <= 1e-12
    assert hi == 2.5  # atom at B makes 1/G -> 0
    # atoms below 0 only: B = 0 is not an atom, and the upper end is -1/G(0)
    negative = AtomicMeasure((-2.0, -0.5), (0.5, 0.5))
    lo, hi = mean_domain(negative)
    assert lo == -2.0
    assert hi == -1.0 / cauchy_transform(negative, 0.0).real


def test_mean_domain_rejects_moment_sequences():
    with pytest.raises(InsufficientDataError):
        mean_domain(MomentSeq((1.0, 2.0)))


def test_free_poisson_theta_range_and_lower_mean_domain():
    assert FP.theta_range() == (-math.inf, 0.25)
    assert (mean_domain(FP)[0], mean(FP)) == (0.0, 1.0)


def _exact_end(nu, upper):
    """The end of the domain of means of a named density at 50 digits, from
    the float parameters, and whether it is ``center +/- sqrt(variance)``
    with the two terms cancelling (``|end| < sqrt(variance)``): the
    singular edge itself, that sum at a regular end of the support, and
    ``K(0) = -1/G(0)`` where 0 lies outside the support.  Call it at 50
    digits."""
    center, var, a = (mp.mpf(x) for x in (nu.center, nu.variance, nu.a))
    s = mp.sqrt(var)
    lo, hi = center + s * (a - 2), center + s * (a + 2)
    if upper and a == -1 or not upper and a == 1:
        return (hi if upper else lo), False
    if (hi if upper else -lo) >= 0:
        end = center + s if upper else center - s
        return end, abs(end) < s
    d = -(center + s * a)  # 0 - alpha_1, with alpha_0 = center and omega = (var, var)
    return center + 2 * var / (d + mp.sign(d) * mp.sqrt(d * d - 4 * var)), False


NAMED_DOMAINS = [
    FP, MarchenkoPasturCentered(0.25), MarchenkoPasturCentered(0.5), MarchenkoPasturCentered(1.0),
    MarchenkoPasturCentered(-1.0), MarchenkoPasturCentered(15 / 16),
    MarchenkoPasturCentered(-15 / 16), Semicircle(0.0, 1.0), Semicircle(1.0, 0.5),
    Semicircle(-1.0, 2.0), Semicircle(0.5, 4.0), Semicircle(2.0, 1.0), Semicircle(-0.375, 1.25),
    Semicircle(1.0, 1.1), Semicircle(3.0, 0.5), Semicircle(-3.0, 0.5), Semicircle(5.0, 0.75),
]


@pytest.mark.parametrize("nu", NAMED_DOMAINS, ids=lambda nu: nu.describe())
def test_named_mean_domain_ends_are_within_1_ulp_of_the_exact_ends(nu):
    # the quadrature G put free Poisson's upper end at 2.0000000000000009 and
    # the semicircle(1, 0.5) lower end 3 ulp off; the Jacobi parameters give
    # each end in closed form: an inverse-square-root edge is its own end
    # (free Poisson at 0, a = +-1 at -+1), a regular end of the support is
    # center +- sqrt(variance), and K(0) where 0 is outside the support
    # (semicircle(3, 0.5) at (3 + sqrt(7))/2).  Where center and
    # sqrt(variance) cancel (semicircle(-1, 2) above, at 1.7 ulp; (1, 1.1)
    # below, at 6.0 ulp) the end is within half an ulp of each term
    with mp.workdps(50):
        for upper, got in enumerate(mean_domain(nu)):
            want, cancels = _exact_end(nu, bool(upper))
            bound = math.ulp(got)
            if cancels:
                bound = 0.5 * (math.ulp(math.sqrt(nu.variance)) + math.ulp(got))
            assert abs(mp.mpf(got) - want) <= bound, (upper, got, want)


def test_singular_and_zero_ends_are_exact():
    assert mean_domain(FP) == (0.0, 2.0)
    assert mean_domain(MarchenkoPasturCentered(1.0)) == (-1.0, 1.0)
    assert mean_domain(MarchenkoPasturCentered(-1.0)) == (-1.0, 1.0)
    assert mean_domain(Semicircle(3.0, 0.5))[0] == 2.8228756555322954



@pytest.mark.parametrize("gap", [4e-4, 1e-8])
@pytest.mark.parametrize("var", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("side", [1.0, -1.0], ids=["lower", "upper"])
def test_k0_next_to_a_semicircle_support_is_within_1_ulp(gap, var, side):
    # 0 at gap support radii from the support: d*d - 4*omega_2 cancelled
    # after d*d was rounded, 6.0 ulp off at 4e-4 and 2.1e3 ulp at 1e-8
    center = side * 2.0 * math.sqrt(var) * (1.0 + gap)
    nu = Semicircle(center, var)
    with mp.workdps(50):
        got = mean_domain(nu)[side < 0]
        want, _ = _exact_end(nu, side < 0)
        assert abs(mp.mpf(got) - want) <= math.ulp(got), (got, want)


ATOMIC_DOMAINS = [
    TWO_ATOM, AtomicMeasure((-2.0, -0.5), (0.5, 0.5)), AtomicMeasure((0.75,), (1.0,)),
    AtomicMeasure((-2.0, 0.25, 1.3125), (0.4375, 0.4375, 0.125)),
    AtomicMeasure((0.25, 0.75, 1.5, 2.75), (0.125, 0.375, 0.25, 0.25)),
    AtomicMeasure((2.375, 2.9375, 3.0), (0.140625, 0.28125, 0.578125)),
    AtomicMeasure((-3.0, -1.25, -0.5), (0.25, 0.5, 0.25)),
]


@pytest.mark.parametrize("nu", ATOMIC_DOMAINS, ids=lambda nu: nu.describe())
def test_atomic_mean_domain_ends_are_the_exact_atomic_formula(nu):
    # an atom on the end of the support is its own end, and 0 outside the
    # support gives -1/G(0) from the finite sum of G, bit for bit; the
    # mean-domain end and the roots read one Lanczos step of the law
    lo, hi = nu.support()
    want = (lo if lo <= 0.0 else -1.0 / cauchy_transform(nu, 0.0).real,
            hi if hi >= 0.0 else -1.0 / cauchy_transform(nu, 0.0).real)
    assert [x.hex() for x in mean_domain(nu)] == [x.hex() for x in want]
    assert nu.jacobi() is nu.jacobi()


# ---------------------------------------------------------------------------
# pseudo-variance and variance


def test_free_poisson_pseudo_variance_closed_form():
    for m in np.linspace(0.2, 1.8, 9):
        if abs(m - 1.0) < 1e-9:
            continue
        want = m * m / (m - 1.0)
        assert abs(pseudo_variance(FP, float(m)) - want) <= 1e-9


def test_marchenko_pastur_pseudo_variance_equals_variance():
    for a in (0.3, 1.0):
        nu = MarchenkoPasturCentered(a)
        for m in np.linspace(-0.8, 0.8, 9):
            pv = pseudo_variance(nu, float(m))
            v = variance(nu, float(m))
            assert abs(pv - (1.0 + a * m)) <= 1e-9
            assert abs(pv - v) <= 1e-9  # mean zero makes them coincide


def test_g2v_round_trip():
    for nu, ms in ((FP, (0.4, 0.7, 1.5)), (TWO_ATOM, (1.0, 1.4, 2.0))):
        for m in ms:
            pv = pseudo_variance(nu, m)
            z = m + pv / m
            assert abs(cauchy_transform(nu, z) * pv - m) <= 1e-9


def test_variance_free_poisson_is_identity_map():
    for m in np.linspace(0.2, 1.8, 20):
        assert abs(variance(FP, float(m)) - m) <= 1e-8


@pytest.mark.parametrize("m", [0.99835, 0.9999])
def test_variance_near_the_generator_mean_is_the_exact_root(m):
    # Brent stopped on the absolute ROOT_XTOL in theta, small next to the
    # generator mean, and V(m) = m was 2.0e-13 and 3.3e-12 relative off
    assert abs(variance(FP, m) - m) <= 1e-15 * m


def test_variance_at_generator_mean_is_generator_variance():
    for nu in (FP, TWO_ATOM, MarchenkoPasturCentered(0.4)):
        m = moments(nu, 2)
        var = m.values[1] - m.values[0] ** 2
        assert abs(variance(nu, m.values[0]) - var) <= 1e-10
        near = m.values[0] + 1e-7
        assert abs(variance(nu, near) - var) <= 1e-5  # continuity across the mean


def test_variance_mp_at_spec_point():
    assert abs(variance(MarchenkoPasturCentered(0.5), 0.4) - 1.2) <= 1e-9


def test_pseudo_variance_diverges_at_nonzero_mean():
    with pytest.raises(DomainError):
        pseudo_variance(FP, 1.0)


@pytest.mark.parametrize("nu, want", [(FP, 0.0), (MarchenkoPasturCentered(0.5), 1.0)])
def test_pseudo_variance_at_zero_mean_starts_no_inversion(nu, want, monkeypatch):
    # the convention at m = 0 needs no root, and free Poisson has none there
    calls = []
    original = csk_module._roots
    monkeypatch.setattr(csk_module, "_roots",
                        lambda nu_, m0, means: calls.extend(means) or original(nu_, m0, means))
    assert pseudo_variance(nu, 0.0) == want
    assert calls == []
    if nu is FP:
        with pytest.raises(DomainError, match="below the attainable means"):
            family_row(nu, 0.0)


def test_w_map_strictly_increasing():
    lo, m0 = mean_domain(FP)[0], mean(FP)
    grid = np.linspace(lo + 0.1, m0 - 0.1, 9)
    w = [m * m / pseudo_variance(FP, float(m)) for m in grid]
    assert all(b > a for a, b in zip(w, w[1:]))


def test_s_transform_identities_on_mean_grid():
    # S(m^2/PV(m)) * m = 1 and Psi(psi(m)) = m^2/PV(m) in (delta-1, 0)
    for nu in (FP, TWO_ATOM):
        delta = nu.zero_mass
        lo, m0 = mean_domain(nu)[0], mean(nu)
        for m in np.linspace(lo + 0.15 * (m0 - lo), m0 - 0.15 * (m0 - lo), 5):
            pv = pseudo_variance(nu, float(m))
            w = m * m / pv
            assert delta - 1.0 < w < 0.0
            assert abs(psi_transform(nu, psi_mean_inverse(nu, float(m))).real - w) <= 1e-9
            assert abs(s_transform(nu, w) * m - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# member densities


def test_weight_is_one_at_zero_mean_when_pv_nonzero():
    nu = MarchenkoPasturCentered(0.5)  # m0 = 0, PV(0) = 1
    for x in (-1.0, 0.0, 2.0):
        assert csk_density_weight(nu, x, 0.0) == 1.0


def test_weight_normalizes():
    for m in (0.5, 1.5):
        total = FP.integrate(lambda x: csk_density_weight(FP, x, m))
        assert abs(total - 1.0) <= 1e-9


def test_weight_reproduces_mean():
    m = 1.5
    got = FP.integrate(lambda x: x * csk_density_weight(FP, x, m))
    assert abs(got - m) <= 1e-8


def test_weight_zero_mean_slope_branch():
    # shifted semicircle: mean 1, variance 2, domain straddles 0 and PV(0) = 0;
    # the member at mean 0 has weight 2/(2+x) by direct algebra
    nu = Semicircle(1.0, 2.0)
    lo, hi = mean_domain(nu)
    assert lo < 0.0 < hi
    assert pseudo_variance(nu, 0.0) == 0.0
    for x in (-1.0, 0.5, 2.0):
        assert abs(csk_density_weight(nu, x, 0.0) - 2.0 / (2.0 + x)) <= 1e-5
    total = nu.integrate(lambda x: csk_density_weight(nu, x, 0.0))
    assert abs(total - 1.0) <= 1e-5


def test_variance_matches_defining_integral():
    for m in (0.6, 1.5):
        integral = FP.integrate(lambda x: (x - m) ** 2 * csk_density_weight(FP, x, m))
        assert abs(variance(FP, m) - integral) <= 1e-8


def test_weight_singular_member_detected():
    # a mean far outside the domain would put the pole inside the support
    with pytest.raises(DomainError):
        csk_density_weight(FP, 1.0, 2.5)


# ---------------------------------------------------------------------------
# transformation laws


def test_affine_rule_identity():
    m = 1.5
    assert abs(affine_pseudo_variance(FP, 1.0, 0.0, m) - pseudo_variance(FP, m)) <= 1e-12


def test_affine_rule_reflection():
    got = affine_pseudo_variance(FP, -1.0, 0.0, -1.5)
    assert abs(got - pseudo_variance(FP, 1.5)) <= 1e-10


def test_affine_rule_recovers_free_poisson_from_centered_mp():
    # the image of the centered a=1 law under x -> x+1 is the free Poisson
    # family: m/(m-1) * PV_mp(m-1) must equal m^2/(m-1)
    nu = MarchenkoPasturCentered(1.0)
    for m in (0.4, 0.7, 1.3):
        got = affine_pseudo_variance(nu, 1.0, -1.0, m)
        want = m * m / (m - 1.0)
        assert abs(got - want) <= 1e-9
        direct = pseudo_variance(FP, m)
        assert abs(got - direct) <= 1e-9


def test_affine_rule_rejections():
    with pytest.raises(DomainError):
        affine_pseudo_variance(FP, 0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        affine_pseudo_variance(FP, 1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        affine_pseudo_variance(FP, 1.0, -1.5, 1.5)


def test_boxplus_power_law():
    vfp = lambda m: m
    assert boxplus_power_variance(vfp, 1.0, 1.0, 0.7) == 0.7
    assert abs(boxplus_power_variance(vfp, 1.0, 2.0, 1.0) - 1.0) <= 1e-15
    vmp = lambda m: 1.0 + 0.5 * m
    got = boxplus_power_variance(vmp, 0.0, 3.0, 0.6)
    assert abs(got - (3.0 + 0.5 * 0.6)) <= 1e-14  # alpha*(1 + a*m/alpha) = alpha + a*m


def test_uplus_power_law():
    vfp = lambda m: m
    assert uplus_power_variance(vfp, 1.0, 1.0, 0.7) == 0.7
    got = uplus_power_variance(vfp, 1.0, 2.0, 1.0)
    assert abs(got - 1.5) <= 1e-15  # 2*(1/2) + 1*(1-2)*(-1/2)


def test_boxtimes_power_law_free_poisson():
    pv = lambda m: m * m / (m - 1.0)
    v = lambda m: m
    assert abs(boxtimes_power_pseudo_variance(pv, 1.0, 0.8) - pv(0.8)) <= 1e-15
    got = boxtimes_power_variance(v, 1.0, 2.0, 0.81)
    want = 0.81 * (math.sqrt(0.81) + 1.0)  # simplifies to m*(sqrt(m)+1)
    assert abs(got - want) <= 1e-13
    # removable singularity at the transformed mean
    near = boxtimes_power_variance(v, 1.0, 2.0, 1.0)
    assert abs(near - 2.0) <= 1e-10


@pytest.mark.parametrize("alpha", [64.0, 1e8, 1e11, 1e13, 1e15])
def test_boxtimes_power_variance_does_not_cancel_at_large_alpha(alpha):
    # with V(x) = x the law is m(m - 1)/expm1(log(m)/alpha); the quotient of
    # differences was 7.4e-9 off at alpha = 1e8 and 0.28 at 1e13, where the
    # absolute 1e-13 test for the removable singularity fired
    for m in (0.6, 0.9, 1.0 + 1e-9, 1.5, 4.0):
        want = m * (m - 1.0) / math.expm1(math.log(m) / alpha)
        assert abs(boxtimes_power_variance(lambda x: x, 1.0, alpha, m) - want) <= 1e-14 * want
    assert boxtimes_power_variance(lambda x: x, 1.0, alpha, 1.0) == alpha


def test_bt_laws():
    vfp = lambda m: m
    assert bt_variance(vfp, 1.0, 0.0, 0.7) == 0.7
    got = bt_variance(vfp, 1.0, 1.0, 0.7)
    assert abs(got - 0.7**2) <= 1e-15  # m + m(m-1) = m^2
    pv = lambda m: m * m / (m - 1.0)
    assert abs(bt_pseudo_variance(pv, 1.0, 0.7) - (pv(0.7) + 0.49)) <= 1e-15
    with pytest.raises(DomainError):
        bt_variance(vfp, 1.0, -0.5, 0.7)


def test_law_domain_rejections():
    with pytest.raises(DomainError):
        boxplus_power_variance(lambda m: m, 1.0, 0.0, 0.5)
    with pytest.raises(DomainError):
        boxtimes_power_variance(lambda m: m, 1.0, 2.0, -0.5)


@pytest.mark.parametrize("law", [
    lambda x: boxplus_power_variance(lambda m: m, 1.0, x, 0.5),
    lambda x: uplus_power_variance(lambda m: m, 1.0, x, 0.5),
    lambda x: boxtimes_power_variance(lambda m: m, 1.0, x, 0.5),
    lambda x: boxtimes_power_pseudo_variance(lambda m: m, x, 0.5),
    lambda x: boxtimes_power_variance(lambda m: m, 1.0, 2.0, x),  # the mean
    lambda x: boxtimes_power_pseudo_variance(lambda m: m, 2.0, x),  # the mean
    lambda x: bt_variance(lambda m: m, 1.0, x, 0.5),
    lambda x: bt_pseudo_variance(lambda m: m, x, 0.5),
])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_laws_reject_nonfinite_parameter(law, value):
    # guards written alpha <= 0, m <= 0 or t < 0 are false for nan, and the
    # laws once answered nan
    with pytest.raises(DomainError):
        law(value)


# ---------------------------------------------------------------------------
# moment-sequence route


def test_moment_route_matches_analytic_route():
    # The moment route rests on series reversion, whose coefficient noise
    # grows with |w| = |m^2/PV(m)|; at order 40 and free-Poisson moment
    # growth it resolves |w| <= 0.3 to ~1e-8 and |w| <= 0.2 to machine
    # precision.  The grid stays inside that envelope.
    seq = MomentSeq(moments(FP, 40).values)
    for m in (0.7, 0.8, 0.9, 1.3):
        assert abs(pseudo_variance(seq, m) - pseudo_variance(FP, m)) <= 1e-7
        assert abs(variance(seq, m) - variance(FP, m)) <= 1e-7
    for m in (0.8, 0.9):
        assert abs(pseudo_variance(seq, m) - pseudo_variance(FP, m)) <= 1e-12
    theta = psi_mean_inverse(seq, 0.8)
    assert abs(theta - psi_mean_inverse(FP, 0.8)) <= 1e-10


def test_moment_route_reports_unreachable_means():
    seq = MomentSeq(moments(FP, 40).values)
    with pytest.raises(NumericError):
        pseudo_variance(seq, 0.4)  # |w| = 0.6 is past the noise envelope


def test_moment_route_rejects_non_finite_moments():
    seq = MomentSeq((1.0, math.nan, 5.0, 14.0, 42.0))
    with pytest.raises(NumericError):
        variance(seq, 0.8)
    with pytest.raises(NumericError):
        pseudo_variance(MomentSeq((1.0, 2.0, math.inf, 14.0)), 0.8)
    with pytest.raises(DomainError):
        pseudo_variance(MomentSeq((1.0, 2.0, 5.0, 14.0)), math.nan)


def _stepped_walk_pseudo_variance(mseq, m):
    """The bracket walk one scalar step at a time: the reference for the
    vectorized walk, which must pick the same bracket."""
    rho, poly = csk_module._unit_growth_s_series(mseq)
    f = lambda w: float(np.polyval(poly, w)) - rho / m
    step = 0.01
    if f(0.0) < 0.0:
        prev, w = 0.0, -step
        while f(w) < 0.0:
            prev, w = w, w - step
            if w <= -0.999:
                raise NumericError("no bracket")
        root = bracketed_root(f, w, prev)
    else:
        prev, w = 0.0, step
        while f(w) > 0.0:
            prev, w = w, w + step
            if w > 4.0:
                raise NumericError("no bracket")
        root = bracketed_root(f, prev, w)
    return m * m / root


def test_moment_route_walk_matches_stepped_walk():
    three_atom = AtomicMeasure((0.2, 1.0, 3.0), (0.3, 0.3, 0.4))
    laws = [moments(FP, 40), moments(TWO_ATOM, 30), moments(three_atom, 40)]
    for mseq in laws:
        seq = MomentSeq(mseq.values)
        for m in (0.3, 0.6, 0.8, 0.9, 1.2, 1.5, 1.9, 2.4):
            try:
                want = _stepped_walk_pseudo_variance(mseq, m)
            except (NumericError, DomainError):
                with pytest.raises((NumericError, DomainError)):
                    csk_module._pseudo_variance_from_moments(seq, m)
            else:
                assert csk_module._pseudo_variance_from_moments(seq, m) == want


# ---------------------------------------------------------------------------
# one row of the family table


def _separately(nu, m):
    """theta, PV and V from three separate calls, or the first error."""
    try:
        return psi_mean_inverse(nu, m), pseudo_variance(nu, m), variance(nu, m)
    except CskfamError as exc:
        return type(exc), str(exc)


def _row(nu, m):
    try:
        return family_row(nu, m)
    except CskfamError as exc:
        return type(exc), str(exc)


def _bits(result):
    return tuple(x.hex() if isinstance(x, float) else x for x in result)


FAMILY_ROW_CASES = [
    # m = 0, m0 +- within the match tolerance, below and above the domain
    (TWO_ATOM, (-1.0, 0.0, 0.5, 1.0, 1.5, 1.7, 1.7 + 5e-13, 2.0, 2.4, 2.6)),
    (AtomicMeasure((-1.0, 0.0, 2.0), (0.25, 0.25, 0.5)), (-1.0, -0.3, 0.0, 0.5, 1.0, 3.0)),
    (FP, (-0.5, 0.0, 0.25, 0.5, 1.0, 1.0 - 5e-13, 1.5, 1.9, 2.5)),
    (Semicircle(), (-1.5, -0.7, -1e-13, 0.0, 1e-13, 0.7, 1.5)),
    (Semicircle(3.0, 0.5), (-1.5, 2.9, 3.0, 3.5, 4.0)),
    (MarchenkoPasturCentered(0.5), (-1.5, -0.5, 0.0, 0.4, 1.5, 4.0)),
    (MarchenkoPasturCentered(1.0), (-1.2, -0.5, 0.0, 1.0, 3.0)),
    (MomentSeq(moments(FP, 10).values), (-0.5, 0.0, 0.1, 0.5, 1.0, 1.0 + 5e-13, 1.5, 10.0)),
    (MomentSeq((0.0, 1.0, 0.0, 2.0, 0.0, 5.0)), (-1.0, 0.0, 1e-13, 0.5)),
    (MomentSeq((1.0,)), (0.5, 1.0)),
]


@pytest.mark.parametrize("nu, grid", FAMILY_ROW_CASES)
def test_family_row_is_bitwise_the_three_calls(nu, grid):
    for m in grid:
        assert _bits(_row(nu, m)) == _bits(_separately(nu, m)), m


def _outcome(row):
    return (type(row), str(row)) if isinstance(row, CskfamError) else row


@pytest.mark.parametrize("nu, grid", FAMILY_ROW_CASES)
def test_family_rows_is_bitwise_family_row_at_each_mean(nu, grid):
    # the grid reversed as well: no row depends on its neighbours
    for means in (grid, grid[::-1]):
        got = [_bits(_outcome(row)) for row in family_rows(nu, means)]
        assert got == [_bits(_row(nu, m)) for m in means]


@pytest.mark.parametrize("answer", [(0.5, 1.25, 1.0), DomainError("m = 3 above the attainable means")])
def test_raise_error_undoes_value_or_error(answer):
    def solve():
        if isinstance(answer, CskfamError):
            raise answer
        return answer

    stored = value_or_error(solve)
    if not isinstance(answer, CskfamError):
        assert raise_error(stored) is answer
        return
    with pytest.raises(DomainError, match="^m = 3 above the attainable means$") as info:
        raise_error(stored)
    assert type(info.value) is DomainError


def _variance(nu, m):
    try:
        return (variance(nu, m),)
    except CskfamError as exc:
        return type(exc), str(exc)


def _pulled_back(m0, n, m):
    """The mean ``cskfam limit`` asks of a generator of mean ``m0`` at step
    ``n`` and mean ``m``, in the float expressions of its law chain."""
    return m0 * ((n * m) / n) ** (1.0 / n)


_MATCH = csk_module._MEAN_MATCH_TOL
VARIANCES_CASES = [
    # around m0 = 1.7: within the match tolerance, pulled back from n = 1e12
    # and 1e13, and outside the domain (0.5, 2.5) on both sides
    (TWO_ATOM, (1.7 - 0.9 * _MATCH, 1.7 + 0.9 * _MATCH, 1.7 + 2 * _MATCH,
                *(_pulled_back(1.7, n, m) for n in (10**12, 10**13) for m in (0.6, 0.8, 0.9)),
                -1.0, 0.5, 0.75, 2.2, 2.5, 3.0)),
    (FP, (1.0 - 0.5 * _MATCH, *(_pulled_back(1.0, 10**13, m) for m in (0.6, 0.9)),
          -0.5, 0.0, 0.3, 1.9, 2.0, 2.5)),
    (MarchenkoPasturCentered(0.5), (-1.5, -0.5, 0.0, 0.5 * _MATCH, 0.4, 4.0)),
    (MomentSeq(moments(FP, 10).values), (-0.5, 0.0, 0.5, 1.0 + 0.5 * _MATCH,
                                         _pulled_back(1.0, 10**13, 0.6), 1.5, 10.0)),
]


@pytest.mark.parametrize("nu, grid", VARIANCES_CASES)
def test_variances_are_bitwise_variance(nu, grid, psi_calls, jacobi_reads):
    for means in (grid, grid[::-1]):
        got = [_bits(_outcome(v) if isinstance(v, CskfamError) else (v,))
               for v in csk_module.variances(nu, means)]
        assert got == [_bits(_variance(nu, m)) for m in means]
    # no Psi; a moment sequence has no Jacobi parameters to read
    assert psi_calls == []
    assert (jacobi_reads == []) == isinstance(nu, MomentSeq)


def test_variances_answer_where_the_pseudo_variance_diverges():
    # family_rows would add the pseudo-variance, which raises next to a
    # nonzero generator mean; the pulled-back means of n = 1e13 lie there
    means = [_pulled_back(1.7, 10**13, m) for m in (0.6, 0.8, 0.9)]
    for m in means:
        assert 0.0 < 1.7 - m <= _MATCH
        with pytest.raises(DomainError, match="diverges at a nonzero generator mean"):
            pseudo_variance(TWO_ATOM, m)
    assert all(isinstance(row, DomainError) for row in family_rows(TWO_ATOM, means))
    assert csk_module.variances(TWO_ATOM, means) == [variance_of(TWO_ATOM)] * 3


@pytest.mark.parametrize(
    "nu", [FP, MarchenkoPasturCentered(1.0), Semicircle(1.0, 0.5), TWO_ATOM],
    ids=lambda nu: nu.describe(),
)
def test_family_rows_on_a_grid_of_several_chunks(nu, jacobi_reads):
    lo, hi = nu.support()
    means = np.linspace(lo - 0.5, hi + 0.5, 2 * csk_module._GRID_CHUNK + 3).tolist()
    rows = family_rows(nu, means)
    # the grid's means in order, no read wider than a chunk
    assert sum(jacobi_reads, []) == means
    assert max(map(len, jacobi_reads)) <= csk_module._GRID_CHUNK < len(means)
    jacobi_reads.clear()
    assert [_bits(_outcome(row)) for row in rows] == [_bits(_row(nu, m)) for m in means]
    # an error row keeps no traceback, so the frames of its solve can go
    errors = [row for row in rows if isinstance(row, CskfamError)]
    assert errors and all(exc.__traceback__ is None for exc in errors)


#: Named densities with their closed-form variance functions (Bryc & Ismail,
#: arXiv math/0512224): V(m) = m, 1 + a*m and the variance.
NAMED_V = [pytest.param(nu, vfun, id=nu.describe()) for nu, vfun in [
    (FP, lambda m: m),
    (MarchenkoPasturCentered(1.0), lambda m: 1.0 + m),
    (MarchenkoPasturCentered(0.25), lambda m: 1.0 + 0.25 * m),
    (MarchenkoPasturCentered(0.9375), lambda m: 1.0 + 0.9375 * m),
    (Semicircle(-0.375, 1.375), lambda m: 1.375),
]]
#: The family_table ladder: shares of the way from the generator mean to
#: each end of the domain of means.
LADDER = tuple(s * (0.06 + 0.8 * k / 15) for s in (-1, 1) for k in range(16))


def _ladder(nu):
    m0, (lo, hi) = mean(nu), mean_domain(nu)
    return [m0 + f * ((hi - m0) if f > 0 else (m0 - lo)) for f in LADDER]


def _closed_form_row(m0, vfun, m):
    v = vfun(m)
    return (m - m0) / (m * (m - m0) + v), m * v / (m - m0), v


@pytest.mark.parametrize("nu, vfun", NAMED_V)
def test_named_density_ladder_is_within_the_closed_form_envelope(nu, vfun):
    # measured: 4.8e-16 (free Poisson's theta next to the lower end was
    # 1.5e-15 before its square); the quadrature root of a walk in theta
    # was within 1.5e-14
    m0, grid = mean(nu), _ladder(nu)
    for m, row in zip(grid, family_rows(nu, grid)):
        for got, want in zip(row, _closed_form_row(m0, vfun, m)):
            assert abs(got - want) <= 2e-15 * abs(want), (m, row)


#: Atomic laws, two to four atoms, with their atoms, weights and the
#: tolerance of their ladder.  The last three have a domain end within 0.08
#: of the generator mean, where the quadrature root of a walk in theta was
#: 6.7e-13, 2.0e-13 and 3.9e-13 off.
ATOMIC_LAWS = [pytest.param(atoms, weights, tol, id=",".join(f"{a:g}" for a in atoms))
               for atoms, weights, tol in [
                   ((0.5, 2.5), (0.4, 0.6), 1e-14),
                   ((-2.0, 0.25, 1.3125), (0.4375, 0.4375, 0.125), 1e-14),
                   ((0.25, 0.75, 1.5, 2.75), (0.125, 0.375, 0.25, 0.25), 1e-14),
                   ((0.125, 1.0, 1.125), (0.25, 0.5, 0.25), 1e-14),
                   ((3.625, 4.0), (0.8125, 0.1875), 1e-14),
                   ((2.5, 3.0), (0.734375, 0.265625), 1e-14),
                   # the eigenvalue route, 2.4e-14 measured
                   ((2.375, 2.9375, 3.0), (0.140625, 0.28125, 0.578125), 5e-14),
               ]]


@pytest.mark.parametrize("atoms, weights, tol", ATOMIC_LAWS)
def test_atomic_ladder_is_within_1e_14_of_the_tilted_mean_oracle(atoms, weights, tol):
    # the rows once kept the error of the quadrature root, up to 2.4e-14
    # relative; the root from the Jacobi parameters is the exact root
    nu = AtomicMeasure(atoms, weights)
    grid = _ladder(nu)
    for m, row in zip(grid, family_rows(nu, grid)):
        for got, want in zip(row, atomic_family_row(atoms, weights, m)):
            assert abs(got - want) <= tol * abs(want), (m, row)


@pytest.mark.parametrize("nu, vfun", NAMED_V)
def test_named_density_ladder_evaluates_no_psi(nu, vfun, psi_calls):
    # the walk and Brent asked about 9 theta per mean, the certificate of
    # the exact root 2; the root from the Jacobi parameters asks for none
    grid = _ladder(nu)
    rows = family_rows(nu, grid)
    assert psi_calls == []
    assert not any(isinstance(row, CskfamError) for row in rows)


@pytest.mark.parametrize("nu, end, vfun", [
    (FP, 0.0, lambda m: m),
    (Semicircle(2.0, 1.0), 1.0, lambda m: 1),  # support [0, 4]
], ids=["free_poisson", "semicircle(2,1)"])
def test_roots_next_to_a_support_edge_at_0_are_exact(nu, end, vfun):
    # alpha_1**2 = 4*omega_2: the domain of means ends at ``end``, where p*d
    # has a double root and its expanded form cancels (free Poisson's theta
    # was 6.1e-10 off, the semicircle's 1.2e-4 and its V 4.4e-12); the
    # oracle is the closed-form row in exact rationals at the float mean
    m0 = Fraction(mean(nu))
    for m in (end + np.geomspace(1e-6, 0.1)).tolist():
        theta, _, v = family_row(nu, m)
        x = Fraction(m)
        want_v = vfun(x)
        want = (x - m0) / (x * (x - m0) + want_v)
        assert abs(Fraction(theta) - want) <= 1e-15 * abs(want), m
        assert abs(Fraction(v) - want_v) <= 1e-15 * want_v, m


def _outside(lo, hi):
    """32 means below ``lo`` and 32 above ``hi``, from 1e-9 to 4 away."""
    gaps = np.geomspace(1e-9, 4.0, 32)
    return [*(lo - gaps).tolist(), *(hi + gaps).tolist()]


#: Laws, means outside their domain of means, and the refusal text below
#: and above it: the texts of the walk in theta, named from theta_range.
BELOW_UNBOUNDED, ABOVE_UNBOUNDED = "below the attainable means", "above the attainable means"
BELOW_END, ABOVE_END = "at or below the lower mean endpoint", "at or above the upper mean endpoint"
OUTSIDE = [
    pytest.param(FP, [*_outside(0.0, 2.0), 0.0, 2.0, 2.5, 3.0], BELOW_UNBOUNDED, ABOVE_END,
                 id="free_poisson"),
    pytest.param(MarchenkoPasturCentered(0.9375), [*_outside(-1.0, 1.0), -1.0, 1.0],
                 BELOW_END, ABOVE_END, id="mp_a15_16"),
    pytest.param(TWO_ATOM, [*_outside(1.0 / 1.04, 2.5), 2.5], BELOW_UNBOUNDED, ABOVE_END,
                 id="two_atom"),
    pytest.param(AtomicMeasure((-2.0, 0.25, 1.3125), (0.4375, 0.4375, 0.125)), [-2.0, -2.5, 1.5],
                 BELOW_END, ABOVE_END, id="three_atom"),
]


@pytest.mark.parametrize("nu, means, below, above", OUTSIDE)
def test_means_outside_the_domain_are_refused_without_psi(nu, means, below, above, psi_calls):
    # a walk in theta took 30-140 times as long outside the domain as inside;
    # free Poisson at 2.5 and 3 has the free Meixner quadratic's other root,
    # admissible 0.24 and 2/9, and at the atom -2 eigvalsh rounds p past it
    m0 = mean(nu)
    rows = family_rows(nu, means)
    assert psi_calls == []
    for m, row in zip(means, rows):
        assert type(row) is DomainError, (m, row)
        assert str(row) == f"m = {m:g} {above if m > m0 else below}", m


def _root_off(factor):
    return lambda theta, nu, m: theta * factor


def _root_beyond(theta, nu, m):
    lo, hi = nu.theta_range()
    end = hi if theta > 0.0 else lo
    return 2.0 * (end if math.isfinite(end) else hi)


@pytest.mark.parametrize("root", [
    lambda theta, nu, m: math.nan,
    lambda theta, nu, m: math.inf,
    _root_beyond,
    _root_off(-1.0),  # the wrong side of 0
], ids=["nan", "inf", "beyond_theta_range", "wrong_sign"])
@pytest.mark.parametrize("nu", [FP, MarchenkoPasturCentered(1.0), MarchenkoPasturCentered(0.9375),
                                Semicircle(1.0, 0.5), TWO_ATOM,
                                AtomicMeasure((-2.0, 0.25, 1.3125), (0.4375, 0.4375, 0.125))],
                         ids=lambda nu: nu.describe())
def test_an_inadmissible_root_is_refused(nu, root, monkeypatch):
    # inside the domain of means, a root that is not finite or not in
    # theta_range on the side of m - m0 is refused with the text of the
    # domain end on that side; the generator mean needs no root, and its
    # row keeps its bits
    m0 = mean(nu)
    t_lo, t_hi = nu.theta_range()
    below = BELOW_UNBOUNDED if math.isinf(t_lo) else BELOW_END
    above = ABOVE_UNBOUNDED if math.isinf(t_hi) else ABOVE_END
    grid = [*_ladder(nu), m0]
    want = _bits(_outcome(family_rows(nu, [m0])[0]))
    true_roots = csk_module._jacobi_roots

    def wrong_roots(nu_, m0_, means):
        return [root(t, nu_, m) for t, m in zip(true_roots(nu_, m0_, means), means)]

    monkeypatch.setattr(csk_module, "_jacobi_roots", wrong_roots)
    rows = family_rows(nu, grid)
    assert _bits(_outcome(rows.pop())) == want
    for m, row in zip(grid, rows):
        assert type(row) is DomainError, (m, row)
        assert str(row) == f"m = {m:g} {above if m > m0 else below}", m


#: Laws with Jacobi parameters: the constant tails of the named densities
#: (semicircle(2, 1) with its square) and of two atoms, and finite
#: matrices of three and four atoms, whose roots come from eigvalsh.
JACOBI_LAWS = [
    FP, Semicircle(0.0, 1.0), Semicircle(1.0, 2.0), Semicircle(2.0, 1.0),
    MarchenkoPasturCentered(0.3), MarchenkoPasturCentered(1.0), MarchenkoPasturCentered(-1.0),
    MarchenkoPasturCentered(-0.6), MarchenkoPasturCentered(0.9375), TWO_ATOM,
    AtomicMeasure((-2.0, 0.25, 1.3125), (0.4375, 0.4375, 0.125)),
    AtomicMeasure((0.25, 0.75, 1.5, 2.75), (0.125, 0.375, 0.25, 0.25)),
    AtomicMeasure((2.375, 2.9375, 3.0), (0.140625, 0.28125, 0.578125)),
]


@pytest.mark.parametrize("width", [1, 2, 7, 32, 64])
@pytest.mark.parametrize("nu", JACOBI_LAWS, ids=lambda nu: nu.describe())
def test_jacobi_roots_of_a_chunk_are_bitwise_the_one_mean_roots(nu, width):
    # family_rows and variances read a chunk of means at once, and a row
    # must not depend on its neighbours: numpy's stacked eigvalsh solves
    # each matrix of the stack as it solves it alone (a numpy or LAPACK
    # that breaks it fails here), and the constant tails act elementwise;
    # the grid spans both sides of the domain, with the generator mean
    m0, (lo, hi) = mean(nu), nu.support()
    means = np.linspace(lo - 0.5, hi + 0.5, width)
    means[width // 2] = m0
    means = means.tolist()
    chunk = csk_module._jacobi_roots(nu, m0, means)
    alone = [csk_module._jacobi_roots(nu, m0, [m])[0] for m in means]
    assert [x.hex() for x in chunk] == [x.hex() for x in alone]
    assert any(math.isfinite(x) for x in chunk) or width == 1


def test_family_row_inverts_the_mean_map_once_per_cli_row(monkeypatch, tmp_path):
    calls = []
    original = csk_module._roots

    def counted(nu, m0, means):
        calls.append(list(means))
        return original(nu, m0, means)

    monkeypatch.setattr(csk_module, "_roots", counted)
    spec = tmp_path / "mp.json"
    spec.write_text('{"type":"named","name":"marchenko_pastur_centered","params":{"a":0.5}}')
    result = invoke(["csk", "--spec", str(spec), "--at=-0.75:1.5:0.25"])
    assert result.exit_code == 0, result.output
    means = [-0.75 + 0.25 * i for i in range(10)]
    assert calls == [means]  # one root per row, the generator mean included


def test_moments_spec_row_solves_the_s_series_root_once(monkeypatch, tmp_path):
    calls = []
    original = csk_module._pseudo_variance_from_moments

    def counted(mseq, m):
        calls.append(m)
        return original(mseq, m)

    monkeypatch.setattr(csk_module, "_pseudo_variance_from_moments", counted)
    spec = tmp_path / "catalan.json"
    spec.write_text('{"type":"moments","values":[1,2,5,14,42,132,429,1430,4862,16796]}')
    result = invoke(["csk", "--spec", str(spec), "--at", "0.8"])
    assert result.exit_code == 0, result.output
    assert result.stdout.splitlines()[-1].split(",")[-1] == ""  # an answered row
    assert calls == [0.8]


_GOLDEN = Path(__file__).parent / "golden"
NAMED_SPECS = sorted(path for path in _GOLDEN.glob("*.json")
                     if json.loads(path.read_text(encoding="utf-8"))["type"] == "named")


@pytest.mark.parametrize("spec", NAMED_SPECS, ids=lambda path: path.stem)
def test_csk_command_on_a_named_density_integrates_nothing(spec, monkeypatch):
    # the mean-domain ends once took a quadrature G at each edge; now the
    # ends and the roots are read off the Jacobi parameters, so a csk job
    # evaluates no G and no Psi: any quadrature fails the command
    calls = []

    def no_quadrature(nu, integrand, pole=None):
        calls.append(pole)
        raise AssertionError("quadrature in a csk job")

    monkeypatch.setattr(measure_module, "integrate_pieces", no_quadrature)
    result = invoke(["csk", "--spec", str(spec), "--at=-1.5,-0.5,0,0.1,0.5,0.9,1,1.5,2,2.9,3.5"])
    assert result.exit_code == 0, result.output
    assert calls == []
    comments = [line for line in result.stdout.splitlines() if line.startswith("# mean_domain")]
    assert len(comments) == 1 and "unknown" not in comments[0]
    assert sum(line.endswith(",") for line in result.stdout.splitlines()) >= 2  # answered rows
