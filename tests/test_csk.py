"""Kernel-family machinery: mean parametrization, domains, variance laws."""

import math

import numpy as np
import pytest

from cskfam import csk as csk_module
from cskfam.csk import (
    VarianceProfile,
    affine_pseudo_variance,
    boxplus_power_variance,
    boxtimes_power_pseudo_variance,
    boxtimes_power_variance,
    bt_pseudo_variance,
    bt_variance,
    closed_form_variance,
    csk_density_weight,
    csk_family,
    k_mean,
    mean_domain,
    pseudo_variance,
    psi_mean_inverse,
    uplus_power_variance,
    variance,
)
from cskfam.errors import DomainError, InsufficientDataError, NumericError
from cskfam.measure import (
    AtomicMeasure,
    FreePoisson,
    MarchenkoPasturCentered,
    MomentSeq,
    Semicircle,
    moments,
    quadrature_integrate,
)
from cskfam.transforms import bracketed_root, cauchy_transform, psi_transform, s_transform

FP = FreePoisson()
TWO_ATOM = AtomicMeasure((0.5, 2.5), (0.4, 0.6))


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


# ---------------------------------------------------------------------------
# mean domains


def test_free_poisson_mean_domain():
    lo, hi = mean_domain(FP)
    assert lo == 0.0  # G diverges at the inverse-square-root edge
    assert abs(hi - 2.0) <= 1e-6


def test_free_poisson_upper_endpoint_direct_check():
    # m_plus = 4 - 1/G(4) with G(4) = 1/2
    g4 = cauchy_transform(FP, 4.0)
    assert abs((4.0 - 1.0 / g4) - 2.0) <= 1e-10


@pytest.mark.parametrize("a", [0.3, 0.5, 1.0, -1.0, -0.6])
def test_marchenko_pastur_mean_domain(a):
    lo, hi = mean_domain(MarchenkoPasturCentered(a))
    assert abs(lo + 1.0) <= 1e-6
    assert abs(hi - 1.0) <= 1e-6


def test_one_sided_domains():
    lo, hi = mean_domain(FP, "plus")
    assert lo == 1.0 and abs(hi - 2.0) <= 1e-6
    lo, hi = mean_domain(FP, "minus")
    assert lo == 0.0 and hi == 1.0


def test_atomic_mean_domain():
    # positive atoms, no mass at zero: m_minus = -1/G(0) > 0
    lo, hi = mean_domain(TWO_ATOM)
    g0 = cauchy_transform(TWO_ATOM, 0.0)
    assert abs(lo + 1.0 / g0) <= 1e-12
    assert abs(hi - 2.5) <= 1e-6  # atom at B makes 1/G -> 0


def test_mean_domain_rejects_moment_sequences():
    with pytest.raises(InsufficientDataError):
        mean_domain(MomentSeq((1.0, 2.0)))


def test_csk_family_descriptor():
    fam = csk_family(FP, "two_sided")
    assert fam.generator == FP
    assert fam.theta_range[0] == -math.inf
    assert fam.theta_range[1] == 0.25
    assert fam.mean_domain[0] == 0.0
    fam_minus = csk_family(FP, "minus")
    assert fam_minus.theta_range == (-math.inf, 0.0)


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


def test_w_map_strictly_increasing():
    lo, m0 = mean_domain(FP, "minus")
    grid = np.linspace(lo + 0.1, m0 - 0.1, 9)
    w = [m * m / pseudo_variance(FP, float(m)) for m in grid]
    assert all(b > a for a, b in zip(w, w[1:]))


def test_s_transform_identities_on_mean_grid():
    # S(m^2/PV(m)) * m = 1 and Psi(psi(m)) = m^2/PV(m) in (delta-1, 0)
    for nu in (FP, TWO_ATOM):
        delta = nu.zero_mass
        lo, m0 = mean_domain(nu, "minus")
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
        total = quadrature_integrate(FP, lambda x: csk_density_weight(FP, x, m))
        assert abs(total - 1.0) <= 1e-9


def test_weight_reproduces_mean():
    m = 1.5
    got = quadrature_integrate(FP, lambda x: x * csk_density_weight(FP, x, m))
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
    total = quadrature_integrate(nu, lambda x: csk_density_weight(nu, x, 0.0))
    assert abs(total - 1.0) <= 1e-5


def test_variance_matches_defining_integral():
    for m in (0.6, 1.5):
        integral = quadrature_integrate(
            FP, lambda x: (x - m) ** 2 * csk_density_weight(FP, x, m)
        )
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


# ---------------------------------------------------------------------------
# variance profiles


def test_closed_form_profiles():
    assert closed_form_variance(FP)(1.5) == 1.5
    assert closed_form_variance(MarchenkoPasturCentered(0.5))(0.4) == 1.2
    assert closed_form_variance(Semicircle(0.0, 2.0))(0.3) == 2.0
    with pytest.raises(DomainError):
        closed_form_variance(TWO_ATOM)


def test_sampled_profile_interpolates():
    profile = VarianceProfile("true", samples=((0.0, 1.0), (1.0, 2.0)))
    assert profile(0.5) == 1.5
    with pytest.raises(DomainError):
        profile(2.0)
    with pytest.raises(DomainError):
        VarianceProfile("true", samples=((0.0, 1.0), (1.0, -2.0)))
    with pytest.raises(DomainError):
        VarianceProfile("true", fn=lambda m: m, samples=((0.0, 1.0),))


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
                    pseudo_variance(seq, m)
            else:
                assert pseudo_variance(seq, m) == want
