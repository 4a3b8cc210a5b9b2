"""Transform stack: point evaluation, inversions, and the series dictionary."""

import math

import numpy as np
import pytest

from cskfam.errors import (
    DomainError,
    InsufficientDataError,
    SingularityError,
    TruncationAccuracyWarning,
)
from cskfam.measure import (
    AtomicMeasure,
    FreePoisson,
    MarchenkoPasturCentered,
    MomentSeq,
    Semicircle,
    moments,
    quadrature_integrate,
)
from cskfam.series import TruncatedSeries
from cskfam.transforms import (
    cauchy_transform,
    chi_inverse,
    k_transform,
    laurent_trust_radius,
    m_transform,
    psi_transform,
    r_transform,
    s_series,
    s_series_to_moments,
    s_transform,
    sigma_series_to_s_series,
    sigma_transform,
    theta_range,
)

from oracles import lagrange_revert

FP = FreePoisson()
TWO_ATOM = AtomicMeasure((0.0, 2.0), (0.5, 0.5))


# ---------------------------------------------------------------------------
# Cauchy transform


def test_g_point_mass():
    nu = AtomicMeasure((1.5,), (1.0,))
    for z in (3.0, -2.0, 1j):
        assert abs(cauchy_transform(nu, z) - 1.0 / (z - 1.5)) <= 1e-15


def test_g_two_atoms_at_3():
    assert abs(cauchy_transform(TWO_ATOM, 3.0) - 2.0 / 3.0) <= 1e-15


def test_g_free_poisson_at_4():
    assert abs(cauchy_transform(FP, 4.0) - 0.5) <= 1e-11


def test_g_singularity_errors():
    with pytest.raises(SingularityError):
        cauchy_transform(TWO_ATOM, 2.0)
    with pytest.raises(SingularityError):
        cauchy_transform(FP, 1.0)


def test_g_conjugate_symmetry():
    rng = np.random.default_rng(5)
    for nu in (FP, Semicircle(0.0, 1.0), TWO_ATOM):
        for _ in range(5):
            z = complex(rng.uniform(-3, 6), rng.uniform(0.2, 4))
            a = cauchy_transform(nu, z.conjugate())
            b = cauchy_transform(nu, z)
            assert abs(a - b.conjugate()) <= 1e-9


def test_g_nevanlinna_property():
    rng = np.random.default_rng(6)
    for nu in (FP, MarchenkoPasturCentered(0.5), TWO_ATOM):
        for _ in range(8):
            z = complex(rng.uniform(-4, 7), rng.uniform(0.1, 5))
            assert cauchy_transform(nu, z).imag < 0.0


def test_g_large_z_decay():
    # z*G(z) - 1 equals the integral of x/(z-x), computed directly so the
    # quadrature noise is not amplified by |z|
    z = 1e6j
    for nu in (Semicircle(0.0, 1.0), MarchenkoPasturCentered(0.5)):
        val = quadrature_integrate(nu, lambda x: x / (z - x))
        assert abs(val) <= 1e-6
    val = quadrature_integrate(FP, lambda x: x / (z - x))
    assert abs(val) <= 1e-6  # ~ m1/|z| with a negative next-order correction


def test_g_moment_sequence_laurent():
    nu = MomentSeq(moments(FP, 20).values)
    radius = laurent_trust_radius(nu)
    z = 2.0 * radius
    truncated = cauchy_transform(nu, z)
    exact = cauchy_transform(FP, z)
    assert abs(truncated - exact) <= 1e-12
    with pytest.warns(TruncationAccuracyWarning):
        cauchy_transform(nu, 0.9 * radius)


# ---------------------------------------------------------------------------
# M and Psi


def test_m_at_zero():
    assert m_transform(FP, 0.0) == 1.0


def test_m_point_mass():
    nu = AtomicMeasure((1.5,), (1.0,))
    theta = 0.25
    assert abs(m_transform(nu, theta) - 1.0 / (1.0 - theta * 1.5)) <= 1e-14


def test_m_matches_g_crosscheck():
    theta = 1.0 / 8.0
    lhs = m_transform(FP, theta)
    rhs = cauchy_transform(FP, 8.0) * 8.0
    assert abs(lhs - rhs) <= 1e-10


def test_m_theta_range_enforced():
    assert theta_range(FP) == (-math.inf, 0.25)
    with pytest.raises(DomainError):
        m_transform(FP, 0.3)
    with pytest.raises(DomainError):
        m_transform(AtomicMeasure((-2.0, 1.0), (0.5, 0.5)), -0.7)


def test_psi_zero():
    assert psi_transform(FP, 0.0) == 0.0


def test_psi_point_mass():
    nu = AtomicMeasure((1.5,), (1.0,))
    z = -0.8
    assert abs(psi_transform(nu, z) - z * 1.5 / (1.0 - z * 1.5)) <= 1e-14


def test_psi_g_identity():
    for nu in (FP, TWO_ATOM):
        for z in (-0.1, -1.0, -7.5):
            lhs = psi_transform(nu, z)
            rhs = cauchy_transform(nu, 1.0 / z) / z - 1.0
            assert abs(lhs - rhs) <= 1e-10


def test_psi_off_the_real_axis():
    z = complex(-0.5, 0.3)
    for nu in (FP, TWO_ATOM):
        want = quadrature_integrate(nu, lambda x: z * x / (1.0 - z * x))
        assert abs(psi_transform(nu, z) - want) <= 1e-10


def test_psi_free_poisson_range():
    val = psi_transform(FP, -1.0).real
    assert -1.0 < val < 0.0


def test_psi_requires_positive_measure():
    with pytest.raises(DomainError):
        psi_transform(Semicircle(0.0, 1.0), -0.5)


# ---------------------------------------------------------------------------
# chi, S, Sigma


def test_chi_point_mass_algebraic():
    # Psi(z) = z/(1-z) for a unit mass at 1, so chi(-1/2) = -1
    nu = AtomicMeasure((1.0,), (1.0,))
    assert abs(chi_inverse(nu, -0.5) + 1.0) <= 1e-12


def test_chi_round_trip():
    for nu in (FP, TWO_ATOM, AtomicMeasure((0.5, 2.5), (0.4, 0.6))):
        delta = nu.zero_mass
        for w in np.linspace(delta - 0.95, -0.05, 7):
            z = chi_inverse(nu, float(w))
            assert z < 0.0
            assert abs(psi_transform(nu, z).real - w) <= 1e-10


def test_chi_free_poisson_bisection_oracle():
    w = -0.5
    z = chi_inverse(FP, w)
    lo, hi = -10.0, -1e-12
    for _ in range(100):  # plain bisection as an independent oracle
        mid = 0.5 * (lo + hi)
        if psi_transform(FP, mid).real < w:
            lo = mid
        else:
            hi = mid
    assert abs(z - 0.5 * (lo + hi)) <= 1e-10


def test_chi_domain_errors():
    with pytest.raises(DomainError):
        chi_inverse(FP, 0.5)
    with pytest.raises(DomainError):
        chi_inverse(FP, -1.5)
    with pytest.raises(DomainError):
        chi_inverse(TWO_ATOM, -0.7)  # delta = 1/2 shrinks the interval


def test_s_point_mass_constant():
    nu = AtomicMeasure((2.0,), (1.0,))
    for w in (-0.9, -0.5, -0.1):
        assert abs(s_transform(nu, w) - 0.5) <= 1e-12


def test_s_free_poisson_at_small_w():
    # S -> 1/m0 = 1 as w -> 0-
    assert abs(s_transform(FP, -1e-8) - 1.0) <= 1e-6


def test_s_free_poisson_exceeds_one_on_interval():
    val = s_transform(FP, -0.5)
    assert val > 1.0  # S decreasing with S(0-) = 1/m0 = 1


def test_s_vanishing_tail():
    for nu in (FP, AtomicMeasure((0.5, 2.5), (0.4, 0.6))):
        vals = [abs(w * s_transform(nu, w)) for w in (-1e-2, -1e-4, -1e-6)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] <= 1e-5


def test_sigma_is_s_precomposed():
    for z in (-0.5, -1.0, -3.0):
        assert abs(sigma_transform(FP, z) - s_transform(FP, z / (1.0 - z))) <= 1e-12


def test_sigma_point_mass_constant():
    nu = AtomicMeasure((2.0,), (1.0,))
    assert abs(sigma_transform(nu, -1.0) - 0.5) <= 1e-12


def test_sigma_domain_error():
    with pytest.raises(DomainError):
        sigma_transform(FP, 0.7)  # z/(1-z) > 0 is outside (delta-1, 0)


# ---------------------------------------------------------------------------
# R and K


def test_r_point_mass_constant():
    nu = AtomicMeasure((1.5,), (1.0,))
    for z in (0.2, -0.3):
        assert abs(r_transform(nu, z) - 1.5) <= 1e-10


def test_r_semicircle_small_z():
    # R(z) = z for the unit semicircle
    for z in (0.05, -0.08, 0.2):
        assert abs(r_transform(Semicircle(0.0, 1.0), z) - z) <= 1e-8


def test_r_free_poisson_series_oracle():
    # free cumulants all 1: R(z) = 1/(1-z) up to the truncation order
    for z in (0.05, -0.07):
        assert abs(r_transform(FP, z) - 1.0 / (1.0 - z)) <= 1e-8


def test_r_no_preimage():
    with pytest.raises(DomainError):
        r_transform(Semicircle(0.0, 1.0), 3.0)  # G maps (2, inf) to (0, 1)


def test_r_rejects_zero():
    with pytest.raises(DomainError):
        r_transform(FP, 0.0)


def test_k_point_mass_constant():
    nu = AtomicMeasure((2.0,), (1.0,))
    assert abs(k_transform(nu, 5.0) - 2.0) <= 1e-14


def test_k_symmetric_two_atoms():
    # G(z) = z/(z**2-1) so K(z) = 1/z
    nu = AtomicMeasure((-1.0, 1.0), (0.5, 0.5))
    for z in (3.0, -2.5, 2j):
        assert abs(k_transform(nu, z) - 1.0 / z) <= 1e-12


def test_k_semicircle_at_2():
    assert abs(k_transform(Semicircle(0.0, 1.0), 2.0) - 1.0) <= 1e-9


def test_k_singularity():
    nu = AtomicMeasure((-1.0, 1.0), (0.5, 0.5))
    with pytest.raises(SingularityError):
        k_transform(nu, 0.0)  # G(0) = 0 for the symmetric measure


# ---------------------------------------------------------------------------
# series dictionary


def test_s_series_point_mass():
    m = moments(AtomicMeasure((1.0,), (1.0,)), 8)
    got = s_series(m)
    np.testing.assert_allclose(got.coeffs, [1.0] + [0.0] * 7, atol=1e-12)


def test_s_series_free_poisson_alternating():
    got = s_series(moments(FP, 10))
    np.testing.assert_allclose(got.coeffs, [(-1.0) ** n for n in range(10)], atol=1e-11)


def test_s_series_dilation_scales():
    m = moments(FP, 8)
    r = 2.0
    dilated = MomentSeq(tuple(v * r**n for n, v in enumerate(m.values, 1)))
    np.testing.assert_allclose(
        np.asarray(s_series(dilated).coeffs),
        np.asarray(s_series(m).coeffs) / r,
        atol=1e-11,
    )


def test_s_series_requires_nonzero_mean():
    with pytest.raises(DomainError):
        s_series(MomentSeq((0.0, 1.0, 0.0)))


def test_s_series_round_trip():
    m = moments(FP, 12)
    back = s_series_to_moments(s_series(m), 12)
    np.testing.assert_allclose(back.values, m.values, rtol=1e-12)


def test_s_series_to_moments_requires_order():
    with pytest.raises(InsufficientDataError):
        s_series_to_moments(TruncatedSeries((1.0, -1.0)), 5)


def test_analytic_vs_series_s_transform():
    s_poly = np.asarray(s_series(moments(FP, 40)).coeffs)[::-1]
    for w in (-0.02, -0.05, -0.1):
        series_val = float(np.polyval(s_poly, w))
        assert abs(s_transform(FP, w) - series_val) <= 1e-6


def test_sigma_series_conversion():
    # Sigma series of the free Poisson law: S(w) = 1/(1+w) means
    # Sigma(z) = S(z/(1-z)) = 1-z
    s = TruncatedSeries(tuple((-1.0) ** n for n in range(8)))
    sigma = sigma_series_to_s_series(TruncatedSeries((1.0, -1.0) + (0.0,) * 6))
    np.testing.assert_allclose(sigma.coeffs, s.coeffs, atol=1e-12)


def test_lagrange_oracle_agrees_with_s_series():
    # independent Lagrange-inversion path from moments to the S series
    m = moments(FP, 10)
    psi = np.concatenate(([0.0], m.values))
    chi = lagrange_revert(psi)
    one_plus = np.zeros(10)
    one_plus[:2] = 1.0
    oracle = np.convolve(chi[1:], one_plus)[:10]
    np.testing.assert_allclose(np.asarray(s_series(m).coeffs), oracle, atol=1e-10)
