"""Convolution calculus: cumulant dictionaries, the three convolutions,
real powers, pushforwards, and the Boolean-to-free map."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cskfam.conv import (
    BooleanCumulants,
    FreeCumulants,
    affine_image,
    boolean_cumulants_to_moments,
    boxplus,
    boxplus_power,
    boxtimes,
    boxtimes_power,
    bp_transform,
    dilate,
    free_cumulants_to_moments,
    moments_to_boolean_cumulants,
    moments_to_free_cumulants,
    uplus,
    uplus_power,
)
from cskfam.errors import DomainError, FormalPowerWarning
from cskfam.measure import AtomicMeasure, FreePoisson, MarchenkoPasturCentered, MomentSeq, moments
from cskfam.transforms import k_transform, r_transform

from oracles import (
    fuss_catalan,
    interval_boolean_cumulants_from_moments,
    interval_moments_from_boolean_cumulants,
    nc_free_cumulants_from_moments,
    nc_moments_from_free_cumulants,
    random_atomic,
)

FP_M = moments(FreePoisson(), 8)


def delta_moments(a: float, order: int = 8) -> MomentSeq:
    return MomentSeq(tuple(a**n for n in range(1, order + 1)))


# ---------------------------------------------------------------------------
# cumulant dictionaries


def test_free_cumulants_point_mass():
    got = moments_to_free_cumulants(delta_moments(1.7, 4))
    np.testing.assert_allclose(got.values, [1.7, 0.0, 0.0, 0.0], atol=1e-12)


def test_free_cumulants_semicircle():
    got = moments_to_free_cumulants(MomentSeq((0.0, 1.0, 0.0, 2.0)))
    np.testing.assert_allclose(got.values, [0.0, 1.0, 0.0, 0.0], atol=1e-12)


def test_free_cumulants_free_poisson():
    got = moments_to_free_cumulants(MomentSeq((1.0, 2.0, 5.0, 14.0)))
    np.testing.assert_allclose(got.values, [1.0, 1.0, 1.0, 1.0], atol=1e-12)


def test_free_cumulants_to_moments_examples():
    np.testing.assert_allclose(
        free_cumulants_to_moments(FreeCumulants((1.7, 0.0, 0.0, 0.0))).values,
        delta_moments(1.7, 4).values,
        atol=1e-12,
    )
    np.testing.assert_allclose(
        free_cumulants_to_moments(FreeCumulants((0.0, 1.0, 0.0, 0.0))).values,
        [0.0, 1.0, 0.0, 2.0],
        atol=1e-12,
    )
    np.testing.assert_allclose(
        free_cumulants_to_moments(FreeCumulants((1.0, 1.0, 1.0, 1.0))).values,
        [1.0, 2.0, 5.0, 14.0],
        atol=1e-12,
    )


def test_boolean_cumulants_examples():
    got = moments_to_boolean_cumulants(delta_moments(1.3, 5))
    np.testing.assert_allclose(got.values, [1.3, 0.0, 0.0, 0.0, 0.0], atol=1e-12)
    # symmetric two atoms: K(z) = 1/z
    sym = moments(AtomicMeasure((-1.0, 1.0), (0.5, 0.5)), 4)
    got = moments_to_boolean_cumulants(sym)
    np.testing.assert_allclose(got.values, [0.0, 1.0, 0.0, 0.0], atol=1e-14)
    # free Poisson: b1 = 1, b2 = Var = 1, b3 = 2 by series division
    got = moments_to_boolean_cumulants(FP_M)
    np.testing.assert_allclose(got.values[:4], [1.0, 1.0, 2.0, 5.0], atol=1e-12)


def test_cumulant_round_trips():
    rng = np.random.default_rng(11)
    for _ in range(20):
        atoms, weights = random_atomic(rng)
        m = moments(AtomicMeasure(atoms, weights), 8)
        back_free = free_cumulants_to_moments(moments_to_free_cumulants(m))
        np.testing.assert_allclose(back_free.values, m.values, atol=1e-10)
        back_bool = boolean_cumulants_to_moments(moments_to_boolean_cumulants(m))
        np.testing.assert_allclose(back_bool.values, m.values, atol=1e-10)


def test_partition_oracles_small_cases():
    kappa = [0.5, -0.3, 0.2, 0.1, 0.0, 0.05]
    m = free_cumulants_to_moments(FreeCumulants(tuple(kappa)))
    oracle = nc_moments_from_free_cumulants(kappa, 6)
    np.testing.assert_allclose(m.values, oracle, atol=1e-12)
    b = [0.5, -0.3, 0.2, 0.1, 0.0, 0.05]
    m2 = boolean_cumulants_to_moments(BooleanCumulants(tuple(b)))
    oracle2 = interval_moments_from_boolean_cumulants(b, 6)
    np.testing.assert_allclose(m2.values, oracle2, atol=1e-12)


# ---------------------------------------------------------------------------
# additive convolutions


def test_boxplus_translates_point_masses():
    got = boxplus(delta_moments(1.2), delta_moments(-0.7))
    np.testing.assert_allclose(got.values, delta_moments(0.5).values, atol=1e-11)


def test_boxplus_identity_element():
    got = boxplus(FP_M, delta_moments(0.0))
    np.testing.assert_allclose(got.values, FP_M.values, atol=1e-12)


def test_boxplus_power_semicircle():
    sc = MomentSeq((0.0, 1.0, 0.0, 2.0))
    got = boxplus_power(sc, 2.0)
    np.testing.assert_allclose(got.values, [0.0, 2.0, 0.0, 8.0], atol=1e-12)


def test_boxplus_requires_equal_orders():
    with pytest.raises(DomainError):
        boxplus(MomentSeq((1.0, 2.0)), MomentSeq((1.0, 2.0, 5.0)))


def test_uplus_translates_point_masses():
    got = uplus(delta_moments(1.2), delta_moments(-0.7))
    np.testing.assert_allclose(got.values, delta_moments(0.5).values, atol=1e-12)


def test_uplus_symmetric_two_atom_power():
    # K doubles: the result is the symmetric two-point law at +-sqrt(2)
    sym = moments(AtomicMeasure((-1.0, 1.0), (0.5, 0.5)), 4)
    got = uplus_power(sym, 2.0)
    np.testing.assert_allclose(got.values, [0.0, 2.0, 0.0, 4.0], atol=1e-13)


def test_uplus_identity_element():
    got = uplus(FP_M, delta_moments(0.0))
    np.testing.assert_allclose(got.values, FP_M.values, atol=1e-12)


def test_uplus_power_mean_scales():
    got = uplus_power(FP_M, 5.0)
    assert abs(got.values[0] - 5.0) <= 1e-12


def test_additive_means():
    rng = np.random.default_rng(3)
    a = moments(AtomicMeasure(*random_atomic(rng)), 6)
    b = moments(AtomicMeasure(*random_atomic(rng)), 6)
    assert abs(boxplus(a, b).values[0] - (a.values[0] + b.values[0])) <= 1e-12
    assert abs(uplus(a, b).values[0] - (a.values[0] + b.values[0])) <= 1e-12


def test_additivity_against_transform_oracle():
    # moment-level convolutions must agree with the defining additive
    # identities of the analytic R and K transforms on sampled points
    mu = AtomicMeasure((0.4, 1.6), (0.35, 0.65))
    nu = AtomicMeasure((0.8, 2.2), (0.5, 0.5))
    order = 14
    ma, mb = moments(mu, order), moments(nu, order)

    karr = np.asarray(moments_to_free_cumulants(boxplus(ma, mb)).values)
    for z in (0.04, -0.05, 0.08):
        r_series = sum(k * z**i for i, k in enumerate(karr))
        analytic = r_transform(mu, z) + r_transform(nu, z)
        assert abs(r_series - analytic) <= 1e-8

    barr = np.asarray(moments_to_boolean_cumulants(uplus(ma, mb)).values)
    for z in (15.0, -12.0, 20.0):
        k_series = sum(b / z ** (i - 1) for i, b in enumerate(barr, start=1))
        analytic = k_transform(mu, z).real + k_transform(nu, z).real
        assert abs(k_series - analytic) <= 1e-8


# ---------------------------------------------------------------------------
# multiplicative convolution


def test_boxtimes_dilates_by_point_mass():
    a = 1.5
    got = boxtimes(FP_M, delta_moments(a))
    want = [v * a**n for n, v in enumerate(FP_M.values, 1)]
    np.testing.assert_allclose(got.values, want, rtol=1e-11)


def test_boxtimes_identity_element():
    got = boxtimes(FP_M, delta_moments(1.0))
    np.testing.assert_allclose(got.values, FP_M.values, rtol=1e-12)


def test_boxtimes_power_fuss_catalan():
    m40 = moments(FreePoisson(), 40)
    for p in (2, 3):
        got = boxtimes_power(m40, float(p))
        want = [fuss_catalan(p, n) for n in range(1, 9)]
        np.testing.assert_allclose(got.values[:8], want, rtol=1e-10)
    got2 = boxtimes_power(moments(FreePoisson(), 8), 2.0)
    assert got2.values[:4] == (1.0, 3.0, 12.0, 55.0)


def test_boxtimes_power_fuss_catalan_order_160():
    # every order of the 160-term reversion, including the top ones where
    # roundoff in the reverted series piles up
    got = np.asarray(boxtimes_power(moments(FreePoisson(), 160), 2.0).values)
    want = np.array([fuss_catalan(2, n) for n in range(1, 161)])
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)


def test_boxtimes_power_integer_equals_repeated_boxtimes():
    got = boxtimes_power(FP_M, 2.0)
    alt = boxtimes(FP_M, FP_M)
    np.testing.assert_allclose(got.values, alt.values, rtol=1e-10)


def test_boxtimes_zero_mean_rejected():
    sym = MomentSeq((0.0, 1.0, 0.0, 2.0))
    with pytest.raises(DomainError):
        boxtimes(sym, MomentSeq(FP_M.values[:4]))
    with pytest.raises(DomainError):
        boxtimes_power(sym, 2.0)


def test_boxtimes_commutative_associative():
    rng = np.random.default_rng(17)
    for _ in range(10):
        a = moments(AtomicMeasure(*random_atomic(rng, positive=True)), 8)
        b = moments(AtomicMeasure(*random_atomic(rng, positive=True)), 8)
        c = moments(AtomicMeasure(*random_atomic(rng, positive=True)), 8)
        np.testing.assert_allclose(
            boxtimes(a, b).values, boxtimes(b, a).values, atol=1e-10, rtol=1e-10
        )
        lhs = boxtimes(boxtimes(a, b), c)
        rhs = boxtimes(a, boxtimes(b, c))
        np.testing.assert_allclose(lhs.values, rhs.values, atol=1e-10, rtol=1e-9)


def test_multiplicative_means():
    rng = np.random.default_rng(23)
    a = moments(AtomicMeasure(*random_atomic(rng, positive=True)), 6)
    b = moments(AtomicMeasure(*random_atomic(rng, positive=True)), 6)
    assert abs(boxtimes(a, b).values[0] - a.values[0] * b.values[0]) <= 1e-12
    for alpha in (2.0, 2.5):
        got = boxtimes_power(a, alpha)
        assert abs(got.values[0] - a.values[0] ** alpha) <= 1e-12


def test_formal_power_warnings():
    with pytest.warns(FormalPowerWarning):
        boxplus_power(FP_M, 0.5)
    with pytest.warns(FormalPowerWarning):
        boxtimes_power(FP_M, 0.5)
    with pytest.raises(DomainError):
        boxplus_power(FP_M, -1.0)
    with pytest.raises(DomainError):
        uplus_power(FP_M, 0.0)
    with pytest.raises(DomainError):
        boxtimes_power(FP_M, -2.0)


def test_noninteger_power_of_negative_mean_rejected():
    neg = moments(AtomicMeasure((-2.0, -0.5), (0.5, 0.5)), 6)
    with pytest.raises(DomainError):
        boxtimes_power(neg, 1.5)
    boxtimes_power(neg, 2.0)  # integer power stays on the real branch


# ---------------------------------------------------------------------------
# dilation, affine images, Boolean-to-free map


def test_dilate_identity_and_scaling():
    np.testing.assert_allclose(dilate(FP_M, 1.0).values, FP_M.values, atol=0)
    got = dilate(MomentSeq((1.0, 2.0, 5.0, 14.0)), 2.0)
    np.testing.assert_allclose(got.values, [2.0, 8.0, 40.0, 224.0], atol=0)


def test_dilate_round_trip():
    got = dilate(dilate(FP_M, 3.0), 1.0 / 3.0)
    np.testing.assert_allclose(got.values, FP_M.values, rtol=1e-14)


def test_dilate_rejects_zero():
    with pytest.raises(DomainError):
        dilate(FP_M, 0.0)


def test_affine_identity():
    got = affine_image(FP_M, 1.0, 0.0)
    np.testing.assert_allclose(got.values, FP_M.values, atol=0)


def test_affine_point_mass():
    got = affine_image(delta_moments(3.0), 2.0, 1.0)
    np.testing.assert_allclose(got.values, delta_moments(1.0).values, atol=1e-13)


def test_affine_shift_of_centered_mp_is_free_poisson():
    # image of the centered a=1 law under x -> x + 1, i.e. beta=1, lam=-1
    m = moments(MarchenkoPasturCentered(1.0), 8)
    got = affine_image(m, 1.0, -1.0)
    np.testing.assert_allclose(got.values, FP_M.values, atol=1e-11)


def test_affine_rejects_zero_beta():
    with pytest.raises(DomainError):
        affine_image(FP_M, 0.0, 1.0)


def test_bp_identity_at_zero():
    assert bp_transform(FP_M, 0.0).values == FP_M.values


def test_bp_semigroup():
    lhs = bp_transform(bp_transform(FP_M, 1.0), 1.0)
    rhs = bp_transform(FP_M, 2.0)
    np.testing.assert_allclose(lhs.values, rhs.values, atol=1e-10)


def test_bp_rejects_negative_t():
    with pytest.raises(DomainError):
        bp_transform(FP_M, -0.5)


# ---------------------------------------------------------------------------
# oracle equivalence on random atomic measures (hypothesis-style seeds)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_cumulants_match_partition_oracles(seed):
    rng = np.random.default_rng(seed)
    atoms, weights = random_atomic(rng)
    m = moments(AtomicMeasure(atoms, weights), 8)
    got_free = moments_to_free_cumulants(m).values
    want_free = nc_free_cumulants_from_moments(list(m.values), 8)
    np.testing.assert_allclose(got_free, want_free, atol=1e-9)
    got_bool = moments_to_boolean_cumulants(m).values
    want_bool = interval_boolean_cumulants_from_moments(list(m.values), 8)
    np.testing.assert_allclose(got_bool, want_bool, atol=1e-9)
