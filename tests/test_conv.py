"""Convolution calculus: cumulant dictionaries, the three convolutions,
real powers, pushforwards, and the Boolean-to-free map."""

import math
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cskfam.conv import (
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
from cskfam import conv, transforms
from cskfam.errors import DomainError, FormalPowerWarning, InsufficientDataError, NumericError
from cskfam.measure import (
    AtomicMeasure,
    DensityMeasure,
    FreePoisson,
    MarchenkoPasturCentered,
    MomentSeq,
    Semicircle,
    moments,
)
from cskfam.series import jacobi_moments, ps_mul, ps_reciprocal, ps_revert
from cskfam.transforms import k_transform, r_transform, s_series, s_series_to_moments

from oracles import (
    boolean_power_moments,
    boxtimes_power_moments,
    catalan,
    free_poisson_moments,
    free_power_moments,
    fuss_catalan,
    interval_boolean_cumulants_from_moments,
    interval_moments_from_boolean_cumulants,
    nc_free_cumulants_from_moments,
    mp_centered_moments,
    jacobi_path_moments,
    nc_moments_from_free_cumulants,
    random_atomic,
    s_of_moments,
    semicircle_moments,
    series_revert,
)

FP_M = moments(FreePoisson(), 8)


def delta_moments(a: float, order: int = 8) -> MomentSeq:
    return MomentSeq(tuple(a**n for n in range(1, order + 1)))


# ---------------------------------------------------------------------------
# cumulant dictionaries


def test_free_cumulants_point_mass():
    got = moments_to_free_cumulants(delta_moments(1.7, 4))
    np.testing.assert_allclose(got, [1.7, 0.0, 0.0, 0.0], atol=1e-12)


def test_free_cumulants_semicircle():
    got = moments_to_free_cumulants(MomentSeq((0.0, 1.0, 0.0, 2.0)))
    np.testing.assert_allclose(got, [0.0, 1.0, 0.0, 0.0], atol=1e-12)


def test_free_cumulants_free_poisson():
    got = moments_to_free_cumulants(MomentSeq((1.0, 2.0, 5.0, 14.0)))
    np.testing.assert_allclose(got, [1.0, 1.0, 1.0, 1.0], atol=1e-12)


def test_free_cumulants_to_moments_examples():
    np.testing.assert_allclose(
        free_cumulants_to_moments((1.7, 0.0, 0.0, 0.0)).values,
        delta_moments(1.7, 4).values,
        atol=1e-12,
    )
    np.testing.assert_allclose(
        free_cumulants_to_moments((0.0, 1.0, 0.0, 0.0)).values,
        [0.0, 1.0, 0.0, 2.0],
        atol=1e-12,
    )
    np.testing.assert_allclose(
        free_cumulants_to_moments((1.0, 1.0, 1.0, 1.0)).values,
        [1.0, 2.0, 5.0, 14.0],
        atol=1e-12,
    )


def test_boolean_cumulants_examples():
    got = moments_to_boolean_cumulants(delta_moments(1.3, 5))
    np.testing.assert_allclose(got, [1.3, 0.0, 0.0, 0.0, 0.0], atol=1e-12)
    # symmetric two atoms: K(z) = 1/z
    sym = moments(AtomicMeasure((-1.0, 1.0), (0.5, 0.5)), 4)
    got = moments_to_boolean_cumulants(sym)
    np.testing.assert_allclose(got, [0.0, 1.0, 0.0, 0.0], atol=1e-14)
    # free Poisson: b1 = 1, b2 = Var = 1, b3 = 2 by series division
    got = moments_to_boolean_cumulants(FP_M)
    np.testing.assert_allclose(got[:4], [1.0, 1.0, 2.0, 5.0], atol=1e-12)


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
    m = free_cumulants_to_moments(tuple(kappa))
    oracle = nc_moments_from_free_cumulants(kappa, 6)
    np.testing.assert_allclose(m.values, oracle, atol=1e-12)
    b = [0.5, -0.3, 0.2, 0.1, 0.0, 0.05]
    m2 = boolean_cumulants_to_moments(tuple(b))
    oracle2 = interval_moments_from_boolean_cumulants(b, 6)
    np.testing.assert_allclose(m2.values, oracle2, atol=1e-12)


# ---------------------------------------------------------------------------
# additive convolutions


def test_boxplus_translates_point_masses():
    got = boxplus(delta_moments(1.2), delta_moments(-0.7), 8)
    np.testing.assert_allclose(got.values, delta_moments(0.5).values, atol=1e-11)


def test_boxplus_identity_element():
    got = boxplus(FP_M, delta_moments(0.0), 8)
    np.testing.assert_allclose(got.values, FP_M.values, atol=1e-12)


def test_boxplus_power_semicircle():
    sc = MomentSeq((0.0, 1.0, 0.0, 2.0))
    got = boxplus_power(sc, 2.0, 4)
    np.testing.assert_allclose(got.values, [0.0, 2.0, 0.0, 8.0], atol=1e-12)


@pytest.mark.parametrize("op", [boxplus, uplus, boxtimes], ids=lambda op: op.__name__)
def test_pair_op_order_above_a_moment_sequence_is_refused(op):
    # one order for both operands; a moment list cannot supply more than it stores
    with pytest.raises(InsufficientDataError):
        op(MomentSeq((1.0, 2.0)), MomentSeq((1.0, 2.0, 5.0)), 3)
    with pytest.raises(InsufficientDataError):
        op(FreePoisson(), MomentSeq((1.0, 2.0)), 3)


def test_uplus_translates_point_masses():
    got = uplus(delta_moments(1.2), delta_moments(-0.7), 8)
    np.testing.assert_allclose(got.values, delta_moments(0.5).values, atol=1e-12)


def test_uplus_symmetric_two_atom_power():
    # K doubles: the result is the symmetric two-point law at +-sqrt(2)
    sym = moments(AtomicMeasure((-1.0, 1.0), (0.5, 0.5)), 4)
    got = uplus_power(sym, 2.0, 4)
    np.testing.assert_allclose(got.values, [0.0, 2.0, 0.0, 4.0], atol=1e-13)


def test_uplus_identity_element():
    got = uplus(FP_M, delta_moments(0.0), 8)
    np.testing.assert_allclose(got.values, FP_M.values, atol=1e-12)


def test_uplus_power_mean_scales():
    got = uplus_power(FP_M, 5.0, 8)
    assert abs(got.values[0] - 5.0) <= 1e-12


def test_additive_means():
    rng = np.random.default_rng(3)
    a = moments(AtomicMeasure(*random_atomic(rng)), 6)
    b = moments(AtomicMeasure(*random_atomic(rng)), 6)
    assert abs(boxplus(a, b, 6).values[0] - (a.values[0] + b.values[0])) <= 1e-12
    assert abs(uplus(a, b, 6).values[0] - (a.values[0] + b.values[0])) <= 1e-12


def test_additivity_against_transform_oracle():
    # moment-level convolutions must agree with the defining additive
    # identities of the analytic R and K transforms on sampled points
    mu = AtomicMeasure((0.4, 1.6), (0.35, 0.65))
    nu = AtomicMeasure((0.8, 2.2), (0.5, 0.5))
    order = 14
    ma, mb = moments(mu, order), moments(nu, order)

    karr = np.asarray(moments_to_free_cumulants(boxplus(ma, mb, order)))
    for z in (0.04, -0.05, 0.08):
        r_series = sum(k * z**i for i, k in enumerate(karr))
        analytic = r_transform(mu, z) + r_transform(nu, z)
        assert abs(r_series - analytic) <= 1e-8

    barr = np.asarray(moments_to_boolean_cumulants(uplus(ma, mb, order)))
    for z in (15.0, -12.0, 20.0):
        k_series = sum(b / z ** (i - 1) for i, b in enumerate(barr, start=1))
        analytic = k_transform(mu, z).real + k_transform(nu, z).real
        assert abs(k_series - analytic) <= 1e-8


# ---------------------------------------------------------------------------
# multiplicative convolution


def test_boxtimes_dilates_by_point_mass():
    a = 1.5
    got = boxtimes(FP_M, delta_moments(a), 8)
    want = [v * a**n for n, v in enumerate(FP_M.values, 1)]
    np.testing.assert_allclose(got.values, want, rtol=1e-11)


def test_boxtimes_identity_element():
    got = boxtimes(FP_M, delta_moments(1.0), 8)
    np.testing.assert_allclose(got.values, FP_M.values, rtol=1e-12)


def test_boxtimes_power_fuss_catalan():
    m40 = moments(FreePoisson(), 40)
    for p in (2, 3):
        got = boxtimes_power(m40, float(p), 40)
        want = [fuss_catalan(p, n) for n in range(1, 9)]
        np.testing.assert_allclose(got.values[:8], want, rtol=1e-10)
    got2 = boxtimes_power(moments(FreePoisson(), 8), 2.0, 8)
    assert got2.values[:4] == (1.0, 3.0, 12.0, 55.0)


def test_boxtimes_power_fuss_catalan_order_160():
    # every order of the 160-term reversion, including the top ones where
    # roundoff in the reverted series piles up
    got = np.asarray(boxtimes_power(moments(FreePoisson(), 160), 2.0, 160).values)
    want = np.array([fuss_catalan(2, n) for n in range(1, 161)])
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)


def test_boxtimes_power_integer_equals_repeated_boxtimes():
    got = boxtimes_power(FP_M, 2.0, 8)
    alt = boxtimes(FP_M, FP_M, 8)
    np.testing.assert_allclose(got.values, alt.values, rtol=1e-10)


def test_boxtimes_zero_mean_rejected():
    sym = MomentSeq((0.0, 1.0, 0.0, 2.0))
    with pytest.raises(DomainError):
        boxtimes(sym, MomentSeq(FP_M.values[:4]), 4)
    with pytest.raises(DomainError):
        boxtimes_power(sym, 2.0, 4)


def test_boxtimes_commutative_associative():
    rng = np.random.default_rng(17)
    for _ in range(10):
        a = moments(AtomicMeasure(*random_atomic(rng, positive=True)), 8)
        b = moments(AtomicMeasure(*random_atomic(rng, positive=True)), 8)
        c = moments(AtomicMeasure(*random_atomic(rng, positive=True)), 8)
        np.testing.assert_allclose(
            boxtimes(a, b, 8).values, boxtimes(b, a, 8).values, atol=1e-10, rtol=1e-10
        )
        lhs = boxtimes(boxtimes(a, b, 8), c, 8)
        rhs = boxtimes(a, boxtimes(b, c, 8), 8)
        np.testing.assert_allclose(lhs.values, rhs.values, atol=1e-10, rtol=1e-9)


def test_multiplicative_means():
    rng = np.random.default_rng(23)
    a = moments(AtomicMeasure(*random_atomic(rng, positive=True)), 6)
    b = moments(AtomicMeasure(*random_atomic(rng, positive=True)), 6)
    assert abs(boxtimes(a, b, 6).values[0] - a.values[0] * b.values[0]) <= 1e-12
    for alpha in (2.0, 2.5):
        got = boxtimes_power(a, alpha, 6)
        assert abs(got.values[0] - a.values[0] ** alpha) <= 1e-12


def test_formal_power_warnings():
    with pytest.warns(FormalPowerWarning):
        boxplus_power(FP_M, 0.5, 8)
    with pytest.warns(FormalPowerWarning):
        boxtimes_power(FP_M, 0.5, 8)
    with pytest.raises(DomainError):
        boxplus_power(FP_M, -1.0, 8)
    with pytest.raises(DomainError):
        uplus_power(FP_M, 0.0, 8)
    with pytest.raises(DomainError):
        boxtimes_power(FP_M, -2.0, 8)


def test_noninteger_power_of_negative_mean_rejected():
    neg = moments(AtomicMeasure((-2.0, -0.5), (0.5, 0.5)), 6)
    with pytest.raises(DomainError):
        boxtimes_power(neg, 1.5, 6)
    boxtimes_power(neg, 2.0, 6)  # integer power stays on the real branch


@pytest.mark.parametrize("fn", [boxplus_power, uplus_power, boxtimes_power, bp_transform])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_powers_reject_nonfinite_parameter(fn, value):
    # a guard written alpha <= 0 is false for nan: it once answered nan or inf
    # moments, and boxtimes_power a raw ValueError from its integer test
    with pytest.raises(DomainError):
        fn(FP_M, value, 8)


@pytest.mark.parametrize("fn", [boxplus_power, uplus_power, boxtimes_power, bp_transform])
def test_powers_reject_an_overflowing_result(fn):
    # a finite power so large that the moments overflow once answered nan
    # (inf for uplus_power) with no error
    with pytest.raises(NumericError, match="overflows"):
        fn(moments(FreePoisson(), 6), 1e300, 6)
    assert all(math.isfinite(v) for v in fn(moments(FreePoisson(), 6), 1e10, 6).values)


# ---------------------------------------------------------------------------
# pair operations on measures: the protocol read once per operand

# The pair operations as they were written when they took two moment
# sequences of one order and read each through the dictionaries.
_MOMENT_PAIR_FORMULAS = {
    boxplus: lambda a, b: free_cumulants_to_moments(tuple(
        np.asarray(moments_to_free_cumulants(a)) + np.asarray(moments_to_free_cumulants(b)))),
    uplus: lambda a, b: boolean_cumulants_to_moments(tuple(
        np.asarray(moments_to_boolean_cumulants(a)) + np.asarray(moments_to_boolean_cumulants(b)))),
    boxtimes: lambda a, b: s_series_to_moments(ps_mul(s_series(a), s_series(b)), a.order),
}


@pytest.mark.parametrize("order", [8, 40, 160])
@pytest.mark.parametrize("op", [boxplus, uplus, boxtimes], ids=lambda op: op.__name__)
def test_pair_ops_of_atomic_and_moment_operands_keep_the_moment_formula(op, order):
    # the base protocol is the dictionaries applied to moments(order), so
    # these operands take the same arithmetic, bit for bit; the moment
    # sequence stores more moments than asked for
    atomic = AtomicMeasure((0.5, 1.25), (0.25, 0.75))
    stored = moments(AtomicMeasure((0.75, 1.5, 2.0), (0.5, 0.25, 0.25)), 200)
    for mu, nu in ((atomic, stored), (stored, atomic), (stored, stored)):
        want = _MOMENT_PAIR_FORMULAS[op](moments(mu, order), moments(nu, order)).values
        assert np.array_equal(op(mu, nu, order).values, want)


def test_pair_ops_of_densities_at_order_160():
    # exact free cumulants 2 for free Poisson with itself, and its exact S
    # squared, (1 + w)**-2; through 160 rounded moments boxtimes was 7.9e-10 off
    got = boxplus(FreePoisson(), FreePoisson(), 160).values
    want = [float(v) for v in free_poisson_moments(160, 2)]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    got = boxtimes(FreePoisson(), FreePoisson(), 160).values
    want = [fuss_catalan(2, n) for n in range(1, 161)]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("op, top_atom", [(boxplus, 30.0), (boxtimes, 30.0), (uplus, 100.0)],
                         ids=["boxplus", "boxtimes", "uplus"])
def test_pair_ops_reject_an_overflowing_result(op, top_atom):
    # with free Poisson at order 160, boxplus and boxtimes of the atoms
    # (0.5, 30) once answered nan in every row with no error; uplus of them
    # is finite, and overflows only when the atom's own moments do
    law = AtomicMeasure((0.5, top_atom), (0.5, 0.5))
    with pytest.raises(NumericError, match="overflows"):
        op(law, FreePoisson(), 160)
    assert all(math.isfinite(v) for v in op(law, FreePoisson(), 40).values)


# ---------------------------------------------------------------------------
# powers of a measure: the protocol's free cumulants and S series


def test_base_protocol_goes_through_the_moment_dictionaries():
    for nu in (AtomicMeasure((0.5, 2.0), (0.25, 0.75)), FP_M):
        assert np.array_equal(nu.free_cumulants(8), moments_to_free_cumulants(moments(nu, 8)))
        assert np.array_equal(nu.s_series(8), s_series(moments(nu, 8)))


def _parent_free_cumulants(nu, order):
    """``nu.free_cumulants(order)`` as it was built when it was a tuple."""
    if isinstance(nu, FreePoisson):
        return (1.0,) * order
    if isinstance(nu, Semicircle):
        out = [0.0] * order
        out[0] = nu.center
        if order >= 2:
            out[1] = nu.variance
        return tuple(out)
    if isinstance(nu, MarchenkoPasturCentered):
        return tuple(0.0 if n < 2 else nu.a ** (n - 2) for n in range(1, order + 1))
    g_hat = np.array((0.0, 1.0) + moments(nu, order).values)
    r = ps_reciprocal(ps_revert(g_hat)[1:])
    return tuple(r[1 : order + 1].tolist())


@pytest.mark.parametrize("order", [1, 2, 160])
@pytest.mark.parametrize("nu", [
    AtomicMeasure((0.5, 1.25), (0.25, 0.75)),
    FreePoisson(),
    Semicircle(1.5, 0.5),
    *(MarchenkoPasturCentered(a) for a in (1.0, -1.0, 0.25, 15 / 16, -0.3, 0.7)),
    moments(AtomicMeasure((0.75, 1.5, 2.0), (0.5, 0.25, 0.25)), 200),
], ids=lambda nu: nu.describe())
def test_free_cumulants_are_the_tuples_bits_in_an_array(nu, order):
    got = nu.free_cumulants(order)
    assert isinstance(got, np.ndarray) and got.dtype == np.float64 and got.shape == (order,)
    assert got.tobytes() == np.array(_parent_free_cumulants(nu, order)).tobytes()


@pytest.mark.parametrize("dictionary", [free_cumulants_to_moments, boolean_cumulants_to_moments])
def test_dictionaries_take_tuples_and_arrays_alike(dictionary):
    m = moments(AtomicMeasure((0.5, 1.25, 2.0), (0.25, 0.5, 0.25)), 40)
    for k in (moments_to_free_cumulants(m), moments_to_boolean_cumulants(m)):
        from_array, from_tuple = dictionary(k), dictionary(tuple(k.tolist()))
        if isinstance(from_array, MomentSeq):
            from_array, from_tuple = np.array(from_array.values), np.array(from_tuple.values)
        assert from_array.tobytes() == from_tuple.tobytes()


def _semicircle_s(center: Fraction, variance: Fraction, order: int) -> list[Fraction]:
    """The exact reversion of ``R~(z) = center*z + variance*z**2``, divided
    by ``w``: ``s_k = C_k * (-variance)**k / center**(2k + 1)``, Catalan."""
    return [catalan(k) * (-variance) ** k / center ** (2 * k + 1) for k in range(order)]


def test_density_s_series_solves_its_jacobi_quadratic():
    # S of free Poisson is 1/(1 + w), bit for bit as the reversion gave it
    assert FreePoisson().s_series(160).tobytes() == ((-1.0) ** np.arange(160)).tobytes()
    # the closed form is the reversion of R~, which the recurrence never runs
    half = Fraction(1, 2)
    assert _semicircle_s(3 * half, half, 20) == series_revert([0, 3 * half, half], 21)[1:]
    # at most 7.0e-15 relative measured; the reversion of R~ gave 1.1e-14
    for center, variance in ((1.5, 0.5), (3.0, 0.5), (2.0, 1.0)):
        want = [float(v) for v in _semicircle_s(Fraction(center), Fraction(variance), 160)]
        got = Semicircle(center, variance).s_series(160)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_density_s_series_keeps_the_b_of_a_free_meixner_law():
    # omega_2 != omega_1, which no named density has yet: the recurrence
    # against S reverted from the exact moments of the Jacobi parameters,
    # 1.0e-14 relative measured (0.92 with b dropped)
    params = (np.array((1.3, 0.7)), np.array((0.5, 0.8)))
    got = DensityMeasure.s_series(SimpleNamespace(jacobi=lambda: params), 20)
    exact = jacobi_path_moments(*(tuple(Fraction(v) for v in p) for p in params), 20)
    np.testing.assert_allclose(got, [float(v) for v in s_of_moments(exact)], rtol=1e-13, atol=0.0)


def _rho_scale_error(got, want) -> float:
    """Largest error against exact moments on the scale ``rho**n`` of their
    growth rate where the exact moment is smaller (odd moments of a
    symmetric law are 0), as the benchmark grades order-160 powers."""
    wantf = [float(v) for v in want]
    log_rho = max(math.log(abs(v)) / n for n, v in enumerate(wantf, start=1) if v)
    return max(abs(g - w) / max(abs(w), math.exp(n * log_rho))
               for n, (g, w) in enumerate(zip(got, wantf, strict=True), start=1))


@pytest.mark.parametrize("alpha", [1.0, 2.5])
def test_boxplus_power_of_a_density_at_order_160(alpha):
    # alpha = 1 is the identity; through 160 moments reverted to cumulants
    # it once missed by 1.05e-3, with cumulants as large as 5e89
    got = boxplus_power(FreePoisson(), alpha, 160).values
    assert _rho_scale_error(got, free_poisson_moments(160, Fraction(alpha))) <= 1e-13


def test_bp_transform_of_a_density_at_order_160():
    # free power 5/4, then Boolean power 4/5; 11 rows once missed by 1e-9
    got = bp_transform(FreePoisson(), 0.25, 160).values
    want = boolean_power_moments(free_poisson_moments(160, Fraction(5, 4)), Fraction(4, 5))
    assert _rho_scale_error(got, want) <= 1e-13


# Each named density with the exact moments of its free power t, dyadic
# parameters throughout.
NAMED_FREE_POWERS = {
    "free_poisson": (FreePoisson(), lambda t, n: free_poisson_moments(n, t)),
    "semicircle": (Semicircle(0.75, 0.6875),
                   lambda t, n: semicircle_moments(n, t * Fraction(3, 4), t * Fraction(11, 16))),
    "centered_semicircle": (Semicircle(0.0, 2.5),
                            lambda t, n: semicircle_moments(n, 0, t * Fraction(5, 2))),
    "mp": (MarchenkoPasturCentered(0.1875),
           lambda t, n: mp_centered_moments(n, Fraction(3, 16), t)),
    "mp_negative": (MarchenkoPasturCentered(-1.0),
                    lambda t, n: mp_centered_moments(n, Fraction(-1), t)),
}


@pytest.mark.parametrize("op, t", [("boxplus", 2.5), ("uplus", 0.25), ("uplus", 3.0),
                                   ("bt", 0.5)])
@pytest.mark.parametrize("law", sorted(NAMED_FREE_POWERS))
def test_additive_power_of_a_density_reads_its_jacobi_parameters(law, op, t):
    # the map of the Jacobi parameters and one recurrence, no reversion:
    # at most 6.1e-18 measured; the series route gave up to 2.0e-14 (the
    # free power of the off-center semicircle)
    nu, free_power = NAMED_FREE_POWERS[law]
    tf = Fraction(t)
    if op == "boxplus":
        got, want = boxplus_power(nu, t, 160), free_power(tf, 160)
    elif op == "uplus":
        got, want = uplus_power(nu, t, 160), boolean_power_moments(free_power(1, 160), tf)
    else:
        got, want = bp_transform(nu, t, 160), boolean_power_moments(free_power(1 + tf, 160),
                                                                    1 / (1 + tf))
    assert _rho_scale_error(got.values, want) <= 1e-14


ATOMIC_LAWS = {
    "two_atoms_straddling_0": ((-1.375, 0.875), (0.28125, 0.71875)),
    "two_positive_atoms": ((0.0625, 1.875), (0.15625, 0.84375)),
    "three_atoms": ((-2.0, 0.25, 1.3125), (0.4375, 0.4375, 0.125)),
}


def _exact_atomic_moments(law, order):
    atoms, weights = ATOMIC_LAWS[law]
    return [sum(Fraction(w) * Fraction(a) ** n for a, w in zip(atoms, weights))
            for n in range(1, order + 1)]


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1, 2, 4])
@pytest.mark.parametrize("law", sorted(ATOMIC_LAWS))
def test_uplus_power_of_an_atomic_law_at_order_160(law, alpha):
    # Lanczos gives the Jacobi parameters, the power scales alpha_0 and
    # omega_1: at most 2.1e-14 measured.  The two series reciprocals this
    # replaced were off by up to 1e52 at alpha = 0.25, and 1.5e15 on the
    # three atoms; dyadic atoms and weights give exact moments
    exact = _exact_atomic_moments(law, 160)
    got = uplus_power(AtomicMeasure(*ATOMIC_LAWS[law]), float(alpha), 160).values
    assert _rho_scale_error(got, boolean_power_moments(exact, Fraction(alpha))) <= 1e-12


@pytest.mark.parametrize("t", [0.5, 1.5, 2.5])
@pytest.mark.parametrize("law", ["two_atoms_straddling_0", "two_positive_atoms"])
def test_boxplus_power_of_a_two_atom_law_is_a_free_meixner_map(law, t):
    # a two-atom law has omega_2 = 0, a free Meixner law with b = -1, so
    # its free power maps its Jacobi parameters; through the free
    # cumulants of its moments it was off by up to 2.4e-4 at order 30
    exact = _exact_atomic_moments(law, 30)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FormalPowerWarning)  # t = 0.5
        got = boxplus_power(AtomicMeasure(*ATOMIC_LAWS[law]), t, 30).values
    assert _rho_scale_error(got, free_power_moments(exact, Fraction(t))) <= 1e-13


@pytest.mark.parametrize("nu", [
    FreePoisson(), Semicircle(-0.375, 1.375), MarchenkoPasturCentered(-0.3),
    AtomicMeasure(*ATOMIC_LAWS["three_atoms"]), AtomicMeasure((-1.5,), (1.0,)),
    AtomicMeasure(*ATOMIC_LAWS["two_positive_atoms"]),
], ids=lambda nu: nu.describe())
def test_jacobi_parameters_give_the_moments(nu):
    alpha, omega = nu.jacobi()
    assert alpha.dtype == omega.dtype == np.float64 and min(len(alpha), len(omega)) >= 1
    got = jacobi_moments(alpha, omega, 40)
    np.testing.assert_allclose(got, moments(nu, 40).values, rtol=1e-13, atol=1e-13)


def test_powers_without_a_free_meixner_jacobi_matrix_keep_the_series():
    # three atoms and a moment sequence keep the free cumulants (and the
    # moment sequence its Boolean cumulants) bit for bit
    three = AtomicMeasure(*ATOMIC_LAWS["three_atoms"])
    stored = moments(three, 40)
    assert stored.jacobi() is None
    for nu in (three, stored):
        want = free_cumulants_to_moments(2.5 * moments_to_free_cumulants(moments(nu, 40)))
        assert boxplus_power(nu, 2.5, 40).values == want.values
        want = boolean_cumulants_to_moments(
            0.8 * moments_to_boolean_cumulants(free_cumulants_to_moments(
                1.25 * moments_to_free_cumulants(moments(nu, 40)))))
        assert bp_transform(nu, 0.25, 40).values == want.values
    want = boolean_cumulants_to_moments(0.5 * moments_to_boolean_cumulants(stored))
    assert uplus_power(stored, 0.5, 40).values == want.values


@pytest.mark.parametrize("p", [2, 3])
def test_boxtimes_power_of_a_density_at_order_160(p):
    # p = 2 through 160 rounded moments is 5.3e-10 off
    got = boxtimes_power(FreePoisson(), float(p), 160).values
    assert _rho_scale_error(got, [fuss_catalan(p, n) for n in range(1, 161)]) <= 1e-13


@pytest.mark.parametrize("p", [2, 3])
def test_boxtimes_power_of_a_semicircle_at_order_40(p):
    # the spec tests/golden/semicircle_positive.json: 6.5e-11 (p = 2) and
    # 1.9e-12 (p = 3) measured; the way back from S**p to moments loses
    # digits as the order grows, past 1e-9 from order 55 at p = 2 (see
    # boxtimes_power)
    exact = semicircle_moments(40, 3, Fraction(1, 2))
    got = boxtimes_power(Semicircle(3.0, 0.5), float(p), 40).values
    assert _rho_scale_error(got, boxtimes_power_moments(exact, p)) <= 1e-9


def test_boxtimes_power_of_a_zero_mean_density_reverts_nothing(monkeypatch):
    reverted = []
    for module in (conv, transforms):
        monkeypatch.setattr(module, "ps_revert", reverted.append)
    with pytest.raises(DomainError, match="nonzero first moment"):
        boxtimes_power(MarchenkoPasturCentered(0.5), 2.0, 160)
    assert reverted == []  # the mean check reads alpha_0


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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_pushforwards_reject_nonfinite_parameters(value):
    # guards written r == 0 and beta == 0 let these through: dilate(m, nan)
    # answered nan moments and affine_image(m, 1, inf) (-inf, nan, nan)
    with pytest.raises(DomainError):
        dilate(FP_M, value)
    with pytest.raises(DomainError):
        affine_image(FP_M, value, 0.0)
    with pytest.raises(DomainError):
        affine_image(FP_M, 1.0, value)


@pytest.mark.parametrize(
    "push",
    [
        # once (1e200, inf, inf) with only a numpy RuntimeWarning
        lambda m: dilate(m, 1e200),
        lambda m: dilate(m, -1e200),
        # once a raw ZeroDivisionError: beta**n underflows to 0
        lambda m: affine_image(m, 1e-200, 0.0),
        # once a raw OverflowError from float **
        lambda m: affine_image(m, 1.0, 1e200),
        # a product that reaches inf without raising: 3*m2 in m3 of x + 1
        lambda m: affine_image(MomentSeq((1.0, 1e308, 1e308)), 1.0, -1.0),
    ],
    ids=["dilate_large_r", "dilate_large_negative_r", "affine_small_beta",
         "affine_large_lam", "affine_sum_to_inf"],
)
def test_pushforwards_reject_an_overflowing_result(push):
    with pytest.raises(NumericError, match="overflows"):
        push(MomentSeq((1.0, 2.0, 5.0)))


def test_pushforwards_keep_the_bits_of_a_finite_result():
    m = MomentSeq((1.0, 2.0, 5.0, 14.0, 42.0))
    for r in (1e-200, 0.3, -7.5, 1e50):  # 1e-200 underflows to 0 and stays finite
        want = np.power(r, np.arange(1, 6, dtype=float)) * np.asarray(m.values)
        assert dilate(m, r).values == tuple(want)
    for beta, lam in ((2.0, 1.0), (-0.3, 0.7), (1e-50, 3.0)):
        want = [sum(math.comb(n, j) * ([1.0, *m.values])[j] * (-lam) ** (n - j)
                    for j in range(n + 1)) / beta**n for n in range(1, 6)]
        assert affine_image(m, beta, lam).values == tuple(want)


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
    assert bp_transform(FP_M, 0.0, 8).values == FP_M.values


def test_bp_semigroup():
    lhs = bp_transform(bp_transform(FP_M, 1.0, 8), 1.0, 8)
    rhs = bp_transform(FP_M, 2.0, 8)
    np.testing.assert_allclose(lhs.values, rhs.values, atol=1e-10)


def test_bp_rejects_negative_t():
    with pytest.raises(DomainError):
        bp_transform(FP_M, -0.5, 8)


# ---------------------------------------------------------------------------
# oracle equivalence on random atomic measures (hypothesis-style seeds)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_cumulants_match_partition_oracles(seed):
    rng = np.random.default_rng(seed)
    atoms, weights = random_atomic(rng)
    m = moments(AtomicMeasure(atoms, weights), 8)
    got_free = moments_to_free_cumulants(m)
    want_free = nc_free_cumulants_from_moments(list(m.values), 8)
    np.testing.assert_allclose(got_free, want_free, atol=1e-9)
    got_bool = moments_to_boolean_cumulants(m)
    want_bool = interval_boolean_cumulants_from_moments(list(m.values), 8)
    np.testing.assert_allclose(got_bool, want_bool, atol=1e-9)
