"""Series engine: frozen examples, oracles, and algebraic properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cskfam.errors import DomainError
from cskfam.series import (
    TruncatedSeries,
    identity_series,
    ps_add,
    ps_compose,
    ps_exp,
    ps_log,
    ps_mul,
    ps_pow_int,
    ps_pow_real,
    ps_reciprocal,
    ps_revert,
)

from oracles import catalan, compose_direct, lagrange_revert, substitution_revert

S = TruncatedSeries


def coeffs(series):
    return np.asarray(series.coeffs)


# ---------------------------------------------------------------------------
# addition / multiplication


def test_add_coefficientwise():
    assert ps_add(S((1.0, 2.0)), S((0.0, 1.0))).coeffs == (1.0, 3.0)


def test_add_zero_identity():
    a = S((2.0, -1.0, 0.5))
    assert ps_add(a, S((0.0, 0.0, 0.0))).coeffs == a.coeffs


def test_add_inverse():
    a = S((1.0, 1.0, 1.0))
    assert ps_add(a, S((-1.0, -1.0, -1.0))).coeffs == (0.0, 0.0, 0.0)


def test_mul_one_plus_z_times_one_minus_z():
    assert ps_mul(S((1.0, 1.0, 0.0)), S((1.0, -1.0, 0.0))).coeffs == (1.0, 0.0, -1.0)


def test_mul_one_identity():
    a = S((3.0, 1.0, -2.0, 0.25))
    assert ps_mul(a, S((1.0, 0.0, 0.0, 0.0))).coeffs == a.coeffs


def test_mul_z_times_z():
    assert ps_mul(S((0.0, 1.0, 0.0)), S((0.0, 1.0, 0.0))).coeffs == (0.0, 0.0, 1.0)


def test_binary_ops_truncate_to_min_order():
    a = S((1.0, 2.0, 3.0, 4.0))
    b = S((1.0, 1.0))
    assert ps_add(a, b).order == 1
    assert ps_mul(a, b).order == 1


# ---------------------------------------------------------------------------
# composition


def test_compose_with_identity_inner():
    a = S((0.0, 1.0, 1.0))
    assert ps_compose(a, identity_series(2)).coeffs == a.coeffs


def test_compose_identity_outer():
    b = S((0.0, 2.0, 3.0))
    assert ps_compose(S((0.0, 1.0, 0.0)), b).coeffs == b.coeffs


def test_compose_geometric_with_z_plus_z2():
    # geometric series 1/(1-w) composed with z + z^2, frozen via the
    # direct-substitution oracle
    a = S((1.0, 1.0, 1.0, 1.0))
    b = S((0.0, 1.0, 1.0, 0.0))
    got = ps_compose(a, b)
    assert got.coeffs == (1.0, 1.0, 2.0, 3.0)
    oracle = compose_direct(a.coeffs, b.coeffs, 3)
    np.testing.assert_allclose(coeffs(got), oracle, atol=1e-14)


def test_compose_requires_zero_inner_constant():
    with pytest.raises(DomainError):
        ps_compose(S((1.0, 1.0)), S((0.5, 1.0)))


@settings(max_examples=60, deadline=None)
@given(
    outer=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=9),
    inner_tail=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=8),
)
def test_compose_matches_direct_substitution(outer, inner_tail):
    order = min(len(outer), len(inner_tail) + 1) - 1
    a = S(tuple(outer))
    b = S((0.0,) + tuple(inner_tail))
    got = coeffs(ps_compose(a, b))
    want = compose_direct(a.coeffs[: order + 1], b.coeffs[: order + 1], order)
    np.testing.assert_allclose(got, want, atol=1e-10)


# ---------------------------------------------------------------------------
# reversion


def test_revert_moebius_pair():
    # z/(1-z) has coefficients (0,1,1,1,...); its inverse is z/(1+z)
    a = S((0.0, 1.0, 1.0, 1.0, 1.0, 1.0))
    got = coeffs(ps_revert(a))
    np.testing.assert_allclose(got, [0.0, 1.0, -1.0, 1.0, -1.0, 1.0], atol=1e-13)


def test_revert_involution():
    a = S((0.0, 1.5, -0.3, 0.2, 0.05, -0.01))
    twice = ps_revert(ps_revert(a))
    np.testing.assert_allclose(coeffs(twice), coeffs(a), atol=1e-12)


def test_revert_z_plus_z2_frozen():
    got = coeffs(ps_revert(S((0.0, 1.0, 1.0, 0.0, 0.0))))
    np.testing.assert_allclose(got, [0.0, 1.0, -1.0, 2.0, -5.0], atol=1e-13)
    # verified by composing back to the identity
    back = ps_compose(S((0.0, 1.0, 1.0, 0.0, 0.0)), ps_revert(S((0.0, 1.0, 1.0, 0.0, 0.0))))
    np.testing.assert_allclose(coeffs(back), coeffs(identity_series(4)), atol=1e-13)


def test_revert_matches_lagrange_inversion():
    rng = np.random.default_rng(7)
    for _ in range(25):
        c = rng.uniform(-1.0, 1.0, 15) * 0.5 ** np.arange(15)
        c[0] = 0.0
        c[1] = rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))
        got = coeffs(ps_revert(S(tuple(c))))
        want = lagrange_revert(c)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_revert_matches_substitution_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        a = _random_admissible(rng, order=24)
        want = substitution_revert(a.coeffs)
        np.testing.assert_allclose(coeffs(ps_revert(a)), want, rtol=1e-12, atol=1e-13)


def test_revert_fast_growth_closed_form():
    # Psi series of free Poisson (Catalan moments, growth 4**k) reverts to
    # chi(w) = w/(1+w)**2.  A Lagrange pass alone misses this by 0.29
    # relative at order 30; the Newton step brings it to roundoff.
    a = S((0.0,) + tuple(float(catalan(k)) for k in range(1, 31)))
    want = [0.0] + [(-1.0) ** (k + 1) * k for k in range(1, 31)]
    np.testing.assert_allclose(coeffs(ps_revert(a)), want, rtol=1e-13, atol=0.0)


def test_revert_rejects_bad_inputs():
    with pytest.raises(DomainError):
        ps_revert(S((1.0, 1.0)))
    with pytest.raises(DomainError):
        ps_revert(S((0.0, 0.0, 1.0)))


def _random_admissible(rng, order=20):
    a1 = rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))
    c = rng.uniform(-1.0, 1.0, order + 1) * (0.5 * abs(a1)) ** np.arange(order + 1)
    c[0], c[1] = 0.0, a1
    return S(tuple(c))


def test_compose_revert_roundtrip_order_20():
    rng = np.random.default_rng(123)
    ident = coeffs(identity_series(20))
    for _ in range(100):
        a = _random_admissible(rng)
        residual = coeffs(ps_compose(a, ps_revert(a))) - ident
        assert np.max(np.abs(residual)) <= 1e-12


# ---------------------------------------------------------------------------
# real powers, exp, log


def test_pow_square_root_of_square():
    got = coeffs(ps_pow_real(S((1.0, 2.0, 1.0)), 0.5))
    np.testing.assert_allclose(got, [1.0, 1.0, 0.0], atol=1e-14)


def test_pow_alpha_one_identity():
    a = S((2.0, -0.5, 0.25, 0.1))
    np.testing.assert_allclose(coeffs(ps_pow_real(a, 1.0)), coeffs(a), atol=1e-14)


def test_pow_binomial_cube():
    got = coeffs(ps_pow_real(S((1.0, 1.0, 0.0, 0.0)), 3.0))
    np.testing.assert_allclose(got, [1.0, 3.0, 3.0, 1.0], atol=1e-13)


def test_pow_matches_repeated_multiplication():
    a = S((1.5, 0.3, -0.2, 0.1, 0.05))
    np.testing.assert_allclose(
        coeffs(ps_pow_real(a, 3.0)), coeffs(ps_pow_int(a, 3)), atol=1e-12
    )


def test_pow_requires_positive_constant():
    with pytest.raises(DomainError):
        ps_pow_real(S((-1.0, 1.0)), 0.5)
    with pytest.raises(DomainError):
        ps_pow_real(S((0.0, 1.0)), 2.0)


def test_exp_log_roundtrip():
    a = S((0.7, 0.2, -0.1, 0.3))
    np.testing.assert_allclose(coeffs(ps_exp(ps_log(a))), coeffs(a), atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(
    tail=st.lists(st.floats(-0.5, 0.5), min_size=2, max_size=10),
    c0=st.floats(0.4, 2.5),
    p=st.floats(-2.0, 2.0),
    q=st.floats(-2.0, 2.0),
)
def test_pow_additive_in_exponent(tail, c0, p, q):
    a = S((c0,) + tuple(tail))
    lhs = ps_mul(ps_pow_real(a, p), ps_pow_real(a, q))
    rhs = ps_pow_real(a, p + q)
    np.testing.assert_allclose(coeffs(lhs), coeffs(rhs), atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    a=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=9),
    b=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=9),
)
def test_mul_commutative(a, b):
    sa, sb = S(tuple(a)), S(tuple(b))
    np.testing.assert_allclose(coeffs(ps_mul(sa, sb)), coeffs(ps_mul(sb, sa)), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    a=st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=8),
    b=st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=8),
    c=st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=8),
)
def test_mul_associative(a, b, c):
    sa, sb, sc = S(tuple(a)), S(tuple(b)), S(tuple(c))
    lhs = ps_mul(ps_mul(sa, sb), sc)
    rhs = ps_mul(sa, ps_mul(sb, sc))
    np.testing.assert_allclose(coeffs(lhs), coeffs(rhs), atol=1e-11)


def test_reciprocal():
    a = S((2.0, 1.0, 0.5))
    np.testing.assert_allclose(
        coeffs(ps_mul(a, ps_reciprocal(a))), [1.0, 0.0, 0.0], atol=1e-14
    )
    with pytest.raises(DomainError):
        ps_reciprocal(S((0.0, 1.0)))
