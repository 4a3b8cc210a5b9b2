"""Series engine: frozen examples, oracles, and algebraic properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cskfam import series
from cskfam.errors import DomainError
from cskfam.measure import MomentSeq
from cskfam.series import (
    identity_series,
    ps_compose,
    ps_derivative,
    ps_exp,
    ps_log,
    ps_mul,
    ps_pow_int,
    ps_pow_real,
    ps_reciprocal,
    ps_revert,
)

from cskfam.limits import _lagrange_moments
from cskfam.transforms import s_series, s_series_to_moments

from oracles import catalan, compose_direct, lagrange_revert, substitution_revert

# ---------------------------------------------------------------------------
# multiplication


def test_mul_one_plus_z_times_one_minus_z():
    got = ps_mul(np.array((1.0, 1.0, 0.0)), np.array((1.0, -1.0, 0.0)))
    assert got.tolist() == [1.0, 0.0, -1.0]


def test_mul_one_identity():
    a = np.array((3.0, 1.0, -2.0, 0.25))
    assert np.array_equal(ps_mul(a, np.array((1.0, 0.0, 0.0, 0.0))), a)


def test_mul_z_times_z():
    assert ps_mul(np.array((0.0, 1.0, 0.0)), np.array((0.0, 1.0, 0.0))).tolist() == [0.0, 0.0, 1.0]


def test_binary_ops_truncate_to_min_order():
    a = np.array((1.0, 2.0, 3.0, 4.0))
    b = np.array((1.0, 1.0))
    assert len(ps_mul(a, b)) - 1 == 1


# ---------------------------------------------------------------------------
# composition


def test_compose_with_identity_inner():
    a = np.array((0.0, 1.0, 1.0))
    assert np.array_equal(ps_compose(a, identity_series(2)), a)


def test_compose_identity_outer():
    b = np.array((0.0, 2.0, 3.0))
    assert np.array_equal(ps_compose(np.array((0.0, 1.0, 0.0)), b), b)


def test_compose_geometric_with_z_plus_z2():
    # geometric series 1/(1-w) composed with z + z^2, frozen via the
    # direct-substitution oracle
    a = np.array((1.0, 1.0, 1.0, 1.0))
    b = np.array((0.0, 1.0, 1.0, 0.0))
    got = ps_compose(a, b)
    assert got.tolist() == [1.0, 1.0, 2.0, 3.0]
    oracle = compose_direct(a, b, 3)
    np.testing.assert_allclose(got, oracle, atol=1e-14)


def test_compose_requires_zero_inner_constant():
    with pytest.raises(DomainError):
        ps_compose(np.array((1.0, 1.0)), np.array((0.5, 1.0)))


@settings(max_examples=60, deadline=None)
@given(
    outer=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=9),
    inner_tail=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=8),
)
def test_compose_matches_direct_substitution(outer, inner_tail):
    order = min(len(outer), len(inner_tail) + 1) - 1
    a = np.array(tuple(outer))
    b = np.array((0.0,) + tuple(inner_tail))
    got = ps_compose(a, b)
    want = compose_direct(a[: order + 1], b[: order + 1], order)
    np.testing.assert_allclose(got, want, atol=1e-10)


# ---------------------------------------------------------------------------
# reversion


def test_revert_moebius_pair():
    # z/(1-z) has coefficients (0,1,1,1,...); its inverse is z/(1+z)
    a = np.array((0.0, 1.0, 1.0, 1.0, 1.0, 1.0))
    got = ps_revert(a)
    np.testing.assert_allclose(got, [0.0, 1.0, -1.0, 1.0, -1.0, 1.0], atol=1e-13)


def test_revert_involution():
    a = np.array((0.0, 1.5, -0.3, 0.2, 0.05, -0.01))
    twice = ps_revert(ps_revert(a))
    np.testing.assert_allclose(twice, a, atol=1e-12)


def test_revert_z_plus_z2_frozen():
    got = ps_revert(np.array((0.0, 1.0, 1.0, 0.0, 0.0)))
    np.testing.assert_allclose(got, [0.0, 1.0, -1.0, 2.0, -5.0], atol=1e-13)
    # verified by composing back to the identity
    back = ps_compose(np.array((0.0, 1.0, 1.0, 0.0, 0.0)),
                      ps_revert(np.array((0.0, 1.0, 1.0, 0.0, 0.0))))
    np.testing.assert_allclose(back, identity_series(4), atol=1e-13)


def test_revert_matches_lagrange_inversion():
    rng = np.random.default_rng(7)
    for _ in range(25):
        c = rng.uniform(-1.0, 1.0, 15) * 0.5 ** np.arange(15)
        c[0] = 0.0
        c[1] = rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))
        got = ps_revert(np.array(tuple(c)))
        want = lagrange_revert(c)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_revert_matches_substitution_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        a = _random_admissible(rng, order=24)
        want = substitution_revert(a)
        np.testing.assert_allclose(ps_revert(a), want, rtol=1e-12, atol=1e-13)


def test_revert_fast_growth_closed_form():
    # Psi series of free Poisson (Catalan moments, growth 4**k) reverts to
    # chi(w) = w/(1+w)**2.  A Lagrange pass alone misses this by 0.29
    # relative at order 30; the Newton step brings it to roundoff.
    a = np.array((0.0,) + tuple(float(catalan(k)) for k in range(1, 31)))
    want = [0.0] + [(-1.0) ** (k + 1) * k for k in range(1, 31)]
    np.testing.assert_allclose(ps_revert(a), want, rtol=1e-13, atol=0.0)


def test_revert_rejects_bad_inputs():
    with pytest.raises(DomainError):
        ps_revert(np.array((1.0, 1.0)))
    with pytest.raises(DomainError):
        ps_revert(np.array((0.0, 0.0, 1.0)))


@pytest.mark.parametrize("order", [6, 40, 160])
def test_revert_composes_once(monkeypatch, order):
    # the Newton slope 1/a'(g) comes from (a o g)' by the chain rule, so a'
    # is never composed
    orders = []
    compose = series.ps_compose

    def counting(a, b):
        orders.append(len(a) - 1)
        return compose(a, b)

    monkeypatch.setattr(series, "ps_compose", counting)
    # z/(1 - z) reverts to z/(1 + z)
    got = ps_revert(np.concatenate(((0.0,), np.ones(order))))
    assert orders == [order]
    want = np.concatenate(((0.0,), (-1.0) ** np.arange(order)))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


def _random_admissible(rng, order=20):
    a1 = rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))
    c = rng.uniform(-1.0, 1.0, order + 1) * (0.5 * abs(a1)) ** np.arange(order + 1)
    c[0], c[1] = 0.0, a1
    return np.array(tuple(c))


def test_compose_revert_roundtrip_order_20():
    rng = np.random.default_rng(123)
    ident = identity_series(20)
    for _ in range(100):
        a = _random_admissible(rng)
        residual = ps_compose(a, ps_revert(a)) - ident
        assert np.max(np.abs(residual)) <= 1e-12


# ---------------------------------------------------------------------------
# real powers, exp, log


def test_pow_square_root_of_square():
    got = ps_pow_real(np.array((1.0, 2.0, 1.0)), 0.5)
    np.testing.assert_allclose(got, [1.0, 1.0, 0.0], atol=1e-14)


def test_pow_alpha_one_identity():
    a = np.array((2.0, -0.5, 0.25, 0.1))
    np.testing.assert_allclose(ps_pow_real(a, 1.0), a, atol=1e-14)


def test_pow_binomial_cube():
    got = ps_pow_real(np.array((1.0, 1.0, 0.0, 0.0)), 3.0)
    np.testing.assert_allclose(got, [1.0, 3.0, 3.0, 1.0], atol=1e-13)


def test_pow_matches_repeated_multiplication():
    a = np.array((1.5, 0.3, -0.2, 0.1, 0.05))
    np.testing.assert_allclose(
        ps_pow_real(a, 3.0), ps_pow_int(a, 3), atol=1e-12
    )


def test_pow_requires_positive_constant():
    with pytest.raises(DomainError):
        ps_pow_real(np.array((-1.0, 1.0)), 0.5)
    with pytest.raises(DomainError):
        ps_pow_real(np.array((0.0, 1.0)), 2.0)


def test_exp_log_roundtrip():
    a = np.array((0.7, 0.2, -0.1, 0.3))
    np.testing.assert_allclose(ps_exp(ps_log(a)), a, atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(
    tail=st.lists(st.floats(-0.5, 0.5), min_size=2, max_size=10),
    c0=st.floats(0.4, 2.5),
    p=st.floats(-2.0, 2.0),
    q=st.floats(-2.0, 2.0),
)
def test_pow_additive_in_exponent(tail, c0, p, q):
    a = np.array((c0,) + tuple(tail))
    lhs = ps_mul(ps_pow_real(a, p), ps_pow_real(a, q))
    rhs = ps_pow_real(a, p + q)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    a=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=9),
    b=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=9),
)
def test_mul_commutative(a, b):
    sa, sb = np.array(tuple(a)), np.array(tuple(b))
    np.testing.assert_allclose(ps_mul(sa, sb), ps_mul(sb, sa), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    a=st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=8),
    b=st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=8),
    c=st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=8),
)
def test_mul_associative(a, b, c):
    sa, sb, sc = np.array(tuple(a)), np.array(tuple(b)), np.array(tuple(c))
    lhs = ps_mul(ps_mul(sa, sb), sc)
    rhs = ps_mul(sa, ps_mul(sb, sc))
    np.testing.assert_allclose(lhs, rhs, atol=1e-11)


def test_reciprocal():
    a = np.array((2.0, 1.0, 0.5))
    np.testing.assert_allclose(
        ps_mul(a, ps_reciprocal(a)), [1.0, 0.0, 0.0], atol=1e-14
    )
    with pytest.raises(DomainError):
        ps_reciprocal(np.array((0.0, 1.0)))


# ---------------------------------------------------------------------------
# shortcuts that reproduce the general kernels bit for bit


def _reciprocal_reading_backwards(c):
    """``ps_reciprocal`` with its dot over a reversed slice of the output."""
    out = np.zeros_like(c)
    out[0] = 1.0 / c[0]
    for k in range(1, len(c)):
        out[k] = -np.dot(c[1 : k + 1], out[k - 1 :: -1]) / c[0]
    return out


def _pow_int_from_one(a, n):
    """Binary exponentiation that starts from the one series and squares
    after every bit."""
    if n < 0:
        return _pow_int_from_one(_reciprocal_reading_backwards(a), -n)
    result = np.zeros(len(a))
    result[0] = 1.0
    base = a
    while n:
        if n & 1:
            result = ps_mul(result, base)
        base = ps_mul(base, base)
        n >>= 1
    return result


def _bit_inputs(order):
    """Coefficients c0..c_order, all nonzero: random ones, then Catalan numbers."""
    rng = np.random.default_rng(order)
    yield rng.uniform(0.5, 2.0, order + 1) * rng.choice((-1.0, 1.0), order + 1)
    yield np.array([float(catalan(k)) for k in range(order + 1)])


@pytest.mark.parametrize("order", [7, 40, 161])
def test_shortcuts_match_the_general_kernels_bit_for_bit(order):
    for c in _bit_inputs(order):
        assert np.array_equal(ps_reciprocal(c), _reciprocal_reading_backwards(c))
        for n in (*range(7), -2):
            assert np.array_equal(ps_pow_int(c, n), _pow_int_from_one(c, n)), n
        # s_series: (1 + w) * chi/w as a product with the padded series 1 + w
        chi = ps_revert(np.concatenate(((0.0,), c[1:])))
        one_plus_w = np.array((1.0, 1.0) + (0.0,) * max(0, order - 2))
        assert np.array_equal(s_series(MomentSeq(tuple(c[1:]))), ps_mul(chi[1:], one_plus_w))
        # s_series_to_moments: 1/(1 + w) from the reciprocal of that series
        ratio = ps_mul(c[:order], _reciprocal_reading_backwards(one_plus_w[:order]))
        psi = ps_revert(np.concatenate(((0.0,), ratio)))
        assert np.array_equal(s_series_to_moments(c, order).values, psi[1:])


# ---------------------------------------------------------------------------
# no function writes to its arguments


def _frozen(*coeffs):
    a = np.array(coeffs)
    a.flags.writeable = False  # any write into it raises ValueError
    return a


READ_ONLY_CALLS = {
    "ps_mul": lambda: ps_mul(_frozen(1.0, 2.0, 3.0), _frozen(0.5, -1.0, 0.25)),
    "ps_derivative": lambda: ps_derivative(_frozen(1.0, 2.0, 3.0)),
    "ps_reciprocal": lambda: ps_reciprocal(_frozen(2.0, 1.0, 0.5)),
    "ps_compose": lambda: ps_compose(_frozen(1.0, 1.0, 1.0), _frozen(0.0, 1.0, 1.0)),
    "ps_revert": lambda: ps_revert(_frozen(0.0, 1.5, -0.3, 0.2, 0.05)),
    "ps_log": lambda: ps_log(_frozen(0.7, 0.2, -0.1, 0.3)),
    "ps_exp": lambda: ps_exp(_frozen(0.7, 0.2, -0.1, 0.3)),
    "ps_pow_real": lambda: ps_pow_real(_frozen(1.5, 0.3, -0.2, 0.1), 2.5),
    "ps_pow_int": lambda: ps_pow_int(_frozen(1.5, 0.3, -0.2, 0.1), 3),
    "ps_pow_int_negative": lambda: ps_pow_int(_frozen(1.5, 0.3, -0.2, 0.1), -2),
    "s_series_to_moments": lambda: s_series_to_moments(_frozen(1.0, -1.0, 1.0, -1.0), 4),
    "lagrange_moments": lambda: _lagrange_moments(_frozen(0.0, 1.0, -0.5, 1 / 3)[None], True),
}


@pytest.mark.parametrize("name", sorted(READ_ONLY_CALLS))
def test_no_function_writes_to_its_arguments(name):
    READ_ONLY_CALLS[name]()
