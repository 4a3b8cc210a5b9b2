"""Checks of the benchmark's reference module against known integer sequences.

Run with ``python -m pytest bench``.
"""

from fractions import Fraction

import pytest

import reference as ref

F = Fraction
CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]  # OEIS A000108
FUSS_CATALAN_3 = [1, 1, 3, 12, 55, 273, 1428, 7752]  # OEIS A001764
NARAYANA_ROW_5 = [1, 10, 20, 10, 1]  # OEIS A001263


def test_closed_form_sequences():
    assert [ref.catalan(n) for n in range(10)] == CATALAN
    assert [ref.fuss_catalan(n, 2) for n in range(8)] == FUSS_CATALAN_3
    assert [ref.narayana(5, k) for k in range(1, 6)] == NARAYANA_ROW_5
    assert ref.free_poisson_moments(9) == CATALAN[1:]


def test_free_poisson_cumulants():
    m = ref.free_poisson_moments(8)
    assert ref.moments_to_free_cumulants(m) == [1] * 8
    assert ref.free_cumulants_to_moments([F(1)] * 8) == m
    # B = z c(z) for the Catalan generating function c
    assert ref.moments_to_boolean_cumulants(m) == CATALAN[:8]
    assert ref.boolean_cumulants_to_moments(CATALAN[:8]) == m


def test_semicircle_cumulants():
    v = F(3, 2)
    m = ref.semicircle_moments(8, v)
    assert m[1] == v and m[3] == 2 * v ** 2 and m[5] == 5 * v ** 3
    assert ref.moments_to_free_cumulants(m) == [0, v, 0, 0, 0, 0, 0, 0]
    assert ref.boxplus_power(m, F(5, 2)) == ref.semicircle_moments(8, F(5, 2) * v)


def test_free_powers_match_closed_forms():
    m = ref.free_poisson_moments(7)
    alpha = F(7, 4)
    assert ref.boxplus_power(m, alpha) == ref.free_poisson_moments(7, rate=alpha)
    a = F(3, 4)
    assert ref.boxplus_power(ref.mp_centered_moments(7, a), alpha) == \
        ref.mp_centered_moments(7, a, alpha)
    mp = ref.mp_centered_moments(5, a)
    assert mp[:2] == [0, 1] and ref.moments_to_free_cumulants(mp) == [0, 1, a, a ** 2, a ** 3]


def test_multiplicative_powers():
    m = ref.free_poisson_moments(7)
    assert ref.s_series(m) == [(-1) ** k for k in range(7)]  # S = 1/(1+w)
    assert ref.s_series_to_moments(ref.s_series(m), 7) == m
    for p in (2, 3):
        assert ref.boxtimes_power_int(m, p) == [ref.fuss_catalan(n, p) for n in range(1, 8)]


def test_limit_laws_low_order():
    assert ref.limit_law_moments("eta", F(1), 3) == [1, 2, F(11, 2)]
    assert ref.limit_law_moments("sigma", F(1), 3) == [1, 2, F(9, 2)]
    # the scaled sequence at n = 1 is the generator itself
    m = ref.atomic_moments([F(1, 2), F(5, 2)], [F(2, 5), F(3, 5)], 6)
    m1 = [v / m[0] ** k for k, v in enumerate(m, start=1)]
    assert ref.scaled_sequence(m, 1, "uplus") == m1


def test_named_domains():
    assert ref.named_family("free_poisson", {})[2] == (0.0, 2.0)
    for a in (0.25, 0.5, 1.0):
        lo, hi = ref.named_family("marchenko_pastur_centered", {"a": a})[2]
        assert lo == pytest.approx(-1.0, abs=1e-12) and hi == pytest.approx(1.0, abs=1e-12)
    lo, hi = ref.named_family("semicircle", {"center": 0.5, "variance": 1.44})[2]
    assert (lo, hi) == pytest.approx((0.5 - 1.2, 0.5 + 1.2), abs=1e-12)


def test_atomic_family():
    fam = ref.AtomicFamily([0.5, 2.5], [0.4, 0.6])
    assert fam.domain == pytest.approx((1.0 / (0.4 / 0.5 + 0.6 / 2.5), 2.5), abs=1e-15)
    for m in (1.0, 1.5, 2.0, 2.4):
        theta, pv, v = fam.row(m)
        assert float(fam.mean_at(theta)) == pytest.approx(m, abs=1e-14)
        # the paper's identity V(m) = (1/theta - m)(m - m0) for the tilted member
        assert v == pytest.approx((1.0 / theta - m) * (m - 1.7), rel=1e-12)
        assert pv == pytest.approx(m * (1.0 / theta - m), rel=1e-12)


def test_free_poisson_variance_laws():
    # free Poisson: boxplus power n of its n-th boxtimes power, rescaled, has
    # V(m) = m at n = 1 and tends to the eta limit variance as n grows
    vfun = lambda m: m
    assert ref.scaled_law_variance(vfun, 1.0, 1, "boxplus", 0.7) == pytest.approx(0.7)
    far = ref.scaled_law_variance(vfun, 1.0, 4096, "boxplus", 0.7)
    assert far == pytest.approx(ref.limit_variance("eta", 1.0, 0.7), rel=1e-3)
