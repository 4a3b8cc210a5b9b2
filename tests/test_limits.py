"""Limit laws, scaled sequences, convergence reports, and the
Boolean-to-free identity between the two limits."""

import math
import warnings

import numpy as np
import pytest

from cskfam import csk
from cskfam.conv import bp_transform
from cskfam.errors import DomainError
from cskfam.limits import (
    convergence_report,
    limit_law,
    limit_law_moments,
    limit_pseudo_variance_eta,
    limit_pseudo_variance_sigma,
    limit_variance_eta,
    limit_variance_sigma,
    scaled_sequence_moments,
    verify_bp_identity,
)
from cskfam.measure import AtomicMeasure, FreePoisson, MarchenkoPasturCentered, moments
from cskfam.transforms import s_series

from oracles import lagrange_revert

FP = FreePoisson()


# ---------------------------------------------------------------------------
# limit-law moments


def test_first_moment_is_one():
    for kind in ("eta", "sigma"):
        for gamma in (0.5, 1.0, 2.0):
            m = limit_law_moments(kind, gamma, 6)
            assert abs(m.values[0] - 1.0) <= 1e-14


def test_eta_moments_frozen():
    # hand-derived through order 3: inverting chi(w) = w*exp(-w)/(1+w)
    # gives Psi coefficients (1, 2, 5.5)
    m = limit_law_moments("eta", 1.0, 3)
    np.testing.assert_allclose(m.values, [1.0, 2.0, 5.5], atol=1e-12)


def test_sigma_moments_frozen():
    m = limit_law_moments("sigma", 1.0, 3)
    np.testing.assert_allclose(m.values, [1.0, 2.0, 4.5], atol=1e-12)


def test_limit_variance_at_mean_matches_moments():
    for kind, vfun in (("eta", limit_variance_eta), ("sigma", limit_variance_sigma)):
        for gamma in (0.5, 1.0):
            m = limit_law_moments(kind, gamma, 2)
            var = m.values[1] - m.values[0] ** 2
            assert abs(var - vfun(gamma, 1.0)) <= 1e-12  # V at the mean = gamma


def test_eta_moments_against_lagrange_oracle():
    # independent pipeline: chi coefficients assembled with plain numpy,
    # reverted with the Lagrange formula
    order = 8
    gamma = 1.0
    expz = np.array([(-gamma) ** k / math.factorial(k) for k in range(order)])
    w_over_1pw = np.array([0.0] + [(-1.0) ** (k + 1) for k in range(1, order + 1)])
    chi = np.convolve(expz, w_over_1pw)[: order + 1]
    psi = lagrange_revert(chi)
    got = limit_law_moments("eta", gamma, order)
    np.testing.assert_allclose(got.values, psi[1:], rtol=1e-11)


def test_limit_law_bundle():
    law = limit_law("eta", 1.0, 8)
    assert law.kind == "eta"
    assert law.moments.values[0] == 1.0
    assert abs(law.variance(1.0) - 1.0) <= 1e-15
    assert abs(law.pseudo_variance(0.5) - 0.25 / math.log(0.5)) <= 1e-15
    assert law.transfer_series.coeffs[0] == 1.0
    assert law.transfer_series.coeffs[1] == -1.0


def test_limit_law_moments_rejections():
    with pytest.raises(DomainError):
        limit_law_moments("eta", -1.0, 4)
    with pytest.raises(DomainError):
        limit_law_moments("zeta", 1.0, 4)


# ---------------------------------------------------------------------------
# closed-form variance functions


def test_variance_removable_singularity():
    for gamma in (0.5, 1.0, 2.0):
        assert limit_variance_eta(gamma, 1.0) == gamma
        assert limit_variance_sigma(gamma, 1.0) == gamma
    # continuity just below 1
    assert abs(limit_variance_eta(1.0, 1.0 - 1e-9) - 1.0) <= 1e-8


def test_variance_eta_at_1_over_e():
    m = 1.0 / math.e
    want = (1.0 - 1.0 / math.e) / math.e  # m(m-1)/ln m at m = 1/e
    assert abs(limit_variance_eta(1.0, m) - want) <= 1e-15
    assert abs(want - 0.23254) <= 5e-6


def test_variance_sigma_is_eta_plus_gap():
    for m in np.linspace(0.05, 0.999, 23):
        gap = limit_variance_sigma(1.0, float(m)) - limit_variance_eta(1.0, float(m))
        assert abs(gap - m * (1.0 - m)) <= 1e-12


def test_variance_domain():
    for bad in (-0.5, 0.0, 1.5):
        with pytest.raises(DomainError):
            limit_variance_eta(1.0, bad)


def test_pseudo_variance_forms():
    m = 0.7
    assert abs(limit_pseudo_variance_eta(1.0, m) - m * m / math.log(m)) <= 1e-15
    assert abs(
        limit_pseudo_variance_sigma(1.0, m) - (m * m / math.log(m) - m * m)
    ) <= 1e-15
    # relation PV_sigma + m^2 = PV_eta, i.e. the t=1 pseudo-variance law
    assert abs(
        limit_pseudo_variance_sigma(1.0, m) + m * m - limit_pseudo_variance_eta(1.0, m)
    ) <= 1e-15


# ---------------------------------------------------------------------------
# scaled sequences


def test_scaled_sequence_n1_is_generator():
    got = scaled_sequence_moments(FP, 1, "boxplus", 4)
    np.testing.assert_allclose(got.values, [1.0, 2.0, 5.0, 14.0], atol=1e-13)


def test_scaled_sequence_unit_first_moment():
    for kind in ("boxplus", "uplus"):
        for n in (1, 2, 7, 16):
            got = scaled_sequence_moments(FP, n, kind, 6)
            assert abs(got.values[0] - 1.0) <= 1e-12


def test_scaled_sequence_unit_first_moment_nonunit_mean():
    nu = AtomicMeasure((0.5, 2.5), (0.4, 0.6))  # mean 1.7
    for kind in ("boxplus", "uplus"):
        got = scaled_sequence_moments(nu, 3, kind, 5)
        assert abs(got.values[0] - 1.0) <= 1e-12


def test_scaled_sequence_rejections():
    with pytest.raises(DomainError):
        scaled_sequence_moments(FP, 0, "boxplus", 4)
    with pytest.raises(DomainError):
        scaled_sequence_moments(FP, 2, "plus", 4)
    with pytest.raises(DomainError):
        scaled_sequence_moments(MarchenkoPasturCentered(0.5), 2, "boxplus", 4)


def test_scaled_second_moment_matches_limit_exactly():
    # Var of the scaled law is kappa2(boxtimes power)/n = 1 for every n
    for kind in ("boxplus", "uplus"):
        got = scaled_sequence_moments(FP, 8, kind, 2)
        assert abs(got.values[1] - 2.0) <= 1e-12


# ---------------------------------------------------------------------------
# convergence reports


@pytest.fixture(scope="module")
def fp_reports():
    return {
        kind: convergence_report(FP, kind, (1, 2, 4, 8, 16, 32, 64), 6, 40)
        for kind in ("boxplus", "uplus")
    }


def test_report_metadata(fp_reports):
    rep = fp_reports["uplus"]
    assert rep.limit_kind == "sigma"
    assert abs(rep.gamma - 1.0) <= 1e-12
    assert fp_reports["boxplus"].limit_kind == "eta"


def test_report_moment_errors_monotone(fp_reports):
    for kind in ("boxplus", "uplus"):
        rep = fp_reports[kind]
        for order in range(1, 5):
            errs = rep.moment_errors(order)
            assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))


def test_report_errors_shrink_by_n64(fp_reports):
    for kind in ("boxplus", "uplus"):
        rep = fp_reports[kind]
        by_n = {n: {r.order: r.error for r in rep.rows if r.n == n} for n in (8, 64)}
        for order in range(3, 6):
            assert by_n[64][order] < by_n[8][order]


def test_report_n1_row_is_generator(fp_reports):
    rep = fp_reports["boxplus"]
    values = {r.order: r.value for r in rep.rows if r.n == 1}
    assert values[3] == 5.0 and values[4] == 14.0


def test_report_variance_rows(fp_reports):
    rep = fp_reports["uplus"]
    final = [r for r in rep.variance_rows if r.n == 64]
    assert {r.m for r in final} == {0.6, 0.8, 0.9}
    for r in final:
        assert r.value is not None
        assert r.error <= 5e-2


def test_report_errors_nonnegative(fp_reports):
    for rep in fp_reports.values():
        assert all(r.error >= 0.0 for r in rep.rows)


@pytest.mark.parametrize("kind", ["boxplus", "uplus"])
def test_report_nonunit_mean_stays_finite(kind):
    # mean 1.7: powering the raw order-40 moments overflowed for n >= 32
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = convergence_report(AtomicMeasure((0.5, 2.5), (0.4, 0.6)), kind)
    assert all(math.isfinite(r.value) for r in rep.rows)
    assert not any("ValueError" in r.note for r in rep.variance_rows)


def test_report_builds_one_s_series_per_scaled_law(monkeypatch):
    calls = []

    def counting(m):
        calls.append(m)
        return s_series(m)

    monkeypatch.setattr(csk, "s_series", counting)
    csk._unit_growth_s_series.cache_clear()
    rep = convergence_report(FP, "uplus")
    assert len(rep.variance_rows) == 21
    assert len(calls) == 7


def test_report_rejects_unsorted_schedule():
    with pytest.raises(DomainError):
        convergence_report(FP, "uplus", (4, 2, 8), 4, 20)


# ---------------------------------------------------------------------------
# the map between the limits


def test_bp_identity_reports():
    for gamma in (0.5, 1.0):
        rep = verify_bp_identity(gamma, 8)
        assert rep.passed
        assert rep.max_error <= 1e-9
        assert rep.errors[0] <= 1e-14  # first moments both equal 1


def test_bp_transform_maps_sigma_moments_to_eta():
    for gamma in (0.5, 1.0):
        eta = limit_law_moments("eta", gamma, 8)
        sigma = limit_law_moments("sigma", gamma, 8)
        mapped = bp_transform(sigma, 1.0)
        np.testing.assert_allclose(mapped.values, eta.values, atol=1e-9)
