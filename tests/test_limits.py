"""Limit laws, scaled sequences, convergence reports, and the
Boolean-to-free identity between the two limits."""

import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cskfam import conv, csk, limits, series, transforms
from cskfam.conv import bp_transform
from cskfam.errors import CskfamError, DomainError
from cskfam.limits import (
    convergence_report,
    limit_law_moments,
    limit_pseudo_variance_eta,
    limit_pseudo_variance_sigma,
    limit_variance_eta,
    limit_variance_sigma,
    scaled_sequence_moments,
    verify_bp_identity,
)
from cskfam.measure import (
    AtomicMeasure,
    DensityMeasure,
    FreePoisson,
    MarchenkoPasturCentered,
    MomentSeq,
    mean,
    moments,
    parse_measure_spec,
)
from cskfam.transforms import s_series

from oracles import catalan, exact_scaled_sequence, lagrange_revert, mp_scaled_law_variance

FP = FreePoisson()
TWO_ATOM = AtomicMeasure((0.5, 2.5), (0.4, 0.6))

#: exact moments m1..m30 of FP and TWO_ATOM
EXACT_MOMENTS = {
    "free_poisson": [Fraction(catalan(k)) for k in range(1, 31)],
    "two_atom": [Fraction(2, 5) * Fraction(1, 2) ** k + Fraction(3, 5) * Fraction(5, 2) ** k
                 for k in range(1, 31)],
}
GENERATORS = {"free_poisson": FP, "two_atom": TWO_ATOM}


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


def test_limit_law_moments_rejections():
    with pytest.raises(DomainError):
        limit_law_moments("eta", -1.0, 4)
    with pytest.raises(DomainError):
        limit_law_moments("zeta", 1.0, 4)
    for order in (0, -3):  # once a raw ValueError from the empty exp series
        with pytest.raises(DomainError):
            limit_law_moments("eta", 1.0, order)


@pytest.mark.parametrize("fn", [
    lambda g: limit_law_moments("eta", g, 4),
    lambda g: limit_law_moments("sigma", g, 4),
    lambda g: limit_variance_eta(g, 0.5),
    lambda g: limit_variance_sigma(g, 0.5),
    lambda g: limit_pseudo_variance_eta(g, 0.5),
    lambda g: limit_pseudo_variance_sigma(g, 0.5),
])
@pytest.mark.parametrize("gamma", [math.nan, math.inf])
def test_closed_forms_reject_nonfinite_gamma(fn, gamma):
    # a guard written gamma <= 0 is false for nan and would answer nan
    with pytest.raises(DomainError):
        fn(gamma)


@pytest.mark.parametrize("fn", [limit_variance_eta, limit_variance_sigma,
                                limit_pseudo_variance_eta, limit_pseudo_variance_sigma])
def test_closed_forms_reject_nan_mean(fn):
    with pytest.raises(DomainError):
        fn(1.0, math.nan)


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


@pytest.mark.parametrize("name", sorted(GENERATORS))
@pytest.mark.parametrize("kind", ["boxplus", "uplus"])
def test_scaled_sequence_against_exact_moments(name, kind):
    # exact rational chain, one convolution power at a time, against the
    # one-S-series identities; 1.8e-15 relative was the worst measured on
    # the benchmark generators
    for n in (1, 2, 3, 16, 64):
        want = exact_scaled_sequence(EXACT_MOMENTS[name][:6], n, kind)
        got = scaled_sequence_moments(GENERATORS[name], n, kind, 40)
        np.testing.assert_allclose(got.values[:6], [float(v) for v in want], rtol=2e-14, atol=0)


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
        kind: convergence_report(FP, kind, (1, 2, 4, 8, 16, 32, 64), 6)
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


def test_report_variance_rows_follow_the_exact_scaled_law_to_n_1e15():
    # free Poisson's scaled law has V_n(m) = m(m - 1)/(n expm1(log(m)/n));
    # the boxtimes law cancelled in m**(1/n) - 1 and printed 0.6000000000000306
    # at n = 1e13, m = 0.6, where the limit is 0.46983
    ns = (1, 2, 64, 10**8, 10**11, 10**13, 10**15)
    rows = convergence_report(FP, "boxplus", ns).variance_rows
    assert len(rows) == 3 * len(ns)
    for r in rows:
        want = r.m * (r.m - 1.0) / (r.n * math.expm1(math.log(r.m) / r.n))
        assert abs(r.value - want) <= 1e-9 * want, r


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


def test_report_builds_one_generator_s_series(monkeypatch):
    calls = []

    def counting(m):
        calls.append(m)
        return s_series(m)

    for module in (transforms, limits, csk):
        monkeypatch.setattr(module, "s_series", counting)
    csk._unit_growth_s_series.cache_clear()
    rep = convergence_report(FP, "uplus")
    assert len(rep.variance_rows) == 21
    assert len(calls) == 1


@pytest.mark.parametrize("name", sorted(GENERATORS))
@pytest.mark.parametrize("kind", ["boxplus", "uplus"])
def test_report_reverts_only_the_generator_s_series(name, kind, monkeypatch):
    # every scaled law and the limit law come from -log S by Lagrange
    # inversion; the report once reverted one S series per step and one
    # more for the limit law, 8 in all
    orders = []

    def recording(a):
        orders.append(len(a) - 1)
        return series.ps_revert(a)

    for module in (transforms, conv):
        monkeypatch.setattr(module, "ps_revert", recording)
    rep = convergence_report(GENERATORS[name], kind)
    assert orders == [rep.moment_order]  # the Psi series of the generator's 6 moments


@pytest.mark.parametrize("kind", ["boxplus", "uplus"])
def test_report_runs_one_lagrange_pass(kind, monkeypatch):
    # the scaled laws of every step and the limit law share one call; the
    # limit law once took a second call of its own
    calls = []
    lagrange = limits._lagrange_moments

    def counting(u, sigma):
        calls.append((u.shape, sigma))
        return lagrange(u, sigma)

    monkeypatch.setattr(limits, "_lagrange_moments", counting)
    rep = convergence_report(TWO_ATOM, kind)
    assert calls == [((len(rep.n_values), rep.moment_order), kind == "uplus")]
    limit = [r.limit for r in rep.rows if r.n == 1]
    assert limit == list(limit_law_moments(rep.limit_kind, rep.gamma, rep.moment_order).values)


@pytest.mark.parametrize("kind", ["boxplus", "uplus"])
def test_report_on_a_one_atom_generator_names_gamma(kind):
    with pytest.raises(DomainError, match=r"^gamma = 0 must be positive and finite$"):
        convergence_report(AtomicMeasure((2.0,), (1.0,)), kind)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), order=st.integers(1, 12), sigma=st.booleans())
def test_lagrange_moments_of_stacked_rows_are_the_rows_alone(data, order, sigma):
    # stacking laws into one call, as a report stacks its steps and limit
    # law, moves no bit of any of them; a row may be U = gamma*w
    rows = st.lists(st.lists(st.floats(-1.0, 1.0), min_size=order, max_size=order),
                    min_size=1, max_size=8)
    u = np.array(data.draw(rows)) / np.arange(1, order + 1) ** 2
    if data.draw(st.booleans()):
        u[-1] = data.draw(st.floats(0.01, 3.0)) * np.eye(1, order, 1)[0]
    stacked = limits._lagrange_moments(u, sigma)
    for row, got in zip(u, stacked):
        assert got.tobytes() == limits._lagrange_moments(row[None], sigma)[0].tobytes()


@pytest.mark.parametrize("sigma", [False, True])
def test_lagrange_moments_do_not_depend_on_the_order(sigma):
    # moment k is the same at every order K >= k.  Where some weight
    # C(k, j + 1) passed 2**63 (K >= 67), numpy once made the whole row of
    # weights float64 and rounded every weight above 2**53 of it
    u = np.random.default_rng(7).normal(size=(2, 90)) * 0.1 / np.arange(1, 91)
    full = limits._lagrange_moments(u, sigma)
    for order in (40, 70):
        assert full[:, :order].tobytes() == limits._lagrange_moments(u[:, :order], sigma).tobytes()


@pytest.mark.parametrize("name", sorted(GENERATORS))
@pytest.mark.parametrize("kind", ["boxplus", "uplus"])
def test_report_moment_rows_against_exact_moments(name, kind):
    # every (n, k) of the default schedule, against the exact rational
    # chain, one convolution power at a time
    rep = convergence_report(GENERATORS[name], kind)
    assert rep.n_values == limits.DEFAULT_SCHEDULE and rep.moment_order == 6
    for n in rep.n_values:
        want = exact_scaled_sequence(EXACT_MOMENTS[name][:6], n, kind)
        got = [r.value for r in rep.rows if r.n == n]
        assert [r.order for r in rep.rows if r.n == n] == [1, 2, 3, 4, 5, 6]
        np.testing.assert_allclose(got, [float(v) for v in want], rtol=2e-15, atol=0)


def _limit_closed_form(kind, gamma, k):
    """Moment ``k`` of the eta or sigma limit as a sum of positive terms:
    ``(1/k) [w**(k-1)] (1 + w)**k exp(k*U(w))`` with ``U = gamma*w`` or
    ``gamma*w/(1 + w)``, exact for a ``Fraction`` gamma."""
    c = gamma * k
    if kind == "eta":
        terms = (math.comb(k, j) * c ** (k - 1 - j) / math.factorial(k - 1 - j) for j in range(k))
    else:
        terms = ((k - j) * c ** j / math.factorial(j) for j in range(k))
    return sum(terms, Fraction(0)) / k


@pytest.mark.parametrize("gamma", [0.129, 0.37, 1.0, 2.5])
@pytest.mark.parametrize("kind", ["eta", "sigma"])
def test_limit_laws_against_positive_term_closed_forms(kind, gamma):
    got = limit_law_moments(kind, gamma, 12).values
    want = [_limit_closed_form(kind, Fraction(gamma), k) for k in range(1, 13)]
    assert got[0] == 1.0
    for k, (g, w) in enumerate(zip(got, want), start=1):
        assert abs(Fraction(g) - w) <= math.ulp(g), (k, g, float(w))


@pytest.mark.parametrize("name", sorted(GENERATORS))
@pytest.mark.parametrize("kind", ["boxplus", "uplus"])
def test_report_moments_match_longer_series(name, kind):
    # truncating every series to the printed order changes moments 1-6 by
    # roundoff only: within 2 ulp of the same laws built at order 40
    rep = convergence_report(GENERATORS[name], kind)
    for n in rep.n_values:
        got = [r.value for r in rep.rows if r.n == n]
        want = scaled_sequence_moments(GENERATORS[name], n, kind, 40).values[:rep.moment_order]
        np.testing.assert_allclose(got, want, rtol=5e-16, atol=0)


@pytest.mark.parametrize("name", sorted(GENERATORS))
@pytest.mark.parametrize("kind", ["boxplus", "uplus"])
def test_report_variance_rows_against_mpmath_s_route(name, kind):
    # the variance-function chain against the scaled law's own S-series,
    # built from exact moments at 50 digits: converged at 30 moments for
    # small n and m = 0.9
    rep = convergence_report(GENERATORS[name], kind, (1, 2, 4), 2)
    rows = [r for r in rep.variance_rows if r.m == 0.9]
    assert len(rows) == 3
    for row in rows:
        want = mp_scaled_law_variance(EXACT_MOMENTS[name], row.n, kind, row.m, dps=50)
        assert abs(row.value - want) <= 1e-10, (row, want)


def _cell(value=None, note=""):
    return None if value is None else value.hex(), note


def _per_row_chain(nu, kind, ns):
    """The variance rows' values and notes with each row's mean solved on its
    own by ``csk.variance``."""
    out = []
    for n in ns:
        for m in limits.VARIANCE_GRID:
            try:
                out.append(_cell(limits._scaled_law_variance(lambda x: csk.variance(nu, x),
                                                             mean(nu), n, kind, m)))
            except CskfamError as exc:
                out.append(_cell(note=f"{type(exc).__name__}: {exc}"))
    return out


GOLDEN = Path(__file__).parent / "golden"
CHAIN_GENERATORS = {
    "free_poisson": FP,
    **{name: parse_measure_spec((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
       for name in ("two_atom", "catalan_moments")},
}


@pytest.mark.parametrize("name", sorted(CHAIN_GENERATORS))
@pytest.mark.parametrize("kind", ["boxplus", "uplus"])
@pytest.mark.parametrize("ns", [limits.DEFAULT_SCHEDULE, (1, 64, 10**12, 10**13), (9,)],
                         ids=["default", "to_1e13", "n9"])
def test_report_variance_rows_are_the_per_row_chain(name, kind, ns, monkeypatch):
    # at n = 10**12 and 10**13 the pulled-back means lie within 1e-12 of m0,
    # where the pseudo-variance raises; at n = 9, (9*0.9)/9 is not 0.9, so
    # the means must come from the chain's own expressions
    nu = CHAIN_GENERATORS[name]
    want = _per_row_chain(nu, kind, ns)
    # the rows solve every mean in one grid: no scalar inversion, one
    # _roots over all the means, and no Psi
    solves, reads = [], []
    roots, jacobi_roots = csk._roots, csk._jacobi_roots
    monkeypatch.setattr(csk, "_roots",
                        lambda nu_, m0, means: solves.append(list(means)) or roots(nu_, m0, means))
    monkeypatch.setattr(csk, "_jacobi_roots",
                        lambda nu_, m0, means: reads.append(len(means))
                        or jacobi_roots(nu_, m0, means))
    for scalar in ("psi_mean_inverse", "k_mean"):
        monkeypatch.setattr(csk, scalar, lambda *args, which=scalar: pytest.fail(f"{which} called"))
    for cls in (AtomicMeasure, DensityMeasure):
        monkeypatch.setattr(cls, "psi_integral", lambda *args: pytest.fail("Psi evaluated"))
    if nu.is_positive:
        got = [_cell(r.value, r.note) for r in convergence_report(nu, kind, ns).variance_rows]
    else:  # the report refuses a moment sequence, so run its rows' chain alone
        with pytest.raises(DomainError, match="positive generator measure"):
            convergence_report(nu, kind, ns)
        assert not solves
        cells = [(n, m) for n in ns for m in limits.VARIANCE_GRID]
        got = [_cell(note=f"{type(v).__name__}: {v}") if isinstance(v, CskfamError) else _cell(v)
               for v in limits._scaled_law_variances(nu, mean(nu), kind, cells)]
    assert got == want
    [means] = solves
    assert len(means) == 3 * len(ns)
    # the Jacobi parameters give every root but a moment sequence's
    assert sum(reads) == (0 if isinstance(nu, MomentSeq) else len(means))


@pytest.mark.parametrize("kind", ["boxplus", "uplus"])
def test_scaled_law_variances_keep_the_errors_raised_before_vfun(kind, monkeypatch):
    # cells the chain refuses in require_positive before it reads the
    # generator's variance function ask the grid for no mean, and keep the
    # note of that refusal; the others read the grid in order
    nu, m0 = TWO_ATOM, mean(TWO_ATOM)
    cells = [(2, -0.5), (9, 0.9), (4, 0.0), (3, math.nan), (1, 0.6), (2, math.inf), (64, 0.8)]
    want = []
    for n, m in cells:
        try:
            want.append(_cell(limits._scaled_law_variance(lambda x: csk.variance(nu, x), m0, n,
                                                          kind, m)))
        except CskfamError as exc:
            want.append(_cell(note=f"{type(exc).__name__}: {exc}"))
    asked = []
    grid = csk.variances
    monkeypatch.setattr(csk, "variances", lambda nu_, means: asked.append(means) or grid(nu_, means))
    got = [_cell(note=f"{type(v).__name__}: {v}") if isinstance(v, CskfamError) else _cell(v)
           for v in limits._scaled_law_variances(nu, m0, kind, cells)]
    assert got == want
    assert sum(note.startswith("DomainError: m = ") for _, note in got) == 4
    [means] = asked
    assert means == [m0 * ((n * m) / n) ** (1.0 / n) for n, m in ((9, 0.9), (1, 0.6), (64, 0.8))]


@pytest.mark.parametrize("moment_order", [0, -1])
def test_report_rejects_empty_orders(moment_order):
    with pytest.raises(DomainError):
        convergence_report(FP, "boxplus", (1, 2), moment_order)


def test_report_rejects_nonpositive_n():
    with pytest.raises(DomainError):
        convergence_report(FP, "boxplus", (0, 2), 2)


@pytest.mark.parametrize("n", [1.5, 0, -2, math.nan, math.inf, 10**155, 10**400],
                         ids=["1.5", "0", "-2", "nan", "inf", "10**155", "10**400"])
def test_step_must_be_an_integer_with_a_finite_float_square(n):
    # 10**400 once raised OverflowError from 1/n, 10**155 from the 1/n**2
    # of the variance rows, and a schedule entry 1.5 was silently truncated
    # to 1
    with pytest.raises(DomainError):
        scaled_sequence_moments(FP, n, "boxplus", 4)
    with pytest.raises(DomainError):
        convergence_report(FP, "boxplus", (n,), 2)


def test_report_rejects_unsorted_schedule():
    with pytest.raises(DomainError):
        convergence_report(FP, "uplus", (4, 2, 8), 4)


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
        mapped = bp_transform(sigma, 1.0, 8)
        np.testing.assert_allclose(mapped.values, eta.values, atol=1e-9)
