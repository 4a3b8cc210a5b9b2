"""Built-in verification suites for the `verify` CLI subcommand.

Each suite is a callable returning ``(name, passed, detail)`` triples.  The
checks mirror the package's core identities at fixed tolerances; they run
in seconds and are deterministic.
"""

from __future__ import annotations

import numpy as np

from . import conv, csk, limits, transforms
from .errors import raise_error
from .measure import AtomicMeasure, FreePoisson, mean
from .series import identity_series, ps_compose, ps_mul, ps_pow_real, ps_revert

Check = tuple[str, bool, str]


def _check(name: str, err: float, tol: float) -> Check:
    return name, err <= tol, f"max error {err:.3e} (tol {tol:.0e})"


def series_suite() -> list[Check]:
    rng = np.random.default_rng(20240601)
    order = 20
    ident = identity_series(order)
    worst_rt = 0.0
    for _ in range(50):
        a1 = rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))
        tail_scale = (0.5 * abs(a1)) ** np.arange(order + 1)
        a = rng.uniform(-1.0, 1.0, order + 1) * tail_scale
        a[0], a[1] = 0.0, a1
        r = ps_compose(a, ps_revert(a))
        worst_rt = max(worst_rt, float(np.max(np.abs(r - ident))))
    checks = [_check("series.revert_roundtrip", worst_rt, 1e-12)]

    worst_pow = 0.0
    for _ in range(20):
        a = rng.uniform(-0.5, 0.5, 13)
        a[0] = rng.uniform(0.5, 2.0)
        p, q = rng.uniform(-2.0, 2.0, 2)
        lhs = ps_mul(ps_pow_real(a, p), ps_pow_real(a, q))
        rhs = ps_pow_real(a, p + q)
        worst_pow = max(worst_pow, float(np.max(np.abs(lhs - rhs))))
    checks.append(_check("series.power_additivity", worst_pow, 1e-12))
    return checks


_TEST_MEASURES = (
    FreePoisson(),
    AtomicMeasure((0.5, 2.5), (0.4, 0.6)),
)


def s_identity_suite() -> list[Check]:
    """S-transform identities on the negative-mean side of positive measures."""
    checks: list[Check] = []
    for nu in _TEST_MEASURES:
        label = nu.describe()
        delta = nu.zero_mass
        lo, m0 = csk.mean_domain(nu)[0], mean(nu)
        grid = np.linspace(lo + 0.12 * (m0 - lo), m0 - 0.12 * (m0 - lo), 7)
        err_psi = err_s = 0.0
        ws = []
        ok_interval = True
        for m, row in zip(grid, csk.family_rows(nu, grid.tolist())):
            theta, pv, _ = raise_error(row)
            w = m * m / pv
            ws.append(w)
            ok_interval &= delta - 1.0 < w < 0.0
            err_psi = max(err_psi, abs(transforms.psi_transform(nu, theta).real - w))
            err_s = max(err_s, abs(transforms.s_transform(nu, w) * m - 1.0))
        checks.append(_check(f"psi_of_mean_inverse[{label}]", err_psi, 1e-9))
        checks.append(("w_in_interval[" + label + "]", ok_interval,
                       "m^2/PV(m) inside (delta-1, 0)"))
        checks.append(_check(f"s_reciprocal_mean[{label}]", err_s, 1e-9))
        s_vals = [transforms.s_transform(nu, w) for w in sorted(ws)]
        decreasing = all(b < a for a, b in zip(s_vals, s_vals[1:]))
        checks.append((f"s_strictly_decreasing[{label}]", decreasing,
                       "S decreasing on the sampled w grid"))
        tail = [abs(w * transforms.s_transform(nu, w)) for w in (-1e-2, -1e-4, -1e-6)]
        vanishing = tail[0] > tail[1] > tail[2]
        checks.append((f"w_times_s_vanishes[{label}]", vanishing,
                       f"|w*S(w)| = {tail[0]:.2e}, {tail[1]:.2e}, {tail[2]:.2e}"))
        increasing = all(b > a for a, b in zip(ws, ws[1:]))
        checks.append((f"w_map_increasing[{label}]", increasing,
                       "m -> m^2/PV(m) increasing on the mean grid"))
    return checks


def boxtimes_law_suite() -> list[Check]:
    checks: list[Check] = []
    pv_fp = lambda x: x * x / (x - 1.0)
    for alpha in (2.0, 3.0):
        powered = conv.boxtimes_power(FreePoisson(), alpha, 40)
        checks.append((f"boxtimes_power_mean[alpha={alpha:g}]",
                       powered.values[0] == 1.0,
                       f"first moment {powered.values[0]!r}"))
        err = 0.0
        for m in np.linspace(0.7, 0.95, 5):
            recon = csk.pseudo_variance(powered, float(m))
            target = csk.boxtimes_power_pseudo_variance(pv_fp, alpha, float(m))
            err = max(err, abs(recon - target))
        checks.append(_check(f"boxtimes_power_pseudo_variance[alpha={alpha:g}]", err, 1e-5))
        err_v = 0.0
        for m in np.linspace(0.7, 0.95, 5):
            recon = csk.variance(powered, float(m))
            target = csk.boxtimes_power_variance(lambda x: x, 1.0, alpha, float(m))
            err_v = max(err_v, abs(recon - target))
        checks.append(_check(f"boxtimes_power_variance[alpha={alpha:g}]", err_v, 1e-5))
    return checks


def limits_suite() -> list[Check]:
    checks: list[Check] = []
    for gamma in (0.5, 1.0):
        rep = limits.verify_bp_identity(gamma, 8)
        checks.append((f"bp_identity[gamma={gamma:g}]", rep.passed,
                       f"max moment error {rep.max_error:.3e} (tol {rep.tolerance:.0e})"))
    grid = np.linspace(0.05, 0.999, 41)
    err_bt = max(
        abs(csk.bt_variance(lambda x: limits.limit_variance_sigma(1.0, x), 1.0, 1.0, float(m))
            - limits.limit_variance_eta(1.0, float(m)))
        for m in grid
    )
    checks.append(_check("bt_maps_sigma_variance_to_eta", err_bt, 1e-12))
    err_gap = max(
        abs(limits.limit_variance_sigma(1.0, float(m)) - limits.limit_variance_eta(1.0, float(m))
            - m * (1.0 - m))
        for m in grid
    )
    checks.append(_check("sigma_minus_eta_variance_gap", err_gap, 1e-12))

    report = limits.convergence_report(FreePoisson(), "uplus")
    monotone = True
    for order in range(2, 5):
        errs = report.moment_errors(order)
        monotone &= all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
    checks.append(("uplus_moment_errors_monotone", monotone,
                   "errors nonincreasing along the doubling schedule"))
    return checks


def all_suite() -> list[Check]:
    return series_suite() + s_identity_suite() + boxtimes_law_suite() + limits_suite()


SUITES = {
    "series": series_suite,
    "prop2": s_identity_suite,
    "theorem-boxtimes": boxtimes_law_suite,
    "limits": limits_suite,
    "all": all_suite,
}
