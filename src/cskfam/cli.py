"""Command-line frontend.

Subcommands evaluate transforms on grids, convolve measures at moment
level, tabulate kernel-family quantities, run the limit-theorem experiment
and execute the built-in verification suites.  All tabular output is CSV
with ``#``-prefixed comment lines carrying the resolved configuration, so
identical inputs produce byte-identical files.

Exit codes: 0 success, 1 numeric or domain failure, 2 usage error.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click
import numpy as np

from . import conv, csk, limits, transforms
from .errors import CskfamError
from .measure import Measure, MomentSeq, moments, parse_measure_spec
from .series import DEFAULT_ORDER


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _parse_grid(text: str) -> tuple[float, ...]:
    """Parse ``a:b:step`` (inclusive endpoints) or a comma-separated list."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise click.UsageError(f"grid {text!r} must look like a:b:step")
        try:
            a, b, step = (float(p) for p in parts)
        except ValueError as exc:
            raise click.UsageError(f"grid {text!r}: {exc}") from exc
        if step <= 0.0 or b < a:
            raise click.UsageError("grid requires step > 0 and b >= a")
        count = int(np.floor((b - a) / step + 1e-9)) + 1
        return tuple(a + i * step for i in range(count))
    try:
        return tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise click.UsageError(f"grid {text!r}: {exc}") from exc


def _parse_schedule(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise click.UsageError(f"n-schedule {text!r}: {exc}") from exc
    if not values:
        raise click.UsageError("n-schedule must name at least one n")
    return values


def _load_measure(path: str) -> Measure:
    try:
        return parse_measure_spec(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise click.UsageError(f"cannot read {path}: {exc}") from exc


def _emit(out: str | None, comment_rows: list[str], header: list[str],
          rows: list[list[str]]):
    lines = [f"# {c}" for c in comment_rows]
    lines.append(",".join(header))
    lines.extend(",".join(r) for r in rows)
    text = "\n".join(lines) + "\n"
    if out is None:
        click.echo(text, nl=False)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _fail(exc: Exception) -> SystemExit:
    click.echo(f"error: {exc}", err=True)
    return SystemExit(1)


@click.group()
def main():
    """Numerical Cauchy-Stieltjes kernel family toolkit."""


_TRANSFORMS = {
    "G": lambda nu, x: transforms.cauchy_transform(nu, x),
    "M": lambda nu, x: transforms.m_transform(nu, x),
    "Psi": lambda nu, x: transforms.psi_transform(nu, x),
    "S": lambda nu, x: transforms.s_transform(nu, x),
    "Sigma": lambda nu, x: transforms.sigma_transform(nu, x),
    "R": lambda nu, x: transforms.r_transform(nu, x),
    "K": lambda nu, x: transforms.k_transform(nu, x),
}


def _as_real(value) -> float:
    if isinstance(value, complex):
        if value.imag != 0.0:
            raise CskfamError(f"complex value {value} on a real grid")
        return value.real
    return float(value)


@main.command()
@click.option("--spec", required=True, type=click.Path(), help="Measure-spec JSON file.")
@click.option("--which", required=True, type=click.Choice(sorted(_TRANSFORMS)),
              help="Transform to evaluate.")
@click.option("--grid", required=True, help="Arguments: a:b:step or comma list.")
@click.option("--out", default=None, type=click.Path(), help="Output CSV (default stdout).")
def transform(spec, which, grid, out):
    """Evaluate one transform on a grid of real arguments."""
    try:
        nu = _load_measure(spec)
        points = _parse_grid(grid)
        fn = _TRANSFORMS[which]
        rows = []
        for x in points:
            try:
                rows.append([_fmt(x), _fmt(_as_real(fn(nu, x))), ""])
            except CskfamError as exc:
                rows.append([_fmt(x), "", str(exc).replace(",", ";")])
        _emit(out, [f"transform,{which}", f"spec,{nu.describe()}", f"grid,{grid}"],
              ["argument", "value", "error"], rows)
    except CskfamError as exc:
        raise _fail(exc)


@main.command()
@click.option("--spec", required=True, type=click.Path(), help="First measure-spec file.")
@click.option("--spec2", default=None, type=click.Path(), help="Second measure-spec file.")
@click.option("--power", default=None, type=float,
              help="Convolution power (or map parameter t for op=bt).")
@click.option("--op", required=True, type=click.Choice(["boxplus", "uplus", "boxtimes", "bt"]))
@click.option("--order", default=DEFAULT_ORDER, show_default=True,
              help="Moment order of the computation.")
@click.option("--out", default=None, type=click.Path())
def convolve(spec, spec2, power, op, order, out):
    """Convolve two measures, or apply a convolution power, at moment level."""
    if (spec2 is None) == (power is None):
        raise click.UsageError("provide exactly one of --spec2 or --power")
    try:
        nu = _load_measure(spec)
        m_nu = moments(nu, order)
        if op == "boxtimes" and not isinstance(nu, MomentSeq) and not nu.is_positive:
            raise CskfamError("boxtimes requires measures supported on [0, inf)")
        if spec2 is not None:
            other = _load_measure(spec2)
            m_other = moments(other, order)
            if op == "boxtimes" and not isinstance(other, MomentSeq) and not other.is_positive:
                raise CskfamError("boxtimes requires measures supported on [0, inf)")
            if op == "boxplus":
                result = conv.boxplus(m_nu, m_other)
            elif op == "uplus":
                result = conv.uplus(m_nu, m_other)
            elif op == "boxtimes":
                result = conv.boxtimes(m_nu, m_other)
            else:
                raise click.UsageError("op=bt takes --power (the parameter t), not --spec2")
            config = f"specs,{nu.describe()},{other.describe()}"
        else:
            if op == "boxplus":
                result = conv.boxplus_power(m_nu, power)
            elif op == "uplus":
                result = conv.uplus_power(m_nu, power)
            elif op == "boxtimes":
                result = conv.boxtimes_power(m_nu, power)
            else:
                result = conv.bp_transform(m_nu, power)
            config = f"spec,{nu.describe()},power,{_fmt(power)}"
        rows = [[str(n), _fmt(v)] for n, v in enumerate(result.values, start=1)]
        _emit(out, [f"convolve,{op}", config, f"order,{order}"],
              ["order", "moment"], rows)
    except CskfamError as exc:
        raise _fail(exc)


@main.command(name="csk")
@click.option("--spec", required=True, type=click.Path())
@click.option("--at", "at_grid", required=True, help="Mean grid: a:b:step or comma list.")
@click.option("--out", default=None, type=click.Path())
def csk_cmd(spec, at_grid, out):
    """Tabulate theta, pseudo-variance and variance over a grid of means."""
    try:
        nu = _load_measure(spec)
        points = _parse_grid(at_grid)
        try:
            lo, hi = csk.mean_domain(nu)
            domain = f"mean_domain,{_fmt(lo)},{_fmt(hi)}"
        except CskfamError:
            domain = "mean_domain,unknown,unknown"
        rows = []
        for m in points:
            try:
                theta = csk.psi_mean_inverse(nu, m)
                pv = csk.pseudo_variance(nu, m)
                v = csk.variance(nu, m)
                rows.append([_fmt(m), _fmt(theta), _fmt(pv), _fmt(v), ""])
            except CskfamError as exc:
                rows.append([_fmt(m), "", "", "", str(exc).replace(",", ";")])
        _emit(out, [f"spec,{nu.describe()}", domain, f"grid,{at_grid}"],
              ["m", "theta", "pseudo_variance", "variance", "error"], rows)
    except CskfamError as exc:
        raise _fail(exc)


@main.command()
@click.option("--spec", required=True, type=click.Path())
@click.option("--kind", required=True, type=click.Choice(["boxplus", "uplus"]))
@click.option("--n-schedule", default="1,2,4,8,16,32,64", show_default=True)
@click.option("--moments", "moment_order", default=6, show_default=True,
              help="Highest moment order compared against the limit law.")
@click.option("--order", default=DEFAULT_ORDER, show_default=True,
              help="Internal series order of the convolution pipeline.")
@click.option("--out", default=None, type=click.Path())
def limit(spec, kind, n_schedule, moment_order, order, out):
    """Run the scaled-convolution limit experiment and report errors."""
    try:
        nu = _load_measure(spec)
        schedule = _parse_schedule(n_schedule)
        report = limits.convergence_report(nu, kind, schedule, moment_order, order)
        rows = []
        for r in report.rows:
            rows.append(["moment", str(r.n), _fmt(r.order), _fmt(r.value),
                         _fmt(r.limit), _fmt(r.error), ""])
        for r in report.variance_rows:
            rows.append(["variance", str(r.n), _fmt(r.m),
                         "" if r.value is None else _fmt(r.value),
                         _fmt(r.limit),
                         "" if r.error is None else _fmt(r.error),
                         r.note.replace(",", ";")])
        _emit(out,
              [f"spec,{report.measure}", f"kind,{report.kind}",
               f"limit,{report.limit_kind}", f"gamma,{_fmt(report.gamma)}",
               f"moment_order,{report.moment_order}", f"series_order,{report.series_order}",
               f"n_schedule,{'|'.join(str(n) for n in report.n_values)}"],
              ["row", "n", "index", "value", "limit", "error", "note"], rows)
    except CskfamError as exc:
        raise _fail(exc)


@main.command()
@click.option("--suite", required=True, help="Suite name (see `verify --suite list`).")
def verify(suite):
    """Run a built-in verification suite; exit 0 only if every check passes."""
    from . import verify_suites

    if suite == "list":
        for name in verify_suites.SUITES:
            click.echo(name)
        return
    if suite not in verify_suites.SUITES:
        raise click.UsageError(
            f"unknown suite {suite!r}; available: {', '.join(verify_suites.SUITES)}"
        )
    checks = verify_suites.SUITES[suite]()
    failed = 0
    for name, passed, detail in checks:
        status = "PASS" if passed else "FAIL"
        click.echo(f"{status} {name}: {detail}")
        failed += 0 if passed else 1
    click.echo(f"{len(checks) - failed}/{len(checks)} checks passed")
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
