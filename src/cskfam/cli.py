"""Command-line frontend.

Subcommands evaluate transforms on grids, convolve measures at moment
level, tabulate kernel-family quantities, run the limit-theorem experiment
and execute the built-in verification suites.  All tabular output is CSV
with ``#``-prefixed comment lines carrying the resolved configuration, so
identical inputs produce byte-identical files.  ``--out`` rewrites its file
in place, with no truncation to length 0 first, and truncates it to the new
table's length (see :func:`_emit`); stdout is the default.

Exit codes: 0 success, 1 numeric or domain failure, 2 usage error.
"""

from __future__ import annotations

import math
import os
import stat
import sys
from pathlib import Path

import click
import numpy as np

from . import conv, csk, limits, transforms
from .errors import CskfamError
from .measure import Measure, MomentSeq, parse_measure_spec


#: Most points an ``a:b:step`` grid may hold.
MAX_GRID_POINTS = 10**6
#: Moment order of ``convolve`` when ``--order`` is not given.
DEFAULT_ORDER = 40


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


#: The ``%``-template of each kind of data row, which formats the row in one
#: pass: ``"%.17g" % x`` is the conversion of :func:`_fmt`, and ``"%d" % n``
#: is ``str(n)``.
TRANSFORM_ROW, TRANSFORM_ERROR_ROW = "%.17g,%.17g,", "%.17g,,%s"
CONVOLVE_ROW = "%d,%.17g"
CSK_ROW, CSK_ERROR_ROW = "%.17g,%.17g,%.17g,%.17g,", "%.17g,,,,%s"
LIMIT_MOMENT_ROW = "moment,%d,%.17g,%.17g,%.17g,%.17g,"
LIMIT_VARIANCE_ROW = "variance,%d,%.17g,%.17g,%.17g,%.17g,%s"
LIMIT_VARIANCE_ERROR_ROW = "variance,%d,%.17g,,%.17g,,%s"


def _parse_grid(text: str) -> tuple[float, ...]:
    """Parse ``a:b:step`` (inclusive endpoints) or a comma-separated list of
    finite numbers."""
    text = text.strip()
    ranged = ":" in text
    parts = text.split(":") if ranged else [p for p in text.split(",") if p.strip()]
    if ranged and len(parts) != 3:
        raise click.UsageError(f"grid {text!r} must look like a:b:step")
    try:
        values = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise click.UsageError(f"grid {text!r}: {exc}") from exc
    if not all(map(math.isfinite, values)):
        raise click.UsageError(f"grid {text!r}: every number must be finite")
    if not ranged:
        return values
    a, b, step = values
    if step <= 0.0 or b < a:
        raise click.UsageError("grid requires step > 0 and b >= a")
    steps = (b - a) / step
    if not math.isfinite(steps):
        raise click.UsageError(f"grid {text!r}: (b - a)/step overflows")
    count = int(np.floor(steps + 1e-9)) + 1
    if count > MAX_GRID_POINTS:
        raise click.UsageError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    return tuple(a + i * step for i in range(count))


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


def _emit(out: str | None, comment_rows: list[str], header: list[str], rows: list[str]):
    """Write the table to stdout, or to the file ``out`` in place.

    The file is opened without ``O_TRUNC`` (created with mode ``0o666``
    less the umask), written as UTF-8 with ``\\n`` line ends, and then,
    where it is a regular file, truncated to the bytes written, so a longer
    old table leaves no tail.  A device such as ``/dev/null``, a FIFO or a
    terminal is written and not truncated.  Truncating a file that holds
    data to length 0 makes ext4 (``auto_da_alloc``) start a writeback of
    the new data when it is closed; a rewrite that shrinks the file to a
    nonzero length, or keeps its length, does not.

    The rewrite is not atomic, and nothing forces the data to disk: after a
    power loss a rewritten table may still show its old bytes, or a mix of
    old and new.  An error opening the path (a directory, no permission)
    propagates as ``OSError``.
    """
    lines = [f"# {c}" for c in comment_rows]
    lines.append(",".join(header))
    lines.extend(rows)
    text = "\n".join(lines) + "\n"
    if out is None:
        click.echo(text, nl=False)
        return
    data = text.encode("utf-8")
    fd = os.open(out, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


class _Main(click.Group):
    """The command group: a :class:`CskfamError` from any subcommand prints
    one ``error:`` line on stderr and exits 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except CskfamError as exc:
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(1) from exc


@click.group(cls=_Main)
def main():
    """Numerical Cauchy-Stieltjes kernel family toolkit."""


#: The :mod:`.transforms` function of each ``--which``, by name: it is looked
#: up when the command runs, so a wrapper installed on the module sees the call.
_TRANSFORMS = {
    "G": "cauchy_transform",
    "M": "m_transform",
    "Psi": "psi_transform",
    "S": "s_transform",
    "Sigma": "sigma_transform",
    "R": "r_transform",
    "K": "k_transform",
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
    nu = _load_measure(spec)
    points = _parse_grid(grid)
    fn = getattr(transforms, _TRANSFORMS[which])
    rows = []
    for x in points:
        try:
            rows.append(TRANSFORM_ROW % (x, _as_real(fn(nu, x))))
        except CskfamError as exc:
            rows.append(TRANSFORM_ERROR_ROW % (x, str(exc).replace(",", ";")))
    _emit(out, [f"transform,{which}", f"spec,{nu.describe()}", f"grid,{grid}"],
          ["argument", "value", "error"], rows)


#: The :mod:`.conv` function of each ``--op``, by name, looked up the same way.
_PAIR_OPS = ("boxplus", "uplus", "boxtimes")
_POWER_OPS = {"boxplus": "boxplus_power", "uplus": "uplus_power",
              "boxtimes": "boxtimes_power", "bt": "bp_transform"}


def _operand(path: str, op: str) -> Measure:
    """Load one operand; boxtimes needs a positive measure (a moment list
    cannot certify positivity, so it is taken as given)."""
    nu = _load_measure(path)
    if op == "boxtimes" and not isinstance(nu, MomentSeq) and not nu.is_positive:
        raise CskfamError("boxtimes requires measures supported on [0, inf)")
    return nu


@main.command()
@click.option("--spec", required=True, type=click.Path(), help="First measure-spec file.")
@click.option("--spec2", default=None, type=click.Path(), help="Second measure-spec file.")
@click.option("--power", default=None, type=float,
              help="Convolution power (or map parameter t for op=bt).")
@click.option("--op", required=True, type=click.Choice(list(_POWER_OPS)))
@click.option("--order", default=DEFAULT_ORDER, show_default=True,
              help="Moment order of the computation.")
@click.option("--out", default=None, type=click.Path())
def convolve(spec, spec2, power, op, order, out):
    """Convolve two measures, or apply a convolution power, at moment level."""
    if (spec2 is None) == (power is None):
        raise click.UsageError("provide exactly one of --spec2 or --power")
    if spec2 is not None and op not in _PAIR_OPS:
        raise click.UsageError("op=bt takes --power (the parameter t), not --spec2")
    nu = _operand(spec, op)
    if spec2 is not None:
        other = _operand(spec2, op)
        result = getattr(conv, op)(nu, other, order)
        config = f"specs,{nu.describe()},{other.describe()}"
    else:
        result = getattr(conv, _POWER_OPS[op])(nu, power, order)
        config = f"spec,{nu.describe()},power,{_fmt(power)}"
    rows = [CONVOLVE_ROW % nv for nv in enumerate(result.values, start=1)]
    _emit(out, [f"convolve,{op}", config, f"order,{order}"], ["order", "moment"], rows)


@main.command(name="csk")
@click.option("--spec", required=True, type=click.Path())
@click.option("--at", "at_grid", required=True, help="Mean grid: a:b:step or comma list.")
@click.option("--out", default=None, type=click.Path())
def csk_cmd(spec, at_grid, out):
    """Tabulate theta, pseudo-variance and variance over a grid of means.

    The means are solved together; a mean that fails has its message in the
    error column."""
    nu = _load_measure(spec)
    points = _parse_grid(at_grid)
    try:
        lo, hi = csk.mean_domain(nu)
        domain = f"mean_domain,{_fmt(lo)},{_fmt(hi)}"
    except CskfamError:
        domain = "mean_domain,unknown,unknown"
    rows = []
    for m, row in zip(points, csk.family_rows(nu, points)):
        if isinstance(row, CskfamError):
            rows.append(CSK_ERROR_ROW % (m, str(row).replace(",", ";")))
        else:
            rows.append(CSK_ROW % (m, *row))
    _emit(out, [f"spec,{nu.describe()}", domain, f"grid,{at_grid}"],
          ["m", "theta", "pseudo_variance", "variance", "error"], rows)


@main.command()
@click.option("--spec", required=True, type=click.Path())
@click.option("--kind", required=True, type=click.Choice(["boxplus", "uplus"]))
@click.option("--n-schedule", default="1,2,4,8,16,32,64", show_default=True)
@click.option("--moments", "moment_order", default=6, show_default=True,
              help="Highest moment order compared against the limit law; also the "
                   "order of the series behind the moment rows.")
@click.option("--out", default=None, type=click.Path())
def limit(spec, kind, n_schedule, moment_order, out):
    """Run the scaled-convolution limit experiment and report errors."""
    nu = _load_measure(spec)
    schedule = _parse_schedule(n_schedule)
    report = limits.convergence_report(nu, kind, schedule, moment_order)
    rows = [LIMIT_MOMENT_ROW % (r.n, r.order, r.value, r.limit, r.error) for r in report.rows]
    for r in report.variance_rows:
        note = r.note.replace(",", ";")
        if r.value is None:  # a failed row, whose error is None too
            rows.append(LIMIT_VARIANCE_ERROR_ROW % (r.n, r.m, r.limit, note))
        else:
            rows.append(LIMIT_VARIANCE_ROW % (r.n, r.m, r.value, r.limit, r.error, note))
    _emit(out,
          [f"spec,{report.measure}", f"kind,{report.kind}",
           f"limit,{report.limit_kind}", f"gamma,{_fmt(report.gamma)}",
           f"moment_order,{report.moment_order}",
           f"n_schedule,{'|'.join(str(n) for n in report.n_values)}"],
          ["row", "n", "index", "value", "limit", "error", "note"], rows)


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
