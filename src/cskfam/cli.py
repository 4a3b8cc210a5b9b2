"""Command-line frontend.

Subcommands evaluate transforms on grids, convolve measures at moment
level, tabulate kernel-family quantities, run the limit-theorem experiment
and execute the built-in verification suites.  All tabular output is CSV
with ``#``-prefixed comment lines carrying the resolved configuration, so
identical inputs produce byte-identical files.  ``--out`` rewrites its file
in place, with no truncation to length 0 first, and truncates it to the new
table's length (see :func:`_emit`); stdout is the default.

A command line is ``cskfam COMMAND [--option VALUE]...`` (see
:data:`_COMMANDS`).  A value follows ``=`` or is the next argument, even one
starting with ``-``; a repeated option keeps its last value.

Exit codes: 0 success; 1 numeric or domain failure (``error:`` on stderr),
a closed stdout or Ctrl-C; 2 usage error (``Error:`` on stderr).
"""

from __future__ import annotations

import math
import os
import stat
import sys
from pathlib import Path

import numpy as np

from . import conv, csk, limits, transforms
from .errors import CskfamError
from .measure import Measure, MomentSeq, parse_measure_spec


#: Most points an ``a:b:step`` grid may hold.
MAX_GRID_POINTS = 10**6
#: Moment order of ``convolve`` when ``--order`` is not given.
DEFAULT_ORDER = 40


class UsageError(Exception):
    """A malformed command line, or an input it names that cannot be read."""


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
        raise UsageError(f"grid {text!r} must look like a:b:step")
    try:
        values = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"grid {text!r}: {exc}") from exc
    if not all(map(math.isfinite, values)):
        raise UsageError(f"grid {text!r}: every number must be finite")
    if not ranged:
        return values
    a, b, step = values
    if step <= 0.0 or b < a:
        raise UsageError("grid requires step > 0 and b >= a")
    steps = (b - a) / step
    if not math.isfinite(steps):
        raise UsageError(f"grid {text!r}: (b - a)/step overflows")
    count = int(np.floor(steps + 1e-9)) + 1
    if count > MAX_GRID_POINTS:
        raise UsageError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    return tuple(a + i * step for i in range(count))


def _parse_schedule(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise UsageError(f"n-schedule {text!r}: {exc}") from exc
    if not values:
        raise UsageError("n-schedule must name at least one n")
    return values


def _load_measure(path: str) -> Measure:
    try:
        return parse_measure_spec(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


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
        sys.stdout.write(text)
        return
    data = text.encode("utf-8")
    fd = os.open(out, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


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


def convolve(spec, spec2, power, op, order, out):
    """Convolve two measures, or apply a convolution power, at moment level."""
    if (spec2 is None) == (power is None):
        raise UsageError("provide exactly one of --spec2 or --power")
    if spec2 is not None and op not in _PAIR_OPS:
        raise UsageError("op=bt takes --power (the parameter t), not --spec2")
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


def verify(suite):
    """Run a built-in verification suite; exit 0 only if every check passes."""
    from . import verify_suites

    if suite == "list":
        for name in verify_suites.SUITES:
            print(name)
        return
    if suite not in verify_suites.SUITES:
        raise UsageError(
            f"unknown suite {suite!r}; available: {', '.join(verify_suites.SUITES)}"
        )
    checks = verify_suites.SUITES[suite]()
    failed = 0
    for name, passed, detail in checks:
        status = "PASS" if passed else "FAIL"
        print(f"{status} {name}: {detail}")
        failed += 0 if passed else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    if failed:
        sys.exit(1)


_SPEC = ("--spec", "spec", str, ..., "Measure-spec JSON file.")
_OUT = ("--out", "out", str, None, "Output CSV (default stdout).")
#: Each command's function and options: (flag, parameter, converter, default
#: or ``...`` if required, help); a converter is str, int, float or the choices.
_COMMANDS = {
    "transform": (transform, [
        _SPEC, ("--which", "which", tuple(sorted(_TRANSFORMS)), ..., "Transform to evaluate."),
        ("--grid", "grid", str, ..., "Arguments: a:b:step or comma list."), _OUT]),
    "convolve": (convolve, [
        ("--spec", "spec", str, ..., "First measure-spec file."),
        ("--spec2", "spec2", str, None, "Second measure-spec file."),
        ("--power", "power", float, None, "Convolution power (or map parameter t for op=bt)."),
        ("--op", "op", tuple(_POWER_OPS), ..., "A convolution, or bt for the map B_t."),
        ("--order", "order", int, DEFAULT_ORDER, "Moment order of the computation."), _OUT]),
    "csk": (csk_cmd, [
        _SPEC, ("--at", "at_grid", str, ..., "Mean grid: a:b:step or comma list."), _OUT]),
    "limit": (limit, [
        _SPEC, ("--kind", "kind", ("boxplus", "uplus"), ..., "Convolution of the powers."),
        ("--n-schedule", "n_schedule", str, "1,2,4,8,16,32,64", "Comma list of the n."),
        ("--moments", "moment_order", int, 6, "Highest moment order to compare."), _OUT]),
    "verify": (verify, [("--suite", "suite", str, ..., "Suite name (see `--suite list`).")]),
}


def _parse(args: list[str]):
    """The call a command line asks for: a command, or printing a usage."""
    name = args[0] if args else None
    if name == "--help":
        return lambda: print(f"Usage: cskfam COMMAND [OPTIONS]\nCommands: {', '.join(_COMMANDS)}")
    if name not in _COMMANDS:
        raise UsageError(f"No such command {name!r}." if args else "Missing command.")
    fn, options = _COMMANDS[name]
    flags = {option[0]: option for option in options}
    kwargs, rest = {param: default for _, param, _, default, _ in options}, iter(args[1:])
    for arg in rest:
        if arg == "--help":
            return lambda: print(_help(name))
        flag, eq, text = arg.partition("=")
        if flag not in flags:
            raise UsageError(f"Unexpected argument {arg!r}.")
        if not eq and (text := next(rest, None)) is None:
            raise UsageError(f"Option {flag!r} requires an argument.")
        _, param, convert, _, _ = flags[flag]
        try:
            kwargs[param] = convert(text) if callable(convert) else convert[convert.index(text)]
        except ValueError:
            raise UsageError(f"Invalid value for {flag!r}: {text!r}.") from None
    if missing := [flag for flag, param, *_ in options if kwargs[param] is ...]:
        raise UsageError(f"Missing option {missing[0]!r}.")
    return lambda: fn(**kwargs)


def _help(name: str) -> str:
    fn, options = _COMMANDS[name]
    lines = [f"Usage: cskfam {name} [OPTIONS]", "", fn.__doc__, "", "Options:"]
    for flag, _, kind, default, text in options:
        kind = kind.__name__ if callable(kind) else "|".join(kind)
        mark = {...: "  [required]", None: ""}.get(default, f"  [default: {default}]")
        lines.append(f"  {flag} {kind}  {text}{mark}")
    return "\n".join(lines)


def main(args=None, standalone_mode=True):
    """Run one command line (``sys.argv[1:]`` by default).  Outside standalone
    mode a usage error, a closed stdout or Ctrl-C propagates as an exception."""
    args = sys.argv[1:] if args is None else list(args)
    try:
        _parse(args)()
        sys.stdout.flush()  # so that a closed stdout shows here, not at exit
    except CskfamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1) from exc
    except UsageError as exc:
        if not standalone_mode:
            raise
        command = f" {args[0]}" if args and args[0] in _COMMANDS else ""
        print(f"Error: {exc}\nTry 'cskfam{command} --help' for help.", file=sys.stderr)
        sys.exit(2)
    except (BrokenPipeError, KeyboardInterrupt) as exc:
        if not standalone_mode:
            raise
        if isinstance(exc, BrokenPipeError):  # the reader has gone: drop what stdout holds
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        else:
            print("\nAborted!", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
