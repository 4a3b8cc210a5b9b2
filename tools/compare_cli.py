"""Compare the CLI output of two source checkouts on the benchmark jobs.

    python3 tools/compare_cli.py PARENT CHANGE [--workload W[,W...]] [--seeds 201,7919]

For each seed, the jobs of each workload are generated with ``bench/jobs.py``
of this checkout, exactly as ``bench/run.py`` generates them (same spec
files, same arguments).  The ``golden_specs`` workload is the tool's own
and does not depend on the seed: it runs every ``cskfam`` command that
takes a spec on each ``tests/golden/*.json`` of this checkout, including
paths the benchmark never takes (see :func:`golden_spec_jobs`), once per
comparison.  Each checkout then runs every job through
``cskfam.cli.main`` in one fresh interpreter whose ``sys.path`` starts with
that checkout's ``src``, writing its table over a file of stale bytes
longer than any table (see :func:`run_checkout`).  The tool lists each job
whose CSV bytes or exit code differ, followed by each differing line of its
CSV (``-`` parent, then ``+`` change; lines are aligned first, and a line
only one side has prints ``(none)`` on the other), by the size of the
change: the largest relative change ``|change - parent| / |parent|`` of each
column over the numeric cells that differ (see :func:`largest_changes`),
and by the grade of each side: the rows within tolerance of the job's own
``check`` over the rows attempted, as ``bench/run.py`` grades them (see
:func:`grade`), so a moved cell reads as a fix or as a regression; a
``golden_specs`` job has no check and reads ``ungraded``.  A ``csk`` job on
a named density or an atomic law also prints each side's largest relative
error against its reference, the closed form or the 50-digit atomic
family, over its rows and over the two ends of its ``# mean_domain`` line
(see :func:`csk_reference_error`), and a ``limit`` job prints each side's
largest relative error of its moment rows against the exact rational
scaled laws and limit law (see :func:`limit_reference_error`), so that bits
moved within the tolerance read as closer or farther.
It ends with the number of jobs that differ and one line naming the largest
change over all jobs, then the line count of ``src/cskfam/*.py`` in each
checkout (see :func:`source_lines`), so that a comparison also shows
whether the same output now comes from less code.  It exits 1 on any
difference, 0 when all agree.  The default workload list is every workload
of ``bench/jobs.py``, then ``golden_specs``.
"""

from __future__ import annotations

import argparse
import difflib
import fractions
import itertools
import json
import math
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import jobs as J  # noqa: E402

GOLDEN_WORKLOAD = "golden_specs"
#: Every workload the tool knows, its default list.
WORKLOADS = (*J.WORKLOADS, GOLDEN_WORKLOAD)
GOLDEN_DIR = ROOT / "tests" / "golden"
#: ``transform --which`` choices, ``convolve --op`` choices with ``--power``
#: and with ``--spec2``, as ``cskfam.cli`` offers them.
TRANSFORMS = ("G", "K", "M", "Psi", "R", "S", "Sigma")
POWER_OPS = ("boxplus", "uplus", "boxtimes", "bt")
PAIR_OPS = ("boxplus", "uplus", "boxtimes")
#: Fixed inputs of the ``golden_specs`` jobs.  The grid crosses 0 and every
#: golden support, so interior points give error rows; the power 2.5 is
#: not an integer, and the order is above what a 10-moment spec stores.
#: The schedule reaches n = 1e13, whose pulled-back means m0*m**(1/n) lie
#: within 1e-12 of the generator mean m0, where the pseudo-variance diverges
#: but the variance rows must still print values; at n = 9, (9*0.9)/9 is
#: not 0.9, so a pulled-back mean written by hand would move bits.
GOLDEN_GRID = "-3,-1.5,-0.5,-0.1,0,0.1,0.5,1,2,3.5,5"
GOLDEN_MEANS = "-1.5,-0.5,0,0.1,0.5,0.9,1,1.5,2,3"
GOLDEN_POWER = "2.5"
GOLDEN_ORDER = "40"
GOLDEN_SCHEDULE = "1,2,4,9,64,1000000000000,10000000000000"
#: What each job's ``--out`` holds before the job runs: longer than any table
#: the jobs write (the largest, an order-160 ``convolve``, is about 4 KiB).
STALE_OUT = b"x" * 65536
#: Largest step whose moment rows :func:`limit_reference_error` grades: the
#: exact chain multiplies ``n`` series, and the benchmark stops at 64.
LIMIT_REFERENCE_MAX_N = 64

# Runs in the fresh interpreter: argv is SRC JOBS RESULT.  A job that raises
# is exit code 1, as in the benchmark worker; its traceback goes to stderr.
_RUNNER = """
import json, sys, traceback
sys.path.insert(0, sys.argv[1])
from cskfam.cli import main
with open(sys.argv[2], encoding="utf-8") as fh:
    jobs = json.load(fh)
codes = []
for job in jobs:
    try:
        main(job["args"] + ["--out", job["out"]], standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = 1
    codes.append(code)
with open(sys.argv[3], "w", encoding="utf-8") as fh:
    json.dump(codes, fh)
"""


def golden_spec_jobs(golden: Path = GOLDEN_DIR) -> list[tuple[str, list[str]]]:
    """``(label, args)`` of the ``golden_specs`` workload: on every
    ``*.json`` spec under ``golden``, each ``transform --which`` on
    :data:`GOLDEN_GRID`, ``csk`` on :data:`GOLDEN_MEANS`, each power op at
    order 40, each pair op against ``free_poisson.json`` and ``limit`` of
    both kinds on the schedule 1, 2, 4."""
    out = []
    for spec in sorted(golden.glob("*.json")):
        s = ["--spec", str(spec)]
        out += [(f"{spec.stem} transform {which}",
                 ["transform", *s, "--which", which, "--grid", GOLDEN_GRID])
                for which in TRANSFORMS]
        out.append((f"{spec.stem} csk", ["csk", *s, "--at", GOLDEN_MEANS]))
        out += [(f"{spec.stem} convolve {op} power",
                 ["convolve", *s, "--op", op, "--power", GOLDEN_POWER, "--order", GOLDEN_ORDER])
                for op in POWER_OPS]
        out += [(f"{spec.stem} convolve {op} free_poisson",
                 ["convolve", *s, "--spec2", str(golden / "free_poisson.json"), "--op", op,
                  "--order", GOLDEN_ORDER])
                for op in PAIR_OPS]
        out += [(f"{spec.stem} limit {kind}",
                 ["limit", *s, "--kind", kind, "--n-schedule", GOLDEN_SCHEDULE])
                for kind in ("boxplus", "uplus")]
    return out


def run_checkout(checkout: Path, jobs: list[dict], outdir: Path) -> list[tuple[int, bytes]]:
    """Exit code and CSV bytes of every job, run by ``checkout``'s sources.

    Each job's ``--out`` file holds :data:`STALE_OUT` before the job runs,
    so every table is written over an existing longer file, as in the
    benchmark's timed passes, and a table that leaves a tail of it differs.
    A file that still holds exactly those bytes (the job wrote nothing)
    reads as empty."""
    outdir.mkdir()
    runs = [dict(job, out=str(outdir / f"job{i}.csv")) for i, job in enumerate(jobs)]
    for run in runs:
        Path(run["out"]).write_bytes(STALE_OUT)
    jobs_path, result_path = outdir / "jobs.json", outdir / "codes.json"
    jobs_path.write_text(json.dumps(runs), encoding="utf-8")
    subprocess.run([sys.executable, "-c", _RUNNER, str(checkout / "src"), str(jobs_path),
                    str(result_path)], check=True)
    codes = json.loads(result_path.read_text(encoding="utf-8"))
    out = []
    for code, job in zip(codes, runs):
        data = Path(job["out"]).read_bytes()
        out.append((code, b"" if data == STALE_OUT else data))
    return out


def differing_lines(parent: bytes, change: bytes) -> list[tuple[str | None, str | None]]:
    """The ``(parent, change)`` line pairs that differ, after aligning the two
    files with :class:`difflib.SequenceMatcher`: a line only one side has
    pairs with ``None``, and a block of replaced lines pairs position by
    position within the block."""
    old = parent.decode("utf-8").splitlines()
    new = change.decode("utf-8").splitlines()
    out = []
    matcher = difflib.SequenceMatcher(None, old, new, autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag != "equal":
            out += itertools.zip_longest(old[i1:i2], new[j1:j2])
    return out


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def largest_changes(parent: bytes, change: bytes) -> dict[str, float]:
    """Largest relative change per column over the numeric cells that differ.

    Rows are compared position by position; ``#`` comment lines are
    skipped and the parent's first other line names the columns.  Where a row's first cell is a word, as the row kinds
    ``moment`` and ``variance`` of ``cskfam limit``, the column is keyed by
    it too (``moment.value``).  Cells that are not numbers on both sides are
    skipped; cells whose numbers compare equal (``-0`` and ``0``) change by
    0, and any other change away from 0 is ``inf``.
    """
    def table(text: bytes) -> list[list[str]]:
        return [line.split(",") for line in text.decode("utf-8").splitlines()
                if not line.startswith("#")]

    old_rows, new_rows = table(parent), table(change)
    if not old_rows:
        return {}
    header, out = old_rows[0], {}
    for old_row, new_row in zip(old_rows[1:], new_rows[1:]):
        kind = "" if _number(old_row[0]) is not None else f"{old_row[0]}."
        for i, (p, c) in enumerate(zip(old_row, new_row)):
            pv, cv = _number(p), _number(c)
            if p == c or pv is None or cv is None:
                continue
            if cv == pv:
                rel = 0.0
            else:
                rel = abs(cv - pv) / abs(pv) if pv != 0.0 else math.inf
            key = kind + (header[i] if i < len(header) else f"column{i + 1}")
            out[key] = max(out.get(key, 0.0), rel)
    return out


def source_lines(checkout: Path) -> int:
    """Lines of ``src/cskfam/*.py`` under ``checkout``, counted as ``wc -l``
    counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in (checkout / "src" / "cskfam").glob("*.py"))


def grade(job: J.Job | None, code: int, out: bytes) -> str:
    """``ok/attempted`` of one side's output under the job's own check; a
    nonzero exit code fails every row, as in ``bench/run.py``.  A job
    without a check (``None``) reads ``ungraded``."""
    if job is None:
        return "ungraded"
    tally = J.failed_job_tally(job) if code else job.check(out.decode("utf-8"))
    problems = f", {len(tally.problems)} problems" if tally.problems else ""
    return f"{tally.ok}/{tally.attempted} ok{problems}"


def csk_reference_error(args: list[str], out: bytes) -> dict[str, float] | None:
    """Largest relative error of a ``cskfam csk`` output against its
    reference, by part: ``rows`` over the answered rows more than 1e-12
    away from the generator mean (where the pseudo-variance divides by 0),
    and ``mean_domain`` over the two ends of the ``# mean_domain`` line.
    The reference is the closed form on a named density
    (``reference.named_row`` and the domain of ``reference.named_family``)
    and the 50-digit ``reference.AtomicFamily`` on an atomic law.  A value
    whose reference is 0 counts its absolute error.  A part the output
    lacks is left out; None for any other job."""
    if args[0] != "csk":
        return None
    doc = json.loads(Path(args[args.index("--spec") + 1]).read_text(encoding="utf-8"))
    if doc.get("type") == "named":
        params = doc.get("params", {})
        m0, _, domain = J.ref.named_family(doc["name"], params)
        reference = lambda m: J.ref.named_row(doc["name"], params, m)
    elif doc.get("type") == "atomic":
        family = J.ref.AtomicFamily(doc["atoms"], doc["weights"])
        m0, domain, reference = float(family.m0), family.domain, family.row
    else:
        return None
    relative = lambda got, want: abs(float(got) - want) / (abs(want) if want else 1.0)
    comments, _, rows = J._parse(out.decode("utf-8"))
    errors = {}
    for line in comments:
        if line[0] == "mean_domain" and "unknown" not in line:
            errors["mean_domain"] = max(map(relative, line[1:3], map(float, domain)))
    rows = [row for row in rows if not row[4] and abs(float(row[0]) - m0) > 1e-12]
    if rows:
        errors["rows"] = max(relative(got, want) for row in rows
                             for got, want in zip(row[1:4], reference(float(row[0]))))
    return errors



def _exact_moments(doc: dict, order: int) -> list | None:
    """The exact moments ``m1..m_order`` of the law of a spec document, from
    its float parameters as ``Fraction`` values; None for a moment list and
    a centered Marchenko-Pastur law, whose mean 0 ``cskfam limit`` refuses."""
    exact = lambda x: fractions.Fraction(float(x))
    params = {key: exact(value) for key, value in doc.get("params", {}).items()}
    if doc.get("type") == "atomic":
        return J.ref.atomic_moments(list(map(exact, doc["atoms"])),
                                    list(map(exact, doc["weights"])), order)
    if doc.get("name") == "free_poisson":
        return J.ref.free_poisson_moments(order)
    if doc.get("name") == "semicircle":
        centered = J.ref.semicircle_moments(order, params.get("variance", 1))
        return J.ref.shift(centered, params.get("center", 0))
    return None


def limit_reference_error(args: list[str], out: bytes) -> dict[str, float] | None:
    """Largest relative error of the moment rows of a ``cskfam limit``
    output, by column: ``scaled moments`` (``value``) against
    ``reference.scaled_sequence`` and ``limit moments`` (``limit``) against
    ``reference.limit_law_moments`` at the exact ``gamma``, both from the
    exact moments of the spec's law, as ``bench/jobs.py`` grades them.  A
    value whose reference is 0 counts its absolute error.  Rows past
    :data:`LIMIT_REFERENCE_MAX_N` are skipped, and so is a part the output
    lacks; None for any other job and for a moment list."""
    if args[0] != "limit":
        return None
    doc = json.loads(Path(args[args.index("--spec") + 1]).read_text(encoding="utf-8"))
    kind = args[args.index("--kind") + 1]
    rows = [row for row in J._parse(out.decode("utf-8"))[2]
            if row[0] == "moment" and int(row[1]) <= LIMIT_REFERENCE_MAX_N]
    m = _exact_moments(doc, max([2] + [int(row[2]) for row in rows]))
    if m is None:
        return None
    gamma = (m[1] - m[0] ** 2) / m[0] ** 2
    limit = J.ref.limit_law_moments("eta" if kind == "boxplus" else "sigma", gamma, len(m))
    scaled = {n: J.ref.scaled_sequence(m, n, kind) for n in {int(row[1]) for row in rows}}
    relative = lambda got, want: float(abs(fractions.Fraction(float(got)) - want)
                                       / (abs(want) if want else 1))
    errors = {}
    for row in rows:
        n, k = int(row[1]), int(row[2])
        for part, got, want in (("scaled moments", row[3], scaled[n][k - 1]),
                                ("limit moments", row[4], limit[k - 1])):
            errors[part] = max(errors.get(part, 0.0), relative(got, want))
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="201,7919")
    args = parser.parse_args(argv)
    workloads = args.workload.split(",")
    unknown = [w for w in workloads if w not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown}; choose from {sorted(WORKLOADS)}")
    for checkout in (args.parent, args.change):
        if not (checkout / "src" / "cskfam" / "cli.py").is_file():
            parser.error(f"no cskfam sources under {checkout / 'src'}")

    compared, differ = 0, 0
    worst = (0.0, "")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        jobs, labels, checked = [], [], []
        for seed in (int(s) for s in args.seeds.split(",")):
            for name in (w for w in workloads if w != GOLDEN_WORKLOAD):
                workdir = tmp / f"{name}-{seed}"
                workdir.mkdir()
                for i, job in enumerate(J.WORKLOADS[name](random.Random(seed), workdir)):
                    jobs.append({"args": job.args})
                    labels.append(f"{name} seed {seed} job {i} ({job.kind})")
                    checked.append(job)
        if GOLDEN_WORKLOAD in workloads:
            for i, (label, job_args) in enumerate(golden_spec_jobs()):
                jobs.append({"args": job_args})
                labels.append(f"{GOLDEN_WORKLOAD} job {i} ({label})")
                checked.append(None)
        parent = run_checkout(args.parent.resolve(), jobs, tmp / "parent")
        change = run_checkout(args.change.resolve(), jobs, tmp / "change")
        for label, job, run, (pcode, pout), (ccode, cout) in zip(labels, checked, jobs, parent,
                                                                  change):
            compared += 1
            if pcode != ccode:
                print(f"DIFFER {label}: exit code {pcode} -> {ccode}")
            elif pout != cout:
                print(f"DIFFER {label}: CSV bytes differ")
            else:
                continue
            differ += 1
            for pline, cline in differing_lines(pout, cout):
                print(f"  - {pline if pline is not None else '(none)'}")
                print(f"  + {cline if cline is not None else '(none)'}")
            changes = largest_changes(pout, cout)
            if changes:
                print("  largest relative change: " + ", ".join(
                    f"{key} {rel:.2g}" for key, rel in sorted(changes.items())))
                key, rel = max(changes.items(), key=lambda item: item[1])
                if rel > worst[0]:
                    worst = (rel, f"{key} of {label}")
            parent_errors, change_errors = (
                csk_reference_error(run["args"], out) or limit_reference_error(run["args"], out)
                for out in (pout, cout))
            for part in sorted(set(parent_errors or ()) & set(change_errors or ())):
                print(f"  reference error ({part}): parent {parent_errors[part]:.2g}, "
                      f"change {change_errors[part]:.2g}")
            print(f"  graded: parent {grade(job, pcode, pout)}, "
                  f"change {grade(job, ccode, cout)}")
    print(f"{compared} jobs compared, {differ} differ")
    print(f"largest relative change over all jobs: {worst[0]:.2g} in {worst[1]}" if worst[1]
          else "largest relative change over all jobs: none")
    print(f"src/cskfam lines: parent {source_lines(args.parent)}, "
          f"change {source_lines(args.change)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
