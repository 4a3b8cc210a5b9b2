"""Seeded workloads: CLI jobs and the checks of their CSV output.

A workload is a list of :class:`Job`.  Each job is one ``cskfam`` CLI
invocation whose inputs (spec files, grids, powers) come from the seed; its
``check`` parses the CSV the job wrote and grades every data row against
:mod:`reference`.  A row is *failed* when the program declares it failed
(non-empty ``error``/``note`` column or an empty value) and *ok* when
every value is within the workload's tolerance.  Output whose structure or
configuration lines disagree with the job is a *problem*, which makes the
run incorrect; so is a ``csk`` row that answers outside the tolerance.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference as ref

#: Tolerances, taken from the package's stated accuracy (see README.md).
CSK_TOL = 1e-8  # quadrature-backed theta/PV/V; csk tests assert 1e-8..1e-9
MOMENT_TOL = 1e-9  # moment-level calculus; verify_bp_identity's default tolerance
MOMENT_ROUTE_TOL = 1e-7  # variance from order-40 moments; csk moment-route test

LIMIT_SCHEDULE = (1, 2, 4, 8, 16, 32, 64)  # the CLI defaults
LIMIT_MOMENT_ORDER = 6
LIMIT_VARIANCE_GRID = (0.6, 0.8, 0.9)
LIMIT_ROWS = len(LIMIT_SCHEDULE) * (LIMIT_MOMENT_ORDER + len(LIMIT_VARIANCE_GRID))
CONVOLVE_ORDER = 160


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    ok: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Tally"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.ok += other.ok
        self.problems += other.problems


@dataclass
class Job:
    kind: str
    args: list[str]
    rows: int  # data rows the job must produce
    check: Callable[[str], Tally]


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def _parse(text: str):
    lines = text.splitlines()
    comments = [ln[2:].split(",") for ln in lines if ln.startswith("# ")]
    body = [ln.split(",") for ln in lines if not ln.startswith("#")]
    if not body:
        return comments, [], []
    return comments, body[0], body[1:]


def _structure(tally: Tally, header, want_header, rows, want_rows, label) -> bool:
    if header != want_header:
        tally.problems.append(f"{label}: header {header!r}")
        return False
    if len(rows) != want_rows or any(len(r) != len(want_header) for r in rows):
        tally.problems.append(f"{label}: expected {want_rows} rows of {len(want_header)} fields")
        return False
    return True


def failed_job_tally(job: Job) -> Tally:
    """A job that exited nonzero: every row it should have produced failed."""
    return Tally(attempted=job.rows, failed=job.rows)


def _write_spec(workdir: Path, name: str, doc: dict) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _dyadic(rng: random.Random, lo: int, hi: int, denom: int) -> Fraction:
    """A random ``k/denom`` with ``lo <= k <= hi``; exact in binary floating point."""
    return Fraction(rng.randint(lo, hi), denom)


def _weights(rng: random.Random, count: int) -> list[Fraction]:
    cuts = sorted(rng.sample(range(8, 57), count - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [64])]
    return [Fraction(p, 64) for p in parts]


def _atomic_doc(atoms, weights) -> dict:
    return {"type": "atomic", "atoms": [float(a) for a in atoms],
            "weights": [float(w) for w in weights]}


# ---------------------------------------------------------------------------
# family_table: cskfam csk over a mean grid inside the domain of means

#: Shares of the distance from the generator mean to each domain endpoint.
_LADDER = tuple(s * (0.06 + 0.8 * k / 15) for s in (-1, 1) for k in range(16))


def _mean_grid(rng: random.Random, m0: float, domain) -> list[float]:
    lo, hi = domain
    grid = []
    for f in _LADDER:
        f += rng.uniform(-0.02, 0.02)
        grid.append(m0 + f * ((hi - m0) if f > 0 else (m0 - lo)))
    return grid


def _csk_check(grid, rowfn, domain) -> Callable[[str], Tally]:
    def check(text: str) -> Tally:
        t = Tally()
        comments, header, rows = _parse(text)
        if not _structure(t, header, ["m", "theta", "pseudo_variance", "variance", "error"],
                          rows, len(grid), "csk"):
            return t
        dom = [c for c in comments if c[0] == "mean_domain"]
        if not dom or not all(_close(float(g), w, 1e-6) for g, w in zip(dom[0][1:], domain)):
            t.problems.append(f"csk: mean_domain {dom!r}, reference {domain!r}")
        for row, m in zip(rows, grid):
            t.attempted += 1
            if float(row[0]) != m:
                t.problems.append(f"csk: row mean {row[0]} != {m!r}")
            if row[4] or "" in row[1:4]:
                t.failed += 1
                continue
            # the seed program meets the tolerance on every row it answers
            # here, so a miss is an output error, not only a lower ok_frac
            if all(_close(float(g), w, CSK_TOL) for g, w in zip(row[1:4], rowfn(m))):
                t.ok += 1
            else:
                t.problems.append(f"csk: row at m = {m!r} outside tolerance {CSK_TOL}")
        return t

    return check


def family_table(rng: random.Random, workdir: Path) -> list[Job]:
    mp = "marchenko_pastur_centered"
    gens = [("free_poisson", "free_poisson", "free_poisson", {}),
            ("mp_a1", "mp", mp, {"a": 1.0}),
            # the job's cost grows by half from a = 1/8 to a = 5/8; keeping the
            # seeded a in [1/8, 3/8], where it varies little, keeps the time of
            # a pass alike across seeds
            ("mp_mid", "mp", mp, {"a": float(_dyadic(rng, 2, 6, 16))}),
            # quadrature is costliest as a approaches 1 from below; a fixed a
            # keeps the slowest job alike across seeds
            ("mp_near1", "mp", mp, {"a": 0.9375}),
            ("semicircle", "semicircle", "semicircle",
             {"center": float(_dyadic(rng, -4, 4, 8)), "variance": float(_dyadic(rng, 4, 16, 8))})]
    jobs = []
    for label, kind, name, params in gens:
        m0, _, domain = ref.named_family(name, params)
        doc = {"type": "named", "name": name}
        if params:
            doc["params"] = params
        spec = _write_spec(workdir, label, doc)
        grid = _mean_grid(rng, m0, domain)
        if label == "mp_near1":
            # every other mean: at all 32 this one job took 2-3x as long as
            # any other, so the tail percentile fell among its few samples, at
            # a rank that moved with the number of passes a run managed
            grid = grid[::2]
        rowfn = lambda m, name=name, params=params: ref.named_row(name, params, m)
        jobs.append(_csk_job(f"csk:{kind}", spec, grid, rowfn, domain))
    # 5 densities and 2 atomic laws: an odd job count keeps the median
    # latency inside one job's samples, and with only two of the cheap atomic
    # jobs it falls near the 30th percentile of the density jobs' samples
    # rather than at their lower edge, where it moved more from run to run
    for i, count in enumerate((2, rng.randint(3, 4))):
        atoms = sorted(Fraction(a, 16) for a in rng.sample(range(1, 65), count))
        weights = _weights(rng, count)
        fam = ref.AtomicFamily([float(a) for a in atoms], [float(w) for w in weights])
        spec = _write_spec(workdir, f"atomic{i}", _atomic_doc(atoms, weights))
        grid = _mean_grid(rng, float(fam.m0), fam.domain)
        jobs.append(_csk_job("csk:atomic", spec, grid, fam.row, fam.domain))
    return jobs


def _csk_job(kind, spec, grid, rowfn, domain) -> Job:
    at = ",".join(repr(m) for m in grid)
    return Job(kind, ["csk", "--spec", spec, "--at", at], len(grid),
               _csk_check(grid, rowfn, domain))


# ---------------------------------------------------------------------------
# limit_report: cskfam limit, both kinds, default order and schedule

#: One atomic generator per mean band, kinds alternating, so that every run
#: covers means below and well above 1, where the order-40 pipeline under-
#: and overflows.  With free Poisson under both kinds a pass has 9 jobs: an
#: odd count keeps the median latency inside one job's samples.
_MEAN_BANDS = ((0.55, 0.65), (0.7, 0.8), (1.2, 1.3), (1.5, 1.6), (1.8, 1.9),
               (2.2, 2.35), (2.6, 2.8))
_KINDS = ("boxplus", "uplus")


def _limit_generator(rng: random.Random, band) -> tuple[list[Fraction], list[Fraction]]:
    """Positive 2-4 atom generator with mean in ``band`` and harmonic mean at
    most half the mean.

    The harmonic mean is the lower end of a positive generator's domain of
    means.  A variance-grid mean x of the n-th scaled law pulls back to
    x**(1/n) * m0 >= 0.6 * m0, so every variance row is checked at a mean
    inside the scaled law's domain of means.  Free Poisson (domain
    (0, inf), m0 = 1) meets the same condition."""
    while True:
        count = rng.randint(2, 4)
        atoms = sorted(Fraction(a, 16) for a in rng.sample(range(1, 65), count))
        weights = _weights(rng, count)
        m0 = sum(a * w for a, w in zip(atoms, weights))
        harmonic = 1 / sum(w / a for a, w in zip(atoms, weights))
        if band[0] <= m0 <= band[1] and harmonic <= m0 / 2:
            return atoms, weights


def _limit_check(m, vfun, kind) -> Callable[[str], Tally]:
    m0 = m[0]
    gamma = (m[1] - m0 * m0) / (m0 * m0)
    limit_kind = "eta" if kind == "boxplus" else "sigma"
    lim = [float(v) for v in ref.limit_law_moments(limit_kind, gamma, LIMIT_MOMENT_ORDER)]
    scaled = {n: [float(v) for v in ref.scaled_sequence(m, n, kind)] for n in LIMIT_SCHEDULE}
    m0f, gammaf = float(m0), float(gamma)

    def check(text: str) -> Tally:
        t = Tally()
        comments, header, rows = _parse(text)
        if not _structure(t, header, ["row", "n", "index", "value", "limit", "error", "note"],
                          rows, LIMIT_ROWS, "limit"):
            return t
        conf = {c[0]: c[1:] for c in comments}
        if not _close(float(conf.get("gamma", ["nan"])[0]), gammaf, 1e-12):
            t.problems.append(f"limit: gamma {conf.get('gamma')} != {gammaf!r}")
        want_keys = [("moment", n, k) for n in LIMIT_SCHEDULE
                     for k in range(1, LIMIT_MOMENT_ORDER + 1)]
        want_keys += [("variance", n, x) for n in LIMIT_SCHEDULE for x in LIMIT_VARIANCE_GRID]
        for row, (what, n, idx) in zip(rows, want_keys):
            t.attempted += 1
            if row[0] != what or int(row[1]) != n or float(row[2]) != idx:
                t.problems.append(f"limit: unexpected row {row[:3]}")
                continue
            if row[6] or row[3] == "":
                t.failed += 1
                continue
            value, limit, error = float(row[3]), float(row[4]), float(row[5])
            consistent = math.isclose(error, abs(value - limit), rel_tol=1e-15, abs_tol=0.0)
            if what == "moment":
                t.ok += (_close(value, scaled[n][idx - 1], MOMENT_TOL)
                         and _close(limit, lim[idx - 1], MOMENT_TOL) and consistent)
                continue
            t.ok += (consistent
                     and _close(limit, ref.limit_variance(limit_kind, gammaf, idx), MOMENT_TOL)
                     and _close(value, ref.scaled_law_variance(vfun, m0f, n, kind, idx),
                                MOMENT_ROUTE_TOL))
        return t

    return check


def limit_report(rng: random.Random, workdir: Path) -> list[Job]:
    gens = [("free_poisson", {"type": "named", "name": "free_poisson"},
             ref.free_poisson_moments(LIMIT_MOMENT_ORDER), lambda x: x, _KINDS)]
    for i, band in enumerate(_MEAN_BANDS):
        atoms, weights = _limit_generator(rng, band)
        fam = ref.AtomicFamily([float(a) for a in atoms], [float(w) for w in weights])
        gens.append((f"atomic{i}", _atomic_doc(atoms, weights),
                     ref.atomic_moments(atoms, weights, LIMIT_MOMENT_ORDER),
                     fam.variance, (_KINDS[i % 2],)))
    jobs = []
    for label, doc, m, vfun, kinds in gens:
        spec = _write_spec(workdir, label, doc)
        for kind in kinds:
            jobs.append(Job(f"limit:{kind}", ["limit", "--spec", spec, "--kind", kind], LIMIT_ROWS,
                            _limit_check(m, vfun, kind)))
    return jobs


# ---------------------------------------------------------------------------
# moment_calculus: cskfam convolve --power at order 160


def _convolve_check(want) -> Callable[[str], Tally]:
    """Relative error against the exact moments, on the scale ``rho**n`` of the
    sequence's growth rate where the exact moment is smaller (odd moments of a
    symmetric law are 0)."""
    wantf = [float(v) for v in want]
    log_rho = max(math.log(abs(v)) / k for k, v in enumerate(wantf, start=1) if v)
    scales = [max(abs(v), math.exp(k * log_rho)) for k, v in enumerate(wantf, start=1)]

    def check(text: str) -> Tally:
        t = Tally()
        _, header, rows = _parse(text)
        if not _structure(t, header, ["order", "moment"], rows, len(want), "convolve"):
            return t
        for k, (row, w, s) in enumerate(zip(rows, wantf, scales), start=1):
            t.attempted += 1
            if row[0] != str(k):
                t.problems.append(f"convolve: row order {row[0]} != {k}")
            if row[1] == "":
                t.failed += 1
                continue
            t.ok += abs(float(row[1]) - w) <= MOMENT_TOL * s
        return t

    return check


def moment_calculus(rng: random.Random, workdir: Path) -> list[Job]:
    n = CONVOLVE_ORDER
    a = _dyadic(rng, 2, 16, 16)
    v = _dyadic(rng, 4, 16, 8)
    count = rng.randint(2, 4)
    atoms = sorted(Fraction(x, 16) for x in rng.sample(range(-32, 49), count))
    weights = _weights(rng, count)
    specs = {
        "free_poisson": ({"type": "named", "name": "free_poisson"},
                         lambda alpha: ref.free_poisson_moments(n, rate=alpha)),
        "semicircle": ({"type": "named", "name": "semicircle", "params": {"variance": float(v)}},
                       lambda alpha: ref.semicircle_moments(n, alpha * v)),
        "mp": ({"type": "named", "name": "marchenko_pastur_centered",
                "params": {"a": float(a)}},
               lambda alpha: ref.mp_centered_moments(n, a, alpha)),
        "atomic": (_atomic_doc(atoms, weights), None),
    }
    paths = {label: _write_spec(workdir, label, doc) for label, (doc, _) in specs.items()}
    base = {label: (fn(Fraction(1)) if fn else ref.atomic_moments(atoms, weights, n))
            for label, (_, fn) in specs.items()}

    jobs = []

    def add(op, label, power, want):
        args = ["convolve", "--spec", paths[label], "--power", repr(float(power)),
                "--op", op, "--order", str(n)]
        jobs.append(Job(f"convolve:{op}", args, n, _convolve_check(want)))

    for label in ("free_poisson", "semicircle", "mp"):
        alpha = _dyadic(rng, 4, 16, 4)
        add("boxplus", label, alpha, specs[label][1](alpha))
    for label in ("free_poisson", "semicircle", "mp", "atomic"):
        alpha = _dyadic(rng, 1, 16, 4)
        add("uplus", label, alpha, ref.uplus_power(base[label], alpha))
    for p in [2] + rng.sample(range(3, 6), 2):
        add("boxtimes", "free_poisson", p, [ref.fuss_catalan(k, p) for k in range(1, n + 1)])
    for label in ("free_poisson", "semicircle", "mp"):
        t = _dyadic(rng, 1, 8, 4)
        add("bt", label, t, ref.uplus_power(specs[label][1](1 + t), 1 / (1 + t)))
    return jobs


WORKLOADS = {
    "family_table": family_table,
    "limit_report": limit_report,
    "moment_calculus": moment_calculus,
}
