"""Benchmark of the ``cskfam`` CLI: one client, closed loop, in-process jobs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/cskfam`` must exist); nothing
needs installing.  The seed generates the workload's spec files and CLI
arguments under ``.bench_work/`` (removed afterwards).  Set-up time is the
median of several fresh interpreters that import ``cskfam.cli`` and run the
first job.  A separate fresh interpreter then runs the timed loop
(``worker.py``).  Times are given in units of a fixed probe workload run
around them (see ``PROBE_REF_S``); the wall-clock figures are printed too.
Every job's CSV is graded against ``reference.py``, which does not use the
package.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (CLI jobs run in the timed loop, and those that
exited nonzero) and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced loop with ``--trace 1``.  The lines before
it print the same figures for reading.  The exit code is 1 when an output
check fails and 2 when the checkout holds no ``cskfam`` sources.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import jobs as J

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 5
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
WORKER_TIMEOUT_S = 170
#: Times are reported as (seconds) / (seconds of ``worker.probe`` around
#: them) * PROBE_REF_S.  Neighbours on a shared processor slow the probe and
#: the jobs alike, so this ratio holds still where wall time varies up to 2x
#: from one run to the next.  PROBE_REF_S only fixes the unit: it is about
#: the probe's time on an idle core of the 2-core x86-64 build host, so the
#: figures read as wall times there.
PROBE_REF_S = 0.008


def worker(mode: str, jobs_path: Path, *extra: str) -> dict:
    result_path = jobs_path.with_name(f"result-{mode}.json")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), mode, str(jobs_path), str(result_path),
         *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it: (percentile, value)."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(0, n - TAIL_BEYOND - 1)
    return 100.0 * (k + 1) / n, ordered[k]


def in_probe_units(run) -> list[float]:
    """Job latencies in seconds, in units of the probe run around each."""
    return [t / p * PROBE_REF_S for t, p in zip(run["latencies"], run["probes"])]


def grade(job_list, loop) -> J.Tally:
    """Check every job's output once (repeats are byte-identical or flagged)."""
    tally = J.Tally()
    for job, code, text in zip(job_list, loop["codes"], loop["outputs"]):
        tally.add(J.failed_job_tally(job) if code else job.check(text))
    return tally


def data_rows(text: str) -> int:
    return max(0, sum(1 for line in text.splitlines() if not line.startswith("#")) - 1)


def end_to_end(setup, loop, tally, job_rows) -> tuple[dict, list[str]]:
    run = loop["untraced"]
    lat = in_probe_units(run)
    pct, tail_s = tail(lat)
    jobs = len(lat) // run["passes"]
    pass_s = [sum(lat[i:i + jobs]) for i in range(0, len(lat), jobs)]
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] / s["probe_s"] * PROBE_REF_S
                                      for s in setup), "s"),
        "job_ms_p50": (1000.0 * statistics.median(lat), "ms"),
        "job_ms_tail": (1000.0 * tail_s, "ms"),
        # median over passes, so a burst of load on shared hardware moves it little
        "rows_per_s": (job_rows / statistics.median(pass_s), "rows/s"),
        "answered_frac": (1.0 - tally.failed / tally.attempted, "ratio"),
        "ok_frac": (tally.ok / tally.attempted, "ratio"),
        "peak_rss_mb": (loop["peak_rss_mb"], "MB"),
    }
    notes = [f"fail_frac {tally.failed / tally.attempted:.6g} ratio "
             f"({tally.failed} of {tally.attempted} rows per pass)",
             f"job_ms_tail is p{pct:.2f} of {len(lat)} jobs ({run['passes']} passes)",
             f"wall clock: job_ms_p50 {1000.0 * statistics.median(run['latencies']):.6g} ms, "
             f"setup_s {statistics.median(s['setup_s'] for s in setup):.6g} s, "
             f"probe median {1000.0 * statistics.median(run['probes']):.4g} ms"]
    return metrics, notes


def per_layer(loop, job_list) -> dict:
    snap = loop["trace"]
    calls, incl, self_s, counts = (snap[k] for k in ("calls", "incl_s", "self_s", "counts"))
    run = loop["traced"]
    n = len(run["latencies"])
    passes = run["passes"]

    def per_job(x):
        return x / n

    csk_rows = passes * sum(j.rows for j in job_list if j.kind.startswith("csk:"))
    variance_rows = passes * sum(o.count("\nvariance,") for o in loop["outputs"])
    failed_variance = passes * sum(
        1 for o in loop["outputs"] for line in o.splitlines()
        if line.startswith("variance,") and (line.split(",")[6] or not line.split(",")[3]))
    inversions = calls.get("csk.psi_mean_inverse", 0)
    quad_calls = counts.get("quad_calls", 0)
    untraced_p50 = statistics.median(in_probe_units(loop["untraced"]))
    count, ms = "count/job", "ms/job"
    return {
        "measure.quad_calls": (per_job(quad_calls), count),
        "measure.quad_evals": (per_job(counts.get("quad_evals", 0)), count),
        "measure.quad_evals_per_call": (counts.get("quad_evals", 0) / quad_calls
                                        if quad_calls else 0.0, "count/call"),
        "measure.self_ms": (per_job(1000.0 * self_s.get("measure", 0.0)), ms),
        "transforms.psi_integral.calls": (per_job(calls.get("transforms.psi_integral", 0)),
                                          count),
        "transforms.brent_calls": (per_job(counts.get("brent_calls", 0)), count),
        "transforms.brent_fevals": (per_job(counts.get("brent_evals", 0)), count),
        "transforms.s_series.calls": (per_job(calls.get("transforms.s_series", 0)), count),
        "transforms.self_ms": (per_job(1000.0 * self_s.get("transforms", 0.0)), ms),
        "csk.psi_mean_inverse.calls": (per_job(inversions), count),
        "csk.inversions_per_row": (inversions / csk_rows if csk_rows else 0.0, "count/row"),
        "csk.k_mean_per_inversion": (calls.get("csk.k_mean", 0) / inversions
                                     if inversions else 0.0, "count/call"),
        "csk.mean_domain_ms": (per_job(1000.0 * incl.get("csk.mean_domain", 0.0)), ms),
        "csk.s_series_per_row": (counts.get("csk.s_series", 0) / variance_rows
                                 if variance_rows else 0.0, "count/row"),
        "csk.polyval_calls": (per_job(counts.get("polyval_calls", 0)), count),
        "csk.self_ms": (per_job(1000.0 * self_s.get("csk", 0.0)), ms),
        "series.ps_revert.calls": (per_job(calls.get("series.ps_revert", 0)), count),
        "series.ps_revert.ms": (per_job(1000.0 * incl.get("series.ps_revert", 0.0)), ms),
        "series.convolve_calls": (per_job(counts.get("convolve_calls", 0)), count),
        "series.convolve_madds": (per_job(counts.get("convolve_madds", 0)), "madd/job"),
        "series.self_ms": (per_job(1000.0 * self_s.get("series", 0.0)), ms),
        "conv.calls": (per_job(sum(v for k, v in calls.items() if k.startswith("conv."))),
                       count),
        "conv.self_ms": (per_job(1000.0 * self_s.get("conv", 0.0)), ms),
        "limits.scaled_sequence_moments.calls": (
            per_job(calls.get("limits.scaled_sequence_moments", 0)), count),
        "limits.variance_rows_failed": (per_job(failed_variance), count),
        "limits.self_ms": (per_job(1000.0 * self_s.get("limits", 0.0)), ms),
        "cli.self_ms": (per_job(1000.0 * self_s.get("cli", 0.0)), ms),
        "trace.overhead_frac": (statistics.median(in_probe_units(run)) / untraced_p50 - 1.0,
                                "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cskfam" / "cli.py").is_file():
        print(f"error: no cskfam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in J.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(J.WORKLOADS)}")

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        job_list = J.WORKLOADS[args.workload](random.Random(args.seed), workdir)
        jobs_path = workdir / "jobs.json"
        jobs_path.write_text(json.dumps(
            [{"kind": j.kind, "args": j.args, "out": str(workdir / f"job{i}.csv")}
             for i, j in enumerate(job_list)]), encoding="utf-8")
        setup = [] if args.trace else [worker("setup", jobs_path) for _ in range(SETUP_RUNS)]
        loop = worker("loop", jobs_path, repr(args.seconds), str(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is using it

    tally = grade(job_list, loop)
    job_rows = sum(data_rows(o) for o in loop["outputs"])
    phases = [loop[p] for p in ("untraced", "traced") if p in loop]
    problems = list(tally.problems)
    if loop["nondeterministic"]:
        problems.append(f"repeated job output differs: {loop['nondeterministic']}")
    if any(p["mismatches"] for p in phases):
        problems.append("a timed or traced job's output differs from its first run")
    failed_jobs = sum(p["passes"] for p in phases) * sum(1 for c in loop["codes"] if c)

    if args.trace:
        metrics = per_layer(loop, job_list)
        notes = []
    else:
        metrics, notes = end_to_end(setup, loop, tally, job_rows)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    for line in notes + problems:
        print(f"{args.workload} {line}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(len(p["latencies"]) for p in phases),
        "failed": failed_jobs,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
