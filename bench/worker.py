"""Runs CLI jobs in a fresh interpreter; started by ``run.py``, not by hand.

    python3 bench/worker.py setup JOBS RESULT
    python3 bench/worker.py loop JOBS RESULT SECONDS TRACE

``JOBS`` is a JSON list of ``{"kind", "args", "out"}``; ``RESULT`` receives a
JSON object.  ``setup`` times ``import cskfam.cli`` plus the first job.
``loop`` runs one untimed warm-up pass, then runs
whole passes over the jobs until ``SECONDS`` have elapsed (one client,
closed loop), recording each job's latency and comparing its CSV bytes with
the warm-up output.  With ``TRACE = 1`` the time is split between an
untraced and a traced phase.  The loop ends by re-running the first job of
each kind and comparing bytes.

Before every job the package's function caches are cleared, so each job
costs what one CLI invocation in a fresh process costs.  Every timing comes
with the time of a :func:`probe` run just before and after it, so that
``run.py`` can correct for how fast the shared processor ran at the time.
"""

import functools
import json
import os
import resource
import sys
import time

T0 = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from cskfam.cli import main  # noqa: E402  (timed import)


def _in_package(obj) -> bool:
    module = getattr(obj, "__module__", None) or ""
    return module == "cskfam" or module.startswith("cskfam.")


def clear_package_caches():
    """Call ``cache_clear`` on every ``functools`` cache defined in a loaded
    ``cskfam`` module, at module level or on a class."""
    for name, mod in list(sys.modules.items()):
        if name != "cskfam" and not name.startswith("cskfam."):
            continue
        for obj in list(vars(mod).values()):
            if not _in_package(obj):
                continue
            for member in [obj, *(vars(obj).values() if isinstance(obj, type) else ())]:
                clear = getattr(member, "cache_clear", None)
                if callable(clear) and _in_package(member):
                    clear()


@functools.cache
def _probe_functions():
    """Imported on first use, so set-up time leaves them out, and bound
    before the tracer patches ``numpy.convolve`` and ``scipy.integrate.quad``."""
    import numpy as np
    from scipy.integrate import quad

    return np, np.convolve, quad


def probe() -> float:
    """Seconds taken by fixed work that mixes what the jobs do: interpreter
    arithmetic, numpy array and convolution work, and scipy quadrature.  It
    uses neither ``cskfam`` nor its caches."""
    np, convolve, quad = _probe_functions()
    start = time.perf_counter()
    acc = 0
    for i in range(50_000):
        acc += i * i
    big = np.arange(1 << 19, dtype=float)
    for _ in range(3):
        (big * 1.0001).sum()
    x = np.linspace(0.1, 1.0, 160)
    for _ in range(20):
        convolve(x, x)
    for k in [0, 1, 2, 3, 4, 5] * 5:
        quad(lambda t: (4.0 - t * t) ** 0.5 * t ** k / (1.0 + t * t), -2.0, 2.0, epsabs=1e-12)
    return time.perf_counter() - start


def run_job(job, call=None) -> tuple[float, int, bytes]:
    """Invoke the CLI in-process; returns (seconds, exit code, output bytes)."""
    call = call or main
    clear_package_caches()
    start = time.perf_counter()
    try:
        call(job["args"] + ["--out", job["out"]], standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed job; its rows count as failed
        code = 1
    elapsed = time.perf_counter() - start
    try:
        with open(job["out"], "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        data = b""
    return elapsed, code, data


def timed_passes(jobs, first, seconds, call=None):
    """Whole passes until ``seconds`` elapse: job latencies, the mean probe
    time around each job, and the count of outputs that differ from the first run."""
    latencies, probes, mismatches, passes = [], [], 0, 0
    deadline = time.perf_counter() + seconds
    before = probe()
    while passes == 0 or time.perf_counter() < deadline:
        for i, job in enumerate(jobs):
            elapsed, code, data = run_job(job, call)
            after = probe()
            latencies.append(elapsed)
            probes.append((before + after) / 2)
            before = after
            mismatches += (code, data) != first[i]
        passes += 1
    return {"latencies": latencies, "probes": probes, "mismatches": mismatches,
            "passes": passes}


def repeat_one_per_kind(jobs, first) -> list[str]:
    seen, differ = set(), []
    for i, job in enumerate(jobs):
        if job["kind"] not in seen:
            seen.add(job["kind"])
            if run_job(job)[1:] != first[i]:
                differ.append(job["kind"])
    return differ


def main_loop(jobs, seconds, trace):
    first = [run_job(job)[1:] for job in jobs]
    result = {"codes": [c for c, _ in first],
              "outputs": [d.decode("utf-8", "replace") for _, d in first],
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if trace:
        from tracer import Tracer

        result["untraced"] = timed_passes(jobs, first, seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            result["traced"] = timed_passes(jobs, first, seconds / 2,
                                            lambda *a, **k: tracer.run(main, *a, **k))
        finally:
            tracer.uninstall()
        result["trace"] = tracer.snapshot()
    else:
        result["untraced"] = timed_passes(jobs, first, seconds)
    result["nondeterministic"] = repeat_one_per_kind(jobs, first)
    return result


if __name__ == "__main__":
    mode, jobs_path, result_path = sys.argv[1:4]
    with open(jobs_path, encoding="utf-8") as fh:
        jobs = json.load(fh)
    if mode == "setup":
        run_job(jobs[0])
        elapsed = time.perf_counter() - T0
        result = {"setup_s": elapsed, "probe_s": sorted(probe() for _ in range(3))[1]}
    else:
        result = main_loop(jobs, float(sys.argv[4]), sys.argv[5] == "1")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
