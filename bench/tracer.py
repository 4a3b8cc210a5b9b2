"""Per-layer tracing for the traced benchmark run.

The tracer wraps, from outside the package, the public functions of each
layer module (``cli``, ``limits``, ``conv``, ``csk``, ``transforms``, ``measure``,
``series``).  Every binding of a wrapped function is patched: the defining
module's attribute and each ``from .x import f`` copy in the other modules.
Each call opens a span on a stack; a layer's self time is its spans'
durations minus the time covered by their child spans.

It also counts, by wrapping the third-party entry points the layers call:
``scipy.integrate.quad`` calls and integrand evaluations,
``scipy.optimize.brentq`` calls and function evaluations, ``numpy.convolve``
calls and their multiply-adds ``len(a)*len(b)``, and ``numpy.polyval`` calls.
``uninstall`` restores every patched attribute.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

import numpy as np
import scipy.integrate
import scipy.optimize

LAYERS = ("cli", "limits", "conv", "csk", "transforms", "measure", "series")


class Tracer:
    def __init__(self):
        self.calls = Counter()  # "layer.function" -> calls
        self.incl = Counter()  # "layer.function" -> inclusive seconds
        self.self_s = Counter()  # layer -> self seconds
        self.counts = Counter()  # third-party counters
        self._stack = []  # [layer, start, child seconds]
        self._patched = []  # (owner, attribute, original)

    # -- spans -------------------------------------------------------------

    def span(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # S-series built by the csk layer itself: one per variance row at seed
            if key == "transforms.s_series" and self._stack and self._stack[-1][0] == "csk":
                self.counts["csk.s_series"] += 1
            frame = [layer, clock(), 0.0]
            self._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - frame[1]
                self._stack.pop()
                self.calls[key] += 1
                self.incl[key] += dur
                self.self_s[layer] += dur - frame[2]
                if self._stack:
                    self._stack[-1][2] += dur

        return wrapper

    def run(self, fn, *args, **kwargs):
        """Call ``fn`` inside a ``cli`` span (one CLI job)."""
        return self.span("cli", "main", fn)(*args, **kwargs)

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = {name: sys.modules[f"cskfam.{name}"] for name in LAYERS}
        package = [m for name, m in sys.modules.items()
                   if name == "cskfam" or name.startswith("cskfam.")]
        for layer, mod in modules.items():
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = self.span(layer, name, fn)
                for owner in package:
                    for attr, value in list(vars(owner).items()):
                        if value is fn:
                            self._set(owner, attr, wrapped)
        self._set(scipy.integrate, "quad", self._counting_solver(scipy.integrate.quad, "quad"))
        self._set(scipy.optimize, "brentq", self._counting_solver(scipy.optimize.brentq, "brent"))
        self._set(np, "convolve", self._convolve(np.convolve))
        self._set(np, "polyval", self._polyval(np.polyval))

    def uninstall(self):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def _counting_solver(self, solver, name):
        counts = self.counts

        @functools.wraps(solver)
        def wrapper(f, *args, **kwargs):
            counts[f"{name}_calls"] += 1

            def counted(*a):
                counts[f"{name}_evals"] += 1
                return f(*a)

            return solver(counted, *args, **kwargs)

        return wrapper

    def _convolve(self, convolve):
        counts = self.counts

        @functools.wraps(convolve)
        def wrapper(a, v, *args, **kwargs):
            counts["convolve_calls"] += 1
            counts["convolve_madds"] += len(a) * len(v)
            return convolve(a, v, *args, **kwargs)

        return wrapper

    def _polyval(self, polyval):
        counts = self.counts

        @functools.wraps(polyval)
        def wrapper(*args, **kwargs):
            counts["polyval_calls"] += 1
            return polyval(*args, **kwargs)

        return wrapper

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "incl_s": dict(self.incl),
                "self_s": dict(self.self_s), "counts": dict(self.counts)}
