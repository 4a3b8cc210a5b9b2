"""Independent brute-force oracles used to validate the production code.

Everything here is deliberately naive: direct polynomial substitution,
Lagrange inversion, and explicit enumeration of set partitions.  None of it
shares code paths with the package internals it checks.  The production
reversion is itself a Lagrange pass, so :func:`substitution_revert`, which
solves for one coefficient at a time through :func:`compose_direct`, is the
reference that shares no algorithm with it.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


# ---------------------------------------------------------------------------
# polynomial / series oracles


def compose_direct(outer, inner, order: int) -> np.ndarray:
    """Coefficients of outer(inner(z)) by accumulating full polynomial powers."""
    outer = np.asarray(outer, dtype=float)
    inner = np.asarray(inner, dtype=float)
    acc = np.zeros(order + 1)
    power = np.array([1.0])  # inner**0
    for k, c in enumerate(outer):
        take = min(order + 1, len(power))
        acc[:take] += c * power[:take]
        power = np.convolve(power, inner)
    return acc


def substitution_revert(coeffs, order: int | None = None) -> np.ndarray:
    """Compositional inverse, one coefficient at a time.

    With ``g_k`` still 0, the ``z**k`` coefficient of ``a(g(z))`` holds
    everything but the ``a1*g_k`` term, so ``g_k`` is minus that over ``a1``.
    """
    a = np.asarray(coeffs, dtype=float)
    if order is None:
        order = len(a) - 1
    assert a[0] == 0.0 and a[1] != 0.0
    g = np.zeros(order + 1)
    g[1] = 1.0 / a[1]
    for k in range(2, order + 1):
        g[k] = -compose_direct(a[: k + 1], g[: k + 1], k)[k] / a[1]
    return g


def lagrange_revert(coeffs, order: int | None = None) -> np.ndarray:
    """Compositional inverse via the Lagrange inversion formula.

    ``g_n = (1/n) [w**(n-1)] (w / a(w))**n`` for ``a`` with ``a0 = 0``,
    ``a1 != 0``.
    """
    a = np.asarray(coeffs, dtype=float)
    if order is None:
        order = len(a) - 1
    assert a[0] == 0.0 and a[1] != 0.0
    # w/a(w) = 1 / (a(w)/w)
    aw = a[1 : order + 2]
    if len(aw) < order + 1:
        aw = np.concatenate([aw, np.zeros(order + 1 - len(aw))])
    f = np.zeros(order + 1)
    f[0] = 1.0 / aw[0]
    for k in range(1, order + 1):
        f[k] = -np.dot(aw[1 : k + 1], f[k - 1 :: -1]) / aw[0]
    g = np.zeros(order + 1)
    power = np.zeros(order + 1)
    power[0] = 1.0
    for n in range(1, order + 1):
        power = np.convolve(power, f)[: order + 1]  # f**n
        g[n] = power[n - 1] / n
    return g


# ---------------------------------------------------------------------------
# partition enumeration


def set_partitions(n: int):
    """All set partitions of {0..n-1} as tuples of frozen blocks."""
    if n == 0:
        yield ()
        return
    for rest in set_partitions(n - 1):
        last = n - 1
        yield rest + ((last,),)
        for i, block in enumerate(rest):
            yield rest[:i] + (block + (last,),) + rest[i + 1 :]


def is_non_crossing(partition) -> bool:
    """No a < b < c < d with {a, c} and {b, d} in different blocks."""
    labels = {}
    for idx, block in enumerate(partition):
        for item in block:
            labels[item] = idx
    n = len(labels)
    for a, b, c, d in itertools.combinations(range(n), 4):
        if labels[a] == labels[c] != labels[b] == labels[d]:
            return False
    return True


def is_interval(partition) -> bool:
    """Every block is a contiguous run of integers."""
    return all(max(block) - min(block) + 1 == len(block) for block in partition)


def _moments_by_enumeration(cumulants, n_max: int, keep) -> list[float]:
    out = []
    for n in range(1, n_max + 1):
        total = 0.0
        for partition in set_partitions(n):
            if not keep(partition):
                continue
            term = 1.0
            for block in partition:
                term *= cumulants[len(block) - 1]
            total += term
        out.append(total)
    return out


def nc_moments_from_free_cumulants(cumulants, n_max: int) -> list[float]:
    """Moments as sums over non-crossing partitions."""
    return _moments_by_enumeration(cumulants, n_max, is_non_crossing)


def interval_moments_from_boolean_cumulants(cumulants, n_max: int) -> list[float]:
    """Moments as sums over interval partitions."""
    return _moments_by_enumeration(cumulants, n_max, is_interval)


def _cumulants_by_enumeration(moments_, n_max: int, keep) -> list[float]:
    """Invert the partition sum triangularly: the full block carries k_n."""
    kappa: list[float] = []
    for n in range(1, n_max + 1):
        rest = 0.0
        for partition in set_partitions(n):
            if len(partition) == 1 or not keep(partition):
                continue
            term = 1.0
            for block in partition:
                term *= kappa[len(block) - 1]
            rest += term
        kappa.append(moments_[n - 1] - rest)
    return kappa


def nc_free_cumulants_from_moments(moments_, n_max: int) -> list[float]:
    return _cumulants_by_enumeration(moments_, n_max, is_non_crossing)


def interval_boolean_cumulants_from_moments(moments_, n_max: int) -> list[float]:
    return _cumulants_by_enumeration(moments_, n_max, is_interval)


# ---------------------------------------------------------------------------
# miscellaneous closed forms


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def fuss_catalan(p: int, n: int) -> float:
    """Moments of the p-th multiplicative power of the free Poisson law."""
    return math.comb((p + 1) * n, n) / (p * n + 1)


def random_atomic(rng, max_atoms: int = 4, positive: bool = False):
    """A random atomic measure with well-separated atoms and fat weights."""
    k = int(rng.integers(2, max_atoms + 1))
    lo, hi = (0.2, 2.5) if positive else (-2.0, 2.0)
    while True:
        atoms = np.sort(rng.uniform(lo, hi, k))
        if np.min(np.diff(atoms)) > 0.05:
            break
    weights = rng.uniform(0.2, 1.0, k)
    weights /= weights.sum()
    weights[-1] = 1.0 - weights[:-1].sum()  # exact normalization
    return tuple(atoms.tolist()), tuple(weights.tolist())
