"""Fold cProfile statistics into the benchmark's layers.

A layer is a module of the ``discrete_boltzmann`` package, plus
``fractions`` (the stdlib ``fractions`` and ``numbers`` modules and
``math.gcd``) and ``bench`` (this benchmark's own files).  Self time of
any other stdlib or builtin function is charged to the layers of its
callers, in proportion to the time each caller accounts for.
"""

from __future__ import annotations

import os
import pstats

PACKAGE = "discrete_boltzmann"
LAYERS = ("nomials", "multisets", "distributions", "boltzmann", "markov", "approx",
          "multivariate", "ketform", "verify", "cli", "fractions")
GCD = "<built-in method math.gcd>"
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def own_layer(key: tuple) -> str | None:
    """Layer a function belongs to by its source file, or None to inherit."""
    filename, _, funcname = key
    path = filename.replace("\\", "/").split("/")
    if len(path) > 1 and path[-2] == PACKAGE:
        return path[-1][:-3]
    if funcname == GCD or path[-1] in ("fractions.py", "numbers.py"):
        return "fractions"
    if os.path.dirname(os.path.abspath(filename)) == _BENCH_DIR:
        return "bench"
    return None


def fold(stats: pstats.Stats) -> dict[str, float]:
    """Self seconds per layer."""
    table = stats.stats
    memo: dict[tuple, dict[str, float]] = {}
    active: set[tuple] = set()

    def shares(key: tuple) -> dict[str, float]:
        own = own_layer(key)
        if own is not None:
            return {own: 1.0}
        if key in memo:
            return memo[key]
        active.add(key)
        # a caller still being resolved closes a cycle (say isinstance calling
        # __instancecheck__ calling isinstance); that edge is dropped
        weight, resolved = {}, {}
        for caller, v in table[key][4].items():
            if caller not in active:
                sh = shares(caller)
                if sh:
                    weight[caller], resolved[caller] = (v[2], v[0]), sh
        active.discard(key)
        if not weight:
            return {} if table[key][4] else {"other": 1.0}
        pick = 0 if sum(w[0] for w in weight.values()) else 1
        total = sum(w[pick] for w in weight.values())
        out: dict[str, float] = {}
        for caller, w in weight.items():
            for layer, s in resolved[caller].items():
                out[layer] = out.get(layer, 0.0) + s * w[pick] / total
        memo[key] = out
        return out

    totals: dict[str, float] = {}
    for key, (_, _, tt, _, _) in table.items():
        for layer, s in (shares(key) or {"other": 1.0}).items():
            totals[layer] = totals.get(layer, 0.0) + tt * s
    return totals


def top_entries(stats: pstats.Stats, n: int = 3) -> list[tuple[str, float]]:
    """The n functions with the most self time, as (label, seconds)."""
    rows = sorted(stats.stats.items(), key=lambda kv: -kv[1][2])[:n]
    return [(f"{os.path.basename(f)}:{line}({name})", v[2]) for (f, line, name), v in rows]


def call_count(stats: pstats.Stats, match) -> int:
    """Total calls of the functions whose (filename, line, name) key matches."""
    return sum(v[1] for key, v in stats.stats.items() if match(key))


def code_key(fn) -> tuple[str, int]:
    """(file basename, first line) of a Python function, as pstats keys it."""
    code = fn.__code__
    return os.path.basename(code.co_filename), code.co_firstlineno
