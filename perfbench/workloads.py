"""The four benchmark workloads: seeded generators, library calls and output checks.

Every workload is an endless sequence of rounds.  A round has a fixed
operation mix and is shuffled.  The parameters of each operation kind
are quantiles taken from a Halton sequence that continues across rounds
and is shifted by a random vector drawn from the seed (a randomised
quasi-Monte Carlo design).  So one seed always gives the same inputs, and
every seed covers the parameter space evenly, which keeps medians and
tails steady across seeds.  Timed runs measure whole rounds only.

The library sees only the generated inputs.  Each check uses an oracle
written here, never a library route, and returns the size of the output
(summed into ``work.states``).  A failed check raises ``CheckFailed``
naming the layer it belongs to.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from math import comb
from typing import Any, Callable, Iterator

from discrete_boltzmann import (
    NomialTable,
    boltzmann_on_energy,
    boltzmann_on_multisets,
    boltzmann_on_numbers,
    compare,
    discrete_exponential,
    enumerate_multisets_with_sum,
    entropy,
    iterate_chain,
    kl_divergence,
    max_entropy_dist,
    nomial,
    point,
    sample_trajectory,
    shift_channel,
    shift_on_numbers,
    stationarity_residual,
    transition_matrix,
    uniform,
    vandermonde_check,
)


class CheckFailed(Exception):
    """An output that disagrees with the benchmark's oracle."""

    def __init__(self, layer: str, message: str):
        super().__init__(message)
        self.layer = layer


@dataclass(frozen=True)
class Op:
    """One generated operation.

    ``states`` is the size of the configuration space a shift-chain
    operation walks (0 elsewhere); ``bits`` is the bit length of the exact
    normalising count behind the operation (0 where there is none).  Both
    come from the oracles below, so they describe the workload only.
    """
    kind: str
    args: tuple
    states: int = 0
    bits: int = 0


@dataclass(frozen=True)
class Kind:
    layer: str                        # layer a failed check is charged to
    call: Callable[..., Any] | None   # None for cli: the worker runs the argv
    check: Callable[[tuple, Any], int]


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: dict[str, Kind]
    round: Callable[["Sampler"], list[Op]]
    tail_pct: float                  # fixed so the tail means the same on every commit
    warmup: tuple[Op, ...]
    subprocess: bool = False

    def rounds(self, seed: int) -> Iterator[list[Op]]:
        sampler = Sampler(random.Random(f"{self.name}/{seed}"))
        while True:
            ops = self.round(sampler)
            sampler.rng.shuffle(ops)
            yield ops


def _fail(layer: str, message: str) -> None:
    raise CheckFailed(layer, message)


# ---------------------------------------------------------------------------
# oracles and sampling helpers
# ---------------------------------------------------------------------------

def nomial_oracle(n: int, k: int, i: int) -> int:
    """Inclusion-exclusion: sum_j (-1)^j C(K, j) C(i - jN + K - 1, K - 1)."""
    if k == 0:
        return int(i == 0)
    return sum((-1) ** j * comb(k, j) * comb(i - j * n + k - 1, k - 1)
               for j in range(min(k, i // n) + 1))


def multichoose_oracle(m: int, j: int) -> int:
    return comb(m + j - 1, j) if m else int(j == 0)


def config_counts(n: int, k: int) -> list[int]:
    """Entry i: the number of size-k multisets over levels 0..n-1 with level sum i."""
    top = (n - 1) * k
    ways = [[0] * (top + 1) for _ in range(k + 1)]
    ways[0][0] = 1
    for level in range(n):
        for c in range(1, k + 1):
            for s in range(level, top + 1):
                ways[c][s] += ways[c - 1][s - level]
    return ways[k]


@cache
def config_spaces(n_range: range, k_range: range, lo: int, hi: int) -> list[tuple[int, ...]]:
    """(states, N, K, i) with lo <= states <= hi, ordered by state count."""
    return sorted((c, n, k, i) for n in n_range for k in k_range
                  for i, c in enumerate(config_counts(n, k)) if lo <= c <= hi)


def radical_inverse(j: int, base: int) -> float:
    out, scale = 0.0, 1.0
    while j:
        scale /= base
        out += scale * (j % base)
        j //= base
    return out


class Sampler:
    """Seeded randomness plus one shifted Halton sequence per operation kind."""

    BASES = (2, 3, 5, 7)

    def __init__(self, rng: random.Random):
        self.rng = rng
        self._shift: dict[str, list[float]] = {}
        self._next: dict[str, int] = {}

    def points(self, kind: str, m: int, d: int) -> list[tuple[float, ...]]:
        """The next m points of this kind's sequence in [0, 1)^d."""
        shift = self._shift.setdefault(kind, [self.rng.random() for _ in range(d)])
        j0 = self._next.get(kind, 1)
        self._next[kind] = j0 + m
        return [tuple((radical_inverse(j, b) + s) % 1.0 for b, s in zip(self.BASES, shift))
                for j in range(j0, j0 + m)]


def pick(u: float, lo: int, hi: int) -> int:
    """Integer uniform on [lo, hi] at quantile u."""
    return lo + int(u * (hi - lo + 1))


def pick_mean(u: float, e: int) -> Fraction:
    """A mean on [0, E] in steps of 1/2, with 5% of the mass on each end."""
    if u < 0.05:
        return Fraction(0)
    if u >= 0.95:
        return Fraction(e)
    return Fraction(1 + int((u - 0.05) / 0.9 * (2 * e - 1)), 2)


def _sum_is_one(weights, layer: str) -> None:
    if sum(weights, Fraction(0)) != 1:
        _fail(layer, "weights do not sum to exactly 1")


# KL is >= 0 exactly, but its double-precision sum may land just below 0:
# compare(9, 2) pits two uniform distributions and computes -3.2e-30.
KL_ROUNDING = 1e-12


def _finite(x: float, what: str, layer: str) -> None:
    if not math.isfinite(x):
        _fail(layer, f"{what} = {x!r}")


def _kl(x: float, what: str, layer: str) -> None:
    if not math.isfinite(x) or x < -KL_ROUNDING:
        _fail(layer, f"{what} = {x!r}")


def _levels_dist(dist, e: int, layer: str, h: float | None = None) -> int:
    """Full support 0..E with finite entropy (computed here unless given)."""
    if list(dist) != list(range(e + 1)):
        _fail(layer, f"support has {len(dist)} of {e + 1} levels")
    _finite(entropy(dist) if h is None else h, "entropy", layer)
    return len(dist)


# ---------------------------------------------------------------------------
# counting: big-integer N-nomial coefficients
# ---------------------------------------------------------------------------

def _check_nomial(args, value) -> int:
    if value != nomial_oracle(*args):
        _fail("nomials", f"nomial{args} = {value}")
    return 1


def _check_numbers(args, dist) -> int:
    n, k, i = args
    if sum((p * j for j, p in dist.items()), Fraction(0)) != Fraction(i, k):
        _fail("boltzmann", f"boltzmann_on_numbers{args} mean is not {i}/{k}")
    return len(dist)


def _check_vandermonde(args, ok) -> int:
    if ok is not True:
        _fail("nomials", f"vandermonde_check{args} returned {ok!r}")
    return 1


def _table_row(n: int, k: int) -> list[int]:
    return NomialTable(n, k).row(k)


def _check_row(args, row) -> int:
    n, k = args
    mid = (n - 1) * k // 2
    if (len(row) != (n - 1) * k + 1 or sum(row) != n ** k or row != row[::-1]
            or row[mid] != nomial_oracle(n, k, mid)):
        _fail("nomials", f"NomialTable({n}, {k}) row {k} is wrong")
    return len(row)


def _counting_round(sampler: Sampler) -> list[Op]:
    ops = []
    for u in sampler.points("nomial", 50, 3):
        n, k = pick(u[0], 4, 30), pick(u[1], 20, 100)
        i = pick(u[2], 0, (n - 1) * k)
        ops.append(Op("nomial", (n, k, i), bits=nomial_oracle(n, k, i).bit_length()))
    for u in sampler.points("boltzmann_on_numbers", 30, 3):
        n, k = pick(u[0], 3, 15), pick(u[1], 2, 50)
        i = pick(u[2], 0, (n - 1) * k)
        ops.append(Op("boltzmann_on_numbers", (n, k, i),
                      bits=nomial_oracle(n, k, i).bit_length()))
    for u in sampler.points("vandermonde_check", 10, 4):
        n, k1, k2 = pick(u[0], 3, 8), pick(u[1], 4, 16), pick(u[2], 4, 16)
        i = pick(u[3], 0, (n - 1) * (k1 + k2))
        ops.append(Op("vandermonde_check", (n, k1, k2, i),
                      bits=nomial_oracle(n, k1 + k2, i).bit_length()))
    for u in sampler.points("nomial_table_row", 10, 2):
        n, k = pick(u[0], 3, 12), pick(u[1], 10, 60)
        ops.append(Op("nomial_table_row", (n, k), bits=(n ** k).bit_length()))
    return ops


COUNTING = Workload(
    name="counting",
    kinds={
        "nomial": Kind("nomials", nomial, _check_nomial),
        "boltzmann_on_numbers": Kind("boltzmann", boltzmann_on_numbers, _check_numbers),
        "vandermonde_check": Kind("nomials", vandermonde_check, _check_vandermonde),
        "nomial_table_row": Kind("nomials", _table_row, _check_row),
    },
    round=_counting_round,
    tail_pct=95.0,
    warmup=(Op("nomial", (5, 20, 40)), Op("boltzmann_on_numbers", (5, 10, 20)),
            Op("vandermonde_check", (4, 5, 5, 15)), Op("nomial_table_row", (4, 10))),
)


# ---------------------------------------------------------------------------
# chain: the shift kernel over configuration spaces of 20-150 states
# ---------------------------------------------------------------------------

CHAIN_STEPS = 10
TRAJECTORY_STEPS = 200


def _stationarity(n: int, k: int, i: int):
    return stationarity_residual(boltzmann_on_multisets(n, k, i), shift_channel(n, k, i))


def _numbers_stationarity(n: int, k: int, i: int):
    return stationarity_residual(boltzmann_on_numbers(n, k, i), shift_on_numbers(n, k, i))


def _iterate(n: int, k: int, i: int, start: str):
    space = list(enumerate_multisets_with_sum(n, k, i))
    omega0 = uniform(space) if start == "uniform" else point(space[0])
    return iterate_chain(omega0, shift_channel(n, k, i), CHAIN_STEPS,
                         boltzmann_on_multisets(n, k, i))


def _trajectory(n: int, k: int, i: int, seed: int):
    phi0 = next(enumerate_multisets_with_sum(n, k, i))
    return sample_trajectory(phi0, TRAJECTORY_STEPS, seed)


def _check_zero(args, residual) -> int:
    if residual != 0:
        _fail("markov", f"stationarity residual at {args} is {residual}")
    return 1


def _check_trace(args, trace) -> int:
    tv = [r for _, r in trace]
    if len(tv) != CHAIN_STEPS + 1 or any(b > a for a, b in zip(tv, tv[1:])):
        _fail("markov", f"total-variation trace at {args} is not non-increasing")
    return len(tv)


def _check_matrix(args, matrix) -> int:
    n, k, i = args
    states, rows = matrix
    if len(states) != config_counts(n, k)[i]:
        _fail("multisets", f"{len(states)} states at {args}")
    for row in rows:
        if sum((w for w in row if w), Fraction(0)) != 1:
            _fail("markov", f"a transition row at {args} does not sum to 1")
    return len(states)


def _check_path(args, path) -> int:
    n, k, i, _ = args
    for phi in path:
        counts = phi.items()
        if sum(c for _, c in counts) != k or sum(x * c for x, c in counts) != i:
            _fail("markov", f"trajectory at {args} leaves size {k}, energy {i}")
    if len(path) != TRAJECTORY_STEPS + 1:
        _fail("markov", f"trajectory at {args} has {len(path)} states")
    return len(path)


def _chain_round(sampler: Sampler) -> list[Op]:
    spaces = config_spaces(range(3, 9), range(4, 13), 20, 150)
    ops = []

    def draw(kind: str, m: int, extra) -> None:
        for j, (u,) in enumerate(sampler.points(kind, m, 1)):
            states, n, k, i = spaces[int(u * len(spaces))]
            ops.append(Op(kind, (n, k, i) + extra(j), states,
                          nomial_oracle(n, k, i).bit_length()))

    # the two kinds that cost ~5x the others run half as often
    draw("stationarity_residual", 8, lambda j: ())
    draw("iterate_chain", 4, lambda j: (("point", "uniform")[j % 2],))
    draw("transition_matrix", 8, lambda j: ())
    draw("shift_on_numbers", 4, lambda j: ())
    draw("sample_trajectory", 8, lambda j: (sampler.rng.randrange(2 ** 32),))
    return ops


CHAIN = Workload(
    name="chain",
    kinds={
        "stationarity_residual": Kind("markov", _stationarity, _check_zero),
        "iterate_chain": Kind("markov", _iterate, _check_trace),
        "transition_matrix": Kind("markov", transition_matrix, _check_matrix),
        "shift_on_numbers": Kind("markov", _numbers_stationarity, _check_zero),
        "sample_trajectory": Kind("markov", _trajectory, _check_path),
    },
    round=_chain_round,
    tail_pct=90.0,
    warmup=(Op("stationarity_residual", (3, 4, 4)), Op("iterate_chain", (3, 4, 4, "uniform")),
            Op("transition_matrix", (3, 4, 4)), Op("shift_on_numbers", (3, 4, 4)),
            Op("sample_trajectory", (3, 4, 4, 0))),
)


# ---------------------------------------------------------------------------
# approx: the float layer over wide exact distributions
# ---------------------------------------------------------------------------

# Above this many bits in multichoose(K, E) the smallest energy-family weight
# underflows a double and entropy() raises (a known defect, kept in the
# defect census below rather than in the timed draw).
ENTROPY_BITS_LIMIT = 1000


def _check_compare(args, report) -> int:
    e, _ = args
    _levels_dist(report.reference, e, "boltzmann", report.reference_entropy)
    for c in report.candidates:
        _levels_dist(c.dist, e, "approx", c.entropy)
        _kl(c.kl_from_reference, f"KL of {c.name}", "approx")
    return (e + 1) * (1 + len(report.candidates))


def _entropy_kl(e: int, k: int):
    ref = boltzmann_on_energy(e, k)
    return ref, entropy(ref), kl_divergence(ref, discrete_exponential(e, Fraction(e, k)))


def _check_entropy_kl(args, out) -> int:
    ref, h, kl = out
    if len(ref) != args[0] + 1:
        _fail("boltzmann", f"boltzmann_on_energy{args} support {len(ref)}")
    _finite(h, "entropy", "distributions")
    _kl(kl, "KL", "distributions")
    return len(ref)


def _check_maxent(args, out) -> int:
    e, mu = args
    dist, s = out
    if mu in (0, e):
        if list(dist) != [mu] or s != (0.0 if mu == 0 else math.inf):
            _fail("approx", f"max_entropy_dist{args} is not the point mass at {mu}")
        return 1
    size = _levels_dist(dist, e, "approx")
    mean = sum((p * j for j, p in dist.items()), Fraction(0))
    if abs(float(mean - mu)) >= 1e-9:
        _fail("approx", f"max_entropy_dist{args} has mean {float(mean)}")
    return size


def _dexp(e: int, mu: Fraction):
    try:
        return discrete_exponential(e, mu)
    except ValueError as exc:  # the documented domain error at mu = 0
        return exc


def _check_dexp(args, out) -> int:
    e, mu = args
    if mu == 0:
        if not isinstance(out, ValueError):
            _fail("approx", f"discrete_exponential{args} accepted mu = 0")
        return 0
    if isinstance(out, ValueError):
        _fail("approx", f"discrete_exponential{args} raised {out}")
    return _levels_dist(out, e, "approx")


def _approx_round(sampler: Sampler) -> list[Op]:
    ops = []
    for u in sampler.points("compare", 20, 2):
        e = pick(u[0], 20, 200)
        k = pick(u[1], 2, e)
        ops.append(Op("compare", (e, k), bits=multichoose_oracle(k, e).bit_length()))
    for u in sampler.points("entropy_kl", 8, 2):
        e = pick(u[0], 100, 1200)
        k_max = 2
        while k_max < e and multichoose_oracle(k_max + 1, e).bit_length() <= ENTROPY_BITS_LIMIT:
            k_max += 1
        k = pick(u[1], 2, k_max)
        ops.append(Op("entropy_kl", (e, k), bits=multichoose_oracle(k, e).bit_length()))
    for u in sampler.points("max_entropy_dist", 8, 2):
        e = pick(u[0], 10, 200)
        ops.append(Op("max_entropy_dist", (e, pick_mean(u[1], e))))
    for u in sampler.points("discrete_exponential", 4, 2):
        e = pick(u[0], 10, 360)
        ops.append(Op("discrete_exponential", (e, pick_mean(u[1], e))))
    return ops


APPROX = Workload(
    name="approx",
    kinds={
        "compare": Kind("approx", compare, _check_compare),
        "entropy_kl": Kind("distributions", _entropy_kl, _check_entropy_kl),
        "max_entropy_dist": Kind("approx", max_entropy_dist, _check_maxent),
        "discrete_exponential": Kind("approx", _dexp, _check_dexp),
    },
    round=_approx_round,
    tail_pct=95.0,
    warmup=(Op("compare", (10, 3)), Op("entropy_kl", (20, 4)),
            Op("max_entropy_dist", (10, Fraction(7, 2))),
            Op("discrete_exponential", (10, Fraction(2)))),
)


def defect_census(seed: int) -> list[dict]:
    """Run one input from each known float-layer defect region.

    These inputs fail at the seed commit; they are kept out of the timed
    draw (where a failure would void the run) and reported here instead,
    charged to the layer that raises or returns the wrong output.
    """
    rng = random.Random(f"census/{seed}")
    e1, e2, e3 = rng.randint(950, 1050), rng.randint(380, 420), rng.randint(900, 1100)
    cases = [
        ("entropy", (e1, e1), lambda: entropy(boltzmann_on_energy(e1, e1)),
         lambda h: _finite(h, "entropy", "distributions")),
        ("max_entropy_dist", (e2, f"{e2}-1/100"),
         lambda: max_entropy_dist(e2, e2 - Fraction(1, 100)),
         lambda out: _levels_dist(out[0], e2, "approx")),
        ("discrete_exponential", (e3, 1), lambda: discrete_exponential(e3, 1),
         lambda dist: _levels_dist(dist, e3, "approx")),
    ]
    out = []
    for name, args, call, check in cases:
        record = {"op": name, "args": list(args), "error": None, "layer": None}
        try:
            check(call())
        except CheckFailed as exc:
            record.update(error=str(exc), layer=exc.layer)
        except (ValueError, ArithmeticError) as exc:
            record.update(error=f"{type(exc).__name__}: {exc}", layer=raising_layer(exc))
        out.append(record)
    return out


def raising_layer(exc: BaseException) -> str:
    """Package module of the innermost library frame in the traceback."""
    layer, tb = "bench", exc.__traceback__
    while tb is not None:
        parts = tb.tb_frame.f_code.co_filename.replace("\\", "/").split("/")
        if len(parts) > 1 and parts[-2] == "discrete_boltzmann":
            layer = parts[-1][:-3]
        tb = tb.tb_next
    return layer


# ---------------------------------------------------------------------------
# cli: one `python -m discrete_boltzmann.cli` child process per operation
# ---------------------------------------------------------------------------

def _payload_sums_to_one(entries) -> None:
    if sum((Fraction(r["numerator"], r["denominator"]) for r in entries), Fraction(0)) != 1:
        _fail("ketform", "JSON numerators do not sum to the denominator")


def _check_cli(args, out) -> int:
    argv, expect = args[0], args[1]
    code, stdout, stderr = out
    if expect == "error":
        if code != 2 or "error:" not in stderr:
            _fail("cli", f"{argv} exited {code} without an error line")
        return 0
    if code != 0:
        _fail("cli", f"{argv} exited {code}: {stderr.strip()[-200:]}")
    lines = stdout.splitlines()
    if expect == "json":
        envelope = json.loads(stdout)
        _payload_sums_to_one(envelope["payload"])
        return len(envelope["payload"])
    if expect == "kets":
        terms = stdout.strip().split(" + ")
        weights = [Fraction(t[:t.index("|")]) for t in terms]
        _sum_is_one(weights, "ketform")
        return len(terms)
    if expect == "csv":
        total = sum(float(line.rsplit(",", 1)[1]) for line in lines[1:])
        if lines[0] != "element,probability" or abs(total - 1) > 1e-9:
            _fail("ketform", f"{argv} CSV probabilities sum to {total}")
        return len(lines) - 1
    if expect.startswith("value="):
        if lines != [expect[6:]]:
            _fail("nomials", f"{argv} printed {stdout.strip()[:80]}")
        return 1
    if expect.startswith("table="):
        n = int(expect[6:])
        if [sum(int(v) for v in line.split(",")) for line in lines] != [n ** k for k in range(len(lines))]:
            _fail("nomials", f"{argv} rows do not sum to powers of {n}")
        return sum(len(line.split(",")) for line in lines)
    if expect == "zero":
        if lines != ["0"]:
            _fail("markov", f"{argv} residual {stdout.strip()}")
        return 1
    if expect == "trace":
        tv = [float(line.split(",")[1]) for line in lines[1:]]
        if lines[0] != "step,tv_distance" or any(b > a for a, b in zip(tv, tv[1:])):
            _fail("markov", f"{argv} trace is not non-increasing")
        return len(tv)
    if expect == "compare":
        report = json.loads(stdout)
        e = report["energy"]
        _payload_sums_to_one(report["reference"])
        for c in report["candidates"]:
            _payload_sums_to_one(c["dist"])
            if len(c["dist"]) != e + 1:
                _fail("approx", f"{argv} {c['name']} support {len(c['dist'])}")
            _finite(c["entropy"], "entropy", "approx")
            _kl(c["kl_from_reference"], "KL", "approx")
        return (e + 1) * (1 + len(report["candidates"]))
    if expect == "verify":
        last = lines[-1].split()[0].split("/")
        if last[0] != last[1]:
            _fail("verify", f"verify all: {lines[-1]}")
        return len(lines) - 1
    raise ValueError(f"unknown expectation {expect!r}")


def _urn(rng: random.Random, colours: str, lo: int, hi: int) -> tuple[str, int]:
    counts = [rng.randint(lo, hi) for _ in colours]
    return " + ".join(f"{c}|{x}>" for x, c in zip(colours, counts)), sum(counts)


def _cli_round(sampler: Sampler) -> list[Op]:
    rng, ops = sampler.rng, []

    def add(kind: str, argv: list, expect: str, states: int = 0, bits: int = 0) -> None:
        ops.append(Op(kind, (tuple(str(a) for a in argv), expect), states, bits))

    def nki(u, n_hi: int, k_hi: int):
        n, k = pick(u[0], 3, n_hi), pick(u[1], 2, k_hi)
        return n, k, pick(u[2], 0, (n - 1) * k)

    for fmt, u in zip(("kets", "json"), sampler.points("boltzmann numbers", 2, 3)):
        n, k, i = nki(u, 8, 8)
        add("boltzmann", ["boltzmann", "numbers", "--levels", n, "--particles", k,
                          "--sum", i, "--format", fmt], fmt, bits=nomial_oracle(n, k, i).bit_length())
    for fmt, u in zip(("json", "kets"), sampler.points("boltzmann energy", 2, 2)):
        e, k = pick(u[0], 2, 30), pick(u[1], 2, 10)
        add("boltzmann", ["boltzmann", "energy", "--total-energy", e, "--particles", k,
                          "--format", fmt], fmt, bits=multichoose_oracle(k, e).bit_length())
    n, k, i = nki(sampler.points("boltzmann multisets", 1, 3)[0], 6, 6)
    add("boltzmann", ["boltzmann", "multisets", "--levels", n, "--particles", k, "--sum", i,
                      "--format", "csv"], "csv", config_counts(n, k)[i],
        nomial_oracle(n, k, i).bit_length())
    for u in sampler.points("nomial value", 2, 3):
        n, k = pick(u[0], 2, 10), pick(u[1], 1, 20)
        i = pick(u[2], 0, (n - 1) * k)
        value = nomial_oracle(n, k, i)
        add("nomial", ["nomial", "value", "--levels", n, "--length", k, "--sum", i],
            f"value={value}", bits=value.bit_length())
    n, k = pick(rng.random(), 2, 6), pick(rng.random(), 1, 10)
    add("nomial", ["nomial", "table", "--levels", n, "--max-length", k], f"table={n}",
        bits=(n ** k).bit_length())
    small = config_spaces(range(3, 6), range(2, 7), 1, 30)
    for u, steps in zip(sampler.points("markov", 2, 1), (None, pick(rng.random(), 3, 10))):
        states, n, k, i = small[int(u[0] * len(small))]
        bits = nomial_oracle(n, k, i).bit_length()
        if steps is None:
            add("markov", ["markov", "stationarity", "--levels", n, "--particles", k,
                           "--sum", i], "zero", states, bits)
        else:
            add("markov", ["markov", "iterate", "--levels", n, "--particles", k, "--sum", i,
                           "--steps", steps, "--start", rng.choice(["uniform", "first", "last"])],
                "trace", states, bits)
    urn, size = _urn(rng, "abc", 1, 4)
    add("multivariate", ["multivariate", "hypergeometric", "--urn", urn,
                         "--draw", rng.randint(0, size), "--format", "json"], "json")
    urn, size = _urn(rng, "abc", 1, 4)
    add("multivariate", ["multivariate", "polya", "--urn", urn, "--draw", rng.randint(0, 6),
                         "--format", "json"], "json")
    urn, size = _urn(rng, "ab", 1, 4)
    add("multivariate", ["multivariate", "nomial-dist", "--urn", urn,
                         "--draw", rng.randint(0, size), "--format", "json"], "json")
    urn, size = _urn(rng, "ab", 1, 3)
    n = rng.randint(2, 3)
    add("multivariate", ["multivariate", "boltzmann-multi", "--levels", n, "--urn", urn,
                         "--sum", rng.randint(0, (n - 1) * size), "--format", "json"], "json")
    e, k = rng.randint(5, 30), rng.randint(2, 6)
    add("approx", ["approx", "compare", "--total-energy", e, "--particles", k,
                   "--format", "json"], "compare", bits=multichoose_oracle(k, e).bit_length())
    add("verify", ["verify", "all", "--max-levels", 3, "--max-size", 4], "verify")
    n, k = rng.randint(2, 10), rng.randint(1, 20)
    invalid = [
        ["nomial", "value", "--levels", n, "--length", k, "--sum", (n - 1) * k + rng.randint(1, 9)],
        ["boltzmann", "energy", "--total-energy", rng.randint(1, 30), "--particles", 1],
        ["markov", "stationarity", "--levels", n, "--particles", k, "--bogus", 1],
    ]
    rng.shuffle(invalid)
    for argv in invalid[:2]:
        add("invalid", argv, "error")
    return ops


CLI = Workload(
    name="cli",
    kinds={kind: Kind(layer, None, _check_cli) for kind, layer in (
        ("boltzmann", "ketform"), ("nomial", "nomials"), ("markov", "markov"),
        ("multivariate", "multivariate"), ("approx", "approx"), ("verify", "verify"),
        ("invalid", "cli"))},
    round=_cli_round,
    tail_pct=90.0,
    warmup=(Op("nomial", (("nomial", "value", "--levels", "3", "--length", "2", "--sum", "1"),
                          "value=2")),),
    subprocess=True,
)

WORKLOADS = {w.name: w for w in (COUNTING, CHAIN, APPROX, CLI)}
