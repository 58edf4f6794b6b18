"""One measured process of the benchmark; started by run.py, never by hand.

Modes:
  setup  import, generate, warm up, print "ready" and exit (a set-up probe);
  timed  as setup, then run whole rounds of operations in a closed loop
         until --seconds have passed, and print the end-to-end summary as
         one JSON line;
  trace  run the first round untraced, then again under cProfile, and
         print the per-layer summary as one JSON line.

The library is imported from the checkout's ``src`` through PYTHONPATH.
"""

from __future__ import annotations

import argparse
import compileall
import cProfile
import io
import itertools
import json
import math
import os
import pstats
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from discrete_boltzmann import Dist, Multiset, cli, shift

import layers
from speed import SpeedScale
from workloads import WORKLOADS, CheckFailed, Op, Workload, defect_census, raising_layer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 50.0)
STARTUP_PROBES = 9
CHILD_TIMEOUT_S = 120
def cli_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("DBOLTZ_FORMAT", None)
    return env


def cli_subprocess(op: Op, env: dict[str, str]):
    proc = subprocess.run([sys.executable, "-m", "discrete_boltzmann.cli", *op.args[0]],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


def cli_in_process(op: Op):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(list(op.args[0]))
    return code, out.getvalue(), err.getvalue()


def caller(workload: Workload, in_process: bool = False):
    """The function that performs one operation of this workload."""
    if workload.subprocess:
        if in_process:
            return cli_in_process
        env = cli_env()
        return lambda op: cli_subprocess(op, env)
    return lambda op: workload.kinds[op.kind].call(*op.args)


def attempt(workload: Workload, op: Op, call, profile: cProfile.Profile | None = None):
    """Run and check one operation: (failure or None, output size).

    A failure is (layer, message).  Only the library call is profiled.
    """
    try:
        if profile is not None:
            profile.enable()
        try:
            result = call(op)
        finally:
            if profile is not None:
                profile.disable()
        return None, workload.kinds[op.kind].check(op.args, result)
    except CheckFailed as exc:
        return (exc.layer, f"{op.kind}{op.args}: {exc}"), 0
    except Exception as exc:  # any library exception is a failed operation; keep going
        return (raising_layer(exc), f"{op.kind}{op.args}: {type(exc).__name__}: {exc}"), 0


def set_up(workload: Workload, seed: int):
    """Everything before the first timed operation; returns the rounds and caller."""
    if workload.subprocess:
        compileall.compile_dir(str(SRC), quiet=1)
    rounds = workload.rounds(seed)
    rounds = itertools.chain([next(rounds)], rounds)
    call = caller(workload)
    for op in workload.warmup:
        failure, _ = attempt(workload, op, call)
        if failure is not None:
            raise RuntimeError(f"warm-up failed: {failure[1]}")
    return rounds, call


def tail(latencies: list[float], pct: float) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) at ``pct``, or at the highest
    ladder percentile below it that leaves at least ten samples beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in [pct] + [q for q in TAIL_LADDER if q < pct]:
        idx = max(0, math.ceil(p / 100 * n) - 1)
        if n - idx - 1 >= 10 or p == TAIL_LADDER[-1]:
            break
    return p, ordered[idx], n - idx - 1


def p50_by_kind(kinds: list[str], latencies: list[float]) -> dict[str, float]:
    groups: dict[str, list[float]] = {}
    for kind, lat in zip(kinds, latencies):
        groups.setdefault(kind, []).append(lat)
    return {k: 1000 * statistics.median(v) for k, v in sorted(groups.items())}


def report_ready() -> SpeedScale:
    """Tell run.py that set-up is done, then how fast the machine runs now."""
    print("ready", flush=True)
    scale = SpeedScale()
    print(f"speed {scale.factor()!r}", flush=True)
    return scale


def peak_rss_mb(workload: Workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.subprocess else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def timed(workload: Workload, seed: int, seconds: float) -> dict:
    """Closed loop over whole rounds; every latency is scaled to the
    reference speed by the probes taken before and after each operation."""
    rounds, call = set_up(workload, seed)
    scale = report_ready()
    raw, latencies, kinds, failures = [], [], [], []
    deadline = time.perf_counter() + seconds
    for ops in rounds:
        for op in ops:
            scale.probe()
            t0 = time.perf_counter()
            failure, _ = attempt(workload, op, call)
            t1 = time.perf_counter()
            scale.probe()
            raw.append(t1 - t0)
            latencies.append((t1 - t0) * scale.factor())
            kinds.append(op.kind)
            if failure is not None:
                failures.append(failure[1])
        if t1 >= deadline:
            break
    pct, tail_s, beyond = tail(latencies, workload.tail_pct)
    return {
        "attempted": len(latencies),
        "failed": len(failures),
        "failures": failures[:10],
        "throughput_ops_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_tail_ms": 1000 * tail_s,
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "peak_rss_mb": peak_rss_mb(workload),
        "op_p50_ms": p50_by_kind(kinds, latencies),
        "unscaled": {"throughput_ops_s": len(raw) / sum(raw),
                     "latency_p50_ms": 1000 * statistics.median(raw),
                     "latency_tail_ms": 1000 * tail(raw, pct)[1],
                     "speed_factor": sum(latencies) / sum(raw)},
    }


def _python_s(code: str) -> float:
    """Wall seconds of one ``python -c code`` child."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=cli_env(), check=True,
                   timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0


def _pass(workload: Workload, ops: list[Op], call, profiles=None, after=None):
    """One pass over ``ops``: (latencies, sizes, failures).  ``after`` runs
    untimed after each operation."""
    latencies, sizes, failures = [], [], []
    for op in ops:
        profile = None
        if profiles is not None:
            profile = profiles.setdefault(op.kind, cProfile.Profile())
        t0 = time.perf_counter()
        failure, size = attempt(workload, op, call, profile)
        latencies.append(time.perf_counter() - t0)
        sizes.append(size)
        if failure is not None:
            failures.append(failure)
        if after is not None:
            after()
    return latencies, sizes, failures


def traced(workload: Workload, seed: int) -> dict:
    """Per-layer figures from the first round of operations.

    Counts come from profiler call counts and the oracles, so they repeat
    exactly at one seed; times are self times folded by layers.fold.
    """
    rounds, call = set_up(workload, seed)
    ops = next(rounds)
    kinds = [op.kind for op in ops]

    # bare interpreter starts, each taken right after a CLI child so that
    # both see the same machine speed
    bare: list[float] = []
    after = (lambda: bare.append(_python_s("pass"))) if workload.subprocess else None
    plain, _, fail_plain = _pass(workload, ops, call, after=after)
    in_process = caller(workload, in_process=True)
    base = _pass(workload, ops, in_process)[0] if workload.subprocess else plain
    profiles: dict[str, cProfile.Profile] = {}
    profiled, sizes, fail_traced = _pass(workload, ops, in_process, profiles)

    stats = {kind: pstats.Stats(p) for kind, p in profiles.items()}
    self_s: dict[str, float] = {}
    for st in stats.values():
        for layer, s in layers.fold(st).items():
            self_s[layer] = self_s.get(layer, 0.0) + s

    def count(match) -> int:
        return sum(layers.call_count(st, match) for st in stats.values())

    def by_code(fn):
        target = layers.code_key(fn)
        return lambda key: (os.path.basename(key[0]), key[1]) == target

    census = defect_census(seed) if workload.name == "approx" else []
    errors = [f[0] for f in fail_plain + fail_traced] + [c["layer"] for c in census if c["error"]]

    if workload.subprocess:  # what a CLI call costs beyond its in-process work
        import_s = statistics.median(p - b - i for p, b, i in zip(plain, base, bare))
    else:
        extra = []
        for _ in range(STARTUP_PROBES):
            bare.append(_python_s("pass"))
            extra.append(_python_s("import discrete_boltzmann.cli") - bare[-1])
        import_s = statistics.median(extra)
    interpreter_s = statistics.median(bare)

    n = len(ops)
    shift_calls = count(by_code(shift))
    chain_states = sum(op.states for op in ops)
    return {
        "attempted": 2 * n,
        "failed": len(fail_plain) + len(fail_traced),
        "failures": [f[1] for f in fail_plain + fail_traced][:10],
        "self_ms_per_op": {layer: 1000 * self_s.get(layer, 0.0) / n
                           for layer in layers.LAYERS + ("bench", "other")},
        "counters": {
            "nomials.calls": count(lambda k: os.path.basename(k[0]) == "nomials.py"
                                   and k[2].startswith("nomial")),
            "multisets.multiset_inits": count(by_code(Multiset.__init__)),
            "markov.shift_calls": shift_calls,
            "markov.shift_calls_per_state": shift_calls / chain_states if chain_states else 0.0,
            "distributions.dist_inits": count(by_code(Dist.__init__)),
            "fractions.gcd_calls": count(lambda k: k[2] == layers.GCD),
            "approx.solver_evals": count(lambda k: os.path.basename(k[0]) == "approx.py"
                                         and k[2] in ("f", "fprime")),
            "approx.errors": errors.count("approx"),
            "distributions.errors": errors.count("distributions"),
            "work.ops": n,
            "work.states": sum(sizes),
            "work.denominator_bits": sum(op.bits for op in ops),
        },
        "startup.interpreter_ms": 1000 * interpreter_s,
        "startup.import_ms": 1000 * import_s,
        "trace.overhead": sum(base) / sum(profiled),
        "op_p50_ms": p50_by_kind(kinds, plain),
        "top_self_ms_per_op": {
            kind: [(label, 1000 * s / kinds.count(kind)) for label, s in layers.top_entries(st)]
            for kind, st in sorted(stats.items())},
        "census": census,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["setup", "timed", "trace"], required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        set_up(workload, args.seed)
        report_ready()
        return 0
    if args.mode == "timed":
        result = timed(workload, args.seed, args.seconds)
    else:
        result = traced(workload, args.seed)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
