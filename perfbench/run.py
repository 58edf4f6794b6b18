"""Benchmark of the discrete_boltzmann library, run from the root of a checkout.

    python3 perfbench/run.py --workload counting --seed 1 --seconds 20 --trace 0

Workloads: counting, chain, approx, cli (see perfbench/README.md), or
``all`` to run the four in turn.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` a separate traced run reports the
per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

The measurement runs in child processes (perfbench/worker.py): SETUP_PROBES
set-up-only children give the median set-up time, then one child measures.
Every child is waited for; a child that overruns is killed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("counting", "chain", "approx", "cli")
SETUP_PROBES = 9
WORKER_TIMEOUT_S = 170

END_TO_END = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "boltzmann.self_ms_per_op": "ms",
    "distributions.self_ms_per_op": "ms",
    "fractions.self_ms_per_op": "ms",
    "startup.interpreter_ms": "ms",
    "startup.import_ms": "ms",
    "trace.overhead": "ratio",
    "nomials.calls": "count",
    "multisets.multiset_inits": "count",
    "markov.shift_calls": "count",
    "markov.shift_calls_per_state": "calls/state",
    "distributions.dist_inits": "count",
    "fractions.gcd_calls": "count",
    "approx.solver_evals": "count",
    "approx.errors": "count",
    "distributions.errors": "count",
    "work.ops": "count",
    "work.states": "count",
    "work.denominator_bits": "bits",
}


class WorkerError(RuntimeError):
    pass


def _start(workload: str, seed: int, mode: str, seconds: float) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.Popen(
        [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
         "--mode", mode, "--seconds", str(seconds)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)


def _finish(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for the child and return the rest of its output."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker overran its time limit")
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return out


def _until_ready(proc: subprocess.Popen, t0: float) -> tuple[float, float]:
    """Seconds from ``t0`` until the child reports that set-up is done, and
    the speed factor the child measured right after."""
    ready = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    speed = proc.stdout.readline().split()
    if ready.strip() != "ready" or len(speed) != 2:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker failed during set-up")
    return elapsed, float(speed[1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    if trace:
        out = _finish(_start(workload, seed, "trace", seconds), deadline)
        return json.loads(out.strip().splitlines()[-1])
    setups, factors = [], []
    for mode in ["setup"] * SETUP_PROBES + ["timed"]:
        t0 = time.perf_counter()
        proc = _start(workload, seed, mode, seconds)
        elapsed, factor = _until_ready(proc, t0)
        setups.append(elapsed)
        factors.append(factor)
        out = _finish(proc, deadline)
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = statistics.median(s * f for s, f in zip(setups, factors))
    result["unscaled"]["setup_s"] = statistics.median(setups)
    return result


def metrics_of(result: dict, trace: bool) -> dict:
    if trace:
        flat = dict(result["counters"])
        flat.update({f"{k}.self_ms_per_op": v for k, v in result["self_ms_per_op"].items()})
        flat.update({k: result[k] for k in ("startup.interpreter_ms", "startup.import_ms",
                                            "trace.overhead")})
        names = PER_LAYER
    else:
        flat, names = result, END_TO_END
    return {name: {"value": flat[name], "unit": unit} for name, unit in names.items()}


def report(workload: str, result: dict, trace: bool) -> None:
    """Human-readable lines; the JSON summary line follows them."""
    print(f"== {workload}: {result['attempted']} operations, {result['failed']} failed, "
          f"error_rate {result['failed'] / result['attempted']:.4f}")
    for failure in result["failures"]:
        print(f"   FAILED {failure}")
    if trace:
        for layer, ms in result["self_ms_per_op"].items():
            print(f"   {layer}.self_ms_per_op {ms:.4f} ms")
        for name, value in result["counters"].items():
            print(f"   {name} {value}")
        for kind, entries in result["top_self_ms_per_op"].items():
            top = ", ".join(f"{label} {ms:.3f} ms" for label, ms in entries)
            print(f"   top self time per {kind}: {top}")
        for case in result["census"]:
            verdict = f"FAILS in {case['layer']}: {case['error']}" if case["error"] else "ok"
            print(f"   known-defect census {case['op']}{tuple(case['args'])}: {verdict}")
    else:
        for name, unit in END_TO_END.items():
            print(f"   {name} {result[name]:.6g} {unit}")
        print(f"   latency_tail_ms is p{result['tail_percentile']:g} with "
              f"{result['tail_samples_beyond']} samples beyond it")
        print("   unscaled (raw wall clock): " + ", ".join(
            f"{k} {v:.6g}" for k, v in result["unscaled"].items()))
    for kind, ms in result["op_p50_ms"].items():
        print(f"   op.{workload}.{kind}.p50_ms {ms:.4f} ms")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "discrete_boltzmann" / "__init__.py").is_file():
        print(f"error: no discrete_boltzmann sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    trace = bool(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = measure(name, args.seed, args.seconds, trace)
        except WorkerError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        report(name, result, trace)
        summary["correct"] &= result["failed"] == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        metrics = metrics_of(result, trace)
        if args.workload == "all":
            metrics = {f"{name}.{k}": v for k, v in metrics.items()}
        summary["metrics"].update(metrics)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
