"""Self-test of the benchmark (not part of the library's test suite).

    python3 perfbench/selftest.py

Runs every workload briefly at a fixed seed through run.py and asserts:
every metric named in BENCHMARK.json is reported with its unit; the
``work.*`` counters repeat exactly across two traced runs; and so do the
traced call counters.  Takes a few minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
SEED = 7
COUNTERS = ("nomials.calls", "multisets.multiset_inits", "markov.shift_calls",
            "markov.shift_calls_per_state", "distributions.dist_inits", "fractions.gcd_calls",
            "approx.solver_evals", "approx.errors", "distributions.errors")


def run(trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(RUN), "--workload", "all", "--seed", str(SEED),
                           "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    timed, traced = run(0), run(1)
    again = run(1)
    for result, section in ((timed, "end_to_end"), (traced, "per_layer"), (again, "per_layer")):
        assert result["correct"] and result["failed"] == 0, result
        for w in workloads:
            for metric in spec[section]:
                got = result["metrics"][f"{w}.{metric['name']}"]
                assert got["unit"] == metric["unit"], (w, metric, got)
                assert isinstance(got["value"], (int, float)), (w, metric, got)
    for w in workloads:
        for name in COUNTERS + ("work.ops", "work.states", "work.denominator_bits"):
            key = f"{w}.{name}"
            assert traced["metrics"][key] == again["metrics"][key], (key, traced["metrics"][key],
                                                                     again["metrics"][key])
    print(f"selftest passed: {len(workloads)} workloads, "
          f"{len(spec['end_to_end'])} end-to-end and {len(spec['per_layer'])} per-layer metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
