#!/usr/bin/env python3
"""Self-test of the benchmark: two traced runs with one seed agree exactly.

    python3 perfbench/selftest.py

Runs `run.py --trace 1` twice per workload with seed SEED and a short
`--seconds`, and compares every count metric (`.calls`, `.max`, `.sum`).
These are exact figures from the program's calls and return values, so any
difference is nondeterminism in the benchmark or the program, never noise.
Exit 1 on a difference, a failed op or a wrong answer.
"""

import json
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
SEED = 3


def traced_counts(workload, count_names):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT,
    )
    result = json.loads(proc.stdout.splitlines()[-1]) if proc.stdout else None
    if proc.returncode != 0 or result is None:
        sys.exit(f"selftest: {workload} failed ops or answered wrong:\n{proc.stdout}{proc.stderr}")
    return {name: result["metrics"][name]["value"] for name in count_names}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    count_names = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    status = 0
    for workload in WORKLOADS:
        first = traced_counts(workload, count_names)
        second = traced_counts(workload, count_names)
        diff = {k: (first[k], second[k]) for k in count_names if first[k] != second[k]}
        if diff:
            status = 1
        print(f"{workload}: {'DIFFER ' + json.dumps(diff) if diff else 'identical'} "
              f"({len(count_names)} counts)")
    return status


if __name__ == "__main__":
    sys.exit(main())
