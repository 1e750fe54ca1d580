"""The benchmark child still reaches every name it imports and traces.

`perfbench/child.py` wraps library functions by module attribute
(`transition.rep_of`, `kernels.zp_mul`, ...).  A change that deletes or
renames one of them breaks the benchmark's traced runs; these tests run the
child the way `perfbench/run.py` does, so such a change fails here too.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "perfbench" / "child.py"


def run_child(arg):
    proc = subprocess.run(
        [sys.executable, "-I", str(CHILD), arg],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_child_probe_imports_the_package_from_this_tree():
    doc = run_child("--probe")
    assert Path(doc["package"]).is_relative_to(ROOT / "src")


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "decompose", "n": 2, "l": 3, "alphas": ["1"]},
        {"kind": "oracle-generic", "n": 2, "l": 2, "alphas": []},
        {"kind": "oracle-special", "n": 3, "l": 1, "alphas": ["-1/2"]},
    ],
    ids=lambda spec: spec["kind"],
)
def test_child_runs_one_traced_op_of_each_kind(spec):
    doc = run_child(json.dumps({**spec, "trace": 1, "op_id": 0}))
    assert doc["ok"] is True, doc.get("error")
    assert doc["problems"] == []
    assert doc["spans"]
