#!/usr/bin/env python3
"""Write reference.json: the basis-independent fields of every benchmarked (n, l).

Each row is [shape, kostka, generic multiplicity, trace coefficients], the
same fields `decompose --format json` prints, built by
`child.reference_rows`.  Run from the repository root after a change that
is meant to alter one of them, and say so in CHANGES.md:

    python3 perfbench/make_reference.py
"""

import json
from pathlib import Path

from child import reference_rows
from run import WORKLOADS


def main():
    cases = sorted({(op["n"], op["l"]) for ops in WORKLOADS.values() for op in ops})
    ref = {f"{n},{l}": reference_rows(n, l) for n, l in cases}
    out = Path(__file__).resolve().parent / "reference.json"
    body = ",\n".join(
        f"  {json.dumps(key)}: [\n" + ",\n".join(f"    {json.dumps(r)}" for r in rows) + "\n  ]"
        for key, rows in ref.items()
    )
    out.write_text("{\n" + body + "\n}\n")
    print(f"wrote {out} ({len(cases)} cases)")


if __name__ == "__main__":
    main()
