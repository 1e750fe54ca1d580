#!/usr/bin/env python3
"""Compare two sets of benchmark records, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the `<workload>-seed<n>-trace<t>.json` records that
run.py writes under `.perfbench/`; move that directory aside after the first
set.  For every workload and end-to-end metric the table gives each side's
median and spread (quartile distance over median) and the change as a share
of the base median, judged against the metric's bound in BENCHMARK.json.
A change is "unresolved" when either side spreads wider than the bound.
Per-layer metrics of traced records are listed without a verdict.

Records taken on different kernel backends are refused (exit 2).  Exit 1
when a metric got worse by more than its bound.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    paths = sorted(Path(directory).glob("*-seed*-trace*.json"))
    if not paths:
        sys.exit(f"compare: no records in {directory}")
    return [json.loads(p.read_text()) for p in paths]


def by_metric(records):
    """{(workload, metric): [values]} over one set of records."""
    out = {}
    for rec in records:
        for name, value in rec["result"]["values"].items():
            out.setdefault((rec["workload"], name), []).append(value)
    return out


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    base, new = load(argv[0]), load(argv[1])
    backends = {side: sorted({r["env"]["backend"] for r in recs})
                for side, recs in (("base", base), ("new", new))}
    if backends["base"] != backends["new"] or len(backends["base"]) != 1:
        print(f"compare: refusing to compare kernel backends {backends}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    a, b = by_metric(base), by_metric(new)
    worse = False
    print(f"{'workload':<16} {'metric':<38} {'base':>12} {'sp':>6} {'new':>12} {'sp':>6} "
          f"{'change':>8}  verdict")
    for key in sorted(a.keys() & b.keys()):
        workload, name = key
        spec = specs.get(name)
        if spec is None:
            continue
        ma, mb = statistics.median(a[key]), statistics.median(b[key])
        change = (mb - ma) / abs(ma) if ma else 0.0
        verdict = ""
        if "bound" in spec:
            loss = change if spec["better"] == "lower" else -change
            bound = spec["bound"]
            if max(spread(a[key]), spread(b[key])) > bound:
                verdict = "unresolved"
            elif loss > bound:
                verdict = f"WORSE than bound {bound:.0%}"
                worse = True
            else:
                verdict = f"within bound {bound:.0%}"
        print(f"{workload:<16} {name:<38} {ma:>12.6g} {spread(a[key]):>6.1%} "
              f"{mb:>12.6g} {spread(b[key]):>6.1%} {change:>8.1%}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
