#!/usr/bin/env python3
"""Cold-process ladder benchmark for alphadet.

Run from the repository root:

    python3 perfbench/run.py --workload decompose-n2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Every op runs in a fresh single-threaded interpreter (`child.py`), one at a
time.  A fresh process is needed because the unbounded transition cache
would otherwise make a repeated (n, l) free, and a command-line user always
starts cold.  A pass runs every op of the workload once, in an order drawn
from the seed; passes repeat until the next one would overrun `--seconds`.

With `--trace 0` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with `--trace 1` it carries the per-layer metrics, taken
from traced passes that alternate with untraced ones so that the tracing
overhead is measured in the same run.  Each run also writes a record (and,
traced, its spans) under `.perfbench/` for `compare.py`.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT = ROOT / ".perfbench"

CRITICAL_ALPHAS = ("1", "-1", "-1/2")
# A hang past OP_BUDGET_S counts as a failed op; RUN_LIMIT_S keeps a run
# with several hangs inside the three minutes one run may take.
OP_BUDGET_S = 60.0
RUN_LIMIT_S = 150.0
# Extra cold starts per run that only import the package, so that setup_s
# is a median over more samples than a short workload has ops.
SETUP_PROBES = 5
# The host's speed drifts by up to 2x, so every time a child measures is
# scaled by the mean of CALIBRATION_REF_S / t over its calibration samples t
# (see child.SpeedProbe).  The constant is the loop's median on a 2-core
# x86-64 VM under Python 3.11.7: reported times are seconds at that speed.
CALIBRATION_REF_S = 0.0039


def _op(kind, n, l, **extra):
    return {"kind": kind, "n": n, "l": l, **extra}


WORKLOADS = {
    "decompose-n2": [_op("decompose", 2, l) for l in (3, 4, 5)],
    "decompose-l1": [_op("decompose", n, 1) for n in (4, 5, 6)],
    "oracle-generic": [
        _op("oracle-generic", 2, 2),
        _op("oracle-generic", 2, 3),
        _op("oracle-generic", 3, 1),
        _op("oracle-generic", 2, 4, oracle_max_size=8),
    ],
    "oracle-special": [
        _op("oracle-special", n, l) for n, l in ((3, 1), (2, 4), (3, 2), (4, 1))
    ],
}


def draw_alphas(rng):
    """The critical set plus one seeded p/q (|p| <= 9) per denominator q = 1..9.

    Closure time over Q grows with the size of p and q, so a plain draw of a
    few values would let the seed alone move oracle-special by several
    percent; one value per denominator keeps the seeds' totals close.
    """
    chosen = [Fraction(a) for a in CRITICAL_ALPHAS]
    numerators = [p for p in range(-9, 10) if p]
    for q in range(1, 10):
        a = Fraction(rng.choice(numerators), q)
        while a in chosen:
            a = Fraction(rng.choice(numerators), q)
        chosen.append(a)
    return [str(a) for a in chosen]


# ---------------------------------------------------------------------------
# Children


class ChildFailed(Exception):
    pass


def spawn(arg, budget):
    """Run child.py with one argument; return (its JSON result, spawn time)."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-I", str(CHILD), arg],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    try:
        out, err = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"exceeded its {budget:.0f} s budget") from None
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        tail = " ".join(err.strip().splitlines()[-1:])
        raise ChildFailed(f"child exited {proc.returncode}: {tail}")
    return json.loads(lines[-1]), spawned


def _speed(samples):
    return statistics.fmean(CALIBRATION_REF_S / t for t in samples)


def _setup_s(res, spawned):
    """Child start to package ready, scaled by the calibration right after."""
    return (res["ready"] - spawned) * _speed(res["calib_s"][:3])


def run_op(spec, budget):
    """Run one op in a fresh interpreter and return its result record."""
    started = time.monotonic()
    try:
        res, spawned = spawn(json.dumps(spec), budget)
    except ChildFailed as exc:
        return {"ok": False, "op_s": time.monotonic() - started, "error": str(exc),
                "problems": []}
    res["setup_s"] = _setup_s(res, spawned)
    res["scale"] = _speed(res["calib_s"])
    res["raw_op_s"] = res["op_s"]
    res["op_s"] *= res["scale"]
    return res


def probe():
    """Import the package in a child; exit 1 unless it is this checkout's."""
    try:
        found, spawned = spawn("--probe", OP_BUDGET_S)
    except ChildFailed as exc:
        sys.exit(f"perfbench: alphadet does not import from {ROOT / 'src'}: {exc}")
    if not Path(found["package"]).is_relative_to(ROOT / "src"):
        sys.exit(f"perfbench: imported {found['package']}, not this checkout's src/")
    return found, _setup_s(found, spawned)


# ---------------------------------------------------------------------------
# Aggregation


def add_layers(totals, spans, scale):
    """Fold one op's spans into per-name [seconds, calls, self seconds].

    Times are multiplied by the op's calibration scale.  Self time is a
    span's duration minus that of its direct children; spans of one op
    nest without overlap, because the op is single-threaded.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    for (name, start, end, _, _), kids in zip(spans, covered):
        t = totals.setdefault(name, [0.0, 0, 0.0])
        t[0] += (end - start) * scale
        t[1] += 1
        t[2] += (end - start - kids) * scale


def add_sizes(totals, sizes):
    for key, value in sizes.items():
        if key.endswith(".sum"):
            totals[key] = totals.get(key, 0) + value
        else:
            totals[key] = max(totals.get(key, 0), value)


def pass_layer_metrics(p):
    out = dict(p["sizes"])
    for name, (secs, calls, self_s) in p["layers"].items():
        out[f"{name}.s"] = secs
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    return out


def run_workload(name, seed, seconds, trace, layer_names=()):
    """Run passes of one workload; return the contract result and the passes.

    Traced, each of `layer_names` that the workload never calls reads 0.
    """
    rng = random.Random(seed)
    alphas = draw_alphas(rng)
    ops = WORKLOADS[name]
    setups = [probe()[1] for _ in range(SETUP_PROBES)]
    start = time.monotonic()
    passes = []
    attempted = failed = 0
    wrong = []
    longest = 0.0
    horizon = min(seconds, RUN_LIMIT_S - OP_BUDGET_S)
    while time.monotonic() - start < RUN_LIMIT_S:
        if len(passes) >= (2 if trace else 1) and (
            time.monotonic() - start + longest > horizon
        ):
            break
        traced = bool(trace) and len(passes) % 2 == 1
        p = {"traced": traced, "wall": 0.0, "rss_kb": [], "layers": {},
             "sizes": {}, "spans": [], "errors": [], "ops": []}
        began = time.monotonic()
        for i in rng.sample(range(len(ops)), len(ops)):
            attempted += 1
            spec = dict(ops[i], alphas=alphas, trace=traced, op_id=attempted)
            budget = min(OP_BUDGET_S, RUN_LIMIT_S - (time.monotonic() - start))
            if budget > 0:
                res = run_op(spec, budget)
            else:
                res = {"ok": False, "op_s": 0.0, "error": "run time limit reached", "problems": []}
            p["wall"] += res["op_s"]
            label = f"({spec['n']},{spec['l']})"
            p["ops"].append({k: res.get(k) for k in ("op_s", "raw_op_s", "scale", "setup_s")}
                            | {"op": label})
            if not res["ok"] or res["problems"]:
                failed += 1
                p["errors"].append(f"{label}: {res.get('error') or '; '.join(res['problems'])}")
            wrong.extend(f"{label}: {msg}" for msg in res["problems"])
            if "setup_s" in res:
                setups.append(res["setup_s"])
                p["rss_kb"].append(res["rss_kb"])
            if traced and "spans" in res:
                add_layers(p["layers"], res["spans"], res["scale"])
                add_sizes(p["sizes"], res["sizes"])
                p["spans"].extend(res["spans"])
        longest = max(longest, time.monotonic() - began)
        passes.append(p)

    if not any(p["rss_kb"] for p in passes):
        sys.exit(f"perfbench: no op of {name} completed")
    # A failed op's time is only the time to its exception or budget, so a
    # pass that holds one says nothing about speed: times come from clean
    # passes alone, and a run without one reports none.
    clean = [p for p in passes if not p["errors"]]
    untraced = [p["wall"] for p in clean if not p["traced"]]
    traced_passes = [p for p in clean if p["traced"]]
    if trace and traced_passes and untraced:
        layer = [pass_layer_metrics(p) for p in traced_passes]
        traced_wall = statistics.median(p["wall"] for p in traced_passes)
        values = {
            key: statistics.median(m.get(key, 0) for m in layer)
            for key in set(layer_names).union(*layer)
        }
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - statistics.median(untraced)
    elif trace:  # failed ops spoilt every traced or every untraced pass
        values = {}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(r for p in passes for r in p["rss_kb"]) / 1024,
            "ok_ratio": (attempted - failed) / attempted,
        }
        if untraced:
            values["wall_s"] = statistics.median(untraced)
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "values": values,
    }
    return result, alphas, passes


# ---------------------------------------------------------------------------
# Output


def contract_line(result, metric_specs):
    metrics = {
        m["name"]: {"value": result["values"][m["name"]], "unit": m["unit"]}
        for m in metric_specs
        if m["name"] in result["values"]
    }
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def describe(name, result, passes, metric_specs, trace):
    lines = [
        f"{name}: {len(passes)} passes, {result['attempted']} ops, "
        f"{result['failed']} failed, correct={result['correct']}"
    ]
    for p in passes:
        lines.extend(f"  failed op {msg}" for msg in p["errors"])
    values = result["values"]
    whole = values.get("trace.wall_s")
    for m in metric_specs:
        if m["name"] not in values:
            lines.append(f"  {m['name']:<38} {'-':>14} (no pass without a failed op)")
            continue
        v = values[m["name"]]
        share = ""
        if trace and m["unit"] == "s" and not m["name"].startswith("trace.") and whole:
            share = f"  ({100 * v / whole:.1f}% of traced op time)"
        lines.append(f"  {m['name']:<38} {v:>14.6g} {m['unit']}{share}")
    if not trace:
        fail_ratio = result["failed"] / result["attempted"]
        lines.append(f"  {'fail_ratio':<38} {fail_ratio:>14.6g} ratio")
    return "\n".join(lines)


def write_record(name, seed, seconds, trace, env, alphas, result, passes):
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": env,
        "alphas": alphas,
        "passes": [{"traced": p["traced"], "wall": p["wall"], "ops": p["ops"]} for p in passes],
        "result": result,
    }
    (OUT / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    if trace:
        spans = [s for p in passes if p["traced"] for s in p["spans"]]
        (OUT / f"spans-{name}-seed{seed}.json").write_text(json.dumps(spans))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    loadavg = list(os.getloadavg())
    found, _ = probe()
    env = {"backend": found["backend"], "python": found["python"],
           "nproc": os.cpu_count(), "loadavg": loadavg}
    print(
        f"env: backend={env['backend']} python={env['python']} nproc={env['nproc']} "
        f"loadavg={' '.join(f'{x:.2f}' for x in env['loadavg'])}"
    )
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, alphas, passes = run_workload(
            name, args.seed, args.seconds, args.trace, [m["name"] for m in bench["per_layer"]]
        )
        write_record(name, args.seed, args.seconds, args.trace, env, alphas, result, passes)
        print(describe(name, result, passes, metric_specs, args.trace), flush=True)
        results[name] = result
    if args.workload != "all":
        print(contract_line(results[args.workload], metric_specs))
    return 0 if all(r["correct"] and not r["failed"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
