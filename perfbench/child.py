"""One benchmark op in a fresh interpreter.

`run.py` starts this file once per op with `python3 -I`, so every op pays
the cold start a command-line user pays: no transition cache, no warm
imports.  The op spec arrives as one JSON argument; the result leaves as one
JSON line on stdout.  With `--probe` the child only imports the package and
reports where it came from, which also compiles the bytecode before any
op is timed.

Timing covers the public calls only.  The second-route checks run after the
clock stops and with tracing off, so a faster or slower check never moves
`wall_s` or a layer figure.
"""

import json
import platform
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fractions import Fraction  # noqa: E402

from alphadet import formulas, kernels, oracle, report, seminormal, transition  # noqa: E402
from alphadet.exact import PolyQ  # noqa: E402
from alphadet.symgrp import admissible_shapes  # noqa: E402

READY = time.monotonic()

REFERENCE = Path(__file__).resolve().parent / "reference.json"


# ---------------------------------------------------------------------------
# Speed calibration


def calibrate():
    """Seconds taken by a fixed loop of small-Fraction arithmetic (~4 ms)."""
    start = time.perf_counter()
    buckets = [Fraction(0)] * 64
    for i in range(1000):
        buckets[i & 63] += Fraction(i % 13 - 6, i % 11 + 1) * Fraction(i % 5 + 1, i % 7 + 1)
    return time.perf_counter() - start


class SpeedProbe:
    """Calibration timings before, during and after the op.

    The host's speed drifts by up to 2x within seconds, so one reading
    beside a long op says little about the speed the op ran at.  Inside the
    `with` block a SIGALRM every SAMPLE_PERIOD_S seconds runs the loop once
    more.  `clock` stops while a sample runs, so op and span times exclude
    the samples.  run.py turns the samples into a speed scale for the op.
    """

    SAMPLE_PERIOD_S = 0.1

    def __init__(self):
        self.samples = [calibrate() for _ in range(3)]
        self.paused = 0.0

    def clock(self):
        while True:
            paused = self.paused
            now = time.perf_counter()
            if self.paused == paused:  # no sample ran between the two reads
                return now - paused

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(calibrate())
        self.paused += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_PERIOD_S, self.SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.samples.extend(calibrate() for _ in range(3))


# ---------------------------------------------------------------------------
# Ops: the timed public calls


def op_decompose(spec, alphas):
    doc = report.build_report(spec["n"], spec["l"], alphas=alphas, include_matrices=True)
    return doc, report.to_json(doc)


def op_oracle_generic(spec, alphas):
    doc = report.build_report(
        spec["n"], spec["l"], with_oracle=True, oracle_max_size=spec.get("oracle_max_size")
    )
    return doc, report.to_json(doc)


def op_oracle_special(spec, alphas):
    n, l = spec["n"], spec["l"]
    shapes = admissible_shapes(n, l)
    out = []
    for a in alphas:
        basis = oracle.cyclic_closure(n, l, alpha=a)
        out.append((a, [oracle.hwv_multiplicity(basis, lam) for lam in shapes]))
    return out


OPS = {
    "decompose": op_decompose,
    "oracle-generic": op_oracle_generic,
    "oracle-special": op_oracle_special,
}


# ---------------------------------------------------------------------------
# Second routes


def reference_rows(n, l):
    """[shape, kostka, generic multiplicity, trace] of every shape of (n, l).

    These are the fields `reference.json` pins.  Transition entries are left
    out on purpose: a change of the invariant basis moves them by a
    similarity without changing any of these fields.
    """
    return [
        [list(tm.shape.parts), tm.d, tm.generic_rank(), tm.trace.coeff_strings()]
        for tm in (transition.transition_matrix(n, l, lam) for lam in admissible_shapes(n, l))
    ]


def _check_rows(rows, n, l, problems):
    """Basis-independent fields against the committed reference."""
    expected = json.loads(REFERENCE.read_text())[f"{n},{l}"]
    if rows != expected:
        problems.append(f"({n},{l}): rows differ from reference.json")


def _json_rows(text):
    return [
        [r["shape"], r["kostka"], r["generic_multiplicity"], r["trace"]]
        for r in json.loads(text)["rows"]
    ]


def check_decompose(spec, alphas, result, problems):
    n, l = spec["n"], spec["l"]
    doc, text = result
    problems.extend(report.sanity_check(doc))
    _check_rows(_json_rows(text), n, l, problems)
    for idx, row in enumerate(doc.rows):
        lam = row.shape
        entries = row.transition.to_rows()
        if n == 2:
            p = lam.parts[1] if lam.length > 1 else 0
            scalar = formulas.n2_transition(l, p)
        elif l == 1:
            scalar = formulas.content_poly(lam)
        else:
            continue
        want = [
            [scalar if i == j else PolyQ.zero() for j in range(row.kostka)]
            for i in range(row.kostka)
        ]
        if entries != want:
            problems.append(f"{lam.parts}: F is not the closed form times I")
        for a, mults in doc.alpha_specializations:
            rank = row.kostka if scalar(a) != 0 else 0
            if mults[idx] != rank:
                problems.append(f"{lam.parts} at alpha={a}: rank {mults[idx]} != {rank}")


def check_oracle_generic(spec, alphas, result, problems):
    doc, text = result
    problems.extend(report.sanity_check(doc))
    _check_rows(_json_rows(text), spec["n"], spec["l"], problems)
    if not doc.oracle.agrees:
        problems.append(f"({spec['n']},{spec['l']}): oracle disagrees with the ranks")


def check_oracle_special(spec, alphas, result, problems):
    n, l = spec["n"], spec["l"]
    _check_rows(reference_rows(n, l), n, l, problems)
    mats = [transition.transition_matrix(n, l, lam) for lam in admissible_shapes(n, l)]
    for a, mults in result:
        ranks = [tm.rank_at(a) for tm in mats]
        if mults != ranks:
            problems.append(f"({n},{l}) at alpha={a}: oracle {mults} != ranks {ranks}")


CHECKS = {
    "decompose": check_decompose,
    "oracle-generic": check_oracle_generic,
    "oracle-special": check_oracle_special,
}


# ---------------------------------------------------------------------------
# Tracing: wrap each layer at the module that calls it


class Tracer:
    """Spans (name, start, end, parent index, op id) kept in memory.

    Modules import functions by name, so a layer is wrapped in the module
    that calls it: `transition.rep_of`, not `seminormal.rep_of`.  Size hooks
    read exact counts from return values after the span has closed.
    """

    def __init__(self, op_id, clock):
        self.op_id = op_id
        self.clock = clock
        self.spans = []
        self.stack = []
        self.sizes = {}
        self.enabled = True

    def wrap(self, module, attr, name, on_return=None):
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(idx)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self.stack.pop()
                self.spans[idx] = (name, start, end, parent, self.op_id)
            if on_return is not None:
                on_return(self.sizes, result)
            return result

        setattr(module, attr, traced)


def _raise_to(sizes, key, value):
    sizes[key] = max(sizes.get(key, 0), value)


def _closure_sizes(sizes, basis):
    sizes["oracle.closure_dim.sum"] = sizes.get("oracle.closure_dim.sum", 0) + basis.dim
    coeffs = [
        c.coeffs if isinstance(c, PolyQ) else (c,)
        for poly in basis.generators
        for c in poly.terms.values()
    ]
    _raise_to(sizes, "oracle.alpha_degree.max", max((len(cs) - 1 for cs in coeffs), default=0))
    bits = (max(x.numerator.bit_length(), x.denominator.bit_length()) for cs in coeffs for x in cs)
    _raise_to(sizes, "oracle.coeff_bits.max", max(bits, default=0))


def install_tracer(op_id, clock):
    tracer = Tracer(op_id, clock)
    tracer.wrap(report, "build_report", "report.build_report")
    tracer.wrap(report, "to_json", "report.to_json")
    tracer.wrap(
        report,
        "transition_matrix",
        "transition.transition_matrix",
        lambda sizes, tm: _raise_to(sizes, "transition.d.max", tm.d),
    )
    tracer.wrap(
        transition,
        "build_rep",
        "seminormal.build_rep",
        lambda sizes, rep: _raise_to(sizes, "seminormal.f.max", rep.dim),
    )
    tracer.wrap(transition, "invariant_basis", "seminormal.invariant_basis")
    tracer.wrap(transition, "rep_of", "seminormal.rep_of")
    tracer.wrap(transition, "generic_rank", "exact.generic_rank")
    tracer.wrap(transition, "rank_at", "exact.rank_at")
    tracer.wrap(seminormal, "nullspace_q", "exact.nullspace_q")
    tracer.wrap(oracle, "cyclic_closure", "oracle.cyclic_closure", _closure_sizes)
    tracer.wrap(oracle, "hwv_multiplicity", "oracle.hwv_multiplicity")
    for name in ("zp_mul", "zpm_rank", "qm_rref"):
        tracer.wrap(kernels, name, f"kernels.{name}")
    return tracer


# ---------------------------------------------------------------------------


def probe():
    print(
        json.dumps(
            {
                "package": str(Path(sys.modules["alphadet"].__file__).resolve()),
                "backend": kernels.BACKEND,
                "python": platform.python_version(),
                "ready": READY,
                "calib_s": [calibrate() for _ in range(3)],
            }
        )
    )


def main(spec):
    alphas = [Fraction(a) for a in spec["alphas"]]
    out = {"ready": READY, "ok": True, "problems": []}
    speed = SpeedProbe()
    tracer = install_tracer(spec["op_id"], speed.clock) if spec["trace"] else None
    with speed:
        start = speed.clock()
        try:
            result = OPS[spec["kind"]](spec, alphas)
        except Exception as exc:  # the op boundary: any failure is one failed op
            out["ok"] = False
            out["error"] = f"{type(exc).__name__}: {exc}"
        out["op_s"] = speed.clock() - start
        if tracer is not None:
            tracer.enabled = False
    # Read the high-water mark before the checks, which build matrices of
    # their own, so that it is the op's memory alone.
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["calib_s"] = speed.samples
    if out["ok"]:
        CHECKS[spec["kind"]](spec, alphas, result, out["problems"])
    if tracer is not None:
        out["spans"] = tracer.spans
        out["sizes"] = tracer.sizes
    print(json.dumps(out))


if __name__ == "__main__":
    if sys.argv[1:] == ["--probe"]:
        probe()
    else:
        main(json.loads(sys.argv[1]))
