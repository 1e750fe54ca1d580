"""Command-line front end.

Exit codes are a stable contract: 0 on success, 1 when a verification or
cross-check fails, 2 on usage, parse, or cap errors.  All output is
deterministic; JSON uses the same polynomial encoding as the report module
(ascending arrays of "p/q" strings).
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import sys
from fractions import Fraction

from alphadet import __version__
from alphadet.errors import AlphadetError
from alphadet.exact import parse_rational
from alphadet.formulas import n2_transition
from alphadet.report import build_report, sanity_check, to_csv, to_json, to_text
from alphadet.symgrp import Partition, Permutation, coset_rep_n2, zonal
from alphadet.transition import trace_poly, transition_matrix
from alphadet.verify import SUITES, run_suite


def _alpha(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _shape(text: str) -> Partition:
    try:
        return Partition.from_text(text)
    except (ValueError, AlphadetError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _cases(text: str) -> tuple[tuple[int, int], ...]:
    out = []
    for chunk in text.split(";"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise argparse.ArgumentTypeError(f"bad case {chunk!r}; want n,l")
        out.append((_positive(parts[0]), _positive(parts[1])))
    return tuple(out)


def cmd_decompose(args) -> int:
    report = build_report(
        args.n,
        args.l,
        alphas=tuple(args.alpha or ()),
        include_matrices=args.matrices,
        with_oracle=args.oracle,
        max_size=args.max_size,
        oracle_max_size=args.max_size,
    )
    problems = sanity_check(report)
    if problems:
        print("; ".join(problems), file=sys.stderr)
        return 1
    if args.format == "json":
        print(to_json(report))
    elif args.format == "csv":
        print(to_csv(report), end="")
    else:
        print(to_text(report), end="")
    if report.oracle is not None and not report.oracle.agrees:
        print("oracle disagrees with transition ranks", file=sys.stderr)
        return 1
    return 0


def cmd_transition(args) -> int:
    tm = transition_matrix(args.n, args.l, args.lam, max_size=args.max_size)
    checks: dict[str, bool] = {}
    if args.check:
        checks["trace-two-routes"] = tm.trace == trace_poly(
            args.n, args.l, args.lam, max_size=args.max_size
        )
        if args.n == 2:
            s = args.lam.part(2)
            checks["n2-closed-form"] = tm.entries.entry(0, 0) == n2_transition(
                args.l, s
            )
    if args.format == "json":
        doc = {
            "n": tm.n,
            "l": tm.l,
            "shape": list(tm.shape.parts),
            "size": tm.d,
            "matrix": [[p.coeff_strings() for p in row] for row in tm.entries.to_rows()],
            "trace": tm.trace.coeff_strings(),
            "generic_rank": tm.generic_rank(),
            "checks": checks or None,
        }
        print(json.dumps(doc, indent=2))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["row", "col", "entry"])
        for i, row in enumerate(tm.entries.to_rows()):
            for j, p in enumerate(row):
                writer.writerow([i, j, ",".join(p.coeff_strings())])
    else:
        shape = ",".join(str(p) for p in tm.shape.parts)
        print(f"transition matrix for n={tm.n}, l={tm.l}, shape=({shape})")
        print(str(tm.entries))
        print(f"trace: {tm.trace.format()}")
        print(f"generic rank: {tm.generic_rank()} (size {tm.d})")
        for name, ok in checks.items():
            print(f"check {name}: {'pass' if ok else 'FAIL'}")
    return 0 if all(checks.values()) else 1


def cmd_trace(args) -> int:
    tr = trace_poly(args.n, args.l, args.lam, max_size=args.max_size)
    checks: dict[str, bool] = {}
    if args.check:
        tm = transition_matrix(args.n, args.l, args.lam, max_size=args.max_size)
        checks["matrix-trace"] = tm.trace == tr
    if args.format == "json":
        doc = {
            "n": args.n,
            "l": args.l,
            "shape": list(args.lam.parts),
            "trace": tr.coeff_strings(),
            "checks": checks or None,
        }
        print(json.dumps(doc, indent=2))
    else:
        print(tr.format())
        for name, ok in checks.items():
            print(f"check {name}: {'pass' if ok else 'FAIL'}")
    return 0 if all(checks.values()) else 1


def cmd_zonal(args) -> int:
    values: list[tuple[str, Fraction]] = []
    if args.g is not None:
        g = Permutation.from_text(args.g)
        values.append((args.g, zonal(args.lam, g, args.n, args.l, max_size=args.max_size)))
    elif args.n == 2:
        ss = [args.s] if args.s is not None else list(range(args.l + 1))
        for s in ss:
            g = coset_rep_n2(args.l, s)
            values.append((f"s={s}", zonal(args.lam, g, 2, args.l, max_size=args.max_size)))
    else:
        print("for n != 2 pass an explicit permutation via --g", file=sys.stderr)
        return 2
    if args.format == "json":
        doc = {
            "n": args.n,
            "l": args.l,
            "shape": list(args.lam.parts),
            "values": [{"at": label, "value": str(v)} for label, v in values],
        }
        print(json.dumps(doc, indent=2))
    else:
        for label, v in values:
            print(f"{label}: {v}")
    return 0


def _read_matrix(path: str) -> list[list[Fraction]]:
    with open(path, newline="") as fh:
        rows = [
            [parse_rational(cell) for cell in row]
            for row in csv.reader(fh)
            if row
        ]
    if not rows or any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix file must be a nonempty square CSV")
    return rows


def cmd_adet(args) -> int:
    from alphadet.oracle import adet_eval

    A = _read_matrix(args.matrix)
    for a in args.alpha:
        value = adet_eval(A, a, max_size=args.max_size)
        if len(args.alpha) == 1:
            print(value)
        else:
            print(f"alpha={a}: {value}")
    return 0


# Each `verify` option (as an argparse dest) and the suite parameter it sets.
VERIFY_OPTIONS = {
    "max_n": "max_n", "max_l": "max_l", "cases": "cases", "alpha": "alphas",
    "seed": "seed", "k_max": "k_max", "tol": "tol", "paper_variant": "paper_variant",
}


def cmd_verify(args) -> int:
    params = inspect.signature(SUITES[args.suite]).parameters
    kwargs = {}
    refused = []
    for dest, param in VERIFY_OPTIONS.items():
        value = getattr(args, dest)
        if value is None or value is False:
            continue
        if param not in params:
            refused.append("--" + dest.replace("_", "-"))
        kwargs[param] = tuple(value) if isinstance(value, list) else value
    if refused:
        raise ValueError(f"suite {args.suite} does not take {', '.join(refused)}")
    results = run_suite(args.suite, **kwargs)
    for r in results:
        line = f"[{'PASS' if r.passed else 'FAIL'}] {r.name}"
        if r.detail:
            line += f"  ({r.detail})"
        print(line)
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def cmd_explore(args) -> int:
    from alphadet.explore import DEFAULT_PROBE_ALPHAS, probe_many

    alphas = tuple(args.alpha) if args.alpha else DEFAULT_PROBE_ALPHAS
    probes = probe_many(args.n, args.l, args.lam, alphas=alphas, max_size=args.max_size)
    if args.format == "json":
        doc = {
            "n": args.n,
            "l": args.l,
            "shape": list(args.lam.parts),
            "probes": [
                {
                    "alpha": str(p.alpha),
                    "charpoly": p.char.coeff_strings(),
                    "squarefree": p.squarefree.coeff_strings(),
                    "diagonalizable": p.diagonalizable,
                }
                for p in probes
            ],
        }
        print(json.dumps(doc, indent=2))
    else:
        for p in probes:
            verdict = "diagonalizable" if p.diagonalizable else "NOT diagonalizable"
            print(f"alpha={p.alpha}: {verdict}; charpoly {p.char.format(var='t')}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphadet",
        description="Decomposition tables and transition matrices for powers "
        "of the alpha-determinant under the gl_n action.",
    )
    parser.add_argument("--version", action="version", version=f"alphadet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats, shape=False):
        p.add_argument("--n", type=_positive, required=True, help="matrix size n")
        p.add_argument("--l", type=_positive, required=True, help="power l")
        if shape:
            p.add_argument(
                "--lam", type=_shape, required=True,
                help="partition of n*l, comma-separated, e.g. 3,1",
            )
        p.add_argument("--max-size", type=int, default=None, help="override size caps")
        p.add_argument(
            "--format", choices=formats, default="text",
            help="output format",
        )

    p = sub.add_parser("decompose", help="full multiplicity table for (n, l)")
    common(p, ("text", "json", "csv"))
    p.add_argument(
        "--alpha", type=_alpha, action="append",
        help="also report multiplicities at this alpha (repeatable, p/q)",
    )
    p.add_argument(
        "--oracle", action="store_true",
        help="cross-check against the brute-force module closure",
    )
    p.add_argument(
        "--matrices", action="store_true", help="include the transition matrices"
    )
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("transition", help="one transition matrix")
    common(p, ("text", "json", "csv"), shape=True)
    p.add_argument(
        "--check", action="store_true",
        help="cross-validate the trace (and the n=2 closed form)",
    )
    p.set_defaults(func=cmd_transition)

    p = sub.add_parser("trace", help="trace of a transition matrix, summed directly")
    common(p, ("text", "json"), shape=True)
    p.add_argument("--check", action="store_true", help="compare with the matrix trace")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("zonal", help="zonal spherical values of a shape")
    common(p, ("text", "json"), shape=True)
    p.add_argument("--s", type=int, default=None, help="n=2 double-coset index")
    p.add_argument("--g", type=str, default=None, help="permutation images, e.g. 2,1,3")
    p.set_defaults(func=cmd_zonal)

    p = sub.add_parser("adet", help="alpha-determinant of a CSV matrix")
    p.add_argument("matrix", help="CSV file of rational entries (p/q)")
    p.add_argument(
        "--alpha", type=_alpha, action="append", required=True,
        help="evaluation point (repeatable, p/q)",
    )
    p.add_argument("--max-size", type=int, default=None, help="override size caps")
    p.set_defaults(func=cmd_adet)

    p = sub.add_parser("verify", help="run one verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--max-l", type=int, default=None)
    p.add_argument("--cases", type=_cases, default=None, help="e.g. 2,1;2,2;3,1")
    p.add_argument("--alpha", type=_alpha, action="append", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument(
        "--paper-variant", action="store_true",
        help="hook-trace: print the printed variant beside the derived form",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "explore-diagonalizable",
        help="probe semisimplicity of F(alpha) at sample points",
    )
    common(p, ("text", "json"), shape=True)
    p.add_argument(
        "--alpha", type=_alpha, action="append",
        help="probe point (repeatable; default: a standard sample)",
    )
    p.set_defaults(func=cmd_explore)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AlphadetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
