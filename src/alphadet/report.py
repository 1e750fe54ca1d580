"""Decomposition reports and their text/JSON/CSV encodings.

A report is the full multiplicity table for one (n, l): one row per shape
lam of n*l with at most n rows, in descending lex order.  Polynomials are
serialized as ascending "p/q" coefficient arrays, so JSON output
round-trips exactly and is byte-stable across runs.  Traces are carried
as PolyQ; a transition matrix keeps its integer rows over Z[a], and its
JSON and CSV cells are written straight from them (`_matrix_obj`).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction

from alphadet.exact import PolyMatrix, PolyQ, parse_rational
from alphadet.symgrp import Partition, admissible_shapes, kostka
from alphadet.transition import transition_matrix


@dataclass(frozen=True)
class ReportRow:
    shape: Partition
    kostka: int
    generic_multiplicity: int
    trace: PolyQ
    transition: PolyMatrix | None


@dataclass(frozen=True)
class OracleComparison:
    """Brute-force multiplicities alongside the rank-based ones.

    `generic` aligns with the report rows; `specialized` carries one
    multiplicity tuple per requested alpha.  `agrees` is True when every
    oracle number equals the corresponding rank.
    """

    generic: tuple[int, ...]
    specialized: tuple[tuple[Fraction, tuple[int, ...]], ...]
    agrees: bool


@dataclass(frozen=True)
class DecompositionReport:
    n: int
    l: int
    rows: tuple[ReportRow, ...]
    alpha_specializations: tuple[tuple[Fraction, tuple[int, ...]], ...] | None
    oracle: OracleComparison | None


def build_report(
    n: int,
    l: int,
    alphas: tuple[Fraction, ...] = (),
    include_matrices: bool = False,
    with_oracle: bool = False,
    max_size: int | None = None,
    oracle_max_size: int | None = None,
) -> DecompositionReport:
    shapes = admissible_shapes(n, l)
    if with_oracle:
        from alphadet.oracle import cyclic_closure, hwv_multiplicity

        # first, so that a closure past its cap is refused before any F is built
        gen_basis = cyclic_closure(n, l, max_size=oracle_max_size)
    rows, ranks = [], []
    for lam in shapes:
        # One shape at a time: F is dropped once read, unless it is printed.
        tm = transition_matrix(n, l, lam, max_size=max_size)
        rows.append(
            ReportRow(
                shape=lam,
                kostka=tm.d,
                generic_multiplicity=tm.generic_rank(),
                trace=tm.trace,
                transition=tm.entries if include_matrices else None,
            )
        )
        ranks.append(tuple(tm.rank_at(a) for a in alphas))
        del tm
    specs = tuple(zip(alphas, zip(*ranks))) if alphas else None
    oracle = None
    if with_oracle:
        generic = tuple(hwv_multiplicity(gen_basis, lam) for lam in shapes)
        specialized = []
        agrees = generic == tuple(r.generic_multiplicity for r in rows)
        for a in alphas:
            sb = cyclic_closure(n, l, alpha=a, max_size=oracle_max_size)
            mults = tuple(hwv_multiplicity(sb, lam) for lam in shapes)
            specialized.append((a, mults))
            if specs is not None:
                expected = next(m for aa, m in specs if aa == a)
                agrees = agrees and mults == expected
        oracle = OracleComparison(
            generic=generic, specialized=tuple(specialized), agrees=agrees
        )
    return DecompositionReport(
        n=n, l=l, rows=tuple(rows), alpha_specializations=specs, oracle=oracle
    )


# ---------------------------------------------------------------------------
# Encodings


def _matrix_obj(m: PolyMatrix) -> list[list[list[str]]]:
    """Each cell's ascending "p/q" coefficient strings, read from the
    stored integer rows: one Fraction per stored coefficient, none over
    denominator 1, and no PolyQ.  Zero cells share one empty list."""
    empty: list[str] = []
    out = []
    for den, row in zip(m.dens, m.nonzero):
        cells = [empty] * m.cols
        for j, cs in row.items():
            cells[j] = [str(c) for c in cs] if den == 1 else [str(Fraction(c, den)) for c in cs]
        out.append(cells)
    return out


def _matrix_from_obj(obj) -> PolyMatrix:
    return PolyMatrix.from_rows(
        [[PolyQ.from_coeff_strings(cell) for cell in row] for row in obj]
    )


def to_json(report: DecompositionReport) -> str:
    doc = {
        "n": report.n,
        "l": report.l,
        "rows": [
            {
                "shape": list(r.shape.parts),
                "kostka": r.kostka,
                "generic_multiplicity": r.generic_multiplicity,
                "trace": r.trace.coeff_strings(),
                "transition": None if r.transition is None else _matrix_obj(r.transition),
            }
            for r in report.rows
        ],
        "alpha_specializations": None
        if report.alpha_specializations is None
        else [
            {"alpha": str(a), "multiplicities": list(m)}
            for a, m in report.alpha_specializations
        ],
        "oracle": None
        if report.oracle is None
        else {
            "generic": list(report.oracle.generic),
            "specialized": [
                {"alpha": str(a), "multiplicities": list(m)}
                for a, m in report.oracle.specialized
            ],
            "agrees": report.oracle.agrees,
        },
    }
    return json.dumps(doc, indent=2)


def from_json(text: str) -> DecompositionReport:
    doc = json.loads(text)
    rows = tuple(
        ReportRow(
            shape=Partition(tuple(r["shape"])),
            kostka=r["kostka"],
            generic_multiplicity=r["generic_multiplicity"],
            trace=PolyQ.from_coeff_strings(r["trace"]),
            transition=None if r["transition"] is None else _matrix_from_obj(r["transition"]),
        )
        for r in doc["rows"]
    )
    specs = doc["alpha_specializations"]
    oracle = doc["oracle"]
    return DecompositionReport(
        n=doc["n"],
        l=doc["l"],
        rows=rows,
        alpha_specializations=None
        if specs is None
        else tuple(
            (parse_rational(s["alpha"]), tuple(s["multiplicities"])) for s in specs
        ),
        oracle=None
        if oracle is None
        else OracleComparison(
            generic=tuple(oracle["generic"]),
            specialized=tuple(
                (parse_rational(s["alpha"]), tuple(s["multiplicities"]))
                for s in oracle["specialized"]
            ),
            agrees=oracle["agrees"],
        ),
    )


def _shape_str(lam: Partition) -> str:
    return "(" + ",".join(str(p) for p in lam.parts) + ")"


def to_text(report: DecompositionReport) -> str:
    out = [f"Decomposition table for n={report.n}, l={report.l} (generic alpha)"]
    shape_w = max(len(_shape_str(r.shape)) for r in report.rows)
    out.append(f"{'shape':<{shape_w}}  {'size':>4}  {'mult':>4}  trace")
    for r in report.rows:
        out.append(
            f"{_shape_str(r.shape):<{shape_w}}  {r.kostka:>4}  "
            f"{r.generic_multiplicity:>4}  {r.trace.format()}"
        )
        if r.transition is not None:
            for line in str(r.transition).splitlines():
                out.append(" " * (shape_w + 2) + line)
    if report.alpha_specializations:
        out.append("")
        out.append("specialized multiplicities (rows as above):")
        for a, mults in report.alpha_specializations:
            out.append(f"  alpha = {a}: " + " ".join(str(m) for m in mults))
    if report.oracle is not None:
        out.append("")
        out.append(
            "oracle (module closure): "
            + " ".join(str(m) for m in report.oracle.generic)
            + ("  [agrees]" if report.oracle.agrees else "  [DISAGREES]")
        )
        for a, mults in report.oracle.specialized:
            out.append(f"  alpha = {a}: " + " ".join(str(m) for m in mults))
    return "\n".join(out) + "\n"


def to_csv(report: DecompositionReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["n", "l", "shape", "kostka", "generic_multiplicity", "trace"]
    specs = report.alpha_specializations or ()
    for a, _ in specs:
        header.append(f"mult@{a}")
    if report.oracle is not None:
        header.append("oracle_generic")
        for a, _ in report.oracle.specialized:
            header.append(f"oracle@{a}")
    writer.writerow(header)
    for idx, r in enumerate(report.rows):
        line = [
            report.n,
            report.l,
            ",".join(str(p) for p in r.shape.parts),
            r.kostka,
            r.generic_multiplicity,
            ",".join(r.trace.coeff_strings()),
        ]
        for _, mults in specs:
            line.append(mults[idx])
        if report.oracle is not None:
            line.append(report.oracle.generic[idx])
            for _, mults in report.oracle.specialized:
                line.append(mults[idx])
        writer.writerow(line)
    return buf.getvalue()


def sanity_check(report: DecompositionReport) -> list[str]:
    """Internal consistency: shape coverage, ordering, bound mult <= kostka."""
    problems = []
    expected = admissible_shapes(report.n, report.l)
    got = [r.shape for r in report.rows]
    if got != expected:
        problems.append("rows do not cover the admissible shapes in order")
    for r in report.rows:
        if r.generic_multiplicity > r.kostka:
            problems.append(f"mult > kostka at {r.shape.parts}")
        if r.kostka != kostka(r.shape, report.n, report.l):
            problems.append(f"kostka mismatch at {r.shape.parts}")
    return problems
