"""Named verification suites: each cross-checks one identity end to end.

Every suite returns a list of CheckResult, one per case, so callers (the
CLI and the test battery) can print per-case lines and aggregate an exit
status.  Suites recompute both sides of their identity; nothing here trusts
a cached constant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from alphadet.exact import PolyQ
from alphadet.formulas import (
    HahnParams,
    binomial_q,
    frobenius_specialization,
    gkp_identity_check,
    hahn_Q,
    hook_trace_closed_form,
    jacobi_relation_check,
    n2_transition,
)
from alphadet.symgrp import Partition, admissible_shapes, character, dim_f, kostka, partitions
from alphadet.transition import transition_matrix


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _result(name: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(name=name, passed=passed, detail=detail)


def suite_frobenius(max_n: int = 6) -> list[CheckResult]:
    """Class-by-class reconstruction of the monomial a^nu from characters."""
    out = []
    for n in range(1, max_n + 1):
        coeffs = frobenius_specialization(n)
        ok = True
        for mu in partitions(n):
            acc = PolyQ.zero()
            for lam, c in coeffs.items():
                acc = acc + c * character(lam, mu)
            if acc != PolyQ.monomial(n - mu.length):
                ok = False
                break
        out.append(_result(f"frobenius n={n}", ok))
    return out


def _hahn_sum(l: int, p: int) -> PolyQ:
    params = HahnParams(p, -l - 1, -l - 1, l)
    return PolyQ(binomial_q(l, s) * hahn_Q(params, s) for s in range(l + 1))


def suite_n2_theorem(max_l: int = 5) -> list[CheckResult]:
    """Three routes to the n=2 transition polynomial must coincide."""
    out = []
    for l in range(1, max_l + 1):
        for p in range(l + 1):
            lam = Partition((2 * l - p, p)) if p else Partition((2 * l,))
            entry = transition_matrix(2, l, lam).entries.entry(0, 0)
            closed = n2_transition(l, p)
            summed = _hahn_sum(l, p)
            ok = entry == closed == summed
            out.append(
                _result(
                    f"n2-theorem l={l} p={p}",
                    ok,
                    "" if ok else f"entry {entry} closed {closed} sum {summed}",
                )
            )
    return out


HOOK_CASES = ((2, 2), (2, 3), (3, 2), (4, 2))
HOOK_ALPHAS = (Fraction(1), Fraction(-1), Fraction(-1, 2), Fraction(2))


def _hook_expected_rank(n: int, a: Fraction) -> int:
    zeros = {Fraction(1)} | {Fraction(-1, k) for k in range(1, n)}
    return 0 if a in zeros else n - 1


def suite_hook_trace(
    cases=HOOK_CASES, paper_variant: bool = False
) -> list[CheckResult]:
    """Hook-shape trace against the product closed form, plus its zero set."""
    out = []
    for n, l in cases:
        # first, so that a case with no hook shape is refused in its own terms
        closed = hook_trace_closed_form(n, l)
        tm = transition_matrix(n, l, Partition((n * l - 1, 1)))
        ok = tm.trace == closed
        detail = ""
        if paper_variant:
            printed = hook_trace_closed_form(n, l, paper_variant=True)
            detail = f"derived {closed.format()} | printed variant {printed.format()}"
        elif not ok:
            detail = f"trace {tm.trace.format()} != {closed.format()}"
        out.append(_result(f"hook-trace ({n},{l}) closed form", ok, detail))
        for a in HOOK_ALPHAS:
            expected = _hook_expected_rank(n, a)
            got = tm.rank_at(a)
            out.append(
                _result(
                    f"hook-trace ({n},{l}) rank at {a}",
                    got == expected,
                    "" if got == expected else f"got {got} expected {expected}",
                )
            )
    return out


def suite_gkp(max_l: int = 10) -> list[CheckResult]:
    out = []
    for l in range(max_l + 1):
        ok = all(
            gkp_identity_check(l, p, r)
            for p in range(l + 1)
            for r in range(l + 1)
        )
        out.append(_result(f"gkp l={l}", ok))
    return out


def suite_jacobi(max_l: int = 6) -> list[CheckResult]:
    out = []
    for l in range(1, max_l + 1):
        ok = all(jacobi_relation_check(l, s) for s in range(l + 1))
        out.append(_result(f"jacobi l={l}", ok))
    return out


VERE_JONES_ALPHAS = (Fraction(1), Fraction(-1), Fraction(1, 2))


def random_rational_matrix(rng: random.Random, size: int = 3) -> list[list[Fraction]]:
    """Random size x size matrix with entries p/q, |p| <= 9, 1 <= q <= 9."""
    return [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(size)]
        for _ in range(size)
    ]


def suite_vere_jones(seed: int = 20250825, count: int = 5, k_max: int = 6) -> list[CheckResult]:
    """Vere-Jones identity on `count` random rational matrices at each alpha
    of VERE_JONES_ALPHAS: the z^0..z^k_max coefficients of
    det(I - a z A)^(-1/a) equal those of the alpha-determinant series, in Q."""
    from alphadet.oracle import vere_jones_check

    rng = random.Random(seed)
    out = []
    for t in range(count):
        A = random_rational_matrix(rng)
        for a in VERE_JONES_ALPHAS:
            r = vere_jones_check(A, a, k_max=k_max)
            if r.ok:
                detail = f"z^0..z^{k_max} equal"
            else:
                k = next(k for k, (x, y) in enumerate(zip(r.lhs, r.rhs)) if x != y)
                detail = f"z^{k} differs: {r.lhs[k]} != {r.rhs[k]}"
            out.append(_result(f"vere-jones matrix {t} alpha={a}", r.ok, detail))
    return out


ORACLE_CASES = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1))
ORACLE_ALPHAS = (Fraction(1), Fraction(-1), Fraction(-1, 2), Fraction(2))


def suite_oracle(cases=ORACLE_CASES, alphas=ORACLE_ALPHAS) -> list[CheckResult]:
    """Master property: module-closure multiplicities equal transition ranks.

    Each closure also gets its weight count, on the same multiplicities:
    every row weight lies in the cone the closure keeps, and each weight
    space of the cone has dimension sum over lam of multiplicity times
    K(lam, mu).
    """
    from alphadet.oracle import cyclic_closure, hwv_multiplicity, weight_consistency_check

    out = []
    for n, l in cases:
        shapes = admissible_shapes(n, l)
        mats = [transition_matrix(n, l, lam) for lam in shapes]
        for a in (None, *alphas):
            basis = cyclic_closure(n, l, alpha=a)
            mults = {lam: hwv_multiplicity(basis, lam) for lam in shapes}
            ok = all(
                mults[lam] == (tm.generic_rank() if a is None else tm.rank_at(a))
                for lam, tm in zip(shapes, mats)
            )
            label = f"oracle ({n},{l}) " + ("generic" if a is None else f"alpha={a}")
            out.append(_result(label, ok))
            out.append(_result(f"{label} weight count", weight_consistency_check(basis, mults)))
    return out


SELFADJOINT_CASES = ((2, 1), (3, 1), (2, 2), (3, 2), (2, 3))


def suite_selfadjoint(cases=SELFADJOINT_CASES) -> list[CheckResult]:
    """Structural invariants of every computed transition matrix:
    F(0) = I, Gram self-adjointness, generic rank K(lam, (l^n)), and the
    block dimension count."""
    out = []
    for n, l in cases:
        ok_zero = True
        ok_adj = True
        ok_kostka = True
        for lam in admissible_shapes(n, l):
            tm = transition_matrix(n, l, lam)
            F = tm.entries
            d = tm.d
            if tm.generic_rank() != kostka(lam, n, l):
                ok_kostka = False
            at0 = F.eval_at(0)
            if at0 != [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]:
                ok_zero = False
            # G is diagonal: (G F)[i][j] = G[i] F[i][j], (F^T G)[i][j] = F[j][i] G[j].
            G = tm.gram
            for i in range(d):
                for j in range(i + 1, d):
                    if G[i] * F.entry(i, j) != G[j] * F.entry(j, i):
                        ok_adj = False
        out.append(_result(f"selfadjoint ({n},{l}) F(0)=I", ok_zero))
        out.append(_result(f"selfadjoint ({n},{l}) G F = F^T G", ok_adj))
        out.append(_result(f"selfadjoint ({n},{l}) generic rank = K(lam, (l^n))", ok_kostka))
    for n in range(1, 9):
        for l in range(1, 8 // n + 1):
            total = sum(
                dim_f(lam) * kostka(lam, n, l) for lam in admissible_shapes(n, l)
            )
            expected = factorial(n * l) // factorial(l) ** n
            out.append(
                _result(
                    f"selfadjoint dimension count (n,l)=({n},{l})",
                    total == expected,
                    "" if total == expected else f"{total} != {expected}",
                )
            )
    return out


SUITES = {
    "frobenius": suite_frobenius,
    "n2-theorem": suite_n2_theorem,
    "hook-trace": suite_hook_trace,
    "gkp": suite_gkp,
    "jacobi": suite_jacobi,
    "vere-jones": suite_vere_jones,
    "oracle": suite_oracle,
    "selfadjoint": suite_selfadjoint,
}


def run_suite(name: str, **kwargs) -> list[CheckResult]:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](**kwargs)
