"""Acceptance sweep.  Each test covers one advertised guarantee and prints
a single [PASS]/[FAIL] line (run with -s to see them on passing runs).

Criteria:
  1  l=1 transition matrices are content-polynomial multiples of I
  2  n=2 transition entries match the closed form, three routes, l <= 5
  3  n=2 zonal values are Hahn polynomial values, l <= 4
  4  Frobenius expansion of alpha^nu reconstructs class-by-class, n <= 6
  5  hook-shape traces and ranks match their closed forms
  6  brute-force module multiplicities equal transition ranks
  7  binomial-sum identity for the n=2 coefficient polynomials, l <= 10
  8  Jacobi polynomial rewriting of G_s^l, l <= 6
  9  Vere-Jones expansion of det(I - aA)^(-1/a), truncation-bounded
 10  structural: F(0)=I, G-self-adjointness, dimension bookkeeping, nl <= 8
"""

from fractions import Fraction

from alphadet.exact import PolyQ
from alphadet.formulas import content_poly, hahn_Q, HahnParams
from alphadet.symgrp import Partition, coset_rep_n2, partitions, zonal
from alphadet.transition import transition_matrix
from alphadet.verify import run_suite


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    tail = f"  ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}{tail}")
    assert ok, f"criterion {num} failed: {desc}"


def _suite(num: int, desc: str, name: str, **kwargs) -> None:
    results = run_suite(name, **kwargs)
    ok = all(r.passed for r in results)
    bad = "; ".join(r.name for r in results if not r.passed)
    _report(num, desc, ok, bad or f"{len(results)} checks")


def test_criterion_01_l1_content():
    checks = 0
    ok = True
    for n in range(1, 6):
        for lam in partitions(n):
            tm = transition_matrix(n, 1, lam)
            cp = content_poly(lam)
            d = tm.d
            for i in range(d):
                for j in range(d):
                    want = cp if i == j else PolyQ.zero()
                    ok = ok and tm.entries.entry(i, j) == want
            checks += 1
    _report(1, "l=1 matrices equal content(lam) * I for n <= 5", ok,
            f"{checks} shapes")


def test_criterion_02_n2_closed_form():
    _suite(2, "n=2 entries match the closed form, three routes, l <= 5",
           "n2-theorem", max_l=5)


def test_criterion_03_zonal_hahn():
    checks = 0
    ok = True
    for l in range(1, 5):
        for p in range(l + 1):
            lam = Partition((2 * l - p, p)) if p else Partition((2 * l,))
            params = HahnParams(p, -l - 1, -l - 1, l)
            for s in range(l + 1):
                ok = ok and hahn_Q(params, s) == zonal(
                    lam, coset_rep_n2(l, s), 2, l
                )
                checks += 1
    _report(3, "n=2 zonal values are Hahn values, l <= 4", ok, f"{checks} pairs")


def test_criterion_04_frobenius():
    _suite(4, "Frobenius expansion reconstructs alpha^nu, n <= 6",
           "frobenius", max_n=6)


def test_criterion_05_hook():
    _suite(5, "hook traces and hook ranks match closed forms",
           "hook-trace", cases=((2, 2), (2, 3), (3, 2), (4, 2)))


def test_criterion_06_oracle():
    _suite(6, "module oracle multiplicities equal transition ranks",
           "oracle",
           cases=((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)),
           alphas=(Fraction(1), Fraction(-1), Fraction(-1, 2), Fraction(2)))


def test_criterion_07_gkp():
    _suite(7, "binomial-sum identity for G polynomials, l <= 10",
           "gkp", max_l=10)


def test_criterion_08_jacobi():
    _suite(8, "Jacobi polynomial form of G_s^l, l <= 6", "jacobi", max_l=6)


def test_criterion_09_vere_jones():
    _suite(9, "Vere-Jones series matches det(I - aA)^(-1/a) within bound",
           "vere-jones", seed=20250825, count=5, k_max=6, tol=1e-9)


def test_criterion_10_structure():
    _suite(10, "F(0)=I, self-adjointness, dimension count for nl <= 8",
           "selfadjoint")
