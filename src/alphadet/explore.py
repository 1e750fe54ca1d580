"""Exploratory diagnostics that go beyond the proved statements.

Whether the transition matrix is semisimple is open in general; this module
lets one probe it numerically-in-spirit but with exact arithmetic: pick a
rational alpha, compute the characteristic polynomial of F(alpha) by
Faddeev-LeVerrier, strip repeated factors by dividing out its gcd with the
derivative (Euclid over Q, in `PolyQ`), and test whether the squarefree part
annihilates the matrix.  That is exactly the condition for
diagonalizability over the algebraic closure of Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from alphadet.exact import PolyMatrix, PolyQ, QMatrix, mat_identity, mat_mul
from alphadet.symgrp import Partition
from alphadet.transition import transition_matrix


def charpoly(A: QMatrix) -> PolyQ:
    """Characteristic polynomial det(tI - A), ascending coefficients,
    computed division-free in the entries (Faddeev-LeVerrier)."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("matrix is not square")
    cs = [Fraction(1)]  # leading coefficient of t^n
    M = mat_identity(n)
    for k in range(1, n + 1):
        AM = mat_mul(A, M)
        ck = -sum(AM[i][i] for i in range(n)) / k
        cs.append(ck)
        M = [
            [AM[i][j] + (ck if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
    return PolyQ(reversed(cs))


def squarefree_part(p: PolyQ) -> PolyQ:
    """p divided by gcd(p, p'), made monic; shares the roots of p, each once."""
    if p.degree <= 0:
        return PolyQ.one() if p.degree == 0 else p
    return divmod(p, p.gcd(p.derivative()))[0].monic()


def _poly_at_matrix(p: PolyQ, A: QMatrix) -> QMatrix:
    n = len(A)
    out = [[Fraction(0)] * n for _ in range(n)]
    for c in reversed(p.coeffs):
        out = mat_mul(out, A)
        for i in range(n):
            out[i][i] += c
    return out


@dataclass(frozen=True)
class DiagonalizabilityProbe:
    alpha: Fraction
    char: PolyQ
    squarefree: PolyQ
    diagonalizable: bool


def _probe(F: PolyMatrix, alpha: Fraction | int) -> DiagonalizabilityProbe:
    a = Fraction(alpha)
    Fa = F.eval_at(a)
    p = charpoly(Fa)
    s = squarefree_part(p)
    value = _poly_at_matrix(s, Fa)
    zero = all(not x for row in value for x in row)
    return DiagonalizabilityProbe(alpha=a, char=p, squarefree=s, diagonalizable=zero)


DEFAULT_PROBE_ALPHAS = (
    Fraction(0),
    Fraction(1),
    Fraction(-1),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(2),
)


def probe_many(
    n: int,
    l: int,
    lam: Partition,
    alphas=DEFAULT_PROBE_ALPHAS,
    max_size: int | None = None,
) -> list[DiagonalizabilityProbe]:
    """Probe F(alpha) at each alpha; F is built once."""
    F = transition_matrix(n, l, lam, max_size=max_size).entries
    return [_probe(F, a) for a in alphas]
