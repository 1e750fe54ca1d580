"""Closed-form polynomial identities for transition traces and n = 2 matrices.

Everything here is an independent route to quantities the representation
machinery also computes: the content-product polynomial governing the l = 1
case, Hahn polynomial values that equal the n = 2 zonal spherical values,
the (1+a)^(l-p) G_p^l closed form for the 1 x 1 transition matrices of
n = 2, the hook-shape trace, and the binomial and Jacobi identities used
to prove them.  Generalized binomial coefficients
C(x, j) = x(x-1)...(x-j+1)/j! are over Q and accept negative upper entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from alphadet.errors import PochhammerZeroError
from alphadet.exact import PolyQ
from alphadet.symgrp import Partition, dim_f, partitions

__all__ = [
    "binomial_q",
    "content_poly",
    "HahnParams",
    "hahn_Q",
    "G_poly",
    "n2_transition",
    "gkp_identity_check",
    "frobenius_specialization",
    "hook_trace_closed_form",
    "jacobi_relation_check",
]


def binomial_q(x: Fraction | int, j: int) -> Fraction:
    """Generalized binomial coefficient C(x, j) over Q; 0 for j < 0."""
    if j < 0:
        return Fraction(0)
    num = Fraction(1)
    for t in range(j):
        num *= Fraction(x) - t
    return num / factorial(j)


def content_poly(lam: Partition) -> PolyQ:
    """prod over cells (i, j) of (1 + (j - i) a).

    This is the l = 1 transition scalar; it vanishes exactly at 1/k for
    1 <= k < length(lam) and at -1/k for 1 <= k < lam_1.
    """
    out = PolyQ.one()
    for i, j in lam.cells():
        out = out * PolyQ([1, j - i])
    return out


@dataclass(frozen=True)
class HahnParams:
    """Parameters (p; a, b, N) of a Hahn polynomial value Q_p(x; a, b, N)."""

    p: int
    a: int
    b: int
    N: int

    def __post_init__(self):
        if not 0 <= self.p <= self.N:
            raise ValueError(f"need 0 <= p <= N, got p = {self.p}, N = {self.N}")


def hahn_Q(params: HahnParams, x: int) -> Fraction:
    """Hahn polynomial value as a binomial sum:

        sum_{j} (-1)^j C(p,j) C(-p-a-b-1,j) C(x,j) / (C(-a-1,j) C(N,j)).
    """
    p, a, b, N = params.p, params.a, params.b, params.N
    total = Fraction(0)
    for j in range(N + 1):
        top = binomial_q(p, j)
        if not top:
            break
        top *= binomial_q(-p - a - b - 1, j) * binomial_q(x, j)
        if not top:
            continue
        bot = binomial_q(-a - 1, j) * binomial_q(N, j)
        if not bot:
            raise PochhammerZeroError(f"denominator binomial vanished at j = {j}")
        total += (-1) ** j * top / bot
    return total


def G_poly(l: int, p: int) -> PolyQ:
    """The degree-p factor of the n = 2 transition scalar:

        G_p^l(a) = sum_j (-1)^j C(p,j) C(l-p+j,j) C(l,j)^(-1) a^j.
    """
    if not 0 <= p <= l:
        raise ValueError(f"need 0 <= p <= l, got p = {p}, l = {l}")
    coeffs = [
        (-1) ** j * Fraction(comb(p, j) * comb(l - p + j, j), comb(l, j))
        for j in range(p + 1)
    ]
    return PolyQ(coeffs)


def n2_transition(l: int, p: int) -> PolyQ:
    """Closed form of the 1 x 1 transition matrix of shape (2l-p, p):
    (1 + a)^(l-p) G_p^l(a)."""
    return PolyQ([1, 1]) ** (l - p) * G_poly(l, p)


def gkp_identity_check(l: int, p: int, r: int) -> bool:
    """Binomial convolution identity behind the n = 2 closed form:

        sum_i C(l-i, l-r) C(l-p+i, l-p) = C(2l-p+1, r).
    """
    if not (0 <= p <= l and 0 <= r <= l):
        raise ValueError("need 0 <= p <= l and 0 <= r <= l")
    lhs = sum(comb(l - i, l - r) * comb(l - p + i, l - p) for i in range(r + 1))
    return lhs == comb(2 * l - p + 1, r)


def frobenius_specialization(n: int) -> dict[Partition, PolyQ]:
    """Coefficients of a^nu in the character expansion over S_n:

        a^nu(.) = sum_{lam |- n} (f^lam / n!) f_lam(a) chi^lam(.)

    Returns the map lam -> (f^lam / n!) f_lam(a); re-assembling the right
    side class by class recovers the monomial a^nu exactly.
    """
    nfact = factorial(n)
    return {
        lam: Fraction(dim_f(lam), nfact) * content_poly(lam) for lam in partitions(n)
    }


def hook_trace_closed_form(n: int, l: int, paper_variant: bool = False) -> PolyQ:
    """Trace of the transition matrix for the hook shape (nl-1, 1):

        (n-1) (1-a) (1+(n-1)a)^(l-1) prod_{i=1}^{n-2} (1+ia)^l.

    The product form forces the + sign in the middle factor; the printed
    variant with (1-(n-1)a)^(l-1) is available for side-by-side display.  At
    l = 1 the two agree; for l >= 2 the printed variant contradicts the zero
    set {1, -1, -1/2, ..., -1/(n-1)}.
    """
    if n < 2 or l < 1:
        raise ValueError("hook shape needs n >= 2 and l >= 1")
    mid = PolyQ([1, -(n - 1)]) if paper_variant else PolyQ([1, n - 1])
    out = PolyQ.constant(n - 1) * PolyQ([1, -1]) * mid ** (l - 1)
    for i in range(1, n - 1):
        out = out * PolyQ([1, i]) ** l
    return out


def _jacobi_value(s: int, a: int, b: int, half_minus: PolyQ, half_plus: PolyQ) -> PolyQ:
    """Jacobi polynomial P_s^(a,b) at z, via the two-binomial series

        sum_j C(s+a, s-j) C(s+b, j) ((z-1)/2)^j ((z+1)/2)^(s-j),

    taking (z-1)/2 and (z+1)/2 as ready-made polynomials."""
    acc = PolyQ.zero()
    for j in range(s + 1):
        c = binomial_q(s + a, s - j) * binomial_q(s + b, j)
        if c:
            acc = acc + c * half_minus**j * half_plus ** (s - j)
    return acc


def jacobi_relation_check(l: int, s: int) -> bool:
    """G_s^l(a) = C(s-l-1, s)^(-1) P_s^(-l-1, 2l-2s+1)(1 + 2a)."""
    if not 0 <= s <= l:
        raise ValueError(f"need 0 <= s <= l, got s = {s}, l = {l}")
    # At z = 1 + 2a the series variables are (z-1)/2 = a and (z+1)/2 = 1 + a.
    P = _jacobi_value(s, -l - 1, 2 * l - 2 * s + 1, PolyQ([0, 1]), PolyQ([1, 1]))
    scale = binomial_q(s - l - 1, s)
    if not scale:
        raise PochhammerZeroError("leading Jacobi coefficient vanished")
    return G_poly(l, s) == (1 / scale) * P
