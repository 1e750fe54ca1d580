"""Transition matrices of the averaged column-group operator.

For a shape lam of size n*l, the operator sum_{h in H} alpha^{nu(h)} h acts
on the seminormal module of lam; compressing it to the row-group invariant
subspace (dimension d, the rectangular Kostka number) with the Gram-orthogonal
projection yields a d x d matrix F over Q[alpha].  Its generic rank is the
multiplicity of the irreducible gl_n module with highest weight lam inside
the cyclic module generated by the l-th power of the alpha-determinant, and
its rank at a rational point is the specialized multiplicity.

The operator is assembled in factored form, on the d invariant columns
only: no f x f matrix is built.  H is the internal direct product of its l
column subgroups, each a copy of S_n on the positions x_q = p + (q-1) l of
column p, and nu is additive across these factors.  Within one factor the
Jucys-Murphy elements L_k = sum_{i<k} (x_i x_k) give

    sum_{sigma in S_n} alpha^nu(sigma) sigma = prod_{k=2..n} (1 + alpha L_k),

since every sigma is uniquely a product t_2 t_3 ... t_n where t_k is the
identity or one transposition (x_i x_k) with i < k, and each transposition
adds one to nu.  So the operator is the product of the factors
(1 + alpha L_k) over every column p and k = 2..n, all of which commute.
The image of the basis is held as rational slices T = sum_e alpha^e T_e,
and each factor maps T_e to T_e + L_k T_{e-1}.  A transposition (x y) is
applied straight to the sparse columns through the seminormal generators,
along its palindromic word s_x ... s_{y-1} ... s_x.

Any explicit class function phi on H, alpha^nu included, takes the direct
sum over H instead, which gives the tests an independent second route to
the same matrix in the same (canonical) basis.

`trace_poly` computes the trace of F by a second, independent route: zonal
spherical values averaged over K, summed over H with alpha^nu weights.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from alphadet.errors import EmptyInvariantSpaceError, SizeMismatchError
from alphadet.exact import (
    PolyMatrix,
    PolyQ,
    QMatrix,
    generic_rank,
    mat_inverse,
    mat_mul,
    rank_at,
)
from alphadet.seminormal import InvariantBasis, SeminormalRep, build_rep, invariant_basis, rep_of
from alphadet.symgrp import (
    ClassFunctionH,
    Partition,
    _chi,
    enumerate_H,
    enumerate_K,
    nu,
)


@dataclass(frozen=True)
class TransitionMatrix:
    """The compressed operator matrix for one shape, with its Gram form."""

    shape: Partition
    n: int
    l: int
    d: int
    entries: PolyMatrix
    trace: PolyQ
    gram: tuple[tuple[Fraction, ...], ...]

    def generic_rank(self) -> int:
        """Multiplicity at generic alpha: rank over the function field Q(a)."""
        return generic_rank(self.entries)

    def rank_at(self, a: Fraction | int) -> int:
        """Multiplicity at the specialization alpha = a."""
        return rank_at(self.entries, a)

    def gram_matrix(self) -> QMatrix:
        return [list(row) for row in self.gram]


Slices = list[list[dict[int, Fraction]]]


def _full_operator(
    rep: SeminormalRep,
    basis: InvariantBasis,
    phi: ClassFunctionH,
    n: int,
    l: int,
    max_size: int | None,
) -> Slices:
    """Direct sum over H of phi(h) rho(h) on the invariant columns, by degree.

    The rho(h) are summed over Q within each value of phi, and each sum is
    applied to the columns once.  Works for any class function; phi = None
    (alpha^nu) takes the Jucys-Murphy route instead.
    """
    sums: dict[PolyQ, QMatrix] = {}
    for h in enumerate_H(n, l, max_size=max_size):
        v = phi.value(h)
        if v.is_zero:
            continue
        R = rep_of(rep, h)
        S = sums.setdefault(v, R)
        if S is not R:
            for Si, Ri in zip(S, R):
                for j, x in enumerate(Ri):
                    if x:
                        Si[j] += x
    B = basis.column_matrix()
    T: Slices = [
        [{} for _ in range(basis.d)] for _ in range(max((v.degree for v in sums), default=-1) + 1)
    ]
    for v, S in sums.items():
        SB = mat_mul(S, B)
        for e, x in enumerate(v.coeffs):
            if not x:
                continue
            for c, col in enumerate(T[e]):
                for i, row in enumerate(SB):
                    if row[c]:
                        col[i] = col.get(i, 0) + x * row[c]
    return [[{i: v for i, v in col.items() if v} for col in slice_e] for slice_e in T]


# A sparse rational column as one positive denominator over integer numerators.
IntColumn = tuple[int, dict[int, int]]


def _integer_generators(rep: SeminormalRep) -> list[tuple[int, list[list[tuple[int, int]]]]]:
    """Each seminormal generator as (m, columns of the integer matrix m rho(s_k))."""
    gens = []
    for cols in rep.gen_cols:
        m = lcm(*(v.denominator for col in cols for _, v in col))
        gens.append((m, [[(i, int(v * m)) for i, v in col] for col in cols]))
    return gens


def _reduced(den: int, num: dict[int, int]) -> IntColumn:
    g = gcd(den, *num.values())
    if g == 1:
        return den, num
    return den // g, {i: v // g for i, v in num.items()}


def _apply_transposition(gens, x: int, y: int, col: IntColumn) -> IntColumn:
    """rho((x y)) applied to one column, along the palindromic word
    s_x ... s_{y-2} s_{y-1} s_{y-2} ... s_x of adjacent transpositions."""
    den, num = col
    for w in itertools.chain(range(x, y), range(y - 2, x - 1, -1)):
        m, gen = gens[w - 1]
        out: dict[int, int] = {}
        for r, v in num.items():
            for i, g in gen[r]:
                if i in out:
                    out[i] += g * v
                else:
                    out[i] = g * v
        den, num = _reduced(den * m, {i: v for i, v in out.items() if v})
    return den, num


def _add(a: IntColumn, b: IntColumn) -> IntColumn:
    (da, na), (db, nb) = a, b
    den = lcm(da, db)
    sa, sb = den // da, den // db
    out = {i: v * sa for i, v in na.items()}
    for i, v in nb.items():
        out[i] = out[i] + v * sb if i in out else v * sb
    return _reduced(den, {i: v for i, v in out.items() if v})


def _jucys_murphy(rep: SeminormalRep, basis: InvariantBasis, n: int, l: int) -> Slices:
    """sum_{h in H} alpha^nu(h) rho(h) on the invariant columns, by degree.

    Returns T with T[e][c] the alpha^e coefficient of column c, sparse.
    Column p of the block tableau holds x_q = p + (q-1) l, and each factor
    1 + alpha L_k, L_k = sum_{i<k} (x_i x_k), maps T_e to T_e + L_k T_{e-1}.
    The factors commute, so the costliest (largest k) go first, while T
    has the fewest slices.  Columns stay integral over one denominator
    until the end, which is several times faster than per-entry Fractions.
    """
    gens = _integer_generators(rep)
    T: list[list[IntColumn]] = [[]]
    for c in range(basis.d):
        col = {i: row[c] for i, row in enumerate(basis.columns) if row[c]}
        den = lcm(*(v.denominator for v in col.values()))
        T[0].append((den, {i: int(v * den) for i, v in col.items()}))
    for k in range(n - 1, 0, -1):
        for p in range(1, l + 1):
            xs = [p + q * l for q in range(n)]
            T.append([(1, {}) for _ in range(basis.d)])
            for e in range(len(T) - 1, 0, -1):
                for c, col in enumerate(T[e - 1]):
                    for i in range(k):
                        T[e][c] = _add(T[e][c], _apply_transposition(gens, xs[i], xs[k], col))
    return [[{i: Fraction(v, den) for i, v in num.items()} for den, num in sl] for sl in T]


def _assemble(
    rep: SeminormalRep,
    basis: InvariantBasis,
    n: int,
    l: int,
    phi: ClassFunctionH | None,
    max_size: int | None,
) -> tuple[PolyMatrix, QMatrix]:
    d = basis.d
    D = rep.gram
    if phi is None:
        T = _jucys_murphy(rep, basis, n, l)
    else:
        T = _full_operator(rep, basis, phi, n, l, max_size)
    nonzero = [[(r, x) for r, x in enumerate(row) if x] for row in basis.columns]
    # A = B^T D T slice by slice, and the Gram matrix G = B^T D B.
    A = [[[Fraction(0)] * len(T) for _ in range(d)] for _ in range(d)]
    for e, slice_e in enumerate(T):
        for c, col in enumerate(slice_e):
            for i, v in col.items():
                w = D[i] * v
                for r, x in nonzero[i]:
                    A[r][c][e] += x * w
    G = [[Fraction(0)] * d for _ in range(d)]
    for i, row in enumerate(nonzero):
        for r, x in row:
            for c, y in row:
                G[r][c] += x * D[i] * y
    Ginv = mat_inverse(G)
    F = [
        [
            PolyQ(sum(g * A[k][c][e] for k, g in enumerate(Ginv[r]) if g) for e in range(len(T)))
            for c in range(d)
        ]
        for r in range(d)
    ]
    return PolyMatrix.from_rows(F), G


def transition_matrix(
    n: int,
    l: int,
    lam: Partition,
    phi: ClassFunctionH | None = None,
    max_size: int | None = None,
) -> TransitionMatrix:
    """The d x d operator matrix for shape lam; phi defaults to alpha^nu.

    Raises EmptyInvariantSpaceError when the rectangular Kostka number is 0
    (more than n rows), and SizeMismatchError when |lam| != n*l.
    """
    if lam.size != n * l:
        raise SizeMismatchError(f"|lam| = {lam.size} is not n*l = {n * l}")
    rep = build_rep(lam, max_size=max_size)
    basis = invariant_basis(rep, n, l)
    if basis.d == 0:
        raise EmptyInvariantSpaceError(
            f"shape {lam!r} has no row-group invariants for (n, l) = ({n}, {l})"
        )
    F, G = _assemble(rep, basis, n, l, phi, max_size)
    return TransitionMatrix(
        shape=lam,
        n=n,
        l=l,
        d=basis.d,
        entries=F,
        trace=F.trace(),
        gram=tuple(tuple(row) for row in G),
    )


def trace_poly(n: int, l: int, lam: Partition, max_size: int | None = None) -> PolyQ:
    """Trace of the transition matrix by the independent zonal route.

    Sums alpha^nu(h) times the K-averaged character over all h in H, never
    touching the seminormal construction.
    """
    m = n * l
    if lam.size != m:
        raise SizeMismatchError(f"|lam| = {lam.size} is not n*l = {m}")
    K = enumerate_K(n, l, max_size=max_size)
    coeffs = [Fraction(0)] * (m + 1)
    for h in enumerate_H(n, l, max_size=max_size):
        total = 0
        buckets: dict[tuple[int, ...], int] = {}
        for k in K:
            t = (k * h).cycle_type().parts
            buckets[t] = buckets.get(t, 0) + 1
        for t, mult in buckets.items():
            total += mult * _chi(lam.parts, t)
        coeffs[nu(h)] += Fraction(total, len(K))
    return PolyQ(coeffs)
