"""Reference objects that only the tests use.

Nothing under `src/` reaches these names.  Each is a textbook definition the
tests check the library's results against: the block tableau of shape (l^n)
with its row and column groups, the centralizer order z_mu of a class, the
Weyl dimension of an irreducible gl_n module, the column-wise splitting
theta of H, the sum D over H that equals a power of the alpha-determinant,
dense forms of the library's sparse matrices, the alpha-determinant of the
generic matrix over Q[alpha], the polarization operator E_ij on monomials
kept as exponent tuples, the library's reducer taken in the two steps
`reduce` and `insert`, the cyclic closure and highest-weight count on
those tuples, the Jucys-Murphy slices reduced after every letter, the
dense compression G^-1 B^T D T of the transition slices, Young's
seminormal generators built in Fractions, the reduced row echelon form by
textbook Gauss-Jordan elimination (a route to ranks and echelon forms apart
from the library's one reducer), the rank of a rational matrix through
that reducer, exact solves and inverses over Q, and
`Poly`, the oracle's sparse polynomial with the sums, products, powers and
weights the tests build and compare.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial, gcd, lcm, prod

from alphadet import kernels
from alphadet.errors import AlphadetError, SizeMismatchError
from alphadet.exact import PolyMatrix, PolyQ, QMatrix, mat_identity
from alphadet.kernels import RowReducer, _eliminate_int, _normalize_int
from alphadet.oracle import ModuleBasis, Monomial, MultiPoly, _monomial_weight, _var
from alphadet.seminormal import InvariantColumn, SeminormalRep
from alphadet.symgrp import Partition, Permutation, enumerate_H, nu


@dataclass(frozen=True)
class BlockTableau:
    """The rectangular tableau with n rows of length l filled row by row."""

    n: int
    l: int

    def entry(self, i: int, j: int) -> int:
        return (i - 1) * self.l + j

    def row_of(self, x: int) -> int:
        return (x - 1) // self.l + 1

    def col_of(self, x: int) -> int:
        return (x - 1) % self.l + 1

    def in_row_group(self, g: Permutation) -> bool:
        return all(self.row_of(g(x)) == self.row_of(x) for x in range(1, self.n * self.l + 1))

    def in_column_group(self, g: Permutation) -> bool:
        return all((g(x) - x) % self.l == 0 for x in range(1, self.n * self.l + 1))


def z_lambda(mu: Partition) -> int:
    """Centralizer order of the class mu: prod_i i^{m_i} m_i!."""
    return prod(i**m * factorial(m) for i, m in Counter(mu.parts).items())


def weyl_dim(lam: Partition, n: int) -> int:
    """Dimension of the irreducible gl_n module with highest weight lam."""
    if lam.length > n:
        raise SizeMismatchError(f"lam has {lam.length} rows, more than n = {n}")
    num = Fraction(1)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            num *= Fraction(lam.part(i) - lam.part(j) + j - i, j - i)
    assert num.denominator == 1
    return int(num)


class NotInSubgroupError(AlphadetError, ValueError):
    """A permutation is not a member of the required subgroup."""


def identity(m: int) -> Permutation:
    return Permutation(range(1, m + 1))


def transposition(m: int, a: int, b: int) -> Permutation:
    imgs = list(range(1, m + 1))
    imgs[a - 1], imgs[b - 1] = b, a
    return Permutation(imgs)


def theta(h: Permutation, n: int, l: int) -> tuple[Permutation, ...]:
    """Column-wise splitting of h in H into l permutations of S_n.

    theta(h)[p-1] sends q to q' exactly when h moves the column-p entry of
    row q to the column-p entry of row q'.  Raises NotInSubgroupError when h
    does not preserve columns.
    """
    if h.size != n * l:
        raise SizeMismatchError(f"permutation size {h.size} is not n*l = {n * l}")
    comps = []
    for p in range(1, l + 1):
        imgs = []
        for q in range(1, n + 1):
            y = h((q - 1) * l + p)
            if (y - p) % l != 0:
                raise NotInSubgroupError(f"{h!r} does not preserve columns mod {l}")
            imgs.append((y - p) // l + 1)
        comps.append(Permutation(imgs))
    return tuple(comps)


def D_of(n: int, l: int) -> Poly:
    """Sum over h in H of alpha^nu(h) prod_{p,q} x_{theta(h)_p(q), q}."""
    acc: dict[Monomial, PolyQ] = {}
    for h in enumerate_H(n, l):
        c = PolyQ.monomial(nu(h))
        comps = theta(h, n, l)
        m = [0] * (n * n)
        for p in range(1, l + 1):
            comp = comps[p - 1]
            for q in range(1, n + 1):
                m[_var(comp(q), q, n)] += 1
        key = tuple(m)
        prev = acc.get(key)
        acc[key] = c if prev is None else prev + c
    return Poly(n, acc)


def gauss_jordan(rows):
    """Reduced row echelon form by textbook Gauss-Jordan elimination."""
    mat = [list(r) for r in rows]
    pivcols = []
    top = 0
    for col in range(len(mat[0]) if mat else 0):
        below = [i for i in range(top, len(mat)) if mat[i][col] != 0]
        if not below:
            continue
        mat[top], mat[below[0]] = mat[below[0]], mat[top]
        mat[top] = [x / mat[top][col] for x in mat[top]]
        for i in range(len(mat)):
            if i != top:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[top])]
        pivcols.append(col)
        top += 1
    return mat, pivcols


def rank_q(rows: QMatrix) -> int:
    """Rank over Q: the number of rows that survive the integer reducer."""
    return len(kernels.q_echelon(rows).pivots)


class SingularMatrixError(AlphadetError):
    """Exact linear solve hit a singular coefficient matrix."""


def solve_exact(A: QMatrix, B: QMatrix) -> QMatrix:
    """Solve A X = B exactly for square nonsingular A."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("coefficient matrix must be square")
    if len(B) != n:
        raise ValueError("right-hand side height disagrees")
    aug = [list(ra) + list(rb) for ra, rb in zip(A, B)]
    rref, pivcols = kernels.qm_rref(aug)
    if pivcols != list(range(n)):
        raise SingularMatrixError("singular coefficient matrix")
    return [row[n:] for row in rref[:n]]


def mat_inverse(A: QMatrix) -> QMatrix:
    return solve_exact(A, mat_identity(len(A)))


def mat_transpose(A: QMatrix) -> QMatrix:
    return [list(col) for col in zip(*A)] if A else []


def generator_matrix(rep: SeminormalRep, k: int) -> QMatrix:
    """Dense matrix of s_k = (k, k+1), 1 <= k <= size-1, read as m_k rho(s_k) / m_k."""
    mk, cols = rep.gen_cols[k - 1]
    f = rep.dim
    out = [[Fraction(0)] * f for _ in range(f)]
    for j, entries in enumerate(cols):
        for i, v in entries:
            out[i][j] = Fraction(v, mk)
    return out


def fraction_generator_columns(rep: SeminormalRep, k: int) -> list[list[tuple[int, Fraction]]]:
    """Young's seminormal columns of s_k in Fractions, straight from the tableaux.

    Column T is +T when k and k+1 share a row, -T when they share a column,
    and otherwise (1/ax) T + c T' with T' the tableau with k and k+1
    swapped, c = 1 for ax < 0 and c = 1 - 1/ax^2 for ax > 0.
    """
    index = {t: i for i, t in enumerate(rep.tableaux)}
    cols = []
    for t, tab in enumerate(rep.tableaux):
        pos = {x: (i, j) for i, row in enumerate(tab) for j, x in enumerate(row)}
        (i1, j1), (i2, j2) = pos[k], pos[k + 1]
        if i1 == i2:
            cols.append([(t, Fraction(1))])
        elif j1 == j2:
            cols.append([(t, Fraction(-1))])
        else:
            ax = (j2 - i2) - (j1 - i1)
            d = Fraction(1, ax)
            swapped = tuple(
                tuple(k + 1 if x == k else k if x == k + 1 else x for x in row) for row in tab
            )
            cols.append([(t, d), (index[swapped], Fraction(1) if ax < 0 else 1 - d * d)])
    return cols


def column_matrix(basis: tuple[InvariantColumn, ...], f: int) -> QMatrix:
    """The dense f x d matrix whose columns are the sparse invariant columns.

    f is the dimension of the module: tableaux outside every chain are zero
    rows, so the largest stored index does not give it.
    """
    B = [[Fraction(0)] * len(basis) for _ in range(f)]
    for c, col in enumerate(basis):
        for i, x in col.items():
            B[i][c] = x
    return B


class Poly(MultiPoly):
    """The oracle's sparse polynomial with arithmetic, equality by terms and
    the row-degree weight; unhashable, because its terms are mutable."""

    __slots__ = ()

    @classmethod
    def zero(cls, n: int) -> Poly:
        return cls(n)

    @classmethod
    def constant(cls, n: int, c) -> Poly:
        return cls(n, {(0,) * (n * n): c})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: Poly) -> Poly:
        out = dict(self.terms)
        for m, c in other.terms.items():
            acc = out.get(m)
            acc = c if acc is None else acc + c
            if acc:
                out[m] = acc
            elif m in out:
                del out[m]
        return Poly(self.n, out)

    def __sub__(self, other: Poly) -> Poly:
        return self + other.scale(-1)

    def scale(self, c) -> Poly:
        if not c:
            return Poly(self.n)
        return Poly(self.n, {m: x * c for m, x in self.terms.items()})

    def __mul__(self, other: Poly) -> Poly:
        out: dict[Monomial, object] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                c = c1 * c2
                acc = out.get(m)
                acc = c if acc is None else acc + c
                if acc:
                    out[m] = acc
                elif m in out:
                    del out[m]
        return Poly(self.n, out)

    def __pow__(self, e: int) -> Poly:
        out = Poly.constant(self.n, Fraction(1))
        for _ in range(e):
            out = out * self
        return out

    def weight(self) -> tuple[int, ...]:
        """Row-degree vector; requires all terms to share it."""
        ws = {_monomial_weight(m, self.n) for m in self.terms}
        if len(ws) != 1:
            raise ValueError("polynomial is not weight-homogeneous")
        return next(iter(ws))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.n == other.n
            and self.terms == other.terms
        )


def adet_symbolic(n: int) -> Poly:
    """The alpha-determinant of the generic matrix, coefficients in Q[alpha]."""
    out: dict[Monomial, PolyQ] = {}
    for imgs in itertools.permutations(range(1, n + 1)):
        sigma = Permutation(imgs)
        m = [0] * (n * n)
        for q in range(1, n + 1):
            m[_var(sigma(q), q, n)] += 1
        key = tuple(m)
        add = PolyQ.monomial(nu(sigma))
        acc = out.get(key)
        out[key] = add if acc is None else acc + add
    return Poly(n, out)


def eval_alpha(f: MultiPoly, a: Fraction) -> Poly:
    """f with every Q[alpha] coefficient evaluated at alpha = a."""
    return Poly(f.n, {m: (c(a) if isinstance(c, PolyQ) else c) for m, c in f.terms.items()})


@cache
def polarization_shifts(i: int, j: int, n: int) -> tuple[tuple[int, int], ...]:
    """(source, target) variable indices (x_js, x_is) of E_ij, s = 1..n."""
    return tuple((_var(j, s, n), _var(i, s, n)) for s in range(1, n + 1))


def polarize(terms: dict[Monomial, object], i: int, j: int, n: int) -> dict[Monomial, object]:
    """E_ij = sum_s x_is d/dx_js on {exponent tuple: coefficient}, zero terms
    dropped.

    Coefficients may be ints, rationals or polynomials in alpha: each is
    only multiplied by an exponent and added.
    """
    shifts = polarization_shifts(i, j, n)
    out: dict[Monomial, object] = {}
    for m, c in terms.items():
        for src, dst in shifts:
            e = m[src]
            if e:
                newm = list(m)
                newm[src] -= 1
                newm[dst] += 1
                key = tuple(newm)
                add = c * e
                acc = out.get(key)
                acc = add if acc is None else acc + add
                if acc:
                    out[key] = acc
                elif key in out:
                    del out[key]
    return out


def apply_E(f: MultiPoly, i: int, j: int) -> Poly:
    """Polarization operator E_ij f = sum_s x_is df/dx_js."""
    return Poly(f.n, polarize(f.terms, i, j, f.n))


class SteppedReducer(RowReducer):
    """The library's reducer with its one-call `add` taken in two steps:
    `reduce` a row against the pivots, then `insert` it when it is new."""

    def reduce(self, row: dict) -> dict:
        while row:
            lead = max(row)
            piv = self.pivots.get(lead)
            if piv is None:
                return _normalize_int(row, lead)
            row = _eliminate_int(row, piv, lead)
        return row

    def insert(self, row: dict) -> None:
        self.pivots[max(row)] = row


def tuple_closure(n: int, l: int, a: Fraction) -> list[dict[Monomial, int]]:
    """Reduced echelon rows, descending lead, of the cone part of the closure
    of adet(X)^l at alpha = a, with monomials kept as exponent tuples.

    The same PBW order as the library (simple raising operators, then the
    simple lowering ones whose image stays in the cone) and the library's
    reducer, on tuple keys and the tuple polarization above.
    """
    gen = eval_alpha(adet_symbolic(n), a) ** l
    scale = lcm(*(c.denominator for c in gen.terms.values()))
    reducer = SteppedReducer()

    def lowering(row):
        ops = []
        s = 0
        for j, x in enumerate(_monomial_weight(max(row), n)[:-1], 1):
            s += x
            if s > j * l:
                ops.append((j + 1, j))
        return ops

    def close(ops_of):
        queue = deque(reducer.pivots.values())
        while queue:
            row = queue.popleft()
            for i, j in ops_of(row):
                new = reducer.reduce(polarize(row, i, j, n))
                if new:
                    reducer.insert(new)
                    queue.append(new)

    reducer.insert(reducer.reduce({m: int(c * scale) for m, c in gen.terms.items()}))
    close(lambda row: [(i, i + 1) for i in range(1, n)])
    close(lowering)
    return reducer.back_reduce()


def tuple_hwv_multiplicity(basis: ModuleBasis, lam: Partition) -> int:
    """The highest-weight count of lam, with the raising images of each
    weight-lam row keyed by (i, exponent tuple)."""
    n = basis.n
    target = tuple(lam.part(i) for i in range(1, n + 1))
    rows = [g.terms for g, w in zip(basis.generators, basis.weights) if w == target]
    reducer = SteppedReducer()
    rank = 0
    for terms in rows:
        row = reducer.reduce(
            {(i, m): c for i in range(1, n) for m, c in polarize(terms, i, i + 1, n).items()}
        )
        if row:
            reducer.insert(row)
            rank += 1
    return len(rows) - rank


def _reduced(den: int, num: dict[int, int]) -> tuple[int, dict[int, int]]:
    g = gcd(den, *num.values())
    if g == 1:
        return den, num
    return den // g, {i: v // g for i, v in num.items()}


def _apply_transposition(gens, x: int, y: int, col):
    """rho((x y)) applied to one integer column, along the palindromic word
    s_x ... s_{y-2} s_{y-1} s_{y-2} ... s_x, reduced after every letter."""
    den, num = col
    for w in itertools.chain(range(x, y), range(y - 2, x - 1, -1)):
        m, gen = gens[w - 1]
        out: dict[int, int] = {}
        for r, v in num.items():
            for i, g in gen[r]:
                out[i] = out.get(i, 0) + g * v
        den, num = _reduced(den * m, {i: v for i, v in out.items() if v})
    return den, num


def _add(a, b):
    (da, na), (db, nb) = a, b
    den = lcm(da, db)
    sa, sb = den // da, den // db
    out = {i: v * sa for i, v in na.items()}
    for i, v in nb.items():
        out[i] = out.get(i, 0) + v * sb
    return _reduced(den, {i: v for i, v in out.items() if v})


def reduced_jucys_murphy(
    rep: SeminormalRep, basis: tuple[InvariantColumn, ...], factors
) -> list[list[dict[int, Fraction]]]:
    """The product of the factors 1 + alpha L_y, each given as (xs, y) with
    L_y = sum_{x in xs} (x y), on the invariant columns, in Fraction slices,
    each column reduced by its gcd after every letter of every
    transposition word and after every sum: T[e][c] is the alpha^e
    coefficient of column c."""
    gens = rep.gen_cols
    T = [[]]
    for col in basis:
        den = lcm(*(v.denominator for v in col.values()))
        T[0].append((den, {i: int(v * den) for i, v in col.items()}))
    for xs, y in factors:
        T.append([(1, {}) for _ in basis])
        for e in range(len(T) - 1, 0, -1):
            for c, col in enumerate(T[e - 1]):
                for x in xs:
                    T[e][c] = _add(T[e][c], _apply_transposition(gens, x, y, col))
    return [[{i: Fraction(v, den) for i, v in num.items()} for den, num in sl] for sl in T]


def dense_compression(
    rep: SeminormalRep,
    basis: tuple[InvariantColumn, ...],
    T: list[list[tuple[int, dict[int, int]]]],
) -> tuple[PolyMatrix, QMatrix]:
    """F = G^-1 B^T D T and G = B^T D B with every d x d matrix dense.

    T holds the integer slices of the operator applied to the invariant
    columns, T[e][c] = (den, numerators) the alpha^e coefficient of column
    c, and each entry is divided out here; D is the seminormal Gram
    diagonal.  G is inverted by `mat_inverse` and each entry of F sums
    g_rk A[k][c] over every k.
    """
    d = len(basis)
    D = rep.gram
    B = column_matrix(basis, rep.dim)
    nonzero = [[(r, x) for r, x in enumerate(row) if x] for row in B]
    A = [[[Fraction(0)] * len(T) for _ in range(d)] for _ in range(d)]
    for e, slice_e in enumerate(T):
        for c, (den, num) in enumerate(slice_e):
            for i, v in num.items():
                w = D[i] * Fraction(v, den)
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
