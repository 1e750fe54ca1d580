"""Reference objects that only the tests use.

Nothing under `src/` reaches these names.  Each is a textbook definition the
tests check the library's results against: the block tableau of shape (l^n)
with its row and column groups, the centralizer order z_mu of a class, the
Weyl dimension of an irreducible gl_n module, the column-wise splitting
theta of H, the sum D over H that equals a power of the alpha-determinant,
dense forms of the library's sparse matrices, the polarization operator
E_ij on one polynomial, the dense compression G^-1 B^T D T of the
transition slices, Young's seminormal generators built in Fractions, and
exact solves and inverses over Q.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod

from alphadet import kernels
from alphadet.errors import AlphadetError, SizeMismatchError
from alphadet.exact import PolyMatrix, PolyQ, QMatrix, mat_identity
from alphadet.oracle import Monomial, MultiPoly, _polarize, _var
from alphadet.seminormal import InvariantBasis, SeminormalRep
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


def D_of(n: int, l: int) -> MultiPoly:
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
    return MultiPoly(n, acc)


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


def column_matrix(basis: InvariantBasis) -> QMatrix:
    """The f x d matrix whose columns are the invariant basis vectors."""
    return [list(row) for row in basis.columns]


def apply_E(f: MultiPoly, i: int, j: int) -> MultiPoly:
    """Polarization operator E_ij f = sum_s x_is df/dx_js."""
    return MultiPoly(f.n, _polarize(f.terms, i, j, f.n))


def dense_compression(
    rep: SeminormalRep, basis: InvariantBasis, T: list[list[dict[int, Fraction]]]
) -> tuple[PolyMatrix, QMatrix]:
    """F = G^-1 B^T D T and G = B^T D B with every d x d matrix dense.

    T holds the slices of the operator applied to the invariant columns,
    T[e][c] the alpha^e coefficient of column c; D is the seminormal Gram
    diagonal.  G is inverted by `mat_inverse` and each entry of F sums
    g_rk A[k][c] over every k.
    """
    d = basis.d
    D = rep.gram
    nonzero = [[(r, x) for r, x in enumerate(row) if x] for row in basis.columns]
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
