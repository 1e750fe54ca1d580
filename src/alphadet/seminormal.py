"""Young's seminormal representations of symmetric groups over Q.

The basis of the irreducible module for a shape lam is indexed by standard
tableaux, listed in a fixed canonical order (sorted by row-reading word).
For the adjacent transposition s_k = (k, k+1) and a tableau T the matrix
column of T is determined by where k and k+1 sit:

  same row     ->  +T
  same column  ->  -T
  otherwise    ->  (1/ax) T + c T'   with T' = T with k and k+1 swapped,

where ax is the axial distance (content of k+1 minus content of k in T) and
c = 1 if ax < 0, c = 1 - 1/ax^2 if ax > 0.  These matrices satisfy the
Coxeter relations exactly and are self-adjoint for the diagonal Gram form
computed here, which makes the group action orthogonal without leaving Q.

`rep_of` composes generator matrices along a bubble-sort word and realizes a
right action: rep_of(g o h) = rep_of(h) @ rep_of(g).  Because every operator
assembled downstream is a sum over a subgroup closed under inversion with
inversion-invariant coefficients, all derived quantities are independent of
this orientation choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from alphadet import kernels
from alphadet.errors import CapExceededError, SizeMismatchError
from alphadet.exact import QMatrix, nullspace_q
from alphadet.symgrp import Partition, Permutation, adjacent_word

DEFAULT_REP_CAP = 12

Tableau = tuple[tuple[int, ...], ...]

SparseCols = list[list[tuple[int, Fraction]]]


def standard_tableaux(lam: Partition) -> list[Tableau]:
    """All standard tableaux of shape lam, sorted by row-reading word."""
    nrows = lam.length

    def rec(shape: list[int], m: int) -> Iterator[list[list[int]]]:
        if m == 0:
            yield [[] for _ in range(nrows)]
            return
        for i in range(nrows):
            if shape[i] > 0 and (i == nrows - 1 or shape[i + 1] < shape[i]):
                shape[i] -= 1
                for partial in rec(shape, m - 1):
                    partial[i].append(m)
                    yield partial
                    partial[i].pop()
                shape[i] += 1

    out = []
    for grid in rec(list(lam.parts), lam.size):
        out.append(tuple(tuple(row) for row in grid))
    out.sort(key=lambda t: tuple(x for row in t for x in row))
    return out


def _positions(t: Tableau, m: int) -> list[tuple[int, int]]:
    """0-based (row, col) of each entry 1..m."""
    pos: list[tuple[int, int]] = [(-1, -1)] * (m + 1)
    for i, row in enumerate(t):
        for j, x in enumerate(row):
            pos[x] = (i, j)
    return pos


@dataclass(frozen=True)
class SeminormalRep:
    """Seminormal matrices for one shape: tableaux, generators, Gram weights."""

    shape: Partition
    tableaux: tuple[Tableau, ...]
    gen_cols: tuple[SparseCols, ...]
    gram: tuple[Fraction, ...]

    @property
    def size(self) -> int:
        return self.shape.size

    @property
    def dim(self) -> int:
        return len(self.tableaux)

    def generator_matrix(self, k: int) -> QMatrix:
        """Dense matrix of s_k = (k, k+1), 1 <= k <= size-1."""
        cols = self.gen_cols[k - 1]
        f = self.dim
        out = [[Fraction(0)] * f for _ in range(f)]
        for j, entries in enumerate(cols):
            for i, v in entries:
                out[i][j] = v
        return out


def build_rep(lam: Partition, max_size: int | None = None) -> SeminormalRep:
    """Construct the seminormal representation for the shape lam."""
    cap = DEFAULT_REP_CAP if max_size is None else max_size
    m = lam.size
    if m > cap:
        raise CapExceededError(
            f"|lam| = {m} exceeds the representation cap {cap}; pass max_size to override"
        )
    tabs = standard_tableaux(lam)
    index = {t: i for i, t in enumerate(tabs)}
    f = len(tabs)
    positions = [_positions(t, m) for t in tabs]

    gens: list[SparseCols] = []
    swap_edges: list[tuple[int, int, Fraction]] = []
    for k in range(1, m):
        cols: SparseCols = []
        for t, tab in enumerate(tabs):
            pos = positions[t]
            (i1, j1), (i2, j2) = pos[k], pos[k + 1]
            if i1 == i2:
                cols.append([(t, Fraction(1))])
                continue
            if j1 == j2:
                cols.append([(t, Fraction(-1))])
                continue
            ax = (j2 - i2) - (j1 - i1)
            d = Fraction(1, ax)
            swapped = tuple(
                tuple(k + 1 if x == k else k if x == k + 1 else x for x in row)
                for row in tab
            )
            t2 = index[swapped]
            if ax < 0:
                cols.append([(t, d), (t2, Fraction(1))])
                swap_edges.append((t, t2, 1 - d * d))
            else:
                cols.append([(t, d), (t2, 1 - d * d)])
        gens.append(cols)

    # Gram weights from gamma_{T'} = (1 - 1/ax^2) gamma_T along swap edges;
    # the swap graph is connected, and revisits must agree.
    gram: list[Fraction | None] = [None] * f
    if f:
        gram[0] = Fraction(1)
        frontier = [0]
        adj: dict[int, list[tuple[int, Fraction]]] = {}
        for t, t2, factor in swap_edges:
            adj.setdefault(t, []).append((t2, factor))
            adj.setdefault(t2, []).append((t, 1 / factor))
        while frontier:
            t = frontier.pop()
            for t2, factor in adj.get(t, ()):
                val = gram[t] * factor
                if gram[t2] is None:
                    gram[t2] = val
                    frontier.append(t2)
                elif gram[t2] != val:
                    raise AssertionError("inconsistent Gram weights")
    assert all(g is not None and g > 0 for g in gram)
    return SeminormalRep(lam, tuple(tabs), tuple(gens), tuple(gram))


def rep_of(rep: SeminormalRep, g: Permutation) -> QMatrix:
    """Matrix of g in the seminormal basis (right-action orientation).

    Composes the sparse generator matrices along a bubble-sort word of g;
    rep_of(g o h) equals rep_of(h) @ rep_of(g).
    """
    if g.size != rep.size:
        raise SizeMismatchError(f"permutation size {g.size} != {rep.size}")
    f = rep.dim
    cols: list[dict[int, Fraction]] = [{t: Fraction(1)} for t in range(f)]
    for w in reversed(adjacent_word(g)):
        gen = rep.gen_cols[w - 1]
        newcols: list[dict[int, Fraction]] = []
        for j in range(f):
            acc: dict[int, Fraction] = {}
            for i, v in gen[j]:
                for r, x in cols[i].items():
                    val = acc.get(r)
                    val = v * x if val is None else val + v * x
                    if val:
                        acc[r] = val
                    elif r in acc:
                        del acc[r]
            newcols.append(acc)
        cols = newcols
    out = [[Fraction(0)] * f for _ in range(f)]
    for j, col in enumerate(cols):
        for i, v in col.items():
            out[i][j] = v
    return out


@dataclass(frozen=True)
class InvariantBasis:
    """Basis of the row-group fixed subspace inside one seminormal module."""

    shape: Partition
    n: int
    l: int
    columns: tuple[tuple[Fraction, ...], ...]  # dim f rows, d columns

    @property
    def d(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def column_matrix(self) -> QMatrix:
        return [list(row) for row in self.columns]


def invariant_basis(rep: SeminormalRep, n: int, l: int) -> InvariantBasis:
    """Fixed vectors of the row group K, as columns of an f x d matrix.

    K = S_l x ... x S_l permutes each of the n blocks {(i-1)l+1 .. il} of
    the block tableau within itself.  The seminormal basis is adapted to the chain S_1 < S_2 < ...,
    so restricted to S_l on {1..l} it splits by the subtableau holding
    1..l, and the S_l-fixed vectors are exactly the span of the e_T whose
    first row starts 1..l.  That coordinate subspace seeds the basis with
    no linear algebra.  Blocks 2..n commute with block 1 and are cut one
    generator at a time: intersect with ker(rho(s_t) - 1) for each
    adjacent transposition s_t inside the block, keeping only the nonzero
    rows of the basis.  The dimension d is the rectangular Kostka number.

    The d columns are returned in reduced column-echelon form (the reduced
    row echelon form of the transpose), so the basis depends only on the
    fixed space, not on the order of the eliminations.
    """
    if rep.size != n * l:
        raise SizeMismatchError(f"|lam| = {rep.size} is not n*l = {n * l}")
    f = rep.dim
    head = tuple(range(1, l + 1))
    seed = [t for t, tab in enumerate(rep.tableaux) if tab[0][:l] == head]
    # Row k of the f x b basis matrix, for the rows that are not zero.
    rows: dict[int, list[Fraction]] = {
        k: [Fraction(int(k == c)) for c in seed] for k in seed
    }
    b = len(seed)
    for t in ((i - 1) * l + j for i in range(2, n + 1) for j in range(1, l)):
        if b == 0:
            break
        gen = rep.gen_cols[t - 1]
        # C = (rho(s_t) - 1) @ basis, accumulated over the nonzero rows.
        C: dict[int, list[Fraction]] = {}
        for k, rowk in rows.items():
            for idx, v in gen[k]:
                Ci = C.setdefault(idx, [Fraction(0)] * b)
                for c, x in enumerate(rowk):
                    if x:
                        Ci[c] += v * x
            Ck = C.setdefault(k, [Fraction(0)] * b)
            for c, x in enumerate(rowk):
                if x:
                    Ck[c] -= x
        coeffs = nullspace_q([Ci for Ci in C.values() if any(Ci)], b)
        # basis <- basis @ N, with N columns from the nullspace.
        b = len(coeffs)
        newrows = {}
        for k, rowk in rows.items():
            newk = [sum(x * vec[c] for c, x in enumerate(rowk) if x) for vec in coeffs]
            if any(newk):
                newrows[k] = [Fraction(x) for x in newk]
        rows = newrows
    support = sorted(rows)
    columns = [[Fraction(0)] * b for _ in range(f)]
    if b:
        echelon, _ = kernels.qm_rref([[rows[k][c] for k in support] for c in range(b)])
        for c, vec in enumerate(echelon):
            for k, x in zip(support, vec):
                columns[k][c] = x
    return InvariantBasis(rep.shape, n, l, tuple(tuple(row) for row in columns))
