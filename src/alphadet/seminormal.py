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
The Gram weights are carried along the swap edges T -- T' as integer
ratios, gamma_{T'}/gamma_T = (ax^2 - 1)/ax^2 for ax < 0, and every edge is
checked for consistency by cross-multiplication; a closed form in the
contents is the tests' second route to them.  Only stored values are Fractions.

Each generator is stored once, as the integer matrix m_k rho(s_k) with
m_k the lcm of ax^2 over the pairs with ax > 0 and of |ax| over the pairs
with ax < 0 (|ax| = 1 is exactly a shared row or column).  Its entries are
+m_k and -m_k, m_k/ax, and m_k or m_k - m_k/ax^2, all integers, so the
construction does no rational arithmetic and its consumers stay
fraction-free until they divide by m_k.

`rep_of` composes generator matrices along a bubble-sort word and realizes a
right action: rep_of(g o h) = rep_of(h) @ rep_of(g).  Because every operator
assembled downstream is a sum over a subgroup closed under inversion with
inversion-invariant coefficients, all derived quantities are independent of
this orientation choice.  The relabeling rho(w) in `transition` is not such
a sum: it applies the letters of w's bubble-sort word in the order the sort
finds them, which is rep_of(w^-1) in this orientation.

`invariant_basis` returns the fixed vectors of the row group as d sparse
columns {tableau index: value}, one per chain of horizontal strips.  Their
supports are disjoint, so together they hold at most f entries, and no
f x d table is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from alphadet.errors import SizeMismatchError, check_cap
from alphadet.exact import QMatrix
from alphadet.exact import nullspace_q  # noqa: F401  (perfbench traces seminormal.nullspace_q)
from alphadet.symgrp import Partition, Permutation, adjacent_word

DEFAULT_REP_CAP = 12

Tableau = tuple[tuple[int, ...], ...]

# One generator as (m_k, sparse columns of the integer matrix m_k rho(s_k)).
IntGenerator = tuple[int, list[list[tuple[int, int]]]]

# One K-fixed vector as {tableau index: value}, 1 at its first tableau.
InvariantColumn = dict[int, Fraction]


def standard_tableaux(lam: Partition) -> list[Tableau]:
    """All standard tableaux of shape lam, sorted by row-reading word."""
    parts, m = lam.parts, lam.size
    rows: list[list[int]] = [[] for _ in parts]
    out: list[Tableau] = []

    def fill(x: int) -> None:
        # Put x at the end of each row that has room below a longer row.
        if x > m:
            out.append(tuple(map(tuple, rows)))
            return
        for i, row in enumerate(rows):
            if len(row) < parts[i] and (i == 0 or len(rows[i - 1]) > len(row)):
                row.append(x)
                fill(x + 1)
                row.pop()

    fill(1)
    out.sort(key=lambda t: sum(t, ()))
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
    """Seminormal matrices for one shape: tableaux, generators, Gram weights.

    gen_cols[k-1] is the generator s_k as (m_k, columns of the integer
    matrix m_k rho(s_k)); column T lists its nonzero (row, int) entries.
    contents[T][y] is the content col - row of the entry y in tableau T,
    for y = 1..m, with contents[T][0] = 0 so that y indexes it directly:
    m + 1 ints per tableau.  It is the eigenvalue of the Jucys-Murphy
    element L_y = sum_{x<y} (x y) on the basis vector of T.  rows[T] is
    the row word of T: rows[T][x-1] is the 0-based row of the entry x, so
    its column is contents[T][x] + rows[T][x-1].
    """

    shape: Partition
    tableaux: tuple[Tableau, ...]
    gen_cols: tuple[IntGenerator, ...]
    contents: tuple[list[int], ...]
    rows: tuple[list[int], ...]
    gram: tuple[Fraction, ...]

    @property
    def size(self) -> int:
        return self.shape.size

    @property
    def dim(self) -> int:
        return len(self.tableaux)


def build_rep(lam: Partition, max_size: int | None = None) -> SeminormalRep:
    """Construct the seminormal representation for the shape lam."""
    m = lam.size
    check_cap("|lam| =", m, "representation", DEFAULT_REP_CAP, max_size)
    tabs = standard_tableaux(lam)
    f = len(tabs)
    # A standard tableau is fixed by its row word, the row of each entry
    # 1..m, so swapping k and k+1 swaps two letters of the word.
    words: list[list[int]] = []
    contents: list[list[int]] = []
    for tab in tabs:
        pos = _positions(tab, m)
        words.append([i for i, _ in pos[1:]])
        contents.append([j - i for i, j in pos])
    index = {tuple(w): t for t, w in enumerate(words)}

    gens: list[IntGenerator] = []
    # edges[T] lists (T', num, den) with gamma_{T'}/gamma_T = num/den.
    edges: list[list[tuple[int, int, int]]] = [[] for _ in range(f)]
    for k in range(1, m):
        # ax = 1 is a shared row and ax = -1 a shared column.
        axes = [c[k + 1] - c[k] for c in contents]
        mk = lcm(*(ax * ax if ax > 0 else -ax for ax in axes))
        cols: list[list[tuple[int, int]]] = []
        for t, ax in enumerate(axes):
            if ax == 1:
                cols.append([(t, mk)])
            elif ax == -1:
                cols.append([(t, -mk)])
            else:
                w = words[t]
                t2 = index[(*w[: k - 1], w[k], w[k - 1], *w[k + 1 :])]
                if ax < 0:
                    cols.append([(t, mk // ax), (t2, mk)])
                    edges[t].append((t2, ax * ax - 1, ax * ax))
                else:
                    cols.append([(t, mk // ax), (t2, mk - mk // (ax * ax))])
                    edges[t].append((t2, ax * ax, ax * ax - 1))
        gens.append((mk, cols))

    # Gram weights from gamma_{T'} = (1 - 1/ax^2) gamma_T for ax < 0, as reduced
    # integer (num, den) pairs from gamma = 1 at the first tableau (every shape
    # has one); the swap graph is connected, and every revisit must agree.
    ratio: list[tuple[int, int] | None] = [None] * f
    ratio[0] = (1, 1)
    frontier = [0]
    while frontier:
        t = frontier.pop()
        num, den = ratio[t]
        for t2, a, b in edges[t]:
            if ratio[t2] is None:
                num2, den2 = num * a, den * b
                g = gcd(num2, den2)
                ratio[t2] = (num2 // g, den2 // g)
                frontier.append(t2)
            else:
                num2, den2 = ratio[t2]
                if num2 * den * b != num * a * den2:
                    raise AssertionError("inconsistent Gram weights")
    assert None not in ratio
    gram = [Fraction(num, den) for num, den in ratio]
    return SeminormalRep(lam, tuple(tabs), tuple(gens), tuple(contents), tuple(words), tuple(gram))


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
        mk, gen = rep.gen_cols[w - 1]
        newcols: list[dict[int, Fraction]] = []
        for j in range(f):
            acc: dict[int, Fraction] = {}
            for i, num in gen[j]:
                v = Fraction(num, mk)
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


def invariant_basis(rep: SeminormalRep, n: int, l: int) -> tuple[InvariantColumn, ...]:
    """Fixed vectors of the row group K, as d sparse columns.

    K = S_l x ... x S_l permutes each block {(i-1)l+1 .. il} of the block
    tableau.  The seminormal basis is adapted to S_1 < S_2 < ..., so the
    module splits Gram-orthogonally by the chain of shapes of T restricted
    to 1..il, that is, by the rows each block occupies.  Each piece is
    K-stable and the tensor product of the blocks' skew modules, and a skew
    module of S_l has a fixed line exactly when its block is a horizontal
    strip (Pieri).  So each chain of horizontal strips gives one fixed
    vector, their supports are disjoint, and d is the Kostka number.

    For k, k+1 in one block with axial distance ax > 0, a fixed vector has
    v(T') = (1 - 1/ax) v(T), T' = T with k and k+1 swapped.  With content
    c = col - row, v(T) is the product over blocks, and over x < y in a
    block with c(x) > c(y), of 1 - 1/(c(x) - c(y)); it is never 0, since
    strip cells whose contents differ by 1 are neighbours in a row.  Each
    column is divided by its value at its first tableau and the columns
    are ordered by that tableau: the reduced column-echelon form.  Only
    the tableaux of a chain are stored, at most f entries in all.
    """
    if rep.size != n * l:
        raise SizeMismatchError(f"|lam| = {rep.size} is not n*l = {n * l}")
    m = rep.size
    # Each chain's {tableau: (num, den) of v(T)}, in order of its first tableau.
    chains: dict[tuple[tuple[int, ...], ...], dict[int, tuple[int, int]]] = {}
    for t, (rows, contents) in enumerate(zip(rep.rows, rep.contents)):
        chain, num, den = [], 1, 1
        for start in range(0, m, l):
            block = rows[start : start + l]
            cs = contents[start + 1 : start + l + 1]
            if len({c + i for c, i in zip(cs, block)}) < l:
                break
            chain.append(tuple(sorted(block)))
            for a, cx in enumerate(cs):
                for cy in cs[a + 1 :]:
                    if cx > cy:
                        num *= cx - cy - 1
                        den *= cx - cy
        else:
            chains.setdefault(tuple(chain), {})[t] = (num, den)
    columns = []
    for col in chains.values():
        p, q = next(iter(col.values()))  # v at the first tableau
        columns.append({t: Fraction(num * q, den * p) for t, (num, den) in col.items()})
    return tuple(columns)
