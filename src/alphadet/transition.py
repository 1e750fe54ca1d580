"""Transition matrices of the averaged column-group operator.

For a shape lam of size n*l, the operator sum_{h in H} alpha^{nu(h)} h acts
on the seminormal module of lam; compressing it to the row-group invariant
subspace (dimension d, the rectangular Kostka number) with the Gram-orthogonal
projection yields a d x d matrix F over Q[alpha].  Its generic rank is the
multiplicity of the irreducible gl_n module with highest weight lam inside
the cyclic module generated by the l-th power of the alpha-determinant, and
its rank at a rational point is the specialized multiplicity.

The operator is assembled in factored form, on the d invariant columns
only: no f x f matrix is built.  The block tableau is filled row by row,
so column p of H holds the positions p + (q-1) l, q = 1..n, and K is the
row group of the blocks {(q-1) l + 1 .. q l}.  The assembly works in
column-major labels instead: w maps p + (q-1) l to (p-1) n + q, so
H' = w H w^-1 is the column group whose column p holds s+1..s+n,
s = (p-1) n.  rho is orthogonal for the seminormal Gram form D, so

    B^T D (sum_{h in H} alpha^nu(h) h) B = B'^T D (sum_{h in H'} alpha^nu(h) h) B'

with B' = rho(w) B: B under the C(n,2) C(l,2) letters of w's bubble-sort
word, applied once to each column in the order the sort finds them (in
the right action of `seminormal.rep_of`, rep_of(w^-1)), with one gcd per
column.  At n = 1 or l = 1, w is the identity and B' = B.  H' is the
internal direct product of its l column subgroups, each a copy of S_n,
and nu is additive across them.  Within column p the Jucys-Murphy
elements L_k = sum_{i<k} (s+i s+k) give

    sum_{sigma in S_n} alpha^nu(sigma) sigma = prod_{k=2..n} (1 + alpha L_k),

since every sigma is uniquely a product t_2 t_3 ... t_n where t_k is the
identity or one transposition (s+i s+k) with i < k, and each transposition
adds one to nu.  So the operator is the product of the factors
(1 + alpha L_k) over every column p and k = 2..n, all of which commute.

Column 1 holds 1..n, so its factors carry the Jucys-Murphy elements
L_k = sum_{i<k} (i k) of S_k < S_nl, and Young's seminormal basis is
their eigenbasis: L_k e_T = c_T(k) e_T, with c_T(k) the content of k in
T (Okounkov-Vershik).  Their product is the diagonal weight
P e_T = p_T(alpha) e_T, p_T = prod_{k=2..n} (1 + alpha c_T(k)), an integer
polynomial fixed by the shape that 1..n fill in T, so a shape lam has at
most p(n) distinct ones (`_content_weights`).  Column 1's factors are
never applied to a column: P enters the compression as a weight.

The factors of columns 2..l, (n-1)(l-1) of them and none at l = 1, are
applied to B'.  Its image is held as integer slices
T = sum_e alpha^e T_e: each column of T_e is one positive denominator
over sparse integer numerators, and each factor maps T_e to
T_e + L_k T_{e-1}.  A transposition (x y) is applied straight to the
sparse columns through the seminormal generators, along its palindromic
word s_x ... s_{y-1} ... s_x of 2(y-x) - 1 letters, so the factor with k
transpositions has k^2 letters at every l, where the row-major labels
need k(k+1) l - k.  The rep stores each generator as the integer matrix
m_k rho(s_k), so a letter multiplies the numerators by integers and the
denominator by m_k.  A factor's images are summed over one lcm and
reduced by one gcd, so the slices are in lowest terms between factors.

The compression meets the factors in the middle.  A transposition is an
involution and rho(t)^T D = D rho(t): every factor is self-adjoint for
D.  As they also commute, B'^T D P (prod of the word factors) B' =
(Y B')^T D P (Z B') for any split of the word factors into two groups Y
and Z.  The factors, costliest first, are dealt alternately into Y and
Z, and each group is applied to B' on its own, so each carries about half
of the (n-1)(l-1) + 1 slices.  The split is priced in passes over a
column: a factor makes one per letter, one per word to add its image in
and one to reduce the sum, k^2 + k + 1 for k transpositions, on each
slice it meets, and the j-th factor applied meets j slices.  The
compression makes o (|Y|+1)(|Z|+1) passes, where o = nnz(B') / f is the
mean number of columns of B' on a tableau: each entry of a Z slice meets
the entries of the Y slices on its tableau.  B's columns have disjoint
supports, but rho(w) mixes them: a column of B' fills from a quarter to
all of the f tableaux on the shapes measured, so o, counted once B' is
built, runs up to d.  The factors are split iff the two groups' passes
plus their compression are fewer than the passes of applying every
factor in turn plus its compression, o (|F|+1) for |F| factors.  rho(w)'s
letters are paid once per column either way.  This is decided before any
factor is applied.  Otherwise Y is empty, Y B' = B', and the same
compression runs with one slice on the left.  One factor prices the same
either way and none gives nothing to split, so no shape with l = 1 or at
(2,2) splits; every shape with n = 2 and l >= 3, every shape of (3,3),
(3,4) and (4,2), and 21 of the 30 of (5,2) split, and large o, such as
(7,3,2) at (6,2), where d = 115 and o = 30, stays unsplit.

The slices are compressed to F = A / diag(G), A = (Y B')^T D P (Z B'),
with A sparse.  B is held as its d sparse columns
(`seminormal.invariant_basis`), and they have disjoint supports: each
tableau i belongs to at most one column r.  So G = B^T D B = B'^T D B' is
diagonal and is read from B as its d diagonal entries G[r], and
F[r][c] = A[r][c] / G[r]: no matrix is inverted, and no f x d or d x d
table is built.  G[r] is summed in integers from B's integer column r,
and each row's scale L_r G[r] is kept as a reduced integer pair: the d
entries of G are the only Fractions the compression makes.  Row r of
(Y B')^T D is kept as integer weights over one lcm L_r, and each tableau
lists the rows that carry it, so a column of Z B' meets only the rows
whose support it shares.  Each entry of A is held as
one integer sum per power of alpha and per distinct content weight; once
per nonzero entry, each part is multiplied by its weight polynomial and
the parts are added.  Each row of F is then put over one denominator and
reduced by one gcd, and stored as it is, integer coefficients over Z[alpha]
(`exact.PolyMatrix`), which the ranks read directly.  At l = 1, column c is
{c: 1}, G = D and every tableau has the one weight content_poly(lam), so
F is that polynomial times I: d stored entries.

This is the only assembly in the library.  The tests carry the direct sum
of alpha^nu(h) rho(h) over every h in H as an independent second route to
the same matrix in the same (canonical) basis, the row-major factors with
rho(w) from `rep_of` as a second route to every slice, column 1's factors
applied by their words to every e_T as a second route to the content
weights, and a dense compression of the slices of all (n-1) l factors,
column 1's by their words, as a second route to F and G, which every
split must match.

`trace_poly` computes the trace of F by a second, independent route: zonal
spherical values averaged over K, summed over H with alpha^nu weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm, prod
from operator import mul

from alphadet.errors import EmptyInvariantSpaceError, SizeMismatchError
from alphadet.exact import PolyMatrix, PolyQ, generic_rank, rank_at
from alphadet.seminormal import (
    IntGenerator,
    InvariantColumn,
    SeminormalRep,
    build_rep,
    invariant_basis,
)
from alphadet.seminormal import rep_of  # noqa: F401  (perfbench traces transition.rep_of)
from alphadet.symgrp import (
    Partition,
    Permutation,
    _coset_average,
    adjacent_word,
    enumerate_H,
    enumerate_K,
    nu,
)


@dataclass(frozen=True)
class TransitionMatrix:
    """The compressed operator matrix for one shape, with the diagonal of
    its Gram form."""

    shape: Partition
    n: int
    l: int
    d: int
    entries: PolyMatrix
    trace: PolyQ
    gram: tuple[Fraction, ...]

    def generic_rank(self) -> int:
        """Multiplicity at generic alpha: rank over the function field Q(a)."""
        return generic_rank(self.entries)

    def rank_at(self, a: Fraction | int) -> int:
        """Multiplicity at the specialization alpha = a."""
        return rank_at(self.entries, a)


# A sparse rational column as one positive denominator over integer numerators.
IntColumn = tuple[int, dict[int, int]]

Slices = list[list[IntColumn]]

# The factor 1 + alpha L_y, L_y = sum_{x in xs} (x y): xs are the positions
# above y in one column of H', in column-major labels.
Factor = tuple[tuple[int, ...], int]


def _relabeling(n: int, l: int) -> list[int]:
    """The letters of rho(w), w the relabeling p + (q-1) l -> (p-1) n + q
    of the block tableau's entries, in the order bubble sort finds them:
    C(n,2) C(l,2) letters, none at n = 1 or l = 1."""
    w = Permutation([(x % l) * n + x // l + 1 for x in range(n * l)])
    return adjacent_word(w)[::-1]


def _cost(xs: tuple[int, ...], y: int) -> int:
    """Passes over a column that a factor makes per slice: one per letter,
    one per word to add its image in, and one to reduce the sum.  (x y) is
    a word of 2(y-x) - 1 letters, so k transpositions of one column make
    k^2 + k + 1 passes."""
    return sum(2 * (y - x) for x in xs) + 1


def _factors(n: int, l: int) -> list[Factor]:
    """The (n-1)(l-1) factors of columns 2..l of H', costliest first:
    column p holds s+1..s+n, s = (p-1) n, and its factor for s+k+1 has the k
    transpositions (s+i s+k+1), i <= k, k^2 letters in all.  Column 1's
    factors are the content weights of `_content_weights`."""
    factors = [
        (tuple(range(s + 1, s + k + 1)), s + k + 1)
        for s in range(n, n * l, n)
        for k in range(n - 1, 0, -1)
    ]
    return sorted(factors, key=lambda f: -_cost(*f))


def _content_weights(rep: SeminormalRep, n: int) -> tuple[list[int], list[list[int]]]:
    """Column 1's factors on Young's basis: prod_{k=2..n} (1 + alpha L_k)
    maps e_T to p_T(alpha) e_T, p_T = prod_k (1 + alpha c_T(k)), which
    depends only on the shape that 1..n fill in T.  Returns j with
    p_T = polys[j[T]], and the distinct p_T as integer coefficient lists of
    length n."""
    index: dict[tuple[int, ...], int] = {}
    polys: list[list[int]] = []
    js = []
    for c in rep.contents:
        key = tuple(sorted(c[2 : n + 1]))
        if key not in index:
            index[key] = len(polys)
            p = [1]
            for x in key:
                p = [a + x * b for a, b in zip(p + [0], [0] + p)]
            polys.append(p)
        js.append(index[key])
    return js, polys


def _passes(costs: list[int]) -> int:
    """Passes per column of applying factors with these costs in turn: the
    j-th factor meets j slices."""
    return sum(map(mul, costs, range(1, len(costs) + 1)))


def _split(n: int, l: int, f: int, entries: int) -> tuple[list[Factor], list[Factor]]:
    """The word factors of columns 2..l dealt into Y, applied to B' on the
    left of the compression, and Z, applied on the right, for a B' with
    `entries` nonzeros over f tableaux.

    The factors, costliest first, are dealt alternately into Y and Z iff
    that takes fewer passes per column than applying them all in turn;
    otherwise Y is empty.  Each side pays its factors' passes (`_passes`)
    and the compression: each entry of a Z slice meets the entries of the
    Y slices on its tableau, o = entries / f per slice on average, so
    the compression makes o (|Y|+1)(|Z|+1) passes.  rho(w)'s letters are
    paid once per column either way.
    """
    factors = _factors(n, l)
    costs = [_cost(*fc) for fc in factors]
    Y, Z = costs[::2], costs[1::2]
    # Both sides times f, so the comparison stays in integers.
    split = f * (_passes(Y) + _passes(Z)) + entries * (len(Y) + 1) * (len(Z) + 1)
    if split < f * _passes(costs) + entries * (len(costs) + 1):
        return factors[::2], factors[1::2]
    return [], factors


def _integer_column(col: InvariantColumn) -> IntColumn:
    """An invariant column over the lcm of its denominators."""
    den = lcm(*(v.denominator for v in col.values()))
    return den, {i: v.numerator * (den // v.denominator) for i, v in col.items()}


def _word(word: list[IntGenerator], vec: dict[int, int]) -> dict[int, int]:
    """The integer generators of a word applied to sparse numerators, first
    letter first; the image is scaled by the product of the letters' m_k."""
    for _, gen in word:
        out: dict[int, int] = {}
        for r, v in vec.items():
            for i, g in gen[r]:
                if i in out:
                    out[i] += g * v
                else:
                    out[i] = g * v
        vec = out
    return vec


def _relabel(rep: SeminormalRep, B: list[IntColumn], letters: list[int]) -> list[IntColumn]:
    """B' = rho(w) B from the letters of `_relabeling`, with no reduction
    between letters and one gcd per column."""
    word = [rep.gen_cols[w - 1] for w in letters]
    S = prod(m for m, _ in word)
    out = []
    for den, num in B:
        vec = {i: v for i, v in _word(word, num).items() if v}
        g = gcd(den * S, *vec.values())
        out.append((den * S // g, {i: v // g for i, v in vec.items()}))
    return out


def _jucys_murphy(rep: SeminormalRep, B: list[IntColumn], factors: list[Factor]) -> Slices:
    """The product of the factors on the invariant columns, by degree.

    Returns T with T[e][c] the alpha^e coefficient of column c, as one
    denominator over sparse integer numerators in lowest terms; with no
    factors, T[0] is B.  Each factor 1 + alpha L_y maps T_e to
    T_e + L_y T_{e-1}, so it meets one more slice than the factor before
    it, and the costliest should go first.  The generators come from the
    rep as integer matrices m_w rho(s_w), so a transposition's word
    multiplies the numerators by integers and its scale by each letter's
    m_w, with no reduction between letters.  The images and the old T_e
    are summed over one lcm and reduced by one gcd per (factor, slice,
    column).
    """
    gens = rep.gen_cols
    T: Slices = [B]
    for xs, y in factors:
        # (x y) is the palindromic word s_x ... s_{y-2} s_{y-1} s_{y-2} ... s_x;
        # each word's image is scaled up to the factor's common scale S.
        words = [[gens[w - 1] for w in chain(range(x, y), range(y - 2, x - 1, -1))] for x in xs]
        scales = [prod(m for m, _ in word) for word in words]
        S = lcm(*scales)
        lifts = [S // s for s in scales]
        T.append([(1, {}) for _ in B])
        for e in range(len(T) - 1, 0, -1):
            for c, (den, num) in enumerate(T[e - 1]):
                old_den, old = T[e][c]
                L = lcm(old_den, den * S)
                acc = {i: v * (L // old_den) for i, v in old.items()}
                s = L // (den * S)
                for word, lift in zip(words, lifts):
                    t = s * lift
                    for i, v in _word(word, num).items():
                        if i in acc:
                            acc[i] += v * t
                        else:
                            acc[i] = v * t
                acc = {i: v for i, v in acc.items() if v}
                g = gcd(L, *acc.values())
                T[e][c] = (L // g, {i: v // g for i, v in acc.items()})
    return T


def _compress(
    rep: SeminormalRep, n: int, B: list[IntColumn], TY: Slices, TZ: Slices
) -> tuple[PolyMatrix, list[Fraction]]:
    """F = A / diag(G), A = (Y B')^T D P (Z B'), and the diagonal of
    G = B^T D B = B'^T D B', from the integer invariant columns B, before
    rho(w), and the slices TY of Y B' and TZ of Z B', where P is the
    diagonal of column 1's content weights p_T (`_content_weights`).

    G[r] = sum_i v_i^2 D_i / den^2 over column r = (den, {i: v_i}) is
    summed in integers over the lcm of the D_i's denominators and made the
    one Fraction per entry that the caller keeps.  Row r of (Y B')^T D is
    kept as integer weights over one lcm L_r, and each tableau i lists the
    (row, slot, weight) triples it carries, the slot e1 + E j_i holding Y's
    power e1 of alpha under i's weight polynomial j_i.  A column of Z B'
    then meets only the rows whose support it shares.  Column c's Z slices
    are lifted to the lcm L_c of their denominators, so each entry of A is
    E integer sums per distinct weight; each part is convolved with its
    weight once per nonzero (r, c), giving F[r][c] as integers cs over
    L_c q, q = L_r G[r] a reduced integer pair.  Row r of F is then put
    over q's numerator times the lcm M of its columns' L_c, and reduced by
    one gcd: no other Fraction and no PolyQ is built.
    """
    if len(set().union(*(num for _, num in B))) != sum(len(num) for _, num in B):
        raise AssertionError("two invariant columns share a tableau")
    Dn = [x.numerator for x in rep.gram]
    Dd = [x.denominator for x in rep.gram]
    G = []
    for den, num in B:
        LD = lcm(*(Dd[i] for i in num))
        G.append(Fraction(sum(v * v * Dn[i] * (LD // Dd[i]) for i, v in num.items()), LD * den * den))
    js, polys = _content_weights(rep, n)
    d, E = len(B), len(TY) + len(TZ) - 1
    owners: list[list[tuple[int, int, int]]] = [[] for _ in Dn]
    scale: list[tuple[int, int]] = []
    for r, g_r in enumerate(G):
        cols = [sl[r] for sl in TY]
        L = lcm(*(den * lcm(*(Dd[i] for i in num)) for den, num in cols))
        for e1, (den, num) in enumerate(cols):
            for i, v in num.items():
                owners[i].append((r, e1 + E * js[i], Dn[i] * v * (L // (den * Dd[i]))))
        g = gcd(L, g_r.denominator)
        scale.append((L // g * g_r.numerator, g_r.denominator // g))
    col_lcm = [lcm(*(sl[c][0] for sl in TZ)) for c in range(d)]
    # A[c][r][e1 + e2 + E j] sums (Y_e1 B)[:, r]^T D (Z_e2 B)[:, c] over the
    # tableaux of weight polys[j], times L_r L_c, for the rows r that a
    # nonzero entry reaches.
    A: list[dict[int, list[int]]] = [{} for _ in B]
    size = E * len(polys)
    for e2, slice_e in enumerate(TZ):
        for c, (den, num) in enumerate(slice_e):
            Ac = A[c]
            lift = col_lcm[c] // den
            for i, v in num.items():
                v *= lift
                for r, slot, w in owners[i]:
                    if r not in Ac:
                        Ac[r] = [0] * size
                    Ac[r][slot + e2] += w * v
    F: list[dict[int, list[int]]] = [{} for _ in B]
    for c, Ac in enumerate(A):
        for r, parts in Ac.items():
            cs = [0] * (E + n - 1)
            for j, p in enumerate(polys):
                for e, x in enumerate(parts[E * j : E * j + E]):
                    if x:
                        for k, y in enumerate(p, e):
                            cs[k] += x * y
            while cs and not cs[-1]:
                cs.pop()
            if cs:
                F[r][c] = cs
    dens, rows = [], []
    for (qn, qd), row in zip(scale, F):
        M = lcm(*(col_lcm[c] for c in row))
        row = {c: [x * qd * (M // col_lcm[c]) for x in cs] for c, cs in row.items()}
        g = gcd(qn * M, *chain.from_iterable(row.values()))
        dens.append(qn * M // g)
        rows.append({c: tuple(x // g for x in cs) for c, cs in row.items()})
    return PolyMatrix(d, d, tuple(dens), tuple(rows)), G


def transition_matrix(
    n: int, l: int, lam: Partition, max_size: int | None = None
) -> TransitionMatrix:
    """The d x d operator matrix of sum_h alpha^nu(h) h for shape lam.

    Raises EmptyInvariantSpaceError when the rectangular Kostka number is 0
    (more than n rows), and SizeMismatchError when |lam| != n*l.
    """
    if lam.size != n * l:
        raise SizeMismatchError(f"|lam| = {lam.size} is not n*l = {n * l}")
    rep = build_rep(lam, max_size=max_size)
    basis = invariant_basis(rep, n, l)
    if not basis:
        raise EmptyInvariantSpaceError(
            f"shape {lam!r} has no row-group invariants for (n, l) = ({n}, {l})"
        )
    B = [_integer_column(col) for col in basis]
    letters = _relabeling(n, l)
    Bw = _relabel(rep, B, letters) if letters else B
    Y, Z = _split(n, l, rep.dim, sum(len(num) for _, num in Bw))
    F, G = _compress(rep, n, B, _jucys_murphy(rep, Bw, Y), _jucys_murphy(rep, Bw, Z))
    return TransitionMatrix(
        shape=lam,
        n=n,
        l=l,
        d=len(basis),
        entries=F,
        trace=F.trace(),
        gram=tuple(G),
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
        coeffs[nu(h)] += _coset_average(lam, h, K)
    return PolyQ(coeffs)
