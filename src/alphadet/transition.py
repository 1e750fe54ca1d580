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
The image of the basis is held as integer slices T = sum_e alpha^e T_e:
each column of T_e is one positive denominator over sparse integer
numerators, and each factor maps T_e to T_e + L_k T_{e-1}.  A
transposition (x y) is applied straight to the sparse columns through the
seminormal generators, along its palindromic word s_x ... s_{y-1} ... s_x.
The rep stores each generator as the integer matrix m_k rho(s_k), so a
letter multiplies the numerators by integers and the denominator by m_k.
A factor's images are summed over one lcm and reduced by one gcd, so the
slices are in lowest terms between factors.

The slices are compressed to F = A / diag(G), A = B^T D T, with A sparse.
B is held as its d sparse columns (`seminormal.invariant_basis`), and they
have disjoint supports: each tableau i belongs to at most one column r,
with B[i][r] = x.  So G = B^T D B is diagonal and is kept as its d
diagonal entries G[r], and F[r][c] = A[r][c] / G[r]: no matrix is
inverted, and no f x d or d x d table of Fractions is built.  Row i of
B^T D is an integer weight over one lcm per column r, so each entry of A
is an integer dot product, and each coefficient of F is one Fraction.  At
l = 1, column c is {c: 1} and G = D, so F is the content polynomial
times I.

This is the only assembly in the library.  The tests carry the direct sum
of alpha^nu(h) rho(h) over every h in H as an independent second route to
the same matrix in the same (canonical) basis, and a dense compression of
the same slices as a second route to F and G.

`trace_poly` computes the trace of F by a second, independent route: zonal
spherical values averaged over K, summed over H with alpha^nu weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm, prod

from alphadet.errors import EmptyInvariantSpaceError, SizeMismatchError
from alphadet.exact import PolyMatrix, PolyQ, generic_rank, rank_at
from alphadet.seminormal import InvariantColumn, SeminormalRep, build_rep, invariant_basis
from alphadet.seminormal import rep_of  # noqa: F401  (perfbench traces transition.rep_of)
from alphadet.symgrp import Partition, _coset_average, enumerate_H, enumerate_K, nu


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


def _jucys_murphy(
    rep: SeminormalRep, basis: tuple[InvariantColumn, ...], n: int, l: int
) -> Slices:
    """sum_{h in H} alpha^nu(h) rho(h) on the invariant columns, by degree.

    Returns T with T[e][c] the alpha^e coefficient of column c, as one
    denominator over sparse integer numerators in lowest terms.  Column p
    of the block tableau holds x_q = p + (q-1) l, and each factor
    1 + alpha L_k, L_k = sum_{i<k} (x_i x_k), maps T_e to T_e + L_k T_{e-1}.
    The factors commute, so the costliest (largest k) go first, while T
    has the fewest slices.  The generators come from the rep as integer
    matrices m_w rho(s_w), so a transposition's word multiplies the
    numerators by integers and its scale by each letter's m_w, with no
    reduction between letters.  The k images and the old T_e are summed
    over one lcm and reduced by one gcd per (factor, slice, column).
    """
    gens = rep.gen_cols
    T: Slices = [[]]
    for col in basis:
        den = lcm(*(v.denominator for v in col.values()))
        T[0].append((den, {i: int(v * den) for i, v in col.items()}))
    for k in range(n - 1, 0, -1):
        for p in range(1, l + 1):
            xs = [p + q * l for q in range(n)]
            # (x y) is the palindromic word s_x ... s_{y-2} s_{y-1} s_{y-2} ... s_x;
            # each word's image is scaled up to the factor's common scale S.
            words = [
                [gens[w - 1] for w in chain(range(x, xs[k]), range(xs[k] - 2, x - 1, -1))]
                for x in xs[:k]
            ]
            scales = [prod(m for m, _ in word) for word in words]
            S = lcm(*scales)
            lifts = [S // s for s in scales]
            T.append([(1, {}) for _ in basis])
            for e in range(len(T) - 1, 0, -1):
                for c, (den, num) in enumerate(T[e - 1]):
                    old_den, old = T[e][c]
                    L = lcm(old_den, den * S)
                    acc = {i: v * (L // old_den) for i, v in old.items()}
                    s = L // (den * S)
                    for word, lift in zip(words, lifts):
                        vec = num
                        for _, gen in word:
                            out: dict[int, int] = {}
                            for r, v in vec.items():
                                for i, g in gen[r]:
                                    if i in out:
                                        out[i] += g * v
                                    else:
                                        out[i] = g * v
                            vec = out
                        t = s * lift
                        for i, v in vec.items():
                            if i in acc:
                                acc[i] += v * t
                            else:
                                acc[i] = v * t
                    acc = {i: v for i, v in acc.items() if v}
                    g = gcd(L, *acc.values())
                    T[e][c] = (L // g, {i: v // g for i, v in acc.items()})
    return T


def _assemble(
    rep: SeminormalRep, basis: tuple[InvariantColumn, ...], T: Slices
) -> tuple[PolyMatrix, list[Fraction]]:
    """F = A / diag(G), A = B^T D T, and the diagonal of G = B^T D B, from
    the integer slices T.

    The invariant columns have disjoint supports, so each tableau i has at
    most one owner column r, row i of B^T D is x D[i] in column r alone,
    and G is diagonal.  Over one lcm L_r per column r, x D[i] is the
    integer weight w_i / L_r, so each entry of A is an integer dot product
    over the slice's denominator, and becomes a Fraction once, when it is
    divided by L_r G[r].
    """
    D = rep.gram
    G = [sum(x * x * D[i] for i, x in col.items()) for col in basis]
    owner: dict[int, tuple[int, int]] = {}
    scale: list[Fraction] = []
    for r, col in enumerate(basis):
        ws = {i: x * D[i] for i, x in col.items()}
        L = lcm(*(w.denominator for w in ws.values()))
        owner.update((i, (r, w.numerator * (L // w.denominator))) for i, w in ws.items())
        scale.append(L * G[r])
    if len(owner) != sum(map(len, basis)):
        raise AssertionError("two invariant columns share a tableau")
    # A = B^T D T slice by slice, sparse: A[c] maps a row r to its integer
    # alpha coefficients, each over its slice's denominator, and holds only
    # the rows that a nonzero entry reaches.
    A: list[dict[int, list[int]]] = [{} for _ in basis]
    for e, slice_e in enumerate(T):
        for c, (_, num) in enumerate(slice_e):
            Ac = A[c]
            for i, v in num.items():
                if i in owner:
                    r, w = owner[i]
                    if r not in Ac:
                        Ac[r] = [0] * len(T)
                    Ac[r][e] += w * v
    zero = PolyQ.zero()
    F = [[zero] * len(basis) for _ in basis]
    for c, Ac in enumerate(A):
        dens = [sl[c][0] for sl in T]
        for r, cs in Ac.items():
            q = scale[r]
            F[r][c] = PolyQ(
                Fraction(x * q.denominator, den * q.numerator) for x, den in zip(cs, dens)
            )
    return PolyMatrix.from_rows(F), G


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
    F, G = _assemble(rep, basis, _jucys_murphy(rep, basis, n, l))
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
