"""Transition matrices: frozen small cases, structural invariants, and the
independent trace route."""

import hashlib
import math
from fractions import Fraction
from pathlib import Path

import pytest

from alphadet import kernels
from alphadet.errors import (
    CapExceededError,
    EmptyInvariantSpaceError,
    SizeMismatchError,
)
from alphadet.exact import PolyMatrix, PolyQ, generic_rank, mat_mul
from alphadet.formulas import content_poly
from alphadet.seminormal import build_rep, invariant_basis, rep_of
from alphadet.symgrp import Partition, Permutation, admissible_shapes, enumerate_H, kostka, nu
from alphadet.transition import (
    _compress,
    _content_weights,
    _factors,
    _integer_column,
    _jucys_murphy,
    _relabel,
    _relabeling,
    _split,
    trace_poly,
    transition_matrix,
)
from reference import (
    column_matrix,
    dense_compression,
    gauss_jordan,
    mat_inverse,
    reduced_jucys_murphy,
)

A = PolyQ([0, 1])

GOLDEN = Path(__file__).parent / "golden"


def entry00(n, l, parts):
    return transition_matrix(n, l, Partition(parts)).entries.entry(0, 0)


def test_l1_size2():
    assert entry00(2, 1, (2,)) == 1 + A
    assert entry00(2, 1, (1, 1)) == 1 - A


def test_n2_l2_values():
    assert entry00(2, 2, (4,)) == (1 + A) ** 2
    assert entry00(2, 2, (3, 1)) == 1 - A**2
    assert entry00(2, 2, (2, 2)) == 1 - A + A**2


def test_l1_is_content_times_identity():
    # (2,1) for n=3 has a 2-dimensional invariant space
    tm = transition_matrix(3, 1, Partition((2, 1)))
    assert tm.d == 2
    expected = (1 - A**2)
    assert tm.entries.entry(0, 0) == expected
    assert tm.entries.entry(1, 1) == expected
    assert tm.entries.entry(0, 1) == PolyQ.zero()
    assert tm.entries.entry(1, 0) == PolyQ.zero()
    assert entry00(3, 1, (3,)) == 1 + 3 * A + 2 * A**2
    assert entry00(3, 1, (1, 1, 1)) == 1 - 3 * A + 2 * A**2
    # At l = 1 the basis is the identity, column c is {c: 1}, so G is the
    # Gram diagonal and F is the content polynomial times I, for every
    # shape.  (10,1)'s largest shape, f = 768, checks only the basis, which
    # stores one entry per tableau and no f x d table.
    shapes = [(n, lam) for n in range(1, 8) for lam in admissible_shapes(n, 1)]
    for n, lam in shapes + [(10, Partition((4, 3, 2, 1)))]:
        rep = build_rep(lam)
        basis = invariant_basis(rep, n, 1)
        assert basis == tuple({c: 1} for c in range(rep.dim)), lam
        if n == 10:
            assert sum(map(len, basis)) == rep.dim == 768
            continue
        tm = transition_matrix(n, 1, lam)
        # F stores its d diagonal entries, over denominator 1, and nothing
        # else.
        content = tuple(map(int, content_poly(lam).coeffs))
        assert tm.entries.dens == (1,) * tm.d, lam
        assert tm.entries.nonzero == tuple({i: content} for i in range(tm.d)), lam
        assert tm.gram == rep.gram, lam
        # Every factor is in column 1, a content weight, so no word is
        # applied and the one slice is B itself.
        B = [_integer_column(col) for col in basis]
        assert _jucys_murphy(rep, B, _factors(n, 1)) == [B], lam


def test_hook_3_2():
    tm = transition_matrix(3, 2, Partition((5, 1)))
    assert tm.d == 2
    assert tm.trace == PolyQ([2, 6, 2, -6, -4])
    assert tm.generic_rank() == 2
    assert [tm.rank_at(a) for a in (1, -1, Fraction(-1, 2), 2)] == [0, 0, 0, 2]


def test_identity_at_zero_and_selfadjoint():
    for n, l in ((2, 2), (3, 2), (2, 3)):
        for lam in admissible_shapes(n, l):
            tm = transition_matrix(n, l, lam)
            F = tm.entries
            d = tm.d
            assert F.eval_at(0) == [
                [Fraction(int(i == j)) for j in range(d)] for i in range(d)
            ]
            # G is diagonal, so G F = F^T G reads G[i] F[i][j] = F[j][i] G[j].
            G = tm.gram
            for i in range(d):
                for j in range(d):
                    assert G[i] * F.entry(i, j) == G[j] * F.entry(j, i)


def test_trace_two_routes_agree():
    for n, l in ((2, 2), (3, 2)):
        for lam in admissible_shapes(n, l):
            tm = transition_matrix(n, l, lam)
            assert tm.trace == trace_poly(n, l, lam)


def test_rank_bounds():
    for n, l in ((2, 3), (3, 2)):
        for lam in admissible_shapes(n, l):
            tm = transition_matrix(n, l, lam)
            g = tm.generic_rank()
            assert 0 < g <= tm.d
            for a in (1, -1, 2):
                assert tm.rank_at(a) <= g


@pytest.mark.parametrize("n, l", [(3, 3), (4, 2), (5, 1), (6, 1)])
def test_rank_at_matches_textbook_rank(n, l):
    # The ranks the multiplicities read, on the F(a) they are read from:
    # the library's integer reducer against textbook Gauss-Jordan.
    alphas = [Fraction(x) for x in ("1", "-1", "1/2", "-1/2", "1/3", "2", "7/3")]
    for lam in admissible_shapes(n, l):
        tm = transition_matrix(n, l, lam)
        for a in alphas:
            assert tm.rank_at(a) == len(gauss_jordan(tm.entries.eval_at(a))[1]), (lam, a)


def test_generic_rank_certificate_matches_bareiss():
    # F(0) = I certifies full rank d; Bareiss over Z[a] is the reference.
    def integer_row(entries):
        # One positive factor per row clears every denominator; rank is unchanged.
        scale = math.lcm(*(c.denominator for e in entries for c in e.coeffs))
        return [[int(c * scale) for c in e.coeffs] for e in entries]

    for m in range(1, 7):
        for n in range(1, m + 1):
            if m % n:
                continue
            l = m // n
            for lam in admissible_shapes(n, l):
                tm = transition_matrix(n, l, lam)
                rows = [integer_row(tm.entries.row(i)) for i in range(tm.d)]
                bareiss = kernels.zpm_rank(rows)[0]
                assert generic_rank(tm.entries) == bareiss == tm.d, (n, l, lam)


def _diagonal(g):
    return [[x if r == c else 0 for c in range(len(g))] for r, x in enumerate(g)]


def direct_sum_over_H(n, l, lam):
    """F and G by the direct route: S_e = sum of rho(h) over the h in H with
    nu(h) = e, compressed slice by slice to G^-1 B^T D S_e B, where B holds
    the invariant columns, D is the seminormal Gram diagonal and
    G = B^T D B."""
    rep = build_rep(lam)
    f = rep.dim
    B = column_matrix(invariant_basis(rep, n, l), f)
    d = len(B[0])
    sums = {}
    for h in enumerate_H(n, l):
        S = sums.setdefault(nu(h), [[Fraction(0)] * f for _ in range(f)])
        for Si, Ri in zip(S, rep_of(rep, h)):
            for j, x in enumerate(Ri):
                if x:
                    Si[j] += x
    BtD = [[B[i][c] * rep.gram[i] for i in range(f)] for c in range(d)]
    G = mat_mul(BtD, B)
    Ginv_BtD = mat_mul(mat_inverse(G), BtD)
    slices = [mat_mul(Ginv_BtD, mat_mul(sums[e], B)) for e in range(max(sums) + 1)]
    F = PolyMatrix.from_rows(
        [[PolyQ([sl[r][c] for sl in slices]) for c in range(d)] for r in range(d)]
    )
    return F, G


def test_jucys_murphy_assembly_matches_sum_over_H():
    # The library applies prod (1 + a L_k) to the invariant columns; the
    # direct route sums a^nu(h) rho(h) over every h in H in the same basis.
    for m in range(1, 7):
        for n in range(1, m + 1):
            if m % n:
                continue
            l = m // n
            for lam in admissible_shapes(n, l):
                tm = transition_matrix(n, l, lam)
                F, G = direct_sum_over_H(n, l, lam)
                assert tm.entries == F, (n, l, lam)
                assert G == _diagonal(tm.gram), (n, l, lam)


def _relabeled(rep, n, l):
    """The invariant columns B and B' = rho(w) B as the library builds them,
    B' also as Fraction columns for the reference routes."""
    basis = invariant_basis(rep, n, l)
    B = _relabel(rep, [_integer_column(col) for col in basis], _relabeling(n, l))
    return basis, B, tuple({i: Fraction(v, den) for i, v in num.items()} for den, num in B)


def _row_major_factors(n, l):
    """The factors of columns 2..l in the labels x_q = p + (q-1) l, which
    fill the block tableau row by row: column p's factor for x_{k+1} has
    the k transpositions (x_i x_{k+1}), i <= k."""
    return [
        (tuple(range(p, p + k * l, l)), p + k * l)
        for k in range(n - 1, 0, -1)
        for p in range(2, l + 1)
    ]


def _column_one(n):
    """Column 1's factors as transposition words: L_y = sum_{x<y} (x y),
    y = 2..n."""
    return [(tuple(range(1, y)), y) for y in range(2, n + 1)]


def test_relabeled_slices_are_rho_w_of_the_row_major_slices():
    # H' = w H w^-1 with w: p + (q-1) l -> (p-1) n + q.  `rep_of` is a
    # right action, so B' = rep_of(w^-1) B, and the library's slices on B'
    # under the column-major factors of columns 2..l are rep_of(w^-1) times
    # the reference slices on B under the row-major factors of the same
    # columns, reduced after every letter.
    for m in range(1, 9):
        for n in range(1, m + 1):
            if m % n:
                continue
            l = m // n
            letters = _relabeling(n, l)
            assert len(letters) == math.comb(n, 2) * math.comb(l, 2), (n, l)
            w = [(x % l) * n + x // l + 1 for x in range(m)]
            w_inv = Permutation(sorted(range(1, m + 1), key=lambda x: w[x - 1]))
            for lam in admissible_shapes(n, l):
                rep = build_rep(lam)
                R = rep_of(rep, w_inv)
                basis, B, _ = _relabeled(rep, n, l)
                T = _jucys_murphy(rep, B, _factors(n, l))
                ref = reduced_jucys_murphy(rep, basis, _row_major_factors(n, l))
                assert len(T) == len(ref) == (n - 1) * (l - 1) + 1, (n, l, lam)
                for sl, ref_sl in zip(T, ref):
                    for (den, num), col in zip(sl, ref_sl, strict=True):
                        image = [sum(R[i][j] * x for j, x in col.items()) for i in range(rep.dim)]
                        assert {i: Fraction(v, den) for i, v in num.items()} == {
                            i: x for i, x in enumerate(image) if x
                        }, (n, l, lam)


def test_integer_slices_match_per_letter_reduction():
    # The library reduces once per (factor, slice, column); the reference
    # reduces after every letter of every word and hands back Fractions.
    # Both take B' = rho(w) B, the library's input, and the same factors:
    # all (n-1) l of them, column 1's by their words, and the two halves Y
    # and Z of the alternating deal of columns 2..l.
    for m in range(1, 9):
        for n in range(1, m + 1):
            if m % n:
                continue
            l = m // n
            factors = _factors(n, l)
            for lam in admissible_shapes(n, l):
                rep = build_rep(lam)
                _, B, relabeled = _relabeled(rep, n, l)
                for fs in (_column_one(n) + factors, factors[::2], factors[1::2]):
                    T = _jucys_murphy(rep, B, fs)
                    ref = reduced_jucys_murphy(rep, relabeled, fs)
                    assert len(T) == len(ref) == len(fs) + 1, (n, l, lam)
                    for sl, ref_sl in zip(T, ref):
                        for (den, num), ref_col in zip(sl, ref_sl, strict=True):
                            assert {i: Fraction(v, den) for i, v in num.items()} == ref_col
                            assert type(den) is int and den >= 1, (n, l, lam)
                            assert all(type(i) is int and type(v) is int for i, v in num.items())
                            assert all(num.values()), (n, l, lam)
                            assert math.gcd(den, *num.values()) == 1, (n, l, lam)


def test_compression_is_split_invariant_and_matches_dense():
    # Each factor is self-adjoint for the Gram form D and they commute, so
    # B'^T D (P Y Z) B' = (Y B')^T D P (Z B') for every split of the word
    # factors of columns 2..l, with P column 1's content weights.  The
    # dense route compresses the slices of all (n-1) l factors, column 1's
    # applied by their words, against B' itself, forms G' = B'^T D B' in
    # full, inverts it and sums g_rk A[k][c] over every k; rho(w) is
    # orthogonal for D, so G' is the library's diagonal G = B^T D B.
    for m in range(1, 9):
        for n in range(1, m + 1):
            if m % n:
                continue
            l = m // n
            factors = _factors(n, l)
            splits = []
            for mask in range(2 ** len(factors)):
                Y = [f for i, f in enumerate(factors) if mask >> i & 1]
                splits.append((Y, [f for f in factors if f not in Y]))
            for lam in admissible_shapes(n, l):
                rep = build_rep(lam)
                basis, B, relabeled = _relabeled(rep, n, l)
                integer_basis = [_integer_column(col) for col in basis]
                every = _jucys_murphy(rep, B, _column_one(n) + factors)
                dense_F, dense_G = dense_compression(rep, relabeled, every)
                for Y, Z in splits:
                    TY, TZ = _jucys_murphy(rep, B, Y), _jucys_murphy(rep, B, Z)
                    F, G = _compress(rep, n, integer_basis, TY, TZ)
                    assert F == dense_F, (n, l, lam, Y)
                    assert dense_G == _diagonal(G), (n, l, lam, Y)


def test_compression_makes_one_fraction_per_gram_entry(monkeypatch):
    # F leaves the compression as integer rows, and G and the row scales
    # are summed as integer pairs: the d entries of G are the only
    # Fractions made, at l = 1, with rho(w), and with a split.
    new = Fraction.__new__
    for n, l, parts in ((4, 1, (2, 1, 1)), (3, 2, (4, 2)), (3, 3, (5, 3, 1))):
        rep = build_rep(Partition(parts))
        basis, Bw, _ = _relabeled(rep, n, l)
        B = [_integer_column(col) for col in basis]
        Y, Z = _split(n, l, rep.dim, sum(len(num) for _, num in Bw))
        TY, TZ = _jucys_murphy(rep, Bw, Y), _jucys_murphy(rep, Bw, Z)
        made = []

        def counting(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        F, G = _compress(rep, n, B, TY, TZ)
        monkeypatch.undo()
        assert len(made) == len(G) == len(basis) > 1, (n, l, parts)
        assert F == transition_matrix(n, l, Partition(parts)).entries


def test_factors_are_columns_two_to_l():
    # Column p holds s+1..s+n, s = (p-1) n.  Column 1's factors are the
    # content weights, so the words cover the (n-1)(l-1) factors of columns
    # 2..l, none at l = 1, and a factor with k transpositions has k^2
    # letters.
    for m in range(1, 13):
        for n in range(1, m + 1):
            if m % n:
                continue
            l = m // n
            factors = _factors(n, l)
            assert sorted(factors) == sorted(
                (tuple(range(s + 1, s + k + 1)), s + k + 1)
                for s in range(n, m, n)
                for k in range(1, n)
            ), (n, l)
            assert len(factors) == (n - 1) * (l - 1), (n, l)
            assert all(min(xs) > n for xs, _ in factors), (n, l)
            for xs, y in factors:
                assert sum(2 * (y - x) - 1 for x in xs) == len(xs) ** 2, (n, l)
        assert _factors(m, 1) == [], m


def test_column_one_factors_are_content_weights():
    # Column 1 holds 1..n, so its factors are the Jucys-Murphy elements
    # L_2..L_n of S_n < S_nl.  Applied by their transposition words to every
    # e_T, their product is p_T(alpha) e_T, with p_T the library's weight of
    # T; two tableaux share a weight iff 1..n fill the same shape in both.
    # At l = 1 that shape is lam, and the one weight is its content
    # polynomial.
    for m in range(1, 9):
        for n in range(1, m + 1):
            if m % n:
                continue
            l = m // n
            for lam in admissible_shapes(n, l):
                rep = build_rep(lam)
                js, polys = _content_weights(rep, n)
                assert len(js) == rep.dim and all(len(p) == n for p in polys), (n, l, lam)
                inner = [
                    tuple(sum(1 for x in row if x <= n) for row in t) for t in rep.tableaux
                ]
                pairs = set(zip(inner, js))
                assert len(pairs) == len(set(inner)) == len(set(js)) == len(polys), (n, l, lam)
                units = tuple({t: Fraction(1)} for t in range(rep.dim))
                T = reduced_jucys_murphy(rep, units, _column_one(n))
                assert len(T) == n, (n, l, lam)
                for t in range(rep.dim):
                    p = polys[js[t]]
                    for e, sl in enumerate(T):
                        assert sl[t] == ({t: Fraction(p[e])} if p[e] else {}), (n, l, lam, t)
                if l == 1:
                    assert [PolyQ(p) for p in polys] == [content_poly(lam)], lam


def test_split_rule():
    # The split depends on (n, l), f and the entries of B' = rho(w) B, read
    # once B' is built and before any factor is applied.  Y and Z always
    # share out every factor.
    def splits(n, l, lam):
        rep = build_rep(lam)
        _, B, _ = _relabeled(rep, n, l)
        Y, Z = _split(n, l, rep.dim, sum(len(num) for _, num in B))
        factors = _factors(n, l)
        assert sorted(Y + Z) == sorted(factors)
        assert Y or Z == factors
        return bool(Y)

    # One word factor, as at (2,2), prices the same either way, and at
    # l = 1 there is none, so neither splits.
    for l in range(1, 7):
        assert all(splits(2, l, lam) == (l >= 3) for lam in admissible_shapes(2, l)), l
    for n, l in ((3, 3), (3, 4), (4, 2)):
        assert all(splits(n, l, lam) for lam in admissible_shapes(n, l)), (n, l)
    for n in range(1, 9):
        assert not any(splits(n, 1, lam) for lam in admissible_shapes(n, 1)), n
    assert sum(splits(5, 2, lam) for lam in admissible_shapes(5, 2)) == 21
    lam = Partition((7, 3, 2))
    assert kostka(lam, 6, 2) == 115
    assert not splits(6, 2, lam)
    assert not any(splits(1, l, Partition((l,))) for l in range(1, 6))


def test_invariant_columns_have_disjoint_supports_and_diagonal_gram():
    # What lets _compress divide by diag(G): each row of B has at most one
    # nonzero, so G = B^T D B is diagonal.
    for m in range(1, 10):
        for n in range(1, m + 1):
            if m % n:
                continue
            l = m // n
            for lam in admissible_shapes(n, l):
                rep = build_rep(lam)
                B = column_matrix(invariant_basis(rep, n, l), rep.dim)
                assert all(sum(1 for x in row if x) <= 1 for row in B), (n, l, lam)
                BtD = [[B[i][c] * rep.gram[i] for i in range(rep.dim)] for c in range(len(B[0]))]
                G = mat_mul(BtD, B)
                assert all(
                    not x for r, row in enumerate(G) for c, x in enumerate(row) if r != c
                ), (n, l, lam)
    # _compress refuses columns that share a tableau.
    rep = build_rep(Partition((2, 1)))
    T = [[(1, {}), (1, {})]]
    with pytest.raises(AssertionError, match="share a tableau"):
        _compress(rep, 3, [(1, {0: 1}), (1, {0: 1, 1: 1})], T, T)


def _transition_text(max_m):
    # Canonical text of F and G for every shape of every (n, l) with
    # nl <= max_m: each coefficient of each entry of F, row by row, and
    # each diagonal entry of G, as p/q.
    lines = []
    for m in range(1, max_m + 1):
        for n in range(1, m + 1):
            if m % n:
                continue
            l = m // n
            for lam in admissible_shapes(n, l):
                tm = transition_matrix(n, l, lam)
                lines.append(f"shape {n} {l} {','.join(map(str, lam.parts))} d {tm.d}")
                for r, row in enumerate(tm.entries.to_rows()):
                    for c, x in enumerate(row):
                        coeffs = " ".join(f"{v.numerator}/{v.denominator}" for v in x.coeffs)
                        lines.append(f"F {r} {c} {coeffs}")
                lines.append("G " + " ".join(f"{g.numerator}/{g.denominator}" for g in tm.gram))
    return "\n".join(lines) + "\n"


def test_transition_golden_digest():
    # F and G for every shape with nl <= 9, (2,2), (2,3), (8,1) and (9,1)
    # included, which no JSON golden pins.
    expected = (GOLDEN / "transition_m9.sha256").read_text().split()[0]
    assert hashlib.sha256(_transition_text(9).encode()).hexdigest() == expected


def test_errors():
    with pytest.raises(SizeMismatchError):
        transition_matrix(2, 2, Partition((3,)))
    with pytest.raises(EmptyInvariantSpaceError):
        transition_matrix(2, 2, Partition((2, 1, 1)))
    with pytest.raises(CapExceededError):
        transition_matrix(5, 3, Partition((15,)))
