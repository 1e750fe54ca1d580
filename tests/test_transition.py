"""Transition matrices: frozen small cases, structural invariants, and the
independent trace route."""

import math
from fractions import Fraction

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
from alphadet.symgrp import Partition, admissible_shapes, enumerate_H, nu
from alphadet.transition import _assemble, _jucys_murphy, trace_poly, transition_matrix
from reference import (
    column_matrix,
    dense_compression,
    gauss_jordan,
    mat_inverse,
    reduced_jucys_murphy,
)

A = PolyQ([0, 1])


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
        d = tm.d
        c = content_poly(lam)
        assert tm.entries == PolyMatrix.from_rows(
            [[c if i == j else PolyQ.zero() for j in range(d)] for i in range(d)]
        ), lam
        assert tm.gram == rep.gram, lam


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


def test_integer_slices_match_per_letter_reduction():
    # The library reduces once per (factor, slice, column); the reference
    # reduces after every letter of every word and hands back Fractions.
    for m in range(1, 9):
        for n in range(1, m + 1):
            if m % n:
                continue
            l = m // n
            for lam in admissible_shapes(n, l):
                rep = build_rep(lam)
                basis = invariant_basis(rep, n, l)
                T = _jucys_murphy(rep, basis, n, l)
                ref = reduced_jucys_murphy(rep, basis, n, l)
                assert len(T) == len(ref), (n, l, lam)
                for sl, ref_sl in zip(T, ref):
                    for (den, num), ref_col in zip(sl, ref_sl, strict=True):
                        assert {i: Fraction(v, den) for i, v in num.items()} == ref_col
                        assert type(den) is int and den >= 1, (n, l, lam)
                        assert all(type(i) is int and type(v) is int for i, v in num.items())
                        assert all(num.values()), (n, l, lam)
                        assert math.gcd(den, *num.values()) == 1, (n, l, lam)


def test_sparse_compression_matches_dense():
    # The library divides the sparse A by the diagonal of G; the dense route
    # inverts G in full and sums g_rk A[k][c] over every k.
    for m in range(1, 9):
        for n in range(1, m + 1):
            if m % n:
                continue
            l = m // n
            for lam in admissible_shapes(n, l):
                rep = build_rep(lam)
                basis = invariant_basis(rep, n, l)
                T = _jucys_murphy(rep, basis, n, l)
                F, G = _assemble(rep, basis, T)
                dense_F, dense_G = dense_compression(rep, basis, T)
                assert F == dense_F, (n, l, lam)
                assert dense_G == _diagonal(G), (n, l, lam)


def test_invariant_columns_have_disjoint_supports_and_diagonal_gram():
    # What lets _assemble divide by diag(G): each row of B has at most one
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
    # _assemble refuses columns that share a tableau.
    rep = build_rep(Partition((2, 1)))
    with pytest.raises(AssertionError, match="share a tableau"):
        _assemble(rep, ({0: Fraction(1)}, {0: Fraction(1), 1: Fraction(1)}), [[(1, {}), (1, {})]])


def test_errors():
    with pytest.raises(SizeMismatchError):
        transition_matrix(2, 2, Partition((3,)))
    with pytest.raises(EmptyInvariantSpaceError):
        transition_matrix(2, 2, Partition((2, 1, 1)))
    with pytest.raises(CapExceededError):
        transition_matrix(5, 3, Partition((15,)))
