"""Exact kernels: known values and agreement with independent routes."""

import random
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphadet import kernels
from alphadet.exact import PolyQ, rank_q

zp_st = st.lists(st.integers(min_value=-9, max_value=9), max_size=5).map(
    lambda c: kernels.zp_trim(list(c))
)


def test_backend_selected():
    assert kernels.BACKEND == "python"


def test_zp_basics():
    assert kernels.zp_sub([1], [1]) == []
    assert kernels.zp_mul([1, 1], [1, -1]) == [1, 0, -1]
    assert kernels.zp_mul([], [1, 2]) == []
    assert kernels.zp_divexact([1, 0, -1], [1, 1]) == [1, -1]
    with pytest.raises(ValueError):
        kernels.zp_divexact([1, 1], [2])
    with pytest.raises(ZeroDivisionError):
        kernels.zp_divexact([1], [])


def test_zp_row_ops():
    # strip: content 2, common factor x, sign flip
    assert kernels.zp_row_strip([[0, -2], [0, 0, -4]]) == [[1], [0, 2]]
    assert kernels.zp_row_strip([[], []]) == [[], []]


def test_zpm_rank_known():
    # diag(1, x, x(1-x)) has full rank over Q(x)
    rows = [
        [[1], [], []],
        [[], [0, 1], []],
        [[], [], [0, 1, -1]],
    ]
    rank, pivots = kernels.zpm_rank(rows)
    assert rank == 3
    assert pivots[0] == [1]
    dep = [[[1], [0, 1]], [[0, 1], [0, 0, 1]]]
    assert kernels.zpm_rank(dep)[0] == 1


def test_qm_rref_known():
    rows = [
        [Fraction(2), Fraction(4)],
        [Fraction(1), Fraction(3)],
    ]
    rref, piv = kernels.qm_rref(rows)
    assert piv == [0, 1]
    assert rref == [[1, 0], [0, 1]]


@given(zp_st, zp_st)
@settings(max_examples=80, deadline=None)
def test_divexact_inverts_mul(a, b):
    if not b:
        return
    prod = kernels.zp_mul(a, b)
    assert kernels.zp_divexact(prod, b) == a


@given(zp_st, zp_st)
@settings(max_examples=80, deadline=None)
def test_parity_scalar_ops(a, b):
    # PolyQ arithmetic is an independent implementation over Q.
    assert kernels.zp_sub(a, b) == list((PolyQ(a) - PolyQ(b)).coeffs)
    assert kernels.zp_mul(a, b) == list((PolyQ(a) * PolyQ(b)).coeffs)


def _euclid_monic(a, b):
    """Monic gcd over Q by the textbook Euclidean algorithm."""
    a, b = [Fraction(c) for c in a], [Fraction(c) for c in b]
    while b:
        while len(a) >= len(b):
            c = a[-1] / b[-1]
            shift = len(a) - len(b)
            for k, y in enumerate(b):
                a[shift + k] -= c * y
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return [c / a[-1] for c in a] if a else []


@given(zp_st, zp_st, zp_st)
@settings(max_examples=80, deadline=None)
def test_parity_gcd(g, u, v):
    a, b = kernels.zp_mul(g, u), kernels.zp_mul(g, v)
    out = kernels.zp_gcd(a, b)
    want = _euclid_monic(a, b)
    if not want:
        assert out == []
        return
    # primitive with positive lead, and a rational multiple of the Q-gcd
    assert reduce(gcd, out, 0) == 1 and out[-1] > 0
    assert [Fraction(c, out[-1]) for c in out] == want


def _gauss_jordan(rows):
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


def test_parity_matrix_ops():
    rng = random.Random(7)
    for _ in range(25):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 4)
        rows = [
            [
                kernels.zp_trim([rng.randint(-3, 3) for _ in range(rng.randint(0, 3))])
                for _ in range(nc)
            ]
            for _ in range(nr)
        ]
        rank, pivots = kernels.zpm_rank(rows)
        # At a point where no pivot vanishes the elimination specializes, so
        # the rank over Q(x) is the rank of the evaluated matrix over Q.
        x = next(
            x for x in range(100) if all(PolyQ(p)(x) != 0 for p in pivots)
        )
        assert rank == rank_q([[PolyQ(p)(x) for p in row] for row in rows])
        qrows = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(nc)]
            for _ in range(nr)
        ]
        assert kernels.qm_rref(qrows) == _gauss_jordan(qrows)


def _valuation(p):
    return next(k for k, c in enumerate(p) if c)


def test_parity_row_strip():
    rng = random.Random(11)
    for _ in range(50):
        row = [
            kernels.zp_trim([2 * rng.randint(-3, 3) for _ in range(rng.randint(0, 4))])
            for _ in range(rng.randint(1, 4))
        ]
        out = kernels.zp_row_strip(row)
        coeffs = [c for p in row for c in p]
        if not any(coeffs):
            assert out == row
            continue
        # row = sign * content * x^v * out, with out primitive, v maximal and
        # the lowest coefficient of out's first nonzero entry positive.
        content = reduce(gcd, coeffs, 0)
        v = min(_valuation(p) for p in row if p)
        first = next(p for p in row if p)
        sign = 1 if first[_valuation(first)] > 0 else -1
        assert [[0] * v + [sign * content * c for c in q] if q else [] for q in out] == row
        assert reduce(gcd, (c for q in out for c in q), 0) == 1
        assert min(_valuation(q) for q in out if q) == 0
        lead = next(q for q in out if q)
        assert lead[_valuation(lead)] > 0
