"""Exact kernels: known values and agreement with independent routes."""

import ast
import random
from fractions import Fraction
from pathlib import Path

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


def test_no_module_but_kernels_names_a_zp_function():
    # Q is the only ring on the package's paths; the Z[a] kernels stay as
    # the tests' Bareiss reference.
    package = Path(kernels.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "kernels.py":
            continue
        tree = ast.parse(path.read_text())
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        assert not {x for x in names if x.startswith(("zp_", "zpm_"))}, path.name


def test_zp_basics():
    assert kernels.zp_sub([1], [1]) == []
    assert kernels.zp_mul([1, 1], [1, -1]) == [1, 0, -1]
    assert kernels.zp_mul([], [1, 2]) == []
    assert kernels.zp_divexact([1, 0, -1], [1, 1]) == [1, -1]
    with pytest.raises(ValueError):
        kernels.zp_divexact([1, 1], [2])
    with pytest.raises(ZeroDivisionError):
        kernels.zp_divexact([1], [])


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
