"""Brute-force module oracle: alpha-determinants, polarization operators,
cyclic closures, highest weight multiplicities, and the Vere-Jones series."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphadet.errors import (
    CapExceededError,
    SizeMismatchError,
    SpectralRadiusError,
    ZeroAlphaError,
)
from alphadet.exact import PolyMatrix, PolyQ
from alphadet.oracle import (
    ModuleBasis,
    MultiPoly,
    adet_eval,
    adet_symbolic,
    apply_E,
    cyclic_closure,
    hwv_multiplicity,
    vere_jones_check,
    weight_consistency_check,
    weyl_dim,
    D_of,
)
from alphadet.symgrp import ClassFunctionH, Partition

A = PolyQ.variable()


# ---------------------------------------------------------------------------
# reference implementations local to the test, sharing no code with oracle.py


def _det(M):
    if not M:
        return Fraction(1)
    if len(M) == 1:
        return M[0][0]
    total = Fraction(0)
    for j in range(len(M)):
        minor = [row[:j] + row[j + 1 :] for row in M[1:]]
        total += (-1) ** j * M[0][j] * _det(minor)
    return total


def _perm(M):
    if not M:
        return Fraction(1)
    total = Fraction(0)
    for j in range(len(M)):
        minor = [row[:j] + row[j + 1 :] for row in M[1:]]
        total += M[0][j] * _perm(minor)
    return total


def _adet_by_sum(M, a):
    m = len(M)
    total = Fraction(0)
    for sigma in itertools.permutations(range(m)):
        seen = [False] * m
        cyc = 0
        for s in range(m):
            if not seen[s]:
                cyc += 1
                t = s
                while not seen[t]:
                    seen[t] = True
                    t = sigma[t]
        prod = Fraction(1)
        for i in range(m):
            prod *= M[sigma[i]][i]
        total += Fraction(a) ** (m - cyc) * prod
    return total


# ---------------------------------------------------------------------------
# MultiPoly


def test_multipoly_basics():
    f = MultiPoly(2, {(1, 0, 0, 1): Fraction(1)})
    g = MultiPoly(2, {(0, 1, 1, 0): Fraction(2)})
    h = f + g
    assert len(h.terms) == 2
    assert (h - f) == g
    assert f.scale(Fraction(3)).terms == {(1, 0, 0, 1): Fraction(3)}
    assert (f * g).terms == {(1, 1, 1, 1): Fraction(2)}
    sq = f**2
    assert sq.terms == {(2, 0, 0, 2): Fraction(1)}
    assert not MultiPoly.zero(2)
    assert bool(f)
    assert MultiPoly.constant(2, Fraction(5)).terms == {(0, 0, 0, 0): Fraction(5)}


def test_multipoly_weight_and_hash():
    f = MultiPoly(2, {(1, 0, 0, 1): Fraction(1), (0, 1, 1, 0): Fraction(1)})
    assert f.weight() == (1, 1)
    bad = MultiPoly(2, {(1, 0, 0, 1): Fraction(1), (2, 0, 0, 0): Fraction(1)})
    with pytest.raises(ValueError):
        bad.weight()
    with pytest.raises(TypeError):
        hash(f)


def test_apply_E_examples():
    x11x12 = MultiPoly(2, {(1, 1, 0, 0): Fraction(1)})
    out = apply_E(2, 1, x11x12)
    assert out.terms == {
        (0, 1, 1, 0): Fraction(1),
        (1, 0, 0, 1): Fraction(1),
    }
    det = MultiPoly(
        2, {(1, 0, 0, 1): Fraction(1), (0, 1, 1, 0): Fraction(-1)}
    )
    assert not apply_E(1, 2, det)
    assert not apply_E(2, 1, det)
    # diagonal operator scales by the row degree
    assert apply_E(1, 1, x11x12).terms == {(1, 1, 0, 0): Fraction(2)}


def test_gl_commutation_relations():
    # [E_ij, E_kl] = d_jk E_il - d_li E_kj on a dense cubic test polynomial
    n = 3
    f = MultiPoly.zero(n)
    for k, mono in enumerate(
        itertools.islice(
            (m for m in itertools.product(range(2), repeat=n * n) if sum(m) == 3),
            12,
        )
    ):
        f = f + MultiPoly(n, {mono: Fraction(k + 1, 2)})
    for i, j, k, l in itertools.product(range(1, n + 1), repeat=4):
        lhs = apply_E(i, j, apply_E(k, l, f)) - apply_E(k, l, apply_E(i, j, f))
        rhs = MultiPoly.zero(n)
        if j == k:
            rhs = rhs + apply_E(i, l, f)
        if l == i:
            rhs = rhs - apply_E(k, j, f)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# alpha-determinant evaluation


def test_adet_eval_2x2():
    M = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    assert adet_eval(M, Fraction(-1)) == -2  # determinant
    assert adet_eval(M, Fraction(1)) == 10  # permanent
    assert adet_eval(M, Fraction(1, 2)) == 7  # 4 + 6a at a=1/2


def test_adet_eval_matches_references():
    import random

    rng = random.Random(3)
    for m in (1, 2, 3, 4):
        M = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)]
            for _ in range(m)
        ]
        assert adet_eval(M, -1) == _det(M)
        assert adet_eval(M, 1) == _perm(M)
        for a in (Fraction(1, 2), Fraction(-2, 3), Fraction(3)):
            assert adet_eval(M, a) == _adet_by_sum(M, a)


def test_adet_eval_cap():
    M9 = [[Fraction(1)] * 9 for _ in range(9)]
    with pytest.raises(CapExceededError):
        adet_eval(M9, 1)
    # override: 9x9 all-ones permanent-style value at a=0 is 1
    assert adet_eval(M9, 0, max_size=9) == 1
    with pytest.raises(SizeMismatchError):
        adet_eval([[Fraction(1), Fraction(2)]], 1)


def test_adet_symbolic_small():
    f2 = adet_symbolic(2)
    assert f2.terms == {
        (1, 0, 0, 1): PolyQ.one(),
        (0, 1, 1, 0): A,
    }
    f3 = adet_symbolic(3)
    census = {}
    for coeff in f3.terms.values():
        census[coeff.degree] = census.get(coeff.degree, 0) + 1
    assert census == {0: 1, 1: 3, 2: 2}
    assert len(f3.terms) == 6


def test_adet_symbolic_consistent_with_eval():
    M = [[Fraction(i * 3 + j + 1) for j in range(3)] for i in range(3)]
    f = adet_symbolic(3)
    a = Fraction(2, 5)
    total = Fraction(0)
    for mono, coeff in f.eval_alpha(a).terms.items():
        prod = Fraction(coeff)
        for idx, e in enumerate(mono):
            i, j = divmod(idx, 3)
            prod *= M[i][j] ** e
        total += prod
    assert total == adet_eval(M, a)


# ---------------------------------------------------------------------------
# D_of


def test_D_of_delta_and_alpha_nu():
    for n, l in ((2, 1), (2, 2), (3, 1)):
        delta = D_of(n, l, ClassFunctionH.delta_identity(n, l))
        mono = tuple(l if k // n == k % n else 0 for k in range(n * n))
        assert delta.terms == {mono: PolyQ.one()}
        assert D_of(n, l, ClassFunctionH.alpha_nu(n, l)) == adet_symbolic(n) ** l


# ---------------------------------------------------------------------------
# Weyl dimension


def test_weyl_dim():
    assert weyl_dim(Partition((2, 1)), 3) == 8
    assert weyl_dim(Partition((1, 1, 1)), 3) == 1
    assert weyl_dim(Partition((6,)), 2) == 7
    assert weyl_dim(Partition((3,)), 3) == 10
    assert weyl_dim(Partition(()), 4) == 1
    with pytest.raises(SizeMismatchError):
        weyl_dim(Partition((1, 1, 1)), 2)


# ---------------------------------------------------------------------------
# cyclic closure and highest weight multiplicities (frozen from full runs)

CLOSURE_TABLE = {
    # (n, l, alpha): (dim, {shape: multiplicity})
    (2, 1, None): (4, {(2,): 1, (1, 1): 1}),
    (2, 1, Fraction(1)): (3, {(2,): 1, (1, 1): 0}),
    (2, 1, Fraction(-1)): (1, {(2,): 0, (1, 1): 1}),
    (2, 1, Fraction(-1, 2)): (4, {(2,): 1, (1, 1): 1}),
    (2, 2, None): (9, {(4,): 1, (3, 1): 1, (2, 2): 1}),
    (2, 2, Fraction(1)): (6, {(4,): 1, (3, 1): 0, (2, 2): 1}),
    (2, 2, Fraction(-1)): (1, {(4,): 0, (3, 1): 0, (2, 2): 1}),
    (2, 3, None): (16, {(6,): 1, (5, 1): 1, (4, 2): 1, (3, 3): 1}),
    (2, 3, Fraction(1)): (10, {(6,): 1, (5, 1): 0, (4, 2): 1, (3, 3): 0}),
    (2, 3, Fraction(-1)): (1, {(6,): 0, (5, 1): 0, (4, 2): 0, (3, 3): 1}),
    (3, 1, None): (27, {(3,): 1, (2, 1): 2, (1, 1, 1): 1}),
    (3, 1, Fraction(1)): (10, {(3,): 1, (2, 1): 0, (1, 1, 1): 0}),
    (3, 1, Fraction(-1)): (1, {(3,): 0, (2, 1): 0, (1, 1, 1): 1}),
    (3, 1, Fraction(-1, 2)): (17, {(3,): 0, (2, 1): 2, (1, 1, 1): 1}),
    (3, 1, Fraction(2)): (27, {(3,): 1, (2, 1): 2, (1, 1, 1): 1}),
    (2, 4, Fraction(1)): (
        15,
        {(8,): 1, (7, 1): 0, (6, 2): 1, (5, 3): 0, (4, 4): 1},
    ),
}


@pytest.mark.parametrize("key", sorted(CLOSURE_TABLE, key=repr))
def test_closure_frozen(key):
    n, l, alpha = key
    dim, mults = CLOSURE_TABLE[key]
    basis = cyclic_closure(n, l, alpha=alpha)
    assert basis.dim == dim
    for shape, m in mults.items():
        assert hwv_multiplicity(basis, Partition(shape)) == m
    # dims decompose: sum of mult * weyl_dim equals the module dimension
    assert sum(
        m * weyl_dim(Partition(shape), n) for shape, m in mults.items()
    ) == dim


def test_closure_weight_consistency():
    for n, l in ((2, 2), (3, 1)):
        basis = cyclic_closure(n, l)
        assert weight_consistency_check(basis)
        assert basis.coefficient_matrix.rows == basis.dim
        assert len(basis.weights) == basis.dim
        # every row weight sums to n*l
        assert all(sum(w) == n * l for w in basis.weights)


def test_hwv_rejects_bad_shapes():
    basis = cyclic_closure(2, 2)
    assert hwv_multiplicity(basis, Partition((2, 1, 1))) == 0  # too many rows
    with pytest.raises(SizeMismatchError):
        hwv_multiplicity(basis, Partition((2, 1)))  # wrong total degree


def test_hwv_generic_scales_whole_rows():
    # g1 = 1/2 x11 x22 + x11 x21 and g2 = x12 x21 + 2 x11 x21 have weight
    # (1, 1), and 2 g1 - g2 = det is a highest-weight vector, so lam = (1, 1)
    # occurs once.  Clearing the 1/2 in g1 alone would change the span.
    def basis(alpha, coeff):
        g1 = MultiPoly(2, {(1, 0, 0, 1): coeff(Fraction(1, 2)), (1, 0, 1, 0): coeff(1)})
        g2 = MultiPoly(2, {(0, 1, 1, 0): coeff(1), (1, 0, 1, 0): coeff(2)})
        return ModuleBasis(
            n=2,
            l=1,
            alpha=alpha,
            generators=(g1, g2),
            monomials=(),
            coefficient_matrix=PolyMatrix(0, 0, ()),
            weights=((1, 1), (1, 1)),
        )

    lam = Partition((1, 1))
    assert hwv_multiplicity(basis(None, PolyQ.constant), lam) == 1
    assert hwv_multiplicity(basis(Fraction(1), Fraction), lam) == 1


def test_closure_caps():
    with pytest.raises(CapExceededError):
        cyclic_closure(4, 2)  # generic cap is nl <= 6
    with pytest.raises(CapExceededError):
        cyclic_closure(3, 3, alpha=Fraction(1))  # specialized cap is nl <= 8
    # specialized nl = 8 sits inside its default cap
    assert cyclic_closure(2, 4, alpha=Fraction(1)).dim == 15
    # generic nl = 8 needs an explicit override
    assert cyclic_closure(2, 4, max_size=8).dim == 25


# ---------------------------------------------------------------------------
# Vere-Jones series check


def test_vere_jones_zero_matrix():
    res = vere_jones_check([[Fraction(0)] * 3 for _ in range(3)], Fraction(1, 2))
    assert res.lhs == pytest.approx(1.0)
    assert res.rhs == pytest.approx(1.0)
    assert res.ok


def test_vere_jones_1x1():
    res = vere_jones_check([[Fraction(1, 10)]], Fraction(1, 2), k_max=6)
    # det(1 - x/20)^(-2) vs series; truncation error must sit inside the bound
    assert res.ok
    assert res.difference < 1e-6
    assert res.tail_bound > 0


def test_vere_jones_diagonal_exact():
    A2 = [[Fraction(1, 4), Fraction(0)], [Fraction(0), Fraction(1, 5)]]
    res = vere_jones_check(A2, Fraction(-1), k_max=6)
    assert res.ok


def test_vere_jones_errors():
    with pytest.raises(ZeroAlphaError):
        vere_jones_check([[Fraction(1, 10)]], 0)
    with pytest.raises(SpectralRadiusError):
        vere_jones_check([[Fraction(2)]], Fraction(1))
    with pytest.raises(ValueError):
        vere_jones_check([[Fraction(1, 10)]], 1, k_max=7)


@given(st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3))
@settings(max_examples=30, deadline=None)
def test_adet_2x2_formula(b, c):
    # det^(a) [[1, b], [c, 1]] = 1 + a b c for any numeric a
    M = [[Fraction(1), Fraction(b)], [Fraction(c), Fraction(1)]]
    for a in (Fraction(1), Fraction(-1), Fraction(2, 3)):
        assert adet_eval(M, a) == 1 + a * b * c
