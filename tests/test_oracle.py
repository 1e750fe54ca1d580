"""Brute-force module oracle: alpha-determinants, polarization operators,
cyclic closures, highest weight multiplicities, and the Vere-Jones series."""

import hashlib
import itertools
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphadet import oracle
from alphadet.errors import CapExceededError, SizeMismatchError, UncertifiedClosureError
from alphadet.exact import PolyQ
from alphadet.kernels import RowReducer
from alphadet.oracle import (
    ModuleBasis,
    MultiPoly,
    adet_eval,
    cyclic_closure,
    hwv_multiplicity,
    vere_jones_check,
    weight_consistency_check,
)
from alphadet.symgrp import Partition, admissible_shapes
from alphadet.verify import ORACLE_ALPHAS, ORACLE_CASES, suite_oracle
from reference import (
    D_of,
    Poly,
    adet_symbolic,
    apply_E,
    eval_alpha,
    gauss_jordan,
    polarize,
    tuple_closure,
    tuple_hwv_multiplicity,
    weyl_dim,
)

A = PolyQ([0, 1])


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


def _polarize(terms, i, j, n):
    # E_ij = sum_s x_is d/dx_js on {exponent vector: coefficient}, with the
    # exponent vector read as an n x n matrix of row-major exponents.
    out = {}
    for mono, c in terms.items():
        for s in range(n):
            grid = [list(mono[r * n : (r + 1) * n]) for r in range(n)]
            e = grid[j - 1][s]
            if not e:
                continue
            grid[j - 1][s] -= 1
            grid[i - 1][s] += 1
            key = tuple(x for row in grid for x in row)
            out[key] = out.get(key, 0) + c * e
    return {m: c for m, c in out.items() if c}


def _in_cone(w, l):
    # mu_1 + ... + mu_k >= k*l for every k
    return all(sum(w[:k]) >= k * l for k in range(1, len(w) + 1))


def _unfiltered_closure(n, l, a):
    # The whole module at alpha = a by PBW (simple raising operators, then
    # simple lowering ones, no cone filter), with the oracle's reducer and the
    # polarization above; reduced echelon integer rows, descending lead.
    gen = eval_alpha(adet_symbolic(n) ** l, a)
    scale = math.lcm(*(c.denominator for c in gen.terms.values()))
    reducer = RowReducer()

    def close(rows, ops):
        found = list(rows)
        stack = list(rows)
        while stack:
            row = stack.pop()
            for i, j in ops:
                new = reducer.reduce(_polarize(row, i, j, n))
                if new:
                    reducer.insert(new)
                    found.append(new)
                    stack.append(new)
        return found

    start = reducer.reduce({m: int(c * scale) for m, c in gen.terms.items()})
    reducer.insert(start)
    raised = close([start], [(i, i + 1) for i in range(1, n)])
    close(raised, [(i + 1, i) for i in range(1, n)])
    return reducer.back_reduce()


def _row_weight(terms, n):
    return tuple(sum(max(terms)[k * n : (k + 1) * n]) for k in range(n))


# ---------------------------------------------------------------------------
# MultiPoly, with the arithmetic of reference.Poly


def test_multipoly_basics():
    f = Poly(2, {(1, 0, 0, 1): Fraction(1)})
    g = Poly(2, {(0, 1, 1, 0): Fraction(2)})
    h = f + g
    assert len(h.terms) == 2
    assert (h - f) == g
    assert f.scale(Fraction(3)).terms == {(1, 0, 0, 1): Fraction(3)}
    assert (f * g).terms == {(1, 1, 1, 1): Fraction(2)}
    sq = f**2
    assert sq.terms == {(2, 0, 0, 2): Fraction(1)}
    assert not Poly.zero(2)
    assert bool(f)
    assert Poly.constant(2, Fraction(5)).terms == {(0, 0, 0, 0): Fraction(5)}


def test_multipoly_weight_and_hash():
    f = Poly(2, {(1, 0, 0, 1): Fraction(1), (0, 1, 1, 0): Fraction(1)})
    assert f.weight() == (1, 1)
    bad = Poly(2, {(1, 0, 0, 1): Fraction(1), (2, 0, 0, 0): Fraction(1)})
    with pytest.raises(ValueError):
        bad.weight()
    with pytest.raises(TypeError):
        hash(f)


def test_apply_E_examples():
    x11x12 = MultiPoly(2, {(1, 1, 0, 0): Fraction(1)})
    out = apply_E(x11x12, 2, 1)
    assert out.terms == {
        (0, 1, 1, 0): Fraction(1),
        (1, 0, 0, 1): Fraction(1),
    }
    det = MultiPoly(
        2, {(1, 0, 0, 1): Fraction(1), (0, 1, 1, 0): Fraction(-1)}
    )
    assert not apply_E(det, 1, 2)
    assert not apply_E(det, 2, 1)
    # diagonal operator scales by the row degree
    assert apply_E(x11x12, 1, 1).terms == {(1, 1, 0, 0): Fraction(2)}


@st.composite
def _sparse_integer_polys(draw):
    n = draw(st.sampled_from([2, 3]))
    monos = st.tuples(*[st.integers(min_value=0, max_value=3)] * (n * n))
    coeffs = st.integers(min_value=-5, max_value=5).filter(bool)
    return n, draw(st.dictionaries(monos, coeffs, max_size=6))


@given(_sparse_integer_polys())
@settings(max_examples=60, deadline=None)
def test_apply_E_matches_polarization(case):
    n, terms = case
    f = MultiPoly(n, terms)
    for i, j in itertools.product(range(1, n + 1), repeat=2):
        assert apply_E(f, i, j).terms == _polarize(terms, i, j, n)


def test_gl_commutation_relations():
    # [E_ij, E_kl] = d_jk E_il - d_li E_kj on a dense cubic test polynomial
    n = 3
    f = Poly.zero(n)
    for k, mono in enumerate(
        itertools.islice(
            (m for m in itertools.product(range(2), repeat=n * n) if sum(m) == 3),
            12,
        )
    ):
        f = f + Poly(n, {mono: Fraction(k + 1, 2)})
    for i, j, k, l in itertools.product(range(1, n + 1), repeat=4):
        lhs = apply_E(apply_E(f, k, l), i, j) - apply_E(apply_E(f, i, j), k, l)
        rhs = Poly.zero(n)
        if j == k:
            rhs = rhs + apply_E(f, i, l)
        if l == i:
            rhs = rhs - apply_E(f, k, j)
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
    for mono, coeff in eval_alpha(f, a).terms.items():
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
        D = D_of(n, l)
        # at alpha = 0 only the identity of H is left: the diagonal monomial
        mono = tuple(l if k // n == k % n else 0 for k in range(n * n))
        assert eval_alpha(D, Fraction(0)).terms == {mono: 1}
        assert D == adet_symbolic(n) ** l


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
    # (n, l, alpha): (module dim, cone-part dim, {shape: multiplicity})
    (2, 1, None): (4, 3, {(2,): 1, (1, 1): 1}),
    (2, 1, Fraction(1)): (3, 2, {(2,): 1, (1, 1): 0}),
    (2, 1, Fraction(-1)): (1, 1, {(2,): 0, (1, 1): 1}),
    (2, 1, Fraction(-1, 2)): (4, 3, {(2,): 1, (1, 1): 1}),
    (2, 2, None): (9, 6, {(4,): 1, (3, 1): 1, (2, 2): 1}),
    (2, 2, Fraction(1)): (6, 4, {(4,): 1, (3, 1): 0, (2, 2): 1}),
    (2, 2, Fraction(-1)): (1, 1, {(4,): 0, (3, 1): 0, (2, 2): 1}),
    (2, 3, None): (16, 10, {(6,): 1, (5, 1): 1, (4, 2): 1, (3, 3): 1}),
    (2, 3, Fraction(1)): (10, 6, {(6,): 1, (5, 1): 0, (4, 2): 1, (3, 3): 0}),
    (2, 3, Fraction(-1)): (1, 1, {(6,): 0, (5, 1): 0, (4, 2): 0, (3, 3): 1}),
    (3, 1, None): (27, 16, {(3,): 1, (2, 1): 2, (1, 1, 1): 1}),
    (3, 1, Fraction(1)): (10, 5, {(3,): 1, (2, 1): 0, (1, 1, 1): 0}),
    (3, 1, Fraction(-1)): (1, 1, {(3,): 0, (2, 1): 0, (1, 1, 1): 1}),
    (3, 1, Fraction(-1, 2)): (17, 11, {(3,): 0, (2, 1): 2, (1, 1, 1): 1}),
    (3, 1, Fraction(2)): (27, 16, {(3,): 1, (2, 1): 2, (1, 1, 1): 1}),
    (2, 4, Fraction(1)): (
        15,
        9,
        {(8,): 1, (7, 1): 0, (6, 2): 1, (5, 3): 0, (4, 4): 1},
    ),
}


@pytest.mark.parametrize("key", sorted(CLOSURE_TABLE, key=repr))
def test_closure_frozen(key):
    n, l, alpha = key
    dim, cone_dim, mults = CLOSURE_TABLE[key]
    basis = cyclic_closure(n, l, alpha=alpha)
    assert basis.dim == cone_dim
    counts = {lam: hwv_multiplicity(basis, lam) for lam in admissible_shapes(n, l)}
    for shape, m in mults.items():
        assert counts[Partition(shape)] == m
    assert weight_consistency_check(basis, counts)
    # the whole module decomposes: sum of mult * weyl_dim is its dimension,
    # which the unfiltered closure (at the first certifying alpha when
    # generic) reaches
    assert sum(
        m * weyl_dim(Partition(shape), n) for shape, m in mults.items()
    ) == dim
    at = oracle.CERTIFYING_ALPHAS[0] if alpha is None else alpha
    assert len(_unfiltered_closure(n, l, at)) == dim


@pytest.mark.parametrize(
    "n, l, alpha",
    [(2, 2, None), (3, 1, None), (4, 1, None)]
    + [
        (n, l, a)
        for n, l in ((3, 1), (2, 4), (3, 2), (4, 1))
        for a in (Fraction(1), Fraction(-1), Fraction(-1, 2), Fraction(2))
    ],
    ids=str,
)
def test_cone_closure_is_the_cone_part_of_the_unfiltered_closure(n, l, alpha):
    # Second route: the unfiltered closure's rows of cone weight are the
    # reduced echelon basis of the module's cone part, row for row.
    basis = cyclic_closure(n, l, alpha=alpha)
    at = oracle.CERTIFYING_ALPHAS[0] if alpha is None else alpha
    expected = [
        row for row in _unfiltered_closure(n, l, at) if _in_cone(_row_weight(row, n), l)
    ]
    assert [g.terms for g in basis.generators] == expected
    assert list(basis.weights) == [_row_weight(row, n) for row in expected]


SECOND_ROUTE_ALPHAS = (Fraction(1), Fraction(-1), Fraction(-1, 2), Fraction(2), Fraction(7, 3))


@pytest.mark.parametrize(
    "n, l, alpha",
    [
        (n, l, a)
        for n in range(1, 7)
        for l in range(1, 7 // n + 1)
        if n * l <= 6
        for a in SECOND_ROUTE_ALPHAS
        # At alpha = 2 and 7/3 the (6,1) closure is the whole cone part,
        # 16,807 rows: about 10 s packed and 40 s on tuples on a 2-core VM.
        if (n, l) != (6, 1) or a in (1, -1, Fraction(-1, 2))
    ],
    ids=str,
)
def test_packed_closure_matches_the_tuple_closure(n, l, alpha):
    # Second route: the same PBW closure on exponent tuples gives the same
    # reduced echelon rows, and the tuple-keyed count the same multiplicities.
    basis = cyclic_closure(n, l, alpha=alpha)
    rows = tuple_closure(n, l, alpha)
    assert [g.terms for g in basis.generators] == rows
    assert list(basis.weights) == [_row_weight(row, n) for row in rows]
    for lam in admissible_shapes(n, l):
        assert hwv_multiplicity(basis, lam) == tuple_hwv_multiplicity(basis, lam)


@st.composite
def _packable_monomials(draw, n, l, count):
    # exponent tuples whose every column has degree at most l, x11 first
    monos = []
    for _ in range(count):
        grid = [[0] * n for _ in range(n)]
        for j in range(n):
            left = l
            for i in draw(st.permutations(range(n))):
                grid[i][j] = e = draw(st.integers(min_value=0, max_value=left))
                left -= e
        monos.append(tuple(x for row in grid for x in row))
    return monos


@given(
    st.data(),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([1, 2, 3, 4, 7, 8]),
)
@settings(max_examples=80, deadline=None)
def test_packed_monomials_keep_exponents_order_and_polarization(data, n, l):
    b = l.bit_length()
    mask = (1 << b) - 1
    monos = data.draw(_packable_monomials(n, l, 4))
    pack = [oracle._pack(m, b) for m in monos]
    assert [oracle._unpack(k, n, b) for k in pack] == monos
    for x, kx in zip(monos, pack):
        for y, ky in zip(monos, pack):
            assert (kx < ky) == (x < y)
    coeffs = data.draw(st.lists(st.integers(-9, 9).filter(bool), min_size=4, max_size=4))
    row = dict(zip(monos, coeffs))
    packed = {oracle._pack(m, b): c for m, c in row.items()}
    for i, j in itertools.product(range(1, n + 1), repeat=2):
        image = oracle._polarize(packed, oracle._packed_shifts(i, j, n, b), mask)
        assert {oracle._unpack(k, n, b): c for k, c in image.items()} == polarize(row, i, j, n)
    if n <= 2 or n * l <= 8:
        a = data.draw(
            st.fractions(min_value=-9, max_value=9, max_denominator=9), label="alpha"
        )
        gen = eval_alpha(adet_symbolic(n), a) ** l
        scale = a.denominator ** ((n - 1) * l)
        assert {oracle._unpack(k, n, b): c for k, c in oracle._generator(n, l, a).items()} == {
            m: c * scale for m, c in gen.terms.items()
        }


def test_closure_weight_consistency():
    for n, l, alpha in ((2, 2, None), (3, 1, None), (3, 1, Fraction(-1, 2)), (2, 4, 1)):
        basis = cyclic_closure(n, l, alpha=alpha)
        counts = {lam: hwv_multiplicity(basis, lam) for lam in admissible_shapes(n, l)}
        assert weight_consistency_check(basis, counts)
        assert len(basis.weights) == basis.dim
        # every row weight sums to n*l and lies in the cone
        assert all(sum(w) == n * l for w in basis.weights)
        assert all(_in_cone(w, l) for w in basis.weights)
        # a row short of some weight space, or a row outside the cone, fails
        assert not weight_consistency_check(
            replace(basis, generators=basis.generators[1:], weights=basis.weights[1:]), counts
        )
        outside = (0,) * (n - 1) + (n * l,)
        assert not weight_consistency_check(
            replace(
                basis,
                generators=basis.generators + (basis.generators[0],),
                weights=basis.weights + (outside,),
            ),
            counts,
        )
        # the check reads the multiplicities it is given: one count off fails
        top = Partition((n * l,))
        assert not weight_consistency_check(basis, {**counts, top: counts[top] + 1})


def test_suite_oracle_counts_each_highest_weight_once(monkeypatch):
    # the rank comparison and the weight count share one count per
    # (closure, lam) pair
    calls = []
    count = oracle.hwv_multiplicity

    def counting(basis, lam):
        calls.append((basis.alpha, lam))
        return count(basis, lam)

    monkeypatch.setattr(oracle, "hwv_multiplicity", counting)
    results = suite_oracle(cases=((2, 1), (3, 1)), alphas=(Fraction(1), Fraction(-1)))
    assert all(r.passed for r in results) and len(results) == 12
    assert len(calls) == len(set(calls)) == 3 * (2 + 3)


def test_hwv_rejects_bad_shapes():
    basis = cyclic_closure(2, 2)
    assert hwv_multiplicity(basis, Partition((2, 1, 1))) == 0  # too many rows
    with pytest.raises(SizeMismatchError):
        hwv_multiplicity(basis, Partition((2, 1)))  # wrong total degree
    with pytest.raises(SizeMismatchError):
        hwv_multiplicity(basis, Partition((1, 1, 1)))  # both: the size decides


def _hand_built_basis(alpha, g1, g2):
    # two weight-(1, 1) rows of an n = 2, l = 1 basis
    return ModuleBasis(
        n=2,
        l=1,
        alpha=alpha,
        generators=(MultiPoly(2, g1), MultiPoly(2, g2)),
        weights=((1, 1), (1, 1)),
    )


def test_hwv_generic_scales_whole_rows():
    # g1 = 2 x11 x22 + 4 x11 x21 and g2 = 3 x12 x21 + 6 x11 x21 have weight
    # (1, 1) and contents 2 and 3, and 3 g1 - 2 g2 = 6 det is a highest-weight
    # vector, so lam = (1, 1) occurs once.  Dividing the entries of one row
    # by different factors would change the span.  A generic and a
    # specialized basis take the same path.
    lam = Partition((1, 1))
    for alpha in (None, Fraction(1)):
        basis = _hand_built_basis(
            alpha, {(1, 0, 0, 1): 2, (1, 0, 1, 0): 4}, {(0, 1, 1, 0): 3, (1, 0, 1, 0): 6}
        )
        assert hwv_multiplicity(basis, lam) == _dense_hwv_count(basis, lam) == 1


def _dense_hwv_count(basis, lam):
    # w minus the rank of the dense matrix whose rows are the weight-lam
    # generators' images under E_12, ..., E_n-1,n, side by side, by textbook
    # Gauss-Jordan: a route apart from the reducer that hwv_multiplicity uses.
    n = basis.n
    target = tuple(lam.part(i) for i in range(1, n + 1))
    rows = [g for g, w in zip(basis.generators, basis.weights) if w == target]
    images = [
        {(i, m): c for i in range(1, n) for m, c in _polarize(g.terms, i, i + 1, n).items()}
        for g in rows
    ]
    columns = sorted({key for image in images for key in image})
    if not rows or not columns:
        return len(rows)
    dense = [[Fraction(image.get(k, 0)) for k in columns] for image in images]
    return len(rows) - len(gauss_jordan(dense)[1])


def _mixed_denominator_basis(alpha):
    # The rows 1/2 x11 x22 + 1/3 x11 x21 and 3 x12 x21 + 2 x11 x21 as integer
    # rows of contents 2 and 3: g1 = 6 x11 x22 + 4 x11 x21 and
    # g2 = 9 x12 x21 + 6 x11 x21.  Their E_12 images differ by the factor
    # 3/2, so lam = (1, 1) occurs once; the reducer must cross-multiply.
    return _hand_built_basis(
        alpha, {(1, 0, 0, 1): 6, (1, 0, 1, 0): 4}, {(0, 1, 1, 0): 9, (1, 0, 1, 0): 6}
    )


@pytest.mark.parametrize(
    "n, l, alpha",
    [(2, 2, None), (2, 3, None), (3, 1, None), (3, 2, None)]
    + [
        (n, l, a)
        for n, l in ((3, 1), (2, 4), (3, 2))
        for a in (Fraction(1), Fraction(-1), Fraction(-1, 2), Fraction(3, 7))
    ],
    ids=str,
)
def test_hwv_counts_match_dense_rank(n, l, alpha):
    basis = cyclic_closure(n, l, alpha=alpha)
    for lam in admissible_shapes(n, l):
        assert hwv_multiplicity(basis, lam) == _dense_hwv_count(basis, lam)


def test_hwv_counts_match_dense_rank_mixed_denominators():
    for basis in (_mixed_denominator_basis(Fraction(1)), _mixed_denominator_basis(None)):
        for shape in ((2,), (1, 1)):
            lam = Partition(shape)
            assert hwv_multiplicity(basis, lam) == _dense_hwv_count(basis, lam)
        assert _dense_hwv_count(basis, Partition((1, 1))) == 1


def _poly(g):
    # A library MultiPoly with the test-side arithmetic.
    return Poly(g.n, g.terms)


def _in_span(f, generators):
    # Gaussian elimination against an echelon basis, descending lead order;
    # cross-multiplied, so it needs no division in Q(alpha).
    for g in sorted(map(_poly, generators), key=lambda g: max(g.terms), reverse=True):
        lead = max(g.terms)
        c = f.terms.get(lead)
        if c:
            f = f.scale(g.terms[lead]) - g.scale(c)
    return not f


@pytest.mark.parametrize(
    "n, l, alpha",
    [(2, 2, None), (2, 3, None), (3, 1, None)]
    + [
        (n, l, a)
        for n, l in ((3, 1), (2, 4), (3, 2))
        for a in (Fraction(1), Fraction(-1), Fraction(-1, 2))
    ],
    ids=str,
)
def test_closure_is_stable_under_every_E_ij(n, l, alpha):
    # The closure applies only the simple operators and keeps only the cone
    # part; every E_ij image of cone weight must still lie in the span.
    basis = cyclic_closure(n, l, alpha=alpha)
    gen = adet_symbolic(n) ** l
    if alpha is not None:
        gen = eval_alpha(gen, alpha)
    assert _in_span(gen, basis.generators)
    for g in basis.generators:
        for i, j in itertools.permutations(range(1, n + 1), 2):
            image = apply_E(g, i, j)
            if image and _in_cone(image.weight(), l):
                assert _in_span(image, basis.generators)
    # and no generator lies outside the cone
    assert all(_in_cone(_poly(g).weight(), l) for g in basis.generators)


def _assert_int_rows(basis):
    # Every generator is an int row: primitive, lead positive, and in reduced
    # echelon form (no other generator's lead among its terms).
    leads = [max(g.terms) for g in basis.generators]
    assert leads == sorted(set(leads), reverse=True)
    for g, lead in zip(basis.generators, leads):
        assert all(type(c) is int and c for c in g.terms.values())
        assert math.gcd(*g.terms.values()) == 1
        assert g.terms[lead] > 0
        assert not (set(g.terms) - {lead}) & set(leads)


def test_generic_closure_rows_are_primitive():
    for n, l in ((2, 2), (2, 3), (3, 1), (3, 2), (4, 1)):
        _assert_int_rows(cyclic_closure(n, l))


@pytest.mark.parametrize(
    "n, l, alpha",
    [(n, l, a) for n, l in ORACLE_CASES for a in (None,) + ORACLE_ALPHAS],
    ids=str,
)
def test_closure_rows_are_int_rows(n, l, alpha):
    _assert_int_rows(cyclic_closure(n, l, alpha=alpha))


@pytest.mark.parametrize(
    "n, l, max_size", [(n, l, None) for n, l in ORACLE_CASES] + [(2, 4, 8)], ids=str
)
def test_generic_closure_is_the_whole_space(n, l, max_size):
    # Every monomial whose columns each have degree l and whose weight lies
    # in the cone, once, with coefficient 1.
    basis = cyclic_closure(n, l, max_size=max_size)
    assert basis.alpha is None
    cone_monomials = [
        m
        for m in itertools.product(range(l + 1), repeat=n * n)
        if all(sum(m[j::n]) == l for j in range(n))
        and _in_cone(tuple(sum(m[i * n : (i + 1) * n]) for i in range(n)), l)
    ]
    assert basis.dim == len(cone_monomials) == oracle.cone_monomial_count(n, l)
    if l == 1:
        assert basis.dim == (n + 1) ** (n - 1)
    assert [list(g.terms.items()) for g in basis.generators] == [
        [(m, 1)] for m in sorted(cone_monomials, reverse=True)
    ]


CLOSURE_DIGESTS = {
    # (n, l, alpha, max_size): (dim, sha256 of the generators, sha256 of the
    # weights), each digest over one repr line per row, terms sorted
    (3, 2, Fraction(1), None): (
        26,
        "9382b72a1c65d91b6bc3ddbc2c184b9f15ded8bf55fb4f1ff126d9e9e704c238",
        "5a77919a8f5efcb93a38b6f5559fc8af7a724d42e2385b74a04c115c1fd257b3",
    ),
    (3, 2, Fraction(-1, 2), None): (
        63,
        "974a4484f45ec0ffa474e10f16431a240aeda0841381f74fc4e45b079d8b6114",
        "dfdccfa14229bfb5c93df5bbc6c3051aaf36fde838db6c08f871d1cc8b0b36b1",
    ),
    (3, 2, Fraction(2), None): (
        107,
        "509282be036cf12bdb389dd084919f920ce094644f2a2144b85089e7d950b96e",
        "3519b36b4a8704223157af4141e6011c2e5ef0734b4af1f6f6cb1c1669b7dc8a",
    ),
    (4, 1, Fraction(-1, 2), None): (
        48,
        "17ffaaf9c3a1784e401c4ea2bbcdcd7e277bfff9696a599082945cc22eee8150",
        "e15590eb3cef6180b5cc381db58224fde420a69c3d33b5afd96c9fbce1f55e55",
    ),
    (2, 4, None, 8): (
        15,
        "aed2d784fb683c1fabb7b65e644786e6ed5fa7e4a18045cd6d9823be8ce3e3b0",
        "a2403635e9aa0062b4c7256d982243a3cca48ffd83ff2022c7a231cddf4da015",
    ),
}


@pytest.mark.parametrize("key", list(CLOSURE_DIGESTS), ids=str)
def test_closure_bases_are_pinned(key):
    # The reduced echelon basis is unique, so any change of the closure's
    # internals must reproduce these rows and weights byte for byte.
    n, l, alpha, max_size = key
    dim, gens_digest, weights_digest = CLOSURE_DIGESTS[key]
    basis = cyclic_closure(n, l, alpha=alpha, max_size=max_size)
    gens = "\n".join(repr(sorted(g.terms.items())) for g in basis.generators)
    weights = "\n".join(repr(w) for w in basis.weights)
    assert basis.dim == dim
    assert hashlib.sha256(gens.encode()).hexdigest() == gens_digest
    assert hashlib.sha256(weights.encode()).hexdigest() == weights_digest


def test_generic_closure_needs_a_full_certificate(monkeypatch):
    # At alpha = 1 the (2,1) closure is Sym^2, dimension 3, not 4; its cone
    # part, weights (2,0) and (1,1), has 2 of the 3 cone monomials.
    assert cyclic_closure(2, 1, alpha=1).dim == 2
    assert oracle.cone_monomial_count(2, 1) == 3
    monkeypatch.setattr(oracle, "CERTIFYING_ALPHAS", (Fraction(1),))
    with pytest.raises(UncertifiedClosureError, match=r"n = 2, l = 1.*alpha = 1$"):
        cyclic_closure(2, 1)


def test_generic_closure_is_one_call(monkeypatch):
    # The certifying closures must not go back through the public entry point,
    # which a tracer may have wrapped.
    calls = []
    inner = oracle.cyclic_closure

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(oracle, "cyclic_closure", counted)
    oracle.cyclic_closure(3, 1)
    assert calls == [(3, 1)]


def test_hwv_refuses_fraction_coefficients():
    # A module row is an integer row; a rational one is not counted.
    basis = _hand_built_basis(
        Fraction(1),
        {(1, 0, 0, 1): Fraction(1, 2), (1, 0, 1, 0): 1},
        {(0, 1, 1, 0): 1, (1, 0, 1, 0): 2},
    )
    with pytest.raises(TypeError):
        hwv_multiplicity(basis, Partition((1, 1)))


def test_closure_caps():
    with pytest.raises(CapExceededError):
        cyclic_closure(4, 2)  # generic cap is nl <= 6
    with pytest.raises(CapExceededError):
        cyclic_closure(3, 3, alpha=Fraction(1))  # specialized cap is nl <= 8
    # specialized nl = 8 sits inside its default cap: module dim 15, cone part 9
    assert cyclic_closure(2, 4, alpha=Fraction(1)).dim == 9
    # generic nl = 8 needs an explicit override: 25 monomials, 15 in the cone
    assert cyclic_closure(2, 4, max_size=8).dim == 15


# ---------------------------------------------------------------------------
# Vere-Jones series check


def test_vere_jones_zero_matrix():
    res = vere_jones_check([[Fraction(0)] * 3 for _ in range(3)], Fraction(1, 2))
    assert res.lhs == res.rhs == (Fraction(1),) + (Fraction(0),) * 6
    assert res.k_max == 6
    assert res.ok


def _binomial_series(x, a, k_max):
    """z^0..z^k_max coefficients of (1 - a x z)^(-1/a): C(-1/a, k) (-a x)^k."""
    out = []
    for k in range(k_max + 1):
        c = Fraction(1)
        for j in range(k):
            c *= (-1 / a - j) / (j + 1)
        out.append(c * (-a * x) ** k)
    return tuple(out)


def test_vere_jones_1x1():
    x = Fraction(1, 10)
    for a in (Fraction(1, 2), Fraction(-1), Fraction(3), Fraction(-1, 3)):
        res = vere_jones_check([[x]], a, k_max=6)
        assert res.lhs == res.rhs == _binomial_series(x, a, 6)
        assert res.ok
    # det(1 - x z/2)^(-2) = sum_k (k + 1) (x/2)^k z^k
    res = vere_jones_check([[x]], Fraction(1, 2))
    assert res.lhs == tuple((k + 1) * (x / 2) ** k for k in range(7))


def test_vere_jones_diagonal_exact():
    A2 = [[Fraction(1, 4), Fraction(0)], [Fraction(0), Fraction(1, 5)]]
    res = vere_jones_check(A2, Fraction(-1), k_max=6)
    # at a = -1 the left side is the polynomial det(I + z A) = 1 + 9z/20 + z^2/20
    assert res.lhs == res.rhs == (
        Fraction(1), Fraction(9, 20), Fraction(1, 20), *(Fraction(0),) * 4
    )
    assert res.ok


def test_vere_jones_errors():
    with pytest.raises(ValueError):
        vere_jones_check([[Fraction(1, 10)]], 1, k_max=7)
    with pytest.raises(SizeMismatchError):
        vere_jones_check([[Fraction(1), Fraction(2)]], 1)
    # alpha = 0: the left side is the limit exp(z tr A)
    res = vere_jones_check([[Fraction(1, 10)]], 0)
    assert res.ok
    assert res.lhs == tuple(Fraction(1, 10) ** k / math.factorial(k) for k in range(7))
    B = [[Fraction(1), Fraction(-2)], [Fraction(3, 2), Fraction(1, 3)]]
    assert vere_jones_check(B, 0).ok
    # spectral radius of a*A at least 1: the identity still holds formally
    res = vere_jones_check([[Fraction(2)]], Fraction(1))
    assert res.ok
    assert res.lhs == tuple(Fraction(2) ** k for k in range(7))


def test_vere_jones_detects_a_wrong_right_side(monkeypatch):
    A2 = [[Fraction(1, 2), Fraction(1)], [Fraction(-1), Fraction(1, 3)]]
    assert vere_jones_check(A2, Fraction(1, 2)).ok
    exact = oracle.adet_eval

    def off_by_one_at_size_3(M, a, max_size=None):
        return exact(M, a, max_size) + (1 if len(M) == 3 else 0)

    monkeypatch.setattr(oracle, "adet_eval", off_by_one_at_size_3)
    res = vere_jones_check(A2, Fraction(1, 2))
    assert not res.ok
    assert res.lhs[:3] == res.rhs[:3]
    assert res.lhs[3] != res.rhs[3]
    assert res.lhs[4:] == res.rhs[4:]


@given(st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3))
@settings(max_examples=30, deadline=None)
def test_adet_2x2_formula(b, c):
    # det^(a) [[1, b], [c, 1]] = 1 + a b c for any numeric a
    M = [[Fraction(1), Fraction(b)], [Fraction(c), Fraction(1)]]
    for a in (Fraction(1), Fraction(-1), Fraction(2, 3)):
        assert adet_eval(M, a) == 1 + a * b * c
