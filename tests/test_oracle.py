"""Brute-force module oracle: alpha-determinants, polarization operators,
cyclic closures, highest weight multiplicities, and the Vere-Jones series."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphadet import oracle
from alphadet.errors import (
    CapExceededError,
    SizeMismatchError,
    SpectralRadiusError,
    UncertifiedClosureError,
    ZeroAlphaError,
)
from alphadet.exact import PolyMatrix, PolyQ, generic_rank, rank_q
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
from alphadet.symgrp import ClassFunctionH, Partition, admissible_shapes
from alphadet.verify import ORACLE_CASES

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
        assert apply_E(i, j, f).terms == _polarize(terms, i, j, n)


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
        assert len(basis.weights) == basis.dim
        # every row weight sums to n*l
        assert all(sum(w) == n * l for w in basis.weights)


def test_hwv_rejects_bad_shapes():
    basis = cyclic_closure(2, 2)
    assert hwv_multiplicity(basis, Partition((2, 1, 1))) == 0  # too many rows
    with pytest.raises(SizeMismatchError):
        hwv_multiplicity(basis, Partition((2, 1)))  # wrong total degree
    with pytest.raises(SizeMismatchError):
        hwv_multiplicity(basis, Partition((1, 1, 1)))  # both: the size decides


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
            weights=((1, 1), (1, 1)),
        )

    lam = Partition((1, 1))
    assert hwv_multiplicity(basis(None, PolyQ.constant), lam) == 1
    assert hwv_multiplicity(basis(Fraction(1), Fraction), lam) == 1


def _dense_hwv_count(basis, lam):
    # w minus the rank of the dense matrix whose rows are the weight-lam
    # generators' images under E_12, ..., E_n-1,n, side by side.
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
    if basis.alpha is None:
        zero = PolyQ.zero()
        dense = PolyMatrix.from_rows([[image.get(k, zero) for k in columns] for image in images])
        return len(rows) - generic_rank(dense)
    dense = [[Fraction(image.get(k, 0)) for k in columns] for image in images]
    return len(rows) - rank_q(dense)


def _mixed_denominator_basis(alpha, coeff):
    # g1 = 1/2 x11 x22 + 1/3 x11 x21 and g2 = 3 x12 x21 + 2 x11 x21: their
    # E_12 images differ by the factor 6, so lam = (1, 1) occurs once.
    # Clearing each denominator on its own would make the images independent.
    g1 = MultiPoly(
        2, {(1, 0, 0, 1): coeff(Fraction(1, 2)), (1, 0, 1, 0): coeff(Fraction(1, 3))}
    )
    g2 = MultiPoly(2, {(0, 1, 1, 0): coeff(3), (1, 0, 1, 0): coeff(2)})
    return ModuleBasis(
        n=2, l=1, alpha=alpha, generators=(g1, g2), monomials=(), weights=((1, 1), (1, 1))
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
    for basis in (
        _mixed_denominator_basis(Fraction(1), Fraction),
        _mixed_denominator_basis(None, PolyQ.constant),
    ):
        for shape in ((2,), (1, 1)):
            lam = Partition(shape)
            assert hwv_multiplicity(basis, lam) == _dense_hwv_count(basis, lam)
        assert _dense_hwv_count(basis, Partition((1, 1))) == 1


def _in_span(f, generators):
    # Gaussian elimination against an echelon basis, descending lead order;
    # cross-multiplied, so it needs no division in Q(alpha).
    for g in sorted(generators, key=lambda g: max(g.terms), reverse=True):
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
    # The closure applies only the simple operators; the full gl_n action
    # must still stay inside the returned span.
    basis = cyclic_closure(n, l, alpha=alpha)
    gen = adet_symbolic(n) ** l
    if alpha is not None:
        gen = gen.eval_alpha(alpha)
    assert _in_span(gen, basis.generators)
    for g in basis.generators:
        for i, j in itertools.permutations(range(1, n + 1), 2):
            assert _in_span(apply_E(i, j, g), basis.generators)


def test_generic_closure_rows_are_primitive():
    for n, l in ((2, 2), (2, 3), (3, 1), (3, 2), (4, 1)):
        for g in cyclic_closure(n, l).generators:
            coeffs = [c for p in g.terms.values() for c in p.coeffs]
            assert all(c.denominator == 1 for c in coeffs)
            assert math.gcd(*(c.numerator for c in coeffs)) == 1
            common = PolyQ.zero()
            for p in g.terms.values():
                common = common.gcd(p)
            assert common == PolyQ.one()


@pytest.mark.parametrize(
    "n, l, max_size", [(n, l, None) for n, l in ORACLE_CASES] + [(2, 4, 8)], ids=str
)
def test_generic_closure_is_the_whole_space(n, l, max_size):
    # Every monomial whose columns each have degree l, once, with coefficient 1.
    basis = cyclic_closure(n, l, max_size=max_size)
    assert basis.alpha is None
    assert basis.dim == math.comb(n + l - 1, l) ** n
    assert [list(g.terms.items()) for g in basis.generators] == [
        [(m, PolyQ.one())] for m in basis.monomials
    ]
    assert list(basis.monomials) == sorted(basis.monomials, reverse=True)
    for m in basis.monomials:
        assert all(sum(m[j::n]) == l for j in range(n))


def test_generic_closure_needs_a_full_certificate(monkeypatch):
    # At alpha = 1 the (2,1) closure is Sym^2, dimension 3, not 4.
    assert cyclic_closure(2, 1, alpha=1).dim == 3
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


def test_hwv_refuses_alpha_dependent_generic_coefficients():
    g1 = MultiPoly(2, {(1, 0, 0, 1): PolyQ.one(), (0, 1, 1, 0): A})
    basis = ModuleBasis(
        n=2, l=1, alpha=None, generators=(g1,), monomials=(), weights=((1, 1),)
    )
    with pytest.raises(ValueError, match="depends on alpha"):
        hwv_multiplicity(basis, Partition((1, 1)))


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
