"""Exact scalar/matrix layer: polynomial ring laws, ranks, specialization."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphadet import kernels
from alphadet.exact import (
    PolyMatrix,
    PolyQ,
    generic_rank,
    mat_identity,
    mat_mul,
    nullspace_q,
    parse_rational,
    rank_at,
    rank_q,
)
from alphadet.explore import squarefree_part
from reference import SingularMatrixError, gauss_jordan, mat_inverse, solve_exact

A = PolyQ([0, 1])


def test_parse_rational():
    assert parse_rational("3") == 3
    assert parse_rational("-1/2") == Fraction(-1, 2)
    assert parse_rational(" 7/3 ") == Fraction(7, 3)
    with pytest.raises(ValueError):
        parse_rational("x")
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_polyq_trims_and_degree():
    assert PolyQ([1, 2, 0, 0]).coeffs == (1, 2)
    assert PolyQ().degree == -1
    assert PolyQ([0]).degree == -1
    assert PolyQ([5]).degree == 0
    assert PolyQ.monomial(3).degree == 3
    assert not PolyQ.zero()
    assert PolyQ.one()


def test_polyq_format():
    assert PolyQ([1, -2, Fraction(3, 4)]).format() == "1 - 2*a + 3/4*a^2"
    assert PolyQ.zero().format() == "0"
    assert PolyQ([0, 1]).format() == "a"
    assert PolyQ([0, -1]).format() == "-a"
    assert PolyQ([-1, 0, 2]).format("t") == "-1 + 2*t^2"


def test_polyq_coeff_strings_round_trip():
    p = PolyQ([Fraction(1, 3), -2, 0, 5])
    assert PolyQ.from_coeff_strings(p.coeff_strings()) == p
    assert p.coeff_strings() == ["1/3", "-2", "0", "5"]


def test_polyq_arithmetic_known():
    assert (1 + A) * (1 - A) == 1 - A**2
    assert (1 + A) ** 3 == PolyQ([1, 3, 3, 1])
    assert (2 * A + 1) - (A + 1) == A
    assert A**0 == PolyQ.one()
    p = (1 + A) ** 2
    assert p(3) == 16
    assert p(Fraction(-1, 2)) == Fraction(1, 4)
    assert p.derivative() == 2 * (1 + A)


poly_st = st.builds(
    PolyQ,
    st.lists(st.integers(min_value=-4, max_value=4), min_size=0, max_size=4),
)


@given(poly_st, poly_st, poly_st)
@settings(max_examples=60, deadline=None)
def test_polyq_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert p * (q + r) == p * q + p * r
    assert p + PolyQ.zero() == p
    assert p * PolyQ.one() == p


@given(poly_st, st.integers(min_value=-3, max_value=3))
@settings(max_examples=60, deadline=None)
def test_polyq_eval_is_hom(p, x):
    q = 1 + 2 * A
    assert (p * q)(x) == p(x) * q(x)
    assert (p + q)(x) == p(x) + q(x)


rational_st = st.fractions(min_value=-3, max_value=3, max_denominator=4)
qpoly_st = st.lists(rational_st, max_size=4).map(PolyQ)


@given(qpoly_st, qpoly_st)
@settings(max_examples=80, deadline=None)
def test_polyq_divmod(a, b):
    if b.is_zero:
        with pytest.raises(ZeroDivisionError):
            divmod(a, b)
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


def _sylvester(a, b):
    """Coefficients of a, ..., a^(deg b - 1) * a and b, ..., a^(deg a - 1) * b."""
    m, n = a.degree, b.degree
    zero = [Fraction(0)]
    rows = [zero * i + list(a.coeffs) + zero * (n - 1 - i) for i in range(n)]
    return rows + [zero * i + list(b.coeffs) + zero * (m - 1 - i) for i in range(m)]


@given(qpoly_st, qpoly_st, qpoly_st)
@settings(max_examples=80, deadline=None)
def test_polyq_gcd(g, u, v):
    a, b = g * u, g * v
    out = a.gcd(b)
    if not a and not b:
        assert out.is_zero
        return
    assert out.coeffs[-1] == 1
    assert not divmod(a, out)[1] and not divmod(b, out)[1]
    if a and b:
        # The Sylvester matrix loses one rank per degree of the gcd.
        assert out.degree == a.degree + b.degree - rank_q(_sylvester(a, b))
    else:
        assert out == (a or b).monic()


factor_st = st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=3).map(
    PolyQ
).filter(lambda p: p.degree >= 1)


@given(
    st.lists(st.tuples(factor_st, st.integers(min_value=1, max_value=3)), min_size=1, max_size=3),
    rational_st.filter(bool),
)
@settings(max_examples=60, deadline=None)
def test_squarefree_part(factors, scale):
    p = PolyQ.constant(scale)
    for f, e in factors:
        p = p * f**e
    s = squarefree_part(p)
    assert s.coeffs[-1] == 1
    assert not divmod(p, s)[1]
    assert s.gcd(s.derivative()) == PolyQ.one()
    # No root is lost: with s holding each root once, no root of p has
    # multiplicity above deg p - deg s + 1, so p divides that power of s.
    assert not divmod(s ** (p.degree - s.degree + 1), p)[1]


def test_squarefree_part_of_constants():
    assert squarefree_part(PolyQ.constant(Fraction(-2, 3))) == PolyQ.one()
    assert squarefree_part(PolyQ.zero()) == PolyQ.zero()


def test_polymatrix_basics():
    m = PolyMatrix.from_rows([[PolyQ.one(), A], [PolyQ.zero(), 1 - A]])
    assert m.entry(0, 1) == A
    assert m.trace() == 2 - A
    assert m.eval_at(2) == [[1, 2], [0, -1]]
    with pytest.raises(ValueError):
        PolyMatrix.from_rows([[A], [A, A]])


def test_polymatrix_str():
    m = PolyMatrix.from_rows([[PolyQ.one(), A]])
    assert str(m) == "[ 1  a ]"


def test_generic_rank_known():
    diag = PolyMatrix.from_rows(
        [
            [PolyQ.one(), PolyQ.zero(), PolyQ.zero()],
            [PolyQ.zero(), A, PolyQ.zero()],
            [PolyQ.zero(), PolyQ.zero(), A * (1 - A)],
        ]
    )
    assert generic_rank(diag) == 3
    # second row is a times the first
    dep = PolyMatrix.from_rows([[PolyQ.one(), A], [A, A**2]])
    assert generic_rank(dep) == 1
    assert generic_rank(PolyMatrix.from_rows([[PolyQ.zero()]])) == 0
    assert generic_rank(PolyMatrix(0, 0, ())) == 0


def test_generic_rank_needs_every_certified_point():
    # full = 2 and D = 2 give the points a = 0..4; only a = 4 shows rank 2.
    m = PolyMatrix.from_rows([[A * (A - 1), PolyQ.zero()], [PolyQ.zero(), (A - 2) * (A - 3)]])
    assert [rank_at(m, a) for a in range(5)] == [1, 1, 1, 1, 2]
    assert generic_rank(m) == 2


def _integer_rows(mat):
    """Each row as zp polynomials, scaled by one positive factor (rank is unchanged)."""
    rows = []
    for i in range(mat.rows):
        entries = mat.row(i)
        scale = lcm(*(c.denominator for e in entries for c in e.coeffs))
        rows.append([[int(c * scale) for c in e.coeffs] for e in entries])
    return rows


@st.composite
def factored_matrices(draw):
    """P diag(a^e (a - c)^f) Q: rank at most k, and singular at 0 when an e > 0."""
    nr, nc, k = (draw(st.integers(min_value=1, max_value=4)) for _ in range(3))
    entry = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    P = [[PolyQ(draw(st.lists(entry, max_size=2))) for _ in range(k)] for _ in range(nr)]
    Q = [[draw(entry) for _ in range(nc)] for _ in range(k)]
    diag = [
        A ** draw(st.integers(min_value=0, max_value=2))
        * (A - draw(entry)) ** draw(st.integers(min_value=0, max_value=1))
        for _ in range(k)
    ]
    return PolyMatrix.from_rows(
        [
            [sum((P[i][t] * diag[t] * Q[t][j] for t in range(k)), PolyQ.zero()) for j in range(nc)]
            for i in range(nr)
        ]
    )


@given(factored_matrices())
@settings(max_examples=80, deadline=None)
def test_generic_rank_matches_bareiss(m):
    assert generic_rank(m) == kernels.zpm_rank(_integer_rows(m))[0]


def test_rank_at_drops_on_zero_set():
    m = PolyMatrix.from_rows([[PolyQ.one(), PolyQ.zero()], [PolyQ.zero(), 1 - A]])
    assert generic_rank(m) == 2
    assert rank_at(m, 1) == 1
    assert rank_at(m, 0) == 2
    assert rank_at(m, Fraction(1, 2)) == 2


def test_eval_at_on_zeros_and_repeats():
    # eval_at skips zero entries and evaluates each entry object once, and
    # from_rows makes equal entries one object; entrywise evaluation is the
    # reference.  Equal entries start as distinct objects, as in a
    # transition matrix, and the constructor keeps them distinct.
    rng = random.Random(5)
    pool = [[1, -2], [0, 1, 3], [Fraction(1, 2)], [2, 0, -1], [1, 3, 2]]
    mats = [
        # the content polynomial of (3) times I: zero at a = -1/2 and -1
        PolyMatrix.from_rows(
            [[PolyQ([1, 3, 2]) if i == j else PolyQ.zero() for j in range(5)] for i in range(5)]
        )
    ]
    assert len({id(e) for e in mats[0].entries if e}) == 1
    for _ in range(30):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rows = [
            [PolyQ(rng.choice(pool)) if rng.random() < 0.4 else PolyQ.zero() for _ in range(nc)]
            for _ in range(nr)
        ]
        mats.append(PolyMatrix.from_rows(rows))
        mats.append(PolyMatrix(nr, nc, tuple(e for row in rows for e in row)))
    for m in mats:
        for a in (0, 1, Fraction(-1, 2), Fraction(7, 3)):
            ref = [[m.entry(i, j)(a) for j in range(m.cols)] for i in range(m.rows)]
            got = m.eval_at(a)
            assert got == ref
            assert all(isinstance(x, Fraction) for row in got for x in row)
            assert rank_at(m, a) == rank_q(ref)
            assert rank_q(ref) == len(gauss_jordan(ref)[1])
    assert rank_at(mats[0], Fraction(-1, 2)) == 0
    assert rank_at(mats[0], Fraction(7, 3)) == 5


entry_st = st.lists(st.integers(min_value=-2, max_value=2), min_size=0, max_size=3)


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_rank_at_never_exceeds_generic(nr, nc, data):
    rows = [
        [PolyQ(data.draw(entry_st)) for _ in range(nc)] for _ in range(nr)
    ]
    m = PolyMatrix.from_rows(rows)
    g = generic_rank(m)
    assert g <= min(nr, nc)
    for a in (0, 1, -1, Fraction(1, 2)):
        assert rank_at(m, a) <= g


def test_rank_q_and_nullspace():
    rows = [
        [Fraction(1), Fraction(2), Fraction(3)],
        [Fraction(2), Fraction(4), Fraction(6)],
    ]
    assert rank_q(rows) == 1
    basis = nullspace_q(rows)
    assert len(basis) == 2
    for vec in basis:
        assert all(
            sum(r[j] * vec[j] for j in range(3)) == 0 for r in rows
        )
    assert nullspace_q([], ncols=2) == [[1, 0], [0, 1]]


def test_solve_and_inverse():
    A2 = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    inv = mat_inverse(A2)
    assert mat_mul(A2, inv) == mat_identity(2)
    x = solve_exact(A2, [[Fraction(3)], [Fraction(2)]])
    assert x == [[Fraction(1)], [Fraction(1)]]
    with pytest.raises(SingularMatrixError):
        solve_exact([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]], mat_identity(2))
