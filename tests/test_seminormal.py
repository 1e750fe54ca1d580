"""Seminormal representations: defining relations, characters, invariants."""

import hashlib
import itertools
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from alphadet.errors import CapExceededError
from alphadet.exact import mat_mul, nullspace_q
from alphadet.kernels import qm_rref
from alphadet.seminormal import (
    build_rep,
    invariant_basis,
    rep_of,
    standard_tableaux,
)
from alphadet.symgrp import (
    Partition,
    Permutation,
    admissible_shapes,
    character,
    dim_f,
    kostka,
    partitions,
)
from reference import (
    column_matrix,
    fraction_generator_columns,
    generator_matrix,
    identity,
    mat_transpose,
    reduced_jucys_murphy,
)


def all_perms(m):
    return [Permutation(p) for p in itertools.permutations(range(1, m + 1))]


def test_standard_tableaux_counts():
    for parts in [(3,), (2, 1), (2, 2), (3, 2), (2, 2, 1), (4, 1)]:
        lam = Partition(parts)
        tabs = standard_tableaux(lam)
        assert len(tabs) == dim_f(lam)
        assert len(set(tabs)) == len(tabs)
        # every tableau is standard: rows and columns increase
        for t in tabs:
            for row in t:
                assert list(row) == sorted(row)
            for i in range(len(t) - 1):
                for j in range(len(t[i + 1])):
                    assert t[i][j] < t[i + 1][j]


def test_standard_tableaux_order_matches_brute_force():
    # Fill the shape row by row with every permutation of 1..m and keep the
    # standard fillings; sorted by row-reading word they are the tableaux,
    # in order.  B's columns are ordered by their first tableau.
    for m in range(1, 8):
        for lam in partitions(m):
            fillings = []
            for word in itertools.permutations(range(1, m + 1)):
                rows, start = [], 0
                for part in lam.parts:
                    rows.append(word[start : start + part])
                    start += part
                if all(list(row) == sorted(row) for row in rows) and all(
                    upper[j] < lower[j]
                    for upper, lower in zip(rows, rows[1:])
                    for j in range(len(lower))
                ):
                    fillings.append(tuple(rows))
            fillings.sort(key=lambda t: tuple(x for row in t for x in row))
            assert standard_tableaux(lam) == fillings, lam


def test_generator_relations():
    for parts in [(2, 1), (2, 2), (3, 1), (2, 2, 1)]:
        rep = build_rep(Partition(parts))
        m = rep.size
        gens = [generator_matrix(rep, k) for k in range(1, m)]
        f = rep.dim
        eye = [[Fraction(int(i == j)) for j in range(f)] for i in range(f)]
        for g in gens:
            assert mat_mul(g, g) == eye
        for k in range(len(gens) - 1):
            a, b = gens[k], gens[k + 1]
            assert mat_mul(mat_mul(a, b), a) == mat_mul(mat_mul(b, a), b)
        for k1 in range(len(gens)):
            for k2 in range(k1 + 2, len(gens)):
                a, b = gens[k1], gens[k2]
                assert mat_mul(a, b) == mat_mul(b, a)


def test_integer_generators_match_fraction_route():
    # build_rep stores m_k rho(s_k) in plain ints; the Fraction construction
    # from the tableaux is the second route to the same matrices.
    for m in range(1, 9):
        for lam in partitions(m):
            rep = build_rep(lam)
            assert len(rep.gen_cols) == m - 1
            for k, (mk, cols) in enumerate(rep.gen_cols, start=1):
                ref = fraction_generator_columns(rep, k)
                assert type(mk) is int
                assert all(type(i) is int and type(v) is int for col in cols for i, v in col)
                assert [[(i, Fraction(v, mk)) for i, v in col] for col in cols] == ref, (lam, k)
                assert mk == lcm(*(v.denominator for col in ref for _, v in col)), (lam, k)


def test_rep_of_is_right_action():
    rep = build_rep(Partition((3, 2)))
    for g in all_perms(5)[:40]:
        for h in all_perms(5)[:10]:
            left = rep_of(rep, g * h)
            right = mat_mul(rep_of(rep, h), rep_of(rep, g))
            assert left == right
    ident = identity(5)
    f = rep.dim
    assert rep_of(rep, ident) == [
        [Fraction(int(i == j)) for j in range(f)] for i in range(f)
    ]


def test_trace_equals_character():
    for parts in [(3,), (2, 1), (1, 1, 1), (2, 2), (3, 1)]:
        lam = Partition(parts)
        rep = build_rep(lam)
        for g in all_perms(lam.size):
            tr = sum(rep_of(rep, g)[i][i] for i in range(rep.dim))
            assert tr == character(lam, g.cycle_type())


def test_gram_makes_generators_selfadjoint():
    # gamma_i M[i][j] == M[j][i] gamma_j for every generator, read from the
    # sparse integer columns: m_k is common to both sides.
    for m in range(1, 8):
        for lam in partitions(m):
            rep = build_rep(lam)
            gamma = rep.gram
            assert all(w > 0 for w in gamma), lam
            for k, (_, cols) in enumerate(rep.gen_cols, start=1):
                entries = {(i, j): v for j, col in enumerate(cols) for i, v in col}
                for (i, j), v in entries.items():
                    assert gamma[i] * v == entries.get((j, i), 0) * gamma[j], (lam, k, i, j)


def _content_product(contents):
    # P(T): the product of 1 - 1/delta^2 over x < y with
    # delta = c_T(x) - c_T(y) >= 2.
    p = Fraction(1)
    for x, cx in enumerate(contents[1:], start=1):
        for cy in contents[x + 1 :]:
            if cx - cy >= 2:
                p *= 1 - Fraction(1, (cx - cy) ** 2)
    return p


def test_gram_weights_closed_form():
    # A second route to the Gram weights, from the contents alone:
    # gamma_T P(T) = P(T_0) with T_0 the first tableau, where gamma = 1.
    for m in range(1, 9):
        for lam in partitions(m):
            rep = build_rep(lam)
            assert rep.gram[0] == 1, lam
            assert all(type(g) is Fraction for g in rep.gram), lam
            p0 = _content_product(rep.contents[0])
            for t, c in enumerate(rep.contents):
                assert rep.gram[t] * _content_product(c) == p0, (lam, t)


def test_contents_are_jucys_murphy_eigenvalues():
    # Okounkov-Vershik: the seminormal basis diagonalizes the Jucys-Murphy
    # element L_y = sum_{x<y} (x y), and L_y e_T = c_T(y) e_T.  The reference
    # applies each transposition by its word through the generators.
    for m in range(1, 8):
        for lam in partitions(m):
            rep = build_rep(lam)
            assert len(rep.contents) == rep.dim, lam
            for c in rep.contents:
                assert type(c) is list and len(c) == m + 1, lam
                assert all(type(x) is int for x in c), lam
            units = tuple({t: Fraction(1)} for t in range(rep.dim))
            for y in range(1, m + 1):
                _, images = reduced_jucys_murphy(rep, units, [(tuple(range(1, y)), y)])
                for t, image in enumerate(images):
                    c = rep.contents[t][y]
                    assert image == ({t: Fraction(c)} if c else {}), (lam, t, y)


def test_invariant_basis_dims():
    cases = [((4,), 2, 2), ((3, 1), 2, 2), ((2, 2), 2, 2), ((4, 2), 3, 2), ((5, 1), 3, 2)]
    for parts, n, l in cases:
        lam = Partition(parts)
        rep = build_rep(lam)
        basis = invariant_basis(rep, n, l)
        assert len(basis) == kostka(lam, n, l)
    # more rows than n: empty fixed space
    rep = build_rep(Partition((1, 1, 1, 1)))
    assert len(invariant_basis(rep, 2, 2)) == 0


def test_invariant_basis_is_fixed_by_row_group():
    n, l = 2, 3
    lam = Partition((4, 2))
    rep = build_rep(lam)
    basis = invariant_basis(rep, n, l)
    B = column_matrix(basis, rep.dim)
    # row generators: adjacent transpositions inside each block row
    for i in range(1, n + 1):
        for t in range((i - 1) * l + 1, i * l):
            M = generator_matrix(rep, t)
            assert mat_mul(M, B) == B


def test_invariant_basis_is_canonical():
    # The fixed space computed in one step from every row generator, put in
    # reduced column-echelon form, is the basis invariant_basis returns.
    for m in range(1, 9):
        for n in range(1, m + 1):
            if m % n:
                continue
            l = m // n
            for lam in admissible_shapes(n, l):
                rep = build_rep(lam)
                f = rep.dim
                stacked = []
                for t in (t for t in range(1, m) if t % l):
                    M = generator_matrix(rep, t)
                    stacked.extend(
                        [M[i][j] - int(i == j) for j in range(f)] for i in range(f)
                    )
                fixed = nullspace_q(stacked, f)
                B = column_matrix(invariant_basis(rep, n, l), f)
                assert B == mat_transpose(qm_rref(fixed)[0]), (n, l, lam)
                assert qm_rref(mat_transpose(B))[0] == mat_transpose(B)


@pytest.mark.parametrize("n,l", [(5, 2), (3, 4)])
def test_invariant_basis_is_canonical_beyond_the_stacked_nullspace(n, l):
    # No nullspace: the columns are fixed by every row generator, there are
    # kostka(lam, n, l) of them, and their supports are disjoint, so they
    # are a basis of the fixed space.  Each is 1 at its first support row
    # and they are ordered by it, so that basis is the reduced
    # column-echelon one.
    for lam in admissible_shapes(n, l):
        rep = build_rep(lam)
        cols = invariant_basis(rep, n, l)
        for t in (t for t in range(1, n * l) if t % l):
            mt, gen = rep.gen_cols[t - 1]
            for col in cols:
                image: dict[int, Fraction] = {}
                for j, x in col.items():
                    for i, v in gen[j]:
                        image[i] = image.get(i, 0) + v * x
                assert {i: x for i, x in image.items() if x} == {
                    i: mt * x for i, x in col.items()
                }, (lam, t)
        assert len(cols) == kostka(lam, n, l), lam
        supports = [sorted(col) for col in cols]
        assert sum(map(len, supports)) == len(set().union(*supports)), lam
        firsts = [support[0] for support in supports]
        assert firsts == sorted(firsts), lam
        assert all(col[first] == 1 for col, first in zip(cols, firsts)), lam


GOLDEN = Path(__file__).parent / "golden"


def _seminormal_text(max_m):
    # Canonical text of the seminormal construction for every shape with
    # m <= max_m: tableaux, integer generators, contents, Gram weights and
    # the invariant basis at every (n, l) with nl = m.
    lines = []
    for m in range(1, max_m + 1):
        for lam in partitions(m):
            rep = build_rep(lam)
            lines.append(f"shape {','.join(map(str, lam.parts))}")
            for t, tab in enumerate(rep.tableaux):
                lines.append(f"T {t} {'/'.join(' '.join(map(str, row)) for row in tab)}")
            for k, (mk, cols) in enumerate(rep.gen_cols, start=1):
                lines.append(f"s {k} {mk} {cols}")
            for t, c in enumerate(rep.contents):
                lines.append(f"c {t} {c}")
            lines.append("gram " + " ".join(f"{g.numerator}/{g.denominator}" for g in rep.gram))
            for n in range(1, m + 1):
                if m % n == 0:
                    for col in invariant_basis(rep, n, m // n):
                        entries = " ".join(
                            f"{t}:{v.numerator}/{v.denominator}" for t, v in col.items()
                        )
                        lines.append(f"B {n} {m // n} {entries}")
    return "\n".join(lines) + "\n"


def test_seminormal_construction_golden_digest():
    expected = (GOLDEN / "seminormal_m8.sha256").read_text().split()[0]
    assert hashlib.sha256(_seminormal_text(8).encode()).hexdigest() == expected


def test_rep_cap():
    with pytest.raises(CapExceededError):
        build_rep(Partition((13,)))
    build_rep(Partition((13,)), max_size=13)
