"""Symmetric-group layer: permutations, partitions, characters, the block
tableau groups, and zonal averages."""

import itertools
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphadet.errors import CapExceededError, SizeMismatchError
from alphadet.symgrp import (
    Partition,
    Permutation,
    adjacent_word,
    admissible_shapes,
    character,
    coset_rep_n2,
    dim_f,
    enumerate_H,
    enumerate_K,
    kostka,
    kostka_content,
    nu,
    partitions,
    zonal,
)
from reference import (
    BlockTableau,
    NotInSubgroupError,
    identity,
    theta,
    transposition,
    z_lambda,
)

perm_st = st.integers(min_value=1, max_value=6).flatmap(
    lambda m: st.permutations(list(range(1, m + 1))).map(Permutation)
)


def all_perms(m):
    return [Permutation(p) for p in itertools.permutations(range(1, m + 1))]


def test_permutation_basics():
    g = Permutation((2, 3, 1))
    assert g(1) == 2 and g(3) == 1
    assert Permutation.from_text("2,3,1") == g
    assert g.to_text() == "2,3,1"
    assert g.cycle_type() == Partition((3,))
    assert Permutation.from_cycles(4, [(1, 3), (2, 4)]).images == (3, 4, 1, 2)
    assert transposition(3, 1, 2).images == (2, 1, 3)
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))


def test_composition_convention():
    # (s*t)(x) = s(t(x))
    s = Permutation((2, 1, 3))
    t = Permutation((1, 3, 2))
    assert (s * t).images == (2, 3, 1)
    assert (t * s).images == (3, 1, 2)


@given(perm_st)
@settings(max_examples=50, deadline=None)
def test_inverse_and_sign(g):
    assert g.sign == (-1) ** nu(g)


def test_sign_is_homomorphism():
    for s, t in itertools.product(all_perms(3), repeat=2):
        assert (s * t).sign == s.sign * t.sign


def test_adjacent_word_reconstructs():
    for g in all_perms(4):
        word = adjacent_word(g)
        acc = identity(4)
        for j in word:
            acc = acc * transposition(4, j, j + 1)
        assert acc == g


def test_partition_validation_and_parts():
    lam = Partition((3, 1))
    assert lam.size == 4 and lam.length == 2
    assert lam.part(1) == 3 and lam.part(5) == 0
    assert lam.conjugate() == Partition((2, 1, 1))
    assert Partition.from_text("3,1") == lam
    assert Partition.from_text("") == Partition(())
    assert list(Partition((2, 1)).cells()) == [(1, 1), (1, 2), (2, 1)]
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((0,))


def test_partitions_counts_and_order():
    # partition numbers p(1..8)
    for m, expected in [(1, 1), (2, 2), (3, 3), (4, 5), (5, 7), (6, 11), (7, 15), (8, 22)]:
        assert len(partitions(m)) == expected
    ps = [p.parts for p in partitions(4)]
    assert ps == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert [p.parts for p in admissible_shapes(2, 2)] == [(4,), (3, 1), (2, 2)]


def test_z_lambda_class_equation():
    for m in range(1, 7):
        assert sum(
            Fraction(factorial(m), z_lambda(mu)) for mu in partitions(m)
        ) == factorial(m)


def test_character_tables():
    # S_3: classes (1^3), (2,1), (3)
    c3 = Partition((1, 1, 1))
    c21 = Partition((2, 1))
    cc3 = Partition((3,))
    assert [character(Partition((3,)), mu) for mu in (c3, c21, cc3)] == [1, 1, 1]
    assert [character(Partition((2, 1)), mu) for mu in (c3, c21, cc3)] == [2, 0, -1]
    assert [character(Partition((1, 1, 1)), mu) for mu in (c3, c21, cc3)] == [1, -1, 1]
    # S_4 staircase entries
    assert character(Partition((2, 1, 1)), Partition((2, 1, 1))) == -1
    assert character(Partition((2, 2)), Partition((2, 2))) == 2


def test_character_orthogonality():
    for m in (3, 4, 5):
        shapes = partitions(m)
        for lam in shapes:
            for rho in shapes:
                acc = sum(
                    Fraction(character(lam, mu) * character(rho, mu), z_lambda(mu))
                    for mu in partitions(m)
                )
                assert acc == (1 if lam == rho else 0)


def test_dim_f_matches_character_at_identity():
    for m in (3, 4, 5, 6):
        ident = Partition((1,) * m)
        for lam in partitions(m):
            assert dim_f(lam) == character(lam, ident)
    assert dim_f(Partition((2, 1))) == 2
    assert dim_f(Partition((3, 2))) == 5
    assert dim_f(Partition((4, 4))) == 14


def test_kostka_values():
    assert kostka(Partition((4,)), 2, 2) == 1
    assert kostka(Partition((3, 1)), 2, 2) == 1
    assert kostka(Partition((2, 2)), 2, 2) == 1
    assert kostka(Partition((3, 2, 1)), 3, 2) == 2
    assert kostka(Partition((2, 2, 2)), 3, 2) == 1
    # more rows than letters: impossible
    assert kostka(Partition((2, 2, 1, 1)), 2, 3) == 0
    # hooks against the closed count
    assert kostka(Partition((5, 1)), 3, 2) == 2
    assert kostka(Partition((7, 1)), 4, 2) == 3
    assert kostka_content(Partition((2, 1)), (1, 1, 1)) == 2
    with pytest.raises(SizeMismatchError):
        kostka(Partition((3,)), 2, 2)


def test_kostka_dimension_count():
    # sum_lam f^lam K_{lam,(l^n)} counts words with n letters used l times each
    for n, l in ((2, 2), (2, 3), (3, 2), (4, 2)):
        total = sum(dim_f(lam) * kostka(lam, n, l) for lam in admissible_shapes(n, l))
        assert total == factorial(n * l) // factorial(l) ** n


def test_block_tableau_groups():
    tab = BlockTableau(2, 3)
    assert tab.entry(2, 1) == 4
    assert tab.row_of(5) == 2 and tab.col_of(5) == 2
    K = enumerate_K(2, 3)
    H = enumerate_H(2, 3)
    assert len(K) == 36 and len(set(K)) == 36
    assert len(H) == 8 and len(set(H)) == 8
    assert all(tab.in_row_group(k) for k in K)
    assert all(tab.in_column_group(h) for h in H)
    with pytest.raises(CapExceededError):
        enumerate_K(4, 3)
    assert len(enumerate_K(2, 2, max_size=12)) == 4


def test_theta_is_iso_and_nu_additive():
    n, l = 2, 3
    H = enumerate_H(n, l)
    # theta is injective on H, and H has (n!)^l elements, so it is onto
    assert len({theta(h, n, l) for h in H}) == len(H) == factorial(n) ** l
    for h in H:
        comps = theta(h, n, l)
        assert nu(h) == sum(nu(c) for c in comps)
    with pytest.raises(NotInSubgroupError):
        theta(transposition(6, 1, 2), 2, 3)


def test_theta_multiplicative():
    n, l = 3, 2
    H = enumerate_H(n, l)
    for h1 in H[:10]:
        for h2 in H[:10]:
            t1 = theta(h1, n, l)
            t2 = theta(h2, n, l)
            t12 = theta(h1 * h2, n, l)
            assert all(a * b == c for a, b, c in zip(t1, t2, t12))


def test_coset_rep_n2():
    assert coset_rep_n2(2, 0) == identity(4)
    assert coset_rep_n2(2, 1) == Permutation((3, 2, 1, 4))
    with pytest.raises(ValueError):
        coset_rep_n2(2, 3)


def test_zonal_values_n2():
    # identity coset: value 1 by the invariant normalization
    lam = Partition((3, 1))
    assert zonal(lam, coset_rep_n2(2, 0), 2, 2) == 1
    vals = [zonal(lam, coset_rep_n2(2, s), 2, 2) for s in range(3)]
    assert vals == [1, 0, -1]
    lam2 = Partition((2, 2))
    assert [zonal(lam2, coset_rep_n2(2, s), 2, 2) for s in range(3)] == [
        1,
        Fraction(-1, 2),
        1,
    ]
