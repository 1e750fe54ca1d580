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
from alphadet.exact import PolyMatrix, PolyQ, generic_rank
from alphadet.symgrp import ClassFunctionH, Partition, admissible_shapes
from alphadet.transition import trace_poly, transition_matrix

A = PolyQ.variable()


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
            G = tm.gram_matrix()
            for i in range(d):
                for j in range(d):
                    left = sum((G[i][k] * F.entry(k, j) for k in range(d)), PolyQ.zero())
                    right = sum((G[k][j] * F.entry(k, i) for k in range(d)), PolyQ.zero())
                    assert left == right


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


def test_delta_gives_identity():
    for n, l, parts in ((2, 2, (3, 1)), (3, 2, (5, 1)), (2, 3, (4, 2))):
        delta = ClassFunctionH.delta_identity(n, l)
        tm = transition_matrix(n, l, Partition(parts), phi=delta)
        assert tm.entries == PolyMatrix.identity(tm.d)


def test_jucys_murphy_assembly_matches_sum_over_H():
    # The default route applies prod (1 + a L_k) to the invariant columns;
    # an explicit phi sums phi(h) rho(h) over all of H in the same basis.
    for m in range(1, 7):
        for n in range(1, m + 1):
            if m % n:
                continue
            l = m // n
            for lam in admissible_shapes(n, l):
                phi = ClassFunctionH.alpha_nu(n, l)
                direct = transition_matrix(n, l, lam, phi=phi)
                assert transition_matrix(n, l, lam).entries == direct.entries, (n, l, lam)


def test_errors():
    with pytest.raises(SizeMismatchError):
        transition_matrix(2, 2, Partition((3,)))
    with pytest.raises(EmptyInvariantSpaceError):
        transition_matrix(2, 2, Partition((2, 1, 1)))
    with pytest.raises(CapExceededError):
        transition_matrix(5, 3, Partition((15,)))
