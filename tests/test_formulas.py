"""Closed forms: content polynomials, Hahn values, the n=2 theorem pieces,
the Frobenius expansion, hook traces, and the Jacobi rewriting."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphadet.exact import PolyQ
from alphadet.formulas import (
    G_poly,
    HahnParams,
    binomial_q,
    content_poly,
    frobenius_specialization,
    gkp_identity_check,
    hahn_Q,
    hook_trace_closed_form,
    jacobi_relation_check,
    n2_transition,
)
from alphadet.report import build_report
from alphadet.seminormal import DEFAULT_REP_CAP
from alphadet.symgrp import Partition, character, coset_rep_n2, partitions, zonal
from alphadet.transition import transition_matrix

A = PolyQ([0, 1])


def test_binomial_and_pochhammer():
    assert binomial_q(5, 2) == 10
    assert binomial_q(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert binomial_q(-3, 2) == 6
    assert binomial_q(4, 0) == 1


@given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8))
@settings(max_examples=50, deadline=None)
def test_binomial_pascal(n, k):
    assert binomial_q(n + 1, k + 1) == binomial_q(n, k) + binomial_q(n, k + 1)


def test_content_poly():
    assert content_poly(Partition((3,))) == 1 + 3 * A + 2 * A**2
    assert content_poly(Partition((1, 1))) == 1 - A
    assert content_poly(Partition((2, 2)))(1) == 0
    assert content_poly(Partition(())) == PolyQ.one()


def test_g_poly_and_n2():
    assert G_poly(4, 1) == 1 - A
    assert G_poly(2, 2) == 1 - A + A**2
    assert n2_transition(2, 1) == 1 - A**2
    assert n2_transition(2, 0) == (1 + A) ** 2
    # G_0^l is always 1
    for l in range(1, 7):
        assert G_poly(l, 0) == PolyQ.one()


def test_n2_closed_form_matches_matrix():
    for l in range(1, 5):
        for p in range(l + 1):
            lam = Partition((2 * l - p, p)) if p else Partition((2 * l,))
            tm = transition_matrix(2, l, lam)
            assert tm.entries.entry(0, 0) == n2_transition(l, p)


def test_n2_closed_form_at_the_rep_cap():
    l = DEFAULT_REP_CAP // 2
    doc = build_report(2, l, include_matrices=True)
    assert len(doc.rows) == l + 1
    for row in doc.rows:
        p = row.shape.parts[1] if row.shape.length > 1 else 0
        assert row.transition.to_rows() == [[n2_transition(l, p)]]


def test_hahn_values_match_zonal():
    for l in range(1, 5):
        for p in range(l + 1):
            lam = Partition((2 * l - p, p)) if p else Partition((2 * l,))
            params = HahnParams(p, -l - 1, -l - 1, l)
            for s in range(l + 1):
                assert hahn_Q(params, s) == zonal(lam, coset_rep_n2(l, s), 2, l)


def test_hahn_normalization_and_params():
    params = HahnParams(1, -3, -3, 2)
    assert hahn_Q(params, 0) == 1
    with pytest.raises(ValueError):
        HahnParams(3, -3, -3, 2)


def test_gkp_exhaustive():
    assert all(
        gkp_identity_check(l, p, r)
        for l in range(11)
        for p in range(l + 1)
        for r in range(l + 1)
    )


def test_frobenius_reconstruction():
    for n in (2, 3, 4, 5, 6):
        coeffs = frobenius_specialization(n)
        for mu in partitions(n):
            acc = PolyQ.zero()
            for lam, c in coeffs.items():
                acc = acc + c * character(lam, mu)
            assert acc == PolyQ.monomial(n - mu.length)


def test_hook_trace_closed_form():
    assert hook_trace_closed_form(2, 3) == (1 - A) * (1 + A) ** 2
    assert hook_trace_closed_form(3, 2) == 2 * (1 - A) * (1 + 2 * A) * (1 + A) ** 2
    # printed variant differs once n*l > 2
    assert hook_trace_closed_form(2, 3, paper_variant=True) == (1 - A) ** 3
    assert hook_trace_closed_form(2, 3) != hook_trace_closed_form(
        2, 3, paper_variant=True
    )
    with pytest.raises(ValueError):
        hook_trace_closed_form(1, 2)


def test_hook_trace_matches_matrix():
    for n, l in ((2, 2), (2, 3), (3, 2)):
        tm = transition_matrix(n, l, Partition((n * l - 1, 1)))
        assert tm.trace == hook_trace_closed_form(n, l)


def test_jacobi_relation():
    assert all(jacobi_relation_check(l, s) for l in range(1, 7) for s in range(l + 1))
