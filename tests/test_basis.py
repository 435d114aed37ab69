"""Graded-lex basis enumeration and the exact count identities."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pluripot.basis import degree_block, dimension_counts, enumerate_basis
from pluripot.errors import InvalidInputError


def test_order_d1():
    assert enumerate_basis(3, 1) == ((0,), (1,), (2,), (3,))


def test_order_d2():
    assert enumerate_basis(2, 2) == (
        (0, 0),
        (1, 0),
        (0, 1),
        (2, 0),
        (1, 1),
        (0, 2),
    )


def test_order_d3_degree_block():
    assert degree_block(2, 3) == (
        (2, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
        (0, 2, 0),
        (0, 1, 1),
        (0, 0, 2),
    )


def test_counts_frozen_values():
    # (m_n, h_n, l_n, r_n) spot values recomputed by hand.
    assert dimension_counts(2, 1) == (3, 1, 3, 2)
    assert dimension_counts(2, 2) == (6, 3, 8, 6)
    assert dimension_counts(3, 2) == (10, 4, 20, 12)
    assert dimension_counts(4, 3) == (35, 15, 105, 60)


def test_size_matches_counts():
    for d in (1, 2, 3):
        for n in (0, 1, 2, 5):
            basis = enumerate_basis(n, d)
            m_n, h_n, _, _ = dimension_counts(n, d)
            assert len(basis) == m_n
            assert len(degree_block(n, d)) == h_n
            assert basis[-h_n:] == degree_block(n, d)


@given(st.integers(0, 30), st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_count_identities(n, d):
    m_n, h_n, l_n, r_n = dimension_counts(n, d)
    assert m_n == math.comb(n + d, n)
    assert r_n == n * h_n
    # degree-sum identities, exact in integers
    assert l_n * (d + 1) == d * n * m_n
    assert l_n == sum(dimension_counts(k, d)[3] for k in range(n + 1))
    # the homogeneous lift: degree-n block in d + 1 variables <-> P_n in d
    assert dimension_counts(n, d + 1)[1] == m_n


@given(st.integers(0, 8), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_enumeration_is_exact_and_sorted(n, d):
    basis = enumerate_basis(n, d)
    seen = set(basis)
    assert len(seen) == len(basis)  # bijection, no repeats
    assert all(len(a) == d and min(a) >= 0 for a in seen)
    assert all(sum(a) <= n for a in seen)
    assert len(seen) == dimension_counts(n, d)[0]
    degs = [sum(a) for a in basis]
    assert degs == sorted(degs)


def test_blockwise_lex_order():
    blocks = [degree_block(k, 3) for k in range(5)]
    for block in blocks:
        assert list(block) == sorted(block, reverse=True)
    assert enumerate_basis(4, 3) == sum(blocks, ())


def test_invalid_arguments():
    with pytest.raises(InvalidInputError):
        enumerate_basis(-1, 2)
    with pytest.raises(InvalidInputError):
        enumerate_basis(2, 0)
    with pytest.raises(InvalidInputError):
        degree_block(-1, 2)
    with pytest.raises(InvalidInputError):
        degree_block(2, 0)
    with pytest.raises(InvalidInputError):
        dimension_counts(-1, 1)
    with pytest.raises(InvalidInputError):
        dimension_counts(3, 0)
