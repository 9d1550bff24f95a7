"""Closed-form committors, the composition-space solver, and rankings."""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvlab import (
    CompositionSpace,
    committor_numeric,
    committor_two_site,
    gamblers_ruin_committor,
    invasion_probability,
)

from conftest import dense_committor


# ----------------------------------------------------------- closed forms


def test_gamblers_ruin_frozen_values():
    # alpha = 2, n = 4: g(k) = (2^k - 1) * 16 / (15 * 2^k)
    g = gamblers_ruin_committor(4, 2.0)
    expected = [0.0, 8 / 15, 12 / 15, 14 / 15, 1.0]
    assert np.allclose(g, expected, atol=1e-15)


def test_gamblers_ruin_balanced_is_linear():
    g = gamblers_ruin_committor(5, 1.0)
    assert np.allclose(g, [k / 5 for k in range(6)], atol=0)


def test_gamblers_ruin_alpha_symmetry():
    # swapping the two sites maps alpha -> 1/alpha and k -> n - k
    n, alpha = 6, 0.3
    g = gamblers_ruin_committor(n, alpha)
    h = gamblers_ruin_committor(n, 1.0 / alpha)
    assert np.allclose(g, 1.0 - h[::-1], atol=1e-14)


def test_invasion_probability_frozen_values():
    assert invasion_probability(3, 2.0) == pytest.approx(1 / 7, abs=1e-15)
    assert invasion_probability(2, 3.0) == pytest.approx(1 / 4, abs=1e-15)
    assert invasion_probability(4, 1.0) == pytest.approx(1 / 4, abs=1e-15)
    # alpha -> 0: the invader always wins
    assert invasion_probability(5, 1e-300) == pytest.approx(1.0)


def test_invasion_probability_no_overflow_for_huge_n():
    assert invasion_probability(10**6, 2.0) == 0.0
    assert invasion_probability(10**6, 0.5) == pytest.approx(0.5)


def test_committor_two_site_is_gamblers_ruin_row():
    n, alpha = 7, 2.5
    g = gamblers_ruin_committor(n, alpha)
    hold, invade = committor_two_site(n, alpha)
    assert hold == g[n - 1]
    assert invade == g[1]


@given(
    n=st.integers(min_value=2, max_value=40),
    alpha=st.floats(min_value=1e-3, max_value=1e3),
)
def test_gamblers_ruin_monotone_in_k(n, alpha):
    g = gamblers_ruin_committor(n, alpha)
    assert g[0] == 0.0 and g[-1] == 1.0
    assert all(b > a - 1e-15 for a, b in zip(g, g[1:]))


# ------------------------------------------------------ composition space


@pytest.mark.parametrize("d,n", [(1, 5), (2, 4), (3, 5), (4, 3)])
def test_composition_space_rank_round_trip(d, n):
    space = CompositionSpace(d, n)
    assert space.size == comb(n + d - 1, d - 1)
    counts = space.array()
    assert counts.shape == (space.size, d) and counts.dtype == np.int64
    assert (counts >= 0).all() and (counts.sum(axis=1) == n).all()
    assert space.ranks(counts).tolist() == list(range(space.size))
    assert len({tuple(c) for c in counts.tolist()}) == space.size


@given(
    d=st.integers(min_value=1, max_value=5),
    n=st.integers(min_value=1, max_value=12),
)
def test_composition_space_rank_property(d, n):
    # the committor assembly relies on array() listing the compositions
    # in rank order, which is colexicographic order
    space = CompositionSpace(d, n)
    counts = space.array()
    assert space.ranks(counts).tolist() == list(range(space.size))
    colex = [tuple(reversed(c)) for c in counts.tolist()]
    assert colex == sorted(colex) and len(set(colex)) == space.size
    # any subset, in any order, ranks row by row
    order = np.random.default_rng(d * 100 + n).permutation(space.size)
    assert (space.ranks(counts[order]) == order).all()


def test_composition_space_rejects_bad_counts():
    space = CompositionSpace(3, 4)
    with pytest.raises(ValueError):
        space.ranks([(1, 1, 1)])  # sums to 3, not 4
    with pytest.raises(ValueError):
        space.ranks([(5, -1, 0)])
    with pytest.raises(ValueError):
        space.ranks([(2, 2, 0), (1, 1, 1)])  # one bad row rejects the batch
    with pytest.raises(ValueError):
        space.ranks((2, 2, 0))  # a single composition is a one-row array
    with pytest.raises(ValueError):
        space.ranks([(2, 2)])
    with pytest.raises(ValueError):
        space.ranks([(2.0, 2.0, 0.0)])


def test_composition_space_more_sites_than_particles():
    # d > n + 1: a binomial table over every a < n + d would overflow
    # int64 here; the table over totals t <= n peaks at size
    space = CompositionSpace(100, 2)
    assert space.size == 5050
    assert space.ranks(space.array()).tolist() == list(range(5050))


# ---------------------------------------------------------- numeric solver


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 2.0, 10.0])
def test_numeric_matches_closed_form_two_sites(n, alpha):
    table = committor_numeric([1.0, alpha], n)
    g = gamblers_ruin_committor(n, alpha)
    for k in range(n + 1):
        assert table.value((k, n - k), 0) == pytest.approx(g[k], abs=1e-9)
        assert table.value((k, n - k), 1) == pytest.approx(1.0 - g[k], abs=1e-9)


@pytest.mark.parametrize(
    "weights,n",
    [((1.0, 2.0, 4.0), 3), ((1.0, 1.0, 1.0), 4), ((0.5, 3.0, 1.5), 5)],
)
def test_numeric_matches_dense_oracle(weights, n):
    table = committor_numeric(list(weights), n)
    oracle = dense_committor(weights, n)
    for counts, expected in oracle.items():
        got = table.row(counts)
        assert np.allclose(got, expected, atol=1e-10)


def test_numeric_rows_are_distributions():
    table = committor_numeric([1.0, 2.0, 3.0], 4)
    for counts in table.space.array().tolist():
        row = table.row(counts)
        assert row.sum() == pytest.approx(1.0, abs=1e-9)
        assert (row >= -1e-12).all()


def test_numeric_dirac_rows_are_exact():
    table = committor_numeric([1.0, 5.0], 6)
    assert table.value((6, 0), 0) == 1.0
    assert table.value((0, 6), 1) == 1.0


def test_numeric_scale_invariance():
    a = committor_numeric([1.0, 2.0, 4.0], 4)
    b = committor_numeric([0.25, 0.5, 1.0], 4)
    assert np.allclose(a.psi, b.psi, atol=1e-11)


def test_numeric_scale_invariance_at_killing_rate_scale():
    # raw killing rates at intensity r, as the finite-r chain start passes
    # them; an absolute residual check on unscaled weights failed at 1e5
    tables = [committor_numeric([r, 2 * r, 4 * r], 100) for r in (10.0, 1e5, 1e7)]
    for r, table in zip((10.0, 1e5, 1e7), tables):
        assert table.weights == (r, 2 * r, 4 * r)
        assert np.abs(table.psi - tables[0].psi).max() <= 1e-12


def test_numeric_rejects_bad_inputs():
    with pytest.raises(ValueError):
        committor_numeric([1.0, -2.0], 4)
    with pytest.raises(ValueError):
        committor_numeric([1.0, 2.0], 1)
    with pytest.raises(ValueError):
        committor_numeric([1, 2, 3], 700)  # 246 051 states, above the 200 000 cap


# sha256 of psi.tobytes().  The first three were taken from the solver
# that walked the space by unranking each index, the last three from the
# one that walked it by recursive iteration and ranked each move's target
# alone; the array assembly must give the same bits.
_PSI_PINS = [
    ((1.0, 2.0, 4.0), 40, "60ac367cc31cd4adfb3cfd7d58f9146c7086abd326cae21269e8c2a03670443e"),
    ((1.0, 2.0, 4.0, 8.0), 12, "f91f7d6ddc0891e857e1d6ec6bdec86f4c2a1042b8c82818a509299bc07d7a39"),
    ((1e5, 2e5, 4e5), 30, "70960f68b6ef06e85ce28db20382d102ac9c2cb9a83b4792558d84ca3f21f7ce"),
    ((1.0, 3.0), 50, "7d6b4e2364a109c9865853377424f7027987d12df9d1e25eb14e42d0c067c3a2"),
    ((1.0,) * 5, 12, "59b344f708d16370b9e7121df9cc71fecce07f7a8f4344cfab05de8621f869bf"),
    ((2.0, 1.0, 1.0, 3.0), 25, "050011642b42c6c85a9f09843baa6f6c9746f3f4ba39758f87179d883f3cc659"),
]


@pytest.mark.parametrize("weights,n,digest", _PSI_PINS)
def test_numeric_psi_bits_pinned(weights, n, digest):
    psi = committor_numeric(list(weights), n).psi
    assert hashlib.sha256(psi.tobytes()).hexdigest() == digest


def test_committor_consistency_with_invasion():
    # a single invader with rate ratio alpha wins with the invasion
    # probability (alpha - 1)/(alpha^n - 1); the same number is 1 - hold
    n, alpha = 6, 3.0
    hold, _ = committor_two_site(n, alpha)
    assert 1.0 - hold == pytest.approx(invasion_probability(n, alpha), abs=1e-12)
    table = committor_numeric([1.0, alpha], n)
    assert table.value((n - 1, 1), 1) == pytest.approx(
        invasion_probability(n, alpha), abs=1e-12
    )
