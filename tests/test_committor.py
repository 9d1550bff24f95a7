"""Closed-form committors, the composition-space solver, and rankings."""

from __future__ import annotations

import hashlib
import itertools
import math
import time
from fractions import Fraction
from math import comb

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fvlab import (
    committor_numeric,
    gamblers_ruin_committor,
    invasion_probability,
)

import fvlab.committor as committor
from fvlab.committor import CompositionSpace, _psi, _selection_generator

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


def test_composition_space_ranks_overflow_int64():
    # C(159, 59) compositions: their ranks would not fit int64
    with pytest.raises(OverflowError, match="do not fit int64 ranks"):
        CompositionSpace(60, 100).ranks([[100] + [0] * 59])


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
    # 70 sites, 2 particles: 4 830 moves, whose targets are ranked in one
    # call; on a 2-vCPU host one ranks call per move took 3.6-4.6 s
    d = 70
    start = time.perf_counter()
    table = committor_numeric([1.0 + i / 7 for i in range(d)], 2)
    assert time.perf_counter() - start < 1.5
    assert np.abs(table.psi.sum(axis=1) - 1.0).max() <= 1e-12
    assert (table.psi[table.space.ranks(2 * np.eye(d, dtype=np.int64))] == np.eye(d)).all()


def test_numeric_dirac_rows_are_exact():
    table = committor_numeric([1.0, 5.0], 6)
    assert table.value((6, 0), 0) == 1.0
    assert table.value((0, 6), 1) == 1.0


def _solved_afresh(weights, n):
    """``committor_numeric`` with the memo emptied first, so it solves."""
    _psi.cache_clear()
    return committor_numeric(weights, n)


def test_numeric_scale_invariance():
    a = _solved_afresh([1.0, 2.0, 4.0], 4)
    b = _solved_afresh([0.25, 0.5, 1.0], 4)
    assert a.psi is not b.psi
    assert np.allclose(a.psi, b.psi, atol=1e-11)


def test_numeric_scale_invariance_at_killing_rate_scale():
    # raw killing rates at intensity r, as the finite-r chain start passes
    # them; an absolute residual check on unscaled weights failed at 1e5
    tables = [_solved_afresh([r, 2 * r, 4 * r], 100) for r in (10.0, 1e5, 1e7)]
    for r, table in zip((10.0, 1e5, 1e7), tables):
        assert table.weights == (r, 2 * r, 4 * r)
        assert np.abs(table.psi - tables[0].psi).max() <= 1e-12


def test_numeric_solves_proportional_weights_once():
    # the raw killing rates of criterion 3's power cycle at three r all
    # scale to (0.25, 0.5, 1): one solve, two lookups
    _psi.cache_clear()
    tables = [committor_numeric([r, 2 * r, 4 * r], 100, states=[f"{r:g}{x}" for x in "abc"])
              for r in (10.0, 1e3, 1e5)]
    info = _psi.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    for r, table in zip((10.0, 1e3, 1e5), tables):
        assert table.weights == (r, 2 * r, 4 * r)
        assert table.states == (f"{r:g}a", f"{r:g}b", f"{r:g}c")
        assert table.psi is tables[0].psi


def test_numeric_psi_is_read_only():
    table = committor_numeric([1.0, 2.0, 3.0], 4)
    with pytest.raises(ValueError):
        table.psi[0, 0] = 0.5
    row = table.row((2, 1, 1))  # rows are copies the caller may change
    row[0] = 0.5


def test_numeric_failed_solve_is_not_memoized(monkeypatch):
    splu = committor.spla.splu

    class Off:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            return self.lu.solve(rhs) + 1e-6

    _psi.cache_clear()
    monkeypatch.setattr(committor.spla, "splu", lambda *a, **k: Off(splu(*a, **k)))
    with pytest.raises(RuntimeError, match="residual"):
        committor_numeric([1.0, 3.0, 7.0], 9)
    monkeypatch.undo()
    table = committor_numeric([1.0, 3.0, 7.0], 9)
    assert _psi.cache_info().misses == 2 and _psi.cache_info().currsize == 1
    assert np.abs(table.psi.sum(axis=1) - 1.0).max() <= 1e-12


@pytest.fixture
def fresh_psi():
    """The psi memo emptied before and after the test."""
    _psi.cache_clear()
    yield
    _psi.cache_clear()


def test_numeric_rows_off_one_raise(monkeypatch, fresh_psi):
    # a diagonal 1.1 times the exit rate is solved exactly, so the residual
    # check passes, but every interior row of psi then sums to below 1
    def damped(*args):
        G = _selection_generator(*args)
        return G + sp.diags(0.1 * G.diagonal(), format="csr")

    monkeypatch.setattr(committor, "_selection_generator", damped)
    with pytest.raises(RuntimeError, match="rows do not sum to 1"):
        _psi((0.25, 0.5, 1.0), 6)


def test_numeric_values_off_the_unit_interval_raise(fresh_psi):
    # a negative weight (committor_numeric's own check rejects one) still
    # gives harmonic rows that sum to 1, but values outside [0, 1]
    with pytest.raises(RuntimeError, match=r"outside \[0, 1\]"):
        _psi((1.0, -0.5, 0.5), 5)


def test_numeric_rejects_bad_inputs():
    with pytest.raises(ValueError):
        committor_numeric([1.0, -2.0], 4)
    with pytest.raises(ValueError):
        committor_numeric([1.0, 2.0], 1)
    with pytest.raises(ValueError):
        committor_numeric([1, 2, 3], 700)  # 246 051 states, above the 200 000 cap


_TABLE = committor_numeric([1.0, 2.0, 3.0], 4)


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: invasion_probability(1, 2.0), "n must be >= 2, got 1"),
        (lambda: invasion_probability(3, 0.0), "alpha must be a finite positive ratio, got 0.0"),
        (lambda: invasion_probability(3, math.inf), "alpha must be a finite positive ratio, got inf"),
        (lambda: CompositionSpace(0, 3), "need d >= 1 sites and n >= 0, got d=0, n=3"),
        (lambda: CompositionSpace(2, -1), "need d >= 1 sites and n >= 0, got d=2, n=-1"),
        (lambda: committor_numeric([1.0], 4), "need at least two support sites"),
        (lambda: committor_numeric([1.0, 2.0], 4, states=["a"]), "one label per weight required"),
        # -1 used to read the last site, 3 to raise IndexError, and an unknown
        # label tuple.index's "x not in tuple"
        (lambda: _TABLE.value((2, 1, 1), -1), "got -1"),
        (lambda: _TABLE.value((2, 1, 1), 3), "got 3"),
        (lambda: _TABLE.value((2, 1, 1), "zz"), "unknown state 'zz'"),
    ],
    ids=["invasion-n", "invasion-alpha-0", "invasion-alpha-inf", "space-d", "space-n", "numeric-one-site", "numeric-labels", "value-negative", "value-past-end", "value-unknown-label"],
)
def test_committor_raises_value_error_naming_the_input(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()


# sha256 of psi.tobytes(), taken from the face-by-face solve that factors
# the faces of each size by symmetric-mode LU without pivoting.  They
# replace the pins of one partially pivoted LU of the whole non-Dirac
# block, from which these tables differ by at most 1.7e-14.
_PSI_PINS = [
    ((1.0, 2.0, 4.0), 40, "624290dfa8fbf1c4cd8c13458f30bc9eee609ce33d88596b1cb418fb3d5b2dc6"),
    ((1.0, 2.0, 4.0, 8.0), 12, "8c4127f605cb7f70f9ccec3b63b254791bb79844dd25af11a7993911f6be4981"),
    ((1e5, 2e5, 4e5), 30, "e12c4ad16f6ebecdba76ca94bcfd62cd1d46d5c14670c7e785864fcfb0e9925a"),
    ((1.0, 3.0), 50, "b60699186cc5a337e9580e0b3f044f4a008991f339c0a5fb08541b5eb9a41afc"),
    ((1.0,) * 5, 12, "42ba572a82658c1722aee514ee7593713c45a3815d8187b9d39cb5b56fdc99ba"),
    ((2.0, 1.0, 1.0, 3.0), 25, "eaef04e22ea738e51c8809d755aaad63d2168b8c0a708e7511a2f97d5c06295b"),
]


@pytest.mark.parametrize("weights,n,digest", _PSI_PINS)
def test_numeric_psi_bits_pinned(weights, n, digest):
    psi = committor_numeric(list(weights), n).psi
    assert hashlib.sha256(psi.tobytes()).hexdigest() == digest


def test_committor_consistency_with_invasion():
    # a single invader with rate ratio alpha wins with the invasion
    # probability (alpha - 1)/(alpha^n - 1); the same number is 1 - hold
    n, alpha = 6, 3.0
    hold = gamblers_ruin_committor(n, alpha)[n - 1]
    assert 1.0 - hold == pytest.approx(invasion_probability(n, alpha), abs=1e-12)
    table = committor_numeric([1.0, alpha], n)
    assert table.value((n - 1, 1), 1) == pytest.approx(
        invasion_probability(n, alpha), abs=1e-12
    )


@given(
    log_weights=st.lists(st.floats(min_value=-6.0, max_value=6.0), min_size=2, max_size=5),
    n=st.integers(min_value=2, max_value=6),
)
@settings(max_examples=60, deadline=None)
def test_numeric_matches_dense_oracle_property(log_weights, n):
    weights = [10.0**v for v in log_weights]
    table = committor_numeric(weights, n)
    for counts, expected in dense_committor(weights, n).items():
        assert np.abs(table.row(counts) - expected).max() <= 1e-10


def test_numeric_faces_match_their_own_tables():
    # a composition supported on a face never leaves it, so its row is the
    # table of the face's own weights, padded with zeros
    weights, n = (1.0, 2.5, 0.3, 7.0), 8
    table = committor_numeric(list(weights), n)
    for size in range(2, len(weights) + 1):
        for face in itertools.combinations(range(len(weights)), size):
            sub = committor_numeric([weights[i] for i in face], n)
            counts = sub.space.array()
            counts = counts[(counts > 0).all(axis=1)]
            full = np.zeros((len(counts), len(weights)), dtype=np.int64)
            full[:, face] = counts
            rows = table.psi[table.space.ranks(full)]
            assert np.abs(rows[:, face] - sub.psi[sub.space.ranks(counts)]).max() <= 1e-12
            assert (np.delete(rows, face, axis=1) == 0.0).all()


def test_face_block_is_reversible():
    # pi(xi) = prod_i gamma_i**-xi_i / xi_i balances every move inside a
    # face, which makes the unpivoted factorization a Cholesky in disguise
    gamma, n = np.array([1.0, 0.5, 0.25, 0.125]), 9
    space = CompositionSpace(len(gamma), n)
    counts = space.array()
    G = _selection_generator(counts, space, gamma)
    on = np.flatnonzero((counts > 0).all(axis=1))
    block = G[on][:, on]
    coo = block.tocoo()
    off = coo.row != coo.col
    i, j, rate = coo.row[off], coo.col[off], coo.data[off]
    log_pi = -(counts[on] @ np.log(gamma)) - np.log(counts[on]).sum(axis=1)
    reverse = np.asarray(block[j, i]).ravel()
    assert len(rate) > 0 and (rate > 0).all() and (reverse > 0).all()
    gap = np.abs(log_pi[i] + np.log(rate) - log_pi[j] - np.log(reverse))
    assert gap.max() <= 1e-12


def test_numeric_d5_time_bound():
    # 10 626 states; on a 2-vCPU host the single pivoted LU of the whole
    # non-Dirac block took about 4.5 s, the face-by-face solve about 0.45 s
    start = time.perf_counter()
    committor_numeric([1.0, 2.0, 3.0, 4.0, 5.0], 20)
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize(
    "weights,n", [((1.0, 1e6, 1e12), 60), ((1.0, 1e6, 1e12), 100), ((1.0, 1e7, 1e14), 40)]
)
def test_numeric_rows_sum_to_one_at_extreme_ratios(weights, n):
    # raw killing rates of mixed power orders reach such ratios; the
    # pivoted LU of the whole non-Dirac block lost the row sums on these
    table = committor_numeric(list(weights), n)
    assert np.abs(table.psi.sum(axis=1) - 1.0).max() <= 1e-12
    assert table.psi.min() >= 0.0
    k = np.arange(n + 1)
    for x, y in itertools.combinations(range(3), 2):
        g = gamblers_ruin_committor(n, weights[y] / weights[x])
        counts = np.zeros((n + 1, 3), dtype=np.int64)
        counts[:, x], counts[:, y] = k, n - k
        rows = table.psi[table.space.ranks(counts)]
        assert np.abs(rows[:, x] - g).max() <= 1e-12
        assert np.abs(rows[:, y] - (1.0 - g)).max() <= 1e-12


@pytest.mark.parametrize("n", [2, 10, 60, 100])
@pytest.mark.parametrize("alpha", [1e-12, 1e-6, 1e6, 1e12])
def test_numeric_two_sites_at_extreme_ratios(n, alpha):
    table = committor_numeric([1.0, alpha], n)
    g = gamblers_ruin_committor(n, alpha)
    k = np.arange(n + 1)
    rows = table.psi[table.space.ranks(np.stack([k, n - k], axis=1))]
    assert np.abs(rows[:, 0] - g).max() <= 1e-12
    assert np.abs(rows[:, 1] - (1.0 - g)).max() <= 1e-12
