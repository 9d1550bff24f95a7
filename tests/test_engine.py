"""Stochastic engine: exactness, determinism, and conservation laws."""

from __future__ import annotations

import hashlib
import math
import pickle
from dataclasses import fields
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvlab import (
    EmpiricalMeasure,
    EventCapError,
    Model,
    ModelError,
    gamblers_ruin_committor,
    simulate_fv,
    simulate_selection_absorption,
    validate_model,
)
from fvlab import engine
from fvlab.engine import _DUEL_BLOCK_MIN, _DUEL_SCALAR, DEFAULT_EVENT_CAP, _run_replicas, _Runs

from conftest import cycle_model_config, two_site_config
from reference_engine import _simulate as reference_simulate


def events(traj):
    """The recorded events as ``(time, kind, source, target)`` tuples, the
    reference loop's form."""
    times, sources, targets, kinds = traj.columns
    return list(zip(times, kinds, sources, targets))


def replay(traj):
    """Re-derive the final counts by applying the recorded events."""
    counts = list(traj.initial.counts)
    for _, _, src, tgt in events(traj):
        counts[src] -= 1
        counts[tgt] += 1
    return tuple(counts)


# ---------------------------------------------------------- EmpiricalMeasure


def test_measure_accessors():
    # any sequence of Python or numpy integers is stored as a tuple of ints
    for counts in ([2, 0, 3], (2, 0, 3), np.array([2, 0, 3]), [np.int64(2), np.int32(0), 3]):
        m = EmpiricalMeasure(counts)
        assert m.counts == (2, 0, 3)
        assert all(type(c) is int for c in m.counts)
        assert m.n == 5


def test_measure_dirac_constructor():
    m = EmpiricalMeasure.dirac(3, 1, 7)
    assert m.counts == (0, 7, 0)
    assert m.n == 7
    assert EmpiricalMeasure.dirac(3, np.int64(2), 7).counts == (0, 0, 7)


@pytest.mark.parametrize("site", [-1, 3, True, 1.0, None], ids=["negative", "past-end", "bool", "float", "none"])
def test_measure_dirac_site_is_range_checked(site):
    # -1 used to put the mass on the last site, True and 1.0 on site 1
    with pytest.raises(ValueError, match=r"site index must be an integer in \[0, 3\)"):
        EmpiricalMeasure.dirac(3, site, 5)


def test_measure_rejects_invalid():
    cases = [
        ([2, -1], "negative count"),
        ([1, 0], "at least two particles"),
        ([2.7, 1], "must be integers"),  # used to truncate to (2, 1)
        ((1.5, 2.0), "must be integers"),  # used to run the engine with n = 3.5
        ([2.0, 1], "must be integers"),
        (np.array([2.0, 1.0]), "must be integers"),
        ([True, 2], "must be integers"),
        ([np.bool_(True), 2], "must be integers"),
        (["2", 1], "must be integers"),
    ]
    for counts, match in cases:
        with pytest.raises(ValueError, match=match):
            EmpiricalMeasure(counts)


# ------------------------------------------------------------- trajectories


def test_trajectory_determinism(cycle_model):
    init = EmpiricalMeasure([3, 2, 1])
    a = simulate_fv(cycle_model, 10.0, init, 1.0, np.random.default_rng(7))
    b = simulate_fv(cycle_model, 10.0, init, 1.0, np.random.default_rng(7))
    assert a.final_counts == b.final_counts
    assert a.event_count == b.event_count
    assert a.columns == b.columns


def test_trajectory_event_replay_conserves_particles(cycle_model):
    init = EmpiricalMeasure([4, 1, 1])
    traj = simulate_fv(cycle_model, 5.0, init, 2.0, np.random.default_rng(11))
    assert traj.event_count == len(traj.columns[0])
    assert replay(traj) == traj.final_counts
    assert sum(traj.final_counts) == init.n


def test_trajectory_times_strictly_increasing(cycle_model):
    init = EmpiricalMeasure([2, 2, 2])
    traj = simulate_fv(cycle_model, 8.0, init, 1.5, np.random.default_rng(3))
    times = traj.columns[0]
    assert all(a < b for a, b in zip(times, times[1:]))
    assert all(0.0 < t <= traj.horizon for t in times)


def test_trajectory_record_off_same_final(cycle_model):
    init = EmpiricalMeasure([3, 2, 1])
    on = simulate_fv(cycle_model, 10.0, init, 1.0, np.random.default_rng(42))
    off = simulate_fv(
        cycle_model, 10.0, init, 1.0, np.random.default_rng(42), record=False
    )
    assert off.columns == ([], [], [], [])
    assert off.final_counts == on.final_counts
    assert off.event_count == on.event_count


def test_trajectory_frozen_regression(cycle_model):
    # pinned realization so sampler changes are caught deliberately
    init = EmpiricalMeasure([4, 0, 0])
    traj = simulate_fv(cycle_model, 100.0, init, 0.5, np.random.default_rng(20260815))
    assert traj.event_count == 18
    assert traj.final_counts == (0, 4, 0)
    assert traj.columns[0][0] == pytest.approx(0.1377609075769161, abs=1e-15)


def test_trajectory_rejects_bad_inputs(cycle_model):
    init = EmpiricalMeasure([3, 2, 1])
    with pytest.raises(ValueError):
        simulate_fv(cycle_model, 1.0, init, 0.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        simulate_fv(
            cycle_model, 1.0, EmpiricalMeasure([2, 2]), 1.0,
            np.random.default_rng(0),
        )


def test_selection_moves_only_to_occupied_sites(cycle_model):
    init = EmpiricalMeasure([3, 3, 0])
    traj = simulate_fv(cycle_model, 50.0, init, 0.3, np.random.default_rng(5))
    counts = list(init.counts)
    for _, kind, src, tgt in events(traj):
        if kind == "selection":
            assert counts[tgt] > 0  # duplicated onto a live particle
            assert src != tgt
        counts[src] -= 1
        counts[tgt] += 1
        assert min(counts) >= 0


def test_max_mass_integral_matches_manual_recompute(cycle_model):
    init = EmpiricalMeasure([2, 2, 2])
    traj = simulate_fv(cycle_model, 10.0, init, 1.0, np.random.default_rng(9))
    times, values = traj.occupancy_path()
    seg = np.diff(np.append(times, traj.horizon))
    manual = float(seg @ (2.0 * (1.0 - values.max(axis=1))))
    assert traj.max_mass_integral() == pytest.approx(manual, rel=1e-12)
    assert traj.max_mass_integral() >= 0.0


def replay_occupancy_path(traj):
    """The per-event replay ``occupancy_path`` and ``max_mass_integral``
    used before the cumulative sum, kept as the bit reference; the
    integral sums the one path with ``_path_stats``' reduction, a
    ``np.add.reduceat`` from its first row."""
    times = [0.0]
    rows = [np.asarray(traj.initial.counts, dtype=float) / traj.initial.n]
    counts = list(traj.initial.counts)
    n = traj.initial.n
    for t, _, src, tgt in events(traj):
        counts[src] -= 1
        counts[tgt] += 1
        times.append(t)
        rows.append(np.asarray(counts, dtype=float) / n)
    times, values = np.asarray(times), np.asarray(rows)
    seg = np.diff(np.append(times, traj.horizon))
    return times, values, float(np.add.reduceat(seg * (2.0 * (1.0 - values.max(axis=1))), [0])[0])


@pytest.mark.parametrize(
    "counts,r,T,seed",
    [
        ([2, 2, 2], 10.0, 1.0, 9),
        ([3, 2, 1], 5.0, 2.0, 2),
        ([10, 0, 0], 1e3, 1.0, 11),
        ([40, 0, 0], 1e4, 0.5, 3),
        ([1, 6, 0], 1.0, 3.0, 7),
    ],
)
def test_occupancy_path_bit_identical_to_replay(cycle_model, counts, r, T, seed):
    init = EmpiricalMeasure(counts)
    traj = simulate_fv(cycle_model, r, init, T, np.random.default_rng(seed))
    assert traj.event_count
    times, values = traj.occupancy_path()
    ref_times, ref_values, ref_integral = replay_occupancy_path(traj)
    assert times.dtype == ref_times.dtype and values.dtype == ref_values.dtype
    assert times.tobytes() == ref_times.tobytes()
    assert values.shape == ref_values.shape and values.tobytes() == ref_values.tobytes()
    assert traj.max_mass_integral() == ref_integral


def _pinned_paths():
    """The concatenated recorded columns of five replicas from [40, 0, 0]
    to T = 1, with 0 to 216 events: slow mutation (q = 0.05) at r = 10,
    then the power cycle's own (q = 1) at r = 1000."""
    columns, rows = ([], [], []), []
    for q, r, seed in [(0.05, 10.0, 4), (0.05, 10.0, 1), (0.05, 10.0, 3), (1.0, 1e3, 7), (1.0, 1e3, 1)]:
        model = validate_model(cycle_model_config(q=q))
        traj = simulate_fv(model, r, EmpiricalMeasure([40, 0, 0]), 1.0, np.random.default_rng(seed))
        for column, recorded in zip(columns, traj.columns):
            column.extend(recorded)
        rows.append(traj.event_count)
    return columns, rows


def test_path_stats_bits_pinned():
    # _path_stats sums with np.add.reduceat and calls no BLAS, so these bits
    # hold under every OpenBLAS kernel
    columns, rows = _pinned_paths()
    assert rows == [0, 2, 22, 216, 176]  # the pairwise sum recurses past 128 rows
    integrals, occupation = engine._path_stats(*columns, rows, (40, 0, 0), 1.0)
    digest = hashlib.sha256(np.array(integrals).tobytes() + occupation.tobytes()).hexdigest()
    assert digest == "5a98a759066c36a5d54b8d30555a394bd57b574d501e9e749da6e951c5119606"


def test_occupancy_path_of_eventless_dirac_is_one_row():
    model = uplus_cycle_model()
    frozen = validate_model(dict(model.config_dict(), mutation=[]))
    traj = simulate_fv(frozen, 10.0, EmpiricalMeasure.dirac(3, 1, 5), 1.0, np.random.default_rng(4))
    assert traj.event_count == 0
    times, values = traj.occupancy_path()
    ref_times, ref_values, ref_integral = replay_occupancy_path(traj)
    assert times.tobytes() == ref_times.tobytes() and values.tobytes() == ref_values.tobytes()
    assert values.shape == (1, 3)
    assert traj.max_mass_integral() == ref_integral == 0.0


def test_max_mass_integral_zero_for_frozen_dirac():
    model = validate_model(
        {
            "states": ["a", "b"],
            "mutation": [],
            "killing": {"kind": "power", "c": {"a": 1.0, "b": 1.0},
                        "beta": {"a": "1", "b": "1"}},
        }
    )
    init = EmpiricalMeasure.dirac(2, 0, 5)
    traj = simulate_fv(model, 100.0, init, 2.0, np.random.default_rng(1))
    assert traj.event_count == 0  # Dirac with no mutation exits is absorbing
    assert traj.max_mass_integral() == 0.0


def per_split_duel_rows(n, inv_nm1, la, lb, ea, eb):
    """The duel's mutation, death-at-a and total rate rows as a Python loop
    over the splits, one expression per entry; the mutation rate is +inf
    where the total is 0.0, so that such a split reads as a mutation."""
    rm_tab, kill_a_tab, total_tab = [0.0] * (n + 1), [0.0] * (n + 1), [0.0] * (n + 1)
    for ka in range(1, n):
        kb = n - ka
        r_mut = 0.0 + ka * ea + kb * eb
        kill_a = ka * la * kb
        r_sel = (0.0 + kill_a + kb * lb * ka) * inv_nm1
        rm_tab[ka] = r_mut
        kill_a_tab[ka] = kill_a * inv_nm1
        total_tab[ka] = r_mut + r_sel
    return [np.inf if total == 0.0 else rm for rm, total in zip(rm_tab, total_tab)], kill_a_tab, total_tab


def oracle_cuts(n, la, lb, ea, eb):
    """``(cuts, rows)``: the per-split rows and their thresholds."""
    rows = per_split_duel_rows(n, 1.0 / (n - 1), la, lb, ea, eb)
    return engine._duel_thresholds(*np.array(rows)), rows


def assert_duel_equals_the_per_split_expressions(n, la, lb, ea, eb):
    # the memo would answer a float64 pair with the tables of an equal float pair
    total_tab, mu_tab, tau_tab, totals, cuts, p_a = engine._duel.__wrapped__(n, la, lb, ea, eb)
    want_cuts, (_, _, want_totals) = oracle_cuts(n, la, lb, ea, eb)
    assert totals.shape == (n + 1,) and cuts.shape == (2, n + 1)
    assert total_tab == totals.tolist() and [mu_tab, tau_tab] == cuts.tolist()
    assert [float.hex(v) for v in total_tab] == [float.hex(float(v)) for v in want_totals]
    assert cuts.tobytes() == want_cuts.tobytes()
    # a split with no rate reads as a mutation: 2.0, above every uniform, exactly where the total is 0.0
    ended = totals == 0.0
    assert ended.tolist() == [k in (0, n) for k in range(n + 1)]
    assert [float.hex(v) for v in cuts[:, ended].ravel().tolist()] == [float.hex(2.0)] * 4
    assert float.hex(float(p_a)) == float.hex(float(la / (la + lb)))


@pytest.mark.parametrize("exits", [(0.0, 0.0), (0.0, 0.5), (1.0 / 3.0, 3.7)], ids=["no-exit", "b-exit", "both-exit"])
@pytest.mark.parametrize("rate_type", [float, np.float64], ids=["float", "float64"])
@pytest.mark.parametrize("n", [2, 3, 10, 100, 1000])
def test_duel_tables_equal_the_per_split_expressions(n, rate_type, exits):
    # rates as the kernel gets them: a uniform_plus and a power-law site
    la, lb = rate_type(1e4 + 2.5), rate_type(1.3 * 1e4**1.5)
    assert_duel_equals_the_per_split_expressions(n, la, lb, *exits)


def assert_thresholds_decide(cuts, rows):
    """At each live split's thresholds, and at the double below each, the
    generic step's float expressions over ``rows`` decide as the
    thresholds say, so these are the least such doubles; a split with no
    rate reads 2.0, above every uniform."""
    for k, (rm, kill_a, total) in enumerate(zip(*rows)):
        mu, tau = cuts[:, k].tolist()
        if total == 0.0:
            assert mu == tau == 2.0
            continue
        assert 0.0 <= mu <= tau
        for u in (mu, np.nextafter(mu, 0.0), tau, np.nextafter(tau, 0.0)):
            if u < 1.0:  # a uniform never reaches 1
                x = float(u) * total
                got = "mutation" if x < rm else "a" if (x - rm) - kill_a < 0.0 else "b"
                assert got == ("mutation" if u < mu else "a" if u < tau else "b"), (k, u)


@given(
    n=st.integers(min_value=2, max_value=200),
    rates=st.tuples(st.floats(1e-2, 1e6), st.floats(1e-2, 1e6)),
    exits=st.tuples(st.just(0.0) | st.floats(1e-2, 1e6), st.just(0.0) | st.floats(1e-2, 1e6)),
    rate_type=st.sampled_from([float, np.float64]),
)
@settings(max_examples=200, deadline=None)
def test_duel_thresholds_decide_as_the_float_expressions(n, rates, exits, rate_type):
    la, lb = map(rate_type, rates)
    cuts, rows = oracle_cuts(n, la, lb, *exits)
    assert cuts.shape == (2, n + 1) and cuts.dtype == np.float64
    assert cuts[:, [0, n]].tolist() == [[2.0, 2.0], [2.0, 2.0]]  # the duel is over
    assert_thresholds_decide(cuts, rows)
    assert_duel_equals_the_per_split_expressions(n, la, lb, *exits)


@pytest.mark.parametrize(
    "la, lb, ea, eb", [(1e-6, 2e-6, 1e-315, 0.0), (1e-3, 1e-3, 3e-318, 5e-324), (1e-8, 1e-8, 0.0, 2e-316)]
)
def test_duel_thresholds_far_from_their_first_guess(la, lb, ea, eb):
    # a subnormal mutation rate under a small total makes x = u * total
    # subnormal while u is not, so many doubles u round to one x and mu
    # lies far past the doubles tried first around rm / total
    n = 50
    cuts, rows = oracle_cuts(n, la, lb, ea, eb)
    rm, _, total = np.array(rows)
    guess = (rm[1:n] / total[1:n]).view(np.int64)
    assert (np.abs(cuts[0, 1:n].view(np.int64) - guess) > 100).any()
    assert_thresholds_decide(cuts, rows)
    assert_duel_equals_the_per_split_expressions(n, la, lb, ea, eb)


def test_duel_thresholds_read_a_zero_total_split_as_a_mutation():
    # _duel's rows hold 0.0 mutation and death rates where the total is
    # 0.0; a split with no rate must read 2.0 for both thresholds whatever
    # mutation or death rate its rows hold, next to a live split
    rm = [0.0, 0.5, 3.0, 0.0, 1e-310, 1.0, np.inf]
    kill_a = [0.0, 0.0, 1.0, 2.0, 0.0, 1.0, 0.0]
    total = [0.0, 0.0, 0.0, 0.0, 0.0, 4.0, 0.0]
    cuts = engine._duel_thresholds(*np.array([rm, kill_a, total]))
    dead = [k for k, t in enumerate(total) if t == 0.0]
    assert [float.hex(v) for v in cuts[:, dead].ravel().tolist()] == [float.hex(2.0)] * (2 * len(dead))
    assert cuts[:, 5].tolist() == [0.25, 0.5]


# ------------------------------------------------------------------ capping


def test_event_cap_error_fields(cycle_model):
    init = EmpiricalMeasure([3, 2, 1])
    with pytest.raises(EventCapError) as exc:
        simulate_fv(
            cycle_model, 10.0, init, 1.0, np.random.default_rng(0), event_cap=5
        )
    err = exc.value
    assert err.cap == 5
    assert err.time > 0.0
    assert sum(err.counts) == 6
    assert "event cap 5 exceeded" in str(err)


def test_default_event_cap_ends_a_runaway_duel():
    # two sites that mutate into each other never absorb, and the horizon is
    # out of reach: only the default cap ends the run (about 5 s of duels)
    model = validate_model(
        {
            "states": ["x", "y"],
            "mutation": [{"from": "x", "to": "y", "rate": 1.0}, {"from": "y", "to": "x", "rate": 1.0}],
            "killing": {"kind": "power", "c": {"x": 1.0, "y": 1.0}, "beta": {"x": "1", "y": "1"}},
        }
    )
    init = EmpiricalMeasure([25, 25])
    with pytest.raises(EventCapError) as exc:
        simulate_fv(model, 1e3, init, 1e12, np.random.default_rng(0), record=False)
    assert exc.value.cap == DEFAULT_EVENT_CAP <= 10**7


# --------------------------------------------------------------- absorption


def test_absorption_dirac_short_circuit(two_site):
    init = EmpiricalMeasure.dirac(2, 1, 6)
    res = simulate_selection_absorption(two_site, 1.0, init, np.random.default_rng(0))
    assert res == (0.0, "y", 0)


def test_absorption_dirac_start_returns_from_the_event_loop(cycle_model):
    # no shortcut: the loop finds zero selection rate at its first step,
    # before that step draws the first refill, so the replica's generator
    # is left untouched
    for site, label in enumerate(cycle_model.states):
        rng = np.random.default_rng(3)
        init = EmpiricalMeasure.dirac(3, site, 5)
        res = simulate_selection_absorption(cycle_model, 1.0e3, init, rng)
        assert res == (0.0, label, 0)
        assert type(res.tau) is float
        assert rng.random() == np.random.default_rng(3).random()


def test_absorption_reaches_dirac_and_reports_site(two_site):
    init = EmpiricalMeasure([3, 3])
    rng = np.random.default_rng(17)
    for _ in range(50):
        res = simulate_selection_absorption(two_site, 1.0, init, rng)
        assert res.site in two_site.states
        assert res.tau > 0.0
        assert res.event_count >= 3  # at least the losing side's particles die


def test_absorption_ignores_mutation(cycle_model):
    # selection-only dynamics absorb even though the mutation kernel is ergodic
    init = EmpiricalMeasure([2, 2, 2])
    res = simulate_selection_absorption(
        cycle_model, 1.0, init, np.random.default_rng(23)
    )
    assert res.site in cycle_model.states


def test_absorption_frequency_matches_committor():
    model = validate_model(two_site_config(alpha=2.0))
    n, alpha = 5, 2.0
    hold = gamblers_ruin_committor(n, alpha)[n - 1]
    init = EmpiricalMeasure([n - 1, 1])
    rng = np.random.default_rng(20260815)
    M = 4000
    hits = sum(
        simulate_selection_absorption(model, 1.0, init, rng).site == "x"
        for _ in range(M)
    )
    se = np.sqrt(hold * (1 - hold) / M)
    assert abs(hits / M - hold) <= 3 * se


def test_absorption_time_scales_inversely_with_killing_floor():
    # doubling every killing rate halves the absorption clock exactly in law;
    # check the sample means with a generous tolerance
    slow = validate_model(two_site_config(alpha=1.0))
    fast = validate_model(
        {
            "states": ["x", "y"],
            "mutation": [],
            "killing": {"kind": "power", "c": {"x": 10.0, "y": 10.0},
                        "beta": {"x": "1", "y": "1"}},
        }
    )
    init = EmpiricalMeasure([3, 3])
    M = 2000
    rng = np.random.default_rng(99)
    mean_slow = np.mean(
        [simulate_selection_absorption(slow, 1.0, init, rng).tau for _ in range(M)]
    )
    rng = np.random.default_rng(99)
    mean_fast = np.mean(
        [simulate_selection_absorption(fast, 1.0, init, rng).tau for _ in range(M)]
    )
    assert mean_slow / mean_fast == pytest.approx(10.0, rel=1e-9)


# ------------------------------------------------------- property invariants


@given(
    counts=st.lists(st.integers(min_value=0, max_value=4), min_size=3, max_size=3)
    .filter(lambda c: sum(c) >= 2),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_engine_invariants(counts, seed):
    model = validate_model(cycle_model_config())
    init = EmpiricalMeasure(counts)
    traj = simulate_fv(model, 5.0, init, 0.5, np.random.default_rng(seed))
    running = list(init.counts)
    prev_t = 0.0
    for t, kind, src, tgt in events(traj):
        assert prev_t < t <= traj.horizon
        assert kind in ("mutation", "selection")
        assert src != tgt
        assert running[src] > 0
        running[src] -= 1
        running[tgt] += 1
        prev_t = t
    assert tuple(running) == traj.final_counts
    assert sum(running) == init.n


# ------------------------------------------------- two-site duel fast path


def uplus_cycle_model():
    return validate_model(
        {
            "states": ["a", "b", "c"],
            "mutation": [
                {"from": "a", "to": "b", "rate": 1.0},
                {"from": "b", "to": "c", "rate": 1.0},
                {"from": "c", "to": "a", "rate": 1.0},
            ],
            "killing": {"kind": "uniform_plus", "m": {"a": 0.0, "b": 1.0, "c": 2.0}},
        }
    )


def test_duel_regime_trajectory_pinned():
    # values from the reference event loop, which has no duel step or block
    init = EmpiricalMeasure.dirac(3, 0, 100)
    traj = simulate_fv(
        uplus_cycle_model(), 1e5, init, 1.0, np.random.default_rng(20261017)
    )
    assert traj.event_count == 2714
    assert traj.final_counts == (100, 0, 0)
    assert events(traj)[-1] == (0.950068307438291, "selection", 1, 0)


def test_duel_regime_absorption_pinned():
    init = EmpiricalMeasure([30, 70, 0])
    res = simulate_selection_absorption(
        uplus_cycle_model(), 1e3, init, np.random.default_rng(5)
    )
    assert res == (0.14177787030786487, "a", 5980)


def _simulate(
    model, r, init, T, rng, selection_only=False, snapshot_times=(), record=True, event_cap=DEFAULT_EVENT_CAP
):
    """One replica through the engine's event loop, returned as
    ``(time, counts, columns, n_events, snapshots)``, with one
    ``(counts, n_events)`` pair per snapshot time.  The loop's stops are
    the snapshot times, then the horizon ``T`` (``math.inf`` for None)
    unless it is the last of them; its last snapshot is the final state.
    ``selection_only`` runs the loop on ``model.without_mutation``, the
    engine's one way to the selection-only dynamics; the reference loop
    keeps its own mode, so comparing the two checks the model against
    the mode."""
    horizon = math.inf if T is None else T
    stops = [*snapshot_times] if snapshot_times and snapshot_times[-1] == horizon else [*snapshot_times, horizon]
    runs = _Runs()
    model = model.without_mutation if selection_only else model
    _run_replicas(model, r, init.counts, stops, (rng,), runs, record=record, event_cap=event_cap)
    d = len(init.counts)
    snaps = [(tuple(runs.snaps[j * d:(j + 1) * d]), m) for j, m in enumerate(runs.snap_events)]
    final, n_events = snaps[-1]
    return runs.times[0], list(final), runs.columns, n_events, snaps[:len(snapshot_times)]


def live_simulate(**kwargs):
    """``_simulate`` with its recorded columns zipped into the reference
    loop's ``(time, kind, source, target)`` list, so the two return values
    compare whole."""
    t, counts, (times, sources, targets, kinds), n_events, snaps = _simulate(**kwargs)
    return t, counts, list(zip(times, kinds, sources, targets)), n_events, snaps


def outcome(simulate, seed, case):
    """Run one event loop, folding a cap abort into a comparable value.

    Returns ``(time, counts, events, n_events)``; the live loop's
    snapshots, which the reference loop does not take, are left out.
    """
    try:
        return simulate(rng=np.random.default_rng(seed), **case)[:4]
    except EventCapError as err:
        return ("cap", err.cap, err.time, err.counts)


@st.composite
def engine_cases(draw):
    d = draw(st.integers(min_value=2, max_value=4))
    states = [f"s{i}" for i in range(d)]
    rate = st.sampled_from([0.1, 1.0 / 3.0, 1.0, 3.7])
    mutation = [
        {"from": states[i], "to": states[j], "rate": draw(rate)}
        for i in range(d)
        for j in range(d)
        if i != j and draw(st.booleans())
    ]
    if draw(st.booleans()):
        killing = {
            "kind": "power",
            "c": {s: draw(st.sampled_from([0.5, 1.0, 1.3, 2.0])) for s in states},
            "beta": {s: draw(st.sampled_from(["1/2", "1", "3/2", "2"])) for s in states},
        }
    else:
        killing = {
            "kind": "uniform_plus",
            "m": {s: draw(st.sampled_from([0.0, 1.0, 2.5])) for s in states},
        }
    model = validate_model({"states": states, "mutation": mutation, "killing": killing})
    # mostly one or two occupied sites, so duels start from the first event
    support = draw(
        st.lists(st.integers(0, d - 1), min_size=1, max_size=3, unique=True)
    )
    n = draw(st.integers(min_value=2, max_value=40))
    picks = draw(st.lists(st.sampled_from(support), min_size=n, max_size=n))
    counts = [picks.count(i) for i in range(d)]
    selection_only = draw(st.booleans())
    event_cap = draw(st.sampled_from([3, 200, 10**9]))
    # without a horizon the full dynamics may stop only at the cap, so keep it low
    if selection_only or event_cap < 10**9:
        T = draw(st.none() | st.sampled_from([0.01, 0.3, 1.0]))
    else:
        T = draw(st.sampled_from([0.01, 0.3, 1.0]))
    # snapshot times up to the horizon, or past absorption when there is none
    grid = [0.001, 0.05, 0.3, 1.0] if T is None else [f * T for f in (0.1, 0.25, 0.5, 0.999, 1.0)]
    return dict(
        model=model,
        r=draw(st.sampled_from([1.0, 10.0, 1e3, 1e5])),
        init=EmpiricalMeasure(counts),
        T=T,
        selection_only=selection_only,
        record=draw(st.booleans()),
        event_cap=event_cap,
        snapshot_times=sorted(draw(st.sets(st.sampled_from(grid)))),
    )


def replay_until(init, events, s):
    """Counts and events so far at time ``s`` of a recorded path."""
    counts = list(init.counts)
    done = [ev for ev in events if ev[0] <= s]
    for _, _, src, tgt in done:
        counts[src] -= 1
        counts[tgt] += 1
    return tuple(counts), len(done)


def assert_bit_identical_to_reference(case, seed):
    """The live loop's outcome is the reference loop's, and each snapshot
    is the state of the same seed's recorded path at its time."""
    times = case.pop("snapshot_times")
    want = outcome(reference_simulate, seed, case)
    assert outcome(live_simulate, seed, dict(case, snapshot_times=times)) == want
    if want[0] == "cap":
        return
    snaps = _simulate(rng=np.random.default_rng(seed), **case, snapshot_times=times)[4]
    _, _, events, _ = reference_simulate(rng=np.random.default_rng(seed), **dict(case, record=True))
    assert snaps == [replay_until(case["init"], events, s) for s in times]


@given(case=engine_cases(), seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_event_loop_bit_identical_to_reference(case, seed):
    assert_bit_identical_to_reference(case, seed)


@st.composite
def dirac_end_cases(draw):
    """Short duels among three sites that each mutate to both others, at
    mutation rates within about 10x of the killing rates: a duel often
    ends in a Dirac mass whose next mutation goes back into the pair (a
    duel step) or to the third site (the generic step's)."""
    states = ["a", "b", "c"]
    rate = st.sampled_from([0.5, 1.0, 2.0])
    mutation = [{"from": x, "to": y, "rate": draw(rate)} for x in states for y in states if x != y]
    killing = {
        "kind": "power",
        "c": {s: draw(st.sampled_from([0.5, 1.0, 2.0])) for s in states},
        "beta": {s: "1" for s in states},
    }
    n = draw(st.integers(min_value=2, max_value=6))
    ka = draw(st.integers(min_value=0, max_value=n))
    T = draw(st.sampled_from([0.3, 1.0, 3.0]))
    return dict(
        model=validate_model({"states": states, "mutation": mutation, "killing": killing}),
        r=draw(st.sampled_from([1.0, 3.0, 10.0])),
        init=EmpiricalMeasure([ka, n - ka, 0]),
        T=T,
        record=draw(st.booleans()),
        event_cap=draw(st.just(10**9) | st.integers(min_value=2, max_value=60)),
        snapshot_times=sorted(draw(st.sets(st.sampled_from([f * T for f in (0.1, 0.25, 0.5, 0.999)])))),
    )


@given(case=dirac_end_cases(), seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_dirac_end_mutations_bit_identical_to_reference(case, seed):
    assert_bit_identical_to_reference(case, seed)


def dirac_end_mutations(init, events):
    """``(i, back)`` for each event i that is a mutation out of a Dirac mass
    which a selection from a two-site support has just reached: ``back``
    when its target is the site that died out, the pair's other site."""
    counts, n = list(init.counts), init.n
    found, duel = [], False
    for i, (_, kind, src, tgt) in enumerate(events):
        if kind == "mutation" and i and events[i - 1][1] == "selection" and duel and counts[src] == n:
            found.append((i, tgt == events[i - 1][2]))
        duel = len(counts) - counts.count(0) == 2
        counts[src] -= 1
        counts[tgt] += 1
    return found


def dirac_end_model():
    """a and b mutate to each other and to c; c has no mutation exit."""
    return validate_model(
        {
            "states": ["a", "b", "c"],
            "mutation": [
                {"from": "a", "to": "b", "rate": 1.0},
                {"from": "a", "to": "c", "rate": 0.5},
                {"from": "b", "to": "a", "rate": 2.0},
                {"from": "b", "to": "c", "rate": 0.5},
            ],
            "killing": {"kind": "power", "c": {"a": 1.0, "b": 2.0, "c": 0.5}, "beta": {"a": "1", "b": "1", "c": "1"}},
        }
    )


# hand-off: the seed whose reference path at n = 4, r = 3, T = 2 reaches it
DIRAC_END_SEEDS = {"stop": 0, "cap": 5, "refill": 234, "third-site": 0, "zero-exit": 1}


@pytest.mark.parametrize("hand_off", list(DIRAC_END_SEEDS))
def test_dirac_end_hand_offs_match_the_reference(hand_off):
    # Each case reaches one way out of the duel's step at a Dirac end: a
    # stop crossed by the condensate's waiting time, the cap landing on
    # its mutation back into the pair, that mutation drawing a refill
    # (event 21 reads the second refill), a mutation to the third site,
    # and a Dirac site with no mutation exit.
    seed = DIRAC_END_SEEDS[hand_off]
    init = EmpiricalMeasure([4, 0, 0])
    case = dict(model=dirac_end_model(), r=3.0, init=init, T=2.0)
    _, final, path, _ = reference_simulate(rng=np.random.default_rng(seed), **case)
    times = []
    ends = dirac_end_mutations(init, path)
    back = [i for i, b in ends if b]
    if hand_off == "stop":
        i = back[0]
        times = [(path[i - 1][0] + path[i][0]) / 2]
    elif hand_off == "cap":
        case["event_cap"] = back[0] + 1
    elif hand_off == "refill":
        assert 21 in back
    elif hand_off == "third-site":
        assert any(not b for _, b in ends)
    else:
        assert final == [0, 0, 4] and path[-1][1] == "selection"
    for record in (True, False):
        assert_bit_identical_to_reference(dict(case, record=record, snapshot_times=times), seed)


def longest_duel(init, events):
    """The most consecutive selection steps taken from a two-site support:
    the longest run the event loop spends in its duel step."""
    counts = list(init.counts)
    run = best = 0
    for _, kind, src, tgt in events:
        if kind == "selection" and len(counts) - counts.count(0) == 2:
            run += 1
            best = max(best, run)
        else:
            run = 0
        counts[src] -= 1
        counts[tgt] += 1
    return best


@st.composite
def long_duel_cases(draw):
    """Duels from a near-even split at n >= 40, long enough to reach blocks."""
    n = draw(st.integers(min_value=40, max_value=150))
    r = draw(st.sampled_from([1e3, 1e4, 1e5]))
    ka = draw(st.integers(min_value=n // 2 - 2, max_value=n // 2 + 2))
    if draw(st.booleans()):
        model, counts = uplus_cycle_model(), [ka, n - ka, 0]
    else:
        cb = draw(st.sampled_from([1.0, 1.1]))
        model = validate_model(
            {
                "states": ["x", "y"],
                "mutation": [{"from": "x", "to": "y", "rate": 1.0}, {"from": "y", "to": "x", "rate": 0.5}],
                "killing": {"kind": "power", "c": {"x": 1.0, "y": cb}, "beta": {"x": "1", "y": "1"}},
            }
        )
        counts = [ka, n - ka]
    scale = n / r  # about how long a duel from an even split lasts
    selection_only = draw(st.booleans())
    T = None if selection_only else draw(st.sampled_from([scale, 3.0 * scale, 1.0]))
    grid = [f * scale for f in (0.05, 0.2, 0.4, 0.7, 1.5)]
    return dict(
        model=model,
        r=r,
        init=EmpiricalMeasure(counts),
        T=T,
        selection_only=selection_only,
        record=draw(st.booleans()),
        # the first refill with room for a block starts at event 147, so a
        # cap from 300 on can land inside one
        event_cap=draw(st.just(10**9) | st.integers(min_value=300, max_value=2000)),
        snapshot_times=sorted(draw(st.sets(st.sampled_from([s for s in grid if T is None or s <= T]), min_size=1))),
    )


@given(case=long_duel_cases(), seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_duel_blocks_bit_identical_to_reference(case, seed):
    times = case.pop("snapshot_times")
    live = dict(case, snapshot_times=times)

    def run(seed):
        try:
            return live_simulate(rng=np.random.default_rng(seed), **live)
        except EventCapError as err:
            return ("cap", err.cap, err.time, err.counts)

    # A duel at n = 40 can end before its first block: that needs 32 scalar
    # steps and then a refill with room for the smallest block.  Take the
    # first seed from the drawn one whose reference path, up to the cap,
    # holds a duel longer than both and under which the loop runs a block.
    for seed in range(seed, seed + 20):
        with patch.object(engine, "_duel_block", wraps=engine._duel_block) as block:
            got = run(seed)
        path = reference_simulate(
            rng=np.random.default_rng(seed), **dict(case, record=True, event_cap=10**9), max_events=case["event_cap"]
        )[2]
        if block.call_count and longest_duel(case["init"], path) > _DUEL_SCALAR + _DUEL_BLOCK_MIN:
            break
    else:
        pytest.fail("no seed of 20 runs a block")
    capped = got[0] == "cap"
    assert (got if capped else got[:4]) == outcome(reference_simulate, seed, case)
    with patch.object(engine, "_DUEL_SCALAR", 10**18):  # the duel step alone, no block
        assert run(seed) == got
    if not capped:
        assert got[4] == [replay_until(case["init"], path, s) for s in times]


def test_snapshots_after_absorption_repeat_the_dirac():
    # no mutation: the duel ends in a Dirac long before t = 0.5, and every
    # later snapshot holds it with the final event count
    model = validate_model(two_site_config())
    init = EmpiricalMeasure([3, 3])
    times = [1e-6, 0.5, 0.75, 1.0]
    t, counts, _, n_events, snaps = _simulate(model, 1e3, init, 1.0, np.random.default_rng(5), snapshot_times=times)
    assert sorted(counts) == [0, 6] and t < 0.5
    assert snaps == [((3, 3), 0)] + [(tuple(counts), n_events)] * 3


@pytest.mark.parametrize("T", [float("nan"), float("inf"), 0.0])
def test_horizon_must_be_positive_and_finite(cycle_model, T):
    # a low cap: a NaN or infinite horizon used to run on until the cap
    init = EmpiricalMeasure([2, 1, 0])
    with pytest.raises(ValueError, match="horizon must be positive and finite"):
        simulate_fv(cycle_model, 10.0, init, T, np.random.default_rng(0), event_cap=1000)


@pytest.mark.parametrize("r", [float("nan"), float("inf")])
def test_intensity_must_be_finite_before_the_first_event(cycle_model, r):
    init = EmpiricalMeasure([2, 1, 0])
    with pytest.raises(ModelError, match="intensity r must be finite"):
        simulate_fv(cycle_model, r, init, 1.0, np.random.default_rng(0), event_cap=1000)


def test_prepared_kernel_never_goes_stale():
    # The rate records are memoized per (model, r, n) and the duel tables
    # per (n, rates of the pair); alternating the cases that share parts of
    # a key must still reproduce the reference loop bit for bit.
    def model(m_b):
        config = {
            "states": ["a", "b", "c"],
            "mutation": [
                {"from": "a", "to": "b", "rate": 1.0},
                {"from": "b", "to": "c", "rate": 0.5},
                {"from": "c", "to": "a", "rate": 2.0},
            ],
            "killing": {"kind": "uniform_plus", "m": {"a": 0.0, "b": m_b, "c": 2.0}},
        }
        return validate_model(config)

    first, second = model(1.0), model(7.0)  # same sites, different killing
    duel4, duel9 = EmpiricalMeasure([2, 2, 0]), EmpiricalMeasure([3, 6, 0])
    cases = [
        dict(model=first, r=100.0, init=duel4, T=0.5),
        dict(model=second, r=100.0, init=duel4, T=0.5),
        dict(model=first, r=1e4, init=duel4, T=0.5),
        dict(model=first, r=100.0, init=duel9, T=0.5),
        dict(model=first, r=100.0, init=duel9, T=None, selection_only=True),
        dict(model=first, r=1e4, init=duel4, T=None, selection_only=True),
    ]
    outcomes = {}
    for sweep in range(3):
        for k, case in enumerate(cases):
            got = outcome(live_simulate, 41, case)
            assert got == outcome(reference_simulate, 41, case), (sweep, k)
            assert outcomes.setdefault(k, got) == got
    assert len({repr(outcomes[k]) for k in range(4)}) == 4  # the full-dynamics paths all differ


def uplus_cycle8_model():
    """Eight sites on a one-way mutation cycle, offsets 0 to 7: at n = 100,
    r = 10 the particles spread over all of them, so most events reach a
    count vector not met before."""
    states = [f"s{i}" for i in range(8)]
    mutation = [{"from": a, "to": b, "rate": 1.0} for a, b in zip(states, states[1:] + states[:1])]
    killing = {"kind": "uniform_plus", "m": {s: float(i) for i, s in enumerate(states)}}
    return validate_model({"states": states, "mutation": mutation, "killing": killing})


STATE_TABLE_CASES = {
    "d8-n100-r10": lambda: dict(model=uplus_cycle8_model(), r=10.0, init=EmpiricalMeasure.dirac(8, 0, 100), T=1.0),
    "n10-r10-recorded": lambda: dict(
        model=validate_model(cycle_model_config()), r=10.0, init=EmpiricalMeasure.dirac(3, 0, 10), T=1.0
    ),
    "numpy-r": lambda: dict(
        model=validate_model(cycle_model_config()), r=np.float64(100.0), init=EmpiricalMeasure([5, 3, 2]), T=1.0
    ),
    "absorption": lambda: dict(
        model=validate_model(cycle_model_config()), r=100.0, init=EmpiricalMeasure([4, 3, 3]), T=None,
        selection_only=True,
    ),
}


@pytest.mark.parametrize("cap", [None, 2], ids=["default-cap", "cap-2"])
@pytest.mark.parametrize("name", list(STATE_TABLE_CASES))
def test_state_table_is_bounded_and_changes_no_result(name, cap):
    # Each count vector's rates are kept per (model, r, n) and the table is
    # emptied when full; at a cap of 2 it empties many times within each
    # replica, and the loop must still reproduce the reference bit for bit.
    case = STATE_TABLE_CASES[name]()
    limit = engine._STATES if cap is None else cap
    build, sizes = engine._state, []

    def counted(states, *args):
        state = build(states, *args)
        sizes.append(len(states))
        return state

    with patch.object(engine, "_STATES", limit), patch.object(engine, "_state", counted):
        for seed in (3, 4):
            assert outcome(live_simulate, seed, case) == outcome(reference_simulate, seed, case), seed
    assert sizes and max(sizes) <= limit
    if cap is not None:
        assert len(sizes) > 3 * cap  # the table was emptied mid-replica
    if name == "numpy-r":  # int, float and numpy scalar r share one kernel and give one path
        for r in (100, 100.0):
            assert outcome(live_simulate, 3, dict(case, r=r)) == outcome(live_simulate, 3, case)
        kernel = engine._kernel(case["model"], case["r"], case["init"].n)
        assert all(engine._kernel(case["model"], r, case["init"].n) is kernel for r in (100, 100.0))
        assert [type(rate) for rate in kernel[0]] == [float] * 3


def kernel_kept(model, r, n):
    """Whether the engine's memo holds the kernel of (model, r, n): a lookup
    of it hits.  A lookup that misses builds the kernel."""
    hits = engine._kernel.cache_info().hits
    engine._kernel(model, r, n)
    return engine._kernel.cache_info().hits > hits


def test_model_pickles_without_its_kernel_memo():
    # the memo holds every rate table a run built, and a model sent to a
    # worker process used to carry it along; the engine keeps it beside
    # the model, which pickles its fields and its selection-only model alone
    model = uplus_cycle_model()
    size = len(pickle.dumps(model))
    init = EmpiricalMeasure([20, 20, 0])
    traj = simulate_fv(model, 1e3, init, 1.0, np.random.default_rng(2))
    assert kernel_kept(model, 1e3, 40)  # the run filled the memo
    blob = pickle.dumps(model)
    assert len(blob) == size
    copy = pickle.loads(blob)
    assert not kernel_kept(copy, 1e3, 40) and copy.content_hash() == model.content_hash()
    assert simulate_fv(copy, 1e3, init, 1.0, np.random.default_rng(2)).columns == traj.columns
    absorbed = simulate_selection_absorption(model, 1e3, init, np.random.default_rng(2))
    assert kernel_kept(model.without_mutation, 1e3, 40)
    copy = pickle.loads(pickle.dumps(model))
    assert set(vars(copy)) == {*(f.name for f in fields(Model)), "without_mutation"}
    assert not kernel_kept(copy.without_mutation, 1e3, 40)
    assert simulate_selection_absorption(copy, 1e3, init, np.random.default_rng(2)) == absorbed


def test_a_pickled_model_reuses_its_pair_tables():
    # a pool worker unpickles a new model for every chunk; a pair's duel
    # tables depend on n and the pair's rates alone, so the copy's records
    # take them from the process's memo instead of building them again
    model = uplus_cycle_model()
    init = EmpiricalMeasure([20, 20, 0])
    engine._duel.cache_clear()
    traj = simulate_fv(model, 1e3, init, 1.0, np.random.default_rng(2))
    built = engine._duel.cache_info().misses
    copy = pickle.loads(pickle.dumps(model))
    assert simulate_fv(copy, 1e3, init, 1.0, np.random.default_rng(2)).columns == traj.columns
    info = engine._duel.cache_info()
    assert built >= 1 and info.misses == built and info.hits >= built


def test_kernel_memo_is_bounded_and_rebuilds_equal():
    # more distinct (model, r, n) than the memo keeps: it holds the bound's
    # number, and the first kernel, evicted, is rebuilt and reproduces the
    # reference loop bit for bit
    model = uplus_cycle_model()
    bound = engine._kernel.cache_info().maxsize
    first = dict(model=model, r=1e3, init=EmpiricalMeasure([3, 3, 0]), T=0.5)
    want = outcome(reference_simulate, 8, first)
    assert outcome(live_simulate, 8, first) == want
    for n in range(7, 8 + bound):
        simulate_fv(model, 1e3, EmpiricalMeasure([n, 0, 0]), 0.01, np.random.default_rng(0), record=False)
    assert engine._kernel.cache_info().currsize <= bound
    misses = engine._kernel.cache_info().misses
    assert outcome(live_simulate, 8, first) == want
    assert engine._kernel.cache_info().misses == misses + 1  # the kernel was rebuilt
