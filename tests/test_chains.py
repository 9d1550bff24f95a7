"""Condensate chains, the many-particle limit construction, marginals."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from fvlab import (
    RateMatrix,
    condensate_rates,
    conjectured_limit_rates,
    ctmc_marginal,
    exact_law,
    invasion_probability,
    simulate_ctmc,
    validate_model,
)

from conftest import cycle_model_config, dense_expm


# ------------------------------------------------------------ rate matrix


def test_rate_matrix_accessors():
    rm = RateMatrix(("a", "b"), np.array([[0.0, 2.0], [0.5, 0.0]]))
    assert rm.entry("a", "b") == 2.0
    assert rm.entry(1, 0) == 0.5
    assert np.allclose(rm.row_sums(), [2.0, 0.5])
    G = rm.generator()
    assert np.allclose(G.sum(axis=1), 0.0)
    assert G[0, 0] == -2.0


def test_rate_matrix_rejects_diagonal_and_negative():
    with pytest.raises(ValueError):
        RateMatrix(("a", "b"), np.array([[1.0, 2.0], [0.5, 0.0]]))
    with pytest.raises(ValueError):
        RateMatrix(("a", "b"), np.array([[0.0, -2.0], [0.5, 0.0]]))


# -------------------------------------------------------- condensate rates


def test_condensate_rates_frozen_example(cycle_model):
    # alpha(a,b) = 2 at every r: rate = 3 * 1 * (2-1)/(2^3-1) = 3/7
    chain = condensate_rates(cycle_model, 3, None)
    assert chain.entry("a", "b") == pytest.approx(3 / 7, abs=1e-15)
    # alpha(c,a) = 1/4: rate = 3 * (0.25-1)/(0.25^3-1) = 16/7
    assert chain.entry("c", "a") == pytest.approx(16 / 7, abs=1e-14)
    assert chain.entry("b", "a") == 0.0  # no mutation edge, no chain edge


def test_condensate_rates_balanced_reduce_to_q():
    model = validate_model(cycle_model_config(c=(2.0, 2.0, 2.0)))
    chain = condensate_rates(model, 5, None)
    for x, y in (("a", "b"), ("b", "c"), ("c", "a")):
        assert chain.entry(x, y) == pytest.approx(1.0, abs=0)


def test_condensate_rates_match_invasion_identity(cycle_model):
    n = 4
    for r in (None, 10.0, 1e6):
        chain = condensate_rates(cycle_model, n, r)
        for i, j, q in cycle_model.mutation:
            alpha = cycle_model.alpha(i, j, r)
            expected = n * q * invasion_probability(n, alpha)
            assert chain.rates[i, j] == pytest.approx(expected, rel=1e-12)


def test_condensate_rates_extreme_ratios():
    # beta mismatch: ascending edges freeze, descending edges run at n*q
    model = validate_model(cycle_model_config(beta=(1, 2, 1), c=(1.0, 1.0, 1.0)))
    chain = condensate_rates(model, 4, None)
    assert chain.entry("a", "b") == 0.0  # alpha = infinity
    assert chain.entry("b", "c") == pytest.approx(4.0)  # alpha = 0 -> n*q
    assert chain.entry("c", "a") == pytest.approx(1.0)  # balanced


def test_condensate_rates_continuous_near_tie():
    model = validate_model(cycle_model_config(c=(1.0, 1.0 + 1e-13, 1.0)))
    chain = condensate_rates(model, 3, None)
    assert chain.entry("a", "b") == pytest.approx(1.0, rel=1e-9)


def test_condensate_rates_finite_r_uses_r_ratios():
    model = validate_model(cycle_model_config(beta=(1, 2, 1), c=(1.0, 1.0, 1.0)))
    n, r = 3, 10.0
    chain = condensate_rates(model, n, r)
    alpha = 10.0  # lambda(b)/lambda(a) = r^2/r
    expected = n * (alpha - 1.0) / (alpha**n - 1.0)
    assert chain.entry("a", "b") == pytest.approx(expected, rel=1e-12)


# --------------------------------------------------- conjectured limit chain


def azb_config() -> dict:
    return {
        "states": ["a", "z", "b"],
        "mutation": [
            {"from": "a", "to": "z", "rate": 2.0},
            {"from": "z", "to": "b", "rate": 1.0},
        ],
        "killing": {
            "kind": "power",
            "c": {"a": 1.0, "z": 1.0, "b": 1.0},
            "beta": {"a": 2, "z": 2, "b": 1},
        },
    }


def test_conjectured_chain_worked_example():
    analysis, chain = conjectured_limit_rates(validate_model(azb_config()))
    assert analysis.stable_sites == ("a", "b")
    assert chain.states == ("a", "b")
    assert chain.entry("a", "b") == pytest.approx(2.0, abs=0)
    assert analysis.absorption_weights["z"] == {"b": 1.0}
    assert analysis.triggers == {("a", "b"): ("z",)}


def test_conjectured_chain_equal_order_returns_q():
    model = validate_model(cycle_model_config(c=(3.0, 3.0, 3.0), q=1.5))
    analysis, chain = conjectured_limit_rates(model)
    assert analysis.stable_sites == ("a", "b", "c")
    for i, j, q in model.mutation:
        assert chain.rates[i, j] == q
    assert not analysis.triggers


def test_conjectured_chain_unbalanced_prefactors_freeze():
    # equal exponents, unequal prefactors: no ratio is exactly 1, so the
    # chain keeps no direct edges and no cascade triggers
    model = validate_model(cycle_model_config(c=(3.0, 1.0, 2.0)))
    analysis, chain = conjectured_limit_rates(model)
    assert analysis.stable_sites == ("b", "c")
    assert np.all(chain.rates == 0.0)


def test_conjectured_chain_equal_split_between_descent_targets():
    # z descends to two equally-low targets with equal rates: weight 1/2 each
    cfg = {
        "states": ["s", "z", "y1", "y2"],
        "mutation": [
            {"from": "s", "to": "z", "rate": 1.0},
            {"from": "z", "to": "y1", "rate": 1.0},
            {"from": "z", "to": "y2", "rate": 1.0},
        ],
        "killing": {
            "kind": "power",
            "c": {"s": 1.0, "z": 1.0, "y1": 1.0, "y2": 1.0},
            "beta": {"s": 2, "z": 2, "y1": 1, "y2": 1},
        },
    }
    analysis, chain = conjectured_limit_rates(validate_model(cfg))
    assert analysis.absorption_weights["z"] == {"y1": 0.5, "y2": 0.5}
    assert chain.entry("s", "y1") == pytest.approx(0.5)
    assert chain.entry("s", "y2") == pytest.approx(0.5)


def test_conjectured_chain_multi_step_cascade():
    # s -> z1 (balanced) and z1 -> z2 -> y strictly descending orders
    cfg = {
        "states": ["s", "z1", "z2", "y"],
        "mutation": [
            {"from": "s", "to": "z1", "rate": 3.0},
            {"from": "z1", "to": "z2", "rate": 1.0},
            {"from": "z2", "to": "y", "rate": 1.0},
        ],
        "killing": {
            "kind": "power",
            "c": {"s": 1.0, "z1": 1.0, "z2": 1.0, "y": 1.0},
            "beta": {"s": 3, "z1": 3, "z2": 2, "y": 1},
        },
    }
    analysis, chain = conjectured_limit_rates(validate_model(cfg))
    assert analysis.stable_sites == ("s", "y")
    assert chain.entry("s", "y") == pytest.approx(3.0)
    assert analysis.absorption_weights["z1"] == {"y": 1.0}


def test_conjectured_chain_rate_weighted_branching():
    # unequal rates at the branch: weights proportional to q(z, .)
    cfg = {
        "states": ["s", "z", "y1", "y2"],
        "mutation": [
            {"from": "s", "to": "z", "rate": 2.0},
            {"from": "z", "to": "y1", "rate": 3.0},
            {"from": "z", "to": "y2", "rate": 1.0},
        ],
        "killing": {
            "kind": "power",
            "c": {"s": 1.0, "z": 1.0, "y1": 1.0, "y2": 1.0},
            "beta": {"s": 2, "z": 2, "y1": 1, "y2": 1},
        },
    }
    analysis, chain = conjectured_limit_rates(validate_model(cfg))
    assert chain.entry("s", "y1") == pytest.approx(1.5)  # 2 * 3/4
    assert chain.entry("s", "y2") == pytest.approx(0.5)  # 2 * 1/4


def test_conjectured_chain_alt_reading_differs_on_mixed_orders():
    # z's descending neighbours have different orders (beta 1 vs 2, both
    # below z's 3).  The default reading ties them (both ratios are
    # exactly zero in the limit); the literal reading keeps only the
    # lowest order, because y2 has an ascending sibling gap.
    cfg = {
        "states": ["s", "z", "y1", "y2"],
        "mutation": [
            {"from": "s", "to": "z", "rate": 1.0},
            {"from": "z", "to": "y1", "rate": 1.0},
            {"from": "z", "to": "y2", "rate": 1.0},
        ],
        "killing": {
            "kind": "power",
            "c": {"s": 1.0, "z": 1.0, "y1": 1.0, "y2": 1.0},
            "beta": {"s": 3, "z": 3, "y1": 1, "y2": 2},
        },
    }
    model = validate_model(cfg)
    default_analysis, default_chain = conjectured_limit_rates(model)
    assert default_analysis.absorption_weights["z"] == {"y1": 0.5, "y2": 0.5}
    alt_analysis, alt_chain = conjectured_limit_rates(model, alt_reading=True)
    assert alt_analysis.absorption_weights["z"] == {"y1": 1.0}
    assert alt_chain.entry("s", "y1") == pytest.approx(1.0)
    assert default_chain.entry("s", "y2") == pytest.approx(0.5)


def test_conjectured_chain_descent_always_terminates():
    # every unstable site has a strictly lower-order descent target, so
    # cascades terminate even on mutation graphs with cycles
    cfg = {
        "states": ["x", "z", "w"],
        "mutation": [
            {"from": "x", "to": "z", "rate": 1.0},
            {"from": "z", "to": "w", "rate": 1.0},
            {"from": "w", "to": "z", "rate": 1.0},
        ],
        "killing": {
            "kind": "power",
            "c": {"x": 1.0, "z": 1.0, "w": 2.0},
            "beta": {"x": 1, "z": 1, "w": 1},
        },
    }
    analysis, _ = conjectured_limit_rates(validate_model(cfg))
    # w descends (alpha 1/2 toward z); z is stable (alpha 2 toward w)
    assert "z" in analysis.stable_sites and "w" not in analysis.stable_sites
    assert analysis.absorption_weights["w"] == {"z": 1.0}


def test_cascade_json_export_is_serializable():
    import json

    analysis, _ = conjectured_limit_rates(validate_model(azb_config()))
    doc = analysis.to_json_dict()
    json.dumps(doc, allow_nan=False)
    assert doc["stable_sites"] == ["a", "b"]


# ----------------------------------------------------------- ctmc marginal


def test_ctmc_marginal_two_state_closed_form():
    # at mu = 1e6, row sum times t reaches 3e6: a Poisson series would need
    # millions of terms, expm about 20 squarings
    for mu in (1.0, 1e6):
        rm = RateMatrix(("u", "v"), np.array([[0.0, mu], [mu, 0.0]]))
        start = time.perf_counter()
        for t in (0.0, 0.1, 0.5, 1.0, 3.0):
            law = ctmc_marginal(rm, "u", t)
            assert abs(law.prob("u") - (1 + math.exp(-2 * mu * t)) / 2) <= 1e-12
        assert time.perf_counter() - start < 0.5


def test_ctmc_marginal_matches_dense_expm_on_random_models():
    rng = np.random.default_rng(20260815)
    states = tuple("s%d" % i for i in range(5))
    for _ in range(5):
        rates = rng.uniform(0.0, 2.0, size=(5, 5))
        np.fill_diagonal(rates, 0.0)
        rm = RateMatrix(states, rates)
        t = float(rng.uniform(0.1, 2.0))
        P = dense_expm(rm.generator(), t)
        init = rng.dirichlet(np.ones(5))
        law = ctmc_marginal(rm, exact_law(states, init), t)
        assert np.allclose(law.probs, init @ P, atol=1e-10)


def test_ctmc_marginal_t_zero_is_init():
    rm = RateMatrix(("u", "v"), np.array([[0.0, 5.0], [0.0, 0.0]]))
    law = ctmc_marginal(rm, "u", 0.0)
    assert law.prob("u") == 1.0


def test_ctmc_marginal_absorbing_chain_long_time():
    rm = RateMatrix(("u", "v"), np.array([[0.0, 5.0], [0.0, 0.0]]))
    law = ctmc_marginal(rm, "u", 50.0)
    assert law.prob("v") == pytest.approx(1.0, abs=1e-12)


# -------------------------------------------------------------- simulation


def test_simulate_ctmc_deterministic_and_increasing():
    rm = RateMatrix(("u", "v"), np.array([[0.0, 3.0], [3.0, 0.0]]))
    rng = np.random.default_rng(5)
    path = simulate_ctmc(rm, "u", 2.0, rng)
    again = simulate_ctmc(rm, "u", 2.0, np.random.default_rng(5))
    assert path == again
    assert path[0] == (0.0, 0)
    times = [t for t, _ in path]
    assert all(b > a for a, b in zip(times, times[1:]))
    assert times[-1] <= 2.0


def test_simulate_ctmc_absorbing_state_stays_put():
    rm = RateMatrix(("u", "v"), np.array([[0.0, 0.0], [0.0, 0.0]]))
    path = simulate_ctmc(rm, "v", 4.0, np.random.default_rng(0))
    assert path == [(0.0, 1)]


def test_simulate_ctmc_law_init_uses_rng():
    rm = RateMatrix(("u", "v"), np.array([[0.0, 0.0], [0.0, 0.0]]))
    law = exact_law(("u", "v"), [0.25, 0.75])
    starts = [
        simulate_ctmc(rm, law, 1.0, np.random.default_rng(seed))[0][1]
        for seed in range(400)
    ]
    frac_v = sum(starts) / len(starts)
    assert abs(frac_v - 0.75) < 3 * math.sqrt(0.25 * 0.75 / 400)


def test_simulate_ctmc_holding_time_mean():
    rm = RateMatrix(("u", "v"), np.array([[0.0, 4.0], [0.0, 0.0]]))
    rng = np.random.default_rng(123)
    holds = []
    for _ in range(2000):
        path = simulate_ctmc(rm, "u", 100.0, rng)
        assert len(path) == 2
        holds.append(path[1][0])
    mean = float(np.mean(holds))
    assert abs(mean - 0.25) < 4 * 0.25 / math.sqrt(2000)
