"""Condensate chains, the many-particle limit construction, marginals."""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fvlab import (
    LawOnStates,
    RateMatrix,
    condensate_rates,
    conjectured_limit_rates,
    ctmc_marginal,
    invasion_probability,
    simulate_ctmc,
    validate_model,
)

from fvlab.chains import _mean_occupation

from conftest import cycle_model_config, dense_expm, fv_absorption_law


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


_CYCLE3 = RateMatrix(("u", "v", "w"), np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: RateMatrix(("a", "b"), np.zeros((3, 3))), "rate matrix shape must match state set"),
        (lambda: condensate_rates(validate_model(cycle_model_config()), 1), "n must be >= 2, got 1"),
        (
            lambda: ctmc_marginal(_CYCLE3, LawOnStates(("u", "v", "x"), [0.5, 0.5, 0.0]), 1.0),
            "initial law is over a different state set",
        ),
        # an unknown label used to raise tuple.index's "x not in tuple"
        (lambda: ctmc_marginal(_CYCLE3, "zz", 1.0), "unknown state 'zz'"),
        (lambda: simulate_ctmc(_CYCLE3, "zz", 1.0, np.random.default_rng(0)), "unknown state 'zz'"),
        (lambda: _CYCLE3.entry("u", "zz"), "unknown state 'zz'"),
    ],
    ids=["shape", "n-below-2", "law-states", "marginal-unknown-label", "simulate-unknown-label", "entry-unknown-label"],
)
def test_chains_raise_value_error_naming_the_input(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()


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


def descent_split_config(beta, c) -> dict:
    """s -> z -> {y1, y2}, all at rate 1: z's cascade ends at y1 or y2."""
    states = ["s", "z", "y1", "y2"]
    return {
        "states": states,
        "mutation": [
            {"from": "s", "to": "z", "rate": 1.0},
            {"from": "z", "to": "y1", "rate": 1.0},
            {"from": "z", "to": "y2", "rate": 1.0},
        ],
        "killing": {"kind": "power", "c": dict(zip(states, c)), "beta": dict(zip(states, beta))},
    }


def test_conjectured_chain_mixed_orders_match_full_system():
    # z's descending neighbours have different orders (beta 1 vs 2, both
    # below z's 3), but both limit ratios are exactly zero, so the cascade
    # splits evenly; the full system started at Dirac s agrees
    model = validate_model(descent_split_config(beta=(3, 3, 1, 2), c=(1.0, 1.0, 1.0, 1.0)))
    analysis, chain = conjectured_limit_rates(model)
    assert analysis.absorption_weights["z"] == {"y1": 0.5, "y2": 0.5}
    assert chain.entry("s", "y1") == chain.entry("s", "y2") == pytest.approx(0.5)
    law = fv_absorption_law(model, 16, 256.0, "s")
    assert law[model.state_index("y1")] == pytest.approx(0.5, abs=0.01)


def test_conjectured_chain_misses_unequal_descent_ratios():
    # A recorded counterexample to the conjectured descent rule, not a
    # bug: z descends to y1 with limit ratio 0 and to y2 with ratio 1/2.
    # The rule keeps only the smallest ratio and sends z to y1, but the
    # full system splits in proportion to q(z, y) (1 - alpha(z, y)),
    # 2/3 to y1 and 1/3 to y2, ever closer as n and r grow.
    model = validate_model(descent_split_config(beta=(2, 2, 1, 2), c=(2.0, 2.0, 1.0, 1.0)))
    analysis, _ = conjectured_limit_rates(model)
    assert analysis.absorption_weights["z"] == {"y1": 1.0}
    y1 = model.state_index("y1")
    for n, r, want in ((8, 64.0, 0.66503), (16, 256.0, 0.66642), (16, 1e4, 0.66665)):
        assert fv_absorption_law(model, n, r, "s")[y1] == pytest.approx(want, abs=1e-5)


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


@st.composite
def power_law_models(draw):
    """Random power-law models on up to 7 sites.  Sites take their (beta, c)
    from a palette of two to four, so that balanced pairs, ties and
    multi-step cascades are common."""
    d = draw(st.integers(1, 7))
    states = [f"s{i}" for i in range(d)]
    classes = st.tuples(st.sampled_from(["1/2", "1", "2", "3"]), st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    palette = draw(st.lists(classes, min_size=2, max_size=4, unique=True))
    site_class = [draw(st.sampled_from(palette)) for _ in states]
    rates = st.sampled_from([0.5, 1.0, 2.0, 3.0])
    pairs = [(a, b) for a in range(d) for b in range(d) if a != b and draw(st.booleans())]
    mutation = {(a, b): draw(rates) for a, b in pairs}
    return {
        "states": states,
        "mutation": [{"from": states[a], "to": states[b], "rate": q} for (a, b), q in mutation.items()],
        "killing": {
            "kind": "power",
            "c": {s: c for s, (_, c) in zip(states, site_class)},
            "beta": {s: beta for s, (beta, _) in zip(states, site_class)},
        },
    }


@settings(max_examples=200, deadline=None)
@given(cfg=power_law_models())
def test_conjectured_chain_matches_absorbing_chain_oracle(cfg):
    # Oracle from the definitions: a site's limit killing rate is ordered
    # by (beta, c); descent targets are read off that order; the absorption
    # law solves (I - P_UU) W = P_US for the cascade chain on unstable U.
    model = validate_model(cfg)
    states = cfg["states"]
    order = {s: (Fraction(cfg["killing"]["beta"][s]), cfg["killing"]["c"][s]) for s in states}
    out = {s: [] for s in states}
    for e in cfg["mutation"]:
        out[e["from"]].append((e["to"], e["rate"]))
    stable = [s for s in states if all(order[y] >= order[s] for y, _ in out[s])]
    unstable = [s for s in states if s not in stable]
    targets = {}
    for z in unstable:
        neigh = sorted((y for y, _ in out[z]), key=states.index)
        if any(order[y][0] < order[z][0] for y in neigh):  # a lower exponent: ratio 0 for each
            targets[z] = [y for y in neigh if order[y][0] < order[z][0]]
        else:  # the smallest prefactor among the equal exponents; higher ones give inf
            low = min(order[y] for y in neigh)
            targets[z] = [y for y in neigh if order[y] == low]

    u, k = {z: i for i, z in enumerate(unstable)}, {x: i for i, x in enumerate(stable)}
    P = np.zeros((len(unstable), len(unstable) + len(stable)))
    for z in unstable:
        q = dict(out[z])
        total = sum(q[y] for y in targets[z])
        for y in targets[z]:
            P[u[z], u[y] if y in u else len(unstable) + k[y]] = q[y] / total
    W = np.linalg.solve(np.eye(len(unstable)) - P[:, : len(unstable)], P[:, len(unstable) :])
    reach = {x: {x} for x in stable}
    for z in sorted(unstable, key=lambda z: order[z]):  # targets lie strictly lower
        reach[z] = set().union(*(reach[y] for y in targets[z]))

    analysis, chain = conjectured_limit_rates(model)
    assert analysis.stable_sites == tuple(stable) and chain.states == tuple(stable)
    assert analysis.descent_targets == {z: tuple(targets[z]) for z in unstable}
    for z in unstable:
        law = analysis.absorption_weights[z]
        assert set(law) == reach[z]
        assert max(abs(law.get(x, 0.0) - W[u[z], k[x]]) for x in stable) <= 1e-12

    want_rates, want_triggers = np.zeros((len(stable), len(stable))), {}
    for x in stable:
        for j, q in sorted(out[x], key=lambda e: states.index(e[0])):
            if order[j] != order[x]:  # not balanced
                continue
            if j in k:
                want_rates[k[x], k[j]] += q
                continue
            for y in stable:
                want_rates[k[x], k[y]] += q * W[u[j], k[y]]
                if y in reach[j]:
                    want_triggers[(x, y)] = want_triggers.get((x, y), ()) + (j,)
    assert analysis.triggers == want_triggers
    np.testing.assert_allclose(chain.rates, want_rates, rtol=0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(cfg=power_law_models())
def test_conjectured_chain_is_the_large_n_fixed_n_chain_reduced(cfg):
    # Where every unstable site's descending neighbours share one limit
    # ratio, the cascade rule is what the fixed-n chain gives as n grows:
    # at n = 1e6 an unstable site leaves almost surely by a descent, and
    # eliminating the unstable sites U leaves R_SS + R_SU (I - P_UU)^-1 P_US
    # on the stable sites S, with P the unstable rows of R divided by their sums.
    model = validate_model(cfg)
    analysis, chain = conjectured_limit_rates(model)
    stable = [model.state_index(x) for x in analysis.stable_sites]
    unstable = [z for z in range(model.num_states) if z not in stable]
    ratios = [[model.alpha(z, y, None) for y in model.out_targets[z]] for z in unstable]
    assume(all(len({a for a in rs if a < 1.0}) == 1 for rs in ratios))
    R = condensate_rates(model, 10**6, None).rates
    P = R[unstable] / R[unstable].sum(axis=1, keepdims=True)
    cascade = np.linalg.solve(np.eye(len(unstable)) - P[:, unstable], P[:, stable])
    reduced = R[np.ix_(stable, stable)] + R[np.ix_(stable, unstable)] @ cascade
    np.testing.assert_allclose(chain.rates, reduced, rtol=0, atol=1e-4)


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
        law = ctmc_marginal(rm, LawOnStates(states, init), t)
        assert np.allclose(law.probs, init @ P, atol=1e-10)


def test_ctmc_marginal_t_zero_is_init():
    rm = RateMatrix(("u", "v"), np.array([[0.0, 5.0], [0.0, 0.0]]))
    law = ctmc_marginal(rm, "u", 0.0)
    assert law.prob("u") == 1.0


def test_ctmc_marginal_absorbing_chain_long_time():
    rm = RateMatrix(("u", "v"), np.array([[0.0, 5.0], [0.0, 0.0]]))
    law = ctmc_marginal(rm, "u", 50.0)
    assert law.prob("v") == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------- mean occupation


@pytest.mark.parametrize("a,b,T", [(1.0, 2.0, 0.5), (0.3, 5.0, 3.0), (10.0, 0.1, 1e-3), (2.0, 2.0, 100.0),
                                   (1e-3, 1e-3, 1.0), (50.0, 80.0, 7.0)])
def test_mean_occupation_two_state_closed_form(a, b, T):
    # from u, the mean time-average occupation of u over [0, T] is
    # b/(a+b) + a (1 - e^{-(a+b)T}) / ((a+b)^2 T)
    rm = RateMatrix(("u", "v"), np.array([[0.0, a], [b, 0.0]]))
    s = a + b
    at_u = b / s + a * -math.expm1(-s * T) / (s * s * T)
    got = _mean_occupation(rm, "u", T)
    assert abs(got[0] - at_u) <= 1e-13 and abs(got[1] - (1.0 - at_u)) <= 1e-13


@pytest.mark.parametrize("init", ["a", LawOnStates(("a", "b", "c"), [0.2, 0.5, 0.3])], ids=["site", "law"])
def test_mean_occupation_is_the_time_average_of_the_marginal(init):
    # the power cycle's limit chain at n = 3 (rates 0.43, 0.43 and 2.3),
    # against 64-node Gauss-Legendre quadrature of ctmc_marginal, whose
    # error on this entire integrand is far below the bound
    chain = condensate_rates(validate_model(cycle_model_config()), 3, None)
    T = 2.0
    nodes, weights = np.polynomial.legendre.leggauss(64)
    marginals = np.array([ctmc_marginal(chain, init, T * (x + 1.0) / 2.0).probs for x in nodes])
    quadrature = weights @ marginals / 2.0
    assert np.abs(_mean_occupation(chain, init, T) - quadrature).max() <= 1e-13


def test_simulate_ctmc_time_average_occupation_matches_the_exact_mean():
    # 4 000 paths from a law, on a chain where every site has two targets:
    # each site's mean time-average occupation, as a z-score against the
    # exact mean with the sample standard deviation.  A correct sampler
    # fails |z| < 4 at some site with probability below 3 P(|Z| > 4) = 2e-4
    # (normal approximation, union over the three sites).  At this seed
    # z is (-1.3, -0.9, 1.6); swapping one site's two target rates gives
    # |z| above 20, and scaling every rate by 1.2 gives 4.2.
    rm = RateMatrix(("u", "v", "w"), np.array([[0.0, 1.5, 0.25], [0.7, 0.0, 2.0], [1.0 / 3.0, 0.1, 0.0]]))
    init, T, K = LawOnStates(rm.states, [0.2, 0.5, 0.3]), 2.0, 4000
    rng = np.random.default_rng(2026)
    occupation = np.zeros((K, 3))
    for k in range(K):
        path = simulate_ctmc(rm, init, T, rng)
        for (t0, site), t1 in zip(path, [t for t, _ in path[1:]] + [T]):
            occupation[k, site] += (t1 - t0) / T
    se = occupation.std(axis=0, ddof=1) / math.sqrt(K)
    z = (occupation.mean(axis=0) - _mean_occupation(rm, init, T)) / se
    assert np.abs(z).max() < 4.0


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


def test_simulate_ctmc_path_holds_python_floats_and_ints():
    # every time is a float, not a numpy scalar, and equals the sum the
    # loop would make over numpy's own row sums and entries
    rates = np.array([[0.0, 1.5, 0.25], [0.7, 0.0, 2.0], [1.0 / 3.0, 0.1, 0.0]])
    rm = RateMatrix(("u", "v", "w"), rates)
    path = simulate_ctmc(rm, "u", 20.0, np.random.default_rng(9))
    assert len(path) > 10
    assert all(type(t) is float and type(i) is int for t, i in path)
    rng, t, want = np.random.default_rng(9), 0.0, [(0.0, 0)]
    while True:
        site = want[-1][1]
        t += -math.log1p(-rng.random()) / rates.sum(axis=1)[site]
        if t >= 20.0:
            break
        u, acc = rng.random() * rates.sum(axis=1)[site], 0.0
        for j in range(3):
            acc += rates[site, j]
            if u < acc:
                break
        want.append((t, j))
    assert [(float.hex(float(t)), i) for t, i in want] == [(float.hex(t), i) for t, i in path]


@pytest.mark.parametrize("site", [-1, 3, True, 1.0, None], ids=["negative", "past-end", "bool", "float", "none"])
def test_chain_sites_are_range_checked(site):
    rm = RateMatrix(("u", "v", "w"), np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="site index must be an integer in"):
        ctmc_marginal(rm, site, 0.5)
    with pytest.raises(ValueError, match="site index must be an integer in"):
        simulate_ctmc(rm, site, 1.0, np.random.default_rng(0))
    with pytest.raises(ValueError, match="site index must be an integer in"):
        rm.entry(site, 0)
    # numpy integers are sites
    assert ctmc_marginal(rm, np.int64(2), 0.5).probs.tolist() == ctmc_marginal(rm, 2, 0.5).probs.tolist()
    assert simulate_ctmc(rm, np.int32(2), 1.0, np.random.default_rng(0))[0] == (0.0, 2)


def test_simulate_ctmc_absorbing_state_stays_put():
    rm = RateMatrix(("u", "v"), np.array([[0.0, 0.0], [0.0, 0.0]]))
    path = simulate_ctmc(rm, "v", 4.0, np.random.default_rng(0))
    assert path == [(0.0, 1)]


@pytest.mark.parametrize("T", [math.nan, math.inf, 0.0])
def test_simulate_ctmc_horizon_must_be_positive_and_finite(T):
    # an absorbing start: a horizon that slipped through returns at once
    rm = RateMatrix(("u", "v"), np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="horizon must be positive and finite"):
        simulate_ctmc(rm, "v", T, np.random.default_rng(0))
    with pytest.raises(ValueError, match="horizon must be positive and finite"):
        _mean_occupation(rm, "v", T)  # the exact mean over the same horizon


@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
def test_ctmc_marginal_time_must_be_nonnegative_and_finite(t):
    rm = RateMatrix(("u", "v"), np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="time must be nonnegative and finite"):
        ctmc_marginal(rm, "u", t)


def test_simulate_ctmc_law_init_uses_rng():
    rm = RateMatrix(("u", "v"), np.array([[0.0, 0.0], [0.0, 0.0]]))
    law = LawOnStates(("u", "v"), [0.25, 0.75])
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
