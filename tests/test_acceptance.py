"""Acceptance gate: the ten quantitative checks the package must pass.

Each test runs one criterion at its stated tolerance and prints one
``[PASS]``/``[FAIL]`` line (uncaptured, so the verdicts are visible in a
plain ``pytest -v`` run).  The statistical criteria use the experiment
runner end to end; the exact ones call the numeric kernels directly.
All randomness derives from one master seed.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from fvlab import (
    ExperimentConfig,
    LawOnStates,
    RateMatrix,
    conjectured_limit_rates,
    ctmc_marginal,
    run_experiment,
    validate_model,
)

from conftest import dense_expm

SEED = 20260815


@pytest.fixture()
def announce(capsys):
    def _announce(criterion: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            tag = "PASS" if ok else "FAIL"
            print(f"[{tag}] criterion {criterion}: {detail}", flush=True)

    return _announce


def cycle_power_model():
    return {
        "states": ["a", "b", "c"],
        "mutation": [
            {"from": "a", "to": "b", "rate": 1.0},
            {"from": "b", "to": "c", "rate": 1.0},
            {"from": "c", "to": "a", "rate": 1.0},
        ],
        "killing": {
            "kind": "power",
            "c": {"a": 1.0, "b": 2.0, "c": 4.0},
            "beta": {"a": "1", "b": "1", "c": "1"},
        },
    }


def row_map(report):
    return {
        (r["statistic"], r["r"], r["t"]): r for r in report.rows
    }


def test_criterion_1_committor_exactness(announce):
    start = time.perf_counter()
    cfg = ExperimentConfig.from_dict(
        {
            "kind": "committor_check",
            "seed": SEED,
            "grid": {"n": [2, 3, 4, 5, 6, 7, 8], "alpha": [0.1, 0.5, 1.0, 2.0, 10.0]},
            "tolerances": {"grid_tol": 1e-9},
        }
    )
    rep = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    worst = rep.extras["grid_worst_error"]
    ok = rep.all_pass and elapsed < 10.0
    announce(1, ok, f"closed form vs linear-system oracle, worst error "
                    f"{worst:.3g} (tol 1e-9), {elapsed:.2f}s")
    assert rep.all_pass
    assert elapsed < 10.0


def test_criterion_2_gamblers_ruin_monte_carlo(announce):
    start = time.perf_counter()
    cfg = ExperimentConfig.from_dict(
        {
            "kind": "committor_check",
            "seed": SEED,
            "grid": {"n": [4], "alpha": [2.0]},
            "mc": {"n": 4, "alpha": 2.0, "counts": [3, 1], "replicas": 100_000},
        }
    )
    rep = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    freq, exact = rep.extras["mc_frequency"], rep.extras["mc_exact"]
    ok = rep.all_pass and elapsed < 60.0
    announce(2, ok, f"absorption frequency {freq:.5f} vs exact {exact:.5f} "
                    f"(14/15), 3-SE binomial band, M=1e5, {elapsed:.1f}s")
    assert exact == pytest.approx(14 / 15, abs=1e-15)
    assert rep.all_pass
    assert elapsed < 60.0


def test_criterion_3_condensate_marginal_tv(announce):
    start = time.perf_counter()
    cfg = ExperimentConfig.from_dict(
        {
            "kind": "theorem1_marginal",
            "model": cycle_power_model(),
            "seed": SEED,
            "n": 3,
            "r_schedule": [10.0, 100.0, 1000.0],
            "T": 1.0,
            "time_points": [0.25, 0.5, 1.0],
            "replicas": 10_000,
            "init": {"dirac": "a"},
        }
    )
    rep = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    rows = row_map(rep)
    monotone = rows[("sup_tv_monotone_in_r", "", "")]
    band = next(r for r in rep.rows if r["statistic"] == "sup_tv_vs_limit_at_rmax")
    sups = rep.extras["sup_tv_finite"]
    ok = (monotone["verdict"] == "PASS" and band["verdict"] == "PASS"
          and elapsed < 600.0)
    announce(3, ok, f"sup TV vs condensate chain {sups} nonincreasing in r "
                    f"(within the 2-eps MC resolution); r=1000 within 3-eps "
                    f"DKW band of limit ({band['value']:.4f} <= "
                    f"{band['half_width']:.4f}), {elapsed:.1f}s")
    assert monotone["verdict"] == "PASS"
    assert band["verdict"] == "PASS"
    assert elapsed < 600.0


def test_criterion_4_pathwise_dirac_distance_decay(announce):
    start = time.perf_counter()
    cfg = ExperimentConfig.from_dict(
        {
            "kind": "theorem2_pathwise",
            "model": cycle_power_model(),
            "seed": SEED,
            "n": 3,
            "r_schedule": [10.0, 1000.0],
            "T": 1.0,
            "replicas": 1_000,
            "init": {"dirac": "a"},
            "tolerances": {"decay_factor": 5.0},
        }
    )
    rep = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    decay = next(
        r for r in rep.rows
        if r["statistic"] == "dirac_distance_decay_factor_first_to_last"
    )
    means = [r["value"] for r in rep.rows
             if r["statistic"] == "mean_dirac_distance_integral"]
    ok = decay["verdict"] == "PASS"
    announce(4, ok, f"mean Dirac-distance integral {means[0]:.4f} -> "
                    f"{means[-1]:.5f}, decay factor {decay['value']:.1f} >= 5, "
                    f"{elapsed:.1f}s")
    assert decay["verdict"] == "PASS"


def test_criterion_5_pair_correlation_regime(announce):
    start = time.perf_counter()
    cfg = ExperimentConfig.from_dict(
        {
            "kind": "theorem3_regime",
            "model": {
                "states": ["a", "b", "c"],
                "mutation": [
                    {"from": "a", "to": "b", "rate": 1.0},
                    {"from": "b", "to": "c", "rate": 1.0},
                    {"from": "c", "to": "a", "rate": 1.0},
                ],
                "killing": {
                    "kind": "uniform_plus",
                    "m": {"a": 0.0, "b": 1.0, "c": 2.0},
                },
            },
            "seed": SEED,
            "T": 1.0,
            "time_points": [1.0],
            "replicas": 2_000,
            "init": {"dirac": "a"},
            "points": [
                {"n": 10, "r": 1.0e3},
                {"n": 32, "r": 1.0e4},
                {"n": 100, "r": 1.0e5},
            ],
            "tolerances": {"cprime_factor": 3.0},
        }
    )
    rep = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    pair_rows = [r for r in rep.rows if r["statistic"] == "mean_pair_correlation"]
    consistency = next(
        r for r in rep.rows if r["statistic"] == "cprime_interval_consistency"
    )
    ok = (all(r["verdict"] == "PASS" for r in pair_rows)
          and consistency["verdict"] == "PASS")
    announce(5, ok, f"pair correlation under explicit bound at all 3 points "
                    f"(3-sigma); C' intervals consistent within factor 3, "
                    f"{elapsed:.1f}s")
    assert pair_rows and all(r["verdict"] == "PASS" for r in pair_rows)
    assert consistency["verdict"] == "PASS"


def test_criterion_6_absorption_tail_slope(announce):
    start = time.perf_counter()
    cfg = ExperimentConfig.from_dict(
        {
            "kind": "absorption_tail",
            "model": {
                "states": ["x", "y"],
                "mutation": [],
                "killing": {
                    "kind": "power",
                    "c": {"x": 1.0, "y": 1.0},
                    "beta": {"x": "1", "y": "1"},
                },
            },
            "seed": SEED,
            "n": 6,
            "r_schedule": [10.0, 100.0],
            "replicas": 100_000,
            "init": [3, 3],
            "tolerances": {"slope_ratio_rel_tol": 0.20},
        }
    )
    rep = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    ratio = next(
        r for r in rep.rows
        if r["statistic"] == "tail_slope_ratio_vs_killing_floor_ratio"
    )
    slopes = [r["value"] for r in rep.rows if r["statistic"] == "tail_slope"]
    achieved = slopes[-1] / slopes[0]
    ok = ratio["verdict"] == "PASS"
    announce(6, ok, f"tail slope ratio {achieved:.3f} vs 10 expected "
                    f"(20% rel tol), M=1e5, {elapsed:.1f}s")
    assert ratio["verdict"] == "PASS"


def test_criterion_7_initial_condensation_law(announce):
    start = time.perf_counter()
    cfg = ExperimentConfig.from_dict(
        {
            "kind": "eta_inf_check",
            "model": {
                "states": ["a", "b", "c"],
                "mutation": [],
                "killing": {
                    "kind": "power",
                    "c": {"a": 1.0, "b": 2.0, "c": 1.0},
                    "beta": {"a": "1", "b": "1", "c": "2"},
                },
            },
            "seed": SEED,
            "n": 4,
            "r_schedule": [1.0e4],
            "replicas": 100_000,
            "init": [1, 2, 1],
            "tolerances": {"tv_tol": 0.02},
        }
    )
    rep = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    row = next(
        r for r in rep.rows if r["statistic"] == "tv_exact_vs_absorbed_site_law"
    )
    eta = rep.extras["eta_infinity"]
    ok = rep.all_pass
    announce(7, ok, f"exact law (28/45, 17/45, 0) vs absorbed-site MC, "
                    f"TV {row['value']:.4f} <= 0.02, {elapsed:.1f}s")
    assert eta["a"] == pytest.approx(28 / 45, abs=1e-12)
    assert eta["b"] == pytest.approx(17 / 45, abs=1e-12)
    assert eta["c"] == 0.0
    assert rep.all_pass


def test_criterion_8_conjectured_chain_construction(announce):
    cfg = ExperimentConfig.from_dict(
        {
            "kind": "conjecture_probe",
            "model": {
                "states": ["a", "z", "b"],
                "mutation": [
                    {"from": "a", "to": "z", "rate": 2.0},
                    {"from": "z", "to": "b", "rate": 1.0},
                ],
                "killing": {
                    "kind": "power",
                    "c": {"a": 1.0, "z": 1.0, "b": 1.0},
                    "beta": {"a": "2", "z": "2", "b": "1"},
                },
            },
            "seed": SEED,
            "expect": {
                "stable_sites": ["a", "b"],
                "rates": [{"from": "a", "to": "b", "rate": 2.0}],
            },
        }
    )
    rep = run_experiment(cfg)

    # all limit ratios exactly one: the limit chain is the mutation chain
    flat = validate_model(
        {
            "states": ["a", "b", "c"],
            "mutation": [
                {"from": "a", "to": "b", "rate": 1.5},
                {"from": "b", "to": "c", "rate": 0.5},
                {"from": "c", "to": "a", "rate": 2.0},
            ],
            "killing": {
                "kind": "power",
                "c": {"a": 3.0, "b": 3.0, "c": 3.0},
                "beta": {"a": "1", "b": "1", "c": "1"},
            },
        }
    )
    _, chain = conjectured_limit_rates(flat)
    ident = (
        chain.states == flat.states
        and chain.entry("a", "b") == 1.5
        and chain.entry("b", "c") == 0.5
        and chain.entry("c", "a") == 2.0
        and chain.entry("b", "a") == 0.0
    )
    ok = rep.all_pass and ident
    announce(8, ok, "worked example gives stable sites {a,b} with rate "
                    "a->b = 2; all-equal-order model reproduces q exactly")
    assert rep.all_pass
    assert ident


def test_criterion_9_marginal_solver_exactness(announce):
    start = time.perf_counter()
    rm = RateMatrix(("u", "v"), np.array([[0.0, 1.0], [1.0, 0.0]]))
    worst_closed = max(
        abs(ctmc_marginal(rm, "u", t).prob("u") - (1 + math.exp(-2 * t)) / 2)
        for t in (0.0, 0.05, 0.25, 0.5, 1.0, 2.5, 5.0)
    )

    rng = np.random.default_rng(SEED)
    states = tuple(f"s{i}" for i in range(5))
    worst_dense = 0.0
    for _ in range(5):
        rates = rng.uniform(0.0, 2.0, size=(5, 5))
        np.fill_diagonal(rates, 0.0)
        rm5 = RateMatrix(states, rates)
        t = float(rng.uniform(0.1, 2.0))
        init = rng.dirichlet(np.ones(5))
        law = ctmc_marginal(rm5, LawOnStates(states, init), t)
        reference = init @ dense_expm(rm5.generator(), t)
        worst_dense = max(worst_dense, float(np.abs(law.probs - reference).max()))
    elapsed = time.perf_counter() - start

    ok = worst_closed <= 1e-10 and worst_dense <= 1e-10 and elapsed < 1.0
    announce(9, ok, f"expm marginal vs closed form {worst_closed:.2g}, vs "
                    f"dense expm {worst_dense:.2g} (tol 1e-10), {elapsed:.2f}s")
    assert worst_closed <= 1e-10
    assert worst_dense <= 1e-10
    assert elapsed < 1.0


def test_criterion_10_thread_count_determinism(announce):
    cfg = ExperimentConfig.from_dict(
        {
            "kind": "theorem1_marginal",
            "model": cycle_power_model(),
            "seed": SEED,
            "n": 3,
            "r_schedule": [10.0, 100.0],
            "T": 0.5,
            "time_points": [0.25, 0.5],
            "replicas": 500,
            "init": {"dirac": "a"},
        }
    )
    single = run_experiment(cfg, threads=1)
    pooled = run_experiment(cfg, threads=8)
    ok = single.result_hash == pooled.result_hash
    announce(10, ok, f"theorem1_marginal result hash identical for 1 and 8 "
                     f"threads ({single.result_hash[:16]}...)")
    assert single.result_hash == pooled.result_hash
