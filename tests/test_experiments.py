"""Experiment runner: configs, determinism, reports, and per-kind smoke runs."""

from __future__ import annotations

import copy
import csv
import hashlib
import io
import json
import multiprocessing
import os
import sys

import numpy as np
import pytest

from fvlab import (
    EXPERIMENT_KINDS,
    ConfigError,
    ExperimentConfig,
    ModelError,
    derive_replica_rng,
    run_experiment,
)

from fvlab import experiments
from conftest import cycle_model_config, overflowing_totals_config, two_site_config


def azb_config():
    return {
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
    }


def _uniform_plus_cycle():
    return {
        "states": ["a", "b", "c"],
        "mutation": [
            {"from": "a", "to": "b", "rate": 1.0},
            {"from": "b", "to": "c", "rate": 1.0},
            {"from": "c", "to": "a", "rate": 1.0},
        ],
        "killing": {"kind": "uniform_plus", "m": {"a": 0.0, "b": 1.0, "c": 2.0}},
    }


# --------------------------------------------------------------- rng streams


def test_replica_rng_reproducible():
    a = derive_replica_rng(123, 0).random(1000)
    b = derive_replica_rng(123, 0).random(1000)
    assert (a == b).all()


def test_replica_rng_streams_differ():
    a = derive_replica_rng(123, 0).random(1000)
    b = derive_replica_rng(123, 1).random(1000)
    assert not (a == b).all()


def test_replica_rng_seed_matters():
    a = derive_replica_rng(123, 5).random(100)
    b = derive_replica_rng(124, 5).random(100)
    assert not (a == b).all()


def test_replica_rng_takes_numpy_integers():
    want = derive_replica_rng(7, 5).random(9)
    assert (derive_replica_rng(np.int64(7), np.uint64(5)).random(9) == want).all()


@pytest.mark.parametrize(
    "seed, index, match",
    [
        (0, True, "replica index"),  # used to return replica 1's stream
        (True, 0, "master seed"),  # used to return seed 1's stream
        (0, 1.0, "replica index"),  # used to raise numpy's bare TypeError
        (1.5, 0, "master seed"),  # likewise
        (-1, 0, "master seed"),  # used to raise numpy's ValueError, naming no argument
    ],
    ids=["bool-index", "bool-seed", "float-index", "float-seed", "negative-seed"],
)
def test_replica_rng_takes_integers_only(seed, index, match):
    with pytest.raises(ValueError, match=match):
        derive_replica_rng(seed, index)


def test_replica_rng_rejects_negative_index():
    for index in (-1, 2**128):  # the counter index << 128 must fit Philox's 256 bits
        with pytest.raises(ValueError):
            derive_replica_rng(1, index)


def test_replica_rng_is_philox_at_the_index_counter():
    for seed, i in [(0, 0), (7, 5), (1281506044, 2**32 + 1), (2**100 + 1, 2**64 + 3)]:
        ref = np.random.Generator(np.random.Philox(seed, counter=i << 128))
        rng = derive_replica_rng(seed, i)
        assert rng.bit_generator.state["state"]["counter"].tolist() == [0, 0, i % 2**64, i >> 64]
        assert (rng.random(9) == ref.random(9)).all()


def test_engine_first_refill_known_answer():
    # The event loop's first refill on replica i of seed s is 21 standard
    # exponentials (numpy's ziggurat), then 42 uniforms, from a fresh
    # Philox(s, counter=i << 128).  The pinned values make a numpy whose
    # ziggurat or Philox stream differs fail here by name.
    from unittest.mock import Mock

    from fvlab import EmpiricalMeasure, simulate_selection_absorption, validate_model

    s, i = 1281506044, 3
    ref = np.random.Generator(np.random.Philox(s, counter=i << 128))
    e, u = ref.standard_exponential(21), ref.random(42)
    assert (e[0], e[20], u[41]) == (0.9835717562631028, 0.6018707238246727, 0.3183872668303124)
    # a start with rate draws that refill into the loop's buffer at its
    # first step, absorbs within it and draws nothing more
    rng = derive_replica_rng(s, i)
    spy = Mock(wraps=rng)
    model = validate_model(two_site_config())
    res = simulate_selection_absorption(model, 10.0, EmpiricalMeasure([2, 2]), spy)
    assert res == (0.02719726097046469, "x", 2)
    (exp_call,), (uniform_call,) = spy.standard_exponential.call_args_list, spy.random.call_args_list
    assert exp_call.kwargs["out"].tobytes() == e.tobytes()
    assert uniform_call.kwargs["out"].tobytes() == u.tobytes()
    assert rng.random() == ref.random()


def _chunk_streams(seed, base, start, stop):
    """Each replica's Philox counter and first three uint32 draws, as a chunk worker sees them."""
    from fvlab.experiments import _replica_rngs

    counters, draws = [], []
    for rng in _replica_rngs(seed, base + start, stop - start):
        counters.append(rng.bit_generator.state["state"]["counter"].tolist())
        # an odd count of uint32 draws leaves half a word buffered (has_uint32 = 1)
        draws.append(rng.integers(0, 2**32, size=3, dtype=np.uint32).tolist())
    return {"counter": np.array(counters, dtype=np.uint64), "draws": np.array(draws, dtype=np.int64)}


@pytest.mark.parametrize(
    "seed",
    [0, 7, 1281506044, 2**32 - 1, 2**32 + 5, 2**64 + 3, 2**100 + 2**40 + 1, 2**140 + 12345],
    ids=["zero", "1word", "1word-large", "1word-max", "2words", "3words", "4words", "5words"],
)
def test_chunk_seeding_matches_derive_replica_rng(seed):
    # (base, start, stop): nonzero bases, index blocks on both sides of 2^32
    # and across it, just below 2^64 and across it, where the index spills
    # into the next counter word
    blocks = [
        (0, 0, 256),
        (1000, 256, 512),
        (2**32 - 300, 44, 300),
        (2**32, 0, 256),
        (2**32 + 7, 256, 400),
        (2**32 - 100, 0, 200),
        (2**64 - 260, 0, 256),
        (2**64 - 100, 0, 200),
    ]
    pairs = 0
    for base, start, stop in blocks:
        out = _chunk_streams(seed, base, start, stop)
        for k, i in enumerate(range(base + start, base + stop)):
            ref = derive_replica_rng(seed, i)
            assert out["counter"][k].tolist() == ref.bit_generator.state["state"]["counter"].tolist()
            assert tuple(out["draws"][k]) == tuple(ref.integers(0, 2**32, size=3, dtype=np.uint32).tolist())
            pairs += 1
    assert pairs * 8 >= 10_000  # over the eight seeds


# ------------------------------------------------------------- configuration


def theorem1_doc(**overrides):
    doc = {
        "kind": "theorem1_marginal",
        "model": cycle_model_config(),
        "seed": 7,
        "n": 3,
        "r_schedule": [10.0, 100.0],
        "T": 0.5,
        "time_points": [0.25, 0.5],
        "replicas": 200,
        "init": {"dirac": "a"},
    }
    doc.update(overrides)
    return doc


def test_config_round_trip_through_canonical_dict():
    cfg = ExperimentConfig.from_dict(theorem1_doc())
    again = ExperimentConfig.from_dict(cfg.canonical_dict())
    assert again == cfg


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown config fields"):
        ExperimentConfig.from_dict(theorem1_doc(bogus=1))


@pytest.mark.parametrize("kind", [None, "absent"])
def test_config_must_declare_a_kind(kind):
    doc = theorem1_doc(kind=kind)
    if kind == "absent":
        del doc["kind"]
    with pytest.raises(ConfigError, match="config must declare an experiment kind"):
        ExperimentConfig.from_dict(doc)


def test_config_rejects_unknown_kind():
    with pytest.raises(ConfigError, match="unknown experiment kind"):
        ExperimentConfig.from_dict(theorem1_doc(kind="theorem9"))


# Where a message changed to name the field and its bound, the case keeps its
# earlier id through pytest.param, so the suite's test names stay stable.
@pytest.mark.parametrize(
    "overrides,fragment",
    [
        pytest.param({"replicas": 50}, "replicas must be an integer >= 100", id="overrides0-replicas >= 100"),
        pytest.param({"r_schedule": []}, "r_schedule must be a nonempty list", id="overrides1-nonempty r schedule"),
        ({"r_schedule": [100.0, 10.0]}, "strictly increasing"),
        pytest.param({"n": 1}, "n must be an integer >= 2", id="overrides3-n >= 2"),
        pytest.param({"T": 0.0}, "T must be a finite number > 0", id="overrides4-positive horizon"),
        pytest.param({"init": None}, "theorem1_marginal requires init", id="overrides5-init block"),
        ({"time_points": [0.25, 0.9]}, r"time_points must lie in \(0, T\]"),
        pytest.param({"delta": 1.5}, r"delta must be a finite number in \(0, 1\)", id="overrides7-delta must lie"),
        pytest.param({"model": None}, "theorem1_marginal requires model", id="overrides8-requires a model"),
        ({"seed": -5}, "seed must be an integer >= 0"),
        ({"seed": True}, "seed must be an integer >= 0"),
        # integer fields are checked, not truncated to int by from_dict
        ({"seed": 2.5}, "seed must be an integer >= 0"),
        pytest.param({"replicas": 150.9}, "replicas must be an integer >= 100", id="overrides12-integer replicas >= 100"),
        pytest.param({"n": 3.7}, "n must be an integer >= 2", id="overrides13-integer n >= 2"),
        # a cap below 1 would abort every point into a FAIL row
        ({"event_cap": 0}, "event_cap must be an integer >= 1"),
        ({"event_cap": -4}, "event_cap must be an integer >= 1"),
        ({"event_cap": 2.5}, "event_cap must be an integer >= 1"),
        ({"event_cap": True}, "event_cap must be an integer >= 1"),
        # validate_model used to fail on it with a TypeError, which the CLI reports as a traceback
        ({"model": 5}, "model must be a model config block, got 5"),
        # a band of at most 0 used to validate and then FAIL its gate whatever the data
        ({"tolerances": {"limit_band": -1.0}}, r"tolerances\.limit_band must be a finite number > 0, got -1.0"),
        ({"tolerances": {"monotone_slack": -0.01}}, r"tolerances\.monotone_slack must be a finite number >= 0"),
    ],
)
def test_config_validation_matrix(overrides, fragment):
    with pytest.raises(ConfigError, match=fragment):
        ExperimentConfig.from_dict(theorem1_doc(**overrides))


_NAN, _INF = float("nan"), float("inf")
_TOLERANCES_MESSAGE = "tolerances must be a mapping of tolerance names to finite numbers"


@pytest.mark.parametrize(
    "doc,fragment",
    [
        # T = nan used to simulate to the end, then fail to hash the report
        (theorem1_doc(T=_NAN, time_points=None), "T must be a finite number > 0, got nan"),
        (theorem1_doc(T=_INF, time_points=None), "T must be a finite number > 0, got inf"),
        (theorem1_doc(delta=_NAN), r"delta must be a finite number in \(0, 1\), got nan"),
        (theorem1_doc(r_schedule=[10.0, _INF]), r"r_schedule\[1\] must be a finite number >= 1, got inf"),
        (theorem1_doc(r_schedule=[10.0, _NAN]), r"r_schedule\[1\] must be a finite number >= 1, got nan"),
        (theorem1_doc(time_points=[0.25, _NAN]), r"time_points\[1\] must be a finite number > 0, got nan"),
        (theorem1_doc(tolerances={"limit_band": _NAN}), _TOLERANCES_MESSAGE),
        (theorem1_doc(tolerances={"limit_band": _INF}), _TOLERANCES_MESSAGE),
        (
            {"kind": "eta_inf_check", "model": cycle_model_config(), "r_schedule": [_INF], "replicas": 100,
             "init": [1, 1, 1]},
            r"r_schedule\[0\] must be a finite number >= 1, got inf",
        ),
    ],
    ids=["T-nan", "T-inf", "delta-nan", "r_schedule-inf", "r_schedule-nan", "time_points-nan", "tolerance-nan",
         "tolerance-inf", "eta_inf-r_schedule-inf"],
)
def test_config_rejects_non_finite_numbers(doc, fragment):
    with pytest.raises(ConfigError, match=fragment):
        ExperimentConfig.from_dict(doc)


@pytest.mark.parametrize(
    "overrides,fragment",
    [
        ({"T": True}, "T must be a finite number > 0, got True"),
        ({"T": "0.5"}, "T must be a finite number > 0, got '0.5'"),
        ({"time_points": [0.25, True]}, r"time_points\[1\] must be a finite number > 0, got True"),
        ({"r_schedule": [10, "100"]}, r"r_schedule\[1\] must be a finite number >= 1, got '100'"),
        ({"delta": "0.1"}, r"delta must be a finite number in \(0, 1\), got '0.1'"),
        ({"tolerances": {"limit_band": True}}, _TOLERANCES_MESSAGE),
        ({"tolerances": {"limit_band": "0.1"}}, _TOLERANCES_MESSAGE),
    ],
    ids=["T-bool", "T-str", "time_points-bool", "r_schedule-str", "delta-str", "tolerance-bool", "tolerance-str"],
)
def test_config_float_fields_take_numbers_only(overrides, fragment):
    # from_dict passes values through as they are, so both entry points reject these
    with pytest.raises(ConfigError, match=fragment):
        ExperimentConfig.from_dict(theorem1_doc(**overrides))
    with pytest.raises(ConfigError, match=fragment):
        ExperimentConfig(**theorem1_doc(**overrides))


_COUNTS_MESSAGE = r"init must be a list of counts \(integers >= 0\)"


@pytest.mark.parametrize("kind", ["absorption_tail", "eta_inf_check"])
@pytest.mark.parametrize(
    "init,fragment",
    [
        ({"dirac": "x"}, "list of counts"),
        ("2,2", "list of counts"),
        ([4], "one count per model state"),
        ([1, 1, 2], "one count per model state"),
        pytest.param([5, -1], _COUNTS_MESSAGE, id="init4-nonnegative integers"),
        pytest.param([1.5, 2], _COUNTS_MESSAGE, id="init5-nonnegative integers"),
        pytest.param(["2", "2"], _COUNTS_MESSAGE, id="init6-nonnegative integers"),
        pytest.param([True, 2], _COUNTS_MESSAGE, id="init7-nonnegative integers"),
        ([1, 0], "at least two particles"),
    ],
)
def test_config_rejects_bad_init_counts(kind, init, fragment):
    doc = {
        "kind": kind,
        "model": two_site_config(alpha=1.0),
        "r_schedule": [10.0, 100.0] if kind == "absorption_tail" else [10.0],
        "replicas": 100,
        "init": init,
    }
    with pytest.raises(ConfigError, match=fragment):
        ExperimentConfig.from_dict(doc)


def test_config_theorem3_point_checks():
    base = {
        "kind": "theorem3_regime",
        "model": {
            "states": ["a", "b", "c"],
            "mutation": [
                {"from": "a", "to": "b", "rate": 1.0},
                {"from": "b", "to": "c", "rate": 1.0},
                {"from": "c", "to": "a", "rate": 1.0},
            ],
            "killing": {"kind": "uniform_plus", "m": {"a": 0.0, "b": 1.0, "c": 2.0}},
        },
        "seed": 1,
        "T": 1.0,
        "time_points": [1.0],
        "replicas": 100,
        "init": {"dirac": "a"},
        "points": [{"n": 4, "r": 10.0}, {"n": 8, "r": 100.0}],
    }
    ExperimentConfig.from_dict(base).validate()
    bad = dict(base, points=[{"n": 4, "r": 100.0}, {"n": 8, "r": 10.0}])
    with pytest.raises(ConfigError, match="points must be strictly increasing in r"):
        ExperimentConfig.from_dict(bad)
    bad = dict(base, points=[{"n": 4}])
    with pytest.raises(ConfigError, match=r"points\[0\] must be a block with keys \['n', 'r'\]"):
        ExperimentConfig.from_dict(bad)
    bad = dict(base, points=[{"n": 1, "r": 10.0}])
    with pytest.raises(ConfigError, match=r"points\[0\]\.n must be an integer >= 2"):
        ExperimentConfig.from_dict(bad)
    # a string r used to run and be hashed as "50"
    bad = dict(base, points=[{"n": 6, "r": "50"}])
    with pytest.raises(ConfigError, match=r"points\[0\]\.r must be a finite number >= 1, got '50'"):
        ExperimentConfig.from_dict(bad)
    bad = dict(base, points=[{"n": 6, "r": 50.0, "m": 1}])
    with pytest.raises(ConfigError, match=r"points\[0\] must be a block with keys \['n', 'r'\]"):
        ExperimentConfig.from_dict(bad)


def test_config_theorem3_point_n_must_be_an_integer():
    base = theorem1_doc(kind="theorem3_regime", n=None, r_schedule=None, T=1.0, time_points=[1.0])
    base["model"] = {
        "states": ["a", "b"],
        "mutation": [{"from": "a", "to": "b", "rate": 1.0}, {"from": "b", "to": "a", "rate": 1.0}],
        "killing": {"kind": "uniform_plus", "m": {"a": 0.0, "b": 1.0}},
    }
    ExperimentConfig.from_dict(dict(base, points=[{"n": 10, "r": 100.0}]))
    with pytest.raises(ConfigError, match=r"points\[0\]\.n must be an integer >= 2"):
        ExperimentConfig.from_dict(dict(base, points=[{"n": 10.7, "r": 100.0}]))


def test_config_eta_inf_single_intensity():
    doc = {
        "kind": "eta_inf_check",
        "model": cycle_model_config(),
        "n": 4,
        "r_schedule": [100.0, 1000.0],
        "replicas": 200,
        "init": [1, 2, 1],
    }
    with pytest.raises(ConfigError, match="exactly one intensity"):
        ExperimentConfig.from_dict(doc)


def test_config_committor_check_grid_required():
    with pytest.raises(ConfigError, match="grid"):
        ExperimentConfig.from_dict({"kind": "committor_check"})


def _committor_doc(**overrides):
    doc = {
        "kind": "committor_check",
        "seed": 1,
        "grid": {"n": [2, 4], "alpha": [0.5, 2.0]},
        "mc": {"n": 4, "alpha": 2.0, "counts": [3, 1], "replicas": 200},
    }
    doc.update(overrides)
    return doc


@pytest.mark.parametrize(
    "overrides,fragment",
    [
        pytest.param({"grid": {"n": [4, 1], "alpha": [2.0]}}, r"grid\.n\[1\] must be an integer >= 2",
                     id="overrides0-grid n must list integers >= 2"),
        pytest.param({"grid": {"n": [2.5], "alpha": [2.0]}}, r"grid\.n\[0\] must be an integer >= 2",
                     id="overrides1-grid n must list integers >= 2"),
        pytest.param({"grid": {"n": "4", "alpha": [2.0]}}, r"grid\.n must be a nonempty list",
                     id="overrides2-grid n must list integers >= 2"),
        pytest.param({"grid": {"n": [4], "alpha": [0.0]}}, r"grid\.alpha\[0\] must be a finite number > 0",
                     id="overrides3-grid alpha must list finite ratios"),
        pytest.param({"grid": {"n": [4], "alpha": [float("inf")]}}, r"grid\.alpha\[0\] must be a finite number > 0",
                     id="overrides4-grid alpha must list finite ratios"),
        pytest.param({"grid": {"n": [4], "alpha": [float("nan")]}}, r"grid\.alpha\[0\] must be a finite number > 0",
                     id="overrides5-grid alpha must list finite ratios"),
        pytest.param({"grid": {"n": [4], "alpha": [2.0], "k": [1]}},
                     r"grid must be a block with keys \['n', 'alpha'\], got \{'n': \[4\], 'alpha': \[2.0\], 'k': \[1\]\}",
                     id=r"overrides6-reads only the grid keys \['n', 'alpha'\], got \['alpha', 'k', 'n'\]"),
        # 6 particles simulated against the n = 4 committor: a false FAIL at run time
        pytest.param({"mc": {"n": 4, "alpha": 2.0, "counts": [3, 3], "replicas": 200}},
                     r"mc\.counts must be two counts that sum to mc\.n", id="overrides7-that sum to n"),
        pytest.param({"mc": {"n": 4, "alpha": 2.0, "counts": [4], "replicas": 200}},
                     r"mc\.counts must be two counts", id="overrides8-two nonnegative integers"),
        pytest.param({"mc": {"n": 4, "alpha": 2.0, "counts": [5, -1], "replicas": 200}},
                     r"mc\.counts\[1\] must be an integer >= 0", id="overrides9-two nonnegative integers"),
        pytest.param({"mc": {"n": 4, "alpha": 2.0, "counts": [3.0, 1], "replicas": 200}},
                     r"mc\.counts\[0\] must be an integer >= 0", id="overrides10-two nonnegative integers"),
        pytest.param({"mc": {"n": 1, "alpha": 2.0, "counts": [1, 0], "replicas": 200}},
                     r"mc\.n must be an integer >= 2", id="overrides11-integer n >= 2"),
        pytest.param({"mc": {"n": 4, "alpha": -2.0, "counts": [3, 1], "replicas": 200}},
                     r"mc\.alpha must be a finite number > 0", id="overrides12-finite alpha > 0"),
        pytest.param({"mc": {"n": 4, "alpha": 2.0, "counts": [3, 1], "replicas": 50}},
                     r"mc\.replicas must be an integer >= 100", id="overrides13-replicas >= 100"),
        pytest.param({"mc": {"n": 4, "alpha": 2.0, "counts": [3, 1]}},
                     r"mc must be a block with keys \['n', 'alpha', 'counts', 'replicas'\]",
                     id="overrides14-mc block with keys"),
        pytest.param({"mc": {"n": 4, "alpha": 2.0, "counts": [3, 1], "replicas": 200, "r": 1.0}},
                     r"mc must be a block with keys \['n', 'alpha', 'counts', 'replicas'\]",
                     id="overrides15-reads only the mc keys"),
    ],
)
def test_config_committor_check_fields(overrides, fragment):
    ExperimentConfig.from_dict(_committor_doc())  # the base document is valid
    with pytest.raises(ConfigError, match=fragment):
        ExperimentConfig.from_dict(_committor_doc(**overrides))


def _kind_doc(kind):
    """A valid document of each kind, without tolerances."""
    counts = {"model": cycle_model_config(), "replicas": 100, "init": [1, 1, 1]}
    return {
        "theorem1_marginal": theorem1_doc(),
        "theorem2_pathwise": theorem1_doc(kind="theorem2_pathwise", time_points=None),
        "theorem3_regime": _theorem3_doc(),
        "absorption_tail": dict(counts, kind="absorption_tail", r_schedule=[10.0, 100.0]),
        "eta_inf_check": dict(counts, kind="eta_inf_check", r_schedule=[10.0]),
        "committor_check": _committor_doc(),
        "conjecture_probe": {"kind": "conjecture_probe", "model": azb_config()},
    }[kind]


@pytest.mark.parametrize("kind", ["absorption_tail", "eta_inf_check"])
def test_config_count_list_kinds_check_n_against_init(kind):
    ExperimentConfig.from_dict(dict(_kind_doc(kind), n=3))  # init [1, 1, 1]
    with pytest.raises(ConfigError, match="init counts sum to 3, expected n = 99"):
        ExperimentConfig.from_dict(dict(_kind_doc(kind), n=99))


def test_absorption_tail_rejects_init_on_one_site():
    # every replica would absorb at t = 0, leaving no tail to fit; the run
    # used to end in a ZeroDivisionError instead
    with pytest.raises(ConfigError, match=r"particles on at least two sites, got init \[5, 0, 0\]"):
        ExperimentConfig.from_dict(dict(_kind_doc("absorption_tail"), init=[5, 0, 0]))
    ExperimentConfig.from_dict(dict(_kind_doc("eta_inf_check"), init=[5, 0, 0]))  # a Dirac law is exact


@pytest.mark.parametrize(
    "kind,r_schedule",
    [
        ("theorem1_marginal", [0.5, 10.0]),
        ("theorem2_pathwise", [0.5, 10.0]),
        ("absorption_tail", [0.5, 10.0]),
        ("eta_inf_check", [0.5]),
    ],
)
def test_config_rejects_intensity_below_one(kind, r_schedule):
    with pytest.raises(ConfigError, match=r"r_schedule\[0\] must be a finite number >= 1, got 0.5"):
        ExperimentConfig.from_dict(dict(_kind_doc(kind), r_schedule=r_schedule))


@pytest.mark.parametrize(
    "kind,keys",
    [
        ("theorem1_marginal", ["monotone_slack", "limit_band"]),
        ("theorem2_pathwise", ["avg_occupation_band", "decay_factor"]),
        ("theorem3_regime", ["cprime_factor"]),
        ("absorption_tail", ["slope_ratio_rel_tol"]),
        ("eta_inf_check", ["tv_tol"]),
        ("committor_check", ["grid_tol"]),
        ("conjecture_probe", []),
    ],
)
def test_config_accepts_only_the_kinds_tolerance_keys(kind, keys):
    ExperimentConfig.from_dict(dict(_kind_doc(kind), tolerances={k: 1.0 for k in keys}))
    for other in sorted({"limit_bnad", "sim_tv_tol", "limit_band", "tv_tol", "cprime_factor"} - set(keys)):
        with pytest.raises(ConfigError, match=rf"{kind} reads only the tolerances .*, got \['{other}'\]"):
            ExperimentConfig.from_dict(dict(_kind_doc(kind), tolerances={other: 0.0}))


@pytest.mark.parametrize(
    "kind,key,bad,edge",
    [
        ("theorem1_marginal", "monotone_slack", -1e-9, 0.0),
        ("theorem1_marginal", "limit_band", 0.0, 1e-9),
        ("theorem2_pathwise", "avg_occupation_band", -0.1, 1e-9),
        # a decay factor below 1 used to PASS the decay row whatever the data
        ("theorem2_pathwise", "decay_factor", -5.0, 1.0),
        ("theorem2_pathwise", "decay_factor", 0.5, 1.0),
        ("theorem3_regime", "cprime_factor", 0.99, 1.0),
        ("absorption_tail", "slope_ratio_rel_tol", 0.0, 1e-9),
        ("eta_inf_check", "tv_tol", -0.02, 1e-9),
        ("committor_check", "grid_tol", 0.0, 1e-15),
    ],
)
def test_config_tolerance_ranges(kind, key, bad, edge):
    ExperimentConfig.from_dict(dict(_kind_doc(kind), tolerances={key: edge}))
    with pytest.raises(ConfigError, match=rf"^tolerances\.{key} must be a finite number (>|>=) [01], got {bad}$"):
        ExperimentConfig.from_dict(dict(_kind_doc(kind), tolerances={key: bad}))


def _probe_sim_doc(**sim):
    block = {"n": 4, "r": 50.0, "T": 0.5, "replicas": 100, "init": {"dirac": "a"}}
    block.update(sim)
    return {"kind": "conjecture_probe", "model": azb_config(), "seed": 1, "sim": block}


@pytest.mark.parametrize(
    "sim,fragment",
    [
        pytest.param({"init": [4, 0, 0]}, r"sim\.init must be a \{'dirac': site\} block",
                     id=r"sim0-sim init must be \{'dirac': site\}"),
        ({"init": {"dirac": "q"}}, "'q' is not a stable site"),
        pytest.param({"n": 1}, r"sim\.n must be an integer >= 2", id="sim2-integer n >= 2"),
        pytest.param({"r": 0.5}, r"sim\.r must be a finite number >= 1", id="sim3-finite r >= 1"),
        pytest.param({"T": 0.0}, r"sim\.T must be a finite number > 0", id="sim4-finite T > 0"),
        ({"time_points": [0.5, 0.25]}, "strictly increasing"),
        pytest.param({"time_points": [0.0, 0.5]}, r"sim\.time_points\[0\] must be a finite number > 0",
                     id=r"sim6-must lie in \(0, T\]"),
        ({"time_points": [0.25, 0.75]}, r"must lie in \(0, T\]"),
        pytest.param({"replicas": 99}, r"sim\.replicas must be an integer >= 100", id="sim8-replicas >= 100"),
        pytest.param({"M": 100}, r"sim must be a block with keys \['n', 'r', 'T', 'replicas', 'init'\]"
                     r" and optionally \['time_points'\]", id="sim9-reads only the sim keys"),
    ],
)
def test_config_conjecture_probe_sim_fields(sim, fragment):
    ExperimentConfig.from_dict(_probe_sim_doc(time_points=[0.25, 0.5]))
    with pytest.raises(ValueError, match=fragment):
        ExperimentConfig.from_dict(_probe_sim_doc(**sim))


def _overflowing_uniform_plus_cycle():
    model = _uniform_plus_cycle()
    model["killing"]["m"]["c"] = 1e300  # r + m is not finite at the largest float r
    return model


@pytest.mark.parametrize(
    "doc",
    [
        lambda: theorem1_doc(model=azb_config(), r_schedule=[10.0, 1e200]),
        lambda: _theorem3_doc(model=_overflowing_uniform_plus_cycle(),
                              points=[{"n": 6, "r": 50.0}, {"n": 8, "r": sys.float_info.max}]),
        lambda: _probe_sim_doc(r=1e200),
    ],
    ids=["r_schedule", "points", "sim"],
)
def test_config_rejects_an_intensity_whose_killing_rate_overflows(doc):
    # each used to pass validation and fail later, in the run
    with pytest.raises(ModelError, match=r"killing rate at '[a-z]' overflows at r="):
        ExperimentConfig.from_dict(doc())


@pytest.mark.parametrize(
    "doc, fragment",
    [
        (lambda: theorem1_doc(model=overflowing_totals_config(), seed=3, r_schedule=[10.0], time_points=[0.5],
                              replicas=100, init={"dirac": "x"}), "event rates overflow: .* at n=3, r=10.0"),
        # at r = 1e306 every killing rate is finite and the totals at n = 40 are not
        (lambda: _theorem3_doc(init=[20, 20, 0], points=[{"n": 40, "r": 50.0}, {"n": 40, "r": 1e306}]),
         "event rates overflow: .* at n=40, r=1e[+]306"),
        (lambda: _probe_sim_doc(n=40, r=1e153), "event rates overflow: .* at n=40, r=1e[+]153"),
        # the selection-only kinds' n is their init counts' sum
        (lambda: dict(_kind_doc("absorption_tail"), model=_uniform_plus_cycle(), init=[20, 20, 0],
                      r_schedule=[10.0, 1e306]), "event rates overflow: .* at n=40, r=1e[+]306"),
        (lambda: _committor_doc(mc={"n": 40, "alpha": 1e306, "counts": [20, 20], "replicas": 200}),
         "event rates overflow: .* at n=40, r=1.0"),
        # the mc model meets validate_model's floor too
        (lambda: _committor_doc(mc={"n": 4, "alpha": 1e-320, "counts": [3, 1], "replicas": 200}),
         r"c\(y\) = 1e-320 is below the smallest normal double"),
    ],
    ids=["r_schedule", "points", "sim", "absorption", "mc", "mc-subnormal-alpha"],
)
def test_config_rejects_event_totals_that_overflow(doc, fragment):
    # each used to pass validation; the reproduction then ran 10^7 events
    # at t = 0 (every waiting time e / inf) and ended in an event-cap FAIL
    with pytest.raises(ModelError, match=fragment):
        ExperimentConfig.from_dict(doc())


def test_config_conjecture_probe_expect_keys():
    doc = {"kind": "conjecture_probe", "model": azb_config(), "expect": {"stable_sites": ["a", "b"]}}
    ExperimentConfig.from_dict(doc)
    with pytest.raises(ConfigError, match=r"expect must be a block with keys \[\] and optionally \['stable_sites', 'rates'\]"):
        ExperimentConfig.from_dict(dict(doc, expect={"stable_site": ["a", "b"]}))


_RATE_MESSAGE = r"expect\.rates\[0\]\.rate must be a finite number >= 0"


@pytest.mark.parametrize(
    "expect,fragment",
    [
        # a missing rate used to end the run in a KeyError
        ({"rates": [{"from": "a", "to": "b"}]}, r"expect\.rates\[0\] must be a block with keys \['from', 'to', 'rate'\]"),
        ({"rates": [{"from": "a", "to": "b", "rate": "x"}]}, _RATE_MESSAGE),
        ({"rates": [{"from": "a", "to": "b", "rate": -1.0}]}, _RATE_MESSAGE),
        ({"rates": [{"from": "a", "to": "b", "rate": _NAN}]}, _RATE_MESSAGE),
        ({"rates": [{"from": 0, "to": "b", "rate": 2.0}]}, r"expect\.rates\[0\]\.from must be a site label"),
        ({"rates": {"from": "a", "to": "b", "rate": 2.0}}, r"expect\.rates must be a nonempty list"),
        # a string used to be read as the sites ("a", "b") and PASS
        ({"stable_sites": "ab"}, r"expect\.stable_sites must be a nonempty list, got 'ab'"),
        ({"stable_sites": ["a", 2]}, r"expect\.stable_sites\[1\] must be a site label"),
    ],
    ids=["rate-missing", "rate-str", "rate-negative", "rate-nan", "from-int", "rates-block", "sites-str",
         "sites-int"],
)
def test_config_conjecture_probe_expect_entries(expect, fragment):
    with pytest.raises(ConfigError, match=fragment):
        ExperimentConfig.from_dict({"kind": "conjecture_probe", "model": azb_config(), "expect": expect})


def test_config_init_counts_resolution():
    from fvlab import validate_model
    from fvlab.experiments import _init_counts

    cfg = ExperimentConfig.from_dict(theorem1_doc())
    model = validate_model(cycle_model_config())
    assert _init_counts(model, cfg.init, 3) == (3, 0, 0)
    listy = ExperimentConfig.from_dict(theorem1_doc(init=[1, 1, 1]))
    assert _init_counts(model, listy.init, 3) == (1, 1, 1)
    with pytest.raises(ConfigError, match="sum"):  # checked by validate(), not _init_counts
        ExperimentConfig.from_dict(theorem1_doc(init=[1, 1, 1], n=4))


def test_config_model_path_loading(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(cycle_model_config()))
    doc = theorem1_doc()
    del doc["model"]
    doc["model_path"] = str(path)
    cfg = ExperimentConfig.from_dict(doc)
    assert cfg.model["states"] == ["a", "b", "c"]


# ------------------------------------------------------------ report plumbing


@pytest.fixture(scope="module")
def small_theorem1_report():
    cfg = ExperimentConfig.from_dict(theorem1_doc())
    return run_experiment(cfg)


def test_report_rows_and_hash(small_theorem1_report):
    rep = small_theorem1_report
    assert rep.kind == "theorem1_marginal"
    stats = {row["statistic"] for row in rep.rows}
    assert "tv_vs_finite_chain" in stats
    assert "tv_vs_limit_chain" in stats
    assert "sup_tv_monotone_in_r" in stats
    assert rep.result_hash and len(rep.result_hash) == 64
    assert rep.events_total > 0
    assert set(rep.timing) == {"wall_seconds", "threads", "points"}


def test_report_timing_points(small_theorem1_report):
    from fvlab import EmpiricalMeasure, simulate_fv
    from fvlab.experiments import _init_counts

    rep, cfg = small_theorem1_report, ExperimentConfig.from_dict(theorem1_doc())
    points = rep.timing["points"]
    # one pass per intensity covers the whole time grid
    times = cfg.resolve_times()
    assert [(p["r"], p["t"]) for p in points] == [(r, times) for r in cfg.r_schedule]
    assert sum(p["events"] for p in points) == rep.events_total
    model = cfg.validated_model()
    init = EmpiricalMeasure(_init_counts(model, cfg.init, cfg.n))
    for pid, p in enumerate(points):
        spread = p["events_per_replica"]
        assert p["replicas"] == cfg.replicas and p["wall_s"] > 0
        assert p["events_per_s"] == p["events"] / p["wall_s"]
        assert spread["p50"] <= spread["p99"] <= spread["max"]
        # the slowest replica replays alone to its event count over the pass
        assert pid * cfg.replicas <= p["max_events_replica"] < (pid + 1) * cfg.replicas
        rng = derive_replica_rng(cfg.seed, p["max_events_replica"])
        traj = simulate_fv(model, p["r"], init, times[-1], rng, record=False)
        assert traj.event_count == spread["max"]
    json.dumps(rep.timing)


def test_report_hash_reproducible(small_theorem1_report):
    cfg = ExperimentConfig.from_dict(theorem1_doc())
    again = run_experiment(cfg)
    assert again.result_hash == small_theorem1_report.result_hash


def test_report_hash_thread_invariant(small_theorem1_report):
    cfg = ExperimentConfig.from_dict(theorem1_doc())
    threaded = run_experiment(cfg, threads=2)
    assert threaded.result_hash == small_theorem1_report.result_hash
    assert threaded.timing["threads"] == 2


@pytest.mark.parametrize("threads", [0, -2, 2.5, True, False, "2", None])
def test_threads_must_be_an_integer_of_at_least_one(monkeypatch, tmp_path, threads):
    # 0 and -2 used to run one worker and write themselves into the timing;
    # 2.5 used to raise TypeError from inside the pool, partway through a run
    import fvlab.experiments as experiments

    def fail(*args, **kwargs):
        raise AssertionError("a point ran")

    monkeypatch.setattr(experiments, "_run_point", fail)
    with pytest.raises(ValueError, match=f"threads must be an integer >= 1, got {threads!r}"):
        run_experiment(theorem1_doc(), threads=threads, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_report_hash_tracks_seed():
    reseeded = run_experiment(ExperimentConfig.from_dict(theorem1_doc(seed=8)))
    baseline = run_experiment(ExperimentConfig.from_dict(theorem1_doc()))
    assert reseeded.result_hash != baseline.result_hash


def test_report_write_outputs(tmp_path):
    cfg = ExperimentConfig.from_dict(theorem1_doc())
    rep = run_experiment(cfg, out_dir=tmp_path)
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["result_hash"] == rep.result_hash
    assert doc["kind"] == "theorem1_marginal"
    csv_lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert csv_lines[0] == "experiment,r,t,statistic,value,half_width,verdict"
    assert len(csv_lines) == 1 + len(rep.rows)
    outcome_files = list((tmp_path / "outcomes").glob("*.csv"))
    assert outcome_files, "per-point outcome tables should be written"
    digests = set(rep.outcome_digests.values())
    assert len(digests) == len(rep.outcome_digests)  # distinct points differ


def test_written_outcome_files_re_digest_to_the_report(tmp_path, monkeypatch):
    # An outcome text holds csv's \r\n line ends.  Written with newline
    # translation, as text files are on a \r\n platform, they became
    # \r\r\n on disk and the file no longer matched its digest.
    import builtins

    import fvlab.experiments as experiments

    def crlf_open(*args, newline="\r\n", **kwargs):
        return builtins.open(*args, newline=newline, **kwargs)

    monkeypatch.setattr(experiments, "open", crlf_open, raising=False)
    rep = run_experiment(ExperimentConfig.from_dict(theorem1_doc()), out_dir=tmp_path)
    files = sorted((tmp_path / "outcomes").glob("*.csv"))
    assert [f.name for f in files] == sorted(rep.outcome_digests)
    for f in files:
        assert b"\r\r" not in f.read_bytes()
        assert hashlib.sha256(f.read_bytes()).hexdigest()[:16] == rep.outcome_digests[f.name]


def test_outcome_table_formats_each_column_by_dtype():
    from fvlab.experiments import _occupation_csv

    states = ("a", 'b,"c"', "d")  # a label that csv must quote
    final = np.array([[3, 0, -1], [2**40, 7, 0], [0, 0, 5], [1, 1, 1]], dtype=np.int64)
    tau = np.array([0.1, 1.0, 1e-300, 2.5e17])
    text = _occupation_csv(states, {"final": final, "tau": tau})
    # reference: one csv row per replica, ints as ints and floats by .17g
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["replica", *(f"final_{s}" for s in states), "tau"])
    for i in range(len(tau)):
        writer.writerow([i, *(int(v) for v in final[i]), format(float(tau[i]), ".17g")])
    assert text == buf.getvalue()
    assert text.splitlines()[0] == 'replica,final_a,"final_b,""c""",final_d,tau'
    assert text.splitlines()[4] == "3,1,1,1,2.5e+17"


def test_event_cap_abort_recorded_not_raised():
    cfg = ExperimentConfig.from_dict(theorem1_doc(event_cap=3))
    rep = run_experiment(cfg)
    aborts = [r for r in rep.rows if r["statistic"] == "event_cap_abort"]
    assert aborts, "capped replicas must surface as rows"
    assert all(r["verdict"] == "FAIL" for r in aborts)
    assert not rep.all_pass
    # summary verdicts that need complete data are absent, not fabricated
    assert all(r["statistic"] != "sup_tv_monotone_in_r" for r in rep.rows)


def _partial_abort_config():
    # at cap 18 the r = 100 pass aborts and the r = 10 pass completes
    return ExperimentConfig.from_dict(theorem1_doc(event_cap=18, replicas=600))


def test_theorem1_partial_abort_emits_no_summary():
    rep = run_experiment(_partial_abort_config())
    stats = [r["statistic"] for r in rep.rows]
    assert stats.count("event_cap_abort") == 2 and stats.count("tv_vs_finite_chain") == 2
    # an aborted pass fails every time point of its intensity
    aborted = [(row["r"], row["t"]) for row in rep.rows if row["statistic"] == "event_cap_abort"]
    assert aborted == [(100.0, 0.25), (100.0, 0.5)]
    assert "sup_tv_monotone_in_r" not in stats and "sup_tv_vs_limit_at_rmax" not in stats
    assert not any(key.startswith("sup_tv") for key in rep.extras)


def test_event_cap_abort_thread_invariant_and_replayable():
    from fvlab import EmpiricalMeasure, EventCapError, simulate_fv
    from fvlab.experiments import _fv_final_chunk, _Pool, _run_point

    cfg = _partial_abort_config()
    serial, pooled = run_experiment(cfg), run_experiment(cfg, threads=2)
    assert pooled.result_hash == serial.result_hash
    assert {k: v for k, v in pooled.to_json_dict().items() if k != "timing"} == {
        k: v for k, v in serial.to_json_dict().items() if k != "timing"
    }
    aborts = serial.timing["event_cap_aborts"]
    assert aborts == pooled.timing["event_cap_aborts"]
    abort_rows = [(row["r"], row["t"]) for row in serial.rows if row["statistic"] == "event_cap_abort"]
    assert [(a["r"], t) for a in aborts for t in a["t"]] == abort_rows

    model, M, init = cfg.validated_model(), cfg.replicas, EmpiricalMeasure([3, 0, 0])
    pool = _Pool(2)
    try:
        for abort in aborts:
            r, times = abort["r"], abort["t"]
            assert times == cfg.time_points
            base = cfg.r_schedule.index(r) * M  # each pass takes the next M indices
            payload = dict(model=model, counts=init.counts, r=r, t=times, seed=cfg.seed, base=base, event_cap=18)
            err = _run_point(_fv_final_chunk, payload, M, pool)  # pickled out of a worker
            assert isinstance(err, EventCapError)
            assert err.replica == abort["replica"] and base <= err.replica < base + M
            assert f"in replica {err.replica}" in str(err)
            with pytest.raises(EventCapError) as replay:
                rng = derive_replica_rng(cfg.seed, err.replica)
                simulate_fv(model, r, init, times[-1], rng, record=False, event_cap=18)
            assert (replay.value.time, replay.value.counts) == (err.time, err.counts)
    finally:
        pool.close()


def _abort_cases():
    """Per kind: a config whose event cap aborts exactly one pass, and the
    row that needs that pass and must therefore be absent."""
    docs = _pinned_docs()
    return {
        "absorption_tail": (dict(docs["absorption_tail"], event_cap=25), "tail_slope_ratio_vs_killing_floor_ratio"),
        "eta_inf_check": (dict(docs["eta_inf"], n=4, init=[2, 2], event_cap=10), "tv_exact_vs_absorbed_site_law"),
        "committor_check_mc": (dict(docs["committor_mc"], event_cap=10), "mc_absorption_freq_abs_dev"),
        "conjecture_probe_sim": (dict(_probe_sim_doc(), event_cap=20), "tv_vs_conjectured_chain"),
    }


@pytest.mark.parametrize("case", ["absorption_tail", "eta_inf_check", "committor_check_mc", "conjecture_probe_sim"])
def test_event_cap_abort_in_every_simulating_kind(case):
    from fvlab import EmpiricalMeasure, EventCapError, simulate_fv, simulate_selection_absorption, validate_model

    doc, needs_the_pass = _abort_cases()[case]
    cfg = ExperimentConfig.from_dict(doc)
    rep = run_experiment(cfg)
    aborts = [row for row in rep.rows if row["statistic"] == "event_cap_abort"]
    assert [row["verdict"] for row in aborts] == ["FAIL"] and not rep.all_pass
    assert needs_the_pass not in [row["statistic"] for row in rep.rows]
    (abort,) = rep.timing["event_cap_aborts"]
    assert abort["r"] == aborts[0]["r"]

    # the recorded replica hits the cap again when replayed alone
    rng = derive_replica_rng(cfg.seed, abort["replica"])
    if case == "conjecture_probe_sim":
        model, sim = cfg.validated_model(), cfg.sim
        init = EmpiricalMeasure([sim["n"] * (s == sim["init"]["dirac"]) for s in model.states])
        replay = lambda: simulate_fv(model, abort["r"], init, sim["T"], rng, record=False, event_cap=cfg.event_cap)
    else:
        mc = case == "committor_check_mc"  # that kind builds its own two-site model
        model = validate_model(two_site_config(alpha=cfg.mc["alpha"])) if mc else cfg.validated_model()
        init = EmpiricalMeasure(cfg.mc["counts"] if mc else cfg.init)
        replay = lambda: simulate_selection_absorption(model, abort["r"], init, rng, event_cap=cfg.event_cap)
    with pytest.raises(EventCapError):
        replay()


def test_run_experiment_validates_config_instances():
    # construction validates, so an invalid instance never reaches run_experiment
    with pytest.raises(ConfigError, match="replicas"):
        ExperimentConfig(
            kind="theorem1_marginal",
            model=cycle_model_config(),
            n=3,
            r_schedule=(10.0,),
            T=0.5,
            replicas=5,
            init={"dirac": "a"},
        )


def test_run_experiment_checks_out_dir_before_simulating(tmp_path, monkeypatch):
    import fvlab.experiments as ex

    def never(*args, **kwargs):
        raise AssertionError("simulated before checking out_dir")

    monkeypatch.setattr(ex, "_run_point", never)
    out = tmp_path / "taken"
    out.write_text("")
    with pytest.raises(FileExistsError):
        run_experiment(theorem1_doc(), out_dir=out)


def test_theorem2_chain_start_raises_before_any_point(monkeypatch):
    # four sites at n = 120 make a committor space of 302 621 states, over
    # the cap; the config is valid, and the chain starts used to be built
    # only after each intensity's particle pass
    import fvlab.experiments as ex

    calls = _count_calls(monkeypatch, ex, ["_run_point"])
    sites = ["a", "b", "c", "d"]
    model = {
        "states": sites,
        "mutation": [{"from": x, "to": y, "rate": 1.0} for x, y in zip(sites, sites[1:] + sites[:1])],
        "killing": {"kind": "power", "c": dict(zip(sites, [1.0, 2.0, 3.0, 4.0])), "beta": dict.fromkeys(sites, "1")},
    }
    doc = theorem1_doc(
        kind="theorem2_pathwise", model=model, n=120, init=[30, 30, 30, 30],
        r_schedule=[10.0, 20.0], T=1.0, replicas=300, time_points=None,
    )
    ExperimentConfig.from_dict(doc).validate()
    with pytest.raises(ValueError, match="composition space has 302621 states"):
        run_experiment(doc)
    assert calls["_run_point"] == 0


def _count_calls(monkeypatch, module, names):
    """Wrap ``module.<name>`` for each name; return the live call counts."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_config_validated_once_per_run(monkeypatch):
    import fvlab.experiments as experiments

    calls = _count_calls(monkeypatch, experiments, ["validate_model", "conjectured_limit_rates"])
    run_experiment(ExperimentConfig.from_dict(_probe_sim_doc()))
    assert calls["validate_model"] == 1
    assert calls["conjectured_limit_rates"] <= 2  # validate()'s stable-site check, then the kind


def test_theorem1_builds_each_chain_once(monkeypatch):
    import fvlab.experiments as experiments

    calls = _count_calls(monkeypatch, experiments, ["condensate_rates", "_chain_start", "ctmc_marginal"])
    run_experiment(ExperimentConfig.from_dict(theorem1_doc(time_points=[0.1, 0.2, 0.3, 0.4, 0.5])))
    # the limit and each of the two r; the limit chain's marginal once per time
    assert calls == {"condensate_rates": 3, "_chain_start": 3, "ctmc_marginal": 5 + 2 * 5}


def test_theorem1_solves_the_power_cycle_committor_once(monkeypatch):
    # the finite-r starts pass raw killing rates r * (1, 2, 4) and the limit
    # start the weights (1, 2, 4): all scale to (0.25, 0.5, 1), so one solve
    # serves the four starts, and the report is the one of four solves
    import fvlab.condensation as condensation
    import fvlab.experiments as experiments
    from fvlab.committor import _psi, committor_numeric

    doc = theorem1_doc(n=6, init=[3, 2, 1], r_schedule=[10.0, 100.0, 1000.0], replicas=100)
    _psi.cache_clear()
    calls = _count_calls(monkeypatch, experiments, ["_chain_start"])
    memoized = run_experiment(ExperimentConfig.from_dict(doc))
    info = _psi.cache_info()
    assert calls["_chain_start"] == 4
    assert (info.misses, info.hits) == (1, 3)

    solves = []

    def solved_afresh(*args, **kwargs):
        _psi.cache_clear()
        solves.append(committor_numeric(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(experiments, "committor_numeric", solved_afresh)
    monkeypatch.setattr(condensation, "committor_numeric", solved_afresh)
    afresh = run_experiment(ExperimentConfig.from_dict(doc))
    assert len({id(table.psi) for table in solves}) == 4
    assert afresh.result_hash == memoized.result_hash


# ----------------------------------------------------------- per-kind smokes


def test_theorem2_pathwise_smoke():
    cfg = ExperimentConfig.from_dict(
        {
            "kind": "theorem2_pathwise",
            "model": cycle_model_config(),
            "seed": 3,
            "n": 3,
            "r_schedule": [10.0, 200.0],
            "T": 0.5,
            "replicas": 150,
            "init": {"dirac": "a"},
        }
    )
    rep = run_experiment(cfg)
    stats = [r["statistic"] for r in rep.rows]
    assert stats.count("mean_dirac_distance_integral") == 2
    decay = [r for r in rep.rows if "decay_factor" in r["statistic"]]
    assert len(decay) == 1


def test_theorem2_fully_condensed_decay_is_total():
    # without mutation a Dirac start never leaves its site: every distance
    # integral is 0, so the decay factor is undefined and passes
    rep = run_experiment(_theorem2_doc(model=two_site_config(), init={"dirac": "x"}, replicas=100))
    assert rep.extras["mean_integrals"] == {"10.0": 0.0, "200.0": 0.0}
    (decay,) = [r for r in rep.rows if r["statistic"] == "dirac_distance_decay_factor_first_to_last"]
    assert decay["value"] is None and decay["verdict"] == "PASS"


def test_theorem1_default_time_grid_is_quarter_half_and_full_horizon():
    cfg = ExperimentConfig.from_dict(theorem1_doc(time_points=None, T=0.8, replicas=100))
    assert cfg.resolve_times() == (0.2, 0.4, 0.8)
    rep = run_experiment(cfg)
    assert sorted({row["t"] for row in rep.rows if row["statistic"] == "tv_vs_finite_chain"}) == [0.2, 0.4, 0.8]


def test_theorem3_regime_smoke():
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
            "seed": 5,
            "T": 1.0,
            "time_points": [1.0],
            "replicas": 100,
            "init": {"dirac": "a"},
            "points": [{"n": 6, "r": 50.0}, {"n": 8, "r": 200.0}],
        }
    )
    rep = run_experiment(cfg)
    stats = {r["statistic"] for r in rep.rows}
    assert "mean_pair_correlation" in stats
    assert "cprime_interval_consistency" in stats
    assert "cprime_intervals" in rep.extras


def test_theorem3_regime_hash_pinned():
    # rows on the Philox replica streams, with exponential waiting times; the
    # duel step and its blocks are checked draw for draw against the
    # reference event loop in test_engine.py
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
                "killing": {"kind": "uniform_plus", "m": {"a": 0.0, "b": 1.0, "c": 2.0}},
            },
            "seed": 7,
            "T": 1.0,
            "time_points": [1.0],
            "replicas": 100,
            "init": {"dirac": "a"},
            "points": [{"n": 10, "r": 1.0e3}, {"n": 32, "r": 1.0e4}],
        }
    )
    assert run_experiment(cfg).result_hash == (
        "89fd8e8cb07b99cfac47506803e8f08852386470dfbf26b89120a02829639828"
    )


def _theorem3_doc(**overrides):
    doc = {
        "kind": "theorem3_regime",
        "model": _uniform_plus_cycle(),
        "seed": 5,
        "T": 1.0,
        "time_points": [1.0],
        "replicas": 100,
        "init": {"dirac": "a"},
        "points": [{"n": 6, "r": 50.0}, {"n": 8, "r": 200.0}],
    }
    doc.update(overrides)
    return doc


def test_theorem3_evaluates_every_time_point(tmp_path, monkeypatch):
    import fvlab.experiments as experiments

    calls = _count_calls(monkeypatch, experiments, ["ctmc_marginal"])
    rep = run_experiment(ExperimentConfig.from_dict(_theorem3_doc(time_points=[0.25, 1.0])), out_dir=tmp_path)
    # every point starts from the same measure: one mutation-chain marginal per time
    assert calls["ctmc_marginal"] == 2
    pc = [(r["r"], r["t"]) for r in rep.rows if r["statistic"] == "mean_pair_correlation"]
    assert pc == [(50.0, 0.25), (50.0, 1.0), (200.0, 0.25), (200.0, 1.0)]
    assert sorted(rep.outcome_digests) == [
        "point00_n6_r50.csv", "point01_n6_r50.csv", "point02_n8_r200.csv", "point03_n8_r200.csv",
    ]
    assert len(list((tmp_path / "outcomes").glob("*.csv"))) == 4
    # one interval per point: the supremum over the time grid
    assert len(rep.extras["cprime_intervals"]) == 2
    assert any(r["statistic"] == "cprime_interval_consistency" for r in rep.rows)


def test_theorem3_partial_abort_emits_no_consistency_row():
    # criterion 5's points: at cap 5000 the n = 100 pass aborts (median about
    # 8 500 events per replica) while n = 10 and n = 32 complete (at most
    # about 3 300)
    points = [{"n": 10, "r": 1.0e3}, {"n": 32, "r": 1.0e4}, {"n": 100, "r": 1.0e5}]
    doc = _theorem3_doc(points=points, time_points=[0.5, 1.0], event_cap=5000)
    rep = run_experiment(ExperimentConfig.from_dict(doc))
    aborts = [row for row in rep.rows if row["statistic"] == "event_cap_abort"]
    assert [(row["r"], row["t"], row["verdict"]) for row in aborts] == [(1.0e5, 0.5, "FAIL"), (1.0e5, 1.0, "FAIL")]
    assert 2 * 100 <= rep.timing["event_cap_aborts"][0]["replica"] < 3 * 100
    pair_rows = [(row["r"], row["t"]) for row in rep.rows if row["statistic"] == "mean_pair_correlation"]
    assert pair_rows == [(1.0e3, 0.5), (1.0e3, 1.0), (1.0e4, 0.5), (1.0e4, 1.0)]
    assert len(rep.outcome_digests) == 4
    assert "cprime_interval_consistency" not in {row["statistic"] for row in rep.rows}
    assert "cprime_intervals" not in rep.extras


@pytest.mark.parametrize(
    "overrides,fragment",
    [
        ({"init": [6, 0, 0]}, "init counts sum to 6, expected n = 8"),
        ({"init": [6, 0]}, "one count per model state"),
        ({"time_points": [1.0, 0.5]}, "strictly increasing"),
        pytest.param({"time_points": [0.0, 1.0]}, r"time_points\[0\] must be a finite number > 0",
                     id="overrides3-time_points must be positive"),
    ],
)
def test_theorem3_config_errors_raised_before_simulation(overrides, fragment):
    with pytest.raises(ConfigError, match=fragment):
        ExperimentConfig.from_dict(_theorem3_doc(**overrides))


@pytest.mark.parametrize("kind", ["theorem1_marginal", "theorem2_pathwise"])
@pytest.mark.parametrize(
    "init,fragment",
    [
        ([1, 1, 0], "init counts sum to 2, expected n = 3"),
        ({"x": 3}, "list of counts"),
        ({"dirac": "zz"}, "unknown state"),
    ],
)
def test_theorem_init_checked_before_simulation(kind, init, fragment):
    time_points = None if kind == "theorem2_pathwise" else [0.25, 0.5]  # theorem2 reads no time points
    with pytest.raises(ValueError, match=fragment):
        ExperimentConfig.from_dict(theorem1_doc(kind=kind, init=init, time_points=time_points))


def test_theorem3_requires_uniform_plus_killing():
    with pytest.raises(ConfigError, match="uniform_plus"):
        ExperimentConfig.from_dict(
            {
                "kind": "theorem3_regime",
                "model": cycle_model_config(),  # power-law killing: no m_sup
                "seed": 5,
                "T": 1.0,
                "time_points": [1.0],
                "replicas": 100,
                "init": {"dirac": "a"},
                "points": [{"n": 4, "r": 50.0}],
            }
        )


def test_absorption_tail_smoke():
    cfg = ExperimentConfig.from_dict(
        {
            "kind": "absorption_tail",
            "model": two_site_config(alpha=1.0),
            "seed": 11,
            "n": 4,
            "r_schedule": [10.0, 100.0],
            "replicas": 400,
            "init": [2, 2],
        }
    )
    rep = run_experiment(cfg)
    slopes = [r for r in rep.rows if r["statistic"] == "tail_slope"]
    assert len(slopes) == 2
    ratio = [r for r in rep.rows if "slope_ratio" in r["statistic"]]
    assert len(ratio) == 1
    assert rep.extras["expected_slope_ratio"] == pytest.approx(10.0)


def test_eta_inf_check_smoke():
    cfg = ExperimentConfig.from_dict(
        {
            "kind": "eta_inf_check",
            "model": {
                "states": ["a", "b"],
                "mutation": [],
                "killing": {
                    "kind": "power",
                    "c": {"a": 1.0, "b": 2.0},
                    "beta": {"a": "1", "b": "1"},
                },
            },
            "seed": 2,
            "n": 2,
            "r_schedule": [1000.0],
            "replicas": 500,
            "init": [1, 1],
        }
    )
    rep = run_experiment(cfg)
    row = next(r for r in rep.rows if r["statistic"] == "tv_exact_vs_absorbed_site_law")
    assert row["verdict"] in ("PASS", "FAIL")
    assert rep.extras["eta_infinity"]["a"] == pytest.approx(2 / 3)


def test_committor_check_smoke():
    cfg = ExperimentConfig.from_dict(
        {
            "kind": "committor_check",
            "grid": {"n": [2, 3, 4], "alpha": [0.5, 1.0, 2.0]},
            "seed": 1,
        }
    )
    rep = run_experiment(cfg)
    assert len(rep.rows) == 9
    assert rep.all_pass
    assert rep.extras["grid_worst_error"] <= 1e-9
    assert rep.events_total == 0  # purely numeric, no simulation


def test_conjecture_probe_smoke():
    cfg = ExperimentConfig.from_dict(
        {
            "kind": "conjecture_probe",
            "model": azb_config(),
            "seed": 1,
            "expect": {
                "stable_sites": ["a", "b"],
                "rates": [{"from": "a", "to": "b", "rate": 2.0}],
            },
        }
    )
    rep = run_experiment(cfg)
    assert rep.all_pass
    assert rep.extras["chain_states"] == ["a", "b"]
    rate_rows = [r for r in rep.rows if r["statistic"].startswith("rate_")]
    assert rate_rows and all(r["verdict"] == "PASS" for r in rate_rows)


def test_conjecture_probe_wrong_expectation_fails():
    cfg = ExperimentConfig.from_dict(
        {
            "kind": "conjecture_probe",
            "model": azb_config(),
            "seed": 1,
            "expect": {
                "stable_sites": ["a", "b"],
                "rates": [{"from": "a", "to": "b", "rate": 3.0}],
            },
        }
    )
    rep = run_experiment(cfg)
    assert not rep.all_pass


def test_conjecture_probe_sim_requires_stable_start():
    with pytest.raises(ConfigError, match="stable site"):
        ExperimentConfig.from_dict(
            {
                "kind": "conjecture_probe",
                "model": azb_config(),
                "seed": 1,
                "sim": {"n": 4, "r": 50.0, "T": 0.5, "replicas": 100,
                        "init": {"dirac": "z"}},
            }
        )


# ------------------------------------------------------------ pinned hashes


def _theorem2_doc(**overrides):
    doc = {
        "kind": "theorem2_pathwise",
        "model": cycle_model_config(),
        "seed": 3,
        "n": 3,
        "r_schedule": [10.0, 200.0],
        "T": 0.5,
        "replicas": 150,
        "init": {"dirac": "a"},
    }
    doc.update(overrides)
    return doc


def _pinned_docs():
    eta_model = {
        "states": ["a", "b"],
        "mutation": [],
        "killing": {"kind": "power", "c": {"a": 1.0, "b": 2.0}, "beta": {"a": "1", "b": "1"}},
    }
    committor = {"kind": "committor_check", "grid": {"n": [2, 3, 4], "alpha": [0.5, 1.0, 2.0]}, "seed": 1}
    probe = {
        "kind": "conjecture_probe",
        "model": azb_config(),
        "seed": 1,
        "expect": {"stable_sites": ["a", "b"], "rates": [{"from": "a", "to": "b", "rate": 2.0}]},
    }
    return {
        "theorem1": theorem1_doc(),
        "theorem1_cap_abort": theorem1_doc(event_cap=3),
        "theorem2": _theorem2_doc(),
        # the middle point aborts; the last one runs on the block after it
        "theorem2_cap_abort": _theorem2_doc(r_schedule=[10.0, 200.0, 1000.0], event_cap=20, seed=6),
        "theorem3": _theorem3_doc(),
        "absorption_tail": {
            "kind": "absorption_tail",
            "model": two_site_config(alpha=1.0),
            "seed": 11,
            "n": 4,
            "r_schedule": [10.0, 100.0],
            "replicas": 400,
            "init": [2, 2],
        },
        "eta_inf": {
            "kind": "eta_inf_check",
            "model": eta_model,
            "seed": 2,
            "n": 2,
            "r_schedule": [1000.0],
            "replicas": 500,
            "init": [1, 1],
        },
        "committor": committor,
        "committor_mc": dict(committor, mc={"n": 4, "alpha": 2.0, "counts": [2, 2], "replicas": 200}),
        "conjecture_probe": probe,
        "conjecture_probe_sim": dict(
            probe,
            sim={"n": 4, "r": 50.0, "T": 0.5, "replicas": 100, "init": {"dirac": "a"}, "time_points": [0.25, 0.5]},
        ),
    }


# result_hash of each config above.  Those that draw replicas were taken on
# the Philox replica streams, with exponential waiting times.  committor, conjecture_probe and
# theorem1_cap_abort draw none that reach the hash (every theorem1_cap_abort
# pass aborts) and date from before the shared point runner, except that
# conjecture_probe no longer carries the cascade's path enumeration,
# reachable-site lists or reading flag.  committor and committor_mc were re-taken when the
# committor tables moved in their last bits to the face-by-face solve
_PINNED_HASHES = {
    "absorption_tail": "9aa755fad90bfe6105d3f31316daa71b9faacfc3ca5af7ccd104017543485b89",
    "committor": "fc6429a3dc59a20eb73a92ef4a60e7cb43bb45ef069213b32ed5affe218915c0",
    "committor_mc": "de367a0e178f82dccf5ef3401b5938290aaefa27e147aea4edf4d57ab42fd546",
    "conjecture_probe": "3c9fba2dd33e432f85bebe7800841af12f697bcd437a5c2a1cad67251acee2a1",
    "conjecture_probe_sim": "2949d2cccb27069b1f5200e5738563ba94fa690d2b9fcbb071f953a637f5efa0",
    "eta_inf": "0fe93ce1603a2c4ad817c6d4e0f97a10fabd9677b85e0af5a99a7f2378d907de",
    "theorem1": "151056912193084a58dedae484cf819afa91d0bbeecc25e82908e555fe503387",
    "theorem1_cap_abort": "efc02a3f5452096475d91ed2050ead0b016133fc9e93bb24bc8419bd77674218",
    "theorem2": "dab699722206350337a9fb21f072b22da2eccb8f6d7408e66c77a29be6a8c5bb",
    "theorem2_cap_abort": "d158078535c82a1d75c274f938875569d31e6d4a98ce62a71749ad6aa55214f8",
    "theorem3": "6d2adeef10ac07d5a3cda26a9679fbdca42fed2e11c896782f278cf67d311196",
}


@pytest.mark.parametrize("key", sorted(_PINNED_HASHES))
def test_result_hash_pinned(key):
    cfg = ExperimentConfig.from_dict(_pinned_docs()[key])
    assert run_experiment(cfg).result_hash == _PINNED_HASHES[key]


def _path_point(model_config, counts, r, T, M, seed=5, base=7, pool=None):
    """Run one theorem2 point of M replicas, in process or through
    ``pool``; check each replica's statistics against its own trajectory,
    rebuilt from its stream."""
    from fvlab import EmpiricalMeasure, simulate_fv, validate_model
    from fvlab.experiments import _fv_path_chunk, _run_point

    model = validate_model(model_config)
    payload = dict(model=model, counts=counts, r=r, t=T, seed=seed, base=base, event_cap=10**7)
    res = _run_point(_fv_path_chunk, payload, M, pool)
    assert list(res) == ["integral", "avg_occ", "events"]  # the outcome table's column order
    init = EmpiricalMeasure(counts)
    for i in range(M):
        traj = simulate_fv(model, r, init, T, derive_replica_rng(seed, base + i))
        integral, occupation = _path_alone(traj, T)
        assert float(res["integral"][i]) == traj.max_mass_integral() == integral
        assert res["avg_occ"][i].tobytes() == occupation.tobytes()
        assert res["events"][i] == traj.event_count
    return res


def _path_alone(traj, T):
    """A trajectory's Dirac-distance integral and time-average occupation,
    each reduced as ``_path_stats`` reduces one replica's rows: one
    ``np.add.reduceat`` from its first row."""
    times, values = traj.occupancy_path()
    seg = np.diff(np.append(times, T))
    integral = float(np.add.reduceat(seg * (2.0 * (1.0 - values.max(axis=1))), [0])[0])
    return integral, np.add.reduceat(seg[:, None] * values, [0], axis=0)[0] / T


def test_path_chunk_of_eventless_dirac_replicas():
    frozen = dict(_uniform_plus_cycle(), mutation=[])
    res = _path_point(frozen, [0, 5, 0], 10.0, 1.0, 4)
    assert res["events"].tolist() == [0] * 4 and res["integral"].tolist() == [0.0] * 4
    assert res["avg_occ"].tolist() == [[0.0, 1.0, 0.0]] * 4


def test_path_chunk_with_duel_blocks_matches_each_trajectory(monkeypatch):
    from unittest.mock import patch

    from fvlab import engine
    import fvlab.experiments as experiments

    # from an even split at n = 40 the duel runs hundreds of steps
    with patch.object(engine, "_duel_block", wraps=engine._duel_block) as block:
        res = _path_point(_uniform_plus_cycle(), [20, 20, 0], 1e4, 0.05, 20)
    assert block.call_count
    # reduced in small batches, whose boundaries fall between any two replicas
    monkeypatch.setattr(experiments, "_PATH_ROWS", 300)
    again = _path_point(_uniform_plus_cycle(), [20, 20, 0], 1e4, 0.05, 20)
    assert all(res[key].tobytes() == again[key].tobytes() for key in res)


def test_path_chunks_of_a_partial_point_match_each_trajectory():
    from fvlab.experiments import _Pool

    # 600 replicas: one chunk call in process, then, with two CPUs, two
    # worker slices of 300, each reduced in batches of _PATH_ROWS rows
    _path_point(cycle_model_config(), [3, 0, 0], 10.0, 0.5, 600)
    pool = _Pool(2)
    try:
        _path_point(cycle_model_config(), [3, 0, 0], 10.0, 0.5, 600, pool=pool)
    finally:
        pool.close()


def test_path_chunk_reduces_a_long_replica_alone(monkeypatch):
    import fvlab.experiments as experiments

    calls = []

    def path_stats(times, sources, targets, rows, initial, horizon):
        calls.append(list(rows))
        return stats(times, sources, targets, rows, initial, horizon)

    stats = experiments._path_stats
    monkeypatch.setattr(experiments, "_path_stats", path_stats)
    # n = 100 at T = 10: no two replicas' paths fit in one buffer, and one
    # path alone is longer than it
    res = _path_point(_uniform_plus_cycle(), [100, 0, 0], 1e3, 10.0, 3)
    m = sorted(res["events"].tolist())
    assert m[0] + m[1] + 2 > experiments._PATH_ROWS and m[2] >= experiments._PATH_ROWS
    assert calls == [[m] for m in res["events"].tolist()]


def test_theorem3_hash_thread_invariant():
    # two chunks of long duels, run in forked workers: their numpy blocks
    # and the workers' kernel and duel memos change no draw
    cfg = ExperimentConfig.from_dict(_theorem3_doc(points=[{"n": 32, "r": 1e4}], replicas=512))
    assert run_experiment(cfg, threads=2).result_hash == run_experiment(cfg).result_hash


def test_theorem2_hash_thread_invariant():
    cfg = ExperimentConfig.from_dict(_theorem2_doc(replicas=600))  # three chunks per point
    assert run_experiment(cfg, threads=2).result_hash == run_experiment(cfg).result_hash


# A chunk runs all its replicas through one event loop.  x mutates to y and
# y does not mutate, under neutral killing: from an even split at n = 40 a
# duel runs hundreds of steps, through numpy blocks, and ends at y, where no
# rate is left and the replica stops before the first snapshot time, or at
# x, which runs on to the horizon.
_ABSORBING_DUEL = {
    "states": ["x", "y"],
    "mutation": [{"from": "x", "to": "y", "rate": 1.0}],
    "killing": {"kind": "power", "c": {"x": 1.0, "y": 1.0}, "beta": {"x": "1", "y": "1"}},
}
_DUEL_TIMES = (0.004, 0.01, 0.02)


def _alone(worker, model, init, rng, event_cap=10**7):
    """One replica of ``worker``'s point run alone, as its per-replica
    output row: through the event loop's one-stream call for the
    snapshots, and through the public API otherwise."""
    from fvlab import simulate_fv, simulate_selection_absorption
    from fvlab.engine import _run_replicas, _Runs

    T = _DUEL_TIMES[-1]
    if worker == "final":
        runs = _Runs()
        _run_replicas(model, 1e4, init.counts, _DUEL_TIMES, (rng,), runs, record=False, event_cap=event_cap)
        return {"final": np.reshape(runs.snaps, (len(_DUEL_TIMES), -1)), "events": runs.snap_events}
    if worker == "path":
        traj = simulate_fv(model, 1e4, init, T, rng, event_cap=event_cap)
        _, occupation = _path_alone(traj, T)
        return {"integral": traj.max_mass_integral(), "avg_occ": occupation, "events": traj.event_count}
    res = simulate_selection_absorption(model, 1e4, init, rng, event_cap=event_cap)
    return {"tau": res.tau, "site": model.state_index(res.site), "events": res.event_count}


def _duel_point(worker, M, seed=5, base=7, event_cap=10**7):
    from fvlab import validate_model
    from fvlab.experiments import _absorption_chunk, _fv_final_chunk, _fv_path_chunk, _run_point

    model = validate_model(_ABSORBING_DUEL)
    chunk, t = {
        "final": (_fv_final_chunk, _DUEL_TIMES),
        "path": (_fv_path_chunk, _DUEL_TIMES[-1]),
        "absorption": (_absorption_chunk, ""),
    }[worker]
    # the absorption kinds put the model without mutation in their payloads
    point_model = model.without_mutation if worker == "absorption" else model
    payload = dict(model=point_model, counts=(20, 20), r=1e4, t=t, seed=seed, base=base, event_cap=event_cap)
    return model, _run_point(chunk, payload, M)


@pytest.mark.parametrize("worker", ["final", "path", "absorption"])
def test_chunk_replicas_equal_each_replica_run_alone(worker):
    from unittest.mock import patch

    from fvlab import EmpiricalMeasure, engine

    M, seed, base = 300, 5, 7  # one chunk call
    with patch.object(engine, "_duel_block", wraps=engine._duel_block) as block:
        model, res = _duel_point(worker, M, seed, base)
    assert block.call_count
    init = EmpiricalMeasure([20, 20])
    for i in range(M):
        want = _alone(worker, model, init, derive_replica_rng(seed, base + i))
        for key, col in res.items():
            assert col[i].tobytes() == np.asarray(want[key], dtype=col.dtype).tobytes(), (i, key)
    if worker == "final":
        # the chunk mixes replicas absorbed at y before the first snapshot
        # time with replicas that run to the horizon at x
        absorbed = (res["final"][:, 0, 1] == 40) & (res["events"][:, 0] == res["events"][:, -1])
        assert 0 < absorbed.sum() < M
        assert (res["final"][:, -1, 0] == 40).any()


@pytest.mark.parametrize("worker", ["final", "path", "absorption"])
def test_chunk_cap_hit_past_its_first_replica_names_that_replica(worker):
    from fvlab import EmpiricalMeasure, EventCapError

    M, seed, base = 40, 5, 7
    model, res = _duel_point(worker, M, seed, base)
    events = res["events"].reshape(M, -1)[:, -1].tolist()
    # the cap is one past replica 0's events: the first replica to reach it
    # follows replicas that completed in the same chunk
    cap = events[0] + 1
    capped = next(i for i, m in enumerate(events) if m >= cap)
    assert capped > 0
    _, err = _duel_point(worker, M, seed, base, event_cap=cap)
    assert isinstance(err, EventCapError) and err.replica == base + capped
    with pytest.raises(EventCapError) as alone:
        _alone(worker, model, EmpiricalMeasure([20, 20]), derive_replica_rng(seed, err.replica), event_cap=cap)
    assert (alone.value.time, alone.value.counts) == (err.time, err.counts)


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its size and the tasks of
    each map, runs them in process."""

    sizes: list[int] = []
    maps: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def map(self, fn, tasks):
        self.maps.append(len(tasks))
        return map(fn, tasks)

    def shutdown(self, cancel_futures=False):
        pass


def _inline_pool(monkeypatch, cpus):
    import fvlab.experiments as experiments

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(_InlinePool, "maps", [])
    monkeypatch.setattr(experiments, "_cpu_count", lambda: cpus)


@pytest.mark.parametrize("threads,size", [(64, 3), (2, 2)])
def test_point_pool_has_no_more_workers_than_chunks(monkeypatch, threads, size):
    # a point gives at most one slice per chunk of replicas to the run's one
    # pool, whose size is the CPUs'
    _inline_pool(monkeypatch, 8)  # more CPUs than chunks
    cfg = ExperimentConfig.from_dict(_theorem2_doc(replicas=600))  # three chunks per point
    rep = run_experiment(cfg, threads=threads)
    assert _InlinePool.sizes == [min(threads, 8)]  # one pool for the run
    assert _InlinePool.maps == [size] * 2  # one particle point per r
    assert rep.result_hash == run_experiment(cfg).result_hash


@pytest.mark.parametrize("cpus,sizes", [(2, [2]), (1, [])], ids=["two-cpus", "one-cpu"])
def test_point_pool_has_no_more_workers_than_cpus(monkeypatch, cpus, sizes):
    _inline_pool(monkeypatch, cpus)
    frozen = dict(cycle_model_config(), mutation=[])  # Dirac replicas, which draw nothing
    cfg = ExperimentConfig.from_dict(theorem1_doc(model=frozen, replicas=3 * 256))  # three chunks per point
    rep = run_experiment(cfg, threads=5000)
    assert _InlinePool.sizes == sizes  # one CPU: the points run in process, no pool
    assert _InlinePool.maps == [2] * 2 * len(sizes)
    assert rep.result_hash == run_experiment(cfg).result_hash


def test_run_forks_nothing_when_every_point_fits_one_chunk(monkeypatch):
    import fvlab.experiments as experiments

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(experiments, "_cpu_count", lambda: 8)
    cfg = ExperimentConfig.from_dict(theorem1_doc(replicas=256))
    assert run_experiment(cfg, threads=8).result_hash == run_experiment(cfg).result_hash


def _fail_past_r10(payload, chunk=experiments._fv_final_chunk):
    """Stands in for the final-state chunk function ``chunk``: fails, in
    whichever process runs it, at every intensity past 10."""
    if payload["r"] > 10:
        raise RuntimeError(f"worker failed at r = {payload['r']:g}")
    return chunk(payload)


def test_one_pool_serves_every_point_and_is_gone_after_the_run(monkeypatch):
    import fvlab.experiments as experiments

    made = []
    pool = experiments.ProcessPoolExecutor

    def counted(**kwargs):
        made.append(kwargs)
        return pool(**kwargs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", counted)
    # three points of two worker slices each, with two CPUs
    cfg = ExperimentConfig.from_dict(theorem1_doc(r_schedule=[10.0, 100.0, 1000.0], replicas=300))
    pooled = run_experiment(cfg, threads=2)
    assert multiprocessing.active_children() == []
    assert made == ([{"max_workers": 2}] if experiments._cpu_count() >= 2 else [])
    serial = run_experiment(cfg)
    assert pooled.result_hash == serial.result_hash and pooled.rows == serial.rows


def test_pool_is_gone_after_a_run_that_aborts_on_the_event_cap():
    rep = run_experiment(_partial_abort_config(), threads=2)
    assert rep.timing["event_cap_aborts"]
    assert multiprocessing.active_children() == []


def test_pool_is_gone_after_a_run_that_raises_in_a_later_point(monkeypatch):
    import fvlab.experiments as experiments

    # the r = 10 point completes in the pool; the r = 100 point's workers raise
    monkeypatch.setattr(experiments, "_fv_final_chunk", _fail_past_r10)
    with pytest.raises(RuntimeError, match="worker failed at r = 100"):
        run_experiment(theorem1_doc(replicas=300), threads=2)
    assert multiprocessing.active_children() == []


def test_cpu_count_is_the_usable_cpus(monkeypatch):
    import fvlab.experiments as experiments

    if hasattr(os, "sched_getaffinity"):
        assert experiments._cpu_count() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
    assert experiments._cpu_count() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert experiments._cpu_count() == 6


def test_theorem2_abort_keeps_later_points_on_their_blocks():
    rep = run_experiment(ExperimentConfig.from_dict(_pinned_docs()["theorem2_cap_abort"]))
    M = rep.config["replicas"]
    assert [(a["r"], a["t"]) for a in rep.timing["event_cap_aborts"]] == [(200.0, 0.5)]
    assert [a["replica"] // M for a in rep.timing["event_cap_aborts"]] == [2]
    # the i-th r runs on block 2i, the aborted one included: r = 1000 runs on block 4
    assert [p["r"] for p in rep.timing["points"]] == [10.0, 200.0, 1000.0]
    assert 4 * M <= rep.timing["points"][-1]["max_events_replica"] < 5 * M
    assert [row["statistic"] for row in rep.rows if row["r"] == 1000.0] == [
        "mean_dirac_distance_integral",
        "tv_mean_avg_occupation_fv_vs_chain",
    ]


def test_config_entry_points_agree():
    docs = [*_pinned_docs().values(), *map(_kind_doc, EXPERIMENT_KINDS)]
    # integers in float entries are kept as floats at any depth, so "T": 1 hashes as 1.0 either way
    docs.append(theorem1_doc(T=1, r_schedule=[10, 100], time_points=[0.5, 1], tolerances={"limit_band": 1}))
    for doc in docs:
        built, direct = ExperimentConfig.from_dict(doc), ExperimentConfig(**doc)
        assert built == direct
        assert built.canonical_dict() == direct.canonical_dict()
    canonical = json.dumps(ExperimentConfig(**docs[-1]).canonical_dict(), sort_keys=True)
    assert '"T": 1.0' in canonical and '"r_schedule": [10.0, 100.0]' in canonical
    assert '"time_points": [0.5, 1.0]' in canonical and '"limit_band": 1.0' in canonical

    def nested(num):  # float entries inside blocks and lists, num(2) spelled 2 or 2.0
        sim = {"n": 4, "r": num(50), "T": num(1), "replicas": 100, "init": {"dirac": "a"}}
        expect = {"rates": [{"from": "a", "to": "b", "rate": num(2)}]}
        mc = {"n": 4, "alpha": num(2), "counts": [3, 1], "replicas": 200}
        return [
            _theorem3_doc(points=[{"n": 6, "r": num(50)}, {"n": 8, "r": num(200)}]),
            dict(_pinned_docs()["conjecture_probe"], sim=dict(sim, time_points=[0.5, num(1)]), expect=expect),
            _committor_doc(grid={"n": [2, 4], "alpha": [0.5, num(2)]}, mc=mc),
        ]

    for ints, floats in zip(nested(int), nested(float)):
        assert json.dumps(ints) != json.dumps(floats)  # equal in Python, spelled apart in JSON
        canonical = [ExperimentConfig.from_dict(doc).canonical_dict() for doc in (ints, floats)]
        assert json.dumps(canonical[0], sort_keys=True) == json.dumps(canonical[1], sort_keys=True)
    assert run_experiment(nested(int)[-1]).result_hash == run_experiment(nested(float)[-1]).result_hash


def test_config_keeps_its_own_copy_of_the_document():
    # edits to the document after construction reach neither the config nor what it runs and hashes
    cases = [
        (theorem1_doc(init=[2, 1, 0]), lambda doc: doc["init"].__setitem__(0, 7)),
        (theorem1_doc(), lambda doc: doc["model"]["killing"]["c"].update(a=3.0)),
        (_committor_doc(), lambda doc: doc["grid"]["alpha"].append(3.0)),
        (_pinned_docs()["conjecture_probe_sim"], lambda doc: doc["sim"]["time_points"].append(0.75)),
        (_theorem3_doc(), lambda doc: doc["points"][0].update(r=60.0)),
    ]
    for doc, edit in cases:
        cfg, fresh = ExperimentConfig.from_dict(doc), ExperimentConfig.from_dict(copy.deepcopy(doc))
        edit(doc)
        assert cfg == fresh
        assert cfg.canonical_dict() == fresh.canonical_dict()
        assert run_experiment(cfg).result_hash == run_experiment(fresh).result_hash


@pytest.mark.parametrize("kind", sorted(EXPERIMENT_KINDS))
def test_canonical_dict_survives_json_round_trip(kind):
    doc = dict(_kind_doc(kind), **_READS[kind][1])  # every optional field, blocks included
    canonical = ExperimentConfig.from_dict(doc).canonical_dict()
    assert json.loads(json.dumps(canonical)) == canonical


# ---------------------------------------------------------- kind read sets

# What each kind reads besides kind, name, seed, event_cap and tolerances:
# its required fields, and a valid value for each optional one.  Written
# out here, not taken from the code, so a change to a read set shows.
_READS = {
    "theorem1_marginal": (
        ["model", "n", "r_schedule", "T", "replicas", "init"], {"delta": 0.1, "time_points": [0.25, 0.5]},
    ),
    "theorem2_pathwise": (["model", "n", "r_schedule", "T", "replicas", "init"], {}),
    "theorem3_regime": (["model", "points", "time_points", "replicas", "init"], {"T": 1.0}),
    "absorption_tail": (["model", "r_schedule", "replicas", "init"], {"n": 3}),
    "eta_inf_check": (["model", "r_schedule", "replicas", "init"], {"n": 3}),
    "committor_check": (["grid"], {"mc": {"n": 4, "alpha": 2.0, "counts": [3, 1], "replicas": 200}}),
    "conjecture_probe": (
        ["model"],
        {
            "delta": 0.1,
            "expect": {"stable_sites": ["a", "b"]},
            "sim": {"n": 4, "r": 50.0, "T": 0.5, "replicas": 100, "init": {"dirac": "a"}},
        },
    ),
}

# a value other than the default for every field outside the common ones
_OTHER_VALUES = {
    "model": cycle_model_config(),
    "delta": 0.1,
    "n": 3,
    "r_schedule": [10.0],
    "points": [{"n": 4, "r": 10.0}],
    "T": 1.0,
    "time_points": [1.0],
    "replicas": 100,
    "init": [1, 1, 1],
    "expect": {"stable_sites": ["a"]},
    "sim": {"n": 4, "r": 50.0, "T": 0.5, "replicas": 100, "init": {"dirac": "a"}},
    "grid": {"n": [2], "alpha": [1.0]},
    "mc": {"n": 4, "alpha": 2.0, "counts": [3, 1], "replicas": 200},
}


@pytest.mark.parametrize("kind", sorted(_READS))
def test_config_kind_reads_only_its_fields(kind):
    assert sorted(_READS) == sorted(EXPERIMENT_KINDS)
    required, optional = _READS[kind]
    base = {k: v for k, v in _kind_doc(kind).items() if k not in optional and v is not None}
    base.update(name="reads", event_cap=1000)  # common fields: every kind reads them
    assert set(base) - {"kind", "name", "seed", "event_cap"} == set(required)
    ExperimentConfig.from_dict(base)
    for name, value in optional.items():
        ExperimentConfig.from_dict(dict(base, **{name: value}))
    for name in required:
        with pytest.raises(ConfigError, match=f"{kind} requires {name}$"):
            ExperimentConfig.from_dict({k: v for k, v in base.items() if k != name})
    unread = sorted(set(_OTHER_VALUES) - set(required) - set(optional))
    for name in unread:
        with pytest.raises(ConfigError, match=rf"^{kind} does not read {name}, got "):
            ExperimentConfig.from_dict(dict(base, **{name: _OTHER_VALUES[name]}))


# ----------------------------------------------------- condensed chain start


def test_chain_start_at_finite_r_is_the_two_site_committor():
    from fvlab.experiments import _chain_start
    from fvlab import gamblers_ruin_committor, validate_model

    model = validate_model(cycle_model_config(beta=(1, 1, 2)))  # lambda_c / lambda_a = 4 r
    for r in (3.0, 10.0):
        law = _chain_start(model, (3, 0, 2), r)  # support {a, c}
        g = gamblers_ruin_committor(5, model.alpha("a", "c", r))
        assert law.states == model.states and law.prob("b") == 0.0
        assert law.prob("a") == pytest.approx(g[3], abs=1e-12)
        assert law.prob("c") == pytest.approx(1.0 - g[3], abs=1e-12)


def test_theorem1_runs_from_init_counts():
    rep = run_experiment(theorem1_doc(init=[2, 1, 0]))
    stats = [row["statistic"] for row in rep.rows]
    assert stats.count("tv_vs_finite_chain") == 4
    assert {"sup_tv_monotone_in_r", "sup_tv_vs_limit_at_rmax"} <= set(stats)
    assert rep.all_pass


def test_chain_start_equilibrates_shared_orders():
    from fvlab.experiments import _chain_start
    from fvlab import validate_model

    model = validate_model(
        {
            "states": ["a", "b"],
            "mutation": [],
            "killing": {
                "kind": "power",
                "c": {"a": 1.0, "b": 2.0},
                "beta": {"a": "1", "b": "1"},
            },
        }
    )
    law = _chain_start(model, (1, 1), None)
    assert law.prob("a") == pytest.approx(2 / 3, abs=1e-12)
    assert law.prob("b") == pytest.approx(1 / 3, abs=1e-12)
    dirac = _chain_start(model, (2, 0), None)
    assert dirac == "a"
