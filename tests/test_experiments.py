"""Experiment runner: configs, determinism, reports, and per-kind smoke runs."""

from __future__ import annotations

import json

import numpy as np
import pytest

from fvlab import (
    ConfigError,
    ExperimentConfig,
    derive_replica_rng,
    run_experiment,
)

from conftest import cycle_model_config, two_site_config


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


def test_replica_rng_rejects_negative_index():
    with pytest.raises(ValueError):
        derive_replica_rng(1, -1)


def _chunk_streams(seed, base, start, stop):
    """Each replica's PCG64 state and first three uint32 draws, as a chunk worker sees them."""
    from fvlab.experiments import _collect

    def replica(rng):
        state = rng.bit_generator.state
        # an odd count of uint32 draws leaves half a word buffered (has_uint32 = 1)
        return state, tuple(rng.integers(0, 2**32, size=3, dtype=np.uint32).tolist())

    payload = {"seed": seed, "base": base, "start": start, "stop": stop}
    return _collect(payload, replica, state=object, draws=np.int64)


@pytest.mark.parametrize(
    "seed",
    [0, 7, 1281506044, 2**32 - 1, 2**32 + 5, 2**64 + 3, 2**100 + 2**40 + 1, 2**140 + 12345],
    ids=["zero", "1word", "1word-large", "1word-max", "2words", "3words", "4words", "5words"],
)
def test_chunk_seeding_matches_derive_replica_rng(seed):
    from fvlab.experiments import _pcg64_states

    # (base, start, stop): nonzero bases, and index blocks on both sides of
    # 2^32, across it (the reference fallback), just below 2^64 and across
    # it (also the fallback)
    blocks = [
        (0, 0, 256),
        (1000, 256, 512),
        (2**32 - 300, 44, 300),
        (2**32, 0, 256),
        (2**32 + 7, 256, 400),
        (2**32 - 100, 0, 200),
        (2**64 - 260, 0, 256),
        (2**64 - 2, 0, 4),
    ]
    assert _pcg64_states(seed, 2**32 - 100, 200) is None
    assert _pcg64_states(seed, 2**32, 256) is not None
    pairs = 0
    for base, start, stop in blocks:
        out = _chunk_streams(seed, base, start, stop)
        for k, i in enumerate(range(base + start, base + stop)):
            ref = derive_replica_rng(seed, i)
            assert out["state"][k] == ref.bit_generator.state, (seed, i)
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


def test_config_rejects_unknown_kind():
    with pytest.raises(ConfigError, match="unknown experiment kind"):
        ExperimentConfig.from_dict(theorem1_doc(kind="theorem9"))


@pytest.mark.parametrize(
    "overrides,fragment",
    [
        ({"replicas": 50}, "replicas >= 100"),
        ({"r_schedule": []}, "nonempty r schedule"),
        ({"r_schedule": [100.0, 10.0]}, "strictly increasing"),
        ({"n": 1}, "n >= 2"),
        ({"T": 0.0}, "positive horizon"),
        ({"init": None}, "init block"),
        ({"time_points": [0.25, 0.9]}, r"time_points must lie in \(0, T\]"),
        ({"delta": 1.5}, "delta must lie"),
        ({"model": None}, "requires a model"),
        ({"seed": -5}, "seed must be an integer >= 0"),
        ({"seed": True}, "seed must be an integer >= 0"),
        # integer fields are checked, not truncated to int by from_dict
        ({"seed": 2.5}, "seed must be an integer >= 0"),
        ({"replicas": 150.9}, "integer replicas >= 100"),
        ({"n": 3.7}, "integer n >= 2"),
        # a cap below 1 would abort every point into a FAIL row
        ({"event_cap": 0}, "event_cap must be an integer >= 1"),
        ({"event_cap": -4}, "event_cap must be an integer >= 1"),
        ({"event_cap": 2.5}, "event_cap must be an integer >= 1"),
        ({"event_cap": True}, "event_cap must be an integer >= 1"),
    ],
)
def test_config_validation_matrix(overrides, fragment):
    with pytest.raises(ConfigError, match=fragment):
        ExperimentConfig.from_dict(theorem1_doc(**overrides))


@pytest.mark.parametrize("kind", ["absorption_tail", "eta_inf_check"])
@pytest.mark.parametrize(
    "init,fragment",
    [
        ({"dirac": "x"}, "list of counts"),
        ("2,2", "list of counts"),
        ([4], "one count per model state"),
        ([1, 1, 2], "one count per model state"),
        ([5, -1], "nonnegative integers"),
        ([1.5, 2], "nonnegative integers"),
        (["2", "2"], "nonnegative integers"),
        ([True, 2], "nonnegative integers"),
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
    with pytest.raises(ConfigError, match="increasing r"):
        ExperimentConfig.from_dict(bad)
    bad = dict(base, points=[{"n": 4}])
    with pytest.raises(ConfigError, match="needs n and r"):
        ExperimentConfig.from_dict(bad)
    bad = dict(base, points=[{"n": 1, "r": 10.0}])
    with pytest.raises(ConfigError, match="out of range"):
        ExperimentConfig.from_dict(bad)


def test_config_theorem3_point_n_must_be_an_integer():
    base = theorem1_doc(kind="theorem3_regime", n=None, r_schedule=None, T=1.0, time_points=[1.0])
    base["model"] = {
        "states": ["a", "b"],
        "mutation": [{"from": "a", "to": "b", "rate": 1.0}, {"from": "b", "to": "a", "rate": 1.0}],
        "killing": {"kind": "uniform_plus", "m": {"a": 0.0, "b": 1.0}},
    }
    ExperimentConfig.from_dict(dict(base, points=[{"n": 10, "r": 100.0}]))
    with pytest.raises(ConfigError, match="out of range"):
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
        ({"grid": {"n": [4, 1], "alpha": [2.0]}}, "grid n must list integers >= 2"),
        ({"grid": {"n": [2.5], "alpha": [2.0]}}, "grid n must list integers >= 2"),
        ({"grid": {"n": "4", "alpha": [2.0]}}, "grid n must list integers >= 2"),
        ({"grid": {"n": [4], "alpha": [0.0]}}, "grid alpha must list finite ratios"),
        ({"grid": {"n": [4], "alpha": [float("inf")]}}, "grid alpha must list finite ratios"),
        ({"grid": {"n": [4], "alpha": [float("nan")]}}, "grid alpha must list finite ratios"),
        ({"grid": {"n": [4], "alpha": [2.0], "k": [1]}}, r"reads only the grid keys \['n', 'alpha'\], got \['alpha', 'k', 'n'\]"),
        # 6 particles simulated against the n = 4 committor: a false FAIL at run time
        ({"mc": {"n": 4, "alpha": 2.0, "counts": [3, 3], "replicas": 200}}, "that sum to n"),
        ({"mc": {"n": 4, "alpha": 2.0, "counts": [4], "replicas": 200}}, "two nonnegative integers"),
        ({"mc": {"n": 4, "alpha": 2.0, "counts": [5, -1], "replicas": 200}}, "two nonnegative integers"),
        ({"mc": {"n": 4, "alpha": 2.0, "counts": [3.0, 1], "replicas": 200}}, "two nonnegative integers"),
        ({"mc": {"n": 1, "alpha": 2.0, "counts": [1, 0], "replicas": 200}}, "integer n >= 2"),
        ({"mc": {"n": 4, "alpha": -2.0, "counts": [3, 1], "replicas": 200}}, "finite alpha > 0"),
        ({"mc": {"n": 4, "alpha": 2.0, "counts": [3, 1], "replicas": 50}}, "replicas >= 100"),
        ({"mc": {"n": 4, "alpha": 2.0, "counts": [3, 1]}}, "mc block with keys"),
        ({"mc": {"n": 4, "alpha": 2.0, "counts": [3, 1], "replicas": 200, "r": 1.0}}, "reads only the mc keys"),
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
        "theorem2_pathwise": theorem1_doc(kind="theorem2_pathwise"),
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
    with pytest.raises(ConfigError, match="intensities must be >= 1"):
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
    ExperimentConfig.from_dict(dict(_kind_doc(kind), tolerances={k: 0.1 for k in keys}))
    for other in sorted({"limit_bnad", "sim_tv_tol", "limit_band", "tv_tol", "cprime_factor"} - set(keys)):
        with pytest.raises(ConfigError, match=rf"{kind} reads only the tolerances .*, got \['{other}'\]"):
            ExperimentConfig.from_dict(dict(_kind_doc(kind), tolerances={other: 0.0}))


def _probe_sim_doc(**sim):
    block = {"n": 4, "r": 50.0, "T": 0.5, "replicas": 100, "init": {"dirac": "a"}}
    block.update(sim)
    return {"kind": "conjecture_probe", "model": azb_config(), "seed": 1, "sim": block}


@pytest.mark.parametrize(
    "sim,fragment",
    [
        ({"init": [4, 0, 0]}, r"sim init must be \{'dirac': site\}"),
        ({"init": {"dirac": "q"}}, "'q' is not a stable site"),
        ({"n": 1}, "integer n >= 2"),
        ({"r": 0.5}, "finite r >= 1"),
        ({"T": 0.0}, "finite T > 0"),
        ({"time_points": [0.5, 0.25]}, "strictly increasing"),
        ({"time_points": [0.0, 0.5]}, r"must lie in \(0, T\]"),
        ({"time_points": [0.25, 0.75]}, r"must lie in \(0, T\]"),
        ({"replicas": 99}, "replicas >= 100"),
        ({"M": 100}, "reads only the sim keys"),
    ],
)
def test_config_conjecture_probe_sim_fields(sim, fragment):
    ExperimentConfig.from_dict(_probe_sim_doc(time_points=[0.25, 0.5]))
    with pytest.raises(ValueError, match=fragment):
        ExperimentConfig.from_dict(_probe_sim_doc(**sim))


def test_config_conjecture_probe_expect_keys():
    doc = {"kind": "conjecture_probe", "model": azb_config(), "expect": {"stable_sites": ["a", "b"]}}
    ExperimentConfig.from_dict(doc)
    with pytest.raises(ConfigError, match=r"reads only the expect keys \['stable_sites', 'rates'\], got \['stable_site'\]"):
        ExperimentConfig.from_dict(dict(doc, expect={"stable_site": ["a", "b"]}))


def test_config_init_counts_resolution():
    from fvlab import validate_model

    cfg = ExperimentConfig.from_dict(theorem1_doc())
    model = validate_model(cycle_model_config())
    assert cfg.init_counts(model, 3) == (3, 0, 0)
    listy = ExperimentConfig.from_dict(theorem1_doc(init=[1, 1, 1]))
    assert listy.init_counts(model, 3) == (1, 1, 1)
    with pytest.raises(ConfigError, match="sum"):  # checked by validate(), not init_counts
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

    rep, cfg = small_theorem1_report, ExperimentConfig.from_dict(theorem1_doc())
    points = rep.timing["points"]
    grid = [(r, t) for r in cfg.r_schedule for t in cfg.resolve_times()]
    assert [(p["r"], p["t"]) for p in points] == grid
    assert sum(p["events"] for p in points) == rep.events_total
    model = cfg.validated_model()
    init = EmpiricalMeasure.from_counts(cfg.init_counts(model, cfg.n))
    for pid, p in enumerate(points):
        spread = p["events_per_replica"]
        assert p["replicas"] == cfg.replicas and p["wall_s"] > 0
        assert p["events_per_s"] == p["events"] / p["wall_s"]
        assert spread["p50"] <= spread["p99"] <= spread["max"]
        # the slowest replica replays alone to its event count
        assert pid * cfg.replicas <= p["max_events_replica"] < (pid + 1) * cfg.replicas
        rng = derive_replica_rng(cfg.seed, p["max_events_replica"])
        traj = simulate_fv(model, p["r"], init, p["t"], rng, record=False)
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
    # at cap 18 both t = 0.5 points abort and both t = 0.25 points complete
    return ExperimentConfig.from_dict(theorem1_doc(event_cap=18, replicas=600))


def test_theorem1_partial_abort_emits_no_summary():
    rep = run_experiment(_partial_abort_config())
    stats = [r["statistic"] for r in rep.rows]
    assert stats.count("event_cap_abort") == 2 and stats.count("tv_vs_finite_chain") == 2
    assert "sup_tv_monotone_in_r" not in stats and "sup_tv_vs_limit_at_rmax" not in stats
    assert not any(key.startswith("sup_tv") for key in rep.extras)


def test_event_cap_abort_thread_invariant_and_replayable():
    from fvlab import EmpiricalMeasure, EventCapError, simulate_fv
    from fvlab.experiments import _fv_final_chunk, _run_point

    cfg = _partial_abort_config()
    serial, pooled = run_experiment(cfg), run_experiment(cfg, threads=2)
    assert pooled.result_hash == serial.result_hash
    assert {k: v for k, v in pooled.to_json_dict().items() if k != "timing"} == {
        k: v for k, v in serial.to_json_dict().items() if k != "timing"
    }
    aborts = serial.timing["event_cap_aborts"]
    assert aborts == pooled.timing["event_cap_aborts"]
    abort_rows = [(row["r"], row["t"]) for row in serial.rows if row["statistic"] == "event_cap_abort"]
    assert [(a["r"], a["t"]) for a in aborts] == abort_rows

    model, M, init = cfg.validated_model(), cfg.replicas, EmpiricalMeasure.from_counts([3, 0, 0])
    points = [(r, t) for r in cfg.r_schedule for t in cfg.time_points]
    for abort in aborts:
        r, t = abort["r"], abort["t"]
        base = points.index((r, t)) * M  # each point takes the next M indices
        payload = dict(model=model, counts=init.counts, r=r, t=t, seed=cfg.seed, base=base, event_cap=18)
        err = _run_point(_fv_final_chunk, payload, M, threads=2)  # pickled out of a worker
        assert isinstance(err, EventCapError)
        assert err.replica == abort["replica"] and base <= err.replica < base + M
        assert f"in replica {err.replica}" in str(err)
        with pytest.raises(EventCapError) as replay:
            rng = derive_replica_rng(cfg.seed, err.replica)
            simulate_fv(model, r, init, t, rng, record=False, event_cap=18)
        assert (replay.value.time, replay.value.counts) == (err.time, err.counts)


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

    calls = _count_calls(monkeypatch, experiments, ["condensate_rates", "_chain_start"])
    run_experiment(ExperimentConfig.from_dict(theorem1_doc(time_points=[0.1, 0.2, 0.3, 0.4, 0.5])))
    assert calls == {"condensate_rates": 3, "_chain_start": 3}  # the limit and each of the two r


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
    # rows from the event loop before the two-site duel fast path existed; the
    # hash moved only when marginals came from expm (float noise in TV rows)
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
        "68560118f91c5f79ce401c9634e8d2086cbd276f3a53e2ffe217a63168a62567"
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


def test_theorem3_evaluates_every_time_point(tmp_path):
    rep = run_experiment(ExperimentConfig.from_dict(_theorem3_doc(time_points=[0.25, 1.0])), out_dir=tmp_path)
    pc = [(r["r"], r["t"]) for r in rep.rows if r["statistic"] == "mean_pair_correlation"]
    assert pc == [(50.0, 0.25), (50.0, 1.0), (200.0, 0.25), (200.0, 1.0)]
    assert sorted(rep.outcome_digests) == [
        "point00_n6_r50.csv", "point01_n6_r50.csv", "point02_n8_r200.csv", "point03_n8_r200.csv",
    ]
    assert len(list((tmp_path / "outcomes").glob("*.csv"))) == 4
    # one interval per point: the supremum over the time grid
    assert len(rep.extras["cprime_intervals"]) == 2
    assert any(r["statistic"] == "cprime_interval_consistency" for r in rep.rows)


@pytest.mark.parametrize(
    "overrides,fragment",
    [
        ({"init": [6, 0, 0]}, "init counts sum to 6, expected n = 8"),
        ({"init": [6, 0]}, "one count per model state"),
        ({"time_points": [1.0, 0.5]}, "strictly increasing"),
        ({"time_points": [0.0, 1.0]}, "time_points must be positive"),
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
    with pytest.raises(ValueError, match=fragment):
        ExperimentConfig.from_dict(theorem1_doc(kind=kind, init=init))


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
        "theorem2_cap_abort": _theorem2_doc(r_schedule=[10.0, 200.0, 1000.0], event_cap=20),
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


# result_hash of each config above, every one taken from the code before the
# shared point runner except these: the conjecture_probe pair no longer
# carries the cascade's path enumeration and reachable-site lists, and
# theorem1, theorem3 and conjecture_probe_sim hold marginals from expm, whose
# TV rows differ from uniformization's in float noise only (below 1e-13)
_PINNED_HASHES = {
    "absorption_tail": "c1b3edf502093dfc96d8518137253c0bb59b4c7aa661dcff567da01b06696a7c",
    "committor": "acd27cc11ce1f9ec2f4c824ad440f0046ddaff82508d733c5c713c23af2f49ec",
    "committor_mc": "a8d3d8c343386cc9622abf9da09aa75815ed77a4546dc1b120b2f09300c8a3a8",
    "conjecture_probe": "cdc52c3e5c119efe226497981fbc852d6fd57e32d88c32627a3893dfd5ec9b40",
    "conjecture_probe_sim": "3c84f800dc29ede5d5a4eb820b1dd32306ab7a6a7b2e3c3efec39791060acc5a",
    "eta_inf": "8e6aaf39ac6dc4ce9d66ac8fb7a0a4d570c298c6e543d205f7e7c2ef8bfc52e0",
    "theorem1": "b5567aa14033e61845b4ab6ad9b8f02d7165c71411fd9c388402be4e25a83aae",
    "theorem1_cap_abort": "efc02a3f5452096475d91ed2050ead0b016133fc9e93bb24bc8419bd77674218",
    "theorem2": "e3276eebbbdff7499aa4ff50f7f20bef70498a07bc0615a46512365f9c391f3a",
    "theorem2_cap_abort": "d41455b1ebe567ab0e5c0924f258a1f70aa30543b62ea1812fc486caa22ac766",
    "theorem3": "477c882089a81680a43ce68fe5347a2023e7a172dd51e6b78bc139be6cb043d7",
}


@pytest.mark.parametrize("key", sorted(_PINNED_HASHES))
def test_result_hash_pinned(key):
    cfg = ExperimentConfig.from_dict(_pinned_docs()[key])
    assert run_experiment(cfg).result_hash == _PINNED_HASHES[key]


# ----------------------------------------------------- condensed chain start


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
