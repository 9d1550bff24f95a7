"""Command-line interface: subcommands, output shapes, and exit codes."""

from __future__ import annotations

import json

import pytest

from fvlab import EventCapError, cli
from fvlab.cli import main

from conftest import cycle_model_config, overflowing_totals_config, two_site_config


@pytest.fixture()
def cycle_model_file(tmp_path):
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(cycle_model_config()))
    return str(path)


@pytest.fixture()
def two_site_file(tmp_path):
    path = tmp_path / "two_site.json"
    path.write_text(json.dumps(two_site_config(alpha=2.0)))
    return str(path)


# ------------------------------------------------------------------ validate


def test_validate_ok(cycle_model_file, capsys):
    assert main(["validate", cycle_model_file]) == 0
    out = capsys.readouterr().out
    assert "states: a, b, c" in out
    assert "content hash:" in out


def test_validate_bad_model_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"states": ["a", "a"], "mutation": [],
                               "killing": {"kind": "power", "c": {}, "beta": {}}}))
    assert main(["validate", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutation, message",
    [
        # a subnormal rate used to validate, and its Dirac could take a death
        ([{"from": "x", "to": "y", "rate": 1e-320}], "rate q(x,y) = 1e-320 is below the smallest normal double"),
        # an exit rate past the largest double used to end in fsum's OverflowError (exit 1)
        ([{"from": "x", "to": "y", "rate": 1e308}, {"from": "x", "to": "z", "rate": 1e308}],
         "mutation exit rate at 'x' overflows"),
    ],
    ids=["subnormal-rate", "overflowing-exit"],
)
def test_validate_rates_the_event_loop_cannot_hold_exit_2(tmp_path, capsys, mutation, message):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"states": ["x", "y", "z"], "mutation": mutation,
                                "killing": {"kind": "uniform_plus", "m": {"x": 0.0, "y": 1.0, "z": 2.0}}}))
    assert main(["validate", str(path)]) == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_validate_missing_file_exits_2(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_validate_malformed_json_exits_2(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["validate", str(broken)]) == 2
    assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------- committor


def test_committor_table(capsys):
    assert main(["committor", "--n", "4", "--alpha", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "k,psi_first_site"
    values = [float(line.split(",")[1]) for line in lines[1:6]]
    assert values == pytest.approx([0.0, 8 / 15, 12 / 15, 14 / 15, 1.0], abs=1e-15)
    assert lines[6].startswith("# hold (n-1 vs 1): ")
    assert lines[7].startswith("# invade (1 vs n-1): ")
    assert float(lines[6].split(":")[1]) == pytest.approx(14 / 15, abs=1e-15)
    # hold and invade print rows k = n-1 and k = 1 of the column, digit for digit
    assert lines[6].split(": ")[1] == lines[4].split(",")[1]
    assert lines[7].split(": ")[1] == lines[2].split(",")[1]


def test_committor_rejects_bad_parameters(capsys):
    assert main(["committor", "--n", "1", "--alpha", "2"]) == 2
    assert main(["committor", "--n", "4", "--alpha", "-1"]) == 2
    assert "error:" in capsys.readouterr().err


# --------------------------------------------------------------- limit-chain


def test_limit_chain_fixed_n(cycle_model_file, capsys):
    assert main(["limit-chain", cycle_model_file, "--n", "3", "--r", "10"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["states"] == ["a", "b", "c"]
    assert doc["n"] == 3 and doc["r"] == 10.0
    rates = {(e["from"], e["to"]): e["rate"] for e in doc["rates"]}
    assert rates[("a", "b")] == pytest.approx(3 / 7)  # 3 * q * (2-1)/(2^3-1)
    assert rates[("c", "a")] == pytest.approx(16 / 7)


def test_limit_chain_limit_intensity(cycle_model_file, capsys):
    assert main(["limit-chain", cycle_model_file, "--n", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["r"] is None
    rates = {(e["from"], e["to"]): e["rate"] for e in doc["rates"]}
    assert rates[("a", "b")] == pytest.approx(3 / 7)


@pytest.mark.parametrize("r", ["1e200", "1e154"], ids=["power-overflow", "prefactor-overflow"])
def test_limit_chain_overflowing_intensity_exits_2(tmp_path, capsys, r):
    # r ** 2 out of range used to end in an OverflowError traceback (exit
    # 1); 4 * r ** 2 out of range used to give an inf killing rate
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(cycle_model_config(beta=(1, 2, 1))))
    assert main(["limit-chain", str(path), "--n", "5", "--r", r]) == 2
    assert f"error: killing rate at 'b' overflows at r={float(r)}" in capsys.readouterr().err


def test_limit_chain_requires_n_without_conjecture(cycle_model_file, capsys):
    assert main(["limit-chain", cycle_model_file]) == 2
    assert "--n is required" in capsys.readouterr().err


def test_limit_chain_conjecture(tmp_path, capsys):
    path = tmp_path / "azb.json"
    path.write_text(
        json.dumps(
            {
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
        )
    )
    assert main(["limit-chain", str(path), "--conjecture"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["states"] == ["a", "b"]
    assert doc["rates"] == [{"from": "a", "to": "b", "rate": 2.0}]
    assert doc["cascade"]["stable_sites"] == ["a", "b"]


@pytest.mark.parametrize(
    "extra", [["--n", "3"], ["--r", "10"], ["--n", "3", "--r", "10"]], ids=["n", "r", "n-and-r"]
)
def test_limit_chain_conjecture_rejects_n_and_r(cycle_model_file, capsys, extra):
    # the conjectured chain is the n -> infinity limit; --n and --r used to be ignored
    assert main(["limit-chain", cycle_model_file, "--conjecture", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --n and --r do not apply with --conjecture,")


def test_limit_chain_conjecture_alt_c1_reading(cycle_model_file, capsys):
    # the cascade has one descent rule; the flag for a second one is gone
    with pytest.raises(SystemExit) as exc:
        main(["limit-chain", cycle_model_file, "--conjecture", "--alt-c1-reading"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --alt-c1-reading" in capsys.readouterr().err


# ------------------------------------------------------------------- eta-inf


def test_eta_inf_json(two_site_file, capsys):
    assert main(["eta-inf", two_site_file, "--counts", "1", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lambda_set"] == ["x", "y"]
    assert doc["eta_infinity"]["x"] == pytest.approx(2 / 3)
    assert doc["eta_infinity"]["y"] == pytest.approx(1 / 3)


def test_eta_inf_bad_counts_exit_2(two_site_file, capsys):
    assert main(["eta-inf", two_site_file, "--counts", "1", "1", "1"]) == 2
    assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------- run


def run_config_doc():
    return {
        "kind": "committor_check",
        "grid": {"n": [2, 3, 4], "alpha": [0.5, 2.0]},
        "seed": 9,
    }


def test_run_writes_report_and_exits_0(tmp_path, capsys):
    exp = tmp_path / "exp.json"
    exp.write_text(json.dumps(run_config_doc()))
    out_dir = tmp_path / "out"
    assert main(["run", str(exp), "--out", str(out_dir)]) == 0
    printed = capsys.readouterr().out
    assert "[PASS]" in printed
    assert "result_hash:" in printed
    report = json.loads((out_dir / "report.json").read_text())
    assert report["kind"] == "committor_check"
    assert (out_dir / "summary.csv").exists()


def test_run_seed_override_changes_hash(tmp_path, capsys):
    doc = {
        "kind": "eta_inf_check",
        "model": two_site_config(alpha=2.0),
        "seed": 1,
        "n": 2,
        "r_schedule": [500.0],
        "replicas": 200,
        "init": [1, 1],
        "tolerances": {"tv_tol": 1.0},  # gate wide open: exercising plumbing only
    }
    exp = tmp_path / "exp.json"
    exp.write_text(json.dumps(doc))
    assert main(["run", str(exp), "--out", str(tmp_path / "o1")]) == 0
    hash1 = json.loads((tmp_path / "o1" / "report.json").read_text())["result_hash"]
    assert main(["run", str(exp), "--out", str(tmp_path / "o2"), "--seed", "2"]) == 0
    hash2 = json.loads((tmp_path / "o2" / "report.json").read_text())["result_hash"]
    assert hash1 != hash2
    seed2 = json.loads((tmp_path / "o2" / "report.json").read_text())["seed"]
    assert seed2 == 2
    capsys.readouterr()


def test_run_failing_experiment_exits_1(tmp_path, capsys):
    doc = {
        "kind": "conjecture_probe",
        "model": {
            "states": ["a", "b"],
            "mutation": [{"from": "a", "to": "b", "rate": 1.0}],
            "killing": {
                "kind": "power",
                "c": {"a": 1.0, "b": 1.0},
                "beta": {"a": "1", "b": "2"},
            },
        },
        "seed": 0,
        "expect": {"stable_sites": ["b"]},  # wrong: lower order holds at "a"
    }
    exp = tmp_path / "exp.json"
    exp.write_text(json.dumps(doc))
    assert main(["run", str(exp), "--out", str(tmp_path / "out")]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_run_negative_seed_exits_2_before_running(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("run_experiment reached")

    monkeypatch.setattr(cli, "run_experiment", fail)
    exp = tmp_path / "exp.json"
    exp.write_text(json.dumps(run_config_doc()))
    assert main(["run", str(exp), "--out", str(tmp_path / "out"), "--seed", "-3"]) == 2
    assert "seed must be an integer >= 0, got -3" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_run_threads_below_one_exits_2_before_running(tmp_path, capsys, monkeypatch, threads):
    # --threads 0 used to be clamped to one worker
    import fvlab.experiments as experiments

    def fail(*args, **kwargs):
        raise AssertionError("a point ran")

    monkeypatch.setattr(experiments, "_run_point", fail)
    doc = {"kind": "eta_inf_check", "model": two_site_config(alpha=2.0), "seed": 1, "r_schedule": [500.0],
           "replicas": 200, "init": [1, 1]}
    exp = tmp_path / "exp.json"
    exp.write_text(json.dumps(doc))
    assert main(["run", str(exp), "--out", str(tmp_path / "out"), "--threads", threads]) == 2
    assert f"threads must be an integer >= 1, got {threads}" in capsys.readouterr().err


_THEOREM1 = {"kind": "theorem1_marginal", "model": cycle_model_config(), "n": 3, "r_schedule": [10.0], "T": 0.5,
             "replicas": 100, "init": {"dirac": "a"}}


@pytest.mark.parametrize(
    "doc,message",
    [
        # a nan horizon used to simulate every point, then fail to hash the report
        (
            {"kind": "theorem1_marginal", "model": cycle_model_config(), "n": 3, "r_schedule": [10.0],
             "T": float("nan"), "replicas": 100, "init": {"dirac": "a"}},
            "T must be a finite number > 0, got nan",
        ),
        # a rate entry without its rate used to end the run in a KeyError (exit 1)
        (
            {"kind": "conjecture_probe", "model": two_site_config(alpha=2.0),
             "expect": {"rates": [{"from": "a", "to": "b"}]}},
            "expect.rates[0] must be a block with keys ['from', 'to', 'rate']",
        ),
        # a negative band used to run every point and then exit 1 on its FAIL
        (
            {"kind": "theorem1_marginal", "model": cycle_model_config(), "n": 3, "r_schedule": [10.0],
             "T": 0.5, "replicas": 100, "init": {"dirac": "a"}, "tolerances": {"limit_band": -1.0}},
            "tolerances.limit_band must be a finite number > 0, got -1.0",
        ),
        # an integer too large for a float used to raise OverflowError (exit 1)
        (
            {"kind": "theorem1_marginal", "model": cycle_model_config(), "n": 3, "r_schedule": [10.0],
             "T": 10**400, "replicas": 100, "init": {"dirac": "a"}},
            "T must be a finite number > 0, got 1000",
        ),
        # an r at which a killing rate overflows used to end in OverflowError (exit 1)
        (
            {"kind": "theorem1_marginal", "model": cycle_model_config(beta=(1, 2, 1)), "n": 3,
             "r_schedule": [10.0, 1e200], "T": 0.5, "replicas": 100, "init": {"dirac": "a"}},
            "killing rate at 'b' overflows at r=1e+200",
        ),
        # killing rates of 1e308 are finite but the event totals at n = 3 are
        # not: the run used to take 10^7 events at t = 0 and exit 1 on the cap
        (
            {"kind": "theorem1_marginal", "model": overflowing_totals_config(), "n": 3, "r_schedule": [10.0],
             "T": 0.5, "time_points": [0.5], "replicas": 100, "seed": 3, "init": {"dirac": "x"}},
            "event rates overflow: n * Q + n * n * max killing rate exceeds 8.98847e+307 at n=3, r=10.0",
        ),
        # a document that is not a mapping used to raise TypeError (exit 1)
        (None, "config must be a mapping of fields, got None"),
        (3, "config must be a mapping of fields, got 3"),
        ([{}], "config must be a mapping of fields, got [{}]"),
        # a Dirac start absorbs every replica at t = 0 and used to end in ZeroDivisionError
        (
            {"kind": "absorption_tail", "model": cycle_model_config(), "r_schedule": [10.0, 100.0],
             "replicas": 100, "init": [5, 0, 0]},
            "absorption_tail needs particles on at least two sites, got init [5, 0, 0]",
        ),
        # a kind that is no string used to raise TypeError: unhashable type (exit 1)
        (dict(_THEOREM1, kind=["theorem1_marginal"]), "unknown experiment kind ['theorem1_marginal']"),
        (dict(_THEOREM1, kind={"a": 1}), "unknown experiment kind {'a': 1}"),
        # a model_path that is no string used to raise TypeError, or to read fd 0 (stdin)
        (dict(_THEOREM1, model=None, model_path=None), "model_path must be a path string, got None"),
        (dict(_THEOREM1, model=None, model_path=0), "model_path must be a path string, got 0"),
        # a Dirac site given by index used to pass validate() and fail the run
        (dict(_THEOREM1, init={"dirac": 1}), "or a {'dirac': site label} block, got {'dirac': 1}"),
        (dict(_THEOREM1, init={"dirac": True}), "or a {'dirac': site label} block, got {'dirac': True}"),
        (dict(_THEOREM1, init={"dirac": ["a"]}), "or a {'dirac': site label} block, got {'dirac': ['a']}"),
    ],
    ids=["nan-horizon", "rate-missing", "negative-band", "huge-integer", "overflowing-intensity",
         "overflowing-event-total", "null-document",
         "number-document", "list-document", "tail-on-one-site", "list-kind", "mapping-kind", "null-model-path",
         "fd-model-path", "index-dirac", "bool-dirac", "list-dirac"],
)
def test_run_invalid_entry_exits_2_before_running(tmp_path, capsys, monkeypatch, doc, message):
    def fail(*args, **kwargs):
        raise AssertionError("run_experiment reached")

    monkeypatch.setattr(cli, "run_experiment", fail)
    exp = tmp_path / "exp.json"
    exp.write_text(json.dumps(doc))
    assert main(["run", str(exp), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


def test_run_invalid_config_exits_2(tmp_path, capsys):
    exp = tmp_path / "exp.json"
    exp.write_text(json.dumps({"kind": "no_such_kind"}))
    assert main(["run", str(exp), "--out", str(tmp_path / "out")]) == 2
    assert "unknown experiment kind" in capsys.readouterr().err


@pytest.mark.parametrize(
    "error",
    [EventCapError(5, 0.25, (2, 1)), RuntimeError("urn law sums to 0.99, not 1")],
)
def test_run_runtime_error_exits_2(tmp_path, capsys, monkeypatch, error):
    # a failed computation is not a FAILed verdict: exit 2, never 1
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "run_experiment", fail)
    exp = tmp_path / "exp.json"
    exp.write_text(json.dumps(run_config_doc()))
    assert main(["run", str(exp), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize(
    "error,message",
    [
        (MemoryError("Unable to allocate 745. GiB for an array with shape (100000000001,)"),
         "Unable to allocate 745. GiB for an array with shape (100000000001,)"),
        (MemoryError(), "MemoryError"),
    ],
    ids=["numpy-message", "bare"],
)
def test_committor_out_of_memory_exits_2(capsys, monkeypatch, error, message):
    # a size past the machine's memory is bad input, not a FAILed verdict;
    # the real call is never made, since with overcommit it can exhaust the host
    def fail(n, alpha):
        raise error

    monkeypatch.setattr(cli, "gamblers_ruin_committor", fail)
    assert main(["committor", "--n", "100000000000", "--alpha", "2"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
