"""Model validation, killing families, and exact limit ratios."""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fvlab import ModelError, load_model, validate_model
from fvlab.model import PowerLawKilling, UniformPlusBoundedKilling

from conftest import cycle_model_config, two_site_config


# ----------------------------------------------------------- validation


def test_validate_basic_fields(cycle_model):
    assert cycle_model.states == ("a", "b", "c")
    assert cycle_model.num_states == 3
    assert cycle_model.Q == 1.0
    assert cycle_model.state_index("b") == 1
    assert cycle_model.state_index(2) == 2
    assert cycle_model.mutation_rate("a", "b") == 1.0
    assert cycle_model.mutation_rate("b", "a") == 0.0


def test_validate_q_is_max_exit_rate():
    cfg = cycle_model_config()
    cfg["mutation"].append({"from": "a", "to": "c", "rate": 2.5})
    model = validate_model(cfg)
    assert model.Q == pytest.approx(3.5, abs=0)


@pytest.mark.parametrize(
    "breakage, fragment",
    [
        (lambda c: c.update(states=[]), "nonempty"),
        (lambda c: c.update(states=["a", "a", "b"]), "duplicate"),
        (lambda c: c["mutation"].append({"from": "a", "to": "nope", "rate": 1}), "unknown state"),
        (lambda c: c["mutation"].append({"from": "a", "to": "a", "rate": 1}), "self-loop"),
        (lambda c: c["mutation"].append({"from": "a", "to": "b", "rate": 1}), "duplicate mutation"),
        (lambda c: c["mutation"].append({"from": "b", "to": "a", "rate": -2}), "negative"),
        (lambda c: c["mutation"].append({"from": "b", "to": "a", "rate": float("nan")}), "finite"),
        (lambda c: c["mutation"].append({"from": "b", "to": "a"}), "missing"),
        (lambda c: c.update(killing={"kind": "mystery"}), "unknown killing"),
        (lambda c: c["killing"]["c"].pop("a"), "missing parameters"),
        (lambda c: c["killing"]["c"].update(a=0.0), "positive"),
        (lambda c: c["killing"]["beta"].update(a=-1), "positive"),
        (lambda c: c.pop("killing"), "killing"),
        (lambda c: c.pop("states"), "states"),
        # a model document holds no key outside its shape, like a config does
        (lambda c: c.update(mutations=c.pop("mutation")), "unknown model keys"),
        (lambda c: c["mutation"][0].update(note="x"), "unknown mutation entry keys"),
        (lambda c: c["killing"].update(m={"a": 0.0}), "unknown power killing keys"),
        (lambda c: c["killing"]["c"].update(d=1.0), "unknown power killing 'c' keys"),
        (lambda c: c["killing"]["beta"].update(d=1), "unknown power killing 'beta' keys"),
        # a number is a finite int or float, never a bool or a string
        (lambda c: c["mutation"][0].update(rate=True), r"rate q\(a,b\) must be a finite number"),
        (lambda c: c["killing"]["c"].update(a="1"), r"c\(a\) must be a finite number"),
        (
            lambda c: c.update(killing={"kind": "uniform_plus", "m": {"a": "1", "b": 0.0, "c": 0.0}}),
            r"m\(a\) must be a finite number",
        ),
        (lambda c: c.update(states="abc"), "states must be a list of strings"),
        (lambda c: c.update(states=["a", "b", 3]), "list of strings, got"),
        (lambda c: c["mutation"][0].update(rate=10**400), "must be a finite number, got 1000"),
        # an exponent that is no rational used to raise ZeroDivisionError or a bare ValueError
        (lambda c: c["killing"]["beta"].update(a="1/0"), "exponent must be a finite rational, got '1/0'"),
        (lambda c: c["killing"]["beta"].update(a=float("nan")), "exponent must be a finite rational, got nan"),
    ],
)
def test_validate_rejects_bad_configs(breakage, fragment):
    cfg = cycle_model_config()
    breakage(cfg)
    with pytest.raises(ModelError, match=fragment):
        validate_model(cfg)


@pytest.mark.parametrize("r", [math.nan, math.inf])
def test_intensity_must_be_finite(cycle_model, r):
    for call in (
        lambda: cycle_model.killing_rate(r, 0),
        lambda: cycle_model.min_killing_rate(r),
        lambda: cycle_model.alpha(0, 1, r),
    ):
        with pytest.raises(ModelError, match="finite and >= 1"):
            call()


def test_uniform_plus_rejects_negative_offset():
    cfg = {
        "states": ["a", "b"],
        "mutation": [],
        "killing": {"kind": "uniform_plus", "m": {"a": 0.0, "b": -1.0}},
    }
    with pytest.raises(ModelError, match="nonnegative"):
        validate_model(cfg)


def test_zero_rate_entries_are_legal_but_inert():
    cfg = cycle_model_config()
    cfg["mutation"].append({"from": "a", "to": "c", "rate": 0.0})
    model = validate_model(cfg)
    assert model.mutation_rate("a", "c") == 0.0
    assert all(rate > 0 for _, _, rate in model.mutation)


# ------------------------------------------------------ killing families


def test_power_law_rates_and_floor():
    model = validate_model(cycle_model_config(c=(1.0, 2.0, 4.0), beta=(1, "3/2", 2)))
    r = 10.0
    assert model.killing_rate(r, 0) == pytest.approx(10.0)
    assert model.killing_rate(r, 1) == pytest.approx(2.0 * 10.0**1.5)
    assert model.killing_rate(r, 2) == pytest.approx(4.0 * 100.0)
    assert model.min_killing_rate(r) == pytest.approx(10.0)


def test_uniform_plus_rates_and_gap():
    cfg = {
        "states": ["a", "b", "c"],
        "mutation": [],
        "killing": {"kind": "uniform_plus", "m": {"a": 0.0, "b": 1.0, "c": 2.0}},
    }
    model = validate_model(cfg)
    assert model.killing_rate(100.0, 2) == pytest.approx(102.0)
    assert model.min_killing_rate(100.0) == pytest.approx(100.0)
    assert model.killing.m_sup == pytest.approx(2.0)
    assert model.alpha("a", "c", None) == 1.0  # offsets wash out


def test_beta_parsed_exactly_as_fractions():
    model = validate_model(cycle_model_config(beta=("3/2", 1.5, "3/2")))
    killing = model.killing
    assert isinstance(killing, PowerLawKilling)
    assert killing.beta == (Fraction(3, 2),) * 3
    # equal exponents: the limit ratio is the prefactor ratio, exactly
    assert model.alpha("a", "b", None) == pytest.approx(2.0)


# ------------------------------------------------------------ alpha / ratios


def test_alpha_finite_r_is_rate_ratio(cycle_model):
    r = 7.0
    got = cycle_model.alpha("a", "c", r)
    assert type(got) is float
    assert got == cycle_model.killing_rate(r, 2) / cycle_model.killing_rate(r, 0)


def test_alpha_limit_trichotomy():
    model = validate_model(cycle_model_config(beta=(1, 2, 1), c=(1.0, 1.0, 3.0)))
    assert model.alpha("a", "b", None) == math.inf  # exponent grows
    assert model.alpha("b", "a", None) == 0.0  # exponent shrinks
    assert model.alpha("a", "c", None) == pytest.approx(3.0)  # same exponent
    assert model.alpha("a", "a", None) == 1.0
    # plain float order already ranks the three limit classes
    assert model.alpha("b", "a", None) < model.alpha("a", "c", None) < model.alpha("a", "b", None)


def test_alpha_undefined_when_both_rates_overflow():
    model = validate_model(
        {
            "states": ["x", "y"],
            "mutation": [],
            "killing": {"kind": "power", "c": {"x": 1e300, "y": 1e300}, "beta": {"x": 1, "y": 1}},
        }
    )
    assert model.alpha("x", "y", 10.0) == 1.0
    with pytest.raises(ModelError, match="overflows at r=10000000000.0"):
        model.alpha("x", "y", 1e10)  # inf / inf


@pytest.mark.parametrize(
    "killing,r",
    [
        # r ** beta overflows: used to raise a bare OverflowError
        ({"kind": "power", "c": {"x": 1.0, "y": 2.0}, "beta": {"x": "1", "y": "2"}}, 1e200),
        # r ** beta is finite and c * r ** beta is not: used to return inf
        ({"kind": "power", "c": {"x": 1.0, "y": 2.0}, "beta": {"x": "1", "y": "2"}}, 1e154),
        # r + m is not finite: used to return inf
        ({"kind": "uniform_plus", "m": {"x": 0.0, "y": 1e300}}, sys.float_info.max),
    ],
    ids=["power-overflow", "prefactor-overflow", "offset-overflow"],
)
def test_overflowing_killing_rate_raises_model_error(killing, r):
    model = validate_model({"states": ["x", "y"], "mutation": [], "killing": killing})
    assert math.isfinite(model.killing_rate(r, "x"))
    for call in (
        lambda: model.killing_rate(r, "y"),
        lambda: model.min_killing_rate(r),
        lambda: model.alpha("x", "y", r),
        lambda: model.alpha("y", "x", r),
    ):
        with pytest.raises(ModelError, match=r"killing rate at 'y' overflows at r="):
            call()


@given(
    ca=st.floats(min_value=0.01, max_value=100.0),
    cb=st.floats(min_value=0.01, max_value=100.0),
    r=st.floats(min_value=1.0, max_value=1e6),
)
def test_alpha_reciprocal_property(ca, cb, r):
    model = validate_model(
        {
            "states": ["x", "y"],
            "mutation": [],
            "killing": {"kind": "power", "c": {"x": ca, "y": cb}, "beta": {"x": 1, "y": 1}},
        }
    )
    fwd = model.alpha("x", "y", r)
    bwd = model.alpha("y", "x", r)
    assert fwd * bwd == pytest.approx(1.0, rel=1e-12)


# -------------------------------------------------------- serialization


def test_config_dict_round_trip(cycle_model):
    clone = validate_model(cycle_model.config_dict())
    assert clone.content_hash() == cycle_model.content_hash()
    assert clone.states == cycle_model.states
    assert clone.mutation == cycle_model.mutation


def test_content_hash_ignores_entry_order():
    cfg = cycle_model_config()
    shuffled = dict(cfg, mutation=list(reversed(cfg["mutation"])))
    assert validate_model(cfg).content_hash() == validate_model(shuffled).content_hash()


def test_content_hash_distinguishes_rates():
    a = validate_model(two_site_config(alpha=2.0))
    b = validate_model(two_site_config(alpha=2.5))
    assert a.content_hash() != b.content_hash()


def test_load_model_from_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(cycle_model_config()))
    model = load_model(path)
    assert model.states == ("a", "b", "c")


def test_uniform_plus_config_round_trip():
    cfg = {
        "states": ["a", "b"],
        "mutation": [{"from": "a", "to": "b", "rate": 0.5}],
        "killing": {"kind": "uniform_plus", "m": {"a": 0.0, "b": 2.0}},
    }
    model = validate_model(cfg)
    clone = validate_model(model.config_dict())
    assert isinstance(clone.killing, UniformPlusBoundedKilling)
    assert clone.content_hash() == model.content_hash()
