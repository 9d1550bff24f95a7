"""Model validation, killing families, and exact limit ratios."""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fvlab import ModelError, load_model, validate_model
from fvlab.model import PowerLawKilling, UniformPlusBoundedKilling, _killing_rates

from conftest import cycle_model_config, overflowing_totals_config, two_site_config


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
        # a mutation that is not a list used to raise TypeError, or was iterated by its keys
        (lambda c: c.update(mutation=None), "mutation must be a list of entries, got None"),
        (lambda c: c.update(mutation=5), "mutation must be a list of entries, got 5"),
        (lambda c: c.update(mutation=c["mutation"][0]), "mutation must be a list of entries, got {'from'"),
        (lambda c: c["mutation"].append("a"), "mutation entry must be a mapping, got 'a'"),
        (
            lambda c: c.update(killing={"kind": "uniform_plus", "m": {"a": 0.0, "b": 1.0}}),
            "uniform_plus killing missing offset for state 'c'",
        ),
        # a positive rate or c below the smallest normal double used to validate
        (lambda c: c["mutation"][0].update(rate=1e-320), r"rate q\(a,b\) = 1e-320 is below the smallest normal double"),
        (
            lambda c: c["mutation"][0].update(rate=float(np.nextafter(sys.float_info.min, 0.0))),
            r"rate q\(a,b\) = 2.225073858507201e-308 is below the smallest normal double 2.2250738585072014e-308",
        ),
        (lambda c: c["killing"]["c"].update(a=5e-324), r"c\(a\) = 5e-324 is below the smallest normal double"),
        # an exit rate past the largest double used to raise fsum's OverflowError
        (
            lambda c: c.update(mutation=[{"from": "a", "to": y, "rate": 1e308} for y in ("b", "c")]),
            "mutation exit rate at 'a' overflows",
        ),
    ],
)
def test_validate_rejects_bad_configs(breakage, fragment):
    cfg = cycle_model_config()
    breakage(cfg)
    with pytest.raises(ModelError, match=fragment):
        validate_model(cfg)


def test_smallest_normal_rate_and_c_are_admitted():
    # the floor below which validate_model rejects a positive rate or c
    # (test_validate_rejects_bad_configs) is the smallest normal double,
    # so every rate the event loop forms is normal: a killing rate is at
    # least c (r >= 1, beta > 0) or at least 1 (uniform_plus), and an exit
    # rate at least its largest mutation rate
    cfg = cycle_model_config()
    cfg["mutation"][0]["rate"] = sys.float_info.min
    cfg["killing"]["c"]["a"] = sys.float_info.min
    model = validate_model(cfg)
    assert model.mutation_rate("a", "b") == model.killing_rate(1.0, "a") == sys.float_info.min


def test_killing_rates_bound_every_event_total():
    # n * Q + n * n * max rate must stay below half the largest double
    model = validate_model(overflowing_totals_config())
    assert _killing_rates(model, 1.0, 2) == [1e307, 1e307]
    for n, r in ((3, 10.0), (2, 10.0), (10**400, 1.0)):  # an n past every double is compared as an int
        with pytest.raises(ModelError, match=f"event rates overflow: .* at n={n}, r={r}"):
            _killing_rates(model, r, n)
    # a rate that overflows is named as before
    with pytest.raises(ModelError, match="killing rate at 'x' overflows at r=1e\\+300"):
        _killing_rates(model, 1e300, 2)


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda m: m.state_index(3), r"site index must be an integer in \[0, 3\), got 3"),
        (lambda m: m.state_index(-1), "got -1"),
        (lambda m: m.state_index("zz"), "unknown state 'zz'"),
        # a bool or a float used to pass as an index: True as site 1 (a rate
        # of 11.0, an alpha of 1.1), 1.0 to a bare TypeError, 1.5 to a
        # mutation rate of 0.0
        (lambda m: m.killing_rate(10, True), "got True"),
        (lambda m: m.killing_rate(10, 1.0), "got 1.0"),
        (lambda m: m.mutation_rate("a", 1.5), "got 1.5"),
        (lambda m: m.alpha(0, True, 10), "got True"),
    ],
    ids=["past-end", "negative", "unknown-label", "bool-rate", "float-rate", "float-mutation", "bool-alpha"],
)
def test_sites_are_labels_or_integer_indices(call, fragment):
    model = validate_model(
        dict(cycle_model_config(), killing={"kind": "uniform_plus", "m": {"a": 0.0, "b": 1.0, "c": 2.0}})
    )
    with pytest.raises(ModelError, match=fragment):
        call(model)
    assert model.killing_rate(10, np.int64(1)) == model.killing_rate(10, "b") == 11.0  # numpy integers are sites


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
    # a numpy scalar r used to overflow in numpy arithmetic, whose
    # RuntimeWarning the suite's warning filter raised in place of the
    # ModelError; rates are evaluated on float(r), as Python floats
    model = validate_model({"states": ["x", "y"], "mutation": [], "killing": killing})
    for r in (r, np.float64(r)):
        assert type(model.killing_rate(r, "x")) is float and math.isfinite(model.killing_rate(r, "x"))
        for call in (
            lambda: model.killing_rate(r, "y"),
            lambda: model.min_killing_rate(r),
            lambda: model.alpha("x", "y", r),
            lambda: model.alpha("y", "x", r),
        ):
            with pytest.raises(ModelError, match=r"killing rate at 'y' overflows at r="):
                call()


_UPLUS_CYCLE = dict(cycle_model_config(), killing={"kind": "uniform_plus", "m": {"a": 0.0, "b": 0.1, "c": 2.5}})


@pytest.mark.parametrize(
    "config", [cycle_model_config(c=(0.3, 2.0, 4.0), beta=("1/2", "3/2", 2)), _UPLUS_CYCLE], ids=["power", "uplus"]
)
def test_without_mutation_keeps_sites_and_killing(config):
    model = validate_model(config)
    bare = model.without_mutation
    assert bare is not model and model.mutation
    assert (bare.states, bare.killing) == (model.states, model.killing)
    assert bare.mutation == () and bare.Q == 0.0
    assert (bare.exit_rate, bare.out_targets, bare.out_rates) == ((0.0,) * 3, ((),) * 3, ((),) * 3)
    assert [bare.killing_rate(10.0, i) for i in range(3)] == [model.killing_rate(10.0, i) for i in range(3)]
    assert model.without_mutation is bare  # built once
    assert bare.without_mutation is bare  # a model without mutation is its own


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
