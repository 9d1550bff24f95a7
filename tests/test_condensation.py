"""Minimal-order sets, urn laws, and the initial condensation law."""

from __future__ import annotations

import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvlab import (
    committor_numeric,
    gamblers_ruin_committor,
    initial_condensation_law,
    minimal_order_set,
    polya_urn_law,
    validate_model,
)

from conftest import brute_force_urn, cycle_model_config


def power_model(betas, cs=None, states=None) -> "object":
    states = states or [f"s{i}" for i in range(len(betas))]
    cs = cs or [1.0] * len(betas)
    return validate_model(
        {
            "states": states,
            "mutation": [],
            "killing": {
                "kind": "power",
                "c": dict(zip(states, cs)),
                "beta": dict(zip(states, betas)),
            },
        }
    )


# -------------------------------------------------------- minimal order set


def test_minimal_order_set_all_equal():
    model = power_model([1, 1, 1])
    assert minimal_order_set(model, ("s0", "s1", "s2")) == ("s0", "s1", "s2")


def test_minimal_order_set_drops_higher_exponent():
    model = power_model([1, 2], states=["a", "b"])
    assert minimal_order_set(model, ("a", "b")) == ("a",)


def test_minimal_order_set_spec_trio():
    model = power_model([1, 1, 2], states=["a", "b", "c"])
    assert minimal_order_set(model, ("a", "b", "c")) == ("a", "b")


def test_minimal_order_set_respects_support():
    model = power_model([1, 1, 2], states=["a", "b", "c"])
    assert minimal_order_set(model, ("b", "c")) == ("b",)
    assert minimal_order_set(model, ("c",)) == ("c",)


@pytest.mark.parametrize(
    "support, fragment",
    [((), "support must be nonempty"), (("a", "zz"), "unknown state 'zz'"), ((0, 3), "got 3")],
    ids=["empty", "unknown-label", "past-end"],
)
def test_minimal_order_set_rejects_bad_supports(support, fragment):
    with pytest.raises(ValueError, match=fragment):
        minimal_order_set(power_model([1, 1, 2], states=["a", "b", "c"]), support)


# ----------------------------------------------------------- weight profile


def test_weight_profile_prefactor_ratios():
    # same-order prefactors 1 and 2 are the committor weights of Lambda
    model = power_model([1, 1], cs=[1.0, 2.0], states=["a", "b"])
    for counts in ((1, 1), (3, 2)):
        law = initial_condensation_law(model, counts).law
        row = committor_numeric([1.0, 2.0], sum(counts), states=("a", "b")).row(counts)
        assert law.probs.tobytes() == row.tobytes()


def test_weight_profile_includes_self_ratio():
    # the min over Lambda includes the site itself (ratio 1), so the
    # weights are the prefactors over the smallest one, all >= 1
    model = power_model([1, 1, 1], cs=[1.0, 2.0, 4.0])
    for counts in ((2, 1, 1), (1, 3, 2)):
        law = initial_condensation_law(model, counts).law
        row = committor_numeric([1.0, 2.0, 4.0], sum(counts), states=model.states).row(counts)
        assert law.probs.tobytes() == row.tobytes()


# ------------------------------------------------------------------ urn law


def test_urn_zero_draws_is_point_mass():
    law = polya_urn_law((2, 3), 0)
    assert law.outcomes == {(2, 3): 1.0}


def test_urn_spec_examples():
    half = polya_urn_law((1, 1), 1)
    assert half.exact == {(2, 1): Fraction(1, 2), (1, 2): Fraction(1, 2)}
    thirds = polya_urn_law((1, 1), 2)
    assert thirds.exact == {
        (3, 1): Fraction(1, 3),
        (2, 2): Fraction(1, 3),
        (1, 3): Fraction(1, 3),
    }


@pytest.mark.parametrize(
    "initial,draws",
    [((1, 1), 3), ((2, 1), 2), ((1, 2, 1), 3), ((3, 2), 4), ((1, 1, 1), 2)],
)
def test_urn_matches_brute_force_enumeration(initial, draws):
    law = polya_urn_law(initial, draws)
    oracle = brute_force_urn(initial, draws)
    assert set(law.exact) == set(oracle)
    for outcome, p in oracle.items():
        assert law.exact[outcome] == p  # exact rational equality


def test_urn_exact_probabilities_sum_to_one():
    law = polya_urn_law((1, 2, 3), 10)
    assert sum(law.exact.values()) == Fraction(1)


def forward_urn(initial: tuple[int, ...], draws: int) -> dict[tuple[int, ...], Fraction]:
    """Exact urn law by stepping the draw distribution forward once per draw."""
    law = {tuple(initial): Fraction(1)}
    for _ in range(draws):
        nxt: dict[tuple[int, ...], Fraction] = {}
        for counts, p in law.items():
            total = sum(counts)
            for i, c in enumerate(counts):
                out = counts[:i] + (c + 1,) + counts[i + 1 :]
                nxt[out] = nxt.get(out, Fraction(0)) + p * Fraction(c, total)
        law = nxt
    return law


@pytest.mark.parametrize("initial,draws", [((2, 1), 80), ((1, 2, 1), 70)])
def test_urn_beyond_64_draws_matches_forward_recursion(initial, draws):
    law = polya_urn_law(initial, draws)
    assert law.exact == forward_urn(initial, draws)
    assert all(law.outcomes[k] == float(p) for k, p in law.exact.items())


def test_urn_exact_sum_at_200_draws():
    law = polya_urn_law((1, 1), 200)
    assert sum(law.exact.values()) == 1


def test_urn_large_draw_count_normalizes():
    law = polya_urn_law((1, 1), 200)
    total = sum(law.outcomes.values())
    assert total == pytest.approx(1.0, abs=1e-12)
    assert len(law.outcomes) == 201


def test_urn_with_more_colors_than_draws():
    # 100 colors and 2 draws: the draws land on one color twice or on two
    # distinct colors, C(101, 2) = 5050 outcomes in all
    law = polya_urn_law([1] * 100, 2)
    assert len(law.exact) == 5050
    assert sum(law.exact.values()) == 1
    assert law.exact[(3,) + (1,) * 99] == Fraction(2, 100 * 101)


def test_urn_rejects_bad_inputs():
    with pytest.raises(ValueError):
        polya_urn_law((0, 1), 2)  # every color needs a seed particle
    with pytest.raises(ValueError):
        polya_urn_law((1, 1), -1)
    with pytest.raises(ValueError):
        polya_urn_law((1, 1, 1), 300)  # 45 451 outcomes, above the 10 000 cap


@given(
    a=st.integers(min_value=1, max_value=4),
    b=st.integers(min_value=1, max_value=4),
    m=st.integers(min_value=0, max_value=6),
)
@settings(max_examples=40, deadline=None)
def test_urn_exchangeability(a, b, m):
    fwd = polya_urn_law((a, b), m)
    bwd = polya_urn_law((b, a), m)
    for outcome, p in fwd.exact.items():
        assert bwd.exact[outcome[::-1]] == p


# -------------------------------------------------- initial condensation law


def test_eta_inf_dirac_input_is_fixed():
    model = power_model([1, 2], states=["a", "b"])
    law = initial_condensation_law(model, (0, 4))
    assert law.law.prob("b") == 1.0
    assert law.lambda_set == ("b",)


def test_eta_inf_single_minimal_site_forces_dirac():
    model = power_model([1, 2], states=["a", "b"])
    law = initial_condensation_law(model, (2, 2))
    assert law.law.prob("a") == 1.0


@pytest.mark.parametrize(
    "counts,site",
    [
        ((0, 3, 0), "b"),  # Dirac supports
        ((0, 0, 1), "c"),
        ((0, 2, 1), "b"),  # supports whose minimal-order set is one site
        ((0, 1, 5), "b"),
        ((1, 0, 3), "a"),
    ],
)
def test_eta_inf_one_site_lambda_pinned(counts, site):
    # values recorded from the code that returned a Dirac support on its
    # own branch, before the minimal-order set of one site
    model = power_model([1, 1, 2], cs=[1.0, 2.0, 1.0], states=["a", "b", "c"])
    law = initial_condensation_law(model, counts)
    assert law.law.probs.tolist() == [float(s == site) for s in "abc"]
    assert law.lambda_set == (site,)
    assert law.urn is None
    assert law.to_json_dict() == {
        "lambda_set": [site],
        "eta_infinity": {s: float(s == site) for s in "abc"},
    }


def test_eta_inf_two_site_spec_value():
    model = power_model([1, 1], cs=[1.0, 2.0], states=["a", "b"])
    law = initial_condensation_law(model, (1, 1))
    assert law.law.prob("a") == pytest.approx(2 / 3, abs=1e-12)
    assert law.law.prob("b") == pytest.approx(1 / 3, abs=1e-12)


def test_eta_inf_urn_mixture_frozen_value():
    # counts (1, 2, 1) with orders (1, 1, 2): one particle reseeds the
    # urn over {a, b}, then limiting committors at ratio 2 apply:
    # eta = 1/3 * g(2) + 2/3 * g(1) with g over n = 4 -> (28/45, 17/45, 0)
    model = power_model([1, 1, 2], cs=[1.0, 2.0, 1.0], states=["a", "b", "c"])
    law = initial_condensation_law(model, (1, 2, 1))
    assert law.law.prob("a") == pytest.approx(28 / 45, abs=1e-12)
    assert law.law.prob("b") == pytest.approx(17 / 45, abs=1e-12)
    assert law.law.prob("c") == 0.0
    assert law.lambda_set == ("a", "b")
    assert law.urn is not None


def test_eta_inf_all_inside_lambda_is_a_zero_draw_urn():
    # every particle already sits in Lambda = {a, b}: the urn makes no
    # draw, and its one outcome's committor row is the law, bit for bit
    model = power_model([1, 1, 2], cs=[1.0, 3.0, 1.0], states=["a", "b", "c"])
    law = initial_condensation_law(model, (2, 3, 0))
    assert law.lambda_set == ("a", "b")
    assert law.urn.outcomes == {(2, 3): 1.0}
    row = committor_numeric([1.0, 3.0], 5, states=("a", "b")).row((2, 3))
    assert law.law.probs.tobytes() == np.array([row[0], row[1], 0.0]).tobytes()


def test_eta_inf_mixed_order_bits_pinned():
    # sha256 of law.probs.tobytes(), re-taken on the face-by-face committor
    # solve: 5151 urn outcomes over three sites of a 13 041-state committor
    # table must mix to the same bits however the mixture is computed
    model = validate_model(
        {
            "states": ["a", "b", "h", "c"],
            "mutation": [],
            "killing": {"kind": "power", "c": {"a": 1.0, "b": 2.0, "h": 1.0, "c": 3.0},
                        "beta": {"a": "1", "b": "1", "h": "2", "c": "1"}},
        }
    )
    law = initial_condensation_law(model, (20, 20, 100, 20))
    assert len(law.urn.outcomes) == 5151
    digest = hashlib.sha256(np.asarray(law.law.probs).tobytes()).hexdigest()
    assert digest == "e5e44f1b87c8dd6f917862e8407f026eca83a64dca69033dcd937f38e20de232"


def test_eta_inf_supported_inside_lambda_and_normalized():
    model = power_model([1, 1, 2, 3], cs=[1.0, 3.0, 1.0, 1.0])
    law = initial_condensation_law(model, (2, 1, 2, 1))
    probs = np.asarray(law.law.probs)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    outside = [i for i, s in enumerate(law.law.states) if s not in law.lambda_set]
    assert all(probs[i] == 0.0 for i in outside)


def test_eta_inf_depends_only_on_limit_ratios():
    base = power_model([1, 1], cs=[1.0, 2.0], states=["a", "b"])
    scaled = power_model([1, 1], cs=[10.0, 20.0], states=["a", "b"])
    for counts in ((1, 1), (2, 1), (1, 3)):
        a = initial_condensation_law(base, counts).law.probs
        b = initial_condensation_law(scaled, counts).law.probs
        assert np.allclose(a, b, atol=1e-14)


def test_eta_inf_two_site_matches_committor_table():
    model = power_model([1, 1], cs=[1.0, 2.0], states=["a", "b"])
    n = 4
    g = gamblers_ruin_committor(n, 2.0)
    hold, invade = g[n - 1], g[1]
    assert initial_condensation_law(model, (3, 1)).law.prob("a") == pytest.approx(hold)
    assert initial_condensation_law(model, (1, 3)).law.prob("a") == pytest.approx(invade)


def test_eta_inf_json_contract():
    model = power_model([1, 1, 2], cs=[1.0, 2.0, 1.0], states=["a", "b", "c"])
    doc = initial_condensation_law(model, (1, 2, 1)).to_json_dict()
    assert set(doc) >= {"lambda_set", "eta_infinity"}
    assert doc["lambda_set"] == ["a", "b"]
    assert doc["eta_infinity"]["a"] == pytest.approx(28 / 45)


_CRIT7 = dict(betas=[1, 1, 2], cs=[1.0, 2.0, 1.0], states=["a", "b", "c"])


@pytest.mark.parametrize(
    "call, match",
    [
        # each used to be truncated with int(): the first three to the law of (1, 2, 1)
        (lambda: initial_condensation_law(power_model(**_CRIT7), [1.5, 2, 1]), "counts must be integers"),
        (lambda: initial_condensation_law(power_model(**_CRIT7), [True, 2, 1]), "counts must be integers"),
        (lambda: initial_condensation_law(power_model(**_CRIT7), ["1", 2, 1]), "counts must be integers"),
        (lambda: polya_urn_law((1.5, 2), 1), "initial counts must be integers"),
        (lambda: polya_urn_law((1, 2), 1.7), "draw count must be an integer"),
        (lambda: polya_urn_law((1, 2), True), "draw count must be an integer"),
    ],
    ids=["icl-float", "icl-bool", "icl-str", "urn-float-count", "urn-float-draws", "urn-bool-draws"],
)
def test_counts_and_draws_must_be_integers(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_counts_and_draws_may_be_numpy_integers():
    model = power_model(**_CRIT7)
    want = initial_condensation_law(model, (1, 2, 1)).law.probs
    assert initial_condensation_law(model, np.array([1, 2, 1])).law.probs.tobytes() == want.tobytes()
    assert polya_urn_law(np.array([1, 2]), np.int64(3)).exact == polya_urn_law((1, 2), 3).exact


def test_eta_inf_rejects_bad_counts():
    model = power_model([1, 1], states=["a", "b"])
    with pytest.raises(ValueError):
        initial_condensation_law(model, (1, -1))
    with pytest.raises(ValueError):
        initial_condensation_law(model, (0, 0))
    with pytest.raises(ValueError):
        initial_condensation_law(model, (1, 1, 1))
