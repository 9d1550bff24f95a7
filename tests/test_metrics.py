"""Laws on finite state spaces and TV distances."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fvlab import (
    LawOnStates,
    empirical_law,
    tv_distance,
)

STATES = ("a", "b", "c")


# ------------------------------------------------------------------ laws


def test_exact_law_basics():
    law = LawOnStates(list(STATES), [0.5, 0.3, 0.2])
    assert law.states == STATES  # stored as a tuple
    assert law.prob("a") == 0.5
    assert law.as_dict() == {"a": 0.5, "b": 0.3, "c": 0.2}
    assert law.probs.dtype == float and not law.probs.flags.writeable


def test_exact_law_rejects_bad_vectors():
    with pytest.raises(ValueError):
        LawOnStates(STATES, [0.5, 0.6, 0.2])  # sums to 1.3
    with pytest.raises(ValueError):
        LawOnStates(STATES, [0.7, -0.1, 0.4])  # negative entry
    with pytest.raises(ValueError):
        LawOnStates(STATES, [0.5, 0.5])  # wrong length
    with pytest.raises(ValueError):
        LawOnStates(STATES, [0.5, 0.3, 0.2 + 2e-10])  # sum off by more than 1e-10


@pytest.mark.parametrize("probs", [[np.nan, 0.5, 0.5], [np.inf, -np.inf, 1.0], [0.5, 0.5, np.nan]])
def test_law_probabilities_must_be_finite(probs):
    # NaN compares false, so a NaN entry passes the sign and sum checks
    with pytest.raises(ValueError, match="must be finite"):
        LawOnStates(STATES, np.array(probs))


def test_empirical_law_counts_and_half_width():
    samples = ["a", "a", "b", "c"] * 25  # M = 100
    law = empirical_law(samples, STATES)
    assert law.probs.tolist() == [0.5, 0.25, 0.25]
    # the law is a plain frequency vector: a caller needing the DKW band
    # sqrt(ln(2/delta) / (2M)) computes it from its own sample count
    assert not hasattr(law, "half_width") and not hasattr(law, "nsamples")


def test_empirical_law_accepts_indices():
    law = empirical_law([0, 0, 1, 2], STATES)
    assert law.prob("a") == pytest.approx(0.5)
    # labels, a list of ints, an int64 array and a generator count alike
    labels = ["a", "c", "c", "b", "c"]
    ints = [STATES.index(s) for s in labels]
    want = empirical_law(labels, STATES).probs
    for samples in (ints, np.array(ints, dtype=np.int64), (i for i in ints)):
        assert empirical_law(samples, STATES).probs.tobytes() == want.tobytes()
    for bad in (-1, len(STATES)):
        for samples in ([bad, 0], np.array([0, bad])):
            with pytest.raises(ValueError, match=f"sample index {bad} "):
                empirical_law(samples, STATES)


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: empirical_law([], STATES), "at least one sample"),
        (lambda: empirical_law(np.array([], dtype=np.int64), STATES), "at least one sample"),
        # an unknown label used to raise a bare KeyError, and a bool to count as site 1
        (lambda: empirical_law(["a", "zz"], STATES), "unknown state 'zz'"),
        (lambda: empirical_law([True, True], STATES), "got True"),
        (lambda: LawOnStates(STATES, [0.5, 0.3, 0.2]).prob("zz"), "unknown state 'zz'"),
        (lambda: LawOnStates(STATES, [0.5, 0.3, 0.2]).prob(3), "got 3"),
    ],
    ids=["no-samples", "no-samples-array", "unknown-label", "bool-samples", "prob-unknown-label", "prob-past-end"],
)
def test_metrics_raise_value_error_naming_the_input(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()


# ------------------------------------------------------------------- tv


def test_tv_distance_hand_values():
    mu = LawOnStates(STATES, [1.0, 0.0, 0.0])
    nu = LawOnStates(STATES, [0.0, 1.0, 0.0])
    assert tv_distance(mu, nu) == pytest.approx(2.0)  # disjoint Diracs
    assert tv_distance(mu, mu) == 0.0
    rho = LawOnStates(STATES, [0.5, 0.5, 0.0])
    assert tv_distance(mu, rho) == pytest.approx(1.0)


def test_tv_distance_requires_same_states():
    mu = LawOnStates(("a", "b"), [0.5, 0.5])
    nu = LawOnStates(("a", "c"), [0.5, 0.5])
    with pytest.raises(ValueError):
        tv_distance(mu, nu)


@st.composite
def prob_vectors(draw, size=3):
    raw = draw(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=size, max_size=size)
    )
    total = sum(raw)
    if total <= 0:
        raw = [1.0] * size
        total = float(size)
    return [x / total for x in raw]


@given(u=prob_vectors(), v=prob_vectors(), w=prob_vectors())
def test_tv_is_a_metric(u, v, w):
    lu, lv, lw = (LawOnStates(STATES, x) for x in (u, v, w))
    duv = tv_distance(lu, lv)
    assert 0.0 <= duv <= 2.0
    assert duv == pytest.approx(tv_distance(lv, lu))
    assert duv <= tv_distance(lu, lw) + tv_distance(lw, lv) + 1e-12
