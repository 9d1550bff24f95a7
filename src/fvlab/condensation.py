"""Where the condensate forms: the limiting law of the first Dirac mass.

Started from a configuration with support D0, the selection-only
dynamics at large killing intensity is absorbed in a Dirac mass whose
site has a deterministic limiting law.  Sites of non-minimal killing
order are vacated first: each of their particles relocates onto the
minimal-order set ``Lambda`` proportionally to current occupancy, which
is exactly a Polya urn with one draw per relocated particle (note: per
*particle*, not per vacated site).  The resulting occupancy of
``Lambda`` then resolves by the committors of the limit rate ratios, so
the condensate's law is the urn-weighted average of the committor rows
of the urn's outcomes.  When ``Lambda`` is one site, a Dirac start
included, the law is the point mass there and neither step runs.

The urn step follows the Dirichlet-multinomial law

    P(add vector (m_i)) = prod_i C(a_i + m_i - 1, m_i) / C(A + m - 1, m)

with ``A = sum a_i``, computed in exact rational arithmetic for every
draw count, up to 10 000 outcomes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Mapping, Sequence, Union

import numpy as np

from .committor import CompositionSpace, committor_numeric
from .metrics import LawOnStates
from .model import Model

__all__ = [
    "UrnLaw",
    "InitialCondensationLaw",
    "minimal_order_set",
    "limit_weight_profile",
    "polya_urn_law",
    "initial_condensation_law",
]

_OUTCOME_CAP = 10_000  # polya_urn_law refuses laws with more outcomes


def minimal_order_set(model: Model, support: Sequence[Union[str, int]]) -> tuple[str, ...]:
    """Sites of the support whose killing order is minimal.

    A site x stays iff no support site y has vanishing limit ratio
    ``lambda(y)/lambda(x)`` (which would mean y dies at a strictly
    smaller order).  The result is nonempty and keeps model order.
    """
    idx = [model.state_index(s) for s in support]
    if not idx:
        raise ValueError("support must be nonempty")
    keep = [x for x in idx if not any(model.alpha(x, y, None) == 0.0 for y in idx)]
    return tuple(model.states[x] for x in keep)


def limit_weight_profile(model: Model, subset: Sequence[Union[str, int]]) -> np.ndarray:
    """Normalized limit killing weights over a same-order subset.

    For x in the subset, ``weight(x) = 1 / min_y ratio(x, y)`` equals
    the limit of ``lambda_r(x)`` over the subset's minimal rate, a
    finite value >= 1.  Requires the subset to be its own minimal-order
    set (every pairwise limit ratio positive).
    """
    idx = [model.state_index(s) for s in subset]
    out = np.empty(len(idx))
    for pos, x in enumerate(idx):
        ratios = [model.alpha(x, y, None) for y in idx]
        if 0.0 in ratios:
            raise ValueError(
                f"state {model.states[x]!r} is not of minimal order in the subset"
            )
        out[pos] = 1.0 / min(ratios)  # ratios holds alpha(x, x) = 1, so the min is finite
    return out


@dataclass(frozen=True)
class UrnLaw:
    """Law of a Polya urn's final counts after a fixed number of draws.

    ``exact`` holds the rational probabilities, ``outcomes`` the same
    values rounded to floats.
    """

    outcomes: Mapping[tuple[int, ...], float]
    exact: Mapping[tuple[int, ...], Fraction]


def polya_urn_law(initial_counts: Sequence[int], draws: int) -> UrnLaw:
    """Exact Dirichlet-multinomial law of the urn's final counts.

    Each draw observes a color proportionally to its current count and
    adds one ball of that color.  ``initial_counts`` must be >= 1
    (empty colors can never be drawn and would stay empty).
    """
    a = [int(v) for v in initial_counts]
    if not a or any(v < 1 for v in a):
        raise ValueError(f"initial counts must all be >= 1, got {initial_counts}")
    m = int(draws)
    if m < 0:
        raise ValueError(f"draw count must be >= 0, got {draws}")
    space = CompositionSpace(len(a), m)
    if space.size > _OUTCOME_CAP:
        raise ValueError(f"{space.size} outcomes exceed the cap {_OUTCOME_CAP}")

    # P(adds) = prod_i C(a_i + m_i - 1, m_i) / C(A + m - 1, m), A = sum a_i
    denom = comb(sum(a) + m - 1, m)
    nums = {}
    for adds in space.array().tolist():
        key = tuple(av + mv for av, mv in zip(a, adds))
        nums[key] = math.prod(comb(av + mv - 1, mv) for av, mv in zip(a, adds))
    if sum(nums.values()) != denom:
        raise RuntimeError("urn law does not sum to 1 exactly")
    exact = {key: Fraction(num, denom) for key, num in nums.items()}
    return UrnLaw({key: float(p) for key, p in exact.items()}, exact)


@dataclass(frozen=True)
class InitialCondensationLaw:
    """Limiting law of the condensate's initial site.

    ``law`` is supported inside ``lambda_set``.  When particles start
    outside the minimal-order set, ``urn`` records the redistribution
    law, and ``law`` is the urn-weighted average of the committor rows
    of its outcomes (counts over ``lambda_set``).
    """

    law: LawOnStates
    lambda_set: tuple[str, ...]
    urn: UrnLaw | None

    def to_json_dict(self) -> dict:
        return {
            "lambda_set": list(self.lambda_set),
            "eta_infinity": self.law.as_dict(),
        }


def initial_condensation_law(model: Model, counts: Sequence[int]) -> InitialCondensationLaw:
    """Limiting site law of the first Dirac mass under fast selection.

    ``counts`` gives the particle counts per model state, at least one
    particle in all.  A Dirac measure, or any support whose minimal-order
    set ``Lambda`` is one site, condenses at that site.  Depends on the
    killing family only through its limit ratios.
    """
    counts = [int(c) for c in counts]
    if len(counts) != model.num_states or any(c < 0 for c in counts):
        raise ValueError("counts must be nonnegative, one per model state")
    n = sum(counts)
    if n < 1:
        raise ValueError("at least one particle required")
    support = [model.states[i] for i, c in enumerate(counts) if c > 0]
    lam = minimal_order_set(model, support)
    full = np.zeros(model.num_states)
    if len(lam) == 1:
        full[model.state_index(lam[0])] = 1.0
        return InitialCondensationLaw(LawOnStates(model.states, full, kind="exact"), lam, None)

    gamma = limit_weight_profile(model, lam)
    inside = [counts[model.state_index(s)] for s in lam]
    outside = n - sum(inside)
    table = committor_numeric(gamma, n, states=lam)
    at = [model.state_index(s) for s in lam]
    if outside == 0:
        urn = None
        full[at] = table.row(inside)
    else:
        urn = polya_urn_law(inside, outside)
        rows = table.psi[table.space.ranks(list(urn.outcomes))]
        for p, v in zip(urn.outcomes.values(), rows):
            full[at] += p * v

    return InitialCondensationLaw(LawOnStates(model.states, full, kind="exact"), lam, urn)
