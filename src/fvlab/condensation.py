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
of the urn's outcomes; with no particle outside ``Lambda`` the urn
makes no draw.  When ``Lambda`` is one site, a Dirac start included,
the law is the point mass there and neither step runs.

The urn step follows the Dirichlet-multinomial law

    P(add vector (m_i)) = prod_i C(a_i + m_i - 1, m_i) / C(A + m - 1, m)

with ``A = sum a_i``, computed in exact rational arithmetic for every
draw count, up to 10 000 outcomes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Mapping, Sequence, Union

import numpy as np

from .committor import CompositionSpace, committor_numeric
from .metrics import LawOnStates
from .model import Model, _integers, _integral

__all__ = [
    "minimal_order_set",
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


@dataclass(frozen=True)
class UrnLaw:
    """Law of a Polya urn's final counts after a fixed number of draws.

    ``outcomes`` maps each final count vector to its probability as a
    float.  ``exact`` holds the same probabilities as rationals; it is
    built from the integer numerators and their common denominator the
    first time it is read, since the condensation law reads only the
    floats.  Only :func:`polya_urn_law` makes one.
    """

    outcomes: Mapping[tuple[int, ...], float]
    _numerators: tuple[int, ...]
    _denominator: int

    @functools.cached_property
    def exact(self) -> Mapping[tuple[int, ...], Fraction]:
        return {key: Fraction(num, self._denominator)
                for key, num in zip(self.outcomes, self._numerators)}


def polya_urn_law(initial_counts: Sequence[int], draws: int) -> UrnLaw:
    """Exact Dirichlet-multinomial law of the urn's final counts.

    Each draw observes a color proportionally to its current count and
    adds one ball of that color.  ``initial_counts`` must be >= 1
    (empty colors can never be drawn and would stay empty); they and
    ``draws`` are Python or numpy integers.
    """
    a = _integers(initial_counts, "initial counts")
    if not a or any(v < 1 for v in a):
        raise ValueError(f"initial counts must all be >= 1, got {initial_counts}")
    if not _integral(draws) or draws < 0:
        raise ValueError(f"draw count must be an integer >= 0, got {draws!r}")
    m = int(draws)
    space = CompositionSpace(len(a), m)
    if space.size > _OUTCOME_CAP:
        raise ValueError(f"{space.size} outcomes exceed the cap {_OUTCOME_CAP}")

    # P(adds) = prod_i C(a_i + m_i - 1, m_i) / C(A + m - 1, m), A = sum a_i;
    # the numerators multiply in one colour at a time from per-colour tables
    denom = comb(sum(a) + m - 1, m)
    adds = space.array()
    nums = [1] * space.size
    for av, col in zip(a, adds.T.tolist()):
        table = [comb(av + mv - 1, mv) for mv in range(m + 1)]
        nums = [num * table[mv] for num, mv in zip(nums, col)]
    if sum(nums) != denom:
        raise RuntimeError("urn law does not sum to 1 exactly")
    keys = list(map(tuple, (adds + a).tolist()))
    # int / int is correctly rounded, so it is the float of the Fraction
    return UrnLaw({key: num / denom for key, num in zip(keys, nums)}, tuple(nums), denom)


@dataclass(frozen=True)
class InitialCondensationLaw:
    """Limiting law of the condensate's initial site.

    ``law`` is supported inside ``lambda_set``.  ``urn`` records the
    redistribution law of the particles outside the minimal-order set,
    a point mass at the start when there are none, and ``law`` is the
    urn-weighted average of the committor rows of its outcomes (counts
    over ``lambda_set``).  ``urn`` is None only when ``lambda_set`` is
    one site.
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

    ``counts`` gives the particle counts per model state, Python or numpy
    integers, at least one particle in all.  A Dirac measure, or any
    support whose minimal-order set ``Lambda`` is one site, condenses at
    that site.  Depends on the killing family only through its limit
    ratios.
    """
    counts = _integers(counts, "counts")
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
        return InitialCondensationLaw(LawOnStates(model.states, full), lam, None)

    # Lambda is its own minimal-order set, so every ratio below is positive;
    # the min includes alpha(x, x) = 1, so each weight is finite and >= 1
    at = [model.state_index(s) for s in lam]
    gamma = [1.0 / min(model.alpha(x, y, None) for y in at) for x in at]
    inside = [counts[x] for x in at]
    table = committor_numeric(gamma, n, states=lam)
    urn = polya_urn_law(inside, n - sum(inside))
    rows = table.psi[table.space.ranks(list(urn.outcomes))]
    p = np.fromiter(urn.outcomes.values(), dtype=float, count=len(rows))
    # cumsum adds outcome by outcome in order, not pairwise like np.sum,
    # so the mixture keeps the bits of a plain running sum
    full[at] = np.cumsum(p[:, None] * rows, axis=0)[-1]
    return InitialCondensationLaw(LawOnStates(model.states, full), lam, urn)
