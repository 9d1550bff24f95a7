"""Condensate Markov chains and exact CTMC marginals.

After fast selection condenses all particles onto one site, that site
performs a Markov chain whose rates are the mutation rates damped by the
probability that a mutant's line takes over: each edge (x, y) carries

    rate(x, y) = n * q(x, y) * (alpha - 1) / (alpha**n - 1),

with ``alpha`` the killing ratio ``lambda(y)/lambda(x)`` evaluated at
finite intensity or in the large-intensity limit (``alpha = 1`` gives
``q(x, y)`` back; ``alpha = inf`` gives 0; ``alpha = 0`` gives
``n * q(x, y)``, the continuous extension of the same formula).

Letting the particle count grow as well yields a chain on the "stable"
sites only (no mutation neighbour with strictly lower killing order);
unstable sites relay mass instantaneously along strictly descending
cascades.  :func:`conjectured_limit_rates` builds that chain together
with the full cascade diagnostics.  The paper proves this regime only in
part, so its descent rule (each step goes to the neighbours of smallest
limit ratio) is a conjecture.  The exact n-particle system agrees with
it where an unstable site's descending neighbours share one limit
ratio.  Where their ratios differ it can disagree: the test suite pins
a model whose cascade the rule sends to y1 alone, while the finite
system splits 2/3 to y1 and 1/3 to y2, in proportion to
``q(z, y) * (1 - alpha(z, y))``.

The marginal at time t of any of these chains is ``v expm(G t)``, one
dense matrix exponential (scipy's scaling and squaring, Al-Mohy &
Higham 2009) whose cost grows only with the logarithm of ``|G| t``; on
``[[G, I], [0, 0]]`` it gives the mean time-average occupation over
[0, T] too.  Paths are sampled by the standard exponential-clock method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cmp_to_key
from typing import Mapping, Sequence, Union

import numpy as np
from scipy.linalg import expm

from .committor import invasion_probability
from .metrics import LawOnStates
from .model import Model, _site_index

__all__ = [
    "RateMatrix",
    "condensate_rates",
    "conjectured_limit_rates",
    "simulate_ctmc",
    "ctmc_marginal",
]

@dataclass(frozen=True)
class RateMatrix:
    """Off-diagonal jump rates over an ordered state set (diagonal implicit)."""

    states: tuple[str, ...]
    rates: np.ndarray

    def __post_init__(self) -> None:
        rates = np.asarray(self.rates, dtype=float)
        rates.setflags(write=False)
        object.__setattr__(self, "rates", rates)
        d = len(self.states)
        if rates.shape != (d, d):
            raise ValueError("rate matrix shape must match state set")
        if np.any(np.diag(rates) != 0.0):
            raise ValueError("diagonal must be zero (it is implicit)")
        if np.any(rates < 0) or not np.all(np.isfinite(rates)):
            raise ValueError("off-diagonal rates must be finite and nonnegative")

    def entry(self, x: Union[str, int], y: Union[str, int]) -> float:
        return float(self.rates[_site_index(x, self.states), _site_index(y, self.states)])

    def row_sums(self) -> np.ndarray:
        return self.rates.sum(axis=1)

    def generator(self) -> np.ndarray:
        G = self.rates.copy()
        G[np.diag_indices_from(G)] = -self.row_sums()
        return G


def _takeover_factor(n: int, ratio: float) -> float:
    # (alpha - 1)/(alpha**n - 1) extended to the closed ratio classes.
    if math.isinf(ratio):
        return 0.0
    if ratio == 0.0:
        return 1.0
    return invasion_probability(n, ratio)


def condensate_rates(model: Model, n: int, r: float | None = None) -> RateMatrix:
    """Rate matrix of the condensate chain at fixed particle count n.

    ``r`` selects the killing intensity; ``None`` uses the large-r limit
    ratios.  Entries are ``n * q(x,y) * (alpha-1)/(alpha**n - 1)`` with
    the balanced case ``alpha = 1`` giving ``q(x, y)``.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    d = model.num_states
    rates = np.zeros((d, d))
    for i, j, q in model.mutation:
        rates[i, j] = n * q * _takeover_factor(n, model.alpha(i, j, r))
    return RateMatrix(states=model.states, rates=rates)


@dataclass(frozen=True)
class CascadeAnalysis:
    """Descent structure behind the many-particle condensate chain.

    ``stable_sites`` collects sites with no strictly descending mutation
    edge.  For every unstable site z, ``descent_targets[z]`` lists the
    admissible next steps and ``absorption_weights[z]`` the law of the
    stable site eventually reached.  For stable x and y,
    ``triggers[(x, y)]`` lists the balanced neighbours z of x whose
    cascade can deposit the condensate at y.
    """

    stable_sites: tuple[str, ...]
    descent_targets: Mapping[str, tuple[str, ...]]
    absorption_weights: Mapping[str, Mapping[str, float]]
    triggers: Mapping[tuple[str, str], tuple[str, ...]]

    def to_json_dict(self) -> dict:
        return {
            "stable_sites": list(self.stable_sites),
            "descent_targets": {z: list(t) for z, t in self.descent_targets.items()},
            "absorption_weights": {
                z: dict(w) for z, w in self.absorption_weights.items()
            },
            "triggers": {f"{x}->{y}": list(t) for (x, y), t in self.triggers.items()},
        }


def conjectured_limit_rates(model: Model) -> tuple[CascadeAnalysis, RateMatrix]:
    """Chain on stable sites in the joint many-particle fast-killing limit.

    A stable site keeps rate ``q(x, y)`` toward balanced stable
    neighbours (limit ratio exactly 1), and additionally inherits mass
    through balanced unstable neighbours z whose descending cascade
    reaches y: each such z contributes ``q(x, z)`` times the cascade's
    absorption weight at y.  A cascade step leaves an unstable z for
    the mutation neighbours of smallest limit ratio ``alpha(z, y)``
    (ties kept as a set) and branches among them in proportion to their
    mutation rates.

    Every descent step strictly lowers the limit killing rate, so the
    laws are built in one pass over the unstable sites, lowest limit
    rate first: each target's law exists before it is read.  That order
    compares ``alpha(x, y)`` with 1.0 and is exact, because unequal
    exponents give exactly 0 or inf and two distinct positive floats
    never divide to exactly 1.0.
    """
    d = model.num_states
    stable = [x for x in range(d) if all(model.alpha(x, y, None) >= 1.0 for y in model.out_targets[x])]
    unstable = [z for z in range(d) if z not in stable]
    targets: dict[int, list[int]] = {}
    for z in unstable:
        ratios = [model.alpha(z, y, None) for y in model.out_targets[z]]
        best = min(ratios)
        targets[z] = [y for y, a in zip(model.out_targets[z], ratios) if a == best]

    weights: dict[int, dict[int, float]] = {x: {x: 1.0} for x in stable}
    lower_first = cmp_to_key(lambda x, y: (model.alpha(x, y, None) < 1.0) - (model.alpha(x, y, None) > 1.0))
    for z in sorted(unstable, key=lower_first):
        out = targets[z]
        denom = sum(model.mutation_rate(z, y) for y in out)
        law: dict[int, float] = {}
        for y in out:
            w = model.mutation_rate(z, y) / denom
            for site, p in weights[y].items():
                law[site] = law.get(site, 0.0) + w * p
        weights[z] = law

    labels = model.states
    rates = np.zeros((d, d))
    triggers: dict[tuple[str, str], tuple[str, ...]] = {}
    for x in stable:
        for j, q in zip(model.out_targets[x], model.out_rates[x]):
            if model.alpha(x, j, None) != 1.0:  # not balanced
                continue
            for y, p in weights[j].items():  # a stable j is its own law
                rates[x, y] += q * p
                if j in targets:
                    key = (labels[x], labels[y])
                    triggers[key] = triggers.get(key, ()) + (labels[j],)

    analysis = CascadeAnalysis(
        stable_sites=tuple(labels[x] for x in stable),
        descent_targets={labels[z]: tuple(labels[y] for y in targets[z]) for z in unstable},
        absorption_weights={
            labels[z]: {labels[y]: p for y, p in weights[z].items()} for z in unstable
        },
        triggers=triggers,
    )
    chain = RateMatrix(states=analysis.stable_sites, rates=rates[np.ix_(stable, stable)])
    return analysis, chain


def _init_vector(rates: RateMatrix, init) -> np.ndarray:
    if isinstance(init, LawOnStates):
        if init.states != rates.states:
            raise ValueError("initial law is over a different state set")
        return np.asarray(init.probs, dtype=float)
    v = np.zeros(len(rates.states))
    v[_site_index(init, rates.states)] = 1.0
    return v


def simulate_ctmc(
    rates: RateMatrix,
    init: Union[str, int, LawOnStates],
    T: float,
    rng: np.random.Generator,
) -> list[tuple[float, int]]:
    """Exponential-clock realization of the chain on [0, T].

    Returns the jump skeleton ``[(0.0, i0), (t1, i1), ...]`` with times
    strictly increasing; the path is right-continuous and constant
    between entries.  ``init`` may be a site (label or index) or a law
    to sample the starting site from.
    """
    if not 0 < T < math.inf:  # also false for NaN
        raise ValueError(f"horizon must be positive and finite, got {T}")
    if isinstance(init, LawOnStates):
        probs = _init_vector(rates, init)
        site = int(rng.choice(len(probs), p=probs))
    else:
        site = _site_index(init, rates.states)
    R = rates.rates.tolist()  # Python floats: the same sums as numpy's, and float times
    row_sum = rates.row_sums().tolist()
    t = 0.0
    path = [(0.0, site)]
    while True:
        total = row_sum[site]
        if total <= 0.0:
            return path
        t += -math.log1p(-rng.random()) / total
        if t >= T:
            return path
        u = rng.random() * total
        acc = 0.0
        nxt = site
        for j, rate in enumerate(R[site]):
            acc += rate
            if u < acc:
                nxt = j
                break
        site = nxt
        path.append((t, site))


def ctmc_marginal(
    rates: RateMatrix, init: Union[str, int, LawOnStates], t: float
) -> LawOnStates:
    """Marginal law ``v expm(G t)`` at time t of the chain started from ``init``.

    Rounding in the squarings lets the total mass drift from 1 by about
    1e-17 per unit of ``|G| t`` (1e-11 at 1e6); dividing by the total
    removes that drift.
    """
    if not 0 <= t < math.inf:  # also false for NaN
        raise ValueError(f"time must be nonnegative and finite, got {t}")
    p = _init_vector(rates, init) @ expm(rates.generator() * t)
    return LawOnStates(rates.states, p / p.sum())


def _mean_occupation(rates: RateMatrix, init: Union[str, int, LawOnStates], T: float) -> np.ndarray:
    """Mean time-average occupation ``(1/T) v int_0^T expm(G s) ds`` over [0, T].

    ``(1/T) int_0^T expm(G s) ds = int_0^1 expm(G T u) du`` is the top-right
    block of ``expm([[G T, I], [0, 0]])`` (Van Loan 1978); dividing by the
    total removes the squarings' drift, as in :func:`ctmc_marginal`.
    """
    if not 0 < T < math.inf:  # also false for NaN
        raise ValueError(f"horizon must be positive and finite, got {T}")
    d = len(rates.states)
    block = np.zeros((2 * d, 2 * d))
    block[:d, :d] = rates.generator() * T
    block[:d, d:] = np.eye(d)
    p = _init_vector(rates, init) @ expm(block)[:d, d:]
    return p / p.sum()
