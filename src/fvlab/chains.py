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

The marginal at time t of any of these chains is ``v expm(G t)``, by
scaling and squaring (Moler & Van Loan 2003) with no BLAS call: shifted by
its largest exit rate, ``2^-k G t`` has a Taylor series of nonnegative
terms, and k squarings bring it back to t, its rows divided by their sums
after each one.  Every product sums in index order, so the bits depend on
IEEE arithmetic alone, not on the CPU's BLAS kernel; the cost grows only
with the logarithm of ``|G| t``.  On ``[[G, I], [0, 0]]`` (Van Loan 1978)
the same series gives the mean time-average occupation over [0, T] too.
Paths are sampled by the standard exponential-clock method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cmp_to_key
from typing import Mapping, Sequence, Union

import numpy as np

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
        with np.errstate(over="ignore"):  # reported below, not as numpy's warning
            exits = rates.sum(axis=1)
        for state, total in zip(self.states, exits):
            if math.isinf(total):
                raise ValueError(f"the exit rate of row {state!r} overflows: its rates sum past the largest double")

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


def _product(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``X @ Y`` summed over the inner index in index order, by elementwise
    products and sums: its bits depend on IEEE arithmetic alone, not on a
    BLAS kernel, numpy's SIMD dispatch or numpy's version."""
    out = np.multiply.outer(X[:, 0], Y[0])
    for j in range(1, X.shape[1]):
        out += np.multiply.outer(X[:, j], Y[j])
    return out


def _stochastic(X: np.ndarray) -> np.ndarray:
    """X with each row divided by its sum."""
    return X / _product(X, np.ones((X.shape[1], 1)))


def _expm_law(rates: RateMatrix, init: Union[str, int, LawOnStates], t: float, average: bool) -> np.ndarray:
    """``v expm(G t)``, or with ``average`` ``v int_0^1 expm(G t u) du``, for
    v the start ``init`` (a site or a law) of the chain ``rates``.

    With s the largest exit rate times t and ``2^k > s + 1``, ``B = 2^-k (G t
    + s I)`` (with ``average``, ``2^-k ([[G t, I], [0, 0]] + s I)``; Van Loan
    1978) is nonnegative with rows summing to at most 1, so 18 Taylor terms,
    all nonnegative, miss less than 1e-17 of each row.  Divided by their row
    sums, the blocks of ``expm(B)`` are the marginal P and the average Q over
    ``2^-k t``.  Each squaring doubles the step, Q to ``(Q + P Q) / 2`` and P
    to ``P P`` divided by its row sums, so the mass cannot drift by
    ``(1 + eps)^(2^k)``.
    """
    d = len(rates.states)
    if isinstance(init, LawOnStates):
        if init.states != rates.states:
            raise ValueError("initial law is over a different state set")
        v = np.asarray(init.probs, dtype=float)
    else:
        v = np.zeros(d)
        v[_site_index(init, rates.states)] = 1.0
    exit_rate = float(rates.row_sums().max())
    s = exit_rate * t
    if not math.isfinite(s):
        raise ValueError(f"G t overflows: the largest exit rate {exit_rate} times {t} is not finite")
    k = math.frexp(s + 1.0)[1]
    h = math.ldexp(1.0, -k)
    B = rates.generator() * t * h
    if average:
        B = np.block([[B, h * np.eye(d)], [np.zeros((d, 2 * d))]])
    B[np.diag_indices_from(B)] += s * h
    term = E = np.eye(len(B))
    for j in range(1, 19):
        term = _product(term, B) / j
        E = E + term
    P = _stochastic(E[:d, :d])
    Q = _stochastic(E[:d, d:]) if average else None
    for _ in range(k):
        if average:
            Q = (Q + _product(P, Q)) / 2.0
        P = _stochastic(_product(P, P))
    return _stochastic(_product(v[None], Q if average else P))[0]


def simulate_ctmc(
    rates: RateMatrix,
    init: Union[str, int],
    T: float,
    rng: np.random.Generator,
) -> list[tuple[float, int]]:
    """Exponential-clock realization of the chain on [0, T] from the site
    ``init`` (label or index).

    Returns the jump skeleton ``[(0.0, i0), (t1, i1), ...]`` with times
    strictly increasing; the path is right-continuous and constant
    between entries.
    """
    if not 0 < T < math.inf:  # also false for NaN
        raise ValueError(f"horizon must be positive and finite, got {T}")
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

    Every finite ``G t`` gives a law, and a ``G t`` that is not finite
    raises ValueError.  Rounding leaves the total mass within about 5e-16
    of 1 at any ``|G| t`` (measured on random chains of 2 to 8 sites, at
    ``|G| t`` from 1e-6 to 1e300); dividing by the total removes it.
    """
    if not 0 <= t < math.inf:  # also false for NaN
        raise ValueError(f"time must be nonnegative and finite, got {t}")
    return LawOnStates(rates.states, _expm_law(rates, init, t, average=False))


def _mean_occupation(rates: RateMatrix, init: Union[str, int, LawOnStates], T: float) -> np.ndarray:
    """Mean time-average occupation ``(1/T) v int_0^T expm(G s) ds`` over [0, T].

    ``(1/T) int_0^T expm(G s) ds = int_0^1 expm(G T u) du`` is the top-right
    block of ``expm([[G T, I], [0, 0]])`` (Van Loan 1978).  Its squarings
    leave the total within about 3e-15 of 1 (measured as in
    :func:`ctmc_marginal`), and dividing by the total removes that.
    """
    if not 0 < T < math.inf:  # also false for NaN
        raise ValueError(f"horizon must be positive and finite, got {T}")
    return _expm_law(rates, init, T, average=True)
