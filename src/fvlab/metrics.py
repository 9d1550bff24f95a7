"""Distances and statistics over laws on a finite site set.

Total variation here follows the sum-of-absolute-differences convention,
``tv(mu, nu) = sum_x |mu(x) - nu(x)|``, with range [0, 2].  Empirical
laws are plain frequency vectors with no half-width: a DKW band depends
on the sample count alone, so callers compute it.  Paths of measures
have no type here: ``Trajectory.occupancy_path`` returns plain arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

__all__ = [
    "LawOnStates",
    "exact_law",
    "empirical_law",
    "tv_distance",
]


@dataclass(frozen=True)
class LawOnStates:
    """A probability vector over a declared, ordered state set.

    ``kind`` is "exact" for analytically computed laws (sum within 1e-10
    of 1) or "empirical" for Monte Carlo frequencies (sum within 1e-12).
    """

    states: tuple[str, ...]
    probs: np.ndarray
    kind: str = "exact"

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        if probs.shape != (len(self.states),):
            raise ValueError("probability vector length must match state set")
        if np.any(probs < -1e-12):
            raise ValueError("negative probability entry")
        tol = 1e-10 if self.kind == "exact" else 1e-12
        if abs(float(probs.sum()) - 1.0) > tol:
            raise ValueError(f"probabilities sum to {probs.sum()}, not 1")

    def prob(self, state: str) -> float:
        return float(self.probs[self.states.index(state)])

    def as_dict(self) -> dict[str, float]:
        return {s: float(p) for s, p in zip(self.states, self.probs)}


def exact_law(states: Sequence[str], probs) -> LawOnStates:
    return LawOnStates(tuple(states), np.asarray(probs, dtype=float), kind="exact")


def empirical_law(samples: Iterable[Union[str, int]], states: Sequence[str]) -> LawOnStates:
    """Frequency vector of sampled sites.

    ``samples`` may contain state labels or integer indices into
    ``states``.
    """
    states = tuple(states)
    index = {s: i for i, s in enumerate(states)}
    counts = np.zeros(len(states), dtype=np.int64)
    total = 0
    for s in samples:
        i = s if isinstance(s, (int, np.integer)) else index[s]
        counts[i] += 1
        total += 1
    if total < 1:
        raise ValueError("empirical_law requires at least one sample")
    return LawOnStates(states, counts / total, kind="empirical")


def _tv(u: np.ndarray, v: np.ndarray) -> float:
    return float(np.abs(np.asarray(u, dtype=float) - np.asarray(v, dtype=float)).sum())


def tv_distance(mu: LawOnStates, nu: LawOnStates) -> float:
    """Total variation sum_x |mu(x) - nu(x)| in [0, 2]."""
    if mu.states != nu.states:
        raise ValueError(f"mismatched state sets: {mu.states} vs {nu.states}")
    return _tv(mu.probs, nu.probs)
