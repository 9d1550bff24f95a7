"""Distances and statistics over laws on a finite site set.

Total variation here follows the sum-of-absolute-differences convention,
``tv(mu, nu) = sum_x |mu(x) - nu(x)|``, with range [0, 2].  Empirical laws
are plain frequency vectors with no half-width: a DKW band depends on the
sample count alone, so callers compute it.  ``empirical_law`` counts an
integer index array directly and rejects an index out of range.  Paths of
measures have no type here: ``Trajectory.occupancy_path`` returns plain arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .model import _site_index

__all__ = [
    "LawOnStates",
    "empirical_law",
    "tv_distance",
]


@dataclass(frozen=True)
class LawOnStates:
    """A probability vector over a declared, ordered state set.

    ``states`` is stored as a tuple and ``probs`` as a read-only float
    array, which must be finite, nonnegative and sum to 1 within 1e-10,
    whether the law is exact or a Monte Carlo frequency vector.
    """

    states: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        probs.setflags(write=False)
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "probs", probs)
        if probs.shape != (len(self.states),):
            raise ValueError("probability vector length must match state set")
        if not np.all(np.isfinite(probs)):
            raise ValueError(f"probabilities must be finite, got {probs}")
        if np.any(probs < -1e-12):
            raise ValueError("negative probability entry")
        if abs(float(probs.sum()) - 1.0) > 1e-10:
            raise ValueError(f"probabilities sum to {probs.sum()}, not 1")

    def prob(self, state: Union[str, int]) -> float:
        return float(self.probs[_site_index(state, self.states)])

    def as_dict(self) -> dict[str, float]:
        return {s: float(p) for s, p in zip(self.states, self.probs)}


def empirical_law(samples: Iterable[Union[str, int]], states: Sequence[str]) -> LawOnStates:
    """Frequency vector of sampled sites: state labels or integer indices
    into ``states``.  Integer arrays and lists are counted directly with
    ``np.bincount``; an index outside [0, len(states)) raises ValueError.
    """
    states = tuple(states)
    samples = samples if isinstance(samples, np.ndarray) else list(samples)
    idx = np.asarray(samples)
    if idx.dtype.kind not in "iu":  # labels, possibly mixed with indices
        idx = np.array([_site_index(s, states) for s in samples], dtype=np.int64)
    if idx.size < 1:
        raise ValueError("empirical_law requires at least one sample")
    lo, hi = idx.min(), idx.max()
    if lo < 0 or hi >= len(states):
        raise ValueError(f"sample index {lo if lo < 0 else hi} outside [0, {len(states)})")
    counts = np.bincount(idx.astype(np.intp, copy=False), minlength=len(states))
    return LawOnStates(states, counts / idx.size)


def tv_distance(mu: LawOnStates, nu: LawOnStates) -> float:
    """Total variation sum_x |mu(x) - nu(x)| in [0, 2]."""
    if mu.states != nu.states:
        raise ValueError(f"mismatched state sets: {mu.states} vs {nu.states}")
    return float(np.abs(mu.probs - nu.probs).sum())
