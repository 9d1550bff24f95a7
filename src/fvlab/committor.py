"""Absorption probabilities of the selection-only dynamics.

Under selection alone, every Dirac mass is absorbing, and the probability
that the dynamics started from a configuration ``xi`` ends in the Dirac
mass at site ``x`` is the committor ``psi_x(xi)``.  With two occupied
sites this reduces to a gambler's-ruin birth-death chain on the count at
one site, solved in closed form.  For arbitrary supports the committors
solve a sparse Dirichlet problem over the full composition space, which
serves as an independent oracle for the closed forms.  The space is
held as one integer array of compositions in colex rank order, and the
generator is assembled from it with one array pass per move.  Since
selection never refills an empty site, the problem is solved face by
face (a face being the compositions of one support), smallest support
first, by a sparse LU without pivoting.

Only rate *ratios* enter these probabilities, so weight vectors may be
rescaled freely.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from math import comb
from typing import Sequence, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .model import _site_index

__all__ = [
    "gamblers_ruin_committor",
    "invasion_probability",
    "committor_numeric",
]

# Treat ratios within this distance of 1 as exactly balanced; the closed
# forms are 0/0 there and the limit branch is exact.
_ALPHA_TIE = 1e-12
_SPACE_CAP = 200_000  # committor_numeric refuses larger composition spaces


def gamblers_ruin_committor(n: int, alpha: float) -> np.ndarray:
    """Hitting probabilities g(k) = P_k(reach n before 0), k = 0..n.

    The underlying birth-death chain moves k -> k+1 at rate
    proportional to ``alpha`` and k -> k-1 at rate proportional to 1,
    so ``g(k) = (alpha**-k - 1) / (alpha**-n - 1)`` for ``alpha != 1``
    and ``g(k) = k/n`` at ``alpha = 1``.  Evaluation is overflow-safe
    for large ``n`` and extreme ``alpha``.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not (alpha > 0) or math.isinf(alpha):
        raise ValueError(f"alpha must be a finite positive ratio, got {alpha}")
    k = np.arange(n + 1, dtype=float)
    if abs(alpha - 1.0) <= _ALPHA_TIE:
        return k / n
    log_a = math.log(alpha)
    if alpha > 1.0:
        # exponents are negative, expm1 keeps precision near alpha = 1
        g = np.expm1(-k * log_a) / math.expm1(-n * log_a)
    else:
        # alpha < 1: all powers lie in (0, 1], underflow is benign
        an = math.exp(n * log_a)
        g = (np.exp((n - k) * log_a) - an) / (1.0 - an)
    g[0], g[n] = 0.0, 1.0  # boundary values are exact; avoid 1-ulp drift
    return g


def invasion_probability(n: int, alpha: float) -> float:
    """Probability that a single particle at a fresh site takes over.

    Start with n-1 particles at site x and one at site y, and let
    ``alpha = lambda(y)/lambda(x)``.  The lone particle's line fixates
    with probability ``(alpha - 1)/(alpha**n - 1)`` (``1/n`` at
    ``alpha = 1``).  Decreasing in ``alpha``: a higher death rate at y
    makes invasion harder.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not (alpha > 0) or math.isinf(alpha):
        raise ValueError(f"alpha must be a finite positive ratio, got {alpha}")
    if abs(alpha - 1.0) <= _ALPHA_TIE:
        return 1.0 / n
    log_a = math.log(alpha)
    if n * log_a > 700.0:
        # alpha**n overflows; factor out the dominant power
        return math.exp((1.0 - n) * log_a) * math.expm1(-log_a) / math.expm1(-n * log_a)
    return math.expm1(log_a) / math.expm1(n * log_a)


class CompositionSpace:
    """All count vectors of total n over d sites, colexicographically ranked.

    Colexicographic order compares the last differing coordinate, so the
    layout is deterministic and a composition's rank follows from a
    table of binomials with no search.  The space is handled only as
    arrays: :meth:`array` lists every composition in rank order and
    :meth:`ranks` maps rows of counts back to their ranks.
    """

    def __init__(self, d: int, n: int):
        if d < 1 or n < 0:
            raise ValueError(f"need d >= 1 sites and n >= 0, got d={d}, n={n}")
        self.d = d
        self.n = n
        self.size = comb(n + d - 1, d - 1)

    def array(self) -> np.ndarray:
        """Every composition as a ``(size, d)`` int64 array, row i of rank i."""
        d, n, size = self.d, self.n, self.size
        # stars and bars: bar positions in lexicographic order give the parts
        # in lexicographic order, so parts read right to left are in colex order
        combos = itertools.chain.from_iterable(itertools.combinations(range(n + d - 1), d - 1))
        bars = np.fromiter(combos, dtype=np.int64, count=size * (d - 1)).reshape(size, d - 1)
        edges = np.hstack([np.full((size, 1), n + d - 1), bars[:, ::-1], np.full((size, 1), -1)])
        return edges[:, :-1] - edges[:, 1:] - 1

    def ranks(self, counts: np.ndarray | Sequence[Sequence[int]]) -> np.ndarray:
        """Ranks of the rows of an ``(m, d)`` integer array of compositions."""
        c = np.asarray(counts)
        if (c.ndim != 2 or c.shape[1] != self.d or not np.issubdtype(c.dtype, np.integer)
                or (c < 0).any() or (c.sum(axis=1) != self.n).any()):
            raise ValueError(f"not compositions of {self.n} into {self.d} parts: {counts!r}")
        if self.size > np.iinfo(np.int64).max:
            raise OverflowError(f"{self.size} compositions do not fit int64 ranks")
        # binom[t, p - 1] = C(t + p - 1, p - 1), the compositions of t <= n
        # into p parts; the largest entry is size, so none overflows
        binom = np.ones((self.n + 1, self.d), dtype=np.int64)
        for p in range(1, self.d):
            binom[:, p] = binom[:, p - 1].cumsum()
        idx, total = np.zeros(len(c), dtype=np.int64), self.n
        for p in range(self.d, 1, -1):
            # compositions of `total` into p parts whose last coordinate is smaller
            left = total - c[:, p - 1]
            idx += binom[total, p - 1] - binom[left, p - 1]
            total = left
        return idx


@dataclass(frozen=True)
class CommittorTable:
    """Committor values psi_x(xi) for every composition xi and target x.

    ``psi[space.ranks([xi])[0], j]`` is the absorption probability at
    the Dirac mass on ``states[j]`` when starting from ``xi``, so
    ``psi[space.ranks(rows)]`` looks up many starts at once.  Rows sum
    to 1 and Dirac rows are unit vectors, both up to the solver
    tolerance.
    """

    states: tuple[str, ...]
    n: int
    weights: tuple[float, ...]
    space: CompositionSpace
    psi: np.ndarray

    def value(self, counts: Sequence[int], target: Union[str, int]) -> float:
        return float(self.psi[self.space.ranks([counts])[0], _site_index(target, self.states)])

    def row(self, counts: Sequence[int]) -> np.ndarray:
        return self.psi[self.space.ranks([counts])[0]].copy()


def _selection_generator(counts: np.ndarray, space: CompositionSpace,
                         weights: Sequence[float]) -> sp.csr_matrix:
    """Generator of the selection-only chain; ``counts`` is ``space.array()``.

    Assembled with one array pass per move x -> y, in (x, y) order, and
    one ``ranks`` call over the targets of every move: ``ranks`` loops
    over the d sites in Python, so a call per move would take d**3 steps.
    """
    n, d = space.n, space.d
    unit, everywhere, inv_nm1 = np.eye(d, dtype=np.int64), np.arange(space.size), 1.0 / (n - 1)
    # Exit rates accumulate move by move in (x, y) order; a move out of
    # or into an empty site adds 0.0, which leaves the sum unchanged.
    exit_rate = np.zeros(space.size)
    rows, targets, rates = [everywhere], [], []
    for x, y in itertools.permutations(range(d), 2):
        rate = counts[:, x] * weights[x] * counts[:, y] * inv_nm1
        exit_rate += rate
        live = np.flatnonzero(counts[:, x] * counts[:, y])
        rows.append(live)
        targets.append(counts[live] - unit[x] + unit[y])
        rates.append(rate[live])
    cols = np.concatenate([everywhere, space.ranks(np.concatenate(targets))])
    data = np.concatenate([-exit_rate, *rates])
    return sp.csr_matrix((data, (np.concatenate(rows), cols)), shape=(space.size,) * 2)


def committor_numeric(
    weights: Sequence[float], n: int, *, states: Sequence[str] | None = None
) -> CommittorTable:
    """Solve the selection-only Dirichlet problem over all compositions.

    Parameters
    ----------
    weights : positive per-site rate weights gamma(x)
        Only ratios matter; any positive rescaling yields the same table.
    n : particle count, n >= 2.
    states : optional labels for the support (defaults to s0, s1, ...).

    From a count vector ``xi`` the move taking one particle from x to y
    occurs at rate ``xi(x) * gamma(x) * xi(y) / (n - 1)``, the engine's
    rate of a death at x replaced from y; committors are harmonic for
    these rates with Dirac boundary values.

    Selection never refills an empty site, so a move stays on the face
    (the set of occupied sites) of its start or leaves it for a smaller
    face.  The faces are therefore solved in order of increasing size,
    from the Dirac rows up, against their moves into the faces already
    solved.  Faces of one size never move into each other, so their
    blocks of the generator form one block-diagonal system, factored
    at once.  The factorization does not pivot.  That is sound: every
    face can be left, so its block is a nonsingular M-matrix, whose
    Schur complements stay M-matrices with positive diagonals.  The block
    is also reversible, with ``pi(xi) = prod_i gamma_i**-xi_i / xi_i`` on
    the face, so it is similar to a symmetric positive definite matrix
    and symmetric elimination in a fill-reducing order is a Cholesky
    factorization in disguise.
    """
    gamma = [float(w) for w in weights]
    d = len(gamma)
    if d < 2:
        raise ValueError("need at least two support sites")
    if any(not (g > 0) or math.isinf(g) for g in gamma):
        raise ValueError(f"weights must be positive and finite, got {gamma}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if states is None:
        states = tuple(f"s{i}" for i in range(d))
    else:
        states = tuple(states)
        if len(states) != d:
            raise ValueError("one label per weight required")

    space = CompositionSpace(d, n)
    if space.size > _SPACE_CAP:
        raise ValueError(f"composition space has {space.size} states, above the cap {_SPACE_CAP}")

    # Only ratios matter, and the residual check below is absolute: solve
    # on weights scaled to a maximum of 1 so it holds at any rate scale.
    top = max(gamma)
    counts = space.array()
    G = _selection_generator(counts, space, [g / top for g in gamma])

    # Dirac rows are unit vectors; the faces of k occupied sites are solved
    # after the smaller ones their moves lead into, with psi still 0 on
    # the rows not yet solved.
    psi = np.zeros((space.size, d))
    psi[space.ranks(n * np.eye(d, dtype=np.int64)), np.arange(d)] = 1.0
    face_size = (counts > 0).sum(axis=1)
    resid = 0.0
    for k in range(2, min(d, n) + 1):
        on = np.flatnonzero(face_size == k)
        rows = G[on]
        rhs = rows @ psi
        A = (-rows[:, on]).tocsc()
        lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
        psi[on] = lu.solve(rhs)
        resid = max(resid, np.abs(A @ psi[on] - rhs).max())

    if resid > 1e-9:
        raise RuntimeError(f"committor solve residual {resid:.3e} above tolerance")
    if np.abs(psi.sum(axis=1) - 1.0).max() > 1e-9:
        raise RuntimeError("committor rows do not sum to 1 within tolerance")
    if psi.min() < -1e-9 or psi.max() > 1 + 1e-9:
        raise RuntimeError("committor values outside [0, 1] beyond tolerance")

    return CommittorTable(states=states, n=n, weights=tuple(gamma), space=space, psi=psi)
