"""Absorption probabilities of the selection-only dynamics.

Under selection alone, every Dirac mass is absorbing, and the probability
that the dynamics started from a configuration ``xi`` ends in the Dirac
mass at site ``x`` is the committor ``psi_x(xi)``.  With two occupied
sites this reduces to a gambler's-ruin birth-death chain on the count at
one site, solved in closed form.  For arbitrary supports the committors
solve a sparse Dirichlet problem over the full composition space, which
serves as an independent oracle for the closed forms.

Only rate *ratios* enter these probabilities, so weight vectors may be
rescaled freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb
from typing import Iterator, Sequence, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "gamblers_ruin_committor",
    "invasion_probability",
    "committor_two_site",
    "CompositionSpace",
    "CommittorTable",
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


def committor_two_site(n: int, alpha: float) -> tuple[float, float]:
    """Closed-form committors toward x on a two-site support {x, y}.

    ``alpha`` is the rate ratio ``lambda(y)/lambda(x)``.  Returns the
    pair ``(psi_x with counts (n-1, 1), psi_x with counts (1, n-1))``,
    i.e. x holding a majority of n-1 versus x reduced to a single
    particle.  At ``alpha = 1`` the pair is ``((n-1)/n, 1/n)``.
    """
    g = gamblers_ruin_committor(n, alpha)
    return float(g[n - 1]), float(g[1])


class CompositionSpace:
    """All count vectors of total n over d sites, colexicographically ranked.

    Colexicographic order compares the last differing coordinate, so the
    layout is deterministic and ranking is a perfect O(d + n) hash with
    no table lookups.  Iteration yields the compositions in rank order.
    """

    def __init__(self, d: int, n: int):
        if d < 1 or n < 0:
            raise ValueError(f"need d >= 1 sites and n >= 0, got d={d}, n={n}")
        self.d = d
        self.n = n
        self.size = comb(n + d - 1, d - 1)

    def rank(self, counts: Sequence[int]) -> int:
        if len(counts) != self.d or sum(counts) != self.n or min(counts, default=0) < 0:
            raise ValueError(f"not a composition of {self.n} into {self.d} parts: {counts}")
        idx = 0
        total = self.n
        for p in range(self.d, 1, -1):
            v = counts[p - 1]
            # compositions of `total` into p parts whose last coordinate is < v
            idx += comb(total + p - 1, p - 1) - comb(total - v + p - 1, p - 1)
            total -= v
        return idx

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        def gen(total: int, parts: int):
            if parts == 1:
                yield (total,)
                return
            for last in range(total + 1):
                for head in gen(total - last, parts - 1):
                    yield head + (last,)

        return gen(self.n, self.d)


@dataclass(frozen=True)
class CommittorTable:
    """Committor values psi_x(xi) for every composition xi and target x.

    ``psi[space.rank(xi), j]`` is the absorption probability at the
    Dirac mass on ``states[j]`` when starting from ``xi``.  Rows sum to
    1 and Dirac rows are unit vectors, both up to the solver tolerance.
    """

    states: tuple[str, ...]
    n: int
    weights: tuple[float, ...]
    space: CompositionSpace
    psi: np.ndarray

    def value(self, counts: Sequence[int], target: Union[str, int]) -> float:
        j = self.states.index(target) if isinstance(target, str) else target
        return float(self.psi[self.space.rank(counts), j])

    def row(self, counts: Sequence[int]) -> np.ndarray:
        return self.psi[self.space.rank(counts)].copy()


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

    From a composition ``xi`` the move taking one particle from x to y
    occurs at rate ``(n^2/(n-1)) * xi(x) * gamma(x) * xi(y)``; committors
    are harmonic for these rates with Dirac boundary values, and the
    sparse system over the interior compositions is solved by a direct
    LU factorization.
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
        raise ValueError(
            f"composition space has {space.size} states, above the cap {_SPACE_CAP}"
        )

    # Only ratios matter, and the residual check below is absolute: solve
    # on weights scaled to a maximum of 1 so it holds at any rate scale.
    top = max(gamma)
    scaled = [g / top for g in gamma]
    dirac_rank = {space.rank(tuple(n if i == j else 0 for i in range(d))): j for j in range(d)}
    compositions = list(space)  # iteration order is rank order
    interior = [idx for idx in range(space.size) if idx not in dirac_rank]
    row_of = {idx: row for row, idx in enumerate(interior)}
    n_int = len(interior)

    inv_nm1 = 1.0 / (n - 1)
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    B = np.zeros((n_int, d))
    for row, idx in enumerate(interior):
        counts = compositions[idx]
        total = 0.0
        for x in range(d):
            kx = counts[x]
            if kx == 0:
                continue
            for y in range(d):
                ky = counts[y]
                if y == x or ky == 0:
                    continue
                rate = kx * scaled[x] * ky * inv_nm1
                total += rate
                moved = list(counts)
                moved[x] -= 1
                moved[y] += 1
                tgt = space.rank(moved)
                if tgt in dirac_rank:
                    B[row, dirac_rank[tgt]] -= rate
                else:
                    rows.append(row)
                    cols.append(row_of[tgt])
                    data.append(rate)
        rows.append(row)
        cols.append(row)
        data.append(-total)

    A = sp.csr_matrix((data, (rows, cols)), shape=(n_int, n_int))
    X = spla.splu(A.tocsc()).solve(B)

    resid = np.abs(A @ X - B).max() if n_int else 0.0
    if resid > 1e-9:
        raise RuntimeError(f"committor solve residual {resid:.3e} above tolerance")

    psi = np.zeros((space.size, d))
    for idx, j in dirac_rank.items():
        psi[idx, j] = 1.0
    psi[interior, :] = X

    row_sums = psi.sum(axis=1)
    if np.abs(row_sums - 1.0).max() > 1e-9:
        raise RuntimeError("committor rows do not sum to 1 within tolerance")
    if psi.min() < -1e-9 or psi.max() > 1 + 1e-9:
        raise RuntimeError("committor values outside [0, 1] beyond tolerance")

    return CommittorTable(states=states, n=n, weights=tuple(gamma), space=space, psi=psi)
