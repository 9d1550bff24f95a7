"""Shared fixtures and independent numerical oracles for the test suite.

The oracles here deliberately avoid the library's own algorithms:
``dense_expm`` uses plain scaling-and-squaring on the power series,
``brute_force_urn`` enumerates draw sequences with exact rationals,
``dense_committor`` assembles and solves the absorption system with a
dense LU factorization, and ``fv_absorption_law`` solves the full
n-particle system, mutation included, for the Dirac mass it ends in
(it takes only the composition ranking from the library), and
``duel_absorption`` solves the two-site birth-death chain for the
moments of its absorption time.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_banded

from fvlab import validate_model
from fvlab.committor import CompositionSpace


# ------------------------------------------------------------- oracles


def dense_expm(G: np.ndarray, t: float) -> np.ndarray:
    """expm(G t) by power series with scaling and squaring (oracle)."""
    A = np.asarray(G, dtype=float) * t
    norm = np.abs(A).sum(axis=1).max()
    squarings = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0 else 0
    A = A / (2.0**squarings)
    out = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, 40):
        term = term @ A / k
        out = out + term
        if np.abs(term).max() < 1e-18:
            break
    for _ in range(squarings):
        out = out @ out
    return out


def brute_force_urn(initial: tuple[int, ...], draws: int) -> dict[tuple[int, ...], Fraction]:
    """Exact urn law by enumerating every draw sequence (oracle)."""
    outcomes: dict[tuple[int, ...], Fraction] = {}

    def recurse(counts: tuple[int, ...], remaining: int, prob: Fraction) -> None:
        if remaining == 0:
            outcomes[counts] = outcomes.get(counts, Fraction(0)) + prob
            return
        total = sum(counts)
        for i, c in enumerate(counts):
            if c == 0:
                continue
            nxt = list(counts)
            nxt[i] += 1
            recurse(tuple(nxt), remaining - 1, prob * Fraction(c, total))

    recurse(tuple(initial), draws, Fraction(1))
    return outcomes


def dense_committor(weights, n: int) -> dict[tuple[int, ...], np.ndarray]:
    """Absorption probabilities by dense linear solve over compositions.

    Built independently of the library's sparse path: enumerates
    compositions with itertools, assembles the full transition system
    and solves it with numpy's dense solver.
    """
    d = len(weights)
    comps = [c for c in product(range(n + 1), repeat=d) if sum(c) == n]
    index = {c: i for i, c in enumerate(comps)}
    diracs = [tuple(n if i == j else 0 for i in range(d)) for j in range(d)]
    psi = np.zeros((len(comps), d))
    interior = [c for c in comps if c not in diracs]
    if interior:
        A = np.zeros((len(interior), len(interior)))
        B = np.zeros((len(interior), d))
        pos = {c: i for i, c in enumerate(interior)}
        for c, row in pos.items():
            total = 0.0
            for x in range(d):
                for y in range(d):
                    if x == y or c[x] == 0 or c[y] == 0:
                        continue
                    rate = c[x] * weights[x] * c[y] / (n - 1)
                    total += rate
                    nxt = list(c)
                    nxt[x] -= 1
                    nxt[y] += 1
                    nxt = tuple(nxt)
                    if nxt in pos:
                        A[row, pos[nxt]] += rate
                    else:
                        B[row, diracs.index(nxt)] += rate
            A[row, row] -= total
        sol = np.linalg.solve(A, -B)
        for c, row in pos.items():
            psi[index[c]] = sol[row]
    for j, dcomp in enumerate(diracs):
        psi[index[dcomp], j] = 1.0
    return {c: psi[i] for c, i in index.items()}


def duel_absorption(n: int, alpha: float, start: int, s: float) -> float:
    """``E exp(-s tau)`` for s > 0, or ``E tau`` for s = 0, where tau is the
    absorption time of n particles on two sites killed at rates 1 and
    ``alpha``, with no mutation, from ``start`` particles at the first
    site (oracle).

    The count k at the first site is a birth-death chain absorbed at 0
    and n: up at rate ``alpha k (n - k) / (n - 1)`` (a death at the second
    site that copies the first) and down at rate ``k (n - k) / (n - 1)``.
    First-step analysis gives one tridiagonal system over k = 1 .. n - 1,
    ``(up + down + s) x_k - up x_{k+1} - down x_{k-1} = b``, with b = 0
    and ``x_0 = x_n = 1`` for the transform, b = 1 and ``x_0 = x_n = 0``
    for the mean.
    """
    k = np.arange(1, n, dtype=float)
    down = k * (n - k) / (n - 1)
    up = alpha * down
    bands = np.zeros((3, n - 1))
    bands[0, 1:] = -up[:-1]  # above the diagonal
    bands[1] = up + down + s
    bands[2, :-1] = -down[1:]  # below it
    b = np.zeros(n - 1) if s > 0 else np.ones(n - 1)
    if s > 0:
        b[0] += down[0]
        b[-1] += up[-1]
    return float(solve_banded((1, 1), bands, b)[start - 1])


def fv_absorption_law(model, n: int, r: float, start: str) -> np.ndarray:
    """Law of the Dirac mass that the n-particle system started at Dirac
    ``start`` ends in, one entry per site (oracle).

    The full generator on compositions: mutation x -> y moves one particle
    at rate k_x q(x, y), and selection (a particle at x dies and copies one
    at y) at rate k_x lambda_r(x) k_y / (n - 1).  Selection leaves no
    occupied pair alone, so the absorbing compositions are the Dirac
    masses at sites without mutation.  The absorption problem is solved
    for the jump chain (each row divided by its exit rate), which stays
    well conditioned when killing rates span many orders.
    """
    d = model.num_states
    space = CompositionSpace(d, n)
    comps = space.array()
    lam = [model.killing_rate(r, x) for x in range(d)]
    q = np.zeros((d, d))
    for i, j, rate in model.mutation:
        q[i, j] = rate
    rows, cols, vals = [], [], []
    for x in range(d):
        for y in range(d):
            if x == y:
                continue
            rate = comps[:, x] * (q[x, y] + lam[x] * comps[:, y] / (n - 1))
            live = np.flatnonzero(rate > 0)
            nxt = comps[live]
            nxt[:, x] -= 1
            nxt[:, y] += 1
            rows.append(live)
            cols.append(space.ranks(nxt))
            vals.append(rate[live])
    rows, cols, vals = (np.concatenate(a) for a in (rows, cols, vals))
    exit_rate = np.bincount(rows, weights=vals, minlength=space.size)
    P = sp.csr_matrix((vals / exit_rate[rows], (rows, cols)), shape=(space.size, space.size))
    transient, absorbing = np.flatnonzero(exit_rate > 0), np.flatnonzero(exit_rate == 0)
    A = (sp.identity(len(transient)) - P[transient][:, transient]).tocsc()
    h = spla.splu(A).solve(P[transient][:, absorbing].toarray())
    dirac = np.zeros((1, d), dtype=np.int64)
    dirac[0, model.state_index(start)] = n
    law = np.zeros(d)
    law[comps[absorbing].argmax(axis=1)] = h[np.searchsorted(transient, space.ranks(dirac)[0])]
    return law


# ------------------------------------------------------------- fixtures


def cycle_model_config(c=(1.0, 2.0, 4.0), beta=(1, 1, 1), q=1.0) -> dict:
    states = ["a", "b", "c"]
    return {
        "states": states,
        "mutation": [
            {"from": "a", "to": "b", "rate": q},
            {"from": "b", "to": "c", "rate": q},
            {"from": "c", "to": "a", "rate": q},
        ],
        "killing": {
            "kind": "power",
            "c": dict(zip(states, c)),
            "beta": dict(zip(states, beta)),
        },
    }


def two_site_config(alpha: float = 2.0, beta=(1, 1)) -> dict:
    return {
        "states": ["x", "y"],
        "mutation": [],
        "killing": {
            "kind": "power",
            "c": {"x": 1.0, "y": alpha},
            "beta": {"x": beta[0], "y": beta[1]},
        },
    }


def overflowing_totals_config() -> dict:
    """Two sites mutating both ways at rate 1 with power-law killing c =
    1e307 and beta = 1: at r = 10 each killing rate is 1e308, finite, but
    the selection total ``k * lam * (n - k)`` at n = 3 is not."""
    return {
        "states": ["x", "y"],
        "mutation": [{"from": "x", "to": "y", "rate": 1.0}, {"from": "y", "to": "x", "rate": 1.0}],
        "killing": {"kind": "power", "c": {"x": 1e307, "y": 1e307}, "beta": {"x": 1, "y": 1}},
    }


@pytest.fixture
def cycle_model():
    return validate_model(cycle_model_config())


@pytest.fixture
def two_site():
    return validate_model(two_site_config())
