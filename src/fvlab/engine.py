"""Exact event-driven simulation of the interacting particle system.

n particles sit on the model's sites.  Each particle mutates along the
kernel ``q`` independently, and dies at its site's killing rate, being
replaced instantly by a copy of a uniformly chosen survivor.  Because
particles are exchangeable, the per-site count vector is a sufficient
state, and the direct (total-rate) method runs on per-site aggregated
clocks at O(|support|) cost per event:

* mutation out of x: rate ``k_x * sum_y q(x, y)``;
* a count-changing death at x: rate ``k_x * lambda_r(x) * (n - k_x)/(n - 1)``,
  the survivor being chosen at another site y with probability
  ``k_y / (n - k_x)``.

Deaths whose replacement lands back on the killed particle's own site do
not change the state; they are removed analytically by the
``(n - k_x)/(n - 1)`` thinning factor and never generated, which is what
keeps the event count bounded as killing rates grow: a count-changing
death at rate ``lambda`` is always followed, within O(1/lambda) time, by
the short duel that resolves it.

Every replica consumes one private RNG stream with a fixed draw
pattern, so trajectories are bit-reproducible for a given (model, seed,
parameters).  Each step reads one standard exponential ``e``, its
waiting time being ``e / total``, and two uniforms, for the event
category and the event target.  They are drawn a refill at a time: for
the next S steps, the draws of ``rng.standard_exponential(S)`` and then
``rng.random(2 * S)``, the category uniforms first, with S = 21 at the
start and doubling at each refill up to 1365.  The first refill too is
drawn by the step that needs it, so a start with no rate draws nothing.
The exponentials come from numpy's ziggurat sampler, computed in the
generator's own code, so a waiting time is one correctly rounded
division wherever it is computed: in the scalar loop or in a numpy block.

The one event loop, :func:`_run_replicas`, takes a chunk's streams and
runs one replica per stream.  What every replica shares is prepared
once per call: n and 1/(n-1), the stops, the event cap and the draw
buffer, which each refill writes into with ``out=``.  A replica resets
only its own state (counts, time, draw position, event count, pending
stops) and appends its results to flat lists, which the caller turns
into numpy arrays once per chunk.  A replica reads nothing but its
stream and that state, so its results are bit for bit those of its
stream run alone, whichever replicas share its chunk.
:func:`simulate_fv` and :func:`simulate_selection_absorption` are the
one-stream case, with the one stop T and ``math.inf``.  The loop takes
its dynamics from the model alone: selection-only runs, whose
absorption gives committors and the initial-condensation law, run it on
``model.without_mutation``, the model with ``q = 0``.

A recorded path is four flat columns, one entry per event: its time,
source, target and kind.  The loop appends to them and builds no object
per event; a duel block extends them from its arrays.
``Trajectory.occupancy_path`` turns them into two arrays: the event
times from 0 and the normalized counts holding from each.
:func:`_path_stats` reduces the concatenated columns of many replicas
to each one's Dirac-distance integral and time-average occupation in
one numpy pass, one ``np.add.reduceat`` per statistic.

Fast selection pulls the particles into one condensate, so a replica
spends almost all its events at a few count vectors: Dirac masses and
two-site splits.  The generic step therefore reads its rates from a
record per count vector, built the first time the loop meets it by
:func:`_rates`, the one place the rates are computed: the mutation and
selection totals, and each occupied site's mutation and death terms in
site order, the very floats the totals were summed from, so
subtracting them in turn takes the same decisions as recomputing them.
The records depend on (model, r) and the particle count only, so the
process keeps them with the killing rates at r in one memo,
:func:`_kernel`, of the ``_KERNELS`` (model, r, n) used last; a model is
immutable and hashed by identity, and never pickled with its kernel.  A
kernel's table is emptied when it holds ``_STATES`` records; a record
lost either way is rebuilt equal, so this bounds memory and changes no
result.

Under fast selection almost every event is a step of a two-site duel:
a mutant site {a, b} competing with the site it left until one of them
dies out.  Whenever the support has exactly two sites (its record holds
the pair's tables, :func:`_rates` at each split) the loop steps the
count at a directly.  The tables depend on n and the pair's rates
alone, so the process keeps the 64 it used last by those numbers, in
:func:`_duel`: a model unpickled in a pool worker for each chunk finds
its pairs' tables built.
This path is the generic step specialized, not an approximation: it
reads the same draws from the same buffer positions and refills the
buffer at the same points.  Where the generic step multiplies its
category uniform u by the total rate and compares, the duel step
compares u itself with two thresholds per split: the least doubles at
which the generic step's own float expressions stop deciding a mutation
and a death at a.  Rounding is monotone in u, so the comparisons decide
exactly as the expressions do (the inverse-transform view of a discrete
draw, Devroye 1986, ch. 2-3), and time, counts, event count and recorded
events are bit-identical to the generic loop's for every input.
Stops and the event cap are the generic step's alone: a duel step that
is a mutation at a split, whose waiting time crosses the next stop, or
that would reach the cap is handed back to the generic step at the same
buffer position, which takes it from the same draws.  A duel that ends
in a Dirac mass goes on to the condensate's next event, its own
mutation, and when that mutation goes back into the pair it is a duel
step too: it takes the generic step's expressions (the waiting time
over the Dirac record's total ``n * exit``, the same target search) and
starts the new duel.  A mutation to a third site, a Dirac site with no
mutation exit, a crossed stop and the cap step go to the generic step
as above.  Other supports of one site, and those of three or more, take
the generic step.

A duel that outlasts its first 32 scalar steps advances in numpy
blocks, each one scalar step apart and each reaching to the end of the
refill or to the step before the event cap, whichever comes first.
Inside a duel a count-changing death is at a with probability
``lambda_a / (lambda_a + lambda_b)`` at every split, so a block guesses
each step's direction from its category uniform alone, builds the count
path by cumulative sum, gathers the two thresholds along it and reads
each step's decision from them.  It keeps the steps before the first
one whose decision differs from the guess, or that is a mutation or at
a split with no rate left, and times them as the scalar step's own
sequential sum, cut before the first time past the next stop.  Where
fewer than 128 steps are left before the refill or the cap, scalar
steps take them instead.  The scalar step after a block takes whatever
ended it (the mismatched step, the refill) or hands it on (the
mutation, the stop, the cap), so the block
changes the cost of a long duel and nothing else.

One run gives the state at several times: the loop's ``stops``, an
experiment's time points, record the counts and the events so far at
each of them.  The last stop is the horizon (``math.inf`` runs to
absorption), so a replica's last snapshot is its final state.  The loop
treats the next stop as its horizon; a waiting time that crosses it is,
by the memoryless property, still the time to the next event, so the
snapshot is taken and the same waiting time is kept.  No draw is spent,
and the per-event path has no added branch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .model import Model, _integers, _site_index

__all__ = [
    "EmpiricalMeasure",
    "Trajectory",
    "EventCapError",
    "simulate_fv",
    "simulate_selection_absorption",
]

DEFAULT_EVENT_CAP = 10**7  # over 200x the most events any acceptance or benchmark replica takes
_FIRST = 21  # steps drawn by a replica's first refill
_BLOCK = 1365  # most steps drawn per refill: their exponentials, then their uniforms
_DUEL_SCALAR = 32  # scalar steps of a duel before its first numpy block, and after each condensate step
_DUEL_BLOCK_MIN = 128  # fewest steps left before the refill or the cap for a duel to run a block
_NEAR = np.arange(-4, 5)[:, None, None]  # offsets, in doubles, at which duel thresholds are first sought
_TWO = np.float64(2.0).view(np.int64)  # the bit pattern of 2.0, above every uniform
_STATES = 4096  # most count vectors a kernel keeps before it forgets them all
_KERNELS = 8  # most (model, r, n) kernels a process keeps


class EventCapError(RuntimeError):
    """A replica exceeded its hard event cap (diagnostic, not a result).

    ``replica`` is the flat replica index when an experiment run set it.
    ``args`` are the constructor's, so the error pickles out of a worker.
    """

    def __init__(self, cap: int, time: float, counts: Sequence[int]):
        super().__init__(cap, time, tuple(counts))
        self.cap = cap
        self.time = time
        self.counts = tuple(counts)
        self.replica: int | None = None

    def __str__(self) -> str:
        where = "" if self.replica is None else f" in replica {self.replica}"
        return f"event cap {self.cap} exceeded{where} at t={self.time:.6g} with counts {self.counts}"


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Particle counts per site, any sequence of Python or numpy integers
    (not floats or bools), stored as a tuple of ints; the normalized vector is the measure."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(_integers(self.counts, "counts")))
        if any(c < 0 for c in self.counts):
            raise ValueError(f"negative count in {self.counts}")
        if self.n < 2:
            raise ValueError("at least two particles required")

    @classmethod
    def dirac(cls, num_sites: int, site: int, n: int) -> "EmpiricalMeasure":
        counts = [0] * num_sites
        counts[_site_index(site, range(num_sites))] = n
        return cls(tuple(counts))

    @property
    def n(self) -> int:
        return sum(self.counts)


@dataclass
class Trajectory:
    """A realized path: initial counts plus time-ordered recorded events.

    Each event moves exactly one particle (source count -1, target
    count +1), so the path of measures is reconstructed by replay.
    ``columns`` holds the recorded events as four lists of equal length,
    ``(times, sources, targets, kinds)``: sites are indices into the
    model's states, and a kind is "mutation" (the particle jumped along
    the kernel) or "selection" (a particle died at source and a survivor
    at target was duplicated; same-site selections are never recorded).
    ``final_counts`` are the counts at the horizon.  ``event_count``
    counts the generated events even when recording was turned off
    (columns empty).
    """

    initial: EmpiricalMeasure
    columns: tuple[list[float], list[int], list[int], list[str]]
    horizon: float
    final_counts: tuple[int, ...]
    event_count: int = 0

    def occupancy_path(self) -> tuple[np.ndarray, np.ndarray]:
        """``(times, values)``: ``values[i]``, the normalized counts, holds on
        ``[times[i], times[i+1])`` (``times[0] = 0``), the last row up to the horizon.
        """
        times, counts, _ = _count_paths(*self.columns[:3], [len(self.columns[0])], self.initial.counts)
        return times, counts / self.initial.n

    def max_mass_integral(self) -> float:
        """Time integral of ``2 * (1 - max_x pi_t(x))`` over [0, horizon].

        This is the integral of the total-variation distance from the
        path to its nearest Dirac mass at each instant; zero iff the
        path stays a Dirac.
        """
        return _path_stats(*self.columns[:3], [len(self.columns[0])], self.initial.counts, self.horizon)[0][0]


def _count_paths(times, sources, targets, rows, initial):
    """The count paths of replicas whose event columns are concatenated.

    Replica i holds ``rows[i]`` events and starts from ``initial``.  Its
    path takes ``rows[i] + 1`` rows of the result: time 0 with the
    initial counts, then one row per event, at its time with the counts
    after it.  Returns ``(times, counts, starts)``: the row times, the
    int64 counts, and each replica's first row.
    """
    m = np.asarray(rows, dtype=np.int64)
    starts = np.zeros(len(m), dtype=np.int64)
    np.cumsum(m[:-1] + 1, out=starts[1:])
    n_rows = int(m.sum()) + len(m)
    ev_rows = np.delete(np.arange(n_rows), starts)
    path_times = np.zeros(n_rows)
    path_times[ev_rows] = np.asarray(times, dtype=np.float64)
    counts = np.zeros((n_rows, len(initial)), dtype=np.int64)
    counts[ev_rows, np.asarray(sources, dtype=np.intp)] = -1  # a source is never its event's target
    counts[ev_rows, np.asarray(targets, dtype=np.intp)] = 1
    counts.cumsum(axis=0, out=counts)
    # a replica's first row holds the events of the replicas before it
    counts -= np.repeat(counts[starts] - np.asarray(initial, dtype=np.int64), m + 1, axis=0)
    return path_times, counts, starts


def _path_stats(times, sources, targets, rows, initial, horizon):
    """Each replica's Dirac-distance integral and time-average occupation
    over ``[0, horizon]``, from the concatenated event columns of
    :func:`_count_paths`.

    The paths are built for all replicas at once, and each statistic is
    one ``np.add.reduceat`` at the replicas' first rows, which sums each
    replica's rows apart (its first row, then a pairwise sum of the
    rest): a replica's results are bit for bit those of its path alone,
    whatever the other replicas and the BLAS kernel.  Returns
    ``(integrals, occupation)``: a list of floats and a (replicas, sites)
    array.
    """
    path_times, counts, starts = _count_paths(times, sources, targets, rows, initial)
    values = counts / sum(initial)
    seg = np.empty(len(path_times))
    np.subtract(path_times[1:], path_times[:-1], out=seg[:-1])
    last = np.append(starts[1:], len(seg)) - 1
    seg[last] = horizon - path_times[last]  # each replica's last row holds to the horizon
    weights = 2.0 * (1.0 - values.max(axis=1))
    integrals = np.add.reduceat(seg * weights, starts).tolist()
    occupation = np.add.reduceat(seg[:, None] * values, starts, axis=0) / horizon
    return integrals, occupation


class AbsorptionResult(NamedTuple):
    """Absorption time and site of the selection-only dynamics."""

    tau: float
    site: str
    event_count: int


@functools.lru_cache(maxsize=_KERNELS)
def _kernel(model: Model, r: float, n: int):
    """The event loop's kernel for n particles at intensity r: ``(lam,
    states, place)``, the killing rates as Python floats (whatever the
    type of r, so an int, float or numpy r of one value share a kernel),
    the :func:`_state` records met so far, and each site's place value in
    a record's key, the number whose base-(n + 1) digits are the counts.

    A run meets one kernel per point, and a pool worker a new one per
    chunk, for the model it unpickled; the memo holds them strongly, so it
    bounds a process to ``_KERNELS`` tables of ``_STATES`` records at most.
    """
    lam = [model.killing_rate(r, i) for i in range(model.num_states)]
    return lam, {}, [(n + 1) ** i for i in range(len(lam))]


def _rates(counts, n, inv_nm1, lam, mut_exit):
    """The generic step's rates at ``counts``: ``(r_mut, total, sites,
    mut_last, death_last)``.

    ``r_mut`` and ``total`` are the generic step's sums, accumulated from
    0.0 over the occupied sites in site order.  ``sites`` holds three
    entries per occupied site, in that order: the site, its mutation term
    ``k * exit`` and its death term ``k * lam * (n - k) / (n - 1)``, the
    floats the sums were made of, so subtracting them in turn finds the
    site the generic step finds.  ``mut_last`` and ``death_last`` are the
    sites roundoff falls back to: the last occupied site with a mutation
    exit, and the last with ``k < n``.
    """
    r_mut = 0.0
    r_sel = 0.0
    sites = []
    mut_last = death_last = -1
    for i, k in enumerate(counts):
        if k:
            term = k * mut_exit[i]
            r_mut += term
            sel = k * lam[i] * (n - k)
            r_sel += sel
            sites += (i, term, sel * inv_nm1)
            if term > 0.0:
                mut_last = i
            if k < n:
                death_last = i
    return r_mut, r_mut + r_sel * inv_nm1, tuple(sites), mut_last, death_last


def _state(states, key, counts, n, inv_nm1, lam, mut_exit):
    """The :func:`_rates` record of ``counts``, kept in ``states`` under
    ``key``, with ``duel`` appended: the pair's :func:`_duel` when the
    support is two sites a < b, else None.  ``states`` is emptied first
    when it holds ``_STATES``.

    A record is two tuples of numbers and its pair's shared duel, and
    ``key`` an int, so thousands of them add few objects for the cyclic
    garbage collector to count: a tuple per site would bring on full
    collections that cost more than the records save.
    """
    if len(states) >= _STATES:
        states.clear()
    rates = _rates(counts, n, inv_nm1, lam, mut_exit)
    sites = rates[2]
    duel = None
    if len(sites) == 6:
        a, b = sites[0], sites[3]
        duel = _duel(n, lam[a], lam[b], mut_exit[a], mut_exit[b])
    state = states[key] = (*rates, duel)
    return state


@functools.lru_cache(maxsize=64)
def _duel(n, la, lb, ea, eb):
    """The duel of a pair of sites a < b with killing rates ``la``, ``lb``
    and mutation exits ``ea``, ``eb`` among n particles: ``(total_tab,
    mu_tab, tau_tab, totals, cuts, p_a)``, the total rate and the rows of
    :func:`_duel_thresholds` per split, indexed by the count at a, as
    lists for the scalar step and as arrays for :func:`_duel_block`, and
    ``p_a = la / (la + lb)``, the probability at every split that a
    count-changing death is at a.

    Each split's mutation rate, death rate at a and total rate are
    :func:`_rates`' own over the support {a, b}, so they are bit for bit
    the floats the generic step computes there.  All three are 0.0 at the
    Dirac ends (count 0 or n), where the duel is over, and
    :func:`_duel_thresholds` reads such a split as a mutation.

    They depend on these numbers alone, so a process keeps the 64 it used
    last, whatever model they came from, and each record of the pair's
    splits holds them: a pool worker meets its model anew, unpickled, in
    every chunk, and finds them built.  Nothing reads them but the event
    loop, which never writes to them.
    """
    inv_nm1 = 1.0 / (n - 1)
    tables = np.zeros((3, n + 1))  # mutation rate, death rate at a, total rate
    for ka in range(1, n):
        r_mut, total, sites = _rates((ka, n - ka), n, inv_nm1, (la, lb), (ea, eb))[:3]
        tables[:, ka] = r_mut, sites[2], total
    cuts = _duel_thresholds(*tables)
    return (tables[2].tolist(), *cuts.tolist(), tables[2], cuts, la / (la + lb))


def _duel_thresholds(rm, kill_a, total):
    """The duel step's decision at each split as two thresholds on its
    category uniform u.

    The generic step, with ``x = u * total``, takes a mutation when
    ``x < rm`` and otherwise a death at a when ``(x - rm) - kill_a <
    0.0``.  Rounding is monotone, so both hold exactly for u below a
    fixed double: ``mu``, the least u >= 0 with ``(x - rm) - 0.0 >=
    0.0`` (that is, ``x >= rm``), and ``tau``, the least u >= 0 with
    ``(x - rm) - kill_a >= 0.0``.  So ``u < mu`` is a mutation, ``mu <=
    u < tau`` a death at a and ``tau <= u`` a death at b.  A split with
    no rate gets 2.0 for both, above every uniform: it reads as a
    mutation.  Returns the (2, n + 1) array of rows ``mu`` and ``tau``.

    Doubles >= 0 are ordered as their bit patterns, so the thresholds
    are sought among the patterns.  Each is most often within a double
    of its guess ``rm / total`` or ``(rm + kill_a) / total``, so the nine
    doubles around the guess are tried at once; the few not found there
    (rates near the bottom of the subnormals) are bisected.
    """
    kill = np.zeros((2, len(total)))  # mu's test is tau's with no death term
    kill[1] = kill_a

    def holds(bits):  # u at or above its threshold; the patterns just below 0 are NaNs, and fail
        return (bits.view(np.float64) * total - rm) - kill >= 0.0

    with np.errstate(divide="ignore", invalid="ignore"):  # rm / 0 and 0 * inf at a split with no rate
        near = ((rm + kill) / total).view(np.int64) + _NEAR
        ok = holds(near)
        cut = np.where(ok, near, _TWO).min(axis=0)
        lost = (ok[0] | ~ok[-1]) & (total > 0.0)
        if lost.any():
            lo, hi = np.where(lost, -1, cut - 1), np.where(lost, _TWO, cut)
            while (hi - lo > 1).any():
                mid = (lo + hi) >> 1
                ok = holds(mid) & (hi - lo > 1)
                lo, hi = np.where(ok | (hi - lo <= 1), lo, mid), np.where(ok, mid, hi)
            cut = hi
    return cut.view(np.float64)


def _duel_block(cuts, totals, p_a, ka, t, stop, e, u, pos, m):
    """Up to ``m`` duel steps from count ``ka`` at time ``t``, on the draws
    ``e[pos:pos + m]`` and ``u[pos:pos + m]``.

    Each step's direction is guessed from its uniform alone, the count
    path follows by cumulative sum, and the scalar step's decision is
    read along it from the thresholds ``cuts`` of
    :func:`_duel_thresholds`.  The accepted prefix ends before the first
    step whose decision differs from the guess, or is a mutation, or has
    zero total rate, and before the first time past ``stop``; times are
    the scalar step's sequential sums over the total rates ``totals``.
    Returns ``(steps, ka, times, a_died)``: the accepted count, the
    count at a after them, and each accepted step's time and direction
    (None for both when no step is accepted).
    """
    uc = u[pos:pos + m]
    a_died = uc < p_a
    step = np.where(a_died, -1, 1)
    after = step.cumsum()
    after += ka  # the count at a after each step
    before = after - step
    mu, tau = cuts.take(before, axis=1, mode="clip")
    bad = (uc < tau) != a_died
    bad |= uc < mu
    j = int(bad.argmax())
    if not bad[j]:
        j = m
    elif not j:
        return 0, ka, None, None
    times = e[pos:pos + j] / totals.take(before[:j])
    times[0] += t
    times.cumsum(out=times)
    steps = j if times[-1] <= stop else int(times.searchsorted(stop, "right"))
    return steps, int(after[steps - 1]) if steps else ka, times[:steps], a_died[:steps]


class _Runs:
    """Flat results of the replicas :func:`_run_replicas` runs, appended in
    stream order.

    Per replica: ``times``, its final time.  Per replica and stop:
    ``snaps``, the counts, one entry per site, and ``snap_events``, the
    events so far; the last stop's are the final state.  ``columns`` are
    the recorded events' ``(times, sources, targets, kinds)`` lists: a
    replica's events follow those of the replicas before it.
    """

    __slots__ = ("times", "snaps", "snap_events", "columns")

    def __init__(self) -> None:
        self.times, self.snaps, self.snap_events = [], [], []
        self.columns: tuple[list[float], list[int], list[int], list[str]] = ([], [], [], [])


def _run_replicas(
    model: Model,
    r: float,
    counts: Sequence[int],
    stops: Sequence[float],
    rngs: Iterable[np.random.Generator],
    runs: _Runs,
    *,
    record: bool,
    event_cap: int,
) -> None:
    """The event loop: one replica per stream of ``rngs``, its results
    appended to ``runs``.

    Each replica starts from the particle ``counts``, records its events
    only with ``record``, and takes one snapshot at each of the
    ``stops``, strictly increasing times whose last is the horizon;
    ``math.inf`` runs to absorption in a Dirac mass with zero remaining
    rate, and stops after absorption repeat the final state.  A replica
    that starts with zero rate draws nothing.  A stream is drawn from
    ``rngs`` when its replica starts, after the previous replica's
    results are in ``runs``.  An :class:`EventCapError` leaves ``runs``
    holding the replicas before the capped one.
    """
    if len(counts) != model.num_states:
        raise ValueError("initial counts must match the model's state count")
    first_marks = list(reversed(stops))  # latest first
    n = sum(counts)
    lam, states, place = _kernel(model, r, n)
    mut_exit, mut_targets, mut_rates = model.exit_rate, model.out_targets, model.out_rates
    inv_nm1 = 1.0 / (n - 1)
    first_key = sum(k * p for k, p in zip(counts, place))
    last = event_cap - 1  # the duel hands the step that reaches the cap to the generic step
    ev_t, ev_src, ev_tgt, ev_kind = runs.columns
    snaps, snap_events = runs.snaps, runs.snap_events
    # Draws for ``size`` steps are made at once, ``size`` growing
    # geometrically, so short replicas stay cheap and long ones amortize
    # the generator calls.  Every refill writes into the leading entries
    # of one buffer per call, through views made here: ``refills[size]``
    # is the refill after ``size`` steps, its size and its two views.
    # Step ``pos`` reads ``ebuf[pos]``, ``ubuf[pos]`` and ``ubuf[size +
    # pos]``, memoryviews whose items are Python floats, for cheaper
    # scalar arithmetic; no draw outlives its replica.
    e_arr, u_arr = np.empty(_BLOCK), np.empty(2 * _BLOCK)
    ebuf, ubuf = memoryview(e_arr), memoryview(u_arr)
    refills, size = {}, 0
    while size not in refills:
        grown = min(max(2 * size, _FIRST), _BLOCK)
        refills[size] = grown, e_arr[:grown], u_arr[:2 * grown]
        size = grown
    start = tuple(counts)

    for rng in rngs:
        counts = list(start)
        key = first_key
        marks = first_marks.copy()  # pending stops, latest first
        stop = marks[-1]
        size = pos = 0  # the first step draws the first refill
        t = 0.0
        n_events = 0
        while True:
            state = states.get(key) or _state(states, key, counts, n, inv_nm1, lam, mut_exit)
            if state[5] is not None:
                # Two-site duel: the generic step below, specialized.  Its
                # decisions are thresholds on the category uniform, exact
                # per split for the generic loop's own float expressions.
                total_tab, mu_tab, tau_tab, totals, cuts, p_a = state[5]
                a, b = state[2][0], state[2][3]
                ka = counts[a]
                run = _DUEL_SCALAR  # scalar steps before the next block
                while True:
                    for _ in range(run):
                        if n_events >= last:
                            break  # the cap step: the generic step takes it
                        if pos == size:
                            if total_tab[ka] <= 0.0:
                                break  # a site died out or no rate is left: no refill
                            size, e_out, u_out = refills[size]
                            rng.standard_exponential(out=e_out)
                            rng.random(out=u_out)
                            pos = 0
                        u = ubuf[pos]
                        if u < mu_tab[ka]:
                            break  # a mutation, or the duel is over: likewise
                        t_next = t + ebuf[pos] / total_tab[ka]
                        if t_next > stop:
                            break  # a stop: likewise
                        pos += 1
                        t = t_next
                        if u < tau_tab[ka]:
                            ka -= 1
                            if record:
                                ev_t.append(t)
                                ev_src.append(a)
                                ev_tgt.append(b)
                                ev_kind.append("selection")
                        else:
                            ka += 1
                            if record:
                                ev_t.append(t)
                                ev_src.append(b)
                                ev_tgt.append(a)
                                ev_kind.append("selection")
                        n_events += 1
                    else:
                        # A block runs up to the refill or to the step before the
                        # cap, and the scalar step after it takes or hands on
                        # whatever ended it.  Where fewer than the smallest
                        # block's steps are left before either, scalar steps
                        # take them and the one after.
                        m = min(size - pos, last - n_events)
                        if m < _DUEL_BLOCK_MIN:
                            run = m + 1
                            continue
                        steps, ka, times, a_died = _duel_block(cuts, totals, p_a, ka, t, stop, e_arr, u_arr, pos, m)
                        if steps:
                            pos += steps
                            n_events += steps
                            t = float(times[-1])
                            if record:
                                ev_t += times.tolist()
                                ev_src += np.where(a_died, a, b).tolist()
                                ev_tgt += np.where(a_died, b, a).tolist()
                                ev_kind += ["selection"] * steps
                        run = 1
                        continue
                    # A Dirac end: the condensate's own mutation back into the
                    # pair is a duel step too, taken by the generic step's
                    # expressions; any other step is handed to the generic step.
                    # At a Dirac mass that step always takes a mutation at its
                    # site (u * total < total for every uniform below 1), so
                    # the category uniform is not read.
                    if 0 < ka < n or n_events >= last:
                        break
                    src, other = (a, b) if ka else (b, a)
                    total = n * mut_exit[src]  # the Dirac record's total
                    if total <= 0.0:
                        break
                    if pos == size:
                        size, e_out, u_out = refills[size]
                        rng.standard_exponential(out=e_out)
                        rng.random(out=u_out)
                        pos = 0
                    t_next = t + ebuf[pos] / total
                    if t_next > stop:
                        break
                    y = ubuf[size + pos] * mut_exit[src]
                    tgt = mut_targets[src][-1]
                    for j, rate in zip(mut_targets[src], mut_rates[src]):
                        y -= rate
                        if y < 0.0:
                            tgt = j
                            break
                    if tgt != other:
                        break
                    pos += 1
                    t = t_next
                    ka = n - 1 if ka else 1
                    n_events += 1
                    if record:
                        ev_t.append(t)
                        ev_src.append(src)
                        ev_tgt.append(tgt)
                        ev_kind.append("mutation")
                    run = _DUEL_SCALAR
                if ka != counts[a]:
                    key += (ka - counts[a]) * (place[a] - place[b])
                    counts[a], counts[b] = ka, n - ka
                    state = states.get(key) or _state(states, key, counts, n, inv_nm1, lam, mut_exit)

            r_mut, total, sites, mut_last, death_last, _ = state
            if total <= 0.0:
                break

            if pos == size:
                size, e_out, u_out = refills[size]
                rng.standard_exponential(out=e_out)
                rng.random(out=u_out)
                pos = 0
            dt = ebuf[pos] / total
            u_cat = ubuf[pos]
            u_tgt = ubuf[size + pos]
            pos += 1

            if t + dt > stop:
                while marks and marks[-1] < t + dt:  # snapshots before this event
                    stop = marks.pop()
                    snaps.extend(counts)
                    snap_events.append(n_events)
                if not marks:  # past the horizon, the last stop
                    t = stop
                    break
                stop = marks[-1]
            t += dt

            x = u_cat * total
            if x < r_mut:
                # mutation: locate the site, then the outgoing edge
                for j in range(1, len(sites), 3):
                    x -= sites[j]
                    if x < 0.0:
                        src = sites[j - 1]
                        break
                else:  # roundoff left x >= 0 past the last occupied mutating site: take that site
                    src = mut_last
                rates = mut_rates[src]
                y = u_tgt * mut_exit[src]
                tgt = mut_targets[src][-1]
                for j, rate in zip(mut_targets[src], rates):
                    y -= rate
                    if y < 0.0:
                        tgt = j
                        break
                kind = "mutation"
            else:
                # count-changing death: killed site, then survivor's site
                x -= r_mut
                for j in range(2, len(sites), 3):
                    x -= sites[j]
                    if x < 0.0:
                        src = sites[j - 2]
                        break
                else:
                    src = death_last
                y = u_tgt * (n - counts[src])
                for tgt in sites[::3]:
                    if tgt != src:
                        y -= counts[tgt]
                        if y < 0.0:
                            break
                else:
                    tgt = max(j for j in sites[::3] if j != src)
                kind = "selection"

            counts[src] -= 1
            counts[tgt] += 1
            key += place[tgt] - place[src]
            n_events += 1
            if record:
                ev_t.append(t)
                ev_src.append(src)
                ev_tgt.append(tgt)
                ev_kind.append(kind)
            if n_events >= event_cap:
                raise EventCapError(event_cap, t, counts)

        if marks:  # absorbed before these stops: the final state holds at each
            snaps.extend(counts * len(marks))
            snap_events.extend([n_events] * len(marks))
        runs.times.append(t)


def simulate_fv(
    model: Model,
    r: float,
    init: EmpiricalMeasure,
    T: float,
    rng: np.random.Generator,
    *,
    record: bool = True,
    event_cap: int = DEFAULT_EVENT_CAP,
) -> Trajectory:
    """Exact realization of the full mutation + selection dynamics on [0, T].

    With ``record=False`` no event is recorded (the final state
    and the event count are still exact); use this for marginals, where
    storing paths would dominate the cost.  This is the event loop's
    one-stream case: replica i of an experiment's chunk equals this call
    on its stream (``derive_replica_rng(seed, i)``), draw for draw.
    """
    if not 0 < T < math.inf:  # also false for NaN
        raise ValueError(f"horizon must be positive and finite, got {T}")
    runs = _Runs()
    _run_replicas(model, r, init.counts, (T,), (rng,), runs, record=record, event_cap=event_cap)
    return Trajectory(
        initial=init,
        columns=runs.columns,
        horizon=T,
        final_counts=tuple(runs.snaps),
        event_count=runs.snap_events[0],
    )


def simulate_selection_absorption(
    model: Model,
    r: float,
    init: EmpiricalMeasure,
    rng: np.random.Generator,
    *,
    event_cap: int = DEFAULT_EVENT_CAP,
) -> AbsorptionResult:
    """Run the selection-only dynamics, those of ``model.without_mutation``,
    until a Dirac mass is reached.

    Returns the absorption time, the absorbed site's label, and the
    number of events consumed.  Absorption is almost sure; the event
    cap converts pathological configurations into diagnostics.  A Dirac
    start has zero rate, so it returns ``(0.0, site, 0)`` from the event
    loop without a draw from ``rng``.  Like :func:`simulate_fv`, this is
    the event loop's one-stream case, run with the one stop
    ``math.inf``, equal draw for draw to the replica of an experiment's
    chunk that reads the same stream.
    """
    runs = _Runs()
    _run_replicas(model.without_mutation, r, init.counts, (math.inf,), (rng,), runs, record=False, event_cap=event_cap)
    site = runs.snaps.index(init.n)
    return AbsorptionResult(runs.times[0], model.states[site], runs.snap_events[0])
