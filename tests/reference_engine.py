"""The generic event loop on the current draw layout: no duel step, no block.

The engine's one-replica event loop (and its rate-layout helper) as it
stood before the duel specialization was added, kept here frozen while
the engine's loop became :func:`fvlab.engine._run_replicas`, with only
its refill and its three reads per step moved to the current layout:
per refill ``size`` standard exponentials, then ``2 * size`` uniforms;
step ``pos`` reads exponential ``pos``, uniform ``pos`` for the event
category and uniform ``size + pos`` for the target.  Tests compare the live engine against
it: the two must agree bit for bit on time, final counts, recorded
events and event count for every input.
"""

from __future__ import annotations

import numpy as np

from fvlab.engine import DEFAULT_EVENT_CAP, EmpiricalMeasure, EventCapError
from fvlab.model import Model

_BLOCK = 1365


def _kernel_arrays(model: Model, r: float, selection_only: bool):
    d = model.num_states
    lam = [model.killing_rate(r, i) for i in range(d)]
    if selection_only:
        mut_exit = [0.0] * d
        mut_targets: tuple = ((),) * d
        mut_rates: tuple = ((),) * d
    else:
        mut_exit = list(model.exit_rate)
        mut_targets = model.out_targets
        mut_rates = model.out_rates
    return d, lam, mut_exit, mut_targets, mut_rates


def _simulate(
    model: Model,
    r: float,
    init: EmpiricalMeasure,
    T: float | None,
    rng: np.random.Generator,
    *,
    selection_only: bool = False,
    record: bool = True,
    event_cap: int = DEFAULT_EVENT_CAP,
    max_events: int | None = None,
):
    """Shared event loop.

    Runs until the horizon ``T`` (if given), absorption in a Dirac mass
    with zero remaining rate, or ``max_events``.  Returns
    ``(time, counts, events, n_events)``, each recorded event a
    ``(time, kind, source, target)`` tuple.
    """
    if len(init.counts) != model.num_states:
        raise ValueError("initial counts must match the model's state count")
    d, lam, mut_exit, mut_targets, mut_rates = _kernel_arrays(model, r, selection_only)
    counts = list(init.counts)
    n = init.n
    inv_nm1 = 1.0 / (n - 1)
    exp, rnd = rng.standard_exponential, rng.random

    # Draws for ``size`` steps are made at once, ``size`` growing
    # geometrically: ``size`` exponentials, then ``2 * size`` uniforms.
    size = 21
    ebuf = exp(size)
    ubuf = rnd(2 * size)
    pos = 0
    t = 0.0
    events: list[tuple[float, str, int, int]] = []
    n_events = 0
    while True:
        r_mut = 0.0
        r_sel = 0.0
        for i in range(d):
            k = counts[i]
            if k:
                r_mut += k * mut_exit[i]
                r_sel += k * lam[i] * (n - k)
        r_sel *= inv_nm1
        total = r_mut + r_sel
        if total <= 0.0:
            break

        if pos == size:
            size = min(size * 2, _BLOCK)
            ebuf = exp(size)
            ubuf = rnd(2 * size)
            pos = 0
        e = ebuf[pos]
        u_cat = ubuf[pos]
        u_tgt = ubuf[size + pos]
        pos += 1

        dt = e / total
        if T is not None and t + dt > T:
            t = T
            break
        t += dt

        x = u_cat * total
        if x < r_mut:
            # mutation: locate the site, then the outgoing edge
            src = -1
            for i in range(d):
                k = counts[i]
                if k:
                    x -= k * mut_exit[i]
                    if x < 0.0:
                        src = i
                        break
            if src < 0:  # guard against roundoff at the block boundary
                src = max(i for i in range(d) if counts[i] and mut_exit[i] > 0.0)
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
            src = -1
            for i in range(d):
                k = counts[i]
                if k:
                    x -= k * lam[i] * (n - k) * inv_nm1
                    if x < 0.0:
                        src = i
                        break
            if src < 0:
                src = max(i for i in range(d) if 0 < counts[i] < n)
            y = u_tgt * (n - counts[src])
            tgt = -1
            for j in range(d):
                if j != src and counts[j]:
                    y -= counts[j]
                    if y < 0.0:
                        tgt = j
                        break
            if tgt < 0:
                tgt = max(j for j in range(d) if j != src and counts[j])
            kind = "selection"

        counts[src] -= 1
        counts[tgt] += 1
        n_events += 1
        if record:
            events.append((t, kind, src, tgt))
        if n_events >= event_cap:
            raise EventCapError(event_cap, t, counts)
        if max_events is not None and n_events >= max_events:
            break

    return t, counts, events, n_events
