"""
Simulating the particle system
==============================

The engine is an exact event-driven simulator: exponential clocks for
every mutation move and every kill-and-duplicate move, no time
discretization.  At large killing intensity r the empirical measure
condenses -- almost all particles sit on one site, and the occasional
deviant particle is killed and reabsorbed quickly.
"""

import math

import numpy as np

from fvlab import (
    EmpiricalMeasure,
    LawOnStates,
    empirical_law,
    simulate_fv,
    simulate_selection_absorption,
    tv_distance,
    validate_model,
)

model = validate_model(
    {
        "states": ["a", "b", "c"],
        "mutation": [
            {"from": "a", "to": "b", "rate": 1.0},
            {"from": "b", "to": "c", "rate": 1.0},
            {"from": "c", "to": "a", "rate": 1.0},
        ],
        "killing": {
            "kind": "power",
            "c": {"a": 1.0, "b": 2.0, "c": 4.0},
            "beta": {"a": "1", "b": "1", "c": "1"},
        },
    }
)

# One trajectory, recorded event by event in four flat columns: time,
# source site, target site and kind.  Every event moves exactly one
# particle, so the path of empirical measures replays from the log.
rng = np.random.default_rng(7)
init = EmpiricalMeasure.dirac(num_sites=3, site=0, n=8)
traj = simulate_fv(model, r=50.0, init=init, T=1.0, rng=rng)
print(f"events in [0, 1]: {traj.event_count}")
print("first five:")
times, sources, targets, kinds = traj.columns
for t, src, tgt, kind in zip(times[:5], sources, targets, kinds):
    print(f"  t={t:.4f}  {kind:9s} {model.states[src]} -> {model.states[tgt]}")
print("final counts:", traj.final_counts)

# How far the path strays from the Dirac masses, integrated over time:
# the basic "is it condensed?" diagnostic.  Larger r pins it down.
for r in (10.0, 100.0, 1000.0):
    vals = [
        simulate_fv(model, r, init, 1.0, np.random.default_rng(100 + i)).max_mass_integral()
        for i in range(200)
    ]
    print(f"r={r:6g}: mean Dirac-distance integral = {np.mean(vals):.4f}")

# Marginal statistics do not need event logs; record=False keeps only
# the final configuration.  Here: the law of the site holding the most
# mass at T, against the model's own site order.
M = 2000
finals = np.empty(M, dtype=np.int64)
for i in range(M):
    out = simulate_fv(model, 200.0, init, 0.5, np.random.default_rng(i), record=False)
    finals[i] = int(np.argmax(out.final_counts))
law = empirical_law(finals, model.states)
print("\nsite-of-max-mass law at T=0.5, r=200:",
      {s: round(float(p), 3) for s, p in zip(model.states, law.probs)})
# The distribution-free (DKW) half-width at confidence 1 - delta depends on
# the sample count alone: sqrt(ln(2/delta) / (2M)).
print("DKW half-width at this sample size:", round(math.sqrt(math.log(2 / 0.05) / (2 * M)), 4))

# Selection-only dynamics absorb in a Dirac mass in finite time; the
# absorbed site follows the committor of the killing rates at r.
hits = {s: 0 for s in model.states}
for i in range(2000):
    res = simulate_selection_absorption(
        model, 10.0, EmpiricalMeasure([2, 1, 1]), np.random.default_rng(i)
    )
    hits[res.site] += 1
freq = LawOnStates(model.states, [hits[s] / 2000 for s in model.states])
print("\nabsorbed-site frequencies from counts (2,1,1):",
      {s: float(p) for s, p in zip(model.states, freq.probs)})
print("slow-killing site a wins most games, as the committor predicts;")
print("TV to uniform for scale:",
      round(tv_distance(freq, LawOnStates(model.states, [1 / 3] * 3)), 3))
