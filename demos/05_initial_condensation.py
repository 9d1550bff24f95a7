"""
Where does the condensate start?
================================

From a spread-out initial configuration, fast selection first wipes the
sites whose killing rates grow at a strictly faster order in r; their
particles redistribute onto the surviving minimal-order set like draws
in a reinforcement urn.  The final selection game between the survivors
is then decided by the limiting committors.  The composition of the two
steps is an explicit law -- no simulation involved -- and the simulator
reproduces it.
"""

import math

import numpy as np

from fvlab import (
    EmpiricalMeasure,
    empirical_law,
    initial_condensation_law,
    minimal_order_set,
    polya_urn_law,
    simulate_selection_absorption,
    tv_distance,
    validate_model,
)

# Sites a, b keep order-1 killing; c dies at order r**2 and cannot hold
# particles in the fast-selection limit.
model = validate_model(
    {
        "states": ["a", "b", "c"],
        "mutation": [],
        "killing": {
            "kind": "power",
            "c": {"a": 1.0, "b": 2.0, "c": 1.0},
            "beta": {"a": "1", "b": "1", "c": "2"},
        },
    }
)
counts = (1, 2, 1)   # n = 4 particles
print("minimal-order set from support (a, b, c):",
      minimal_order_set(model, ("a", "b", "c")))

# Step 1: the particle stranded on c is redistributed onto {a, b},
# proportionally to current loads -- one draw of a reinforcement urn.
urn = polya_urn_law((1, 2), 1)
print("urn law after one draw from loads (1, 2):",
      {k: str(v) for k, v in urn.exact.items()})

# Step 2: each resulting split plays the two-site selection game with
# the limiting rate ratio alpha = 2.  The mixture is the exact law.
law = initial_condensation_law(model, counts)
print("\nexact initial-condensation law:")
for s, p in zip(law.law.states, law.law.probs):
    print(f"  {s}: {p:.6f}")
print("(as fractions: 28/45, 17/45, 0)")

# Cross-check by brute force: run the selection-only dynamics at a
# large finite r and tally the absorbed site.
M = 20000
sites = []
for i in range(M):
    res = simulate_selection_absorption(
        model, 1.0e4, EmpiricalMeasure(counts), np.random.default_rng(i)
    )
    sites.append(model.states.index(res.site))
mc = empirical_law(sites, model.states)
print("\nabsorbed-site frequencies at r=1e4, M=2e4:",
      {s: round(float(p), 4) for s, p in zip(mc.states, mc.probs)})
print("TV(exact, simulated) =", round(float(tv_distance(law.law, mc)), 4))
# DKW half-width at confidence 95%: sqrt(ln(2/delta) / (2M)), delta = 0.05
print("DKW half-width at M=2e4:", round(math.sqrt(math.log(2 / 0.05) / (2 * M)), 4))
