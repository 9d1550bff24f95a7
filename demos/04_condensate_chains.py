"""
The condensate as a Markov chain
================================

Once the particle system condenses, the occupied site itself moves like
a continuous-time Markov chain: a mutation pushes one particle off the
pile, and a quick selection game decides whether the pile follows it.
The jump rate is (mutation rate) x n x (invasion probability), with the
invasion odds set by the killing-rate ratio of the two sites.
"""

import numpy as np

from fvlab import (
    condensate_rates,
    conjectured_limit_rates,
    ctmc_marginal,
    simulate_ctmc,
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

# Fixed particle number n, finite intensity r.  Moving a -> b fights a
# killing ratio alpha = 2 (b dies twice as fast), so that edge is
# damped; c -> a rides a ratio 1/4 and is amplified.
chain = condensate_rates(model, n=3, r=10.0)
print("condensate chain rates, n=3, r=10:")
for x in chain.states:
    for y in chain.states:
        if x != y and chain.entry(x, y) > 0:
            print(f"  {x} -> {y}: {chain.entry(x, y):.6f}")

# r=None gives the r -> infinity limit of the same formula.  With equal
# exponents the ratios are r-independent, so the limit equals any r.
limit = condensate_rates(model, n=3, r=None)
print("limit chain equals finite-r chain here:",
      np.allclose(limit.rates, chain.rates))

# Marginals come from one matrix exponential, v expm(G t): a shifted
# Taylor series, scaled and squared, that calls no BLAS, so it gives the
# same bits on every CPU.  The chain can also be sampled pathwise, one jump
# skeleton at a time.
law = ctmc_marginal(limit, "a", t=1.0)
print("\ncondensate law at t=1 from site a:",
      {s: round(float(p), 4) for s, p in zip(law.states, law.probs)})
skeleton = simulate_ctmc(limit, "a", 1.0, np.random.default_rng(3))
print("one sampled condensate path (time, site):")
print("  ", [(round(float(t), 3), limit.states[i]) for t, i in skeleton])

# When killing exponents differ, sending n -> infinity after r changes
# the picture: only sites whose neighbours all die at least as fast
# remain stable, and jumps onto unstable sites cascade downhill until
# they park on a stable one.  The worked three-site chain a - z - b with
# orders (2, 2, 1): z is balanced against a but b below kills slower,
# so a jump a -> z slides on to b, carrying the full mutation rate 2.
chain_model = validate_model(
    {
        "states": ["a", "z", "b"],
        "mutation": [
            {"from": "a", "to": "z", "rate": 2.0},
            {"from": "z", "to": "b", "rate": 1.0},
        ],
        "killing": {
            "kind": "power",
            "c": {"a": 1.0, "z": 1.0, "b": 1.0},
            "beta": {"a": "2", "z": "2", "b": "1"},
        },
    }
)
analysis, limit_chain = conjectured_limit_rates(chain_model)
print("\nstable sites:", analysis.stable_sites)
print("cascade record:", analysis.to_json_dict())
print("limit chain rate a -> b:", limit_chain.entry("a", "b"))
