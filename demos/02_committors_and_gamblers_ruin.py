"""
Committors: who wins the selection game
=======================================

Under selection alone (no mutation), every Dirac mass is absorbing, and
the committor psi_x(xi) is the probability that the process started
from configuration xi ends up with all n particles at site x.  On two
sites this is a gambler's ruin in the count of the first site, solved
in closed form; on more sites it is a sparse linear system over the
space of particle configurations.
"""

import numpy as np

from fvlab import (
    committor_numeric,
    gamblers_ruin_committor,
    invasion_probability,
)

# Two sites, killing-rate ratio alpha = rate(y)/rate(x).  g[k] is the
# probability that site x eventually takes over, given k particles sit
# at x now.  alpha > 1 favours x (particles at y die faster).
n, alpha = 6, 2.0
g = gamblers_ruin_committor(n, alpha)
print(f"two-site committor column, n={n}, alpha={alpha}:")
for k, v in enumerate(g):
    print(f"  k={k}: {v:.6f}")

# The two standard corner cases: hold (n-1 particles at x, one invader)
# and invade (one particle at x against n-1), read off the column.
hold, invade = g[n - 1], g[1]
print(f"hold = {hold:.6f}, invade = {invade:.6f}")

# Losing the hold game is the same event as the single invader taking
# over, which has its own closed form used all over the rate formulas.
print("1 - hold == invasion probability:",
      np.isclose(1 - hold, invasion_probability(n, alpha)))

# The balanced game alpha = 1 is linear in k.
print("\nbalanced game, n=5:", gamblers_ruin_committor(5, 1.0))

# On more than two sites there is no closed form.  committor_numeric
# assembles the absorption system on the lattice of compositions of n
# and solves it; rows are indexed by configuration.
weights = (1.0, 2.0, 4.0)   # site killing rates
table = committor_numeric(weights, n=4)
print("\nthree sites, killing rates", weights)
for counts in [(2, 1, 1), (1, 2, 1), (1, 1, 2)]:
    psi = table.row(counts)
    print(f"  counts {counts}: psi = {np.round(psi, 4)}")

# The closed form is the two-site special case of the same system, so
# the two implementations must agree to solver tolerance everywhere.
two = committor_numeric((1.0, alpha), n)
worst = max(
    abs(two.row((n - k, k))[0] - g[n - k]) for k in range(n + 1)
)
print(f"\nclosed form vs linear system, worst abs error: {worst:.2e}")
