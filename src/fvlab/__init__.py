"""Simulation and numerical verification laboratory for Fleming-Viot
particle systems in the fast-selection regime.

The package simulates the n-particle mutation/selection dynamics
exactly, builds the limiting condensate Markov chains and their exact
marginals, computes absorption laws (committors, Polya-urn
redistribution) in closed or near-closed form, and runs config-driven
statistical experiments comparing the two sides.
"""

from .chains import *
from .committor import *
from .condensation import *
from .engine import *
from .experiments import *
from .metrics import *
from .model import *

__version__ = "0.1.0"

# the names the star imports above bring in, spelled out for readers that
# parse the package without importing it (perfbench counts them with ast)
__all__ = [
    "ConfigError",
    "EXPERIMENT_KINDS",
    "EmpiricalMeasure",
    "EventCapError",
    "ExperimentConfig",
    "LawOnStates",
    "Model",
    "ModelError",
    "RateMatrix",
    "Report",
    "Trajectory",
    "committor_numeric",
    "condensate_rates",
    "conjectured_limit_rates",
    "ctmc_marginal",
    "derive_replica_rng",
    "empirical_law",
    "gamblers_ruin_committor",
    "initial_condensation_law",
    "invasion_probability",
    "load_model",
    "minimal_order_set",
    "polya_urn_law",
    "run_experiment",
    "simulate_ctmc",
    "simulate_fv",
    "simulate_selection_absorption",
    "tv_distance",
    "validate_model",
    "__version__",
]
