"""Simulation and numerical verification laboratory for Fleming-Viot
particle systems in the fast-selection regime.

The package simulates the n-particle mutation/selection dynamics
exactly, builds the limiting condensate Markov chains and their exact
marginals, computes absorption laws (committors, Polya-urn
redistribution) in closed or near-closed form, and runs config-driven
statistical experiments comparing the two sides.
"""

from .chains import (
    RateMatrix,
    condensate_rates,
    conjectured_limit_rates,
    ctmc_marginal,
    simulate_ctmc,
)
from .committor import (
    committor_numeric,
    gamblers_ruin_committor,
    invasion_probability,
)
from .condensation import (
    initial_condensation_law,
    minimal_order_set,
    polya_urn_law,
)
from .engine import (
    EmpiricalMeasure,
    EventCapError,
    Trajectory,
    simulate_fv,
    simulate_selection_absorption,
)
from .experiments import (
    EXPERIMENT_KINDS,
    ConfigError,
    ExperimentConfig,
    Report,
    derive_replica_rng,
    run_experiment,
)
from .metrics import (
    LawOnStates,
    empirical_law,
    tv_distance,
)
from .model import (
    Model,
    ModelError,
    load_model,
    validate_model,
)

__version__ = "0.1.0"

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
