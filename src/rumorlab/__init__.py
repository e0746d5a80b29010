"""rumorlab: exact thresholds and stochastic simulation for rumor spread on trees.

The package pairs every closed-form quantity (offspring laws, generating
functions, critical thresholds, survival probabilities) with an independent
stochastic oracle (branching-process Monte Carlo and a clockless
simulator of the contact dynamics).
"""

from ._seeds import EstimateCI, wilson_interval
from .errors import NumericFault
from .laws import (
    EXACT_LIMIT,
    beta_gap,
    beta_paper,
    beta_series,
    beta_value,
    law_N,
    law_N_prime,
    law_X,
    law_X_prime,
    mean_N,
    mean_X,
    pgf_N_prime,
    pgf_X_prime,
    tv_distance,
)
from .thresholds import (
    RootResult,
    alpha_critical,
    asymptotic_h_bound,
    max_h,
    p_critical,
    pc_asymptotic,
    psi_root,
    theta,
    theta_double_sum,
)
from .gw import (
    CappedEstimate,
    coupled_monotonicity_trial,
    extinction_by_iteration,
    survival_mc,
)
from .treegen import TreeTopology, cayley, hub_path
from .ctmc import (
    SimOutcome,
    SurvivalEstimate,
    estimate_survival_ctmc,
    estimate_survival_levels,
    offspring_empirical,
    path_traversal_empirical,
    simulate_mt,
)

__version__ = "0.1.0"

__all__ = [
    "CappedEstimate",
    "EXACT_LIMIT",
    "EstimateCI",
    "NumericFault",
    "RootResult",
    "SimOutcome",
    "SurvivalEstimate",
    "TreeTopology",
    "alpha_critical",
    "asymptotic_h_bound",
    "beta_gap",
    "beta_paper",
    "beta_series",
    "beta_value",
    "cayley",
    "coupled_monotonicity_trial",
    "estimate_survival_ctmc",
    "estimate_survival_levels",
    "extinction_by_iteration",
    "hub_path",
    "law_N",
    "law_N_prime",
    "law_X",
    "law_X_prime",
    "max_h",
    "mean_N",
    "mean_X",
    "offspring_empirical",
    "p_critical",
    "path_traversal_empirical",
    "pc_asymptotic",
    "pgf_N_prime",
    "pgf_X_prime",
    "psi_root",
    "simulate_mt",
    "survival_mc",
    "theta",
    "theta_double_sum",
    "tv_distance",
    "wilson_interval",
]
