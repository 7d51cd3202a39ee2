"""Scan statistics over block-factor dependent random fields.

Approximates the distribution of the two-dimensional discrete scan statistic
over dependent fields built by window transforms of i.i.d. lattices, with a
rigorous error ledger, plus direct Monte Carlo simulation and a CLI.
"""

__version__ = "0.1.0"

from .blockfactor import (
    BlockFactorTransform,
    catalog_transform,
    identity_transform,
    ma_transform,
    minesweeper_transform,
)
from .fields import MarginalDistribution, SeedSpec
from .haiman import (
    Theorem1Constants,
    approximant_H_with_flag,
    error_factor_F,
    solve_t2,
    theorem1_constants,
)
from .pipeline import (
    ApproxRow,
    EstimateRecord,
    ExperimentSpec,
    SimRow,
    approximate,
    estimate_quv,
    one_step_approximation,
    simulate_distribution,
    two_step_approximation,
)

__all__ = [
    "ApproxRow",
    "BlockFactorTransform",
    "EstimateRecord",
    "ExperimentSpec",
    "MarginalDistribution",
    "SeedSpec",
    "SimRow",
    "Theorem1Constants",
    "approximant_H_with_flag",
    "approximate",
    "catalog_transform",
    "error_factor_F",
    "estimate_quv",
    "identity_transform",
    "ma_transform",
    "minesweeper_transform",
    "one_step_approximation",
    "simulate_distribution",
    "solve_t2",
    "theorem1_constants",
    "two_step_approximation",
]
