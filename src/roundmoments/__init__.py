"""Rigorous bounds on how rounding a random variable perturbs its moments,
with brute-force oracles that verify every bound."""

from .grids import (
    ExplicitSet,
    FloatSystem,
    GapStats,
    UniformMesh,
    ceil_to,
    floor_to,
    gap_stats,
)
from .rounding import RoundingScheme, round_value
from .distributions import (
    DensityModel,
    Envelope,
    SymmetricSplit,
    best_mesh_center,
    make_exponential,
    make_normal,
    make_semicircle,
    make_uniform,
)
from .bounds import (
    ADDITIVE,
    MULTIPLICATIVE,
    BoundReport,
    BoundTerm,
    centered_moment_first_order,
    float_moment_bound,
    interval_error_bound,
    mean_and_variance_diff_bounds,
    mixed_moment_bound,
    normal_partial_moment_bound,
    plan_measurement,
    rounded_chebyshev,
    rounded_sum_bound,
    sheppard_two_sided,
    strong_bound,
    unimodal_moment_bound,
)
from .oracle import (
    MCMoments,
    OracleResult,
    Weight,
    centered_moment_of_rounded,
    convergence_slope,
    delta_e_and_v,
    err_weighted_integral,
    mc_rounded_moments,
    rd_moment_integral,
    simulated_sum,
)
from .verify import CheckResult, SweepRow, offset_sweep, run_suite, worst_margin
from .cli import parse_dist_config, parse_grid_config

__version__ = "0.1.0"
