"""Wick calculus on finite Wiener chaos expansions.

Polynomial functionals of d independent standard Gaussians, stored as
Hermite coefficient tables. Exact Wick/pointwise products, second
quantization, stochastic exponentials, seeded Monte Carlo sampling, and
convergence experiments for rescaled Wick powers.
"""

__version__ = "0.1.0"

from .core import (
    ChaosExpansion,
    ExpVectorResult,
    constant,
    exp_vector,
    expansion_hash,
    first_order_kernel,
    from_json_dict,
    gamma,
    inner_product,
    l2_norm,
    l2_norm_sq,
    make_expansion,
    max_coeff_deviation,
    multi_index_factorial,
    multi_indexes_of_degree,
    project_degree,
    to_json_dict,
    univariate,
)
from .algebra import pointwise_product, s_transform_eval, wick_bound_check, wick_power, wick_product
from .sampling import (
    GENERATOR_NAME,
    HERMITE_DEGREE_CAP,
    NORMALIZED_RECURRENCE_DEGREE,
    OuEstimate,
    SampleBatch,
    evaluate,
    hermite_eval,
    ks_critical_value,
    ks_statistic,
    ou_apply_mc,
    sample_batch,
    write_samples_csv,
)
from .limits import (
    MEAN_EPS,
    BoundFactors,
    ConvergenceEntry,
    ConvergenceReport,
    DistributionReport,
    ZeroMeanError,
    convergence_error,
    convergence_report,
    default_n_schedule,
    limit_distribution_test,
    min_chaos_order,
    proof_bound,
    proof_bound_factors,
    rescaled_wick_power,
    write_convergence_csv,
    write_distribution_json,
)

__all__ = [name for name in dir() if not name.startswith("_")]
