"""Causal effect estimation when confounders are measured with error.

The package restores the latent joint distribution over a mismeasured
confounder by inverting the known error mechanism, then computes
corrected causal effects, propensity scores, linear-model effect
coefficients, and surrogate independence tests — plus a ground-truth
simulator validating every estimator.
"""

from .binary import (
    causal_effect_binary,
    causal_effect_binary_infinitesimal,
    restore_binary,
    synthesize_samples,
    weight_split,
)
from .dsep import (
    TestResult,
    tetrad_residual,
    tetrad_test,
    theorem1_residual,
    theorem1_test,
    two_stage_test,
)
from .errors import (
    DegenerateDenominatorError,
    DegenerateStratumError,
    EffectRestoreError,
    IncompatibleModelError,
    InvalidErrorVarianceError,
    PositivityError,
    SingularError,
    UnidentifiableError,
    ValidationError,
)
from .linear import (
    CovStats,
    LinearSemSpec,
    bootstrap_se,
    bootstrap_table_values,
    bootstrap_values,
    c0_error_prone_k,
    c0_from_lambda,
    c0_noiseless,
    c0_two_indicator,
    cov_from_samples,
    lambda_from_error_variance,
    lambda_from_two_indicators,
    surrogate_slope,
)
from .mechanism import (
    BinaryErrorParams,
    ErrorMatrix,
    component_mechanism,
    expand_factored,
)
from .restore import (
    PropensityProfile,
    RestorationResult,
    causal_effect_restored,
    propensity_profile,
    pushforward,
    restore_joint,
    restore_joint_differential,
    restored_propensity,
    stratified_effect,
)
from .rng import make_rng
from .simulate import (
    DiscreteModelSpec,
    binary_spec,
    naive_effect,
    simulate_discrete,
    simulate_linear,
)
from .tables import (
    JointTable,
    TableValidation,
    adjust_for_confounder,
    empirical_joint,
    marginal,
    validate_joint,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryErrorParams",
    "CovStats",
    "DegenerateDenominatorError",
    "DegenerateStratumError",
    "DiscreteModelSpec",
    "EffectRestoreError",
    "ErrorMatrix",
    "IncompatibleModelError",
    "InvalidErrorVarianceError",
    "JointTable",
    "LinearSemSpec",
    "PositivityError",
    "PropensityProfile",
    "RestorationResult",
    "SingularError",
    "TableValidation",
    "TestResult",
    "UnidentifiableError",
    "ValidationError",
    "adjust_for_confounder",
    "binary_spec",
    "bootstrap_se",
    "bootstrap_table_values",
    "bootstrap_values",
    "c0_error_prone_k",
    "c0_from_lambda",
    "c0_noiseless",
    "c0_two_indicator",
    "causal_effect_binary",
    "causal_effect_binary_infinitesimal",
    "causal_effect_restored",
    "component_mechanism",
    "cov_from_samples",
    "empirical_joint",
    "expand_factored",
    "lambda_from_error_variance",
    "lambda_from_two_indicators",
    "make_rng",
    "marginal",
    "naive_effect",
    "propensity_profile",
    "pushforward",
    "restore_binary",
    "restore_joint",
    "restore_joint_differential",
    "restored_propensity",
    "simulate_discrete",
    "simulate_linear",
    "stratified_effect",
    "surrogate_slope",
    "synthesize_samples",
    "tetrad_residual",
    "tetrad_test",
    "theorem1_residual",
    "theorem1_test",
    "two_stage_test",
    "validate_joint",
    "weight_split",
]
