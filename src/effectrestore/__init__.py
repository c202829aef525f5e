"""Causal effect estimation when confounders are measured with error.

The package restores the latent joint distribution over a mismeasured
confounder by inverting the known error mechanism, then computes
corrected causal effects, propensity scores, linear-model effect
coefficients, and surrogate independence tests — plus a ground-truth
simulator validating every estimator.

Importing the package loads nothing else: each name in ``__all__`` and
each submodule is imported on first access (PEP 562), so a program
entry point can set process-wide policy before numpy loads.
"""

import importlib
import os

__version__ = "0.1.0"

#: submodule -> the public names it defines
_EXPORTS = {
    "binary": (
        "causal_effect_binary",
        "causal_effect_binary_infinitesimal",
        "restore_binary",
        "synthesize_samples",
        "weight_split",
    ),
    "dsep": (
        "TestResult",
        "tetrad_residual",
        "tetrad_test",
        "theorem1_residual",
        "theorem1_test",
        "two_stage_test",
    ),
    "errors": (
        "DegenerateDenominatorError",
        "DegenerateStratumError",
        "EffectRestoreError",
        "IncompatibleModelError",
        "InvalidErrorVarianceError",
        "PositivityError",
        "SingularError",
        "UnidentifiableError",
        "ValidationError",
    ),
    "linear": (
        "CovStats",
        "LinearSemSpec",
        "bootstrap_se",
        "bootstrap_table_values",
        "bootstrap_values",
        "c0_error_prone_k",
        "c0_from_lambda",
        "c0_noiseless",
        "c0_two_indicator",
        "cov_from_samples",
        "lambda_from_error_variance",
        "lambda_from_two_indicators",
        "surrogate_slope",
    ),
    "mechanism": (
        "BinaryErrorParams",
        "ErrorMatrix",
        "component_mechanism",
    ),
    "restore": (
        "PropensityProfile",
        "RestorationResult",
        "causal_effect_restored",
        "propensity_profile",
        "pushforward",
        "restore_joint",
        "restored_propensity",
        "stratified_effect",
    ),
    "rng": ("make_rng",),
    "simulate": (
        "DiscreteModelSpec",
        "binary_spec",
        "naive_effect",
        "simulate_discrete",
        "simulate_linear",
    ),
    "tables": (
        "JointTable",
        "TableValidation",
        "adjust_for_confounder",
        "empirical_joint",
        "marginal",
        "validate_joint",
    ),
}
_SUBMODULES = (*_EXPORTS, "cli", "io")
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    if name in _ORIGIN:
        value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})


def _program_policy() -> None:
    """Process-wide settings of the program entry points, made before numpy loads.

    ``python -m effectrestore.cli`` and the ``effectrestore`` console
    script call this; importing the package or any submodule never does.
    After each BLAS call OpenBLAS's idle worker threads spin for 2^28
    cycles by default, holding a core that the bootstrap's count-drawing
    threads need; ``OPENBLAS_THREAD_TIMEOUT=4`` (2^4 cycles) lets them
    sleep at once.  A value the caller has set is kept.
    """
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")


def _console_main() -> int:
    """Target of the ``effectrestore`` console script."""
    _program_policy()
    from .cli import main

    return main()
