"""Surrogate tests of latent-confounder independence through a noisy proxy.

When a latent Z d-separates X and Y, plain vanishing of the partial
correlation of X and Y given the proxy W is the wrong test: the proxy's
noise leaks association.  The corrected constraint is

    cov(XY) = cov(XW) cov(WY) / lam,        lam = c^2 var(Z) = var(W) - var(e_W)

whose residual this module tests directly (``linear.theorem1_residual``,
the numerator of the corrected c0), in tetrad form when lam is estimated
from a second indicator, and as a regression-style two-stage test on raw
samples:

    1. obtain alpha = var(W) - var(e_W) externally (pilot study or
       auxiliary proxies),
    2-4. build fictitious regressors V_i = X_i - (cov(XW)/alpha) W_i,
    5. least-squares fit Y_i = a V_i + e_i,
    6. accept the missing X-Y edge when a vanishes within confidence.

The fitted ``a`` is the sample analogue of cov[Y (X - W cov(XW)/alpha)],
a rescaling of the same residual, so the two routes test one constraint.
The significance test is a large-sample normal test with
heteroscedasticity-robust standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ValidationError
from .linear import (
    DEFAULT_BOOTSTRAP,
    MIN_ROWS,
    CovStats,
    _check_den,
    _require_v,
    _rows,
    _variance,
    bootstrap_se,
    cov_from_samples,
    theorem1_residual,
)

DEFAULT_LEVEL = 0.05


@dataclass(frozen=True)
class TestResult:
    """Outcome of one constraint test; ``decision`` is "reject" when
    ``p_value < level``, else "accept"."""

    __test__ = False  # not a pytest class, despite the name

    method: str
    statistic: float
    stderr: float
    p_value: float
    level: float
    decision: str = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_value <= 1.0:
            raise ValidationError(f"p_value must lie in [0, 1], got {self.p_value!r}")
        if self.stderr < 0.0:
            raise ValidationError("stderr must be >= 0")
        object.__setattr__(self, "decision", "reject" if self.p_value < self.level else "accept")

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "statistic": float(self.statistic),
            "stderr": float(self.stderr),
            "p_value": float(self.p_value),
            "level": float(self.level),
            "decision": self.decision,
        }


def _two_sided_p(z: float) -> float:
    return math.erfc(abs(z) / math.sqrt(2.0))


def _check_level(name: str, level: float) -> None:
    """A test's level lies in (0, 1); each test checks it before it reads a row."""
    if not 0.0 < level < 1.0:
        raise ValidationError(f"{name} must lie in (0, 1), got {level!r}")


def _make_result(method: str, statistic: float, stderr: float, level: float) -> TestResult:
    if stderr > 0.0:
        p = _two_sided_p(statistic / stderr)
    else:
        p = 1.0 if statistic == 0.0 else 0.0
    return TestResult(
        method=method,
        statistic=float(statistic),
        stderr=float(stderr),
        p_value=float(p),
        level=float(level),
    )


def tetrad_residual(s: CovStats) -> float:
    """Second-indicator form of the residual: cov(XY) - cov(WY) cov(XV) / cov(WV).

    Exactly the composition of :func:`theorem1_residual` with the
    two-indicator estimate of lam; a vanishing-determinant constraint
    among four covariances.
    """
    _require_v(s, "tetrad_residual")
    _check_den(s.cov_wv, math.sqrt(max(s.var_w * s.var_v, 0.0)), "cov(WV)")
    return s.cov_xy - s.cov_yw * s.cov_xv / s.cov_wv


def two_stage_test(
    rows: np.ndarray, alpha_param: float, *, level: float = DEFAULT_LEVEL
) -> TestResult:
    """Six-step fictitious-sample test of the missing X-Y edge.

    ``alpha_param`` is the externally supplied var(W) - var(e_W).  The
    coefficient of the fit on mean-centered variables is
    cov(Y, V)/var(V) with V = X - (cov(XW)/alpha) W, so its population
    value vanishes exactly when the constraint holds.

    The reported standard error is the heteroscedasticity-robust
    sandwich for the *two-step* estimator: since cov(XW) is estimated
    from the same rows, the regressor carries first-stage noise of the
    same order as the regression noise, and the influence of the fitted
    coefficient picks up an extra -cov(YW)/alpha * (x w) term.  Ignoring
    it understates the variance and over-rejects under the null.  ``rows``
    is a sample of at least ``MIN_ROWS`` rows, as ``linear`` reads them.
    """
    _check_level("level", level)
    _variance("alpha_param", alpha_param, positive=True)
    arr = _rows(rows, MIN_ROWS, "for the two-stage test")
    n = arr.shape[0]
    x, y, w = arr[:, 0], arr[:, 1], arr[:, 2]
    xc = x - x.mean()
    yc = y - y.mean()
    wc = w - w.mean()
    c1 = float(xc @ wc) / (n - 1)
    vc = xc - (c1 / alpha_param) * wc
    svv = float(vc @ vc) / (n - 1)
    scale = (float(xc @ xc) + (c1 / alpha_param) ** 2 * float(wc @ wc)) / (n - 1)
    _check_den(svv, scale, "var(X - (cov(XW)/alpha) W)")
    target = float(vc @ yc) / (n - 1)  # cov(Y, V) = the constraint residual
    a = target / svv
    s_yw = float(yc @ wc) / (n - 1)
    influence = yc * vc - (s_yw / alpha_param) * (xc * wc)
    var_target = float(np.var(influence, ddof=1)) / n
    stderr = math.sqrt(var_target) / svv
    return _make_result("two_stage", a, stderr, level)


def _residual_test(method: str, residual: Callable[[CovStats], float], rows: np.ndarray,
                   level: float, n_boot: int, seed: int) -> TestResult:
    """The bootstrap test of a moment residual: its value at the sample's
    moments, over its standard error across row resamples."""
    _check_level("level", level)
    stat = residual(cov_from_samples(rows))
    se = bootstrap_se(rows, residual, n_boot=n_boot, seed=seed)
    return _make_result(method, stat, se, level)


def theorem1_test(
    rows: np.ndarray,
    lam: float,
    *,
    level: float = DEFAULT_LEVEL,
    n_boot: int = DEFAULT_BOOTSTRAP,
    seed: int = 0,
) -> TestResult:
    """Residual test on samples, with a bootstrap standard error; lam is judged first."""
    _variance("lam", lam, positive=True)
    return _residual_test("theorem1", lambda s: theorem1_residual(s, lam), rows, level, n_boot,
                          seed)


def tetrad_test(
    rows: np.ndarray,
    *,
    level: float = DEFAULT_LEVEL,
    n_boot: int = DEFAULT_BOOTSTRAP,
    seed: int = 0,
) -> TestResult:
    """Tetrad-form residual test on samples, with a bootstrap standard error."""
    return _residual_test("tetrad", tetrad_residual, rows, level, n_boot, seed)
