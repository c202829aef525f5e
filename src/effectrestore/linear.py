"""Identification of the treatment coefficient under a noisy linear proxy.

Structural model (zero-mean, no intercepts):

    X = c1 Z + e_X
    Y = c2 Z + c0 X + e_Y
    W = c3 Z + e_W          (the proxy; c3 and var(e_W) describe its error)
    V = c_v Z + e_V         (optional second indicator)

The pivotal quantity is lam = c3^2 var(Z), the squared-loading-times-
variance of the proxy.  It is never identified together with c3
separately, but it is all the adjustment needs:

    c0 = [cov(XY) - cov(XW) cov(WY) / lam] / [var(X) - cov^2(XW) / lam]

lam itself comes from one of two sources: an external assessment of the
error variance (lam = var(W) - var(e_W)), or a second independent
indicator V of Z, which identifies it from data alone as
lam = cov(XW) cov(WV) / cov(XV) (the covariance of the two W-edges over
the one that skips W).  In the noiseless limit lam = var(W) and the
formula collapses to the ordinary partial regression coefficient of X
adjusting for W; with noise there is no rescaling of W that makes plain
adjustment unbiased, which is why the lam-corrected form is needed.

All estimators accept either population moments (path-traced, n = 0) or
sample moments; standard errors for sample inputs come from a seeded
nonparametric bootstrap, since no closed-form variances are assumed.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .errors import (
    EffectRestoreError,
    InvalidErrorVarianceError,
    UnidentifiableError,
    ValidationError,
)
from .io import _json_fields
from .rng import make_rng

#: relative tolerance certifying a denominator as nonvanishing
TOL_DEN = 1e-9
#: default number of bootstrap resamples
DEFAULT_BOOTSTRAP = 1000
#: fewest rows a sample test or bootstrap standard error is computed from
MIN_ROWS = 10
#: cells of the one reused float64 count buffer of both bootstraps (16 MB): a
#: chunk holds this many // width resamples of width counts (n row counts, or a
#: table's cells), and at least one per fill thread
_COUNT_CELLS = 1 << 21

_PAIRS = (
    ("cov_xy", "var_x", "var_y"),
    ("cov_xw", "var_x", "var_w"),
    ("cov_yw", "var_y", "var_w"),
    ("cov_xv", "var_x", "var_v"),
    ("cov_yv", "var_y", "var_v"),
    ("cov_wv", "var_w", "var_v"),
)


@dataclass(frozen=True)
class CovStats:
    """Second moments of the observed variables X, Y, W and optionally V.

    ``n`` is the sample count behind the moments; 0 marks exact
    population values.  Only one triangle is stored; symmetry is by
    construction.
    """

    var_x: float
    var_y: float
    var_w: float
    cov_xy: float
    cov_xw: float
    cov_yw: float
    var_v: float | None = None
    cov_xv: float | None = None
    cov_yv: float | None = None
    cov_wv: float | None = None
    n: int = 0

    def __post_init__(self) -> None:
        for name in ("var_x", "var_y", "var_w", "var_v"):
            v = getattr(self, name)
            if v is None:
                continue
            if not math.isfinite(v) or v < 0.0:
                raise ValidationError(f"{name} must be a finite nonnegative real, got {v!r}")
        v_fields = (self.var_v, self.cov_xv, self.cov_yv, self.cov_wv)
        if any(f is not None for f in v_fields) and any(f is None for f in v_fields):
            raise ValidationError("either supply all V moments or none")
        for cov_name, va_name, vb_name in _PAIRS:
            cov = getattr(self, cov_name)
            if cov is None:
                continue
            if not math.isfinite(cov):
                raise ValidationError(f"{cov_name} must be finite")
            bound = getattr(self, va_name) * getattr(self, vb_name)
            if cov * cov > bound * (1.0 + 3e-9) + 1e-300:
                raise ValidationError(
                    f"|{cov_name}| = {abs(cov):.6g} exceeds the Cauchy-Schwarz bound "
                    f"{math.sqrt(max(bound, 0.0)):.6g}"
                )
        if self.n < 0:
            raise ValidationError("n must be >= 0")

    @property
    def has_v(self) -> bool:
        return self.var_v is not None

    def to_json_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}

    @classmethod
    def from_json_dict(cls, data: dict) -> "CovStats":
        return cls(**_json_fields(cls, data, "covariance-stats", integers=("n",)))


@dataclass(frozen=True)
class LinearSemSpec:
    """Ground-truth linear model used by the simulator and as an oracle.

    Path coefficients: c0 (X->Y), c1 (Z->X), c2 (Z->Y), c3 (Z->W) and
    optionally c_v (Z->V).  Exogenous variances: var_z, var_ex, var_ey
    must be strictly positive; the measurement noises var_ew / var_ev may
    be zero (a noiseless proxy).
    """

    c0: float
    c1: float
    c2: float
    c3: float
    var_z: float
    var_ex: float
    var_ey: float
    var_ew: float
    c_v: float | None = None
    var_ev: float | None = None

    def __post_init__(self) -> None:
        for name in ("c0", "c1", "c2", "c3", "c_v"):
            v = getattr(self, name)
            if v is not None and not math.isfinite(v):
                raise ValidationError(f"{name} must be finite")
        for name, strict in (
            ("var_z", True),
            ("var_ex", True),
            ("var_ey", True),
            ("var_ew", False),
            ("var_ev", False),
        ):
            v = getattr(self, name)
            if v is None:
                continue
            if not math.isfinite(v) or v < 0.0 or (strict and v <= 0.0):
                kind = "positive" if strict else "nonnegative"
                raise ValidationError(f"{name} must be a finite {kind} real, got {v!r}")
        if (self.c_v is None) != (self.var_ev is None):
            raise ValidationError("c_v and var_ev must be supplied together")

    @property
    def has_v(self) -> bool:
        return self.c_v is not None

    def population_cov(self) -> CovStats:
        """Exact population moments by path tracing (sums of products of
        path coefficients and variances along connecting paths).  Raises
        ValidationError when a moment is not a finite float64."""
        try:
            vz = self.var_z
            total_zy = self.c2 + self.c0 * self.c1  # total Z->Y effect
            var_x = self.c1**2 * vz + self.var_ex
            kwargs: dict = {}
            if self.has_v:
                kwargs = {
                    "var_v": self.c_v**2 * vz + self.var_ev,
                    "cov_xv": self.c1 * self.c_v * vz,
                    "cov_yv": total_zy * self.c_v * vz,
                    "cov_wv": self.c3 * self.c_v * vz,
                }
            return CovStats(
                var_x=var_x,
                var_y=total_zy**2 * vz + self.c0**2 * self.var_ex + self.var_ey,
                var_w=self.c3**2 * vz + self.var_ew,
                cov_xy=self.c0 * var_x + self.c1 * self.c2 * vz,
                cov_xw=self.c1 * self.c3 * vz,
                cov_yw=total_zy * self.c3 * vz,
                n=0,
                **kwargs,
            )
        except OverflowError as exc:  # a float power beyond float64's range
            raise ValidationError("population moments of this model overflow float64") from exc

    def to_json_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}

    @classmethod
    def from_json_dict(cls, data: dict) -> "LinearSemSpec":
        return cls(**_json_fields(cls, data, "linear-model"))


def _require_v(s: CovStats, what: str) -> None:
    if not s.has_v:
        raise ValidationError(f"{what} requires the second-indicator moments (V fields)")


def _check_den(den: float, scale: float, what: str) -> None:
    if abs(den) < TOL_DEN * max(scale, 1e-300):
        raise UnidentifiableError(f"{what} = {den:.3e} vanishes (relative to scale {scale:.3g})")


def lambda_from_two_indicators(s: CovStats) -> float:
    """c3^2 var(Z) from a second indicator: cov(XW) cov(WV) / cov(XV).

    The proxy W appears in both numerator covariances, so its loading
    enters squared while the other loadings cancel.
    """
    _require_v(s, "lambda_from_two_indicators")
    scale = math.sqrt(max(s.var_x * s.var_v, 0.0))
    _check_den(s.cov_xv, scale, "cov(XV)")
    return s.cov_xw * s.cov_wv / s.cov_xv


def lambda_from_error_variance(var_w: float, var_ew: float) -> float:
    """c3^2 var(Z) from an externally assessed error variance: var(W) - var(e_W).

    A constant proxy (var_w = 0) leaves every error variance without
    signal, which is a model error like any var_ew >= var_w.
    """
    if not math.isfinite(var_w) or var_w < 0.0:
        raise ValidationError(f"var_w must be nonnegative, got {var_w!r}")
    if not math.isfinite(var_ew) or var_ew < 0.0:
        raise InvalidErrorVarianceError(f"var_ew must be >= 0, got {var_ew!r}")
    if var_ew >= var_w:
        raise InvalidErrorVarianceError(
            f"var_ew = {var_ew:.6g} >= var_w = {var_w:.6g}: the postulated error "
            "variance leaves the proxy no signal"
        )
    return var_w - var_ew


def c0_from_lambda(s: CovStats, lam: float) -> float:
    """Treatment coefficient corrected for proxy error, given lam = c3^2 var(Z)."""
    if not math.isfinite(lam) or lam <= 0.0:
        raise ValidationError(f"lam must be positive, got {lam!r}")
    num = s.cov_xy - s.cov_xw * s.cov_yw / lam
    den = s.var_x - s.cov_xw**2 / lam
    _check_den(den, max(abs(s.var_x), s.cov_xw**2 / lam), "var(X) - cov^2(XW)/lam")
    return num / den


def c0_two_indicator(s: CovStats) -> float:
    """Treatment coefficient with lam estimated from the second indicator.

    Algebraically identical to composing :func:`c0_from_lambda` with
    :func:`lambda_from_two_indicators` (both sides multiplied through by
    cov(WV)):

        c0 = [cov(XY) cov(WV) - cov(YW) cov(XV)]
           / [var(X) cov(WV) - cov(XW) cov(XV)]
    """
    _require_v(s, "c0_two_indicator")
    num = s.cov_xy * s.cov_wv - s.cov_yw * s.cov_xv
    den = s.var_x * s.cov_wv - s.cov_xw * s.cov_xv
    _check_den(den, max(abs(s.var_x * s.cov_wv), abs(s.cov_xw * s.cov_xv)), "denominator")
    return num / den


def c0_noiseless(s: CovStats) -> float:
    """Partial regression coefficient of X adjusting for W (valid when the
    proxy is noiseless, i.e. lam = var(W))."""
    if s.var_x <= 0.0 or s.var_w <= 0.0:
        raise ValidationError("var_x and var_w must be positive")
    beta_yx = s.cov_xy / s.var_x
    beta_yw = s.cov_yw / s.var_w
    beta_wx = s.cov_xw / s.var_x
    beta_xw = s.cov_xw / s.var_w
    den = 1.0 - beta_xw * beta_wx
    _check_den(den, max(1.0, abs(beta_xw * beta_wx)), "1 - beta_xw beta_wx")
    return (beta_yx - beta_yw * beta_wx) / den


def c0_error_prone_k(
    beta_yx: float, beta_yw: float, beta_wx: float, beta_xw: float, k: float
) -> float:
    """Error-prone form of the partial coefficient, written in regression
    slopes and the reliability ratio k = 1 - var(e_W)/var(W).

    k = 1 reproduces the noiseless partial regression coefficient; the
    general form equals :func:`c0_from_lambda` with lam = k var(W).
    """
    if not math.isfinite(k) or not 0.0 < k <= 1.0:
        raise ValidationError(f"k must lie in (0, 1], got {k!r}")
    den = 1.0 - beta_xw * beta_wx / k
    _check_den(den, max(1.0, abs(beta_xw * beta_wx / k)), "1 - beta_xw beta_wx / k")
    return (beta_yx - beta_yw * beta_wx / k) / den


def surrogate_slope(s: CovStats, lam: float) -> float:
    """Identifiable part of the best-linear-estimate slope of Z given W.

    The raw slope cov(ZW)/var(W) involves the unidentified loading c3;
    what the data pin down is lam / var(W), the reliability-type ratio
    equal to k = 1 - var(e_W)/var(W) when lam comes from the error
    variance.
    """
    if s.var_w <= 0.0:
        raise ValidationError("var_w must be positive")
    if not math.isfinite(lam):
        raise ValidationError("lam must be finite")
    return lam / s.var_w


def cov_from_samples(rows: np.ndarray) -> CovStats:
    """Unbiased sample moments (divisor n-1) for columns (x, y, w[, v])."""
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2 or arr.shape[1] not in (3, 4):
        raise ValidationError(f"rows must have shape (n, 3) or (n, 4), got {arr.shape}")
    n = arr.shape[0]
    if n < 2:
        raise ValidationError(f"need at least 2 rows to estimate covariances, got {n}")
    cov = np.cov(arr.T, ddof=1)
    if np.any(np.diag(cov) == 0.0):
        which = [("x", "y", "w", "v")[i] for i in np.nonzero(np.diag(cov) == 0.0)[0]]
        warnings.warn(
            f"column(s) {which} are constant: zero variance", RuntimeWarning, stacklevel=2
        )
    kwargs: dict = {}
    if arr.shape[1] == 4:
        kwargs = {
            "var_v": float(cov[3, 3]),
            "cov_xv": float(cov[0, 3]),
            "cov_yv": float(cov[1, 3]),
            "cov_wv": float(cov[2, 3]),
        }
    return CovStats(
        var_x=float(cov[0, 0]),
        var_y=float(cov[1, 1]),
        var_w=float(cov[2, 2]),
        cov_xy=float(cov[0, 1]),
        cov_xw=float(cov[0, 2]),
        cov_yw=float(cov[1, 2]),
        n=n,
        **kwargs,
    )


def bootstrap_values(
    rows: np.ndarray,
    statistic: Callable[[CovStats], float],
    *,
    n_boot: int = DEFAULT_BOOTSTRAP,
    seed: int = 0,
) -> np.ndarray:
    """Moment statistic on every row resample where it is defined.

    Resample b draws n row indices with replacement from stream b of
    ``seed`` (``make_rng(seed, b)``), so the resamples do not depend on
    how they are grouped.  Their moments come from row counts: each
    chunk of resamples fills a reused count buffer, which is multiplied
    once by the columns, centered at the full-sample mean, stacked with
    their pairwise products.  The counts of a chunk are drawn on one
    thread per core this process may run on, each filling a contiguous
    slice of the buffer's rows from generators built on the calling
    thread; the matrix product, the moments and the statistic stay on
    the calling thread.  Each row depends only on its own stream and the
    chunk shapes only on n, n_boot and the buffer size, so the values
    are the same bits whatever the number of threads.

    A column that is constant on a resample leaves rounding noise of
    either sign as its variance; so when a column's sum of squares about
    the resample mean is within ``TOL_DEN`` of its sum of squares about
    the full-sample mean, its variance and covariances are set to
    exactly zero, and the statistic decides what a constant column
    means.  A resample on which the statistic raises a model error (any
    EffectRestoreError but ValidationError) is counted as undefined and
    skipped; the values of the others are returned in resample order.

    Raises ValidationError below ``MIN_ROWS`` rows or for n_boot < 2, and
    UnidentifiableError when the statistic is undefined on more than half
    of the resamples or fewer than two remain.
    """
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2 or arr.shape[1] not in (3, 4):
        raise ValidationError(f"rows must have shape (n, 3) or (n, 4), got {arr.shape}")
    n, k = arr.shape
    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    names = "xywv"
    fields = [f"var_{names[i]}" if i == j else f"cov_{names[i]}{names[j]}" for i, j in pairs]
    left, right = (np.array(side) for side in zip(*pairs))
    diag = [pairs.index((i, i)) for i in range(k)]
    centered = arr - arr.mean(axis=0)
    stacked = np.column_stack([centered, centered[:, left] * centered[:, right]])

    def defined(block: np.ndarray) -> list:
        sums = block @ stacked
        mean = sums[:, :k] / n
        cov = (sums[:, k:] - n * mean[:, left] * mean[:, right]) / (n - 1)
        about_full_mean = sums[:, k:][:, diag]
        constant = cov[:, diag] * (n - 1) <= TOL_DEN * about_full_mean
        cov[constant[:, left] | constant[:, right]] = 0.0
        values = []
        for moments in cov.tolist():
            resample = CovStats(**dict(zip(fields, moments)), n=n)
            try:
                values.append(statistic(resample))
            except ValidationError:
                raise
            except EffectRestoreError:
                continue
        return values

    return _resampled(
        n, n_boot, seed, n, lambda g: np.bincount(g.integers(0, n, size=n), minlength=n),
        defined, threads=_fill_workers(),
    )


def _fill_workers() -> int:
    """Threads that draw resample counts: one per core this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _fill_counts(block: np.ndarray, gens: list, draw: Callable, workers: int) -> None:
    """Row r of ``block`` becomes ``draw(gens[r])``.

    The rows are split into at most ``workers`` contiguous slices; the
    calling thread fills the first and one new thread each of the others
    (numpy releases the GIL while drawing).  Every thread is joined
    before this returns or raises, and a fault in any of them is raised
    here.
    """
    m = block.shape[0]
    faults: list[BaseException] = []

    def fill(rows: range) -> None:
        try:
            for r in rows:
                block[r] = draw(gens[r])
        except BaseException as exc:  # re-raised on the calling thread
            faults.append(exc)

    parts = min(workers, m)
    slices = [range(m * i // parts, m * (i + 1) // parts) for i in range(parts)]
    threads = [threading.Thread(target=fill, args=(rows,)) for rows in slices[1:]]
    try:
        for t in threads:
            t.start()
        fill(slices[0])
    finally:
        for t in threads:
            if t.ident is not None:
                t.join()
    if faults:
        raise faults[0]


def bootstrap_table_values(
    p: np.ndarray,
    n: int,
    statistic: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    *,
    n_boot: int = DEFAULT_BOOTSTRAP,
    seed: int = 0,
) -> np.ndarray:
    """Statistic on every multinomial resample of a frequency table where
    it is defined: the table counterpart of :func:`bootstrap_values`.

    Resample b draws n records over the cells of ``p`` (cell
    probabilities, any shape) from stream b of ``seed``
    (``make_rng(seed, b).multinomial(n, p)``), as frequencies in the
    shape of ``p``.  The resamples are drawn on the calling thread into
    the count buffer of both bootstraps, in chunks of at most
    ``_COUNT_CELLS`` cells (at least one resample a chunk), and the
    statistic is called once per chunk: it gets the (B, *p.shape) chunk
    and returns its values, one row per resample, and a boolean mask of
    the resamples on which it is defined.  The defined values are
    returned in resample order; what the statistic raises propagates.

    Raises ValidationError below ``MIN_ROWS`` records or for n_boot < 2,
    and UnidentifiableError when the statistic is undefined on more than
    half of the resamples or fewer than two remain.
    """
    p = np.asarray(p, dtype=float)
    flat = p.ravel()

    def defined(counts: np.ndarray) -> list:
        values, mask = statistic((counts / n).reshape(-1, *p.shape))
        return list(np.asarray(values, dtype=float)[np.asarray(mask, dtype=bool)])

    return _resampled(n, n_boot, seed, flat.size, lambda g: g.multinomial(n, flat), defined,
                      threads=1)


def _resampled(n: int, n_boot: int, seed: int, width: int, draw: Callable, defined: Callable,
               *, threads: int) -> np.ndarray:
    """The one resampling driver: the values ``defined`` keeps of ``n_boot``
    resamples of ``n`` records, in resample order.

    Row r of a chunk of the reused count buffer (see ``_COUNT_CELLS``)
    becomes resample b = start + r, the ``width`` counts
    ``draw(make_rng(seed, b))``, filled on up to ``threads`` threads; then
    ``defined`` gets the chunk on the calling thread and returns the
    values of its resamples on which the statistic is defined.  The
    errors are those of both bootstraps, and the skip verdict is here.
    """
    if n < MIN_ROWS:
        raise ValidationError(
            f"need at least {MIN_ROWS} rows for a bootstrap standard error, got {n}"
        )
    if n_boot < 2:
        raise ValidationError("n_boot must be >= 2")
    counts = np.empty((min(n_boot, max(threads, _COUNT_CELLS // max(width, 1))), width))
    kept: list = []
    for start in range(0, n_boot, counts.shape[0]):
        block = counts[: min(counts.shape[0], n_boot - start)]
        gens = [make_rng(seed, start + r) for r in range(block.shape[0])]
        _fill_counts(block, gens, draw, threads)
        kept += defined(block)
    used = len(kept)
    if used < 2 or 2 * used < n_boot:
        raise UnidentifiableError(
            f"statistic undefined on {n_boot - used} of {n_boot} bootstrap resamples "
            f"(used {used}/{n_boot}); its standard error is not estimable"
        )
    return np.asarray(kept, dtype=float)


def bootstrap_se(
    rows: np.ndarray,
    statistic: Callable[[CovStats], float],
    *,
    n_boot: int = DEFAULT_BOOTSTRAP,
    seed: int = 0,
) -> float:
    """Nonparametric bootstrap standard error of a moment statistic.

    The standard deviation of :func:`bootstrap_values` (same arguments,
    same failures) across the resamples on which the statistic is
    defined.
    """
    return float(np.std(bootstrap_values(rows, statistic, n_boot=n_boot, seed=seed), ddof=1))
