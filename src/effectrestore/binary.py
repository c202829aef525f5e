"""Closed-form effect restoration when X, Y, Z, W are all binary.

With misclassification rates eps = P(w0|z1) and delta = P(w1|z0), the
2x2 mechanism inverts in closed form (``restore_binary`` is the general
``restore_joint`` applied to that 2x2 matrix):

    P(x,y,z0) = [(1-eps) P(x,y) - P(x,y,w1)] / (1 - eps - delta)
    P(x,y,z1) = [P(x,y,w1) - delta P(x,y)] / (1 - eps - delta)

Each (x, y) pair of proxy cells splits its combined weight P(x,y) between
the two latent cells; the split ratio P(z1|x,y)/P(z0|x,y) is a monotone
function of the observed fraction P(w1|x,y), exactly 0 at delta and
infinite at 1 - eps.  A fraction outside [delta, 1-eps] restores to a
negative cell; every function here leaves the verdict to
``restore._finalize``, which refuses a table whose rates contradict it.

``causal_effect_binary`` evaluates the effect in one pass over observed
quantities only (it is algebraically the restoration composed with
confounder adjustment, and agrees with that composition to rounding
error); with eps = delta = 0 it reduces to standard inverse probability
weighting, and the extra factors are exactly the weight modifiers that a
noisy proxy demands.  ``causal_effect_binary_infinitesimal`` is its
first-order expansion in (eps, delta), accurate to second order.

For K independent binary proxy components, ``synthesize_samples`` turns
observed (x, y, w) records into latent (x, y, z) records: each
component's split restores its empirical (x, y, w_i) frequency table,
and each record keeps its own reading by drawing z from the posterior
given w, so the noiseless mechanism reproduces the input exactly while
group-level frequencies reproduce the restored distribution.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateDenominatorError, ValidationError
from .mechanism import BinaryErrorParams, ErrorMatrix
from .restore import TOL_INCOMPATIBLE, TOL_VANISHING, _finalize, restore_joint
from .rng import _uniform_row_blocks, make_rng
from .tables import JointTable

__all__ = [
    "restore_binary",
    "weight_split",
    "causal_effect_binary",
    "causal_effect_binary_infinitesimal",
    "synthesize_samples",
]


def _require_binary(table: JointTable) -> np.ndarray:
    if table.cells.shape != (2, 2, 2):
        raise ValidationError(
            f"binary operations need a 2x2x2 table, got {table.cells.shape}"
        )
    return table.cells


def restore_binary(
    observed: JointTable, err: BinaryErrorParams, *, clip: bool = False
) -> JointTable:
    """Latent binary joint P(x, y, z) from the observed P(x, y, w).

    This is ``restore_joint`` on the 2x2 mechanism, so it shares its
    negative-mass policy: total negative mass up to
    ``restore.TOL_INCOMPATIBLE`` is clipped as numerical noise, anything
    larger raises IncompatibleModelError unless ``clip`` forces the repair.
    """
    _require_binary(observed)
    return restore_joint(observed, ErrorMatrix.from_binary(err), clip=clip).restored


def _restore_slices(mass: np.ndarray, w1: np.ndarray, err: BinaryErrorParams, where: str = "",
                    *, n: float = 1.0, warn: bool = True) -> np.ndarray:
    """Latent P(x, y, z) of the (x, y) slices of proxy mass ``mass`` and w1
    cell ``w1`` (counts out of ``n``), restored in closed form and passed to
    ``restore._finalize``, whose messages name ``where``; a clipped table
    is reported in a RuntimeWarning unless ``warn`` is false."""
    raw = np.stack(((1.0 - err.eps) * mass - w1, w1 - err.delta * mass), axis=-1)
    raw /= err.determinant * n
    cells, negative_mass, clipped = _finalize(raw, clip=False, where=where)
    if clipped and warn:
        warnings.warn(f"clipped the restored table{where}; its negative mass "
                      f"{negative_mass:.3e} is within the tolerance {TOL_INCOMPATIBLE:.1e}",
                      RuntimeWarning, stacklevel=3)
    return cells


def weight_split(p_w1_given_xy: float, err: BinaryErrorParams) -> float:
    """Latent odds P(z1|x,y) / P(z0|x,y) implied by the observed fraction.

    Strictly increasing on (delta, 1-eps); returns 0 at the lower
    endpoint and math.inf at the upper one (all weight moves to the z1
    cell).  The slice (1-p, p) is restored as ``restore_binary`` restores
    a table of that one slice: a fraction outside [delta, 1-eps] is
    clipped to the nearer end with a RuntimeWarning, or refused, as there.
    """
    p = float(p_w1_given_xy)
    if not math.isfinite(p):
        raise ValidationError(f"p_w1_given_xy must be finite, got {p!r}")
    cells = _restore_slices(np.ones((1, 1)), np.full((1, 1), p), err, f" for P(w1|x,y) = {p!r}")
    z0, z1 = cells[0, 0].tolist()
    return math.inf if z0 == 0.0 else z1 / z0


@dataclass(frozen=True)
class _Term:
    """Observed ingredients of one w-branch of the closed form."""

    cell: float        # P(x, y, w)
    x_given_w: float   # P(x | w)
    w_given_xy: float  # P(w | x, y)
    w_marg: float      # P(w)
    w_given_x: float   # P(w | x)
    rate: float        # the misclassification rate paired with this branch


def _nonvanishing(*named: tuple[str, float]) -> None:
    for name, value in named:
        if abs(value) < TOL_VANISHING:
            raise DegenerateDenominatorError(f"{name} = {value:.3e} vanishes")


def _terms(p: np.ndarray, err: BinaryErrorParams, x: int, y: int) -> tuple[_Term, _Term]:
    if x not in (0, 1) or y not in (0, 1):
        raise ValidationError(f"x and y must be 0 or 1, got x={x}, y={y}")
    p_w = p.sum(axis=(0, 1))
    p_x = p.sum(axis=(1, 2))
    p_xw = p.sum(axis=1)
    p_xy = p.sum(axis=2)
    _nonvanishing(("P(w1)", p_w[1]), ("P(w0)", p_w[0]), (f"P(x={x})", p_x[x]),
                  (f"P(x={x},y={y})", p_xy[x, y]))
    terms = []
    for w, rate in ((1, err.delta), (0, err.eps)):
        t = _Term(
            cell=float(p[x, y, w]),
            x_given_w=float(p_xw[x, w] / p_w[w]),
            w_given_xy=float(p[x, y, w] / p_xy[x, y]),
            w_marg=float(p_w[w]),
            w_given_x=float(p_xw[x, w] / p_x[x]),
            rate=float(rate),
        )
        _nonvanishing((f"P(x={x}|w{w})", t.x_given_w), (f"P(w{w}|x={x},y={y})", t.w_given_xy))
        if abs(t.w_given_x) < TOL_VANISHING or abs(1.0 - t.rate / t.w_given_x) < TOL_VANISHING:
            raise DegenerateDenominatorError(
                f"bracket denominator 1 - rate/P(w{w}|x={x}) vanishes "
                f"(P(w{w}|x={x}) = {t.w_given_x:.3e}, rate = {t.rate:.3g}): "
                f"the restored stratum P(x={x}, z{w}) is empty"
            )
        terms.append(t)
    # the closed form is restoration composed with adjustment, so once its
    # denominators are known not to vanish it refuses what restoration
    # refuses; it reads the observed cells, not the clipped restored ones
    _restore_slices(p_xy, p[:, :, 1], err, warn=False)
    return terms[0], terms[1]


def causal_effect_binary(observed: JointTable, err: BinaryErrorParams, x: int, y: int) -> float:
    """P(y | do(x)) for binary data, straight from observed quantities.

    Modified inverse probability weighting: each w-branch of the standard
    IPW sum P(x,y,w)/P(x|w) is multiplied by correction factors built
    from the misclassification rate paired with that branch, and the
    whole sum is rescaled by 1/(1 - eps - delta), which ``err`` keeps
    away from zero by construction.  Raises IncompatibleModelError where
    ``restore_binary`` does: when the rates contradict the data.
    """
    total = sum(
        (t.cell / t.x_given_w) * (1.0 - t.rate / t.w_given_xy) * (1.0 - t.rate / t.w_marg)
        / (1.0 - t.rate / t.w_given_x)
        for t in _terms(_require_binary(observed), err, x, y)
    )
    return total / err.determinant


def causal_effect_binary_infinitesimal(
    observed: JointTable, err: BinaryErrorParams, x: int, y: int
) -> float:
    """First-order (in eps and delta) approximation of the binary effect.

    Expanding each branch of the exact form around eps = delta = 0 gives

        P(x,y,w1)/P(x|w1) * [1 + eps + delta (1 - 1/P(w1|x,y) - 1/P(w1) + 1/P(w1|x))]
      + P(x,y,w0)/P(x|w0) * [1 + delta + eps (1 - 1/P(w0|x,y) - 1/P(w0) + 1/P(w0|x))]

    which coincides with the exact value at eps = delta = 0 and deviates
    from it by O((eps + delta)^2).  Refuses rates that contradict the data
    as ``causal_effect_binary`` does.
    """
    t1, t0 = _terms(_require_binary(observed), err, x, y)
    total = 0.0
    for t, other_rate in ((t1, err.eps), (t0, err.delta)):
        correction = 1.0 + other_rate + t.rate * (
            1.0 - 1.0 / t.w_given_xy - 1.0 / t.w_marg + 1.0 / t.w_given_x
        )
        total += (t.cell / t.x_given_w) * correction
    return total


def synthesize_samples(
    samples: np.ndarray, errs: Sequence[BinaryErrorParams], seed: int
) -> np.ndarray:
    """Latent (x, y, z_1..z_K) records mirroring observed (x, y, w_1..w_K) ones.

    Component i's split R_i(x, y, z_i) restores its empirical frequency
    table P_i(x, y, w_i) as ``restore_binary`` would, so it is clipped
    with a RuntimeWarning or refused as there, naming the component.  A
    record with reading w_i draws z_i from the posterior given w_i,

        P(z_i=1 | x, y, w_i) = M_i(w_i, 1) R_i(x, y, 1) / P_i(x, y, w_i)

    with M_i the component's 2x2 mechanism.  Averaged over an (x, y) group
    this reproduces R_i exactly, and with eps_i = delta_i = 0 every record
    keeps z_i = w_i.  Deterministic given ``seed``: one uniform per (record,
    component), consumed in record-major order as ``rng.random((n, K))``
    would draw them.  They are drawn in row blocks that concatenate to
    exactly that block and are written straight into the int64 output, so
    the working memory is the output plus one block of about 2^16 values.
    """
    arr = np.asarray(samples)
    k = len(errs)
    if k == 0:
        raise ValidationError("need at least one proxy component")
    if arr.ndim != 2 or arr.shape[1] != 2 + k:
        raise ValidationError(
            f"samples must have shape (n, {2 + k}) for {k} component(s), got {arr.shape}"
        )
    if arr.size and not ((arr == 0) | (arr == 1)).all():
        raise ValidationError("sample values must be 0/1")
    n = arr.shape[0]
    out = arr.astype(np.int64)
    xy = out[:, 0] * 2 + out[:, 1]
    sizes = np.bincount(xy, minlength=4).reshape(2, 2).astype(float)
    for cx, cy in zip(*np.nonzero(sizes == 0.0)):
        warnings.warn(f"no samples in group (x={cx}, y={cy}); nothing to synthesize there",
                      RuntimeWarning, stacklevel=2)
    # P(z_i = 1 | group, w_i), indexed [group, i, w_i]
    post = np.zeros((4, k, 2))
    for i, err in enumerate(errs):
        ones = np.bincount(xy, weights=out[:, 2 + i], minlength=4).reshape(2, 2)
        restored = _restore_slices(sizes, ones, err, f" for component {i}", n=max(n, 1))
        observed = np.stack((sizes - ones, ones), axis=-1) / max(n, 1)
        joint = err.matrix()[:, 1] * restored[:, :, 1:]  # P_i(x, y, w_i, z_i = 1)
        post[:, i] = np.divide(joint, observed, out=np.zeros_like(joint),
                               where=observed > 0.0).reshape(4, 2)
    components = np.arange(k)
    for start, u in _uniform_row_blocks(make_rng(seed), n, k):
        stop = start + u.shape[0]
        w = out[start:stop, 2:]
        w[...] = u < post[xy[start:stop, None], components, w]
    return out
