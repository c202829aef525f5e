"""Closed-form effect restoration when X, Y, Z, W are all binary.

With misclassification rates eps = P(w0|z1) and delta = P(w1|z0), the
2x2 mechanism inverts in closed form (``restore_binary`` is the general
``restore_joint`` applied to that 2x2 matrix):

    P(x,y,z0) = [(1-eps) P(x,y,w0) - eps P(x,y,w1)] / (1 - eps - delta)
    P(x,y,z1) = [-delta P(x,y,w0) + (1-delta) P(x,y,w1)] / (1 - eps - delta)

Each (x, y) pair of proxy cells splits its combined weight between the
two latent cells; the split ratio P(z1|x,y)/P(z0|x,y) is a monotone
function of the observed fraction P(w1|x,y), pinned to 0 at delta and
diverging at 1 - eps.  Observed fractions outside [delta, 1-eps] mean
the postulated rates contradict the data.

``causal_effect_binary`` evaluates the effect in one pass over observed
quantities only (it is algebraically the restoration composed with
confounder adjustment, and agrees with that composition to rounding
error); with eps = delta = 0 it reduces to standard inverse probability
weighting, and the extra factors are exactly the weight modifiers that a
noisy proxy demands.  ``causal_effect_binary_infinitesimal`` is its
first-order expansion in (eps, delta), accurate to second order.

For K independent binary proxy components, ``synthesize_samples`` turns
observed (x, y, w) records into latent (x, y, z) records: within each
(x, y) group the component split uses the group's empirical frequency,
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

from .errors import DegenerateDenominatorError, IncompatibleModelError, ValidationError
from .mechanism import BinaryErrorParams, ErrorMatrix
from .restore import TOL_VANISHING, restore_joint
from .rng import make_rng
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


def weight_split(p_w1_given_xy: float, err: BinaryErrorParams) -> float:
    """Latent odds P(z1|x,y) / P(z0|x,y) implied by the observed fraction.

    Strictly increasing on (delta, 1-eps); returns 0 at the lower
    endpoint and math.inf at the upper one (all weight moves to the z1
    cell).  Fractions outside [delta, 1-eps] are incompatible with the
    postulated rates.
    """
    p = float(p_w1_given_xy)
    if not math.isfinite(p):
        raise ValidationError(f"p_w1_given_xy must be finite, got {p!r}")
    if p < err.delta or p > 1.0 - err.eps:
        raise IncompatibleModelError(
            f"P(w1|x,y) = {p:.6g} lies outside [delta, 1-eps] = "
            f"[{err.delta:.6g}, {1.0 - err.eps:.6g}]: observed data and "
            "postulated error rates are incompatible"
        )
    if p == 1.0 - err.eps:
        return math.inf
    return (p - err.delta) / (1.0 - err.eps - p)


@dataclass(frozen=True)
class _Term:
    """Observed ingredients of one w-branch of the closed form."""

    cell: float        # P(x, y, w)
    x_given_w: float   # P(x | w)
    w_given_xy: float  # P(w | x, y)
    w_marg: float      # P(w)
    w_given_x: float   # P(w | x)
    rate: float        # the misclassification rate paired with this branch


def _terms(p: np.ndarray, err: BinaryErrorParams, x: int, y: int) -> tuple[_Term, _Term]:
    if x not in (0, 1) or y not in (0, 1):
        raise ValidationError(f"x and y must be 0 or 1, got x={x}, y={y}")
    p_w = p.sum(axis=(0, 1))
    p_x = p.sum(axis=(1, 2))
    p_xw = p.sum(axis=1)
    p_xy = p.sum(axis=2)
    checks = {
        "P(w1)": p_w[1],
        "P(w0)": p_w[0],
        f"P(x={x})": p_x[x],
        f"P(x={x},y={y})": p_xy[x, y],
    }
    for name, value in checks.items():
        if abs(value) < TOL_VANISHING:
            raise DegenerateDenominatorError(f"{name} = {value:.3e} vanishes")
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
        if abs(t.x_given_w) < TOL_VANISHING:
            raise DegenerateDenominatorError(f"P(x={x}|w{w}) = {t.x_given_w:.3e} vanishes")
        if abs(t.w_given_xy) < TOL_VANISHING:
            raise DegenerateDenominatorError(
                f"P(w{w}|x={x},y={y}) = {t.w_given_xy:.3e} vanishes"
            )
        bracket = 1.0 - t.rate / t.w_given_x if abs(t.w_given_x) >= TOL_VANISHING else 0.0
        if abs(t.w_given_x) < TOL_VANISHING or abs(bracket) < TOL_VANISHING:
            raise DegenerateDenominatorError(
                f"bracket denominator 1 - rate/P(w{w}|x={x}) vanishes "
                f"(P(w{w}|x={x}) = {t.w_given_x:.3e}, rate = {t.rate:.3g}): "
                f"the restored stratum P(x={x}, z{w}) is empty"
            )
        terms.append(t)
    return terms[0], terms[1]


def causal_effect_binary(observed: JointTable, err: BinaryErrorParams, x: int, y: int) -> float:
    """P(y | do(x)) for binary data, straight from observed quantities.

    Modified inverse probability weighting: each w-branch of the standard
    IPW sum P(x,y,w)/P(x|w) is multiplied by correction factors built
    from the misclassification rate paired with that branch, and the
    whole sum is rescaled by 1/(1 - eps - delta), which ``err`` keeps
    away from zero by construction.
    """
    p = _require_binary(observed)
    t1, t0 = _terms(p, err, x, y)
    total = 0.0
    for t in (t1, t0):
        total += (
            (t.cell / t.x_given_w)
            * (1.0 - t.rate / t.w_given_xy)
            * (1.0 - t.rate / t.w_marg)
            / (1.0 - t.rate / t.w_given_x)
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
    from it by O((eps + delta)^2).
    """
    p = _require_binary(observed)
    t1, t0 = _terms(p, err, x, y)
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

    Within each (x, y) group, component i's split uses the group's
    empirical frequency q_i = mean(w_i); a record with reading w_i draws
    z_i from the posterior of the restored split given w_i:

        P(z_i=1 | w_i=1) = (1-eps_i) r_i / q_i
        P(z_i=1 | w_i=0) = eps_i r_i / (1 - q_i)

    with r_i = (q_i - delta_i) / (1 - eps_i - delta_i) the restored
    frequency.  Averaged over the group this reproduces r_i exactly, and
    with eps_i = delta_i = 0 every record keeps z_i = w_i.  Frequencies
    outside [delta_i, 1-eps_i] raise IncompatibleModelError naming the
    component.  Deterministic given ``seed``: one uniform per (record,
    component), consumed in record-major order.
    """
    arr = np.asarray(samples)
    k = len(errs)
    if k == 0:
        raise ValidationError("need at least one proxy component")
    if arr.ndim != 2 or arr.shape[1] != 2 + k:
        raise ValidationError(
            f"samples must have shape (n, {2 + k}) for {k} component(s), got {arr.shape}"
        )
    if arr.size and not np.isin(arr, (0, 1)).all():
        raise ValidationError("sample values must be 0/1")
    n = arr.shape[0]
    u = make_rng(seed).random((n, k))
    out = arr.astype(int)
    xy = out[:, 0] * 2 + out[:, 1]
    sizes = np.bincount(xy, minlength=4)
    ones = [np.bincount(xy, weights=out[:, 2 + i], minlength=4) for i in range(k)]
    # P(z_i = 1 | group, w_i), indexed [group, i, w_i]
    post = np.zeros((4, k, 2))
    for cell in range(4):
        cx, cy = divmod(cell, 2)
        if not sizes[cell]:
            warnings.warn(
                f"no samples in group (x={cx}, y={cy}); nothing to synthesize there",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        for i, err in enumerate(errs):
            q = float(ones[i][cell] / sizes[cell])
            if q < err.delta or q > 1.0 - err.eps:
                raise IncompatibleModelError(
                    f"component {i}: empirical P(w{i + 1}=1|x={cx},y={cy}) = {q:.6g} "
                    f"lies outside [delta, 1-eps] = [{err.delta:.6g}, {1.0 - err.eps:.6g}]"
                )
            r = (q - err.delta) / err.determinant
            post[cell, i, 1] = (1.0 - err.eps) * r / q if q > 0.0 else 0.0
            post[cell, i, 0] = err.eps * r / (1.0 - q) if q < 1.0 else 0.0
    for i in range(k):
        out[:, 2 + i] = u[:, i] < post[xy, i, out[:, 2 + i]]
    return out
