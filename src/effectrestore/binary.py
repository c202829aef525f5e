"""Effect restoration when X, Y, Z, W are all binary.

With misclassification rates eps = P(w0|z1) and delta = P(w1|z0), the
2x2 mechanism [[1-delta, eps], [delta, 1-eps]] has the inverse

    P(x,y,z0) = [(1-eps) P(x,y) - P(x,y,w1)] / (1 - eps - delta)
    P(x,y,z1) = [P(x,y,w1) - delta P(x,y)] / (1 - eps - delta)

Each (x, y) pair of proxy cells splits its combined weight P(x,y) between
the two latent cells; the split ratio P(z1|x,y)/P(z0|x,y) is a monotone
function of the observed fraction P(w1|x,y), exactly 0 at delta and
infinite at 1 - eps.  A fraction outside [delta, 1-eps] restores to a
negative cell.  No function here evaluates that inverse itself: every
one restores through ``restore._restored`` on a 2x2 ``ErrorMatrix``,
the 2x2 case of ``restore_joint``, so ``restore._finalize`` judges the
result, sets a rounding residue at either end to exactly 0 and refuses
a table whose rates contradict it, and restore.py reports a clip.

``causal_effect_binary`` is that restoration followed by confounder
adjustment, the 2x2 case of ``restore.causal_effect_restored``.  The
paper's closed form (modified inverse probability weighting over observed
quantities, standard IPW at eps = delta = 0) is algebraically the same
composition; it is kept in the tests as its oracle.
``causal_effect_binary_infinitesimal`` is that closed form's first-order
expansion in (eps, delta), accurate to second order.

For K independent binary proxy components, ``synthesize_samples`` turns
observed (x, y, w) records into latent (x, y, z) records: the
components' (x, y, w_i) frequency tables are restored as one stack, each
by its own split, and each record keeps its own reading by drawing z
from the posterior given w, so the noiseless mechanism reproduces the
input exactly while group-level frequencies reproduce the restored
distribution.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import DegenerateDenominatorError, ValidationError
from .mechanism import BinaryErrorParams, ErrorMatrix
from .restore import TOL_VANISHING, _restored, restore_joint
from .rng import _uniform_row_blocks, make_rng
from .tables import JointTable, _index, adjust_for_confounder

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
    negative-mass policy: a rounding residue at either end of [delta,
    1-eps] is set to exactly 0, total negative mass beyond it up to
    ``restore.TOL_INCOMPATIBLE`` is clipped as numerical noise, with a
    RuntimeWarning, and anything larger raises IncompatibleModelError
    unless ``clip`` forces the repair.
    """
    return _restored(_require_binary(observed)[None], [ErrorMatrix.from_binary(err)], clip=clip)[0]


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
    (table,) = _restored(np.array([[[[1.0 - p, p]]]]), [ErrorMatrix.from_binary(err)],
                         [f" for P(w1|x,y) = {p!r}"])
    z0, z1 = table.cells[0, 0].tolist()
    return math.inf if z0 == 0.0 else z1 / z0


def _nonvanishing(*named: tuple[str, float]) -> None:
    for name, value in named:
        if abs(value) < TOL_VANISHING:
            raise DegenerateDenominatorError(f"{name} = {value:.3e} vanishes")


def causal_effect_binary(observed: JointTable, err: BinaryErrorParams, x: int, y: int) -> float:
    """P(y | do(x)) for binary data: ``restore_binary`` then ``adjust_for_confounder``.

    This is ``restore.causal_effect_restored`` on the 2x2 mechanism,
    entry y, so it clips and warns or raises IncompatibleModelError where
    ``restore_binary`` does, and raises PositivityError where the
    restored propensity P(x | z) of a stratum vanishes.
    """
    _index("x", x, 2)
    _index("y", y, 2, "y")
    return float(adjust_for_confounder(restore_binary(observed, err), x)[y])


def causal_effect_binary_infinitesimal(
    observed: JointTable, err: BinaryErrorParams, x: int, y: int
) -> float:
    """First-order (in eps and delta) approximation of the binary effect.

    Expanding each branch of the exact form around eps = delta = 0 gives

        P(x,y,w1)/P(x|w1) * [1 + eps + delta (1 - 1/P(w1|x,y) - 1/P(w1) + 1/P(w1|x))]
      + P(x,y,w0)/P(x|w0) * [1 + delta + eps (1 - 1/P(w0|x,y) - 1/P(w0) + 1/P(w0|x))]

    which coincides with the exact value at eps = delta = 0 and deviates
    from it by O((eps + delta)^2).  Refuses rates that contradict the data
    as ``causal_effect_binary`` does, after DegenerateDenominatorError for
    any observed quantity it divides by that vanishes.
    """
    p = _require_binary(observed)
    _index("x", x, 2)
    _index("y", y, 2, "y")
    p_w, p_x, p_xw, p_xy = p.sum(axis=(0, 1)), p.sum(axis=(1, 2)), p.sum(axis=1), p.sum(axis=2)
    _nonvanishing(("P(w1)", p_w[1]), ("P(w0)", p_w[0]), (f"P(x={x})", p_x[x]),
                  (f"P(x={x},y={y})", p_xy[x, y]))
    # indexed by w: P(x | w), P(w | x, y), P(w | x)
    x_given_w, w_given_xy, w_given_x = p_xw[x] / p_w, p[x, y] / p_xy[x, y], p_xw[x] / p_x[x]
    for w in (1, 0):
        _nonvanishing((f"P(x={x}|w{w})", x_given_w[w]), (f"P(w{w}|x={x},y={y})", w_given_xy[w]),
                      (f"P(w{w}|x={x})", w_given_x[w]))
    # the first-order form reads the observed cells, not the clipped restored
    # ones, but it refuses what restoration refuses
    restore_joint(observed, ErrorMatrix.from_binary(err))
    rate, other_rate = np.array([err.eps, err.delta]), np.array([err.delta, err.eps])
    correction = 1.0 + other_rate + rate * (1.0 - 1.0 / w_given_xy - 1.0 / p_w + 1.0 / w_given_x)
    branch = p[x, y] / x_given_w * correction
    return float(branch[1] + branch[0])


def synthesize_samples(samples: np.ndarray, mechanism: ErrorMatrix, seed: int) -> np.ndarray:
    """Latent (x, y, z_1..z_K) records mirroring observed (x, y, w_1..w_K) ones.

    The components are the K dense factors of ``mechanism``, each 2x2 (another
    shape is refused, naming its component), as ``component_mechanism(rates)`` builds.
    Component i's split R_i(x, y, z_i) restores its empirical frequency
    table P_i(x, y, w_i) as ``restore_binary`` would, so it is clipped
    with a RuntimeWarning or refused as there, naming the component.  A
    record with reading w_i draws z_i from the posterior given w_i,

        P(z_i=1 | x, y, w_i) = M_i(w_i, 1) R_i(x, y, 1) / P_i(x, y, w_i)

    with M_i the component's factor.  Averaged over an (x, y) group
    this reproduces R_i exactly, and with eps_i = delta_i = 0 every record
    keeps z_i = w_i.  Deterministic given ``seed``: one uniform per (record,
    component), consumed in record-major order as ``rng.random((n, K))``
    would draw them.  They are drawn in row blocks that concatenate to
    exactly that block and are written straight into the int64 output, so
    the working memory is the output plus one block of about 2^16 values.
    """
    if not isinstance(mechanism, ErrorMatrix):
        raise ValidationError(f"mechanism must be an ErrorMatrix, got {type(mechanism).__name__}")
    leaves = mechanism._leaves
    for i, leaf in enumerate(leaves):
        if leaf.entries.shape != (2, 2):
            raise ValidationError(f"component {i} of the mechanism is "
                                  f"{leaf.n_w}x{leaf.n_z}, not 2x2")
    arr = np.asarray(samples)
    k = len(leaves)
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
    ones = np.stack([np.bincount(xy, weights=w, minlength=4).reshape(2, 2) for w in out[:, 2:].T])
    observed = np.stack((sizes - ones, ones), axis=-1) / max(n, 1)
    restored = np.stack([table.cells for table in _restored(
        observed, leaves, [f" for component {i}" for i in range(k)])])
    # P_i(x, y, w_i, z_i = 1), then P(z_i = 1 | group, w_i) indexed [group, i, w_i]
    joint = np.stack([leaf.entries[:, 1] for leaf in leaves])[:, None, None] * restored[..., 1:]
    post = np.divide(joint, observed, out=np.zeros_like(joint), where=observed > 0.0)
    post = post.reshape(k, 4, 2).transpose(1, 0, 2)
    components = np.arange(k)
    for start, u in _uniform_row_blocks(make_rng(seed), n, k):
        stop = start + u.shape[0]
        w = out[start:stop, 2:]
        w[...] = u < post[xy[start:stop, None], components, w]
    return out
