"""Ground-truth simulators validating every estimator in the package.

Discrete models factor as P(z) P(x|z) P(y|x,z) P(w|z): a confounder Z
driving treatment X and outcome Y, measured only through the proxy W.
The exact causal effect and the exact observed distribution are both
available analytically, so estimators can be checked against the truth
at any sample size.  Linear models draw Gaussian exogenous terms and
push them through the structural equations, returning the path-traced
population moments alongside the sample.

Sampling is deterministic given (spec, n, seed): draws come from the
seeded stream of :func:`effectrestore.rng.make_rng` as consecutive
uniform blocks in a fixed order (z, x, y, w for discrete; z, e_x, e_y,
e_w, e_v for linear), each block in sample order.  Every categorical draw
is one inverse-CDF rule, ``_draw``, in memory O(n + table), never n x card.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .io import _json_array, _json_object
from .linear import CovStats, LinearSemSpec, _sample_count
from .mechanism import BinaryErrorParams, ErrorMatrix, _check_stochastic
from .restore import pushforward
from .rng import _uniform_row_blocks, make_rng
from .tables import JointTable, _FrozenArrays, adjust_for_confounder

@dataclass(frozen=True, eq=False)
class DiscreteModelSpec(_FrozenArrays):
    """Generating model P(z) P(x|z) P(y|x,z) with an error mechanism for W.

    ``p_x_given_z[x, z]`` and ``p_y_given_xz[y, x, z]`` hold the
    conditionals with the conditioned value indexing the column; every
    column is a distribution.  ``error`` is the mechanism P(w | z), dense
    or factored; a factored one reads z as mixed-radix digits, first
    factor most significant.
    """

    p_z: np.ndarray
    p_x_given_z: np.ndarray
    p_y_given_xz: np.ndarray
    error: ErrorMatrix

    _arrays = (("p_z", float), ("p_x_given_z", float), ("p_y_given_xz", float))

    def _check(self) -> None:
        p_z, p_xz, p_yxz = self.p_z, self.p_x_given_z, self.p_y_given_xz
        if p_z.ndim != 1 or p_xz.ndim != 2 or p_yxz.ndim != 3:
            raise ValidationError("p_z, p_x_given_z, p_y_given_xz must be 1-d, 2-d, 3-d")
        n_z = p_z.shape[0]
        n_x = p_xz.shape[0]
        if p_xz.shape != (n_x, n_z) or p_yxz.shape[1:] != (n_x, n_z):
            raise ValidationError(
                f"inconsistent dimensions: p_z {p_z.shape}, p_x_given_z {p_xz.shape}, "
                f"p_y_given_xz {p_yxz.shape}"
            )
        _check_stochastic(p_z[:, None], "p_z")
        _check_stochastic(p_xz, "p_x_given_z")
        _check_stochastic(p_yxz.reshape(p_yxz.shape[0], -1), "p_y_given_xz")
        if not isinstance(self.error, ErrorMatrix):
            raise ValidationError(f"error must be an ErrorMatrix, got {type(self.error).__name__}")
        if self.error.n_z != n_z:
            raise ValidationError(
                f"error mechanism has n_z={self.error.n_z}, model has {n_z} latent values"
            )

    @property
    def n_z(self) -> int:
        return self.p_z.shape[0]

    @property
    def n_x(self) -> int:
        return self.p_x_given_z.shape[0]

    @property
    def n_y(self) -> int:
        return self.p_y_given_xz.shape[0]

    def joint_xyz(self) -> JointTable:
        """Exact latent joint P(x, y, z)."""
        cells = np.einsum("z,xz,yxz->xyz", self.p_z, self.p_x_given_z, self.p_y_given_xz)
        return JointTable._adopt(cells, "Z")

    def joint_xyw(self) -> JointTable:
        """Exact observed joint P(x, y, w)."""
        return pushforward(self.joint_xyz(), self.error)

    def effect(self, x: int) -> np.ndarray:
        """Exact P(y | do(x)) = sum_z P(y | x, z) P(z)."""
        return adjust_for_confounder(self.joint_xyz(), x)

    def effect_table(self) -> np.ndarray:
        """Exact effects for all treatment values, shape (n_x, n_y)."""
        return np.stack([self.effect(x) for x in range(self.n_x)])

    def to_json_dict(self) -> dict:
        return {
            "p_z": self.p_z.tolist(),
            "p_x_given_z": self.p_x_given_z.T.tolist(),
            "p_y_given_xz": np.moveaxis(self.p_y_given_xz, 0, -1).tolist(),
            "error": {"matrix": self.error.to_json_dict()},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DiscreteModelSpec":
        """``error`` holds a ``matrix`` or ``components``, either one a
        mechanism document read by ``ErrorMatrix.from_json_dict``."""
        with _json_object("discrete-model", data, ("p_z", "p_x_given_z", "p_y_given_xz", "error")):
            p_z = _json_array(data["p_z"], "p_z")
            p_xz = _json_array(data["p_x_given_z"], "p_x_given_z").T
            p_yxz = np.moveaxis(_json_array(data["p_y_given_xz"], "p_y_given_xz"), -1, 0)
            err = data["error"]
            if not isinstance(err, dict):
                raise TypeError(f"error must be an object, got {type(err).__name__}")
            if list(err) not in (["matrix"], ["components"]):
                raise ValueError(f"error must hold 'matrix' or 'components' alone, got {list(err)}")
            return cls(p_z=p_z, p_x_given_z=p_xz, p_y_given_xz=p_yxz,
                       error=ErrorMatrix.from_json_dict(*err.values()))


#: longest CDF ``_draw`` counts row by row (no slower up to 16 values at 1-8192 columns)
_COUNT_MAX_CARD = 16


def _draw(cum: np.ndarray, col: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The one inverse-CDF draw: sample i is ``searchsorted(cum[:, col[i]], u[i],
    side="left")``, the number of entries of column col[i] of the (card, columns)
    CDF table below u[i], in O(n + table) memory: a short CDF is counted one row
    at a time, a long one searched per column over a radix sort of the samples."""
    card, columns = cum.shape
    out = np.zeros(u.shape[0], dtype=np.intp)
    if card <= _COUNT_MAX_CARD:
        for row in cum:
            out += u > row[col]
        return out
    bounds = np.cumsum(np.bincount(col, minlength=columns)).tolist()
    order = np.argsort(col.astype(np.min_scalar_type(columns - 1)), kind="stable")
    for c, (lo, hi) in enumerate(zip([0, *bounds], bounds)):
        idx = order[lo:hi]
        out[idx] = np.searchsorted(cum[:, c], u[idx], side="left")
    return out


def simulate_discrete(
    spec: DiscreteModelSpec, n: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """n i.i.d. draws of (x, y, w) plus the exact effect table.

    Returns ``(samples, effect)`` where samples has integer columns
    (x, y, w_1..w_K), one w column per dense factor of the mechanism (K = 1
    for a dense matrix), and ``effect[x]`` is the analytic P(y | do(x)).

    z is drawn from p_z's CDF, x from column z of P(x | z)'s, y from column
    x * n_z + z of P(y | x, z)'s, then W from ``rng.random((n, K))`` in row
    blocks: column i from factor i's column for z's digit i, first factor
    most significant, so no factored mechanism is ever expanded.
    """
    _sample_count("n", n)
    rng = make_rng(seed)
    # each uniform block is drawn where it is used, in the documented order
    z = _draw(np.cumsum(spec.p_z)[:, None], np.zeros(n, np.uint8), rng.random(n))
    x = _draw(np.cumsum(spec.p_x_given_z, axis=0), z, rng.random(n))
    cum_y = np.cumsum(spec.p_y_given_xz, axis=0).reshape(spec.n_y, -1)
    y = _draw(cum_y, x * spec.n_z + z, rng.random(n))
    mats = spec.error._mats
    cums = [np.cumsum(m, axis=0) for m in mats]
    samples = np.empty((n, 2 + len(mats)), dtype=np.int64)
    samples[:, 0], samples[:, 1] = x, y
    del x, y
    for start, u_w in _uniform_row_blocks(rng, n, len(mats)):
        rows = slice(start, start + u_w.shape[0])
        digits = np.unravel_index(z[rows], [m.shape[1] for m in mats])
        for i, (cum, digit, u) in enumerate(zip(cums, digits, u_w.T)):
            samples[rows, 2 + i] = _draw(cum, digit, u)
    return samples, spec.effect_table()


def simulate_linear(
    spec: LinearSemSpec, n: int, seed: int
) -> tuple[np.ndarray, CovStats]:
    """n draws of (x, y, w[, v]) plus the exact population moments."""
    _sample_count("n", n)
    rng = make_rng(seed)
    z = rng.normal(0.0, np.sqrt(spec.var_z), n)
    e_x = rng.normal(0.0, np.sqrt(spec.var_ex), n)
    e_y = rng.normal(0.0, np.sqrt(spec.var_ey), n)
    e_w = rng.normal(0.0, np.sqrt(spec.var_ew), n)
    x = spec.c1 * z + e_x
    y = spec.c2 * z + spec.c0 * x + e_y
    w = spec.c3 * z + e_w
    cols = [x, y, w]
    if spec.has_v:
        e_v = rng.normal(0.0, np.sqrt(spec.var_ev), n)
        cols.append(spec.c_v * z + e_v)
    return np.column_stack(cols), spec.population_cov()


def naive_effect(observed: JointTable, x: int) -> np.ndarray:
    """Plain adjustment for the proxy as if it were the confounder.

    The baseline that effect restoration corrects: biased whenever the
    proxy is noisy, regardless of sample size.
    """
    return adjust_for_confounder(observed.with_axis("Z"), x)


def binary_spec(
    p_z1: float,
    p_x1_given_z: Sequence[float],
    p_y1_given_xz: Sequence[Sequence[float]],
    err: BinaryErrorParams,
) -> DiscreteModelSpec:
    """Convenience constructor for the all-binary model.

    ``p_x1_given_z[z]`` is P(x=1 | z); ``p_y1_given_xz[x][z]`` is
    P(y=1 | x, z); the proxy has the given misclassification pair.
    """
    px1 = np.asarray(p_x1_given_z, dtype=float)
    py1 = np.asarray(p_y1_given_xz, dtype=float)
    if px1.shape != (2,) or py1.shape != (2, 2):
        raise ValidationError("expected P(x=1|z) of shape (2,) and P(y=1|x,z) of shape (2, 2)")
    p_z = np.array([1.0 - p_z1, p_z1])
    p_x_given_z = np.stack([1.0 - px1, px1])
    p_y_given_xz = np.stack([1.0 - py1, py1])
    return DiscreteModelSpec(
        p_z=p_z, p_x_given_z=p_x_given_z, p_y_given_xz=p_y_given_xz,
        error=ErrorMatrix.from_binary(err),
    )
