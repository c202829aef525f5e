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
e_w, e_v for linear), each block in sample order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .linear import CovStats, LinearSemSpec
from .mechanism import BinaryErrorParams, ErrorMatrix, _check_stochastic, component_mechanism
from .restore import pushforward
from .rng import make_rng
from .tables import JointTable, adjust_for_confounder

@dataclass(frozen=True, eq=False)
class DiscreteModelSpec:
    """Generating model P(z) P(x|z) P(y|x,z) with an error mechanism for W.

    ``p_x_given_z[x, z]`` and ``p_y_given_xz[y, x, z]`` hold the
    conditionals with the conditioned value indexing the column; every
    column is a distribution.  ``error`` is either a dense/factored
    mechanism or a sequence of per-component binary misclassification
    pairs (in which case z is a bit vector, first component most
    significant).
    """

    p_z: np.ndarray
    p_x_given_z: np.ndarray
    p_y_given_xz: np.ndarray
    error: ErrorMatrix | tuple[BinaryErrorParams, ...]

    def __post_init__(self) -> None:
        p_z = np.asarray(self.p_z, dtype=float)
        p_xz = np.asarray(self.p_x_given_z, dtype=float)
        p_yxz = np.asarray(self.p_y_given_xz, dtype=float)
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
        error = self.error
        if isinstance(error, ErrorMatrix):
            if error.n_z != n_z:
                raise ValidationError(
                    f"error mechanism has n_z={error.n_z}, model has {n_z} latent values"
                )
        else:
            error = tuple(error)
            if not error or not all(isinstance(e, BinaryErrorParams) for e in error):
                raise ValidationError(
                    "error must be an ErrorMatrix or a nonempty sequence of BinaryErrorParams"
                )
            if 2 ** len(error) != n_z:
                raise ValidationError(
                    f"{len(error)} binary components imply {2 ** len(error)} latent values, "
                    f"model has {n_z}"
                )
        for name, arr in (("p_z", p_z), ("p_x_given_z", p_xz), ("p_y_given_xz", p_yxz)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "error", error)

    @property
    def n_z(self) -> int:
        return self.p_z.shape[0]

    @property
    def n_x(self) -> int:
        return self.p_x_given_z.shape[0]

    @property
    def n_y(self) -> int:
        return self.p_y_given_xz.shape[0]

    @property
    def k_components(self) -> int | None:
        """Number of binary proxy components, or None for a dense mechanism."""
        return None if isinstance(self.error, ErrorMatrix) else len(self.error)

    def mechanism(self) -> ErrorMatrix:
        if isinstance(self.error, ErrorMatrix):
            return self.error
        return component_mechanism(self.error)

    def joint_xyz(self) -> JointTable:
        """Exact latent joint P(x, y, z)."""
        cells = np.einsum("z,xz,yxz->xyz", self.p_z, self.p_x_given_z, self.p_y_given_xz)
        return JointTable(cells, "Z")

    def joint_xyw(self) -> JointTable:
        """Exact observed joint P(x, y, w)."""
        return pushforward(self.joint_xyz(), self.mechanism())

    def effect(self, x: int) -> np.ndarray:
        """Exact P(y | do(x)) = sum_z P(y | x, z) P(z)."""
        return adjust_for_confounder(self.joint_xyz(), x)

    def effect_table(self) -> np.ndarray:
        """Exact effects for all treatment values, shape (n_x, n_y)."""
        return np.stack([self.effect(x) for x in range(self.n_x)])

    def to_json_dict(self) -> dict:
        out = {
            "p_z": [float(v) for v in self.p_z],
            "p_x_given_z": self.p_x_given_z.T.tolist(),
            "p_y_given_xz": np.moveaxis(self.p_y_given_xz, 0, -1).tolist(),
        }
        if isinstance(self.error, ErrorMatrix):
            out["error"] = {"matrix": self.error.to_json_dict()}
        else:
            out["error"] = {"components": [e.to_json_dict() for e in self.error]}
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "DiscreteModelSpec":
        try:
            p_z = np.asarray(data["p_z"], dtype=float)
            p_xz = np.asarray(data["p_x_given_z"], dtype=float).T
            p_yxz = np.moveaxis(np.asarray(data["p_y_given_xz"], dtype=float), -1, 0)
            err = data["error"]
            if "matrix" in err:
                error: ErrorMatrix | tuple = ErrorMatrix.from_json_dict(err["matrix"])
            else:
                error = tuple(BinaryErrorParams.from_json_dict(e) for e in err["components"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed discrete-model JSON: {exc}") from exc
        return cls(p_z=p_z, p_x_given_z=p_xz, p_y_given_xz=p_yxz, error=error)


def _draw_categorical(cum_by_sample: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw per row: cum_by_sample[i] is the cumulative
    distribution for sample i, u[i] its uniform."""
    return (u[:, None] > cum_by_sample).sum(axis=1)


def _draw_by_column(cum: np.ndarray, col: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw of sample i from the cumulative distribution
    ``cum[:, col[i]]`` with uniform u[i]: one ``searchsorted`` per distinct
    column over the samples that use it, so memory stays O(n + table)
    where a per-sample row of the table would cost O(n * len(cum))."""
    out = np.empty(col.shape[0], dtype=np.intp)
    order = np.argsort(col, kind="stable")
    sorted_col = col[order]
    starts = np.flatnonzero(np.diff(sorted_col, prepend=-1))
    for lo, hi in zip(starts, [*starts[1:], col.shape[0]]):
        idx = order[lo:hi]
        out[idx] = np.searchsorted(cum[:, sorted_col[lo]], u[idx], side="left")
    return out


def simulate_discrete(
    spec: DiscreteModelSpec, n: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """n i.i.d. draws of (x, y, w) plus the exact effect table.

    Returns ``(samples, effect)`` where samples has integer columns
    (x, y, w) for a dense mechanism or (x, y, w_1..w_K) for component
    errors, and ``effect[x]`` is the analytic P(y | do(x)).
    """
    if n < 0:
        raise ValidationError("n must be >= 0")
    rng = make_rng(seed)
    u_z, u_x, u_y = rng.random(n), rng.random(n), rng.random(n)
    z = np.searchsorted(np.cumsum(spec.p_z), u_z, side="left")
    cum_x = np.cumsum(spec.p_x_given_z, axis=0)
    x = _draw_categorical(cum_x.T[z], u_x)
    cum_y = np.cumsum(spec.p_y_given_xz, axis=0)
    y = _draw_categorical(np.moveaxis(cum_y, 0, -1)[x, z], u_y)
    if spec.k_components is None:
        mech = spec.mechanism()
        u_w = rng.random(n)
        w = _draw_by_column(np.cumsum(mech.dense(), axis=0), z, u_w)
        samples = np.column_stack([x, y, w]).astype(int)
    else:
        k = spec.k_components
        u_w = rng.random((n, k))
        cols = []
        for i, err in enumerate(spec.error):
            bit = (z >> (k - 1 - i)) & 1
            p_w1 = np.where(bit == 1, 1.0 - err.eps, err.delta)
            cols.append((u_w[:, i] < p_w1).astype(int))
        samples = np.column_stack([x, y, *cols]).astype(int)
    return samples, spec.effect_table()


def simulate_linear(
    spec: LinearSemSpec, n: int, seed: int
) -> tuple[np.ndarray, CovStats]:
    """n draws of (x, y, w[, v]) plus the exact population moments."""
    if n < 0:
        raise ValidationError("n must be >= 0")
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
        p_z=p_z, p_x_given_z=p_x_given_z, p_y_given_xz=p_y_given_xz, error=(err,)
    )
