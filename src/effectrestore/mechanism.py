"""Representations of the measurement-error mechanism P(w | z).

The mechanism is a column-stochastic matrix M with M[w, z] = P(w | z):
each column is the distribution of the proxy reading given the true
latent value.  High-dimensional mechanisms made of independent
per-component channels are kept in factored form; the dense matrix is the
tensor (Kronecker) product of the factors and is only materialized up to
``DENSE_CAP`` per side.  The inverse of the product is the product of
the inverses, so factored mechanisms never require a dense inversion.

The binary special case is parameterized by the two misclassification
rates eps = P(w=0 | z=1) and delta = P(w=1 | z=0); the mechanism becomes
non-invertible exactly when eps + delta = 1 (the proxy then carries no
information about the latent value).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Sequence

import numpy as np

from .errors import SingularError, ValidationError

#: column sums must match 1 within this tolerance
TOL_STOCHASTIC = 1e-12
#: |1 - eps - delta| below this is treated as non-invertible
TOL_SINGULAR = 1e-6
#: largest dimension at which a factored mechanism may be expanded densely
DENSE_CAP = 4096
#: largest side of a Kronecker block of consecutive factors that the
#: factored operator applies as one matrix
_BLOCK_CAP = 64


def _check_stochastic(arr: np.ndarray, name: str) -> None:
    """Every column of the 2-d ``arr`` must be a finite distribution; errors name ``name``."""
    if arr.ndim != 2 or arr.size == 0:
        raise ValidationError(
            f"{name} entries must be a nonempty 2-d matrix, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} entries must be finite")
    if arr.min() < -TOL_STOCHASTIC or arr.max() > 1.0 + TOL_STOCHASTIC:
        raise ValidationError(f"{name} entries must lie in [0, 1]")
    colsums = arr.sum(axis=0)
    worst = float(np.abs(colsums - 1.0).max())
    if worst > TOL_STOCHASTIC:
        raise ValidationError(f"{name} columns must sum to 1 (worst defect {worst:.3e})")


def _kron_blocks(mats: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """Kronecker products of runs of consecutive ``mats``, each at most
    ``_BLOCK_CAP`` per side (a larger matrix is a block of its own)."""
    blocks: list[np.ndarray] = []
    for m in mats:
        if blocks:
            rows, cols = blocks[-1].shape
            if max(rows * m.shape[0], cols * m.shape[1]) <= _BLOCK_CAP:
                blocks[-1] = np.kron(blocks[-1], m)
                continue
        blocks.append(m)
    for b in blocks:
        b.setflags(write=False)
    return tuple(blocks)


def _contract(blocks: Sequence[np.ndarray], cells: np.ndarray) -> np.ndarray:
    """Apply the tensor product of ``blocks`` along the last axis of ``cells``.

    The last axis is read as mixed-radix digits, the first block owning
    the most significant one (``numpy.kron`` order).  The blocks are
    applied last to first, one GEMM each: a block contracts the trailing
    digit of the (rows, digit) view and its output digit becomes the
    leading axis, so after the first block the digits stand in order in
    front of the leading shape and no pass copies or transposes the
    operand.  The product itself is never formed; a dense matrix is the
    one-block case, a single ``m @ cells.T``.
    """
    cells = np.asarray(cells, dtype=float)
    size = int(np.prod([b.shape[1] for b in blocks]))
    if cells.shape[-1:] != (size,):
        raise ValidationError(f"operand's last axis must have length {size}, got {cells.shape}")
    out = cells.reshape(-1, size)
    for b in reversed(blocks):
        out = np.dot(b, out.reshape(-1, b.shape[1]).T)
    n_out = int(np.prod([b.shape[0] for b in blocks]))
    return out.reshape(n_out, -1).T.reshape(*cells.shape[:-1], n_out)


@dataclass(frozen=True, eq=False)
class ErrorMatrix:
    """Column-stochastic matrix P(w | z) as a linear operator, dense or factored.

    An instance holds exactly one form: ``entries``, the dense matrix, or
    ``factors``, the per-component mechanisms whose tensor product it is.
    A dense matrix is the one-factor case of the same operator, so
    :meth:`apply`, :meth:`apply_inverse` and :meth:`condition` have one
    code path.  The inverse (per factor in factored form) and the
    condition number are computed at most once per instance and cached;
    so are the Kronecker blocks of consecutive factors, at most
    ``_BLOCK_CAP`` per side, in which the operator and its inverse are
    applied.  All cached arrays are read-only; ``dense()`` materializes
    the product only within ``DENSE_CAP``.
    """

    entries: np.ndarray | None = None
    factors: tuple["ErrorMatrix", ...] | None = None

    def __post_init__(self) -> None:
        if self.entries is None and not self.factors:
            raise ValidationError("an ErrorMatrix needs dense entries or factors")
        if self.entries is not None and self.factors is not None:
            raise ValidationError("an ErrorMatrix holds dense entries or factors, not both")
        if self.entries is not None:
            arr = np.asarray(self.entries, dtype=float).copy()
            _check_stochastic(arr, "mechanism")
            arr.setflags(write=False)
            object.__setattr__(self, "entries", arr)
        else:
            object.__setattr__(self, "factors", tuple(self.factors))
            for f in self.factors:
                if not isinstance(f, ErrorMatrix):
                    raise ValidationError("factors must be ErrorMatrix instances")

    @property
    def _mats(self) -> tuple[np.ndarray, ...]:
        """The dense factors of the tensor product, nested factors flattened."""
        if self.entries is not None:
            return (self.entries,)
        return tuple(m for f in self.factors for m in f._mats)

    @cached_property
    def _inverses(self) -> tuple[np.ndarray, ...] | None:
        """Inverse of each of ``_mats``, or None when one is singular."""
        if self.factors is not None:
            invs = [f._inverses for f in self.factors]
            return None if None in invs else tuple(m for inv in invs for m in inv)
        try:
            inv = np.linalg.inv(self.entries)
        except np.linalg.LinAlgError:
            return None
        inv.setflags(write=False)
        return (inv,)

    @property
    def n_w(self) -> int:
        return int(np.prod([m.shape[0] for m in self._mats]))

    @property
    def n_z(self) -> int:
        return int(np.prod([m.shape[1] for m in self._mats]))

    @property
    def is_square(self) -> bool:
        return self.n_w == self.n_z

    def dense(self) -> np.ndarray:
        """Dense matrix; expands factors via Kronecker product (first factor
        owns the most significant digit of the composite index) up to
        ``DENSE_CAP`` per side."""
        if self.entries is not None:
            return np.array(self.entries)
        if max(self.n_w, self.n_z) > DENSE_CAP:
            raise ValidationError(
                f"dense expansion of size {self.n_w}x{self.n_z} exceeds cap {DENSE_CAP}; "
                "use the factored code paths"
            )
        return reduce(np.kron, self._mats, np.ones((1, 1)))

    @cached_property
    def _blocks(self) -> tuple[np.ndarray, ...]:
        """``_mats`` as Kronecker blocks of at most ``_BLOCK_CAP`` per side."""
        return _kron_blocks(self._mats)

    @cached_property
    def _inverse_blocks(self) -> tuple[np.ndarray, ...] | None:
        """``_inverses`` in the blocks of ``_blocks``, or None when singular."""
        return None if self._inverses is None else _kron_blocks(self._inverses)

    @cached_property
    def _condition(self) -> float:
        if self._inverses is None:
            return float("inf")
        cond = 1.0
        for m, inv in zip(self._mats, self._inverses):
            cond *= float(np.linalg.norm(m, 1)) * float(np.linalg.norm(inv, 1))
        return cond

    def apply(self, cells: np.ndarray) -> np.ndarray:
        """M applied along the last axis: out[..., w] = sum_z M(w, z) cells[..., z]."""
        return _contract(self._blocks, cells)

    def apply_inverse(self, cells: np.ndarray) -> np.ndarray:
        """M^-1 applied along the last axis; SingularError when M has no inverse."""
        if self._inverse_blocks is None:
            raise SingularError("mechanism is singular: its inverse does not exist")
        return _contract(self._inverse_blocks, cells)

    def condition(self) -> float:
        """1-norm condition number ||M||_1 ||M^-1||_1 (inf when singular).

        For factored form it is the product over factors, which equals
        the dense matrix's: induced 1-norms are multiplicative over
        Kronecker products.  Computed once per instance and cached with
        the inverse.
        """
        return self._condition

    @classmethod
    def identity(cls, n: int) -> "ErrorMatrix":
        return cls(entries=np.eye(n))

    @classmethod
    def from_binary(cls, err: "BinaryErrorParams") -> "ErrorMatrix":
        return cls(entries=err.matrix())

    def to_json_dict(self) -> dict:
        out: dict = {"n_w": self.n_w, "n_z": self.n_z}
        if self.entries is not None:
            out["entries"] = [float(v) for v in self.entries.ravel(order="F")]
        else:
            out["factors"] = [f.to_json_dict() for f in self.factors]
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "ErrorMatrix":
        try:
            factors = None
            if "factors" in data and data["factors"]:
                factors = tuple(cls.from_json_dict(f) for f in data["factors"])
            entries = None
            if "entries" in data and data["entries"] is not None:
                n_w, n_z = int(data["n_w"]), int(data["n_z"])
                entries = np.asarray(data["entries"], dtype=float).reshape(
                    (n_w, n_z), order="F"
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed error-matrix JSON: {exc}") from exc
        return cls(entries=entries, factors=factors)


@dataclass(frozen=True)
class BinaryErrorParams:
    """Misclassification pair for one binary proxy.

    eps = P(w=0 | z=1), delta = P(w=1 | z=0).  Construction fails with
    SingularError when |1 - eps - delta| < ``TOL_SINGULAR``: the 2x2
    mechanism is then (numerically) non-invertible, its inverse entries
    scaling as 1 / (1 - eps - delta).  This is the one invertibility gate
    for binary mechanisms: every instance has a usable ``determinant``,
    and its 1-norm condition number, at most 2 / |1 - eps - delta|, stays
    below ``restore.CONDITION_CAP``.
    """

    eps: float
    delta: float

    def __post_init__(self) -> None:
        for name, v in (("eps", self.eps), ("delta", self.delta)):
            if not np.isfinite(v) or not 0.0 <= v < 1.0:
                raise ValidationError(f"{name} must lie in [0, 1), got {v!r}")
        if abs(self.determinant) < TOL_SINGULAR:
            raise SingularError(
                f"eps + delta = {self.eps + self.delta:.8g}: the proxy carries no "
                "information about the latent value and the mechanism is not invertible"
            )

    @property
    def determinant(self) -> float:
        """det of the 2x2 mechanism, 1 - eps - delta."""
        return 1.0 - self.eps - self.delta

    def matrix(self) -> np.ndarray:
        """The 2x2 mechanism [[1-delta, eps], [delta, 1-eps]] (columns are z)."""
        return np.array([[1.0 - self.delta, self.eps], [self.delta, 1.0 - self.eps]])

    def to_json_dict(self) -> dict:
        return {"eps": float(self.eps), "delta": float(self.delta)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "BinaryErrorParams":
        try:
            return cls(eps=float(data["eps"]), delta=float(data["delta"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed binary error params JSON: {exc}") from exc


def component_mechanism(errs: Sequence[BinaryErrorParams]) -> ErrorMatrix:
    """Factored mechanism for K independent binary proxy components."""
    if not errs:
        raise ValidationError("need at least one component")
    return ErrorMatrix(factors=tuple(ErrorMatrix.from_binary(e) for e in errs))


def expand_factored(factors: Sequence[ErrorMatrix]) -> ErrorMatrix:
    """Dense tensor-product expansion of per-component mechanisms.

    Composite indices are mixed-radix with the first factor most
    significant, matching ``numpy.kron``.  Each factor must be square so
    the expansion stays invertible; the expansion's inverse equals the
    tensor product of the per-factor inverses, which is how the factored
    operator avoids ever forming this matrix above ``DENSE_CAP``.  The result
    holds the dense form only.
    """
    factors = tuple(factors)
    for i, f in enumerate(factors):
        if not f.is_square:
            raise ValidationError(f"factor {i} is {f.n_w}x{f.n_z}; inversion needs square factors")
    return ErrorMatrix(entries=ErrorMatrix(factors=factors).dense())
