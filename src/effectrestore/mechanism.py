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

import math
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
#: smallest side of a dense square factor that is LU-factorized (LAPACK
#: ``getrf``) and applied as M^-1 by triangular solves (``getrs``) instead
#: of being inverted explicitly.  Factor, condition estimate (``gecon``) and
#: one solve take a quarter to a half of the time of ``inv``, the two
#: 1-norms and one product at every side from 256 to 4096 (0.17 against
#: 0.65 s at 2048, 0.04 against 0.10 s at 1024, 2-vCPU Xeon), but the
#: first use imports ``scipy.linalg`` (about 0.3 s and 28 MB).  The side is
#: where both measured callers gain: at 2048 a ``latent-restore`` benchmark
#: pass takes 0.42 against 0.86 s and a one-shot ``restore-discrete`` 3.68
#: against 3.82 s.  At 1024 that one-shot call was slower with LU (1.37
#: against 1.17 s), the import outweighing the solve's saving, and no
#: caller that restores repeatedly at such sides has been measured.
#: Smaller factors keep explicit inverses, which ``_kron_blocks`` can merge
#: into Kronecker blocks.
_LU_MIN_SIDE = 2048
#: the 1-norm reads |M| in column chunks of about this many entries
_NORM_CHUNK = 1 << 18


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


def _norm1(m: np.ndarray) -> float:
    """Induced 1-norm, the largest column sum of |m|, read in column chunks
    of about ``_NORM_CHUNK`` entries so that no |m| of m's size is formed.
    Each column is summed whole and no chunk of a wider matrix is a single
    column (numpy would sum that one pairwise), so the value is
    ``np.linalg.norm(m, 1)``'s to the bit."""
    step = max(2, _NORM_CHUNK // m.shape[0])
    edges = [0, *range(step, m.shape[1] - 1, step), m.shape[1]]
    return max(float(np.linalg.norm(m[:, a:b], 1)) for a, b in zip(edges, edges[1:]))


class _LU:
    """LU factors of a dense square mechanism M, applied as M^-1 by ``getrs``.

    ``getrf`` factors M^T = P L U: a C-ordered M is a Fortran-ordered M^T,
    so LAPACK's working copy needs no transpose, and ``getrs`` solves
    (M^T)^T x = M x = b with ``trans=1``.  The factors are read-only.
    """

    def __init__(self, lu: np.ndarray, piv: np.ndarray) -> None:
        lu.setflags(write=False)
        piv.setflags(write=False)
        self.lu, self.piv = lu, piv
        self.shape = lu.shape

    @classmethod
    def factor(cls, m: np.ndarray) -> "_LU | None":
        """Factors of the square ``m``, or None when a pivot is exactly zero."""
        from scipy.linalg import lapack

        lu, piv, info = lapack.dgetrf(m.T)
        return None if info > 0 else cls(lu, piv)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """M^-1 rhs for an (n, k) ``rhs``."""
        from scipy.linalg import lapack

        return lapack.dgetrs(self.lu, self.piv, rhs, trans=1)[0]

    def condition(self, norm1: float) -> float:
        """LAPACK's estimate of ||M||_1 ||M^-1||_1 from the factors, given
        ``norm1`` = ||M||_1 (the infinity norm of the factored M^T); a lower
        bound on the exact value (Higham, ACM TOMS 14, 1988)."""
        from scipy.linalg import lapack

        rcond = lapack.dgecon(self.lu, norm1, norm="I")[0]
        return 1.0 / rcond if rcond > 0.0 else float("inf")


def _kron_blocks(mats: Sequence[np.ndarray | _LU]) -> tuple[np.ndarray | _LU, ...]:
    """Kronecker products of runs of consecutive ``mats``, each at most
    ``_BLOCK_CAP`` per side (a larger matrix, or LU factors, is a block of
    its own)."""
    blocks: list[np.ndarray | _LU] = []
    for m in mats:
        if blocks and isinstance(m, np.ndarray) and isinstance(blocks[-1], np.ndarray):
            rows, cols = blocks[-1].shape
            if max(rows * m.shape[0], cols * m.shape[1]) <= _BLOCK_CAP:
                blocks[-1] = np.kron(blocks[-1], m)
                continue
        blocks.append(m)
    for b in blocks:
        if isinstance(b, np.ndarray):
            b.setflags(write=False)
    return tuple(blocks)


def _contract(blocks: Sequence[np.ndarray | _LU], cells: np.ndarray) -> np.ndarray:
    """Apply the tensor product of ``blocks`` along the last axis of ``cells``.

    The last axis is read as mixed-radix digits, the first block owning
    the most significant one (``numpy.kron`` order).  The blocks are
    applied last to first, one GEMM each: a block contracts the trailing
    digit of the (rows, digit) view and its output digit becomes the
    leading axis, so after the first block the digits stand in order in
    front of the leading shape and no pass copies or transposes the
    operand.  The product itself is never formed; a dense matrix is the
    one-block case, a single ``m @ cells.T``.  A block of LU factors is
    applied by its triangular solves in place of the GEMM.
    """
    cells = np.asarray(cells, dtype=float)
    size = int(np.prod([b.shape[1] for b in blocks]))
    if cells.shape[-1:] != (size,):
        raise ValidationError(f"operand's last axis must have length {size}, got {cells.shape}")
    out = cells.reshape(-1, size)
    for b in reversed(blocks):
        operand = out.reshape(-1, b.shape[1]).T
        out = b.solve(operand) if isinstance(b, _LU) else np.dot(b, operand)
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
    applied.  A dense square factor with a side of at least
    ``_LU_MIN_SIDE`` is never inverted: its LU factors are cached in
    place of the inverse, M^-1 is applied by triangular solves, and its
    condition number is LAPACK's estimate from the same factors, a
    lower bound on the exact 1-norm value.  All
    cached arrays are read-only; ``dense()`` materializes the product
    only within ``DENSE_CAP``.
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
    def _inverses(self) -> tuple[np.ndarray | _LU, ...] | None:
        """Inverse of each of ``_mats`` (its LU factors from a side of
        ``_LU_MIN_SIDE``), or None when one is singular."""
        if self.factors is not None:
            invs = [f._inverses for f in self.factors]
            return None if None in invs else tuple(m for inv in invs for m in inv)
        n_w, n_z = self.entries.shape
        if n_w == n_z >= _LU_MIN_SIDE:
            lu = _LU.factor(self.entries)
            return None if lu is None else (lu,)
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
    def _inverse_blocks(self) -> tuple[np.ndarray | _LU, ...] | None:
        """``_inverses`` in the blocks of ``_blocks``, or None when singular."""
        return None if self._inverses is None else _kron_blocks(self._inverses)

    @cached_property
    def _condition(self) -> float:
        if self.factors is not None:
            return math.prod((f.condition() for f in self.factors), start=1.0)
        if self._inverses is None:
            return float("inf")
        (inv,) = self._inverses
        if isinstance(inv, _LU):
            return inv.condition(_norm1(self.entries))
        return _norm1(self.entries) * _norm1(inv)

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

        For factored form it is the product of the factors' own cached
        condition numbers, which equals the dense matrix's: induced
        1-norms are multiplicative over Kronecker products.  For a dense
        factor with a side of at least ``_LU_MIN_SIDE`` the value is
        LAPACK's ``gecon`` estimate from its LU factors, a lower bound on
        the exact value: typically within a few per cent of it, but with
        no guaranteed ratio.  Computed once per instance and cached with
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
                if min(n_w, n_z) < 0:
                    # reshape would infer a -1 from the entries' length
                    raise ValueError(f"n_w and n_z must be nonnegative, got {n_w} and {n_z}")
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
