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

import ctypes
import math
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .errors import SingularError, ValidationError
from .io import _json_array, _json_fields, _json_object

#: column sums must match 1 within this tolerance
TOL_STOCHASTIC = 1e-12
#: |1 - eps - delta| below this is treated as non-invertible
TOL_SINGULAR = 1e-6
#: mechanisms whose 1-norm condition number is not below this cap refuse to
#: invert (``restore._check_invertible``)
CONDITION_CAP = 1e8
#: largest dimension at which a factored mechanism may be expanded densely
DENSE_CAP = 4096
#: largest side of a Kronecker block of consecutive factors that the
#: factored operator applies as one matrix
_BLOCK_CAP = 64
#: smallest side of a dense square factor that is LU-factorized (LAPACK
#: ``getrf``) and applied as M^-1 by triangular solves (``getrs``) instead
#: of being inverted explicitly.  Factor, condition estimate (``gecon``) and
#: one solve of a (2, 2, n) table took 1.9 against 6.1 ms for ``inv``, the
#: inverse's 1-norm and one product at side 256, 8.0 against 31 ms at 512,
#: 40 against 158 ms at 1024 and 171 against 778 ms at 2048 on one BLAS
#: thread, and 2.4 against 5.0, 9.3 against 24, 37 against 113 and 143
#: against 587 ms on two (2-vCPU Xeon, idle BLAS threads sleeping); at 2048
#: a ``latent-restore`` benchmark pass takes 0.42 against 0.86 s.  What the
#: factors give up is the exact condition number: ``gecon`` estimates a
#: lower bound on it, whose last bits change with the BLAS thread count
#: (an estimate within a factor of 10 of ``CONDITION_CAP`` is replaced by
#: the exact value, solved from the factors).  The side is set high so
#: that only factors whose inversion dominates a restoration trade the
#: exact value for speed; no benchmark workload has a factor between 256
#: and 2048 to show what a lower side would gain.
#: Smaller factors keep explicit inverses, which ``_kron_blocks`` can merge
#: into Kronecker blocks.
_LU_MIN_SIDE = 2048
#: the 1-norm reads |M| in column chunks of about this many entries
_NORM_CHUNK = 1 << 18
#: ``_contract`` applies a Kronecker block to the work table in chunks of
#: about this many entries (512 KB), each through a temporary of that size
_CONTRACT_CHUNK = 1 << 16


def _check_stochastic(arr: np.ndarray, name: str) -> float | None:
    """Every column of the 2-d ``arr`` must be a finite distribution; errors name ``name``.

    Returns ``arr``'s 1-norm when no entry is negative, else None.  A valid
    matrix is accepted after two reductions: when the smallest entry is at
    least 0 and every column sum is within ``TOL_STOCHASTIC`` of 1, every
    entry is finite and at most 1 + ``TOL_STOCHASTIC`` (a NaN fails both
    comparisons).  The largest column sum is then the 1-norm, bit for bit
    ``np.linalg.norm(arr, 1)``'s, which sums ``|arr|`` in the same order.
    Only a matrix that fails this test is checked entry by entry, so that
    the error names the first rule it breaks.
    """
    if arr.ndim != 2 or arr.size == 0:
        raise ValidationError(
            f"{name} entries must be a nonempty 2-d matrix, got shape {arr.shape}"
        )
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf or overflow: caught below
        colsums = arr.sum(axis=0)
        worst = float(np.abs(colsums - 1.0).max())
    lowest = arr.min()
    if lowest >= 0.0 and worst <= TOL_STOCHASTIC:
        return float(colsums.max())
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} entries must be finite")
    if lowest < -TOL_STOCHASTIC or arr.max() > 1.0 + TOL_STOCHASTIC:
        raise ValidationError(f"{name} entries must lie in [0, 1]")
    if worst > TOL_STOCHASTIC:
        raise ValidationError(f"{name} columns must sum to 1 (worst defect {worst:.3e})")
    return None


def _norm1(m: np.ndarray) -> float:
    """Induced 1-norm, the largest column sum of |m|, read in column chunks
    of about ``_NORM_CHUNK`` entries so that no |m| of m's size is formed.
    Each column is summed whole and no chunk of a wider matrix is a single
    column (numpy would sum that one pairwise), so the value is
    ``np.linalg.norm(m, 1)``'s to the bit."""
    step = max(2, _NORM_CHUNK // m.shape[0])
    edges = [0, *range(step, m.shape[1] - 1, step), m.shape[1]]
    return max(float(np.linalg.norm(m[:, a:b], 1)) for a, b in zip(edges, edges[1:]))


#: LAPACKE's ``matrix_layout`` code for column-major arrays
_COL_MAJOR = 102


@cache
def _lapack() -> SimpleNamespace | None:
    """``getrf``, ``getrs`` and ``gecon`` of the LAPACK that numpy links, or
    None when it is not numpy's bundled ILP64 OpenBLAS.

    numpy's wheels (checked with numpy 2.4) link ``_umath_linalg`` against
    an OpenBLAS built with 64-bit integers, whose LAPACKE symbols carry a
    ``scipy_`` prefix and a ``64_`` suffix.  Opening the extension again lets the dynamic loader
    resolve them in that already loaded library, so the process keeps one
    LAPACK and one BLAS thread pool.

    All three are LAPACKE's ``_work`` forms, which take the same arguments
    (``gecon``'s scratch buffers too) but skip LAPACKE's NaN scan of the
    operands: a mechanism's entries are checked finite when it is built,
    and a non-finite right-hand side propagates as it would through a
    GEMM, where the scanning form would return an error and leave it
    unsolved.  ``getrf`` is the blocked ``dgetrf``.  The recursive
    ``dgetrf2`` (Toledo, SIAM J. Matrix Anal. Appl. 18(4), 1997) picks the
    same pivots and is no faster at side 2048, but at 2 BLAS threads whose
    idle threads sleep (the program entry points' policy) it took 3.2
    against 1.1 ms at side 256 and 9.0 against 6.4 ms at 512: its many
    small BLAS calls each wake the pool.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        getrf, getrs, gecon = (
            getattr(lib, f"scipy_LAPACKE_{name}_work64_")
            for name in ("dgetrf", "dgetrs", "dgecon")
        )
    except (OSError, AttributeError):
        return None
    i64 = ctypes.c_int64
    mat = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="F_CONTIGUOUS")
    vec = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
    piv = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
    # LAPACKE_dgetrf_work(layout, m, n, a, lda, ipiv)
    getrf.argtypes = [ctypes.c_int, i64, i64, mat, i64, piv]
    # LAPACKE_dgetrs_work(layout, trans, n, nrhs, a, lda, ipiv, b, ldb)
    getrs.argtypes = [ctypes.c_int, ctypes.c_char, i64, i64, mat, i64, piv, mat, i64]
    # LAPACKE_dgecon_work(layout, norm, n, a, lda, anorm, rcond, work[4n], iwork[n])
    gecon.argtypes = [ctypes.c_int, ctypes.c_char, i64, mat, i64, ctypes.c_double,
                      ctypes.POINTER(ctypes.c_double), vec, piv]
    for fn in (getrf, getrs, gecon):
        fn.restype = i64
    return SimpleNamespace(getrf=getrf, getrs=getrs, gecon=gecon)


class _LU:
    """LU factors of a dense square mechanism M, applied as M^-1 by ``getrs``.

    ``getrf`` factors M^T = P L U: a C-ordered M is a Fortran-ordered M^T,
    so LAPACK's working copy needs no transpose, and ``getrs`` solves
    (M^T)^T x = M x = b with ``trans='T'``.  The factors are read-only.
    Only built when ``_lapack()`` is not None, from a matrix already checked
    finite: the ``_work`` forms do not scan it for NaN.
    """

    def __init__(self, lu: np.ndarray, piv: np.ndarray) -> None:
        lu.setflags(write=False)
        piv.setflags(write=False)
        self.lu, self.piv = lu, piv
        self.shape = lu.shape

    @classmethod
    def factor(cls, m: np.ndarray) -> "_LU | None":
        """Factors of the square ``m``, or None when a pivot is exactly zero."""
        n = m.shape[0]
        if m.shape != (n, n):  # LAPACK would read past the array
            raise ValueError(f"LU factors need a square matrix, got shape {m.shape}")
        lu = np.array(m.T, dtype=np.float64, order="F")
        piv = np.empty(n, dtype=np.int64)
        info = _lapack().getrf(_COL_MAJOR, n, n, lu, n, piv)
        return None if info > 0 else cls(lu, piv)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """M^-1 rhs for an (n, k) ``rhs``, in a new array."""
        return self.solve_in_place(np.array(rhs, dtype=np.float64, order="F"))

    def solve_in_place(self, out: np.ndarray) -> np.ndarray:
        """Overwrite the Fortran-ordered (n, k) ``out`` with M^-1 out; returns it."""
        n = self.shape[0]
        if out.ndim != 2 or out.shape[0] != n:  # LAPACK would read past the array
            raise ValueError(f"operand must have shape ({n}, k), got {out.shape}")
        _lapack().getrs(_COL_MAJOR, b"T", n, out.shape[1], self.lu, n, self.piv, out, n)
        return out

    def condition(self, norm1: float) -> float:
        """||M||_1 ||M^-1||_1 from the factors, given ``norm1`` = ||M||_1 (the
        infinity norm of the factored M^T).

        LAPACK's estimate, a lower bound on the exact value (Higham, ACM
        TOMS 14, 1988), unless it is a finite value of at least a tenth of
        ``CONDITION_CAP``: then M^-1 is solved from the factors and its
        exact 1-norm taken, so that the cap is never compared with an
        underestimate (the worst estimate seen on random near-singular
        matrices was a third of the exact value).
        """
        n = self.shape[0]
        rcond = ctypes.c_double()
        _lapack().gecon(_COL_MAJOR, b"I", n, self.lu, n, norm1, ctypes.byref(rcond),
                        np.empty(4 * n), np.empty(n, dtype=np.int64))
        estimate = 1.0 / rcond.value if rcond.value > 0.0 else float("inf")
        if not CONDITION_CAP / 10 <= estimate < float("inf"):
            return estimate
        return norm1 * _norm1(self.solve_in_place(np.eye(n, order="F")))


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
    the most significant one (``numpy.kron`` order).  The product itself
    is never formed.  A single dense block is one GEMM from ``cells`` into
    the result.  Otherwise the blocks contract their digits last to first
    in one C-ordered work table whose rows are the leading cells: the
    first block reads ``cells`` and writes a new table, and every later
    one rewrites the table in place.  A block reads the table as
    (rows * pre, digit, post), where pre and post are the sides of the
    digits before and after its own, and is applied to chunks of about
    ``_CONTRACT_CHUNK`` entries, each product going to a chunk-sized
    temporary that is then written back: the last digit (post = 1) by one
    2-D GEMM per row chunk, every other digit by a batched matmul.  A block
    of LU factors on the last digit is one triangular solve (``getrs``) of
    the whole table in place, the table's transpose being the
    Fortran-ordered right-hand side LAPACK reads (``cells`` is copied into
    the table first when this block comes first); elsewhere its chunks are
    solved through a transposed temporary.  A non-square block, which only
    ``apply`` of a non-square mechanism has, writes a new table of its
    output size.  So beside ``cells`` a square operator holds one table and
    one chunk, and the table, already in the leading shape, is the result.
    """
    cells = np.asarray(cells, dtype=float)
    size = math.prod(b.shape[1] for b in blocks)
    if cells.shape[-1:] != (size,):
        raise ValidationError(f"operand's last axis must have length {size}, got {cells.shape}")
    lead = cells.shape[:-1]
    if len(blocks) == 1 and isinstance(blocks[0], np.ndarray):
        return np.dot(cells.reshape(-1, size), blocks[0].T).reshape(*lead, blocks[0].shape[0])
    # the caller's cells are only read; ``fresh`` once ``work`` is a table of our own
    work, fresh = np.ascontiguousarray(cells.reshape(-1, size)), False
    rows, pre, post = work.shape[0], size, 1
    for b in reversed(blocks):
        n_out, n_in = b.shape
        pre //= n_in
        if isinstance(b, _LU) and post == 1:
            if not fresh:
                work, fresh = work.copy(), True
            b.solve_in_place(work.reshape(-1, n_in).T)
        else:
            src = work.reshape(rows * pre, n_in, post)
            if n_out != n_in or not fresh:
                work, fresh = np.empty((rows, pre * n_out * post)), True
            dst = work.reshape(rows * pre, n_out, post)
            # whole (digit, post) slabs per chunk, or one slab in column strips
            step = max(1, _CONTRACT_CHUNK // (max(n_in, n_out) * post))
            width = min(post, max(1, _CONTRACT_CHUNK // max(n_in, n_out)))
            for q in range(0, rows * pre, step):
                for c in range(0, post, width):
                    tile = (slice(q, q + step), slice(None), slice(c, c + width))
                    dst[tile] = _apply_block(b, src[tile])
        post *= n_out
    return work.reshape(*lead, post)


def _apply_block(b: np.ndarray | _LU, src: np.ndarray) -> np.ndarray:
    """``b`` applied along axis 1 of the (chunk, digit, width) ``src``."""
    if isinstance(b, _LU):
        tmp = np.ascontiguousarray(src.transpose(0, 2, 1))
        b.solve_in_place(tmp.reshape(-1, b.shape[1]).T)
        return tmp.transpose(0, 2, 1)
    if src.shape[2] == 1:
        return np.dot(src[:, :, 0], b.T)[:, :, None]
    return np.matmul(b, src)


@dataclass(frozen=True, eq=False)
class ErrorMatrix:
    """Column-stochastic matrix P(w | z) as a linear operator, dense or factored.

    An instance holds exactly one form: ``entries``, the dense matrix, or
    ``factors``, the dense per-component mechanisms whose tensor product it
    is (a factored factor is replaced by its own factors when built).
    A dense matrix is the one-factor case of the same operator, so
    :meth:`apply`, :meth:`apply_inverse` and :meth:`condition` have one
    code path.  The inverse (per factor in factored form) and the
    condition number are computed at most once per instance and cached;
    so are the Kronecker blocks of consecutive factors, at most
    ``_BLOCK_CAP`` per side, in which the operator and its inverse are
    applied.  A dense square factor with a side of at least
    ``_LU_MIN_SIDE`` is not inverted where ``_lapack()`` finds numpy's
    own LAPACK: its LU factors are cached in place of the inverse, M^-1
    is applied by triangular solves, and its condition number is
    LAPACK's estimate from the same factors, a lower bound on the exact
    1-norm value, or the exact value near ``CONDITION_CAP``.  Elsewhere
    it is inverted as smaller factors are.  All cached arrays are
    read-only; ``dense()`` materializes the product only within
    ``DENSE_CAP``.
    """

    entries: np.ndarray | None = None
    factors: tuple["ErrorMatrix", ...] | None = None

    def __post_init__(self) -> None:
        if self.entries is None and not self.factors:
            raise ValidationError("an ErrorMatrix needs dense entries or factors")
        if self.entries is not None and self.factors is not None:
            raise ValidationError("an ErrorMatrix holds dense entries or factors, not both")
        if self.entries is not None:
            arr = np.array(self.entries, dtype=float, order="C")  # one copy, whatever the input
            norm1 = _check_stochastic(arr, "mechanism")
            arr.setflags(write=False)
            object.__setattr__(self, "entries", arr)
            object.__setattr__(self, "_entries_norm", norm1)
        else:
            factors = tuple(self.factors)
            if not all(isinstance(f, ErrorMatrix) for f in factors):
                raise ValidationError("factors must be ErrorMatrix instances")
            # a factored factor's own factors, which are dense, take its place
            object.__setattr__(self, "factors", tuple(leaf for f in factors for leaf in f._leaves))

    def __reduce__(self):
        # pickle and deepcopy rebuild through the constructor, which freezes the
        # copy; the cached inverses and factors are not carried
        return type(self), (self.entries, self.factors)

    @property
    def _leaves(self) -> tuple["ErrorMatrix", ...]:
        """The dense factors of the tensor product."""
        return self.factors or (self,)

    @property
    def _mats(self) -> tuple[np.ndarray, ...]:
        """The entries of ``_leaves``."""
        return tuple(leaf.entries for leaf in self._leaves)

    @cached_property
    def _inverses(self) -> tuple[np.ndarray | _LU, ...] | None:
        """Inverse of each of ``_mats`` (its LU factors from a side of
        ``_LU_MIN_SIDE`` when ``_lapack()`` is available), or None when one
        is singular."""
        if self.factors is not None:
            invs = [f._inverses for f in self.factors]
            return None if None in invs else tuple(inv for (inv,) in invs)
        n_w, n_z = self.entries.shape
        if n_w == n_z >= _LU_MIN_SIDE and _lapack() is not None:
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
            return math.prod((leaf.condition() for leaf in self._leaves), start=1.0)
        if self._inverses is None:
            return float("inf")
        (inv,) = self._inverses
        # the 1-norm found by validation; None when an entry is negative noise
        norm1 = _norm1(self.entries) if self._entries_norm is None else self._entries_norm
        if isinstance(inv, _LU):
            return inv.condition(norm1)
        return norm1 * _norm1(inv)

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

        For factored form it is the product, in factor order, of the
        dense factors' own cached condition numbers (nested factors are
        flattened when built, so the value does not depend on the nesting), which
        equals the dense matrix's: induced 1-norms are multiplicative over
        Kronecker products.  For a dense factor with a side of at least
        ``_LU_MIN_SIDE``, when ``_lapack()`` finds numpy's own LAPACK, the
        value is the estimate of LAPACKE's ``dgecon_work`` from its LU
        factors (``dgetrf_work``), a lower bound on the exact value:
        typically within a few per cent of it, but with no guaranteed
        ratio, so an estimate of at least ``CONDITION_CAP`` / 10 is
        replaced by the exact value, ||M||_1 times the 1-norm of M^-1
        solved from the same factors (``_LU.condition``).  The ``_work``
        forms skip LAPACKE's NaN scan of the matrix, whose entries were
        checked finite when the instance was built.  A
        dense factor with no negative entry takes its own 1-norm from that
        check: its largest column sum.  Computed once per instance and cached with the inverse.

        The estimate is not byte-reproducible: the LU factors' bytes, though
        not their pivots, differ between BLAS thread counts and between
        processes, so its last bits can differ from run to run (a 300-side
        factor read 1.8785585849361581 at one OpenBLAS thread, 1.886244804335621
        at two; the exact value is 1.8947).
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
            out["entries"] = self.entries.ravel(order="F").tolist()
        else:
            out["factors"] = [f.to_json_dict() for f in self.factors]
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "ErrorMatrix":
        """``n_w`` and ``n_z`` shape dense ``entries``; beside ``factors`` they are optional."""
        with _json_object("error-matrix", data, ("n_w", "n_z", "entries", "factors")):
            sides = {name: data[name] for name in ("n_w", "n_z") if name in data}
            # JSON integers only: int() would truncate 2.7 and read true or
            # "2", and reshape would infer a -1 from the entries' length
            if not all(type(v) is int and v >= 0 for v in sides.values()):
                raise ValueError(f"n_w and n_z must be nonnegative integers, got {sides}")
            factors = entries = None
            if data.get("factors"):
                if not isinstance(data["factors"], list):
                    raise TypeError("factors must be a list of error-matrix objects")
                factors = tuple(cls.from_json_dict(f) for f in data["factors"])
            if data.get("entries") is not None:
                entries = _json_array(data["entries"], "entries")
                if entries.ndim != 1:  # nested one list per z, reshape would read M^T
                    raise ValueError(f"entries must be a flat list, got shape {entries.shape}")
                entries = entries.reshape((data["n_w"], data["n_z"]), order="F")
            mech = cls(entries=entries, factors=factors)
            declared = (sides.get("n_w", mech.n_w), sides.get("n_z", mech.n_z))
            if declared != (mech.n_w, mech.n_z):
                raise ValueError(f"n_w and n_z declare a {declared[0]}x{declared[1]} mechanism, "
                                 f"the factors make a {mech.n_w}x{mech.n_z} one")
            return mech


@dataclass(frozen=True)
class BinaryErrorParams:
    """Misclassification pair for one binary proxy.

    eps = P(w=0 | z=1), delta = P(w=1 | z=0).  Construction fails with
    SingularError when |1 - eps - delta| < ``TOL_SINGULAR``: the 2x2
    mechanism is then (numerically) non-invertible, its inverse entries
    scaling as 1 / (1 - eps - delta).  This is the one invertibility gate
    for binary mechanisms: every instance has a usable ``determinant``,
    and its 1-norm condition number, at most 2 / |1 - eps - delta|, stays
    below ``CONDITION_CAP``.
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
        return cls(**_json_fields(cls, data, "binary error params"))


def component_mechanism(errs: Sequence[BinaryErrorParams]) -> ErrorMatrix:
    """Factored mechanism for K independent binary proxy components."""
    if not errs:
        raise ValidationError("need at least one component")
    return ErrorMatrix(factors=tuple(ErrorMatrix.from_binary(e) for e in errs))

