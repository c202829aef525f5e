"""Discrete joint probability tables over (X, Y, V) and confounder adjustment.

A table stores P(x, y, v) densely, where the third axis V is either the
latent confounder Z or its observable proxy W; the ``axis`` tag records
which.  All operations are pure: tables are immutable and safely
shareable across threads.

Tolerances: tables built from empirical data are accepted when their mass
is within 1e-9 of 1; tables produced internally by restoration are held
to 1e-12 in tests.  The positivity precondition of the adjustment formula
has one owner, ``_adjustment_weights``, which both the cell-level and the
stratified adjustment call: a stratum of positive mass whose propensity
is below ``TOL_VANISHING`` is refused, so an effect never rests on a
rounding-noise propensity.  The rule works on a leading batch axis: it
returns one pass-or-fail entry per table, and only a one-table caller
turns a failure into PositivityError.  An empirical zero cell is the caller's
smoothing problem.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Sequence

import numpy as np

from .errors import PositivityError, ValidationError
from .io import _json_array, _json_object

AXIS_LATENT = "Z"
AXIS_PROXY = "W"

#: acceptance tolerance on |sum(cells) - 1| for externally supplied tables
TOL_SUM_INPUT = 1e-9
#: tolerance below which a slightly negative cell counts as numerical noise
TOL_NEG = 1e-9
#: a propensity or denominator below this in absolute value vanishes
TOL_VANISHING = 1e-9

_AXIS_ORDER = ("x", "y", "v")


class _FrozenArrays:
    """Base of the immutable array dataclasses (``JointTable``, ``ErrorMatrix``,
    ``PropensityProfile``, ``DiscreteModelSpec``): the one owner of their rule.

    A subclass lists its array fields in ``_arrays`` as ``(name, dtype)``
    (None keeps the input's dtype) and defines ``_check``.  The constructor
    copies each array that is not None once, in C order; ``_adopt`` takes
    fresh arrays that the library made without a copy.  Either way
    ``_freeze`` runs ``_check`` and makes the arrays read-only in place.
    Pickle and deepcopy rebuild through the constructor, so a copy is
    frozen and carries no cached state."""

    _arrays: ClassVar[tuple[tuple[str, type | None], ...]]

    def __post_init__(self) -> None:
        for name, dtype in self._arrays:
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, np.array(value, dtype=dtype, order="C"))
        self._freeze()

    def _freeze(self) -> None:
        self._check()
        for name, _ in self._arrays:
            arr = getattr(self, name)
            if arr is not None:
                arr.setflags(write=False)

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in dataclasses.fields(self))

    @classmethod
    def _adopt(cls, *values):
        obj = object.__new__(cls)
        for f, value in zip(dataclasses.fields(cls), values, strict=True):
            object.__setattr__(obj, f.name, value)
        obj._freeze()
        return obj


@dataclass(frozen=True, eq=False)
class JointTable(_FrozenArrays):
    """Dense joint distribution P(x, y, v) with v tagged as latent or proxy.

    The constructor checks shape, finiteness, and the axis tag only;
    normalization and negativity are *reported* by :func:`validate_joint`
    so that defective empirical tables can still be represented and
    diagnosed.
    """

    cells: np.ndarray
    axis: str = AXIS_PROXY

    _arrays = (("cells", float),)

    def _check(self) -> None:
        """Check the cells and the axis tag (adopted cells not in C order are
        copied into it)."""
        arr = self.cells
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise ValidationError(f"cells must be a 3-d array, got shape {arr.shape}")
        arr = np.ascontiguousarray(arr, dtype=float)
        object.__setattr__(self, "cells", arr)
        # a finite sum has finite terms; only an infinite one needs the cell-wise test
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf or overflow
            total = arr.sum()
        if not (np.isfinite(total) or np.isfinite(arr).all()):
            raise ValidationError("cells must be finite")
        if self.axis not in (AXIS_LATENT, AXIS_PROXY):
            raise ValidationError(f"axis must be {AXIS_LATENT!r} or {AXIS_PROXY!r}, got {self.axis!r}")

    @property
    def card_x(self) -> int:
        return self.cells.shape[0]

    @property
    def card_y(self) -> int:
        return self.cells.shape[1]

    @property
    def card_v(self) -> int:
        return self.cells.shape[2]

    def total(self) -> float:
        return float(self.cells.sum())

    def with_axis(self, axis: str) -> "JointTable":
        """Same cells, relabelled third axis (proxy treated as latent or vice versa);
        the read-only cells are shared, not copied."""
        return JointTable._adopt(self.cells, axis)

    def to_json_dict(self) -> dict:
        return {
            "cards": [self.card_x, self.card_y, self.card_v],
            "cells": self.cells.ravel().tolist(),
            "axis": self.axis,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "JointTable":
        with _json_object("joint-table", data, ("cards", "cells", "axis")):
            cards = list(data["cards"])
            # JSON integers only: int() would truncate 2.7 and read true or "2",
            # and reshape would infer a -1 from the cells' length
            if len(cards) != 3 or not all(type(c) is int and c >= 0 for c in cards):
                raise ValueError(f"cards must be three nonnegative integers, got {cards!r}")
            cells = _json_array(data["cells"], "cells")
            # flat in C order, as to_json_dict writes, or nested as (x, y, v): any
            # other layout of the same size would be silently re-read.  math.prod,
            # unlike np.prod, cannot wrap around to match a short list
            if cells.shape not in ((math.prod(cards),), tuple(cards)):
                raise ValueError(
                    f"cells must be a flat list or nested as cards {cards}, got shape {cells.shape}"
                )
            return cls._adopt(cells.reshape(cards), data["axis"])


@dataclass(frozen=True)
class TableValidation:
    """Outcome of :func:`validate_joint`: normalization defect and negative cells."""

    defect: float
    negative_cells: tuple[tuple[tuple[int, int, int], float], ...]
    valid: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "valid", self.defect <= TOL_SUM_INPUT and not self.negative_cells)


def validate_joint(table: JointTable) -> TableValidation:
    """Report the normalization defect |mass - 1| and any cells below -TOL_NEG.

    Reporting only; never raises and never mutates.
    """
    defect = abs(table.total() - 1.0)
    neg = tuple(
        (tuple(int(i) for i in idx), float(table.cells[idx]))
        for idx in zip(*np.nonzero(table.cells < -TOL_NEG))
    )
    return TableValidation(defect=defect, negative_cells=neg)


def _axis_indices(axes: Iterable[str]) -> list[int]:
    names = [str(a).lower() for a in axes]
    if not names:
        raise ValidationError("axes must be a nonempty subset of {'x', 'y', 'v'}")
    unknown = set(names) - set(_AXIS_ORDER)
    if unknown:
        raise ValidationError(f"unknown axes {sorted(unknown)}; expected subset of {_AXIS_ORDER}")
    return sorted(_AXIS_ORDER.index(n) for n in set(names))


def marginal(table: JointTable, axes: Iterable[str]) -> np.ndarray:
    """Sum out the axes not listed; kept axes stay in (x, y, v) order.

    ``marginal(t, "v")`` is P(v); ``marginal(t, ("x", "v"))`` is P(x, v).
    """
    keep = _axis_indices(axes)
    drop = tuple(i for i in range(3) if i not in keep)
    return table.cells.sum(axis=drop) if drop else np.array(table.cells)


def _vanishing(weight: np.ndarray) -> np.ndarray:
    """Where the propensity P(x | v) that a weight 1 / P(x | v) stands for is
    below ``TOL_VANISHING``: a weight above 1 / ``TOL_VANISHING``, infinite
    or negative.  The package's one positivity rule."""
    return (weight * TOL_VANISHING > 1.0) | (weight < 0.0)


def _adjustment_weights(p_v: np.ndarray, p_xv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The adjustment formula's weights P(v) / P(x, v) of each batch element
    of ``p_v[..., v]`` and ``p_xv[..., v]``, written over ``p_xv`` (0 where
    P(v) = 0), and a mask, one entry per element, of the elements that pass
    the positivity test: no stratum with P(v) > 0 whose propensity
    P(x | v) is ``_vanishing``.  The test reads each element's largest and
    smallest weight, so it needs no buffer of the weights' size."""
    pos = p_v > 0.0
    with np.errstate(divide="ignore", over="ignore"):  # the test below reads inf
        weight = np.divide(p_v, p_xv, out=p_xv, where=pos)
    weight[~pos] = 0.0
    positive = ~(_vanishing(weight.max(axis=-1)) | _vanishing(weight.min(axis=-1)))
    return weight, positive


def _positive_weights(p_v: np.ndarray, p_xv: np.ndarray, x: int, v: str = "v") -> np.ndarray:
    """One table's ``_adjustment_weights``, or PositivityError naming its
    first stratum that fails the test; ``v`` names the strata."""
    weight, positive = _adjustment_weights(p_v, p_xv)
    if not positive:
        i = int(np.flatnonzero(_vanishing(weight))[0])
        raise PositivityError(
            f"P(x={x} | {v}={i}) = {1.0 / weight[i]:.3g} while P({v}={i}) = {p_v[i]:.6g}: "
            f"stratum {v}={i} violates positivity (propensity below {TOL_VANISHING:.0e})"
        )
    return weight


def _adjusted(cells: np.ndarray, x: int, *, refuse: bool = False
              ) -> tuple[np.ndarray, np.ndarray]:
    """sum_v P(y | x, v) P(v) of each table of ``cells[..., x, y, v]``, and
    the mask of the tables that pass the positivity test.  The effect of a
    table that fails it is 0; with ``refuse``, for one table, it raises
    PositivityError instead (``_positive_weights``).

    The products are ``np.matmul`` of each table's x row by its weights,
    one matrix-vector product per table, so a table's effect has the same
    bits whether it is adjusted alone or in a batch."""
    p_v, p_xv = cells.sum(axis=(-3, -2)), cells[..., x, :, :].sum(axis=-2)
    if refuse:
        weight, positive = _positive_weights(p_v, p_xv, x), np.True_
    else:
        weight, positive = _adjustment_weights(p_v, p_xv)
        weight[~positive] = 0.0
    return np.matmul(cells[..., x, :, :], weight[..., :, None])[..., 0], positive


def _index(name: str, value: int, card: int, axis: str = "x") -> None:
    """The one index rule, for a treatment (or outcome) value: an integer in [0, card)."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) and 0 <= value < card):
        raise ValidationError(f"{name}={value} out of range for card_{axis}={card}")


def _smooth(name: str, value: float) -> None:
    """The one smoothing rule, for a pseudo-count added to every cell: a finite real >= 0."""
    if not (math.isfinite(value) and value >= 0.0):
        raise ValidationError(f"{name} must be a finite nonnegative real, got {value!r}")


def adjust_for_confounder(table: JointTable, x: int) -> np.ndarray:
    """Confounder-adjusted outcome distribution sum_v P(y | x, v) P(v).

    Treats the table's V axis as a sufficient confounder set; this is only
    a causal effect when that reading is justified (V latent, back-door
    criterion satisfied).  Requires positivity: every stratum v with
    P(v) > 0 must have a propensity P(x | v) of at least ``TOL_VANISHING``,
    or PositivityError names the first that does not.  For a valid
    nonnegative table the result is a probability vector (sums to 1 within
    1e-12).  This is the one-table call of ``_adjusted``.
    """
    _index("x", x, table.card_x)
    return _adjusted(table.cells, x, refuse=True)[0]


def empirical_joint(
    samples: np.ndarray,
    cards: Sequence[int],
    axis: str = AXIS_PROXY,
    *,
    smooth: float = 0.0,
) -> JointTable:
    """Frequency table from integer (not float) samples with columns (x, y, v_1..v_K).

    ``cards`` has one entry per column.  The v columns are raveled into one
    V axis of ``prod(cards[2:])`` values, the first most significant
    (``numpy.kron`` order, as the simulator draws a factored proxy).
    ``smooth`` adds the given pseudo-count to every cell before normalizing
    (additive smoothing for empty cells); 0 keeps raw frequencies.
    """
    arr = np.asarray(samples)
    if len(cards) < 3 or arr.ndim != 2 or arr.shape[1] != len(cards):
        raise ValidationError(f"samples must have shape (n, k) for k >= 3 cards, one per "
                              f"column, got {arr.shape} and cards {cards}")
    _smooth("smooth", smooth)
    try:
        idx = np.ravel_multi_index(tuple(arr.T), cards)
    except ValueError:
        for j, card in enumerate(cards):
            bad = arr[(arr[:, j] < 0) | (arr[:, j] >= card), j]
            if bad.size:
                raise ValidationError(
                    f"samples column {j} holds {bad[0]}, outside [0, {card})") from None
        raise ValidationError(f"cards {cards} do not size a table") from None
    except TypeError:
        raise ValidationError(f"samples must be integers, got dtype {arr.dtype}") from None
    counts = np.bincount(idx, minlength=math.prod(cards)).astype(float)
    counts += smooth
    with np.errstate(over="ignore"):  # refused below
        total = counts.sum()
    if not math.isfinite(total):  # a finite smooth whose sum overflows
        raise ValidationError(f"smooth={smooth} over {counts.size} cells leaves the "
                              f"table's mass {total}, not finite")
    if total <= 0.0:
        raise ValidationError("cannot build a table from zero samples without smoothing")
    counts /= total
    return JointTable._adopt(counts.reshape(*cards[:2], -1), axis)

