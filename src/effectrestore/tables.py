"""Discrete joint probability tables over (X, Y, V) and confounder adjustment.

A table stores P(x, y, v) densely, where the third axis V is either the
latent confounder Z or its observable proxy W; the ``axis`` tag records
which.  All operations are pure: tables are immutable and safely
shareable across threads.

Tolerances: tables built from empirical data are accepted when their mass
is within 1e-9 of 1; tables produced internally by restoration are held
to 1e-12 in tests.  The positivity precondition of the adjustment formula
is checked strictly (no epsilon): an empirical zero cell is the caller's
smoothing problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import PositivityError, ValidationError

AXIS_LATENT = "Z"
AXIS_PROXY = "W"

#: acceptance tolerance on |sum(cells) - 1| for externally supplied tables
TOL_SUM_INPUT = 1e-9
#: tolerance below which a slightly negative cell counts as numerical noise
TOL_NEG = 1e-9

_AXIS_ORDER = ("x", "y", "v")


@dataclass(frozen=True, eq=False)
class JointTable:
    """Dense joint distribution P(x, y, v) with v tagged as latent or proxy.

    The constructor checks shape, finiteness, and the axis tag only;
    normalization and negativity are *reported* by :func:`validate_joint`
    so that defective empirical tables can still be represented and
    diagnosed.
    """

    cells: np.ndarray
    axis: str = AXIS_PROXY

    def __post_init__(self) -> None:
        arr = np.asarray(self.cells, dtype=float)
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise ValidationError(f"cells must be a 3-d array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("cells must be finite")
        if self.axis not in (AXIS_LATENT, AXIS_PROXY):
            raise ValidationError(f"axis must be {AXIS_LATENT!r} or {AXIS_PROXY!r}, got {self.axis!r}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "cells", arr)

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
        """Same cells, relabelled third axis (proxy treated as latent or vice versa)."""
        return JointTable(self.cells, axis)

    def to_json_dict(self) -> dict:
        return {
            "cards": [self.card_x, self.card_y, self.card_v],
            "cells": [float(c) for c in self.cells.ravel(order="C")],
            "axis": self.axis,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "JointTable":
        try:
            cx, cy, cv = (int(c) for c in data["cards"])
            cells = np.asarray(data["cells"], dtype=float).reshape(cx, cy, cv)
            axis = str(data["axis"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed joint-table JSON: {exc}") from exc
        return cls(cells, axis)


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


def adjust_for_confounder(table: JointTable, x: int) -> np.ndarray:
    """Confounder-adjusted outcome distribution sum_v P(y | x, v) P(v).

    Treats the table's V axis as a sufficient confounder set; this is only
    a causal effect when that reading is justified (V latent, back-door
    criterion satisfied).  Requires strict positivity: every stratum v
    with P(v) > 0 must have P(x, v) > 0.  For a valid nonnegative table
    the result is a probability vector (sums to 1 within 1e-12).
    """
    if not 0 <= x < table.card_x:
        raise ValidationError(f"x={x} out of range for card_x={table.card_x}")
    p_v = table.cells.sum(axis=(0, 1))
    p_xv = table.cells.sum(axis=1)
    bad = np.nonzero((p_v > 0.0) & (p_xv[x] <= 0.0))[0]
    if bad.size:
        v = bad[0]
        raise PositivityError(
            f"P(x={x} | v={v}) = 0 while P(v={v}) = {p_v[v]:.6g}: "
            f"stratum v={v} violates positivity"
        )
    weight = np.divide(p_v, p_xv[x], out=np.zeros_like(p_v), where=p_v > 0.0)
    return table.cells[x] @ weight


def empirical_joint(
    samples: np.ndarray,
    cards: tuple[int, int, int],
    axis: str = AXIS_PROXY,
    *,
    smooth: float = 0.0,
) -> JointTable:
    """Frequency table from integer samples with columns (x, y, v).

    ``smooth`` adds the given pseudo-count to every cell before
    normalizing (additive smoothing for empty cells); 0 keeps raw
    frequencies.
    """
    arr = np.asarray(samples)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValidationError(f"samples must have shape (n, 3), got {arr.shape}")
    if smooth < 0.0:
        raise ValidationError("smooth must be >= 0")
    cx, cy, cv = cards
    idx = (arr[:, 0] * cy + arr[:, 1]) * cv + arr[:, 2]
    # one max per column: a row-axis reduction over (n, 3) is several times slower
    if arr.size and (arr.min() < 0 or any(arr[:, j].max() >= cards[j] for j in range(3))):
        raise ValidationError("sample values out of range for the given cardinalities")
    counts = np.bincount(idx.astype(int), minlength=cx * cy * cv).astype(float)
    counts += smooth
    total = counts.sum()
    if total <= 0.0:
        raise ValidationError("cannot build a table from zero samples without smoothing")
    return JointTable((counts / total).reshape(cx, cy, cv), axis)
