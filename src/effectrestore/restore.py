"""Effect restoration by inverting the measurement-error mechanism.

The observed table relates to the latent one by a per-(x, y) linear map:
P(x, y, w) = sum_z M(w, z) P(x, y, z).  When M is invertible the latent
joint distribution is recovered exactly (in the large-sample limit) by
applying the inverse map, after which ordinary confounder adjustment
yields the causal effect.  The same inverse also converts the error-prone
propensity score L(w) = P(X=1 | w) into the latent-score L(z), enabling
stratified estimation when the latent space is too large for cell-level
statistics.

Numerical policy: the tolerances are module constants, not arguments.
Every step goes through the mechanism's operator methods.  The inverse
of M (of each factor, in factored form) is computed once per
``ErrorMatrix`` and cached, and so is the condition number beside it,
so the condition check, restoration and propensity restoration on one
instance share a single factorization and one pair of 1-norms (a dense
matrix's own 1-norm is found while it is validated).  A dense factor
with a side of at least 2048 (``mechanism._LU_MIN_SIDE``) is
LU-factorized instead of inverted, where numpy's own LAPACK is found
(``mechanism._lapack``): restoration is then a pair of triangular solves
per call, and its condition number is LAPACK's estimate from the same
factors, a lower bound on the exact value.  The factorization, the
solves and the estimate call LAPACKE's ``_work`` forms, which skip the
NaN scan of the operands: a mechanism's entries are checked finite
when it is built.  A
factored operator is applied in Kronecker blocks of consecutive factors,
at most 64 per side, whose results agree with a factor-at-a-time
application to rounding (about 1e-15); a dense one is the one-block
case, a single matrix product.  A mechanism is invertible here when its
1-norm condition number ||M||_1 ||M^-1||_1 is below ``CONDITION_CAP``;
that check runs before the inverse is applied and is the only one a
matrix mechanism gets (a binary one is already gated by
``mechanism.TOL_SINGULAR`` when its ``BinaryErrorParams`` is built).
For an LU-factorized factor the check compares the cap with that lower
bound while it is below a tenth of the cap.  The estimate is usually
within a few per cent of the exact value, but Higham's estimator
guarantees no ratio (a third was seen), so from a tenth of the cap up
the exact value, solved from the same factors, is compared and reported.
Restored cells may come out slightly negative, or slightly positive
where the exact value is 0.  A cell within ``RESIDUE_ROUNDINGS`` *
eps_mach * kappa * |its slice's mass| of 0, kappa the checked condition
number (the standard bound on the rounding of a matrix-vector product),
is a residue of the inversion: ``_finalize`` sets it to exactly 0, and
it is neither negative mass nor a clip.  Whether the cells still
negative mean that the data contradict the mechanism is decided by
``_finalize`` alone.  It works on a leading batch axis, with a
condition number per table or one for all, and returns per-table masks,
not exceptions.  Every inverse comes from one kernel, ``_inverted``: it
restores table i of a stack by mechanism i, or a whole stack by one.
``_judged`` yields the results in order and raises
``IncompatibleModelError`` at the first refused table, naming it:
``restore_joint`` given a per-(x, y) grid of mechanisms restores its
(x, y) slices as one stack, judged at the worst condition number,
``synthesize_samples`` its K components as one.  ``_restored_effects``
hands the kernel's stack to ``_finalize`` and adjusts it, refusing
nothing, as the table bootstrap of ``effect-binary`` does with each
chunk of resamples.  A total
absolute negative mass up to ``TOL_INCOMPATIBLE`` is treated as
numerical noise and clipped (renormalizing each (x, y) slice to its
conserved mass), while anything larger means the postulated mechanism
is incompatible with the data and raises ``IncompatibleModelError``
unless clipping is explicitly forced.  No other module raises it.  A
clip within the tolerance is reported in the ``RestorationResult``, or
by a RuntimeWarning (``_reported``) where a function returns none.  A
restored probability below ``TOL_VANISHING`` in absolute value is a
vanishing denominator.  Positivity has one rule too, owned by
``tables._adjustment_weights`` and applied by ``adjust_for_confounder``
and ``stratified_effect`` alike: a stratum of positive mass whose
restored propensity is below ``TOL_VANISHING`` raises
``PositivityError``, so no effect rests on a rounding-noise propensity;
on a stack of tables it is a per-table mask too.

Working set: a step holds its input, at most one table of the restored
table's size and one chunk.  Restoration and the pushforward contract
the operand into one work table in chunks of
``mechanism._CONTRACT_CHUNK`` entries, clip it in place, and hand it to
the returned ``JointTable`` without a copy.  The propensity
profile and the stratified effect hold only vectors of the latent
length (at most four: P(z), the scores, one sorted copy of them and the
labels), and the profile takes its arrays without copying them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    DegenerateStratumError,
    IncompatibleModelError,
    SingularError,
    ValidationError,
)
from .mechanism import CONDITION_CAP, TOL_STOCHASTIC, ErrorMatrix
from .tables import (AXIS_LATENT, AXIS_PROXY, TOL_SUM_INPUT, TOL_VANISHING, JointTable, _adjusted,
                     _FrozenArrays, _index, _positive_weights, adjust_for_confounder)

#: restored negative mass above this total is a modeling-incompatibility error
TOL_INCOMPATIBLE = 1e-6
#: a restored cell within this many eps_mach * condition * |slice mass| of 0
#: is a rounding residue of the inversion, and is set to exactly 0
RESIDUE_ROUNDINGS = 2.0


@dataclass(frozen=True, eq=False)
class RestorationResult:
    """Restored latent joint table plus diagnostics of the inversion."""

    restored: JointTable
    condition_estimate: float
    negative_mass: float
    clipped: bool

    def to_json_dict(self) -> dict:
        return {
            "restored": self.restored.to_json_dict(),
            "condition_estimate": float(self.condition_estimate),
            "negative_mass": float(self.negative_mass),
            "clipped": bool(self.clipped),
        }


def pushforward(table: JointTable, mechanism: ErrorMatrix) -> JointTable:
    """Map a latent table through the mechanism: P(x,y,w) = sum_z M(w,z) P(x,y,z)."""
    if mechanism.n_z != table.card_v:
        raise ValidationError(
            f"mechanism has n_z={mechanism.n_z} but table card_v={table.card_v}"
        )
    return JointTable._adopt(mechanism.apply(table.cells), AXIS_PROXY)


def _check_invertible(mechanism: ErrorMatrix, *, where: str = "") -> float:
    """The mechanism's condition number, after refusing a non-square one
    or one whose condition number is not below ``CONDITION_CAP``.

    For a dense factor of side ``mechanism._LU_MIN_SIDE`` or more the
    number compared is LAPACK's estimate, a lower bound on the exact
    value, below a tenth of the cap and the exact value from there on
    (see the numerical policy above).
    """
    if mechanism.n_w != mechanism.n_z:
        raise ValidationError(
            f"restoration requires a square mechanism{where}, "
            f"got {mechanism.n_w}x{mechanism.n_z}"
        )
    cond = mechanism.condition()
    if not cond < CONDITION_CAP:
        raise SingularError(
            f"mechanism{where} is singular or ill-conditioned "
            f"(condition estimate {cond:.3e} >= cap {CONDITION_CAP:.3e}); "
            "the inverse does not exist or cannot be applied reliably"
        )
    return cond


def _finalize(raw: np.ndarray, cond: float | Sequence[float], *, clip: bool
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Clip-or-reject policy for negative restored cells: the one test of
    whether the data contradict a mechanism.  ``raw[..., x, y, w]`` holds
    restored tables along any leading batch axes, and ``cond`` is the
    condition number of their restoration, one for all or one per table.

    Returns (cells, negative_mass, clipped, refused, emptied): ``cells``
    is ``raw`` judged, and per table the total absolute negative mass
    before clipping, whether the table was clipped and whether it is
    refused.  A residue, a cell within ``RESIDUE_ROUNDINGS`` * eps_mach *
    ``cond`` * |its slice's mass| of 0, is set to 0 first and counts as
    neither.  Clipping zeroes a table's negatives and rescales each of its
    (x, y) slices back to its pre-clip mass, which restoration conserves;
    it overwrites ``raw``, a fresh array of the caller's, and returns it.
    A table is refused when its negative mass exceeds ``TOL_INCOMPATIBLE``
    and ``clip`` is off, or else when clipping leaves a slice of positive
    mass with none: ``emptied[..., x, y]`` marks those slices.  A refused
    table is clipped all the same, so that every returned cell is finite
    and nonnegative.
    """
    lead = raw.shape[:-3]
    accepted = (np.zeros(lead), np.zeros(lead, dtype=bool), np.zeros(lead, dtype=bool),
                np.zeros(raw.shape[:-1], dtype=bool))
    mass = raw.sum(axis=-1)
    floor = RESIDUE_ROUNDINGS * np.finfo(float).eps * np.asarray(cond)[..., None, None] * abs(mass)
    if raw.min() > floor.max():  # no mask of the tables' size when there is no residue
        return (raw, *accepted)
    floor = floor[..., None]
    residue = raw <= floor
    residue &= raw >= -floor
    raw[residue] = 0.0
    if raw.min() >= 0.0:
        return (raw, *accepted)
    neg = np.less(raw, 0.0, out=residue)  # in the residue mask's memory
    # each table's negatives summed in C order, with 0.0 - s so that a table
    # without any reports +0.0
    flat = (-1, math.prod(raw.shape[-3:]))
    negative_mass = 0.0 - raw.reshape(flat).sum(axis=-1, where=neg.reshape(flat)).reshape(lead)
    clipped = negative_mass > 0.0
    refused = (negative_mass > TOL_INCOMPATIBLE) & (not clip)
    raw[neg] = 0.0
    slice_sum = raw.sum(axis=-1)
    emptied = (mass > 0.0) & (slice_sum <= 0.0)
    emptied &= (clipped & ~refused)[..., None, None]
    refused |= emptied.any(axis=(-2, -1))
    scale = np.divide(mass, slice_sum, out=np.ones_like(mass),
                      where=(slice_sum > 0.0) & clipped[..., None, None])
    raw *= scale[..., None]
    return raw, negative_mass, clipped, refused, emptied


def _inverted(tables: np.ndarray, mechanisms: Sequence[ErrorMatrix], wheres: Sequence[str]
              ) -> tuple[np.ndarray, list[float]]:
    """The raw restored stack M_i^-1 ``tables[i, ..., w]`` and the condition
    numbers, once each M_i has passed ``_check_invertible`` naming
    ``wheres[i]``.  One mechanism restores a whole stack in one call."""
    conds = [_check_invertible(m, where=where) for m, where in zip(mechanisms, wheres)]
    if len(mechanisms) == 1:
        return mechanisms[0].apply_inverse(tables), conds
    return np.stack([m.apply_inverse(t) for m, t in zip(mechanisms, tables)]), conds


def _judged(raw: np.ndarray, conds: Sequence[float], *, clip: bool, wheres: Sequence[str]
            ) -> Iterator[RestorationResult]:
    """Each restored (x, y, w) table ``raw[i]``, of condition number
    ``conds[i]``, judged by ``_finalize``: its RestorationResult in order,
    until a refused one raises IncompatibleModelError naming ``wheres[i]``."""
    cells, negative_mass, clipped, refused, emptied = _finalize(raw, conds, clip=clip)
    for i, where in enumerate(wheres):
        if emptied[i].any():
            x, y = (int(j[0]) for j in np.nonzero(emptied[i]))
            raise IncompatibleModelError(
                f"slice (x={x}, y={y}){where} has no nonnegative mass left after clipping"
            )
        if refused[i]:
            raise IncompatibleModelError(
                f"restored table{where} carries negative mass {float(negative_mass[i]):.3e} "
                f"(> {TOL_INCOMPATIBLE:.1e}): the postulated error mechanism is "
                "incompatible with the observed distribution, so no estimate "
                "will be obtained"
            )
        yield RestorationResult(
            restored=JointTable._adopt(cells[i], AXIS_LATENT),
            condition_estimate=conds[i],
            negative_mass=float(negative_mass[i]),
            clipped=bool(clipped[i]),
        )


def _reported(result: RestorationResult, where: str = "") -> JointTable:
    """``result.restored``, after a RuntimeWarning naming ``where`` if it was
    clipped within ``TOL_INCOMPATIBLE``: the one clip report."""
    if result.clipped and result.negative_mass <= TOL_INCOMPATIBLE:
        warnings.warn(f"clipped the restored table{where}; its negative mass "
                      f"{result.negative_mass:.3e} is within the tolerance "
                      f"{TOL_INCOMPATIBLE:.1e}", RuntimeWarning, stacklevel=3)
    return result.restored


def _restored(tables: np.ndarray, mechanisms: Sequence[ErrorMatrix],
              wheres: Sequence[str] = ("",), *, clip: bool = False) -> list[JointTable]:
    """Each (x, y, w) table ``tables[i]`` restored by ``mechanisms[i]``, its
    clip reported naming ``wheres[i]``, in order and before any refusal."""
    raw, conds = _inverted(tables, mechanisms, wheres)
    return [_reported(result, where)
            for result, where in zip(_judged(raw, conds, clip=clip, wheres=wheres), wheres)]


def restore_joint(
    observed: JointTable,
    mechanism: ErrorMatrix | Sequence[Sequence[ErrorMatrix]],
    *,
    clip: bool = False,
) -> RestorationResult:
    """Recover P(x, y, z) from P(x, y, w) and the mechanism P(w | z).

    ``mechanism`` is one ``ErrorMatrix`` shared by every (x, y) slice, or,
    when the error is differential (the proxy's error rates depend on
    treatment and outcome), a card_x x card_y grid whose ``grid[x][y]``
    inverts slice (x, y), e.g. ``[[m00, m01], [m10, m11]]``.  A grid's
    slices are restored as one stack, its errors name the offending
    (x, y) pair, and its condition estimate is the worst across pairs.
    The per-(x, y) mass is conserved exactly (the inverse's columns sum to
    one because the mechanism's do), so the restored table is normalized
    whenever the observed one is.  Raises SingularError for
    non-invertible mechanisms and IncompatibleModelError when the data
    contradict the postulated mechanism (see module docstring).
    """
    cells = observed.cells
    if isinstance(mechanism, ErrorMatrix):
        if mechanism.n_w != observed.card_v:
            raise ValidationError(
                f"mechanism has n_w={mechanism.n_w} but observed card_v={observed.card_v}"
            )
        raw, conds = _inverted(cells[None], [mechanism], [""])
    else:
        grid = np.array(mechanism, dtype=object)
        if grid.shape != cells.shape[:2]:
            raise ValidationError(f"mechanism grid has shape {grid.shape} but the observed "
                                  f"table has (x, y) cards {cells.shape[:2]}")
        wheres = [f" for (x={x}, y={y})" for x, y in np.ndindex(grid.shape)]
        for mech, where in zip(grid.flat, wheres):
            if not isinstance(mech, ErrorMatrix):
                raise ValidationError(
                    f"mechanism{where} must be an ErrorMatrix, got {type(mech).__name__}")
            if mech.n_w != observed.card_v:
                raise ValidationError(
                    f"mechanism{where} has n_w={mech.n_w}, expected {observed.card_v}"
                )
        raw, conds = _inverted(cells.reshape(grid.size, -1), list(grid.flat), wheres)
        # one table, judged at the worst slice's condition number
        raw, conds = raw.reshape(1, *cells.shape), [max(1.0, *conds)]
    return next(_judged(raw, conds, clip=clip, wheres=[""]))


def causal_effect_restored(
    observed: JointTable,
    mechanism: ErrorMatrix | Sequence[Sequence[ErrorMatrix]],
    x: int,
    *,
    clip: bool = False,
) -> np.ndarray:
    """P(y | do(x)) from proxy data: restore the latent joint, then adjust.

    ``mechanism`` is one mechanism or a per-(x, y) grid, as in
    ``restore_joint``.  The one inverse enters every summation of the
    adjustment formula, so computing the restored table once and
    adjusting it is both the definition and the efficient implementation.
    It warns of a clip within the tolerance.
    """
    return adjust_for_confounder(_reported(restore_joint(observed, mechanism, clip=clip)), x)


def _restored_effects(cells: np.ndarray, mechanism: ErrorMatrix, x: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """``causal_effect_restored`` of every table of ``cells[..., x, y, w]``
    at once, refusing nothing: the effects[..., y] and the mask of the
    tables on which that function returns.  The inverse is one operator
    call over all tables.  Its BLAS products may round a table's last bits
    differently from a call on that table alone where the kernel changes
    with the row count (one-row tables, Kronecker blocks of side 32 or
    more), but not for the 2x2 mechanism of ``effect-binary``."""
    restored, _, _, refused, _ = _finalize(*_inverted(cells, [mechanism], [""]), clip=False)
    effects, positive = _adjusted(restored, x)
    return effects, positive & ~refused


def restored_propensity(
    score_w: np.ndarray, p_w: np.ndarray, mechanism: ErrorMatrix
) -> np.ndarray:
    """Latent propensity score from the error-prone one.

    L(z) = R(1, z) / sum_x R(x, z), where R is the (x, z) table
    [(1 - L(w)) P(w), L(w) P(w)] restored by ``restore_joint``, L(w) is
    the observable score P(X=1 | w) and P(w) the proxy marginal.  So only
    those two ever need to be estimated from data, and the restored
    table is judged like any other: IncompatibleModelError when a latent
    stratum would get negative mass, and a RuntimeWarning when it was
    clipped within the tolerance.
    """
    score_w = np.asarray(score_w, dtype=float)
    p_w = np.asarray(p_w, dtype=float)
    if score_w.shape != (mechanism.n_w,) or p_w.shape != (mechanism.n_w,):
        raise ValidationError(
            f"score_w and p_w must have shape ({mechanism.n_w},), "
            f"got {score_w.shape} and {p_w.shape}"
        )
    if not (np.isfinite(score_w).all() and np.isfinite(p_w).all()):
        raise ValidationError("score_w and p_w must be finite")
    if score_w.min() < 0.0 or score_w.max() > 1.0:
        raise ValidationError("score_w must lie in [0, 1]")
    if abs(p_w.sum() - 1.0) > TOL_SUM_INPUT or p_w.min() < -TOL_STOCHASTIC:
        raise ValidationError("p_w must be a probability distribution")
    cells = np.stack([(1.0 - score_w) * p_w, score_w * p_w])[:, None, :]
    table = JointTable._adopt(cells, AXIS_PROXY)
    restored = _reported(restore_joint(table, mechanism)).cells[:, 0]
    num, den = restored[1], restored.sum(axis=0)
    small = np.abs(den) < TOL_VANISHING
    if small.any():
        z = int(np.nonzero(small)[0][0])
        raise DegenerateStratumError(
            f"restored stratum z={z} has vanishing probability ({den[z]:.3e}); "
            "its propensity score is undefined"
        )
    return num / den


@dataclass(frozen=True, eq=False)
class PropensityProfile(_FrozenArrays):
    """Latent propensity scores with a stratification of the z-space.

    ``scores[z]`` is L(z) = P(X=treated | z) (NaN for zero-mass z),
    ``labels[z]`` is the stratum of z, or -1 for a z in no stratum, and
    ``weights[k]`` is the total latent mass P(l) of stratum k.  ``strata``
    lists each stratum's z indices in increasing order; it is formed from
    the labels when first read, and the estimators never read it.
    """

    scores: np.ndarray
    labels: np.ndarray
    weights: np.ndarray

    _arrays = (("scores", float), ("labels", None), ("weights", float))

    def _check(self) -> None:
        scores, labels, weights = self.scores, self.labels, self.weights
        if labels.shape != scores.shape or labels.dtype.kind not in "iu":
            raise ValidationError(
                f"labels must be integers, one per score: got {labels.dtype} of shape "
                f"{labels.shape} for scores of shape {scores.shape}"
            )
        if labels.size and not (-1 <= labels.min() and labels.max() < len(weights)):
            raise ValidationError(f"labels must lie in [-1, {len(weights)}), one weight per stratum")
        if weights.min(initial=0.0) < -TOL_STOCHASTIC:
            raise ValidationError("stratum weights must be nonnegative")
        if abs(float(weights.sum()) - 1.0) > TOL_SUM_INPUT:
            raise ValidationError(f"stratum weights sum to {float(weights.sum())!r}, expected 1")

    @cached_property
    def strata(self) -> tuple[tuple[int, ...], ...]:
        """Each stratum's z indices, in increasing order."""
        flat = np.argsort(self.labels, kind="stable").tolist()
        # the unlabelled z sort first, then stratum k is flat[ends[k]:ends[k + 1]]
        ends = np.cumsum(np.bincount(self.labels + 1, minlength=len(self.weights) + 1)).tolist()
        return tuple(tuple(flat[a:b]) for a, b in zip(ends, ends[1:]))


def _bin_count(name: str, n_bins: int) -> None:
    if n_bins < 1:
        raise ValidationError(f"{name} must be >= 1, got {n_bins}")


def propensity_profile(
    table: JointTable, *, treated: int = 1, n_bins: int = 20
) -> PropensityProfile:
    """Score and stratify a latent joint table.

    Scores are grouped by value (agreeing to 12 decimals, so last-bit
    noise cannot split a genuinely discrete score) when they take at
    most ``n_bins`` distinct values — a lossless stratification;
    otherwise equal-width bins over [0, 1] are used, empty bins dropped.
    Zero-mass z indices get NaN scores and belong to no stratum.
    """
    _index("treated", treated, table.card_x)
    _bin_count("n_bins", n_bins)
    p_z = table.cells.sum(axis=(0, 1))
    scores = table.cells[treated].sum(axis=0)
    pos = p_z > 0.0
    unlabelled = ~pos
    # L(z) = P(treated, z) / P(z), written over P(treated, z)
    np.divide(scores, p_z, out=scores, where=pos)
    scores[unlabelled] = np.nan
    # the one sorted copy, of the scores to 12 decimals: the positive-mass
    # z first, the NaN last.  np.unique is spelled out, because its first
    # call keeps about 0.5 MB allocated for the rest of the process
    values = np.round(scores, 12)
    values.sort()
    ordered = values[:np.count_nonzero(pos)]
    changes = ordered[1:] != ordered[:-1]
    # each z is labelled with its stratum, the zero-mass z with n_strata
    # until the weights are summed
    if np.count_nonzero(changes) + min(len(ordered), 1) <= n_bins:
        keys = np.concatenate((ordered[:1], ordered[1:][changes]))
        n_strata = len(keys)
        labels = np.searchsorted(keys, np.round(scores, 12, out=values))  # NaN sorts last
    else:
        np.round(scores, 12, out=values)
        np.clip(values, 0.0, 1.0, out=values)
        values *= n_bins
        np.minimum(values, n_bins - 1, out=values)
        values[unlabelled] = n_bins
        labels = values.astype(np.intp)
        present = np.bincount(labels, minlength=n_bins + 1)[:n_bins] > 0
        n_strata = int(present.sum())
        del values, ordered  # the scratch goes before the relabelled copy comes
        labels = np.append(np.cumsum(present) - 1, n_strata)[labels]
    weights = np.bincount(labels, weights=p_z, minlength=n_strata + 1)[:n_strata]
    weights /= weights.sum()
    labels[unlabelled] = -1
    return PropensityProfile._adopt(scores, labels, weights)


def stratified_effect(table: JointTable, profile: PropensityProfile, x: int) -> np.ndarray:
    """Stratified estimate sum_l P(y | x, l) P(l) over propensity strata.

    With one stratum per distinct latent value this reproduces full
    confounder adjustment exactly; with coarser strata it trades bias for
    the ability to work from sparse cell statistics.  Positivity is
    ``adjust_for_confounder``'s rule, applied to the strata: a stratum of
    positive weight whose propensity P(x | l) is below ``TOL_VANISHING``
    raises PositivityError.
    """
    _index("x", x, table.card_x)
    labels = profile.labels
    if len(labels) != table.card_v:
        raise ValidationError(
            f"profile labels {len(labels)} latent values, table has card_v={table.card_v}"
        )
    n_strata = len(profile.weights)
    # stratum + 1 of each z: the z in no stratum count in bin 0
    bins = labels + 1
    counts = np.bincount(bins, minlength=n_strata + 1)
    if counts[0]:
        uncovered = np.flatnonzero((table.cells.sum(axis=(0, 1)) > 0.0) & (labels < 0))
        if uncovered.size:
            raise ValidationError(
                f"strata do not cover positive-mass z indices {uncovered.tolist()}"
            )
    # P(x, y, l) for every stratum l, shape (n_strata, card_y)
    p_xyl = np.stack(
        [np.bincount(bins, weights=table.cells[x, y], minlength=n_strata + 1)[1:]
         for y in range(table.card_y)],
        axis=1,
    )
    weights = profile.weights
    empty = np.flatnonzero((weights > 0.0) & (counts[1:] == 0))
    if empty.size:
        k = int(empty[0])
        raise DegenerateStratumError(f"stratum {k} is empty but has weight {weights[k]:.3e}")
    return _positive_weights(weights, p_xyl.sum(axis=1), x, "l") @ p_xyl
