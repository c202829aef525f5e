"""Hypothesis strategies and helpers shared by the test modules."""

import contextlib

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from effectrestore import ErrorMatrix, mechanism


@contextlib.contextmanager
def lu_from(side):
    """Within the block, dense square factors with at least ``side`` per side
    are LU-factorized on first use instead of inverted."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mechanism, "_LU_MIN_SIDE", side)
        yield


@st.composite
def stochastic_matrices(draw, n):
    """Column-stochastic n x n matrices, column-diagonally dominant: invertible,
    with 1-norm condition number at most 1 / (1 - 2 mix) <= 5."""
    raw = draw(hnp.arrays(np.float64, (n, n), elements=st.floats(0.01, 1.0)))
    mix = draw(st.floats(0.0, 0.4))
    return (1.0 - mix) * np.eye(n) + mix * raw / raw.sum(axis=0)


@st.composite
def factor_lists(draw, max_factors=4):
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=max_factors))
    return [ErrorMatrix(entries=draw(stochastic_matrices(n))) for n in dims]


@st.composite
def rectangular_matrices(draw, rows, cols):
    """Column-stochastic rows x cols matrices with positive entries."""
    raw = draw(hnp.arrays(np.float64, (rows, cols), elements=st.floats(0.01, 1.0)))
    return raw / raw.sum(axis=0)


@st.composite
def nested_mechanisms(draw, *, square, max_side=400):
    """A factored ErrorMatrix of 1-5 factors with sides 1-5, each side's
    product at most ``max_side``; runs of consecutive factors may be
    grouped into nested factored instances.  Returns the mechanism and
    its flat list of dense factor matrices."""
    shapes, n_w, n_z = [], 1, 1
    for _ in range(draw(st.integers(1, 5))):
        rows = draw(st.integers(1, 5))
        cols = rows if square else draw(st.integers(1, 5))
        if max(n_w * rows, n_z * cols) > max_side:
            break
        shapes.append((rows, cols))
        n_w, n_z = n_w * rows, n_z * cols
    mats = [draw(stochastic_matrices(r)) if square else draw(rectangular_matrices(r, c))
            for r, c in shapes]
    leaves = [ErrorMatrix(entries=m) for m in mats]
    factors, i = [], 0
    while i < len(leaves):
        run = draw(st.integers(1, len(leaves) - i))
        group = leaves[i:i + run]
        factors.append(group[0] if run == 1 else ErrorMatrix(factors=tuple(group)))
        i += run
    return ErrorMatrix(factors=tuple(factors)), mats
