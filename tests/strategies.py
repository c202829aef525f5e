"""Hypothesis strategies and helpers shared by the test modules."""

import contextlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from effectrestore import BinaryErrorParams, ErrorMatrix, mechanism


@contextlib.contextmanager
def lu_from(side, lapack=True):
    """Within the block, dense square factors with at least ``side`` per side
    are LU-factorized on first use instead of inverted; with ``lapack``
    false, ``mechanism._lapack()`` is None, so they are inverted after all."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mechanism, "_LU_MIN_SIDE", side)
        if not lapack:
            mp.setattr(mechanism, "_lapack", lambda: None)
        yield


def traced_peak(fn):
    """``fn()``'s result and the peak of the memory it allocated, in bytes,
    as ``tracemalloc`` counts it from the call's start."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@st.composite
def stochastic_matrices(draw, n, max_mix=0.4):
    """Column-stochastic n x n matrices, column-diagonally dominant: invertible,
    with 1-norm condition number at most 1 / (1 - 2 mix), mix <= ``max_mix``
    (5 at the default)."""
    raw = draw(hnp.arrays(np.float64, (n, n), elements=st.floats(0.01, 1.0)))
    mix = draw(st.floats(0.0, max_mix))
    return (1.0 - mix) * np.eye(n) + mix * raw / raw.sum(axis=0)


def binary_rate_lists(max_size=4):
    """1 to ``max_size`` misclassification pairs, each with eps + delta <= 0.9."""
    rates = st.floats(0.0, 0.45)
    return st.lists(st.builds(BinaryErrorParams, rates, rates), min_size=1, max_size=max_size)


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


@st.composite
def kron_factors(draw, *, square, max_side=1024):
    """1 to 12 dense factors with sides 1-8, binary ones most likely so that
    runs of them fill ``mechanism._BLOCK_CAP``-wide blocks, their Kronecker
    product at most ``max_side`` per side.  Square factors are well
    conditioned (at most 1 / (1 - 2 * 0.2) each); non-square ones have
    positive entries."""
    sides = st.sampled_from([2, 2, 2, 2, 1, 3, 4, 5, 8])
    mats, n_w, n_z = [], 1, 1
    for _ in range(draw(st.integers(1, 12))):
        rows = draw(sides)
        cols = rows if square else draw(sides)
        if max(n_w * rows, n_z * cols) > max_side:
            break
        mats.append(draw(stochastic_matrices(rows, max_mix=0.2)) if square
                    else draw(rectangular_matrices(rows, cols)))
        n_w, n_z = n_w * rows, n_z * cols
    return mats
