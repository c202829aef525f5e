"""Hypothesis strategies shared by the test modules."""

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from effectrestore import ErrorMatrix


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
