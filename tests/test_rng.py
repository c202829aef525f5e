"""Random streams: row blocks of uniforms continue one Philox stream."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectrestore.errors import ValidationError
from effectrestore.rng import _uniform_row_blocks, make_rng


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 300), st.integers(0, 7), st.integers(1, 64))
def test_row_blocks_concatenate_to_one_draw(seed, n, k, block_values):
    rng = make_rng(seed)
    starts, blocks = [], []
    for start, u in _uniform_row_blocks(rng, n, k, block_values):
        starts.append(start)
        blocks.append(u)
    want = make_rng(seed)
    np.testing.assert_array_equal(np.vstack([np.empty((0, k)), *blocks]), want.random((n, k)))
    assert starts == np.cumsum([0] + [len(u) for u in blocks])[:-1].tolist()
    assert all(u.size <= max(block_values, k) for u in blocks)
    assert rng.random() == want.random()  # the generator ends where the single call does


@pytest.mark.parametrize("key, named", [((-1,), "seed -1"), ((-5, 2), "seed -5"),
                                        ((3, 0, -2), "stream index -2")],
                         ids=["seed", "seed-and-stream", "stream"])
def test_a_negative_seed_or_stream_index_is_refused(key, named):
    # numpy's SeedSequence would raise a plain ValueError that names neither
    with pytest.raises(ValidationError, match=f"^{named} is negative"):
        make_rng(*key)
