"""Deterministic, splittable random streams for simulation and resampling.

All randomness in this package flows through Philox (a counter-based,
splittable generator) keyed by a SeedSequence over ``(seed, *stream)``.
Substreams are derived by *index*, never by drawing from a parent stream:
``make_rng(seed, k)`` is the k-th independent stream of the run seeded
with ``seed``, so replicate loops can run in any order (or in parallel)
and still reproduce.  The derivation rule, not the bitstream, is the
portable contract: reimplementations matching the rule reproduce the
same distributions.  Tests on random output are distributional, or check
how a sampler consumes the stream of ``make_rng``, never its raw bits.

Philox fills a request in order from one counter, so consecutive calls
continue a single stream: ``_uniform_row_blocks`` hands out an (n, k)
block of uniforms in row blocks that concatenate, bit for bit, to
``rng.random((n, k))`` and leave ``rng`` where that call would.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import ValidationError

#: values per block yielded by :func:`_uniform_row_blocks` (512 KiB of float64)
_BLOCK_VALUES = 1 << 16


def _seed(name: str, value: int) -> None:
    if value < 0:
        raise ValidationError(f"{name} {value} is negative; seeds and stream indices must be >= 0")


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator for the given seed and substream indices, all
    nonnegative integers (ValidationError names a negative one)."""
    key = (int(seed), *(int(s) for s in stream))
    _seed("seed", key[0])
    _seed("stream index", min(key[1:], default=0))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def _uniform_row_blocks(
    rng: np.random.Generator, n: int, k: int, block_values: int = _BLOCK_VALUES
) -> Iterator[tuple[int, np.ndarray]]:
    """Consecutive row blocks ``(start, u)`` of ``rng.random((n, k))``.

    Each ``u`` holds about ``block_values`` values (at least one row); the
    blocks concatenate to that single call bit for bit, so a caller that
    consumes them in order needs O(block) memory for its uniforms.
    """
    rows = max(1, block_values // max(k, 1))
    for start in range(0, n, rows):
        yield start, rng.random((min(rows, n - start), k))
