from __future__ import annotations

import numpy as np
import pytest

from sidforge import rng


def test_streams_reproducible():
    a = rng.stream(7, rng.CODEBOOK_LEVEL, 2).random(5)
    b = rng.stream(7, rng.CODEBOOK_LEVEL, 2).random(5)
    assert np.array_equal(a, b)


def test_streams_independent_across_purpose_and_index():
    draws = {
        (purpose, index): tuple(rng.stream(7, purpose, index).random(4))
        for purpose in (rng.CATEGORY_CENTERS, rng.ITEM_NOISE, rng.USER_EVENTS)
        for index in (0, 1, 2)
    }
    assert len(set(draws.values())) == len(draws)


def test_seed_changes_stream():
    a = rng.stream(1, rng.ITEM_NOISE).random(4)
    b = rng.stream(2, rng.ITEM_NOISE).random(4)
    assert not np.array_equal(a, b)


def test_purpose_range_checked():
    with pytest.raises(ValueError):
        rng.stream(0, 0)
    with pytest.raises(ValueError):
        rng.stream(0, 1, -1)


def _draws(gen: np.random.Generator) -> np.ndarray:
    """Raw words, normals, bounded integers and floats, as int64 bit patterns."""
    return np.concatenate([
        gen.bit_generator.random_raw(3).view(np.int64),
        gen.standard_normal(5).view(np.int64),
        gen.integers(0, 3600, size=7),
        gen.integers(2**31 + 1, size=3),
        gen.random(4).view(np.int64),
    ])


@pytest.mark.parametrize("indices", [[0, 1, 2, 3], [9, 2, 2**32 - 1, 0, 5]], ids=["contiguous", "scattered"])
def test_streams_match_stream(indices):
    for got_gen, index in zip(rng.streams(11, rng.ITEM_NOISE, indices), indices, strict=True):
        got = _draws(got_gen)
        assert np.array_equal(got, _draws(rng.stream(11, rng.ITEM_NOISE, index)))


def test_streams_reset_after_partial_read():
    """A stream left mid-block (buffered words, a held 32-bit half) does not
    leak into the next index."""
    indices = [4, 5, 6]
    for n, (gen, index) in enumerate(zip(rng.streams(3, rng.USER_EVENTS, indices), indices)):
        assert np.array_equal(_draws(gen), _draws(rng.stream(3, rng.USER_EVENTS, index)))
        gen.bit_generator.random_raw(n + 1)
        gen.integers(5)  # leaves a held half behind


def test_streams_range_checked():
    for index in (2**32, -1):
        with pytest.raises(ValueError, match="stream index"):
            list(rng.streams(0, rng.ITEM_NOISE, [0, index]))
    with pytest.raises(ValueError, match="purpose code"):
        list(rng.streams(0, 0, [0]))
