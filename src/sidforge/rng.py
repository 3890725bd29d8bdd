"""Counter-based random streams keyed by (seed, purpose, index)."""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

# Purpose codes for deriving independent streams from one experiment seed.
CATEGORY_CENTERS = 1
ITEM_NOISE = 2
TWIN_PAIRS = 3
USER_EVENTS = 4
CODEBOOK_LEVEL = 5
PROBE_SPLIT = 6
CORPUS_SAMPLING = 7


def stream(seed: int, purpose: int, index: int = 0) -> np.random.Generator:
    """Independent generator for one (seed, purpose, index) triple.

    Streams are separated by key, not by draw order, so generating more items
    never shifts the stream of any user, quantization level, or other purpose,
    and sharded generation is byte-identical to sequential generation.
    """
    key = np.array(_key_words(seed, purpose, index), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def streams(seed: int, purpose: int, indices: Iterable[int]) -> Iterator[np.random.Generator]:
    """`stream(seed, purpose, i)` for each of `indices`, in order, bit for bit.

    A Philox stream is its key, so one bit generator serves them all: before
    each index its key is reset, its counter set back to 0 and its buffer
    cleared through the public `state` setter. Each yielded Generator is the
    same object, valid until the next one is yielded.
    """
    bits = np.random.Philox(key=np.array(_key_words(seed, purpose, 0), dtype=np.uint64))
    gen = np.random.Generator(bits)
    fresh = bits.state  # counter 0, empty buffer: re-set before every index
    key = fresh["state"]["key"]
    for index in indices:
        key[1] = _key_words(seed, purpose, index)[1]
        bits.state = fresh
        yield gen


def _key_words(seed: int, purpose: int, index: int) -> tuple[int, int]:
    """The two 64-bit words of a stream's Philox key."""
    if not 0 < purpose < 2**32:
        raise ValueError(f"purpose code {purpose} out of range")
    if not 0 <= index < 2**32:
        raise ValueError(f"stream index {index} out of range")
    return seed & 0xFFFFFFFFFFFFFFFF, (purpose << 32) | index
