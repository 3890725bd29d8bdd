"""Deterministic fuzzing of every artifact loader.

Each artifact of a tiny pipeline run is truncated at evenly spaced offsets
and has single bits flipped at evenly spaced bit positions. Every variant
must either load or raise its module's typed error; no other exception may
escape. A file guarded by a checksum or a content hash (the embedding
matrix, the model's centroids) must load identically when it loads at all.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from sidforge.datamodel import (
    CatalogError,
    EmbeddingIOError,
    InteractionError,
    load_embeddings,
    load_interactions,
    load_items,
)
from sidforge.pipeline import ArtifactPaths, load_config, run_pipeline
from sidforge.recommender import RecommenderError, load_ngram
from sidforge.rq import RqError, load_assignment, load_model

TRUNCATIONS = 100
FLIPS = 500


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz_source")
    cfg = load_config(env={})
    cfg["pipeline"]["output_dir"] = str(out)
    cfg["synth"] = {
        "num_items": 30,
        "num_users": 12,
        "dim": 4,
        "num_categories": 3,
        "enrichment_level": 0.5,
        "intra_category_noise": 0.5,
        "events_per_user": [4, 7],
        "seed": 5,
    }
    cfg["rq"] = {**cfg["rq"], "levels": 2, "codebook_sizes": [4, 3]}
    cfg["stages"] = {**cfg["stages"], "diagnose": False, "corpus": False}
    assert run_pipeline(cfg)[0] == 0
    return ArtifactPaths.in_dir(out)


def same_embeddings(a, b):
    return a.item_ids == b.item_ids and np.array_equal(a.rows, b.rows)


def same_rows(a, b):
    return np.array_equal(a.rows, b.rows)


def same_centroids(a, b):
    return a.model_hash() == b.model_hash()


# ArtifactPaths field -> (loader taking the paths, typed error, check on a
# variant that loads, or None when any successful load is acceptable)
CASES = {
    "items": (lambda p: load_items(p.items), CatalogError, None),
    "interactions": (lambda p: load_interactions(p.interactions), InteractionError, None),
    "embeddings": (lambda p: load_embeddings(p.embeddings), EmbeddingIOError, same_embeddings),
    "embedding_ids": (lambda p: load_embeddings(p.embeddings), EmbeddingIOError, same_rows),
    "model": (lambda p: load_model(p.model), RqError, same_centroids),
    "assignment": (lambda p: load_assignment(p.assignment), RqError, None),
    "ngram": (lambda p: load_ngram(p.ngram), RecommenderError, None),
}


def variants(data: bytes):
    """Evenly spaced truncations, then evenly spaced single-bit flips. The
    flip stride is odd, so the flipped bit moves through every bit position
    of a byte."""
    for cut in range(0, len(data), max(1, len(data) // TRUNCATIONS)):
        yield f"truncated to {cut} bytes", data[:cut]
    for bit in range(0, 8 * len(data), max(1, 8 * len(data) // FLIPS) | 1):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        yield f"bit {bit} flipped", bytes(flipped)


@pytest.mark.parametrize("case", sorted(CASES))
def test_variant_loads_or_raises_typed_error(artifacts, tmp_path, case):
    load, error, same = CASES[case]
    paths = ArtifactPaths.in_dir(tmp_path)
    for name in CASES:
        shutil.copyfile(getattr(artifacts, name), getattr(paths, name))
    original = load(paths)
    target = getattr(paths, case)
    data = target.read_bytes()
    for label, variant in variants(data):
        target.write_bytes(variant)
        try:
            loaded = load(paths)
        except error:
            continue
        except Exception as exc:  # any other exception is the failure under test
            pytest.fail(f"{case}, {label}: {type(exc).__name__}: {exc}")
        if same is not None:
            assert same(loaded, original), f"{case}, {label}: loaded a different value"
