"""Deterministic fuzzing of every artifact, config and manifest reader.

Each artifact of a tiny pipeline run, and the run's pipeline and synth
configs, is truncated at evenly spaced offsets and has single bits flipped
at evenly spaced bit positions. Every variant must either load or raise its
module's typed error, naming the file; no other exception may escape. A file guarded by a
checksum or a content hash (the embedding matrix, the model's centroids)
must load identically when it loads at all. A run over a fuzzed manifest
must either rebuild the same bytes or fail one stage by its number. Each
key of the model, assignment and n-gram headers, set to a value of each
JSON type, must load as written or raise the typed error.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from conftest import record_catalog, reference_load_items
from sidforge.datamodel import (
    CatalogError,
    EmbeddingIOError,
    InteractionError,
    load_embeddings,
    load_interactions,
    load_items,
)
from sidforge.diagnostics import DiagnosticsError, load_report
from sidforge.pipeline import ArtifactPaths, ConfigError, load_config, run_pipeline
from sidforge.recommender import RecommenderError, load_metrics, load_ngram, save_ngram
from sidforge.rq import RqError, load_assignment, load_model, save_assignment, save_model
from sidforge.synthgen import SynthError, load_synth_config

TRUNCATIONS = 100
FLIPS = 500


@pytest.fixture(scope="module")
def run_cfg(tmp_path_factory):
    """The config of a tiny run of all five stages. Its three categories of
    ten items are just enough for diagnose to fit the semantic probe."""
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
    assert run_pipeline(cfg)[0] == 0
    (out / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
    (out / "synth_config.json").write_text(json.dumps(cfg["synth"]), encoding="utf-8")
    return cfg


@pytest.fixture(scope="module")
def artifacts(run_cfg):
    return ArtifactPaths.in_dir(Path(run_cfg["pipeline"]["output_dir"]))


def case_file(paths: ArtifactPaths, case: str) -> Path:
    """An artifact's path, or that of a config written beside the artifacts."""
    return getattr(paths, case, None) or paths.manifest.with_name(f"{case}.json")


def same_embeddings(a, b):
    return a.item_ids == b.item_ids and np.array_equal(a.rows, b.rows)


def same_rows(a, b):
    return np.array_equal(a.rows, b.rows)


def same_centroids(a, b):
    return a.model_hash() == b.model_hash()


# ArtifactPaths field or config name -> (loader taking the paths, typed
# error, check on a variant that loads, or None when any successful load is
# acceptable)
CASES = {
    "items": (lambda p: load_items(p.items), CatalogError, None),
    "interactions": (lambda p: load_interactions(p.interactions), InteractionError, None),
    "embeddings": (lambda p: load_embeddings(p.embeddings), EmbeddingIOError, same_embeddings),
    "embedding_ids": (lambda p: load_embeddings(p.embeddings), EmbeddingIOError, same_rows),
    "model": (lambda p: load_model(p.model), RqError, same_centroids),
    "assignment": (lambda p: load_assignment(p.assignment), RqError, None),
    "ngram": (lambda p: load_ngram(p.ngram), RecommenderError, None),
    "diagnostics_json": (lambda p: load_report(p.diagnostics_json), DiagnosticsError, None),
    "metrics_json": (lambda p: load_metrics(p.metrics_json), RecommenderError, None),
    "config": (lambda p: load_config(case_file(p, "config"), env={}), ConfigError, None),
    "synth_config": (lambda p: load_synth_config(case_file(p, "synth_config")), SynthError, None),
}


# ArtifactPaths field -> (loader, saver, typed error) of each file with a header
HEADERS = {
    "model": (load_model, save_model, RqError),
    "assignment": (load_assignment, save_assignment, RqError),
    "ngram": (load_ngram, save_ngram, RecommenderError),
}

# One value of each JSON type, a number too large for a float among them.
HEADER_VALUES = ("8", 8.9, True, None, [], {}, 10**400)


def variants(data: bytes, truncations: int = TRUNCATIONS, flips: int = FLIPS):
    """Evenly spaced truncations, then evenly spaced single-bit flips. The
    flip stride is odd, so the flipped bit moves through every bit position
    of a byte."""
    for cut in range(0, len(data), max(1, len(data) // truncations)):
        yield f"truncated to {cut} bytes", data[:cut]
    for bit in range(0, 8 * len(data), max(1, 8 * len(data) // flips) | 1):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        yield f"bit {bit} flipped", bytes(flipped)


@pytest.mark.parametrize("case", sorted(CASES))
def test_variant_loads_or_raises_typed_error(artifacts, tmp_path, case):
    load, error, same = CASES[case]
    paths = ArtifactPaths.in_dir(tmp_path)
    for name in CASES:
        shutil.copyfile(case_file(artifacts, name), case_file(paths, name))
    original = load(paths)
    target = case_file(paths, case)
    data = target.read_bytes()
    for label, variant in variants(data):
        target.write_bytes(variant)
        try:
            loaded = load(paths)
        except error as exc:
            assert str(target) in str(exc), f"{case}, {label}: the error does not name its file: {exc}"
            continue
        except Exception as exc:  # any other exception is the failure under test
            pytest.fail(f"{case}, {label}: {type(exc).__name__}: {exc}")
        if same is not None:
            assert same(loaded, original), f"{case}, {label}: loaded a different value"


def test_item_variants_load_as_the_record_loader_did(artifacts, tmp_path):
    """Each items.jsonl variant gives the columns of the parent's record
    loader, or its error type and message behind the file's name."""
    path = tmp_path / "items.jsonl"
    for label, variant in variants(artifacts.items.read_bytes()):
        path.write_bytes(variant)
        try:
            want = reference_load_items(path)
        except CatalogError as exc:
            with pytest.raises(CatalogError) as got:
                load_items(path)
            assert str(got.value) == f"{path}: {exc}", label
            continue
        assert record_catalog(load_items(path)).items == want.items, label


def test_fuzzed_manifest_rebuilds_the_same_bytes_or_fails_one_stage(run_cfg, tmp_path, monkeypatch):
    # A relative output directory keeps the manifest's bytes, and so the
    # variants, independent of where the test runs.
    monkeypatch.chdir(tmp_path)
    cfg = json.loads(json.dumps(run_cfg))
    cfg["pipeline"]["output_dir"] = "out"
    assert run_pipeline(cfg)[0] == 0
    paths = ArtifactPaths.in_dir(Path("out"))
    names = [name for name in vars(paths) if name != "manifest"]
    original = {name: getattr(paths, name).read_bytes() for name in names}
    outcomes = set()
    for label, variant in variants(paths.manifest.read_bytes(), truncations=20, flips=40):
        for name in names:
            getattr(paths, name).write_bytes(original[name])
        paths.manifest.write_bytes(variant)
        status, summary = run_pipeline(cfg)
        outcomes.add(status)
        if status == 0:
            for name in names:
                assert getattr(paths, name).read_bytes() == original[name], f"{label}: {name} changed"
        else:
            assert 1 <= status <= 5, f"{label}: exit status {status}"
            assert summary["error"].startswith(f"stage {status} ("), label
    assert 0 in outcomes and len(outcomes) > 1  # both kinds of variant were made


@pytest.mark.parametrize("case", sorted(HEADERS))
def test_header_value_of_any_type_loads_as_written_or_raises_typed_error(artifacts, tmp_path, case):
    """Each top-level header key set to each of HEADER_VALUES. A variant that
    loads saves back to its own bytes, or to the original's when it loads as
    the original (an optional key set to null): no value is cast to another
    type. Values that a cast would take for valid ones are refused."""
    load, save, error = HEADERS[case]
    data = getattr(artifacts, case).read_bytes()
    # The n-gram file is one JSON object; the others start with a header line.
    head, sep, rest = (data[:-1], b"\n", b"") if case == "ngram" else data.partition(b"\n")
    header = json.loads(head)
    edits = [(key, value, False) for key in header for value in HEADER_VALUES]
    if case == "model":
        edits += [("dim", str(header["dim"]), True), ("dim", header["dim"] + 0.9, True)]
    if case == "assignment":
        edits += [("model_hash", ["x"], True)]
    path, resaved = tmp_path / "variant", tmp_path / "resaved"
    for key, value, refused in edits:
        label = f"{case} {key} = {value!r}"
        variant = json.dumps({**header, key: value}, sort_keys=True).encode() + sep + rest
        path.write_bytes(variant)
        try:
            loaded = load(path)
        except error as exc:
            assert str(path) in str(exc), f"{label}: the error does not name its file: {exc}"
            continue
        except Exception as exc:  # any other exception is the failure under test
            pytest.fail(f"{label}: {type(exc).__name__}: {exc}")
        assert not refused, f"{label} loaded"
        save(loaded, resaved)
        assert resaved.read_bytes() in (variant, data), f"{label}: loaded a different value"
