from __future__ import annotations

import builtins
import io
import json
import os
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from sidforge import corpus, pipeline
from sidforge.datamodel import ids_path_for
from sidforge.pipeline import (
    ArtifactPaths,
    ConfigError,
    DEFAULT_CONFIG,
    apply_env_overrides,
    config_hash,
    load_config,
    run_pipeline,
    sha256_file,
)

SYNTH = {
    "num_items": 120,
    "num_users": 25,
    "dim": 8,
    "num_categories": 4,
    "enrichment_level": 0.5,
    "intra_category_noise": 0.5,
    "events_per_user": [6, 10],
    "seed": 9,
}


STAGES = ("source", "tokenize", "diagnose", "corpus", "eval")


def base_cfg(out_dir, **synth_overrides):
    cfg = load_config()
    cfg["pipeline"]["output_dir"] = str(out_dir)
    cfg["synth"] = {**SYNTH, **synth_overrides}
    cfg["rq"] = {**cfg["rq"], "levels": 2, "codebook_sizes": [8, 4]}
    cfg["corpus"] = {**cfg["corpus"], "n": 60, "seed": 1}
    cfg["eval"] = {**cfg["eval"], "order": 3}
    return cfg


def ingest_cfg(seed_dir, out_dir):
    """A config that ingests the stage-1 files of the run in seed_dir."""
    seed = ArtifactPaths.in_dir(seed_dir)
    cfg = base_cfg(out_dir)
    cfg["pipeline"]["mode"] = "ingest"
    cfg["inputs"] = {key: str(getattr(seed, key)) for key in ("items", "embeddings", "interactions")}
    return cfg


def artifact_hashes(out_dir):
    paths = ArtifactPaths.in_dir(out_dir)
    skip = {paths.manifest}
    return {
        p.name: sha256_file(p)
        for p in sorted(out_dir.iterdir())
        if p not in skip and p.is_file()
    }


# Run the config in the JSON file argv[1], killing the process with SIGKILL
# at its argv[2]-th os.replace, before the rename.
KILLED_RUN = """
import json, os, signal, sys
from sidforge.pipeline import run_pipeline

config, kill_at = sys.argv[1], int(sys.argv[2])
real_replace, calls = os.replace, []


def replace(src, dst):
    calls.append(dst)
    if len(calls) == kill_at:
        os.kill(os.getpid(), signal.SIGKILL)
    real_replace(src, dst)


os.replace = replace
with open(config, encoding="utf-8") as fh:
    run_pipeline(json.load(fh))
"""


class TestConfig:
    def test_defaults_deep_copied(self):
        cfg = load_config()
        cfg["rq"]["levels"] = 99
        assert DEFAULT_CONFIG["rq"]["levels"] == 3
        assert load_config(env={})["eval"]["ks"] is not DEFAULT_CONFIG["eval"]["ks"]
        cfg["rq"]["codebook_sizes"][0] = 8
        assert load_config(env={})["rq"]["codebook_sizes"] == [64, 32, 16]

    def test_env_overrides_leave_the_input_lists_alone(self):
        cfg = load_config(env={})
        out = apply_env_overrides(cfg, {"SIDFORGE_RQ_SEED": "7"})
        out["eval"]["ks"].append(20)
        out["rq"]["codebook_sizes"][0] = 8
        assert cfg["eval"]["ks"] == [5, 10]
        assert cfg["rq"]["codebook_sizes"] == [64, 32, 16]

    def test_file_merge(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"rq": {"levels": 5}, "synth": SYNTH}))
        cfg = load_config(path, env={})
        assert cfg["rq"]["levels"] == 5
        assert cfg["rq"]["seed"] == 0  # default preserved
        assert cfg["synth"]["num_items"] == 120

    def test_env_overrides_json_parsed(self):
        env = {
            "SIDFORGE_RQ_SEED": "7",
            "SIDFORGE_RQ_CODEBOOK_SIZES": "[4, 4]",
            "SIDFORGE_PIPELINE_OUTPUT_DIR": "/tmp/somewhere",
            "SIDFORGE_EVAL_INCLUDE_VALIDATION": "false",
            "UNRELATED": "1",
        }
        cfg = apply_env_overrides(load_config(env={}), env)
        assert cfg["rq"]["seed"] == 7
        assert cfg["rq"]["codebook_sizes"] == [4, 4]
        assert cfg["pipeline"]["output_dir"] == "/tmp/somewhere"
        assert cfg["eval"]["include_validation"] is False

    def test_env_override_unknown_section_rejected(self):
        for name in ("SIDFORGE_NOPE_KEY", "SIDFORGE_EVL_INCLUDE_VALIDATION", "SIDFORGE_EVAL",
                     "SIDFORGE_EVAL_", "SIDFORGE_"):
            with pytest.raises(ConfigError, match=name):
                apply_env_overrides(load_config(env={}), {name: "false"})

    def test_env_override_of_a_section_that_is_no_object_rejected(self):
        cfg = {**load_config(env={}), "synth": 3}
        with pytest.raises(ConfigError, match="SIDFORGE_SYNTH_SEED sets a key of 'synth'"):
            apply_env_overrides(cfg, {"SIDFORGE_SYNTH_SEED": "3"})

    def test_env_override_fills_empty_synth_section(self):
        cfg = apply_env_overrides(load_config(env={}), {"SIDFORGE_SYNTH_SEED": "3"})
        assert cfg["synth"] == {"seed": 3}

    def test_unknown_or_mistyped_keys_rejected_before_any_stage(self, tmp_path):
        out = tmp_path / "out"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"eval": {"include_validation": "false"}}))
        for cfg, match in (
            (apply_env_overrides(base_cfg(out), {"SIDFORGE_EVAL_INCLUDE_VALIDATION": "False"}),
             "eval field 'include_validation'"),
            (apply_env_overrides(base_cfg(out), {"SIDFORGE_EVAL_BEAMSIZE": "5"}),
             r"unknown eval fields: \['beamsize'\]"),
            ({**load_config(path, env={}), "synth": SYNTH}, "eval field 'include_validation'"),
            ({**base_cfg(out), "stages": {"evl": False}}, r"unknown stages fields: \['evl'\]"),
            # stage 3 has no switches
            ({**base_cfg(out), "diagnostics": {"run_probe": False}},
             r"unknown diagnostics fields: \['run_probe'\]"),
            ({**base_cfg(out), "diagnostics": {"probe_seed": 0, "sim_curve": False}},
             r"unknown diagnostics fields: \['sim_curve'\]"),
            ({**base_cfg(out), "eval": {"alpha": 10**400}}, "eval field 'alpha' must be float, not 1000"),
            ({**base_cfg(out), "eval": {"alpha": list(range(5000))}},
             re.escape("eval field 'alpha' must be float, not [0, 1, 2, 3, 4, 5, ...]")),
            ({key: value for key, value in base_cfg(out).items() if key != "stages"} | {"extra": {}},
             r"unknown or missing config sections: \['extra', 'stages'\]"),
        ):
            with pytest.raises(ConfigError, match=match) as info:
                run_pipeline(cfg)
            assert len(str(info.value)) < 100  # a mistyped value is shown shortened
            assert not out.exists()

    def test_unreadable_config_file_named(self, tmp_path):
        path = tmp_path / "cfg.json"
        for data, match in ((b"{", "unreadable"), (b'{"a": "\xff"}', "unreadable"),
                            (b"[]", "is a list, not a JSON object")):
            path.write_bytes(data)
            with pytest.raises(ConfigError, match=match) as info:
                load_config(path, env={})
            assert str(path) in str(info.value)

    def test_config_hash_stable_under_key_order(self):
        assert config_hash({"a": 1, "b": [2, 3]}) == config_hash({"b": [2, 3], "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})


class TestRun:
    def test_full_run_and_idempotent_rerun(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_cfg(out)
        status, summary = run_pipeline(cfg)
        assert status == 0
        assert set(summary["stages"]) == {"source", "tokenize", "diagnose", "corpus", "eval"}
        assert all(v == "ran" for v in summary["stages"].values())
        paths = ArtifactPaths.in_dir(out)
        for field in (
            "items",
            "embeddings",
            "embedding_ids",
            "interactions",
            "model",
            "assignment",
            "diagnostics_json",
            "diagnostics_table",
            "corpus",
            "vocabulary",
            "ngram",
            "metrics_json",
            "metrics_csv",
            "manifest",
        ):
            assert getattr(paths, field).exists(), field
        before = artifact_hashes(out)
        status, summary = run_pipeline(cfg)
        assert status == 0
        assert all(v == "cache-hit" for v in summary["stages"].values())
        assert artifact_hashes(out) == before

    def test_downstream_only_recompute(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_cfg(out)
        run_pipeline(cfg)
        cfg["corpus"] = {**cfg["corpus"], "seed": 2}
        status, summary = run_pipeline(cfg)
        assert status == 0
        assert summary["stages"]["source"] == "cache-hit"
        assert summary["stages"]["tokenize"] == "cache-hit"
        assert summary["stages"]["diagnose"] == "cache-hit"
        assert summary["stages"]["corpus"] == "ran"
        assert summary["stages"]["eval"] == "cache-hit"

    def test_upstream_change_cascades(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_cfg(out)
        run_pipeline(cfg)
        cfg["rq"] = {**cfg["rq"], "seed": 5}
        status, summary = run_pipeline(cfg)
        assert status == 0
        assert summary["stages"]["source"] == "cache-hit"
        for stage in ("tokenize", "diagnose", "corpus", "eval"):
            assert summary["stages"][stage] == "ran", stage

    def test_tampered_embeddings_refused_as_stage_two(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_cfg(out)
        run_pipeline(cfg)
        with open(ArtifactPaths.in_dir(out).embeddings, "ab") as fh:
            fh.write(b"oops")
        status, summary = run_pipeline(cfg)
        assert status == 2
        assert "hash" in summary["error"]
        assert "--force" in summary["error"]

    def test_tampered_assignment_refused_as_stage_three(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_cfg(out)
        run_pipeline(cfg)
        paths = ArtifactPaths.in_dir(out)
        text = paths.assignment.read_text()
        paths.assignment.write_text(text + "\n")
        status, summary = run_pipeline(cfg)
        assert status == 3

    def test_edited_manifest_hash_is_blamed_on_the_manifest(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_cfg(out)
        assert run_pipeline(cfg)[0] == 0
        paths = ArtifactPaths.in_dir(out)
        manifest = json.loads(paths.manifest.read_text())
        outputs = manifest["stages"]["tokenize"]["output_files"]
        recorded = outputs[str(paths.assignment)]
        outputs[str(paths.assignment)] = "0123456789abcdef"[int(recorded[0], 16) ^ 1] + recorded[1:]
        paths.manifest.write_text(json.dumps(manifest))
        status, summary = run_pipeline(cfg)
        assert status == 3
        assert summary["error"] == (
            f"stage 3 (diagnose): cached input {paths.assignment} and the hash "
            f"{paths.manifest} records for it disagree; use --force to rebuild"
        )
        assert sha256_file(paths.assignment) == recorded

    def test_force_rebuilds_over_tamper(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_cfg(out)
        run_pipeline(cfg)
        before = artifact_hashes(out)
        with open(ArtifactPaths.in_dir(out).embeddings, "ab") as fh:
            fh.write(b"oops")
        status, summary = run_pipeline(cfg, force=True)
        assert status == 0
        assert all(v == "ran" for v in summary["stages"].values())
        assert artifact_hashes(out) == before

    def test_missing_artifact_recomputed_cleanly(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_cfg(out)
        run_pipeline(cfg)
        paths = ArtifactPaths.in_dir(out)
        paths.model.unlink()
        status, summary = run_pipeline(cfg)
        assert status == 0
        assert summary["stages"]["tokenize"] == "ran"
        assert summary["stages"]["source"] == "cache-hit"
        assert paths.model.exists()

    def test_copied_output_directory_reruns_every_stage(self, tmp_path):
        # A synth source stage has no inputs: only its recorded output paths
        # tell the copy's manifest entries from those of the original.
        out = tmp_path / "out"
        assert run_pipeline(base_cfg(out))[0] == 0
        fresh = artifact_hashes(out)
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        items = ArtifactPaths.in_dir(copy).items
        items.write_text("".join(items.read_text().splitlines(keepends=True)[:-1]))
        status, summary = run_pipeline(base_cfg(copy))
        assert status == 0, summary.get("error")
        assert all(v == "ran" for v in summary["stages"].values())
        assert artifact_hashes(copy) == fresh and len(fresh) == 13

    def test_stage_one_failure_exit_code(self, tmp_path):
        # An empty synth section is a config error; an unreadable source is
        # what fails stage 1 (test_ingest_missing_input_fails_stage_one).
        out = tmp_path / "out"
        cfg = load_config()
        cfg["pipeline"]["output_dir"] = str(out)
        cfg["synth"] = None
        with pytest.raises(ConfigError, match="synth section is empty"):
            run_pipeline(cfg)
        assert not ArtifactPaths.in_dir(out).manifest.exists()
        # Only an enabled source stage needs it.
        cfg["stages"] = {name: name == "eval" for name in cfg["stages"]}
        status, summary = run_pipeline(cfg)
        assert status == 5 and "missing input" in summary["error"]

    def test_eval_failure_exit_code(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_cfg(out)
        run_pipeline(cfg)
        ArtifactPaths.in_dir(out).interactions.write_text("not an interaction log\n")
        cfg["stages"] = {name: name == "eval" for name in cfg["stages"]}
        status, summary = run_pipeline(cfg)
        assert status == 5
        assert summary["error"].startswith("stage 5 (eval)")
        # the failed stage's entry is dropped, the others are kept
        manifest = json.loads(ArtifactPaths.in_dir(out).manifest.read_text())
        assert set(manifest["stages"]) == {"source", "tokenize", "diagnose", "corpus"}

    @pytest.mark.parametrize("ngram_include_validation, maps", [(False, [False, True]), (True, [True])])
    def test_eval_builds_one_split_map_per_setting(self, tmp_path, monkeypatch, ngram_include_validation, maps):
        """The n-gram trains on the map of eval.ngram_include_validation and
        is evaluated on that of eval.include_validation (True): one map when
        the two agree."""
        cfg = base_cfg(tmp_path / "out")
        cfg["eval"] = {**cfg["eval"], "ngram_include_validation": ngram_include_validation}
        built = []
        real_split_rows = pipeline.recommender.split_rows

        def split_rows(split, assign, include_validation):
            built.append(include_validation)
            return real_split_rows(split, assign, include_validation)

        monkeypatch.setattr(pipeline.recommender, "split_rows", split_rows)
        assert run_pipeline(cfg)[0] == 0
        assert built == maps

    def test_failed_stage_keeps_finished_stages_cached(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        cfg = base_cfg(out)

        def fail(*args, **kwargs):
            raise pipeline.recommender.RecommenderError("no training tokens")

        with monkeypatch.context() as patch:
            patch.setattr(pipeline.recommender, "train_ngram", fail)
            status, summary = run_pipeline(cfg)
        assert status == 5
        manifest = json.loads(ArtifactPaths.in_dir(out).manifest.read_text())
        assert set(manifest["stages"]) == {"source", "tokenize", "diagnose", "corpus"}
        status, summary = run_pipeline(cfg)
        assert status == 0
        assert summary["stages"] == {
            "source": "cache-hit",
            "tokenize": "cache-hit",
            "diagnose": "cache-hit",
            "corpus": "cache-hit",
            "eval": "ran",
        }

    def test_forced_partial_run_keeps_other_cache_entries(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_cfg(out)
        run_pipeline(cfg)
        corpus_only = {**cfg, "stages": {name: name == "corpus" for name in cfg["stages"]}}
        status, summary = run_pipeline(corpus_only, force=True)
        assert status == 0
        assert summary["stages"] == {"corpus": "ran"}
        status, summary = run_pipeline(cfg)
        assert status == 0
        assert all(v == "cache-hit" for v in summary["stages"].values())

    def test_all_hit_rerun_hashes_each_file_once_and_leaves_the_manifest(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        cfg = base_cfg(out)
        assert run_pipeline(cfg)[0] == 0
        paths = ArtifactPaths.in_dir(out)
        before = paths.manifest.stat()
        hashed = []
        monkeypatch.setattr(pipeline, "sha256_file", lambda path: hashed.append(str(path)) or sha256_file(path))
        status, summary = run_pipeline(cfg)
        assert status == 0
        assert all(v == "cache-hit" for v in summary["stages"].values())
        consumed = {paths.embeddings, paths.embedding_ids, paths.model, paths.assignment,
                    paths.items, paths.interactions}
        assert sorted(hashed) == sorted(str(p) for p in consumed)
        after = paths.manifest.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    def test_forced_one_stage_run_writes_a_changed_manifest_once(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        cfg = base_cfg(out)
        assert run_pipeline(cfg)[0] == 0
        manifest = ArtifactPaths.in_dir(out).manifest
        writes = []
        real_write_json = pipeline.write_json
        monkeypatch.setattr(pipeline, "write_json",
                            lambda obj, path: writes.append(Path(path)) or real_write_json(obj, path))
        corpus_only = {**cfg, "stages": {name: name == "corpus" for name in cfg["stages"]}}
        # The same entries again: the manifest already holds them.
        status, summary = run_pipeline(corpus_only, force=True)
        assert status == 0 and summary["stages"] == {"corpus": "ran"}
        assert writes.count(manifest) == 0
        corpus_only["corpus"] = {**cfg["corpus"], "seed": 2}
        status, summary = run_pipeline(corpus_only, force=True)
        assert status == 0 and summary["stages"] == {"corpus": "ran"}
        # The old entry's removal before the corpus is replaced, then the new entry.
        assert writes.count(manifest) == 2
        assert json.loads(manifest.read_text())["stages"]["corpus"]["config_hash"] == config_hash(
            {"corpus": corpus_only["corpus"]})

    def test_ingest_of_the_runs_own_items_records_the_written_hash(self, tmp_path):
        out = tmp_path / "out"
        assert run_pipeline(base_cfg(out))[0] == 0
        paths = ArtifactPaths.in_dir(out)
        # The same records, laid out as save_items does not write them.
        records = [json.loads(line) for line in paths.items.read_text(encoding="utf-8").splitlines()]
        paths.items.write_text("".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records),
                               encoding="utf-8")
        cfg = ingest_cfg(out, out)
        assert cfg["inputs"]["items"] == str(paths.items)
        status, summary = run_pipeline(cfg)
        assert status == 0 and summary["stages"]["source"] == "ran"
        source = json.loads(paths.manifest.read_text())["stages"]["source"]
        written = sha256_file(paths.items)
        assert source["output_files"][str(paths.items)] == written
        assert source["input_files"][str(paths.items)] != written
        # Stage 1 reads its own output, now in save_items' layout, once more.
        status, summary = run_pipeline(cfg)
        assert status == 0
        assert summary["stages"] == {name: "ran" if name == "source" else "cache-hit" for name in STAGES}
        before = paths.manifest.stat()
        status, summary = run_pipeline(cfg)
        assert status == 0
        assert all(v == "cache-hit" for v in summary["stages"].values())
        after = paths.manifest.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    def test_assignment_edited_with_only_corpus_and_eval_enabled_fails_stage_four(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_cfg(out)
        assert run_pipeline(cfg)[0] == 0
        paths = ArtifactPaths.in_dir(out)
        meta, *records = paths.assignment.read_text(encoding="utf-8").splitlines(keepends=True)
        meta = json.loads(meta)
        meta["model_hash"] = "0" * 64
        paths.assignment.write_text(json.dumps(meta) + "\n" + "".join(records), encoding="utf-8")
        cfg["stages"] = {name: name in ("corpus", "eval") for name in cfg["stages"]}
        status, summary = run_pipeline(cfg)
        assert status == 4
        assert summary["error"].startswith("stage 4 (corpus): ")
        assert summary["stages"] == {}

    def test_malformed_manifest_treated_as_stale(self, tmp_path, caplog):
        out = tmp_path / "out"
        cfg = base_cfg(out)
        run_pipeline(cfg)
        path = ArtifactPaths.in_dir(out).manifest
        good = json.loads(path.read_text())
        no_outputs = json.loads(path.read_text())
        del no_outputs["stages"]["source"]["output_files"]
        for text in (
            json.dumps({**good, "stages": [1]}),
            json.dumps({**good, "stages": {"source": 5}}),
            "[]",
            json.dumps(no_outputs),
            "{",
            "\udcff",  # not UTF-8
        ):
            path.write_text(text, errors="surrogateescape")
            caplog.clear()
            status, summary = run_pipeline(cfg)
            assert status == 0
            assert all(v == "ran" for v in summary["stages"].values())
            assert "treating all stages as stale" in caplog.text
        assert json.loads(path.read_text())["stages"].keys() == good["stages"].keys()

    def test_bad_pipeline_values_rejected_before_any_stage(self, tmp_path):
        out = tmp_path / "out"
        for key, value in (("mode", "teleport"), ("mode", "ingets"), ("workers", 0),
                           ("workers", -3), ("kcore", -2)):
            cfg = base_cfg(out)
            cfg["pipeline"][key] = value
            with pytest.raises(ConfigError, match=f"pipeline.{key} must be"):
                run_pipeline(cfg)
            assert not out.exists()

    def test_bad_corpus_and_eval_values_rejected_before_any_stage(self, tmp_path):
        out = tmp_path / "out"
        for section, key, value in (("eval", "beam_size", 0), ("eval", "ks", []), ("eval", "ks", [5, 0]),
                                    ("eval", "order", 0), ("eval", "alpha", 0.0),
                                    ("corpus", "n", 0), ("corpus", "max_history", 0)):
            cfg = base_cfg(out)
            cfg[section][key] = value
            with pytest.raises(ConfigError, match=f"{section}.{key} must be"):
                run_pipeline(cfg)
            assert not out.exists()

    def test_interrupted_run_keeps_finished_stages(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        cfg = base_cfg(out)

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "diagnose", interrupt)
            with pytest.raises(KeyboardInterrupt):
                run_pipeline(cfg)
        manifest = json.loads(ArtifactPaths.in_dir(out).manifest.read_text())
        assert set(manifest["stages"]) == {"source", "tokenize"}
        status, summary = run_pipeline(cfg)
        assert status == 0
        assert summary["stages"] == {
            "source": "cache-hit",
            "tokenize": "cache-hit",
            "diagnose": "ran",
            "corpus": "ran",
            "eval": "ran",
        }

    def test_interrupted_recompute_leaves_no_stale_cache_hit(self, tmp_path, monkeypatch):
        fresh = tmp_path / "fresh"
        assert run_pipeline(base_cfg(fresh))[0] == 0
        out = tmp_path / "out"
        cfg = base_cfg(out)
        assert run_pipeline(cfg)[0] == 0
        changed = {**cfg, "corpus": {**cfg["corpus"], "seed": 2}}

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        with monkeypatch.context() as patch:
            # Stage 4 writes the vocabulary after it has replaced corpus.jsonl.
            patch.setattr(corpus, "write_sid_vocabulary", interrupt)
            with pytest.raises(KeyboardInterrupt):
                run_pipeline(changed)
        assert "corpus" not in json.loads(ArtifactPaths.in_dir(out).manifest.read_text())["stages"]
        status, summary = run_pipeline(cfg)
        assert status == 0
        assert summary["stages"] == {name: "ran" if name == "corpus" else "cache-hit" for name in STAGES}
        assert artifact_hashes(out) == artifact_hashes(fresh)

    @pytest.mark.parametrize("section, key", [("rq", "seed"), ("corpus", "seed"), ("eval", "order"),
                                              ("diagnostics", "probe_seed")])
    def test_a_run_interrupted_at_any_replace_is_recovered(self, tmp_path, monkeypatch, section, key):
        """Interrupt a run with a changed config at each os.replace of its
        atomic writers in turn (the last N lets it finish). A run with the
        original config, then one with the changed config, must then give
        fresh runs' bytes. The original goes first: a changed-config run
        would recompute past an entry that still vouches for a replaced
        output, and so hide it. The probe seed's case runs on a noisy,
        unenriched catalog, where the probe's split changes its score."""
        synth = {"intra_category_noise": 1.5, "enrichment_level": 0.0} if key == "probe_seed" else {}

        def with_change(out_dir, bump):
            cfg = base_cfg(out_dir, **synth)
            cfg[section] = {**cfg[section], key: cfg[section][key] + bump}
            return cfg

        want = {}
        for name, bump in (("original", 0), ("changed", 1)):
            assert run_pipeline(with_change(tmp_path / name, bump))[0] == 0
            want[name] = artifact_hashes(tmp_path / name)
        assert want["original"] != want["changed"]
        out, saved = tmp_path / "out", tmp_path / "saved"
        runs = {"original": with_change(out, 0), "changed": with_change(out, 1)}
        assert run_pipeline(runs["original"])[0] == 0
        shutil.copytree(out, saved)
        real_replace = os.replace
        calls = []

        def replace(src, dst):
            calls.append(dst)
            if len(calls) == interrupt_at:
                raise KeyboardInterrupt
            real_replace(src, dst)

        finished = False
        interrupt_at = 0
        while not finished:
            interrupt_at += 1
            shutil.rmtree(out)
            shutil.copytree(saved, out)
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(os, "replace", replace)
                try:
                    finished = run_pipeline(runs["changed"])[0] == 0
                except KeyboardInterrupt:
                    pass
            for name in ("original", "changed"):
                assert run_pipeline(runs[name])[0] == 0, (interrupt_at, name)
                assert artifact_hashes(out) == want[name], (interrupt_at, name)
        # The run that finished wrote the manifest, its outputs, then the manifest again.
        assert len(calls) == interrupt_at - 1 >= 3

    def test_a_run_killed_at_a_replace_is_recovered(self, tmp_path, monkeypatch):
        """A child process runs a changed config and kills itself with SIGKILL
        at its N-th os.replace, for the first, a middle and the last N. No
        handler runs, so the manifest, the outputs and the killed writer's
        temp file stay as they were. A run with the original config, then one
        with the changed config, must exit 0 with fresh runs' bytes and leave
        no temp file."""
        def with_seed(out_dir, bump):
            cfg = base_cfg(out_dir)
            cfg["rq"] = {**cfg["rq"], "seed": cfg["rq"]["seed"] + bump}
            return cfg

        want = {}
        for name, bump in (("original", 0), ("changed", 1)):
            assert run_pipeline(with_seed(tmp_path / name, bump))[0] == 0
            want[name] = artifact_hashes(tmp_path / name)
        out, saved = tmp_path / "out", tmp_path / "saved"
        runs = {"original": with_seed(out, 0), "changed": with_seed(out, 1)}
        assert run_pipeline(runs["original"])[0] == 0
        shutil.copytree(out, saved)
        real_replace, calls = os.replace, []

        def counted_replace(src, dst):
            calls.append(dst)
            real_replace(src, dst)

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", counted_replace)
            assert run_pipeline(runs["changed"])[0] == 0
        config = tmp_path / "changed.json"
        config.write_text(json.dumps(runs["changed"]))
        env = {**os.environ, "PYTHONPATH": str(Path(pipeline.__file__).resolve().parents[1])}
        for kill_at in (1, len(calls) // 2, len(calls)):
            shutil.rmtree(out)
            shutil.copytree(saved, out)
            done = subprocess.run([sys.executable, "-c", KILLED_RUN, str(config), str(kill_at)],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == -signal.SIGKILL, (kill_at, done.stderr)
            assert list(out.glob("*.tmp")), kill_at  # the killed writer's
            for name in ("original", "changed"):
                assert run_pipeline(runs[name])[0] == 0, (kill_at, name)
                assert artifact_hashes(out) == want[name], (kill_at, name)
                assert not list(out.glob("*.tmp")), (kill_at, name)

    def test_stray_temp_files_of_artifacts_are_removed(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "corpus.jsonl.4242.0.tmp").write_text("left by a killed writer")
        (out / "notes.tmp").write_text("not an artifact's")
        (out / "corpus.jsonl.x.0.tmp").write_text("not a writer's temp name")
        assert run_pipeline(base_cfg(out))[0] == 0
        assert sorted(p.name for p in out.glob("*.tmp")) == ["corpus.jsonl.x.0.tmp", "notes.tmp"]

    def test_run_lock_refuses_a_second_run_at_once(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_cfg(out)
        out.mkdir()
        # Two open()s of one file conflict under flock, even in one process.
        with pipeline.run_lock(out):
            with pytest.raises(pipeline.RunLocked, match="another run holds the lock"):
                run_pipeline(cfg)
            assert [p.name for p in out.iterdir()] == [".sidforge.lock"]
        assert list(out.iterdir()) == []
        assert run_pipeline(cfg)[0] == 0
        names = {p.name for p in out.iterdir()}
        assert ".sidforge.lock" not in names
        assert names == {p.name for p in vars(ArtifactPaths.in_dir(out)).values()}

    def test_run_lock_gives_up_on_a_lockfile_removed_before_it_locked(self, tmp_path, monkeypatch):
        """A run that opened the lockfile just before the run holding it
        removed it must not go on, and must not remove a newer lockfile."""
        real_flock = pipeline.fcntl.flock
        lock = tmp_path / ".sidforge.lock"
        for replaced in (False, True):
            def flock_after_the_holder_ended(fd, operation):
                lock.unlink()
                if replaced:
                    lock.write_text("")  # a third run's lockfile
                real_flock(fd, operation)

            with monkeypatch.context() as patch:
                patch.setattr(pipeline.fcntl, "flock", flock_after_the_holder_ended)
                with pytest.raises(pipeline.RunLocked):
                    with pipeline.run_lock(tmp_path):
                        pass
            assert lock.exists() == replaced

    def test_stage_toggles(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_cfg(out)
        cfg["stages"] = {**cfg["stages"], "corpus": False, "eval": False, "diagnose": False}
        status, summary = run_pipeline(cfg)
        assert status == 0
        assert set(summary["stages"]) == {"source", "tokenize"}
        assert not ArtifactPaths.in_dir(out).corpus.exists()

    def test_worker_count_not_in_cache_key(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_cfg(out)
        run_pipeline(cfg)
        cfg["pipeline"]["workers"] = 3
        status, summary = run_pipeline(cfg)
        assert status == 0
        assert all(v == "cache-hit" for v in summary["stages"].values())

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        cfg_a = base_cfg(tmp_path / "a")
        cfg_b = base_cfg(tmp_path / "b")
        cfg_b["pipeline"]["workers"] = 4
        assert run_pipeline(cfg_a)[0] == 0
        assert run_pipeline(cfg_b)[0] == 0
        assert artifact_hashes(tmp_path / "a") == artifact_hashes(tmp_path / "b")

    def test_ingest_mode(self, tmp_path):
        seed_dir = tmp_path / "seed"
        assert run_pipeline(base_cfg(seed_dir))[0] == 0
        seed_paths = ArtifactPaths.in_dir(seed_dir)
        cfg = load_config()
        cfg["pipeline"]["output_dir"] = str(tmp_path / "out")
        cfg["pipeline"]["mode"] = "ingest"
        cfg["pipeline"]["kcore"] = 2
        cfg["inputs"] = {
            "items": str(seed_paths.items),
            "embeddings": str(seed_paths.embeddings),
            "interactions": str(seed_paths.interactions),
        }
        cfg["rq"] = {**cfg["rq"], "levels": 2, "codebook_sizes": [8, 4]}
        cfg["corpus"] = {**cfg["corpus"], "n": 40}
        status, summary = run_pipeline(cfg)
        assert status == 0
        assert all(v == "ran" for v in summary["stages"].values())
        # editing an external input invalidates stage 1 on the next run
        with open(seed_paths.interactions, "a") as fh:
            fh.write("u99999\tit000000\t1700000000\n")
        status, summary = run_pipeline(cfg)
        assert status == 0
        assert summary["stages"]["source"] == "ran"

    def test_ingest_input_id_sidecar_is_in_the_source_key(self, tmp_path):
        assert run_pipeline(base_cfg(tmp_path / "seed"))[0] == 0
        out = tmp_path / "out"
        cfg = ingest_cfg(tmp_path / "seed", out)
        assert run_pipeline(cfg)[0] == 0
        ids = ids_path_for(cfg["inputs"]["embeddings"])
        first, second, *rest = ids.read_text().splitlines(keepends=True)
        ids.write_text("".join([second, first, *rest]))
        status, summary = run_pipeline(cfg)
        assert status == 0
        assert summary["stages"]["source"] == "ran"
        assert ArtifactPaths.in_dir(out).embedding_ids.read_bytes() == ids.read_bytes()

    def test_diagnose_reruns_when_the_embedding_ids_change(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_cfg(out)
        assert run_pipeline(cfg)[0] == 0
        paths = ArtifactPaths.in_dir(out)
        before = paths.diagnostics_json.read_bytes()
        # Swap two ids of different SIDs, so that the curve changes.
        rows = [json.loads(line) for line in paths.assignment.read_text().splitlines()[1:]]
        sid_of = {row["item_id"]: row["sid"] for row in rows}
        ids = paths.embedding_ids.read_text().splitlines(keepends=True)
        other = next(k for k, line in enumerate(ids) if sid_of[line.strip()] != sid_of[ids[0].strip()])
        ids[0], ids[other] = ids[other], ids[0]
        paths.embedding_ids.write_text("".join(ids))
        cfg["stages"] = {stage: stage == "diagnose" for stage in STAGES}
        status, summary = run_pipeline(cfg)
        assert (status, summary["stages"]) == (0, {"diagnose": "ran"})
        assert paths.diagnostics_json.read_bytes() != before

    @pytest.mark.parametrize("mode", ["synth", "ingest"])
    def test_each_stage_reads_only_files_in_its_cache_key(self, tmp_path, monkeypatch, mode):
        out = tmp_path / "out"
        if mode == "synth":
            cfg = base_cfg(out)
        else:
            assert run_pipeline(base_cfg(tmp_path / "seed"))[0] == 0
            cfg = ingest_cfg(tmp_path / "seed", out)
        assert run_pipeline(cfg)[0] == 0
        root = tmp_path.resolve()
        reads = set()
        real_open = io.open

        def recording_open(file, mode="r", *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and not set(mode) & set("wax+"):
                path = Path(file).resolve()
                if path.is_relative_to(root):  # package templates are not run files
                    reads.add(path)
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", recording_open)
        monkeypatch.setattr(io, "open", recording_open)
        manifest = ArtifactPaths.in_dir(out).manifest
        for name in STAGES:
            reads.clear()
            cfg["stages"] = {stage: stage == name for stage in STAGES}
            assert run_pipeline(cfg, force=True)[0] == 0, name
            entry = json.loads(manifest.read_text())["stages"][name]
            keyed = {*entry["input_files"], *entry["output_files"], manifest}
            assert sorted(map(str, reads - {Path(p).resolve() for p in keyed})) == [], name

    def test_ingest_missing_input_fails_stage_one(self, tmp_path):
        cfg = load_config()
        cfg["pipeline"]["output_dir"] = str(tmp_path / "out")
        cfg["pipeline"]["mode"] = "ingest"
        cfg["inputs"] = {
            "items": str(tmp_path / "absent.jsonl"),
            "embeddings": str(tmp_path / "absent.emb"),
            "interactions": str(tmp_path / "absent.tsv"),
        }
        status, summary = run_pipeline(cfg)
        assert status == 1
        assert "missing input" in summary["error"]
        # The other inputs exist, so the unset key is what stops the stage.
        for key, name in (("items", "items.jsonl"), ("interactions", "interactions.tsv")):
            (tmp_path / name).write_text("")
            cfg["inputs"][key] = str(tmp_path / name)
        cfg["inputs"]["embeddings"] = None
        (tmp_path / "out" / "manifest.json").unlink()
        with pytest.raises(ConfigError, match="inputs.embeddings is not set"):
            run_pipeline(cfg)
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_ingest_embedding_id_missing_from_the_items_named(self, tmp_path):
        assert run_pipeline(base_cfg(tmp_path / "seed"))[0] == 0
        cfg = ingest_cfg(tmp_path / "seed", tmp_path / "out")
        first, *rest = Path(cfg["inputs"]["items"]).read_text(encoding="utf-8").splitlines(keepends=True)
        items = tmp_path / "fewer_items.jsonl"
        items.write_text("".join(rest), encoding="utf-8")
        cfg["inputs"]["items"] = str(items)
        status, summary = run_pipeline(cfg)
        assert status == 1
        assert repr(json.loads(first)["item_id"]) in summary["error"]
        assert str(items) in summary["error"]

    @pytest.mark.parametrize("number, name, broken", [
        (1, "source", "items"),  # the `inputs.items` path
        (2, "tokenize", "embeddings"),
        (3, "diagnose", "model"),
        (4, "corpus", "items"),
        (5, "eval", "interactions"),
    ])
    def test_unreadable_input_fails_its_own_stage(self, tmp_path, number, name, broken):
        assert run_pipeline(base_cfg(tmp_path / "seed"))[0] == 0
        out = tmp_path / "out"
        cfg = ingest_cfg(tmp_path / "seed", out)
        assert run_pipeline(cfg)[0] == 0
        if number == 1:
            target = Path(cfg["inputs"][broken])
        else:
            target = getattr(ArtifactPaths.in_dir(out), broken)
        target.unlink()
        target.mkdir()
        cfg["stages"] = {stage: stage == name for stage in cfg["stages"]}
        status, summary = run_pipeline(cfg)
        assert status == number
        assert summary["error"].startswith(f"stage {number} ({name}): ")
        assert "Is a directory" in summary["error"]
        manifest = json.loads(ArtifactPaths.in_dir(out).manifest.read_text())
        assert set(manifest["stages"]) == set(STAGES) - {name}

    def test_unhashable_output_fails_its_own_stage(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        paths = ArtifactPaths.in_dir(out)

        def tokenize_into_a_directory(*args, **kwargs):
            paths.model.mkdir()
            paths.assignment.write_text("")

        monkeypatch.setattr(pipeline, "tokenize", tokenize_into_a_directory)
        status, summary = run_pipeline(base_cfg(out))
        assert status == 2
        assert summary["error"].startswith("stage 2 (tokenize): ")
        assert summary["stages"] == {"source": "ran"}
        assert set(json.loads(paths.manifest.read_text())["stages"]) == {"source"}

    def test_no_partial_files_left_behind(self, tmp_path):
        out = tmp_path / "out"
        run_pipeline(base_cfg(out))
        leftovers = [p.name for p in out.iterdir() if p.name.endswith(".tmp")]
        assert leftovers == []
