from __future__ import annotations

import json

import pytest

from sidforge import pipeline
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


def base_cfg(out_dir, **synth_overrides):
    cfg = load_config()
    cfg["pipeline"]["output_dir"] = str(out_dir)
    cfg["synth"] = {**SYNTH, **synth_overrides}
    cfg["rq"] = {**cfg["rq"], "levels": 2, "codebook_sizes": [8, 4]}
    cfg["corpus"] = {**cfg["corpus"], "n": 60, "seed": 1}
    cfg["eval"] = {**cfg["eval"], "order": 3}
    return cfg


def artifact_hashes(out_dir):
    paths = ArtifactPaths.in_dir(out_dir)
    skip = {paths.manifest}
    return {
        p.name: sha256_file(p)
        for p in sorted(out_dir.iterdir())
        if p not in skip and p.is_file()
    }


class TestConfig:
    def test_defaults_deep_copied(self):
        cfg = load_config()
        cfg["rq"]["levels"] = 99
        assert DEFAULT_CONFIG["rq"]["levels"] == 3

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
        ):
            with pytest.raises(ConfigError, match=match):
                run_pipeline(cfg)
            assert not out.exists()

    def test_unreadable_config_file_named(self, tmp_path):
        path = tmp_path / "cfg.json"
        for data, match in ((b"{", "unreadable"), (b'{"a": "\xff"}', "unreadable"), (b"[]", "list")):
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

    def test_no_partial_files_left_behind(self, tmp_path):
        out = tmp_path / "out"
        run_pipeline(base_cfg(out))
        leftovers = [p.name for p in out.iterdir() if p.name.endswith(".tmp")]
        assert leftovers == []
