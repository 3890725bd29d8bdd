from __future__ import annotations

import dataclasses
import json
import os
from collections import Counter

import numpy as np
import pytest

from sidforge.cli import main
from sidforge.datamodel import load_embeddings
from sidforge.pipeline import ArtifactPaths, run_lock
from sidforge.recommender import NGramModel, save_ngram


@pytest.fixture
def synth_config(tmp_path):
    cfg = {
        "num_items": 100,
        "num_users": 20,
        "dim": 8,
        "num_categories": 4,
        "enrichment_level": 0.5,
        "intra_category_noise": 0.5,
        "events_per_user": [6, 10],
        "seed": 3,
    }
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(cfg))
    return path


def run(capsys, *argv):
    status = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return status, (json.loads(out) if out.strip() else None)


def test_full_command_chain(tmp_path, synth_config, capsys):
    data = tmp_path / "data"
    status, summary = run(
        capsys, "synth", "--config", synth_config, "--out-dir", data
    )
    assert status == 0
    assert summary["items"] == 100
    assert summary["users"] == 20

    model_path = tmp_path / "model.rq"
    status, fitted = run(
        capsys,
        "fit",
        "--embeddings", data / "embeddings.emb",
        "--levels", 2,
        "--sizes", "8,4",
        "--seed", 0,
        "--out", model_path,
    )
    assert status == 0
    assert fitted["levels"] == 2
    assert fitted["effective_sizes"] == [8, 4]

    sids_path = tmp_path / "sids.jsonl"
    status, encoded = run(
        capsys,
        "encode",
        "--model", model_path,
        "--embeddings", data / "embeddings.emb",
        "--out", sids_path,
    )
    assert status == 0
    assert encoded["items"] == 100
    assert encoded["model_hash"] == fitted["model_hash"]

    first_sid = json.loads(sids_path.read_text().splitlines()[1])["sid"]
    status, decoded = run(capsys, "decode", "--model", model_path, "--sid", first_sid)
    assert status == 0
    assert len(decoded["vector"]) == 8

    vec_path = tmp_path / "vec.emb"
    status, decoded = run(
        capsys, "decode", "--model", model_path, "--sid", first_sid, "--out", vec_path
    )
    assert status == 0
    written = load_embeddings(vec_path)
    assert written.item_ids == (first_sid,)
    assert written.dim == 8

    diag_path = tmp_path / "diag.json"
    status, diag = run(
        capsys,
        "diagnose",
        "--model", model_path,
        "--assignment", sids_path,
        "--embeddings", data / "embeddings.emb",
        "--items", data / "items.jsonl",
        "--probe-seed", 0,
        "--out", diag_path,
        "--table",
    )
    assert status == 0
    assert 0.0 <= diag["collision_rate"] <= 1.0
    assert diag["collision_rate"] + diag["unique_ratio"] == 1.0
    assert "probe_accuracy" in diag and "sim_curve" in diag
    assert json.loads(diag_path.read_text()) == diag

    status, curve = run(
        capsys,
        "recon-curve",
        "--model", model_path,
        "--assignment", sids_path,
        "--embeddings", data / "embeddings.emb",
    )
    assert status == 0
    assert set(curve["sims"]) == {"1", "2"}

    corpus_path = tmp_path / "corpus.jsonl"
    chat_path = tmp_path / "corpus.txt"
    vocab_path = tmp_path / "vocab.txt"
    status, stats = run(
        capsys,
        "corpus",
        "--items", data / "items.jsonl",
        "--assignment", sids_path,
        "--interactions", data / "interactions.tsv",
        "--model", model_path,
        "--n", 80,
        "--seed", 1,
        "--out", corpus_path,
        "--chat-out", chat_path,
        "--vocab-out", vocab_path,
    )
    assert status == 0
    assert sum(stats["sampled_per_task"].values()) == 80
    assert len(corpus_path.read_text().splitlines()) == 80
    assert vocab_path.read_text().startswith("<a_0>\n")
    assert "<|im_start|>system" in chat_path.read_text()

    ngram_path = tmp_path / "ngram.json"
    status, trained = run(
        capsys,
        "train-baseline",
        "--model", model_path,
        "--assignment", sids_path,
        "--interactions", data / "interactions.tsv",
        "--order", 3,
        "--out", ngram_path,
    )
    assert status == 0
    assert trained["order"] == 3

    metrics_path = tmp_path / "metrics.json"
    csv_path = tmp_path / "metrics.csv"
    status, metrics = run(
        capsys,
        "eval",
        "--model", model_path,
        "--assignment", sids_path,
        "--interactions", data / "interactions.tsv",
        "--ngram", ngram_path,
        "--beam", 20,
        "--k", "5,10",
        "--out", metrics_path,
        "--csv", csv_path,
    )
    assert status == 0
    for key in ("HR@5", "HR@10", "NDCG@5", "NDCG@10"):
        assert key in metrics["ngram"]
        assert key in metrics["popularity"]
    assert csv_path.read_text().startswith("metric,K,value,n_users\n")

    status, combined = run(
        capsys, "report", "--diagnostics", diag_path, "--metrics", metrics_path
    )
    assert status == 0
    assert combined["diagnostics"]["n_items"] == 100
    assert "HR@5" in combined["metrics"]["ngram"]


def test_step_subcommands_write_the_pipeline_bytes(tmp_path, synth_config, capsys):
    piped, steps = tmp_path / "piped", tmp_path / "steps"
    cfg = {
        "pipeline": {"output_dir": str(piped)},
        "synth": json.loads(synth_config.read_text()),
        "rq": {"levels": 2, "codebook_sizes": [8, 4], "kmeans_max_iters": 10, "seed": 5},
        "diagnostics": {"probe_seed": 2},
        "corpus": {"n": 60, "seed": 1, "max_history": 5},
        "eval": {"ks": [3, 5], "beam_size": 12, "order": 2, "alpha": 0.5},
    }
    cfg_path = tmp_path / "pipe.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run(capsys, "pipeline", "--config", cfg_path)[0] == 0

    a = ArtifactPaths.in_dir(steps)
    commands = [
        ("synth", "--config", synth_config, "--out-dir", steps),
        ("fit", "--embeddings", a.embeddings, "--levels", 2, "--sizes", "8,4",
         "--max-iters", 10, "--seed", 5, "--out", a.model),
        ("encode", "--model", a.model, "--embeddings", a.embeddings, "--out", a.assignment),
        ("corpus", "--items", a.items, "--model", a.model, "--assignment", a.assignment,
         "--interactions", a.interactions, "--n", 60, "--seed", 1, "--max-history", 5,
         "--out", a.corpus, "--vocab-out", a.vocabulary),
        ("train-baseline", "--model", a.model, "--assignment", a.assignment,
         "--interactions", a.interactions, "--order", 2, "--alpha", 0.5, "--out", a.ngram),
        ("eval", "--model", a.model, "--assignment", a.assignment,
         "--interactions", a.interactions, "--ngram", a.ngram, "--k", "3,5", "--beam", 12,
         "--out", a.metrics_json, "--csv", a.metrics_csv),
    ]
    for argv in commands:
        assert run(capsys, *argv)[0] == 0, argv[0]
    status = main([str(v) for v in (
        "diagnose", "--model", a.model, "--assignment", a.assignment,
        "--embeddings", a.embeddings, "--items", a.items, "--probe-seed", 2,
        "--out", a.diagnostics_json, "--table")])
    assert status == 0
    assert (piped / "diagnostics.txt").read_text() in capsys.readouterr().err

    compared = [f.name for f in dataclasses.fields(ArtifactPaths)
                if f.name not in ("manifest", "diagnostics_table")]
    assert len(compared) == 12
    p = ArtifactPaths.in_dir(piped)
    differ = [name for name in compared
              if getattr(p, name).read_bytes() != getattr(a, name).read_bytes()]
    assert differ == []

    assert main(["report", "--metrics", str(a.metrics_json)]) == 0
    rows = capsys.readouterr().err.splitlines()
    assert any(row.startswith("ngram: HR@3") for row in rows)
    assert any(row.startswith("popularity: HR@3") for row in rows)


def test_seed_override_changes_synth(tmp_path, synth_config, capsys):
    run(capsys, "synth", "--config", synth_config, "--out-dir", tmp_path / "a")
    run(
        capsys,
        "synth", "--config", synth_config, "--seed", 99, "--out-dir", tmp_path / "b",
    )
    a = (tmp_path / "a" / "embeddings.emb").read_bytes()
    b = (tmp_path / "b" / "embeddings.emb").read_bytes()
    assert a != b


def test_ingest_roundtrip(tmp_path, synth_config, capsys):
    data = tmp_path / "data"
    run(capsys, "synth", "--config", synth_config, "--out-dir", data)
    status, summary = run(
        capsys,
        "ingest",
        "--items", data / "items.jsonl",
        "--embeddings", data / "embeddings.emb",
        "--interactions", data / "interactions.tsv",
        "--kcore", 2,
        "--out-dir", tmp_path / "clean",
    )
    assert status == 0
    assert summary["events_kept"] <= summary["events_in"]
    assert (tmp_path / "clean" / "items.jsonl").exists()


def test_decode_invalid_sid_fails(tmp_path, synth_config, capsys):
    data = tmp_path / "data"
    run(capsys, "synth", "--config", synth_config, "--out-dir", data)
    model_path = tmp_path / "model.rq"
    run(
        capsys,
        "fit", "--embeddings", data / "embeddings.emb",
        "--levels", 1, "--sizes", "4", "--seed", 0, "--out", model_path,
    )
    status, _ = run(capsys, "decode", "--model", model_path, "--sid", "<a_99>")
    assert status == 1
    status, _ = run(capsys, "decode", "--model", model_path, "--sid", "not a sid")
    assert status == 1


def test_diagnose_requires_probe_seed_with_items(tmp_path, synth_config, capsys):
    data = tmp_path / "data"
    run(capsys, "synth", "--config", synth_config, "--out-dir", data)
    model_path = tmp_path / "model.rq"
    sids_path = tmp_path / "sids.jsonl"
    run(
        capsys,
        "fit", "--embeddings", data / "embeddings.emb",
        "--levels", 1, "--sizes", "8", "--seed", 0, "--out", model_path,
    )
    run(
        capsys,
        "encode", "--model", model_path,
        "--embeddings", data / "embeddings.emb", "--out", sids_path,
    )
    status, _ = run(
        capsys,
        "diagnose",
        "--model", model_path,
        "--assignment", sids_path,
        "--items", data / "items.jsonl",
    )
    assert status == 1


def test_pipeline_subcommand_exit_codes(tmp_path, synth_config, capsys):
    cfg = {
        "pipeline": {"output_dir": str(tmp_path / "out")},
        "synth": json.loads(synth_config.read_text()),
        "rq": {"levels": 2, "codebook_sizes": [8, 4]},
        "corpus": {"n": 40, "seed": 0},
    }
    cfg_path = tmp_path / "pipe.json"
    cfg_path.write_text(json.dumps(cfg))
    status, summary = run(capsys, "pipeline", "--config", cfg_path)
    assert status == 0
    assert all(v == "ran" for v in summary["stages"].values())
    # tamper with the model file: stage 3 must refuse
    with open(tmp_path / "out" / "model.rq", "ab") as fh:
        fh.write(b"z")
    status, summary = run(capsys, "pipeline", "--config", cfg_path)
    assert status == 3
    status, summary = run(capsys, "pipeline", "--config", cfg_path, "--force")
    assert status == 0


def test_pipeline_exits_ex_tempfail_while_another_run_holds_the_lock(tmp_path, synth_config, capsys, caplog):
    out = tmp_path / "out"
    cfg_path = tmp_path / "pipe.json"
    cfg_path.write_text(json.dumps({"pipeline": {"output_dir": str(out)},
                                    "synth": json.loads(synth_config.read_text())}))
    out.mkdir()
    with run_lock(out):
        status, summary = run(capsys, "pipeline", "--config", cfg_path)
    assert status == os.EX_TEMPFAIL == 75 and summary is None
    assert "another run holds the lock" in caplog.text
    assert "Traceback" not in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_pipeline_config_typo_fails_before_any_stage(tmp_path, capsys, caplog):
    out = tmp_path / "out"
    cfg_path = tmp_path / "pipe.json"
    cfg_path.write_text(json.dumps({"pipeline": {"output_dir": str(out)}, "eval": {"beamsize": 5}}))
    status = main(["pipeline", "--config", str(cfg_path)])
    assert status == os.EX_CONFIG == 78
    assert "eval" in caplog.text and "beamsize" in caplog.text
    assert "Traceback" not in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_pipeline_out_of_range_or_missing_settings_exit_ex_config(tmp_path, capsys, caplog):
    out = tmp_path / "out"
    cfg_path = tmp_path / "pipe.json"
    for cfg, named in (
        ({"eval": {"beam_size": 0}}, "eval.beam_size"),
        ({"eval": {"ks": []}}, "eval.ks"),
        ({"corpus": {"n": 0}}, "corpus.n"),
        ({"corpus": {"max_history": 0}}, "corpus.max_history"),
        ({}, "synth section is empty"),
        ({"pipeline": {"mode": "ingest"}}, "inputs.items, inputs.embeddings, inputs.interactions"),
    ):
        pipe = {"output_dir": str(out), **cfg.get("pipeline", {})}
        cfg_path.write_text(json.dumps({**cfg, "pipeline": pipe}))
        caplog.clear()
        status, summary = run(capsys, "pipeline", "--config", cfg_path)
        assert status == os.EX_CONFIG and summary is None
        assert named in caplog.text
        assert not (out / "manifest.json").exists()


def test_eval_rejects_an_ngram_of_other_level_sizes(tmp_path, synth_config, capsys, caplog):
    out = tmp_path / "out"
    cfg = {
        "pipeline": {"output_dir": str(out)},
        "synth": json.loads(synth_config.read_text()),
        "rq": {"levels": 2, "codebook_sizes": [8, 4]},
        "corpus": {"n": 40, "seed": 0},
    }
    cfg_path = tmp_path / "pipe.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run(capsys, "pipeline", "--config", cfg_path)[0] == 0
    other = tmp_path / "other.json"
    ngram = NGramModel(order=2, alpha=0.1, sizes=(2, 2), counts={(): Counter({1: 3})}, totals={(): 3})
    save_ngram(ngram, other)
    paths = ArtifactPaths.in_dir(out)
    status, metrics = run(
        capsys,
        "eval",
        "--model", paths.model,
        "--assignment", paths.assignment,
        "--interactions", paths.interactions,
        "--ngram", other,
    )
    assert status == 1 and metrics is None
    assert "level sizes [2, 2] are not the SID levels' [8, 4]" in caplog.text
    assert "Traceback" not in capsys.readouterr().err


def test_pipeline_unreadable_or_rejected_config_exits_ex_config(tmp_path, capsys, caplog):
    out = tmp_path / "out"
    cfg_path = tmp_path / "pipe.json"
    cfg_path.write_text(json.dumps({"pipeline": {"output_dir": str(out), "workers": 0}}))
    for argv, named in (
        (["--config", tmp_path / "missing.json"], "missing.json"),
        (["--config", cfg_path], "pipeline.workers"),
        (["--output-dir", out, "--workers", -3], "pipeline.workers"),
    ):
        caplog.clear()
        status, _ = run(capsys, "pipeline", *argv)
        assert status == 78
        assert named in caplog.text
        assert not out.exists()


def test_pipeline_output_dir_under_a_file_exits_ex_ioerr(tmp_path, capsys, caplog):
    blocker = tmp_path / "file"
    blocker.write_text("")
    status, summary = run(capsys, "pipeline", "--output-dir", blocker / "out")
    assert status == os.EX_IOERR == 74
    assert summary is None


def test_missing_file_errors_return_one(tmp_path, capsys):
    status, _ = run(
        capsys,
        "fit",
        "--embeddings", tmp_path / "nope.emb",
        "--levels", 1, "--sizes", "4", "--seed", 0,
        "--out", tmp_path / "m.rq",
    )
    assert status == 1


def test_synth_config_missing_fields_fails_cleanly(tmp_path, capsys, caplog):
    cfg_path = tmp_path / "synth.json"
    cfg_path.write_text(json.dumps({"num_items": 5}))
    status, _ = run(capsys, "synth", "--config", cfg_path, "--out-dir", tmp_path / "data")
    assert status == 1
    assert "missing SynthConfig fields" in caplog.text


def test_unknown_flag_rejected(capsys):
    # The second is rejected by the subcommand's own parser.
    for argv in (["synth", "--bogus", "x"], ["pipeline", "--workers", "two"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == os.EX_USAGE == 64
