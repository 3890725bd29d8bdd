from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import ngram_model
from sidforge import datamodel, rq
from sidforge.cli import main
from sidforge.datamodel import load_embeddings
from sidforge.pipeline import ArtifactPaths, run_lock
from sidforge.recommender import save_ngram


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
    """main's exit status and the JSON it printed (None if nothing), after
    checking that it wrote no traceback to stderr."""
    status = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    return status, (json.loads(out) if out.strip() else None)


def test_python_dash_m_runs_the_cli_from_a_checkout():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "sidforge", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: sidforge")


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
    sids = [json.loads(line)["sid"] for line in sids_path.read_text().splitlines()[1:]]
    assert encoded["distinct_sids"] == len(set(sids))

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

    curve_path = tmp_path / "curve.json"
    status, curve = run(
        capsys,
        "recon-curve",
        "--model", model_path,
        "--assignment", sids_path,
        "--embeddings", data / "embeddings.emb",
        "--out", curve_path,
    )
    assert status == 0
    assert set(curve["sims"]) == {"1", "2"}
    assert json.loads(curve_path.read_text()) == curve

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
    ranks_path = tmp_path / "ranks.json"
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
        "--ranks-out", ranks_path,
    )
    assert status == 0
    for key in ("HR@5", "HR@10", "NDCG@5", "NDCG@10"):
        assert key in metrics["ngram"]
        assert key in metrics["popularity"]
    ranks = json.loads(ranks_path.read_text())
    assert list(ranks) == sorted(ranks) and len(ranks) == metrics["ngram"]["n_users"]
    hits = sum(1 <= rank <= 5 for rank in ranks.values())
    assert hits / len(ranks) == metrics["ngram"]["HR@5"]
    assert csv_path.read_text().startswith("metric,K,value,n_users\n")

    status, combined = run(
        capsys, "report", "--diagnostics", diag_path, "--metrics", metrics_path
    )
    assert status == 0
    assert combined["diagnostics"]["n_items"] == 100
    assert "HR@5" in combined["metrics"]["ngram"]


def test_step_subcommands_write_the_pipeline_bytes(tmp_path, synth_config, capsys):
    # The pipeline writes the fit's own assignment and `encode` encodes the
    # rows again; the second config normalizes the inputs and shrinks level 2
    # (128 codes for 100 items), where the two paths could part.
    for name, rq_cfg, fit_args, shrinks in (
        ("plain", {"levels": 2, "codebook_sizes": [8, 4], "kmeans_max_iters": 10, "seed": 5},
         ("--sizes", "8,4", "--max-iters", 10, "--seed", 5), False),
        ("normalized", {"levels": 2, "codebook_sizes": [8, 128], "kmeans_max_iters": 10,
                        "seed": 5, "normalize_inputs": True},
         ("--sizes", "8,128", "--max-iters", 10, "--seed", 5, "--normalize"), True),
    ):
        piped, steps = tmp_path / name / "piped", tmp_path / name / "steps"
        cfg = {
            "pipeline": {"output_dir": str(piped)},
            "synth": json.loads(synth_config.read_text()),
            "rq": rq_cfg,
            "diagnostics": {"probe_seed": 2},
            "corpus": {"n": 60, "seed": 1, "max_history": 5},
            "eval": {"ks": [3, 5], "beam_size": 12, "order": 2, "alpha": 0.5},
        }
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(capsys, "pipeline", "--config", cfg_path)[0] == 0

        a = ArtifactPaths.in_dir(steps)
        assert run(capsys, "synth", "--config", synth_config, "--out-dir", steps)[0] == 0
        status, fitted = run(capsys, "fit", "--embeddings", a.embeddings, "--levels", 2,
                             *fit_args, "--out", a.model)
        assert status == 0
        assert (fitted["effective_sizes"] != fitted["configured_sizes"]) == shrinks
        commands = [
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
        differ = [field for field in compared
                  if getattr(p, field).read_bytes() != getattr(a, field).read_bytes()]
        assert differ == [], name

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


def test_ingest_names_an_embedding_id_missing_from_the_items(tmp_path, synth_config, capsys, caplog):
    data = tmp_path / "data"
    run(capsys, "synth", "--config", synth_config, "--out-dir", data)
    first, *rest = (data / "items.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    items = tmp_path / "fewer_items.jsonl"
    items.write_text("".join(rest), encoding="utf-8")
    status, summary = run(
        capsys,
        "ingest",
        "--items", items,
        "--embeddings", data / "embeddings.emb",
        "--interactions", data / "interactions.tsv",
        "--out-dir", tmp_path / "clean",
    )
    assert status == 1 and summary is None
    assert f"from the item file {items}, e.g. {json.loads(first)['item_id']!r}" in caplog.text


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


def test_diagnose_refuses_items_without_a_probe_seed_before_loading(tmp_path, capsys, caplog, monkeypatch):
    def no_load(*args):
        raise AssertionError(f"loaded {args}")

    for module, name in ((rq, "load_model_and_assignment"), (datamodel, "load_embeddings"),
                         (datamodel, "load_items")):
        monkeypatch.setattr(module, name, no_load)
    status, summary = run(
        capsys,
        "diagnose",
        "--model", tmp_path / "model.rq",
        "--assignment", tmp_path / "sids.jsonl",
        "--embeddings", tmp_path / "embeddings.emb",
        "--items", tmp_path / "items.jsonl",
    )
    assert status == 1 and summary is None
    assert "probe_seed is required when labels are given" in caplog.text


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
    ngram = ngram_model(2, 0.1, (2, 2), {(): {1: 3}})
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


@pytest.mark.parametrize(
    "flag, content, named",
    [
        ("--diagnostics", {"collision_rate": 0.1}, "unique_ratio is missing, not a number"),
        ("--diagnostics", {"collision_rate": 0.1, "unique_ratio": 0.9, "utilization": "1",
                           "prefix_entropy": 2.0}, "utilization is '1', not a number"),
        ("--diagnostics", [], "is a list, not a JSON object"),
        ("--metrics", [1, 2], "is a list, not a JSON object"),
        ("--metrics", {"ngram": [1]}, "'ngram' is not an object"),
        ("--metrics", {"ngram": {"HR@5": "x"}}, "ngram.HR@5 is 'x', not a number"),
        ("--metrics", {"ngram": {"NDCG@5": True}}, "ngram.NDCG@5 is True, not a number"),
    ],
)
def test_report_names_the_file_and_key_of_a_malformed_report(tmp_path, capsys, caplog, flag, content, named):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(content))
    status, payload = run(capsys, "report", flag, path)
    assert status == 1 and payload is None
    assert named in caplog.text and str(path) in caplog.text


def test_pipeline_unreadable_or_rejected_config_exits_ex_config(tmp_path, capsys, caplog):
    out = tmp_path / "out"
    cfg_path = tmp_path / "pipe.json"
    cfg_path.write_text(json.dumps({"pipeline": {"output_dir": str(out), "workers": 0}}))
    huge_path = tmp_path / "huge.json"  # an int past the float range
    huge_path.write_text(json.dumps({"pipeline": {"output_dir": str(out)}, "eval": {"alpha": 10**400}}))
    for argv, named in (
        (["--config", tmp_path / "missing.json"], "missing.json"),
        (["--config", cfg_path], "pipeline.workers"),
        (["--output-dir", out, "--workers", -3], "pipeline.workers"),
        (["--config", huge_path], "eval field 'alpha' must be float"),
    ):
        caplog.clear()
        status = main(["pipeline", *map(str, argv)])
        assert status == 78
        assert named in caplog.text
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()


def test_pipeline_output_dir_under_a_file_exits_ex_ioerr(tmp_path, capsys, caplog):
    blocker = tmp_path / "file"
    blocker.write_text("")
    status, summary = run(capsys, "pipeline", "--output-dir", blocker / "out")
    assert status == os.EX_IOERR == 74
    assert summary is None


def test_pipeline_unreadable_stage_input_exits_with_the_stage_number(tmp_path, synth_config, capsys, caplog):
    data = tmp_path / "data"
    run(capsys, "synth", "--config", synth_config, "--out-dir", data)
    (tmp_path / "itemsdir").mkdir()
    cfg_path = tmp_path / "pipe.json"
    cfg_path.write_text(json.dumps({
        "pipeline": {"output_dir": str(tmp_path / "out"), "mode": "ingest"},
        "inputs": {"items": str(tmp_path / "itemsdir"), "embeddings": str(data / "embeddings.emb"),
                   "interactions": str(data / "interactions.tsv")},
    }))
    status, summary = run(capsys, "pipeline", "--config", cfg_path)
    assert status == 1
    assert summary["error"].startswith("stage 1 (source): [Errno 21] Is a directory")


def test_report_without_a_flag_exits_one(capsys, caplog):
    status, payload = run(capsys, "report")
    assert status == 1 and payload is None
    assert "nothing to report; pass --diagnostics and/or --metrics" in caplog.text


def test_write_into_a_missing_directory_names_the_target(tmp_path, synth_config, capsys, caplog):
    data = tmp_path / "data"
    run(capsys, "synth", "--config", synth_config, "--out-dir", data)
    a = ArtifactPaths.in_dir(data)
    run(capsys, "fit", "--embeddings", a.embeddings, "--levels", 1, "--sizes", "4",
        "--seed", 0, "--out", a.model)
    run(capsys, "encode", "--model", a.model, "--embeddings", a.embeddings, "--out", a.assignment)
    target = tmp_path / "absent" / "x.json"
    status, _ = run(capsys, "train-baseline", "--model", a.model, "--assignment", a.assignment,
                    "--interactions", a.interactions, "--out", target)
    assert status == 1
    assert f"No such file or directory: '{target}'" in caplog.text
    assert ".tmp" not in caplog.text


def test_small_catalog_skips_the_probe_and_runs_every_stage(tmp_path, capsys, caplog):
    # 36 items in 4 categories: some category has fewer than the 10 items the
    # probe needs, so the report leaves it out and the later stages still run.
    out = tmp_path / "out"
    cfg_path = tmp_path / "pipe.json"
    cfg_path.write_text(json.dumps({
        "pipeline": {"output_dir": str(out)},
        "synth": {"num_items": 36, "num_users": 30, "dim": 8, "num_categories": 4,
                  "enrichment_level": 0.5, "intra_category_noise": 0.5,
                  "events_per_user": [4, 6], "seed": 1},
        "rq": {"levels": 3, "codebook_sizes": [8, 4, 4]},
        "corpus": {"n": 40},
    }))
    status, summary = run(capsys, "pipeline", "--config", cfg_path)
    assert status == 0
    assert list(summary["stages"].values()) == ["ran"] * 5
    assert "skipping the category probe" in caplog.text and "found 4, the smallest '" in caplog.text
    a = ArtifactPaths.in_dir(out)
    payload = json.loads(a.diagnostics_json.read_text())
    assert "probe_accuracy" not in payload and "sim_curve" in payload
    status, diag = run(capsys, "diagnose", "--model", a.model, "--assignment", a.assignment,
                       "--embeddings", a.embeddings, "--items", a.items, "--probe-seed", 0)
    assert status == 0
    assert diag == payload


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


@pytest.mark.parametrize("command", ["fit", "encode", "synth", "ingest"])
def test_workers_and_kcore_out_of_range_exit_one(tmp_path, synth_config, capsys, caplog, command):
    data = tmp_path / "data"
    run(capsys, "synth", "--config", synth_config, "--out-dir", data)
    emb, model_path, out = data / "embeddings.emb", tmp_path / "model.rq", tmp_path / "out"
    run(capsys, "fit", "--embeddings", emb, "--levels", 1, "--sizes", "4", "--seed", 0, "--out", model_path)
    argv, named = {
        "fit": (["--embeddings", emb, "--levels", 1, "--sizes", "4", "--seed", 0, "--workers", 0,
                 "--out", out], "workers must be >= 1, not 0"),
        "encode": (["--model", model_path, "--embeddings", emb, "--workers", 0, "--out", out],
                   "workers must be >= 1, not 0"),
        "synth": (["--config", synth_config, "--kcore", -3, "--out-dir", out], "kcore must be >= 0, not -3"),
        "ingest": (["--items", data / "items.jsonl", "--embeddings", emb,
                    "--interactions", data / "interactions.tsv", "--kcore", -1, "--out-dir", out],
                   "kcore must be >= 0, not -1"),
    }[command]
    caplog.clear()
    status, payload = run(capsys, command, *argv)
    assert status == 1 and payload is None
    assert named in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("argv, option", [
    (["eval", "--model", "m", "--assignment", "a", "--interactions", "i", "--ngram", "n", "--k", "x"], "--k"),
    (["eval", "--model", "m", "--assignment", "a", "--interactions", "i", "--ngram", "n", "--k", ","], "--k"),
    (["fit", "--embeddings", "e", "--levels", "2", "--sizes", "8,x", "--seed", "0", "--out", "m"], "--sizes"),
])
def test_integer_list_flags_are_usage_errors(capsys, argv, option):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == os.EX_USAGE == 64
    assert f"argument {option}: invalid integer_list value" in capsys.readouterr().err


def test_unknown_flag_rejected(capsys):
    # The second is rejected by the subcommand's own parser.
    for argv in (["synth", "--bogus", "x"], ["pipeline", "--workers", "two"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == os.EX_USAGE == 64
