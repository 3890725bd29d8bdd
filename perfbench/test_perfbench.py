"""The benchmark's own tests: each workload at a tiny scale passes every
check, each check fails on a corrupted artifact, staging and tracing leave
the artifact bytes unchanged, and BENCHMARK.json names what the code reports."""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import child  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
from workloads import OUTPUT_DIR, STAGES, TINY, WORKLOADS  # noqa: E402

SEED = 3


def tiny_run(directory: Path, name: str, tracer=None) -> dict:
    """Inputs and one round of a tiny workload, in directory."""
    directory.mkdir(parents=True, exist_ok=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(directory)
        child.make_inputs(TINY[name], SEED)
        return child.run_round(TINY[name], tracer, reruns=1)


@pytest.fixture(scope="module")
def user_eval_run(tmp_path_factory):
    directory = tmp_path_factory.mktemp("user_eval")
    return directory, tiny_run(directory, "user_eval")


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {n: w.why for n, w in WORKLOADS.items()}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER


def test_tiny_catalog_fit_passes_every_check(tmp_path):
    result = tiny_run(tmp_path, "catalog_fit")
    calls = [call for st in result["stages"].values() for call in st["calls"]]
    assert len(calls) == sum(TINY["catalog_fit"].calls.values())
    assert all(call["status"] == 0 and call["state"] == "ran" for call in calls)
    assert result["reruns"][0]["stages"] == {s: "cache-hit" for s in STAGES}
    assert result["hashes_after_rerun"] == result["hashes"]
    assert checks.run_checks(tmp_path, TINY["catalog_fit"], SEED) == {
        c.__name__: None for c in checks.checks_for(TINY["catalog_fit"])}


def test_user_eval_passes_every_check(user_eval_run):
    directory, result = user_eval_run
    assert result["reruns"][0]["stages"] == {s: "cache-hit" for s in STAGES}
    assert checks.run_checks(directory, TINY["user_eval"], SEED) == {
        c.__name__: None for c in checks.checks_for(TINY["user_eval"])}


def test_staged_round_matches_a_plain_run_pipeline(tmp_path, user_eval_run):
    from sidforge.pipeline import run_pipeline

    directory, result = user_eval_run
    shutil.copytree(directory / "inputs", tmp_path / "inputs")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path)
        status, _ = run_pipeline(TINY["user_eval"].pipeline_config())
    assert status == 0
    assert child.tree_hashes(tmp_path / OUTPUT_DIR) == result["hashes"]


def test_traced_round_reports_every_layer_and_keeps_the_bytes(tmp_path, user_eval_run):
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        result = tiny_run(tmp_path, "user_eval", tracer)
    finally:
        restore()
    assert result["hashes"] == user_eval_run[1]["hashes"]
    stage_cpu = {s: (result["stages"][s]["cpu_user_s"], result["stages"][s]["cpu_sys_s"]) for s in STAGES}
    metrics = tracing.per_layer_metrics([tracer.to_json()], stage_cpu, cache_hits=5)
    assert list(metrics) == [name for name, _, _ in tracing.PER_LAYER]
    assert all(math.isfinite(v) and v >= 0 for v in metrics.values())
    assert metrics["recommender.score_next_calls"] > 0
    assert metrics["datamodel.items"] == TINY["user_eval"].synth["num_items"]
    assert metrics["corpus.bytes_written"] > 0 and metrics["pipeline.hashed_mb"] > 0
    assert metrics["rq.fit_codebooks_s"] > 0 and metrics["corpus.make_examples.T3_s"] > 0


# --- every check fails on a corrupted artifact --------------------------------

def _edit_jsonl(path: Path, edit) -> None:
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    edit(rows)
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


def _edit_json(path: Path, edit) -> None:
    obj = json.loads(path.read_text(encoding="utf-8"))
    edit(obj)
    path.write_text(json.dumps(obj), encoding="utf-8")


def _edit_model_header(path: Path, edit) -> None:
    head, rest = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    edit(header)
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + rest)


def _swap_two_sids(rows):
    first = rows[1]
    other = next(r for r in rows[2:] if r["tokens"] != first["tokens"])
    for key in ("sid", "tokens"):
        first[key], other[key] = other[key], first[key]


def _test_item_as_target(out: Path):
    """Point one T3 record at its user's test item instead of the validation."""
    run = checks.Run(out.parent, TINY["user_eval"], SEED)
    sids = run.sids[1]
    by_history = {}
    for train, validation, test in run.users.values():
        history = ", ".join(checks.render_sid(sids[i]) for i in train[-run.cfg["corpus"]["max_history"]:])
        by_history.setdefault(history, []).append((validation, test))

    def edit(rows):
        for rec in rows:
            if rec["task"] != "T3":
                continue
            history = rec["user"].split(": ", 1)[1].rsplit("\n", 1)[0]
            (validation, test), *others = by_history[history]
            if not others and sids[test] != sids[validation]:
                rec["assistant"] = checks.render_sid(sids[test])
                return
        raise AssertionError("no T3 record to corrupt")

    _edit_jsonl(out / "corpus.jsonl", edit)


def _set(key, value):
    return lambda obj: obj.__setitem__(key, value)


CORRUPTIONS = {
    "source_matches_inputs": lambda out: (out / "interactions.tsv").write_text(
        "".join((out / "interactions.tsv").read_text(encoding="utf-8").splitlines(True)[1:]), encoding="utf-8"),
    "model_hash": lambda out: _edit_model_header(out / "model.rq", _set("model_hash", "0" * 64)),
    "mse_trace": lambda out: _edit_model_header(
        out / "model.rq", lambda h: h["fit_stats"][0]["mse_trace"].append(h["fit_stats"][0]["mse_trace"][-1] * 2)),
    "sid_bruteforce": lambda out: _edit_jsonl(out / "sids.jsonl", _swap_two_sids),
    "collision_rate": lambda out: _edit_json(
        out / "diagnostics.json", lambda d: d.__setitem__("collision_rate", d["collision_rate"] + 0.01)),
    "codebook_utilization": lambda out: _edit_json(
        out / "diagnostics.json", lambda d: d.__setitem__("utilization", d["utilization"] * 0.5)),
    "prefix_entropy": lambda out: _edit_json(
        out / "diagnostics.json", lambda d: d["prefix_entropy_profile"].reverse()),
    "probe_accuracy": lambda out: _edit_json(out / "diagnostics.json", _set("probe_accuracy", 0.25)),
    "corpus_count": lambda out: _edit_jsonl(out / "corpus.jsonl", lambda rows: rows.pop()),
    "corpus_item_targets": lambda out: _edit_jsonl(
        out / "corpus.jsonl",
        lambda rows: next(r for r in rows if r["task"] == "T1").__setitem__("assistant", "<a_0><b_0><c_0><d_0>")),
    "corpus_history_targets": _test_item_as_target,
    "sid_vocabulary": lambda out: (out / "sid_vocab.txt").write_text(
        "".join((out / "sid_vocab.txt").read_text(encoding="utf-8").splitlines(True)[:-1]), encoding="utf-8"),
    "ngram_counts": lambda out: _edit_json(
        out / "ngram.json", lambda n: n["contexts"][0]["counts"].update(
            {k: v + 1 for k, v in list(n["contexts"][0]["counts"].items())[:1]})),
    "metric_identities": lambda out: _edit_json(
        out / "metrics.json", lambda m: m["ngram"].__setitem__("NDCG@10", m["ngram"]["HR@10"] + 0.01)),
    "popularity_baseline": lambda out: _edit_json(
        out / "metrics.json", lambda m: m["popularity"].__setitem__("HR@10", m["popularity"]["HR@10"] + 0.01)),
    "ngram_beats_popularity": lambda out: _edit_json(
        out / "metrics.json", lambda m: m["ngram"].__setitem__("HR@10", 0.0)),
}


def test_every_check_has_a_corruption():
    assert set(CORRUPTIONS) | {"beam_scores"} == {c.__name__ for c in checks.checks_for(TINY["user_eval"])}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_check_fails_on_corrupted_artifact(tmp_path, user_eval_run, name):
    directory, _ = user_eval_run
    shutil.copytree(directory, tmp_path / "run")
    check = getattr(checks, name)
    check(checks.Run(tmp_path / "run", TINY["user_eval"], SEED))  # passes before
    CORRUPTIONS[name](tmp_path / "run" / OUTPUT_DIR)
    with pytest.raises(Exception):
        check(checks.Run(tmp_path / "run", TINY["user_eval"], SEED))


def test_beam_scores_fails_on_a_wrong_score(user_eval_run, monkeypatch):
    from sidforge import recommender

    original = recommender.beam_search

    def off_by_a_little(*args, **kwargs):
        ranked = original(*args, **kwargs)
        return [(tokens, score - 1e-6) for tokens, score in ranked]

    run = checks.Run(user_eval_run[0], TINY["user_eval"], SEED)
    checks.beam_scores(run)
    monkeypatch.setattr(recommender, "beam_search", off_by_a_little)
    with pytest.raises(checks.CheckFailed):
        checks.beam_scores(run)
