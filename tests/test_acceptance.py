"""Acceptance suite: twelve numbered criteria covering oracle equivalence,
metric identities, directional trends, and end-to-end determinism. The
conftest summary hook prints one pass/fail line per criterion."""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np

import sidforge
from conftest import assignment_from_sids, random_model, report_of, sid_map, split_of
from sidforge.corpus import (
    TaskId,
    _USER_TEMPLATES,
    render_chat,
    sample_corpus,
    system_instruction,
)
from sidforge.datamodel import EmbeddingSet, leave_last_out_split
from sidforge.diagnostics import (
    build_report,
    codebook_utilization,
    collision_rate,
    reconstruction_curve,
    semantic_probe,
)
from sidforge.pipeline import ArtifactPaths, load_config, run_pipeline
from sidforge.recommender import (
    beam_search,
    evaluate,
    evaluate_static_ranking,
    popularity_ranking,
    split_rows,
    train_ngram,
)
from sidforge.rq import (
    RqConfig,
    assign_all,
    build_trie,
    decode_batch,
    encode_batch,
    fit_codebooks,
    parse_sid,
)
from sidforge.synthgen import SynthConfig, generate_catalog, generate_interactions
from test_recommender import exhaustive_rank

_SMALL_CACHE: dict = {}


def _small_instances():
    """20 random small quantizer models with 1000 embeddings each, plus
    independently computed oracle codes and per-level residuals. The oracle
    scans every centroid per level with a norm-based distance in a plain
    per-row loop, nothing shared with the library's encoder."""
    if "data" in _SMALL_CACHE:
        return _SMALL_CACHE["data"]
    gen = np.random.default_rng(91)
    data = []
    for _ in range(20):
        levels = int(gen.integers(1, 5))
        sizes = [int(gen.integers(2, 33)) for _ in range(levels)]
        dim = int(gen.integers(2, 17))
        model = random_model(gen, levels, sizes, dim)
        rows = gen.normal(size=(1000, dim))
        cents = [cb.astype(np.float64) for cb in model.codebooks]
        tokens = np.empty((1000, levels), dtype=np.int64)
        residuals = np.empty((levels, 1000, dim))
        for i in range(1000):
            residual = rows[i].copy()
            for level, c in enumerate(cents):
                j = int(np.argmin(np.linalg.norm(c - residual, axis=1)))
                tokens[i, level] = j
                residual = residual - c[j]
                residuals[level, i] = residual
        data.append((model, rows, tokens, residuals))
    _SMALL_CACHE["data"] = data
    return data


def test_criterion_01_encode_matches_exhaustive_oracle():
    start = time.perf_counter()
    mismatches = 0
    for model, rows, oracle_tokens, _ in _small_instances():
        got = encode_batch(model, rows)
        mismatches += int((got != oracle_tokens).any(axis=1).sum())
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 10.0


def test_criterion_02_residual_telescoping():
    for model, rows, oracle_tokens, oracle_residuals in _small_instances():
        for h in range(1, model.levels + 1):
            recon = decode_batch(model, oracle_tokens, depth=h)
            gap = (rows - recon) - oracle_residuals[h - 1]
            assert float(np.max(np.abs(gap))) <= 1e-6


def test_criterion_03_reconstruction_similarity_rises_with_depth():
    for seed in range(5):
        scfg = SynthConfig(
            num_items=2000,
            num_users=1,
            dim=32,
            num_categories=8,
            enrichment_level=0.0,
            intra_category_noise=1.0,
            events_per_user=(1, 1),
            seed=seed,
        )
        _, emb, _ = generate_catalog(scfg)
        model = fit_codebooks(emb, RqConfig(levels=8, codebook_sizes=(64,) * 8, seed=seed))
        curve = reconstruction_curve(model, emb, assign_all(model, emb))
        sims = [curve.sims[h] for h in range(1, 9)]
        assert all(b >= a for a, b in zip(sims, sims[1:])), f"seed {seed}: {sims}"
        assert sims[7] - sims[0] >= 0.2, f"seed {seed}: gap {sims[7] - sims[0]:.3f}"


def test_criterion_04_collision_unique_identity():
    gen = np.random.default_rng(4)
    for _ in range(100):
        n = int(gen.integers(1, 200))
        depth = int(gen.integers(1, 5))
        sids = {
            f"i{j}": tuple(int(t) for t in gen.integers(0, 4, size=depth))
            for j in range(n)
        }
        assign = assignment_from_sids(sids)
        assert collision_rate(assign) + report_of(assign).unique_ratio == 1.0
    identical = assignment_from_sids({f"i{j}": (1, 2) for j in range(9)})
    assert collision_rate(identical) == 1.0
    assert report_of(identical).unique_ratio == 0.0
    distinct = assignment_from_sids({f"i{j}": (j,) for j in range(9)})
    assert collision_rate(distinct) == 0.0
    assert report_of(distinct).unique_ratio == 1.0


def test_criterion_05_enrichment_improves_sid_quality():
    start = time.perf_counter()
    means = {}
    for level in (0.0, 0.5, 1.0):
        rows = []
        for seed in range(5):
            scfg = SynthConfig(
                num_items=600,
                num_users=1,
                dim=16,
                num_categories=8,
                enrichment_level=level,
                intra_category_noise=0.6,
                events_per_user=(1, 1),
                seed=seed,
                twin_fraction=0.4,
                twin_separation=2.5,
            )
            _, emb, _ = generate_catalog(scfg)
            model = fit_codebooks(
                emb, RqConfig(levels=3, codebook_sizes=(64, 32, 16), seed=seed)
            )
            assign = assign_all(model, emb)
            rows.append(
                (
                    collision_rate(assign),
                    codebook_utilization(assign, model),
                    build_report(assign, model).prefix_entropy,
                )
            )
        means[level] = np.asarray(rows).mean(axis=0)
    collision = [means[level][0] for level in (0.0, 0.5, 1.0)]
    utilization = [means[level][1] for level in (0.0, 0.5, 1.0)]
    entropy = [means[level][2] for level in (0.0, 0.5, 1.0)]
    assert collision[0] >= collision[1] >= collision[2], collision
    assert utilization[0] <= utilization[1] <= utilization[2], utilization
    assert entropy[0] <= entropy[1] <= entropy[2], entropy
    assert time.perf_counter() - start < 120.0


def test_criterion_06_fitted_codebooks_beat_random_subsets():
    sizes = (16, 8)
    for seed in range(10):
        gen = np.random.default_rng(seed)
        rows = np.asarray(gen.normal(size=(500, 12)), dtype=np.float32)
        emb = EmbeddingSet([f"i{j}" for j in range(500)], rows)
        model = fit_codebooks(emb, RqConfig(levels=2, codebook_sizes=sizes, seed=seed))
        for stats in model.fit_stats:
            trace = stats.mse_trace
            assert all(b <= a for a, b in zip(trace, trace[1:])), trace
        tokens = encode_batch(model, rows.astype(np.float64))
        recon = decode_batch(model, tokens)
        fitted_mse = float(np.mean(np.sum((rows - recon) ** 2, axis=1)))
        sub_gen = np.random.default_rng(10_000 + seed)
        residual = rows.astype(np.float64)
        for k in sizes:
            idx = sub_gen.choice(500, size=k, replace=False)
            cents = residual[idx]
            dists = np.sum((residual[:, None, :] - cents[None]) ** 2, axis=2)
            residual = residual - cents[np.argmin(dists, axis=1)]
        random_mse = float(np.mean(np.sum(residual**2, axis=1)))
        assert fitted_mse < random_mse, f"seed {seed}: {fitted_mse} vs {random_mse}"


def test_criterion_07_full_beam_reproduces_exhaustive_ranking():
    for trial in range(20):
        gen = np.random.default_rng(700 + trial)
        n = int(gen.integers(20, 201))
        depth = int(gen.integers(2, 4))
        sizes = tuple(int(gen.integers(3, 7)) for _ in range(depth))
        sids = {
            f"i{j}": tuple(int(gen.integers(s)) for s in sizes) for j in range(n)
        }
        assign = assignment_from_sids(sids)
        trie = build_trie(assign)
        seqs = {
            f"u{u}": [f"i{int(gen.integers(n))}" for _ in range(7)] for u in range(8)
        }
        model = train_ngram(
            split_rows(split_of(seqs), assign, False), assign, sizes, order=int(gen.integers(1, 4)), alpha=0.3
        )
        top_k = min(10, trie.n_sids)
        contexts = ((), tuple(int(gen.integers(sum(sizes))) for _ in range(3)))
        for ctx in contexts:
            want = exhaustive_rank(model, ctx, trie, sizes, top_k)
            got = beam_search(
                model, ctx, trie, beam_size=trie.n_sids, top_k=top_k, sizes=sizes
            )
            assert got == want, f"trial {trial} ctx {ctx}"


def _rank_case(position: int):
    sids = {f"t{j}": (j,) for j in range(10)}
    assign = assignment_from_sids(sids)
    split = split_of({"u": ["t0", "t1", f"t{position - 1}"]})
    ranking = [(j,) for j in range(10)]
    return evaluate_static_ranking(ranking, split_rows(split, assign, False), assign, ks=(5, 10))


def test_criterion_08_metric_hand_values():
    at_rank_1 = _rank_case(1)
    assert at_rank_1.ndcg[5] == 1.0
    assert at_rank_1.hr[5] == 1.0
    at_rank_3 = _rank_case(3)
    assert at_rank_3.ndcg[5] == 0.5
    at_rank_7 = _rank_case(7)
    assert at_rank_7.ndcg[5] == 0.0
    assert at_rank_7.hr[5] == 0.0
    assert at_rank_7.ndcg[10] == 1.0 / math.log2(8) == 1.0 / 3.0
    gen = np.random.default_rng(8)
    for _ in range(30):
        n_sids = int(gen.integers(2, 30))
        sids = {f"i{j}": (int(gen.integers(n_sids)),) for j in range(40)}
        assign = assignment_from_sids(sids)
        seqs = {
            f"u{u}": [f"i{int(gen.integers(40))}" for _ in range(5)]
            for u in range(12)
        }
        ranking = sorted(set(sid_map(assign).values()))
        gen.shuffle(ranking)
        report = evaluate_static_ranking(ranking, split_rows(split_of(seqs), assign, False), assign, ks=(5, 10))
        assert report.hr[5] <= report.hr[10]


def test_criterion_09_ngram_beats_popularity_on_planted_patterns():
    wins = 0
    for seed in range(5):
        scfg = SynthConfig(
            num_items=200,
            num_users=150,
            dim=16,
            num_categories=8,
            enrichment_level=1.0,
            intra_category_noise=0.4,
            events_per_user=(20, 30),
            seed=seed,
            dominant_transition=0.9,
            twin_fraction=0.0,
        )
        catalog, emb, labels = generate_catalog(scfg)
        split = leave_last_out_split(generate_interactions(catalog, labels, scfg))
        model = fit_codebooks(emb, RqConfig(levels=2, codebook_sizes=(16, 8), seed=seed))
        assign = assign_all(model, emb)
        trie = build_trie(assign)
        sizes = model.effective_sizes
        ngram = train_ngram(split_rows(split, assign, False), assign, sizes, order=3, alpha=0.1)
        user_rows = split_rows(split, assign, True)
        sequential = evaluate(ngram, user_rows, assign, trie, sizes, ks=(10,), beam_size=20)
        static = evaluate_static_ranking(popularity_ranking(user_rows, assign), user_rows, assign, ks=(10,))
        wins += sequential.hr[10] > static.hr[10]
    assert wins >= 4, f"{wins}/5 seeds"


def test_criterion_10_corpus_fidelity():
    scfg = SynthConfig(
        num_items=400,
        num_users=120,
        dim=12,
        num_categories=8,
        enrichment_level=0.5,
        intra_category_noise=0.5,
        events_per_user=(8, 14),
        seed=10,
    )
    catalog, emb, labels = generate_catalog(scfg)
    split = leave_last_out_split(generate_interactions(catalog, labels, scfg))
    model = fit_codebooks(emb, RqConfig(levels=2, codebook_sizes=(24, 12), seed=0))
    assign = assign_all(model, emb)
    records, stats = sample_corpus(split, catalog, assign, n=80_000, seed=0)
    assert stats["excluded_tasks"] == []
    for task in TaskId:
        share = stats["sampled_per_task"][task.name] / 80_000
        assert abs(share - 0.125) <= 0.02, f"{task.name}: {share:.4f}"
    asset_dir = Path(sidforge.__file__).parent / "templates"
    assets = {
        task.name: (asset_dir / f"{task.name.lower()}.txt").read_text("utf-8")
        for task in TaskId
    }
    checked_sid_targets = 0
    for record in records:
        assert record["system"] == assets[record["task"]]
        if record["task"] in ("T1", "T7"):
            tokens = parse_sid(record["assistant"], model)
            assert len(tokens) == 2
            checked_sid_targets += 1
    assert checked_sid_targets > 10_000
    record = {
        "system": system_instruction(TaskId.T1),
        "user": _USER_TEMPLATES[TaskId.T1].format(title="Final Fantasy VIII"),
        "assistant": "<a_195><b_133>",
    }
    assert render_chat(record) == (
        "<|im_start|>system\n"
        "You are a semantic ID encoder. Given a product title, generate its "
        "corresponding Semantic ID (SID) sequence.\n"
        "<|im_end|>\n"
        "<|im_start|>user\n"
        "Product Title: Final Fantasy VIII\n"
        "Generate the SID sequence:\n"
        "<|im_end|>\n"
        "<|im_start|>assistant\n"
        "<a_195><b_133>\n"
        "<|im_end|>"
    )


def test_criterion_11_probe_tracks_enrichment():
    gaps = []
    shuffled = []
    for seed in range(5):
        accuracy = {}
        for level in (0.0, 1.0):
            scfg = SynthConfig(
                num_items=640,
                num_users=1,
                dim=16,
                num_categories=8,
                enrichment_level=level,
                intra_category_noise=0.8,
                events_per_user=(1, 1),
                seed=seed,
            )
            _, emb, labels = generate_catalog(scfg)
            model = fit_codebooks(
                emb, RqConfig(levels=3, codebook_sizes=(32, 16, 8), seed=seed)
            )
            assign = assign_all(model, emb)
            accuracy[level] = semantic_probe(assign, model, labels, split_seed=seed)
            if level == 1.0:
                gen = np.random.default_rng(1000 + seed)
                items = sorted(labels)
                values = [labels[i] for i in items]
                perm = gen.permutation(len(items))
                scrambled = {items[i]: values[perm[i]] for i in range(len(items))}
                shuffled.append(semantic_probe(assign, model, scrambled, split_seed=seed))
        gaps.append(accuracy[1.0] - accuracy[0.0])
    assert float(np.mean(gaps)) >= 0.05, gaps
    chance = 1.0 / 8.0
    assert abs(float(np.mean(shuffled)) - chance) <= 0.05, shuffled


def test_criterion_12_worker_count_invariance(tmp_path):
    def configured(out_dir, workers):
        cfg = load_config(env={})
        cfg["pipeline"]["output_dir"] = str(out_dir)
        cfg["pipeline"]["workers"] = workers
        cfg["synth"] = {
            "num_items": 300,
            "num_users": 60,
            "dim": 12,
            "num_categories": 6,
            "enrichment_level": 0.5,
            "intra_category_noise": 0.5,
            "events_per_user": [8, 14],
            "seed": 5,
        }
        cfg["rq"] = {**cfg["rq"], "levels": 3, "codebook_sizes": [16, 8, 8]}
        cfg["corpus"] = {**cfg["corpus"], "n": 400, "seed": 2}
        return cfg

    status_a, _ = run_pipeline(configured(tmp_path / "a", 1))
    status_b, _ = run_pipeline(configured(tmp_path / "b", 4))
    assert status_a == 0 and status_b == 0
    paths_a = ArtifactPaths.in_dir(tmp_path / "a")
    paths_b = ArtifactPaths.in_dir(tmp_path / "b")
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
    ):
        bytes_a = getattr(paths_a, field).read_bytes()
        bytes_b = getattr(paths_b, field).read_bytes()
        assert bytes_a == bytes_b, f"{field} differs between worker counts"
