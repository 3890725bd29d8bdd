from __future__ import annotations

import json
import struct
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import assignment_from_sids, random_model
from sidforge import rq
from sidforge.datamodel import EmbeddingSet
from sidforge.rq import (
    _BLOCK_ELEMENTS,
    RqConfig,
    RqError,
    assign_all,
    build_trie,
    decode,
    decode_batch,
    encode,
    encode_batch,
    fit_codebooks,
    level_letter,
    load_assignment,
    load_model,
    load_model_and_assignment,
    parse_sid,
    render_sid,
    save_assignment,
    save_model,
    validate_sid,
)


def oracle_encode(model, x):
    """Independent exhaustive per-level scan: squared distances via a Python
    loop over centroids, smallest index wins ties."""
    residual = np.asarray(x, dtype=np.float64).copy()
    tokens = []
    for cb in model.codebooks:
        cents = cb.centroids.astype(np.float64)
        best, best_d = 0, None
        for j in range(cents.shape[0]):
            diff = residual - cents[j]
            d = float(np.dot(diff, diff))
            if best_d is None or d < best_d:
                best, best_d = j, d
        tokens.append(best)
        residual = residual - cents[best]
    return tuple(tokens), residual


class TestEncodeOracle:
    def test_matches_exhaustive_scan(self, rng):
        for trial in range(5):
            levels = int(rng.integers(1, 5))
            sizes = [int(rng.integers(2, 17)) for _ in range(levels)]
            dim = int(rng.integers(2, 13))
            model = random_model(rng, levels, sizes, dim)
            xs = rng.normal(size=(40, dim))
            got = encode_batch(model, xs)
            for i in range(xs.shape[0]):
                want, _ = oracle_encode(model, xs[i])
                assert tuple(int(t) for t in got[i]) == want

    def test_tie_breaks_to_smallest_index(self, rng):
        model = random_model(rng, 1, [4], 3)
        cents = np.array(model.codebooks[0].centroids, copy=True)
        cents[2] = cents[0]  # duplicate centroid further down the table
        cents.setflags(write=False)
        object.__setattr__(model.codebooks[0], "centroids", cents)
        x = cents[0].astype(np.float64)
        assert encode(model, x) == (0,)

    def test_single_row_matches_batch(self, rng):
        model = random_model(rng, 3, [5, 4, 3], 6)
        x = rng.normal(size=6)
        assert encode(model, x) == tuple(int(t) for t in encode_batch(model, x[None, :])[0])

    def test_worker_count_does_not_change_codes(self, rng):
        # 70 and 50 centroids split the 9000 rows into 10 and 7 blocks.
        model = random_model(rng, 2, [70, 50], 8)
        xs = rng.normal(size=(9000, 8))
        a = encode_batch(model, xs, workers=1)
        b = encode_batch(model, xs, workers=4)
        assert np.array_equal(a, b)

    def test_one_row_blocks_match_exhaustive_scan(self, rng):
        # k exceeds the kernel's block budget, so every block is one row.
        k, dim = _BLOCK_ELEMENTS + 1, 2
        assert k > _BLOCK_ELEMENTS
        model = random_model(rng, 1, [k], dim)
        xs = rng.normal(size=(6, dim))
        got = encode_batch(model, xs)
        for i in range(xs.shape[0]):
            assert (int(got[i, 0]),) == oracle_encode(model, xs[i])[0]

    def test_threads_over_many_blocks_match_exhaustive_scan(self, rng):
        model = random_model(rng, 2, [256, 2], 64)
        xs = rng.normal(size=(3841, 64))
        # Level 1 takes 256 rows a block, so the 3841 rows span 16 blocks.
        assert xs.shape[0] > 15 * (_BLOCK_ELEMENTS // 256)
        got = encode_batch(model, xs, workers=4)
        assert np.array_equal(got, encode_batch(model, xs, workers=1))
        for i in range(xs.shape[0]):
            assert tuple(int(t) for t in got[i]) == oracle_encode(model, xs[i])[0]


_PARENT_BLOCK_ELEMENTS = 1 << 18


def parent_nearest(points, centroids, workers=1):
    """rq._nearest before the norm-expansion screen, verbatim: the oracle the
    screened kernel must equal bit for bit."""
    cents = centroids.astype(np.float64)
    k, d = cents.shape
    n = points.shape[0]
    idx = np.empty(n, dtype=np.int64)
    sq = np.empty(n, dtype=np.float64)
    step = max(1, _PARENT_BLOCK_ELEMENTS // max(1, k * d))

    def block(start: int) -> None:
        diff = points[start:start + step, None, :] - cents
        np.square(diff, out=diff)
        d2 = diff.sum(axis=2)
        best = np.argmin(d2, axis=1)
        idx[start:start + step] = best
        sq[start:start + step] = d2[np.arange(best.shape[0]), best]

    starts = range(0, n, step)
    if workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(block, starts))
    else:
        for start in starts:
            block(start)
    return idx, sq


def parent_kmeanspp_init(points, k, gen):
    """rq._kmeanspp_init before the screen, verbatim."""
    n = points.shape[0]
    chosen = [int(gen.integers(n))]
    d2 = np.square(points - points[chosen[0]]).sum(axis=1)
    while len(chosen) < k:
        cum = np.cumsum(d2)
        total = float(cum[-1])
        if total <= 0.0:
            break
        u = gen.random() * total
        j = int(np.searchsorted(cum, u, side="right"))
        if j >= n:
            j = n - 1
        if d2[j] <= 0.0:
            j = int(np.flatnonzero(d2 > 0.0)[0])
        chosen.append(j)
        d2 = np.minimum(d2, np.square(points - points[j]).sum(axis=1))
    return points[np.array(chosen, dtype=np.int64)].astype(np.float32)


def assert_same_nearest(points, centroids, workers=1):
    with np.errstate(over="ignore", invalid="ignore"):
        got = rq._nearest(points, centroids, workers)
        want = parent_nearest(points, centroids, workers)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


def near_ties(rng, offset, unit, n, d):
    """n points at `offset`, equidistant from every centroid
    offset + unit * (+-1, ..., +-1), and n points moved from it by 1e-9 to
    1e-1 steps: at a large offset, around the norm expansion's rounding
    error."""
    exact = np.full((n, d), offset)
    moves = unit * 10.0 ** rng.uniform(-9, -1, size=(n, 1)) * rng.normal(size=(n, d))
    return exact, exact + moves


def adversarial_cases(rng):
    """(points, float32 centroids) pairs built to put the screen's margin
    to work: exact ties, zero distances and heavy cancellation."""
    # Integer-grid points and centroids: many points exactly equidistant
    # from two or more centroids, and midpoints of centroid pairs.
    grid = rng.integers(-2, 3, size=(60, 3)).astype(np.float64)
    cents = rng.integers(-2, 3, size=(12, 3)).astype(np.float32)
    mid = np.array([[1, 0], [0, 1], [1, 1], [2, 1], [1, 2]], dtype=np.float64)
    square = np.array([[0, 0], [2, 0], [0, 2], [2, 2]], dtype=np.float32)
    cases = [(grid, cents), (mid, square)]
    # Duplicate centroids, one repeated four times down the table.
    dup = rng.normal(size=(10, 5)).astype(np.float32)
    dup[[3, 6, 9]] = dup[1]
    cases.append((rng.normal(size=(50, 5)), dup))
    # Points equal to a centroid, and all-identical points.
    cents = rng.normal(size=(16, 7)).astype(np.float32)
    cases.append((cents[rng.integers(16, size=40)].astype(np.float64), cents))
    cases.append((np.tile(rng.normal(size=(1, 7)), (30, 1)), cents))
    # A shared large offset, where the norm expansion cancels worst. The
    # offset and the step are float32 values, so the centroids hold them
    # exactly.
    for offset in (1e6, float(np.float32(1e30))):
        unit = 2.0 ** (np.floor(np.log2(offset)) - 20)
        cents = (offset + unit * rng.choice([-1.0, 1.0], size=(8, 16))).astype(np.float32)
        cents[5] = cents[2]
        for points in near_ties(rng, offset, unit, 60, 16):
            cases.append((points, cents))
    # Squares that overflow float64 (S is then NaN or infinite).
    cases.append((rng.normal(size=(20, 3)) * 1e280, (rng.normal(size=(5, 3)) * 1e30).astype(np.float32)))
    return cases


class TestKernelOracle:
    """The screened kernel and seeding against their pre-screen versions."""

    @pytest.mark.parametrize("budget", [1, 7, 1 << 10, 1 << 16, 1 << 20])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_nearest_matches_parent_over_shapes(self, rng, monkeypatch, budget, workers):
        monkeypatch.setattr(rq, "_BLOCK_ELEMENTS", budget)
        shapes = [(1, 1, 1), (30, 1, 4), (30, 5, 1), (1, 9, 3)]
        shapes += [tuple(int(v) for v in rng.integers(1, (120, 40, 70))) for _ in range(12)]
        for n, k, d in shapes:
            scale = 10.0 ** rng.uniform(-3, 3)
            points = rng.normal(size=(n, d)) * scale
            cents = (rng.normal(size=(k, d)) * scale).astype(np.float32)
            assert_same_nearest(points, cents, workers)

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_nearest_matches_parent_on_adversarial_inputs(self, rng, monkeypatch, workers):
        monkeypatch.setattr(rq, "_BLOCK_ELEMENTS", 16)
        for points, cents in adversarial_cases(rng):
            assert_same_nearest(points, cents, workers)

    def test_kmeanspp_matches_parent(self, rng):
        cases = [(rng.normal(size=(n, d)), k) for n, d, k in ((1, 3, 1), (80, 1, 10), (200, 16, 40))]
        cases += [(points, 8) for points, _ in adversarial_cases(rng)[:-1]]
        # Exact and near duplicates, seeded until the distance mass is zero:
        # a duplicate of a chosen centre left at a tiny positive distance
        # would be drawn as one more centre. Also at a scale where the
        # squares underflow.
        for offset, unit in ((1e6, 0.5), (0.0, 1e-160)):
            exact, moved = near_ties(rng, offset, unit, 12, 16)
            points = np.concatenate([exact, moved, moved])[rng.permutation(36)]
            cases.append((points, 36))
        cases += [(rng.normal(size=(35, d)) * 1e-161, 35) for d in (2, 5, 14)]
        for seed, (points, k) in enumerate(cases):
            got_gen, want_gen = np.random.default_rng(seed), np.random.default_rng(seed)
            got = rq._kmeanspp_init(points, k, got_gen)
            want = parent_kmeanspp_init(points, k, want_gen)
            assert got.tobytes() == want.tobytes()
            assert got_gen.random() == want_gen.random()

    def test_fit_matches_parent_kernels(self, rng, monkeypatch):
        normal = np.asarray(rng.normal(size=(300, 6)), dtype=np.float32)
        # Six distinct rows: level 2 sees at most six residuals for 8 codes.
        few = np.tile(np.asarray(rng.normal(size=(6, 6)), dtype=np.float32), (20, 1))
        for rows, sizes in ((normal, (16, 8, 4)), (few, (4, 8))):
            emb = EmbeddingSet([f"i{k}" for k in range(rows.shape[0])], rows)
            cfg = RqConfig(levels=len(sizes), codebook_sizes=sizes, seed=7)
            got = fit_codebooks(emb, cfg)
            with monkeypatch.context() as patch:
                patch.setattr(rq, "_nearest", parent_nearest)
                patch.setattr(rq, "_kmeanspp_init", parent_kmeanspp_init)
                want = fit_codebooks(emb, cfg)
            assert got.model_hash() == want.model_hash()
            assert got.fit_stats == want.fit_stats
        assert got.effective_sizes[1] < 8

    def test_empty_cluster_repair_matches_parent(self, rng, monkeypatch):
        points = rng.normal(size=(60, 4))
        cents = points[:5].astype(np.float32)
        cents[[1, 3]] = 1e3  # far from every point: both start empty
        assert set(parent_nearest(points, cents)[0].tolist()).isdisjoint({1, 3})
        idx, sq, repaired = rq._assign_with_repair(points, cents, 1)
        assert not np.array_equal(repaired, cents)
        assert np.all(np.bincount(idx, minlength=5) > 0)
        monkeypatch.setattr(rq, "_nearest", parent_nearest)
        want = rq._assign_with_repair(points, cents, 1)
        for a, b in zip((idx, sq, repaired), want):
            assert a.tobytes() == b.tobytes()


class TestResidualTelescoping:
    def test_residual_identity(self, rng):
        # x - decode(encode(x), h) must equal the level-(h+1) input residual.
        for _ in range(3):
            model = random_model(rng, 4, [6, 5, 4, 3], 7)
            x = rng.normal(size=7)
            tokens = encode(model, x)
            residual = np.asarray(x, dtype=np.float64)
            for h in range(1, model.levels + 1):
                residual = residual - model.codebooks[h - 1].centroids[tokens[h - 1]].astype(
                    np.float64
                )
                recon = decode(model, tokens, depth=h)
                assert np.allclose(x - recon, residual, atol=1e-9)

    def test_decode_depth_zero_is_origin(self, rng):
        model = random_model(rng, 2, [3, 3], 4)
        assert np.array_equal(decode(model, (1, 2), depth=0), np.zeros(4))

    def test_decode_batch_matches_single(self, rng):
        model = random_model(rng, 3, [4, 4, 4], 5)
        tokens = np.array([[0, 1, 2], [3, 3, 3]])
        batched = decode_batch(model, tokens)
        for row, toks in zip(batched, tokens):
            assert np.array_equal(row, decode(model, tuple(int(t) for t in toks)))


class TestValidate:
    def test_range_and_arity(self, rng):
        model = random_model(rng, 2, [4, 3], 5)
        validate_sid(model, (3, 2))
        with pytest.raises(RqError):
            validate_sid(model, (4, 0))
        with pytest.raises(RqError):
            validate_sid(model, (0,))
        with pytest.raises(RqError):
            validate_sid(model, (0, 0, 0))
        with pytest.raises(RqError):
            validate_sid(model, (-1, 0))

    @pytest.mark.filterwarnings("error")
    def test_encode_rejects_rows_whose_distances_overflow(self, rng):
        model = random_model(rng, 3, [4, 4, 4], 16)
        fine = rng.normal(size=(2, 16))
        for row in (np.full(16, 1e200), np.full(16, -1e200), rng.normal(size=16) * 1e280):
            with pytest.raises(RqError, match="row 2 is too large"):
                encode_batch(model, np.vstack([fine, row]))
            with pytest.raises(RqError, match="row 0 is too large"):
                encode(model, row)
        for bad in (np.nan, np.inf):
            with pytest.raises(RqError, match="non-finite"):
                encode_batch(model, np.full((1, 16), bad))


class TestFit:
    def test_trace_nonincreasing_and_better_than_random(self, rng):
        points = np.asarray(rng.normal(size=(400, 8)), dtype=np.float32)
        emb = EmbeddingSet([f"i{k}" for k in range(400)], points)
        cfg = RqConfig(levels=2, codebook_sizes=(16, 8), seed=3)
        model = fit_codebooks(emb, cfg)
        for stats in model.fit_stats:
            trace = stats.mse_trace
            assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
        # random-subset codebooks on the same residual stream must be worse
        tokens = encode_batch(model, points.astype(np.float64))
        recon = decode_batch(model, tokens)
        fitted_mse = float(np.mean(np.sum((points - recon) ** 2, axis=1)))
        sub = np.random.default_rng(0).choice(400, size=16, replace=False)
        rand_cents = points[np.sort(sub)].astype(np.float64)
        d = ((points[:, None, :].astype(np.float64) - rand_cents[None]) ** 2).sum(axis=2)
        rand_mse = float(np.mean(d.min(axis=1)))
        assert fitted_mse < rand_mse

    def test_fit_shrinks_on_few_distinct_rows(self):
        rows = np.tile(np.eye(3, dtype=np.float32), (10, 1))
        emb = EmbeddingSet([f"i{k}" for k in range(30)], rows)
        model = fit_codebooks(emb, RqConfig(levels=1, codebook_sizes=(8,), seed=0))
        assert model.effective_sizes == (3,)
        assert model.fit_stats[0].configured_size == 8
        assert model.fit_stats[0].mse_trace[-1] == 0.0

    def test_fit_reproducible(self, rng):
        points = np.asarray(rng.normal(size=(200, 6)), dtype=np.float32)
        emb = EmbeddingSet([f"i{k}" for k in range(200)], points)
        cfg = RqConfig(levels=3, codebook_sizes=(8, 8, 8), seed=11)
        a = fit_codebooks(emb, cfg)
        b = fit_codebooks(emb, cfg)
        assert a.model_hash() == b.model_hash()

    def test_seed_changes_model(self, rng):
        points = np.asarray(rng.normal(size=(200, 6)), dtype=np.float32)
        emb = EmbeddingSet([f"i{k}" for k in range(200)], points)
        a = fit_codebooks(emb, RqConfig(levels=1, codebook_sizes=(8,), seed=1))
        b = fit_codebooks(emb, RqConfig(levels=1, codebook_sizes=(8,), seed=2))
        assert a.model_hash() != b.model_hash()

    def test_workers_do_not_change_fit(self, rng):
        points = np.asarray(rng.normal(size=(5000, 8)), dtype=np.float32)
        emb = EmbeddingSet([f"i{k}" for k in range(5000)], points)
        cfg = RqConfig(levels=2, codebook_sizes=(16, 8), seed=5)
        a = fit_codebooks(emb, cfg, workers=1)
        b = fit_codebooks(emb, cfg, workers=4)
        assert a.model_hash() == b.model_hash()

    def test_normalize_inputs(self, rng):
        points = np.asarray(rng.normal(size=(100, 4)), dtype=np.float32) * 100.0
        emb = EmbeddingSet([f"i{k}" for k in range(100)], points)
        cfg = RqConfig(levels=1, codebook_sizes=(4,), seed=0, normalize_inputs=True)
        model = fit_codebooks(emb, cfg)
        norms = np.linalg.norm(model.codebooks[0].centroids.astype(np.float64), axis=1)
        assert np.all(norms < 1.5)

    def test_config_validation(self):
        with pytest.raises(RqError):
            RqConfig(levels=0, codebook_sizes=())
        with pytest.raises(RqError):
            RqConfig(levels=2, codebook_sizes=(4,))
        with pytest.raises(RqError):
            RqConfig(levels=1, codebook_sizes=(0,))
        with pytest.raises(RqError):
            RqConfig(levels=1, codebook_sizes=(4,), kmeans_rel_tol=-1.0)
        for obj in (
            {"levels": 1, "codebook_sizes": [4], "workers": 2},
            {"codebook_sizes": [4]},
            {"levels": 1, "codebook_sizes": 4},
            {"levels": 1, "codebook_sizes": ["x"]},
            {"levels": 1, "codebook_sizes": [4], "normalize_inputs": "false"},
            {"levels": 1.9, "codebook_sizes": [4]},
            {"levels": 1, "codebook_sizes": [4], "seed": True},
        ):
            with pytest.raises(RqError):
                RqConfig.from_dict(obj)
        cfg = RqConfig.from_dict({"levels": 1, "codebook_sizes": [4], "kmeans_rel_tol": 0})
        assert cfg == RqConfig(levels=1, codebook_sizes=(4,), kmeans_rel_tol=0.0)
        assert isinstance(cfg.kmeans_rel_tol, float)  # the model header keeps JSON types


class TestRendering:
    def test_render(self):
        assert render_sid((239, 112, 7)) == "<a_239><b_112><c_7>"
        assert render_sid((0,)) == "<a_0>"

    def test_parse_inverse(self, rng):
        for _ in range(50):
            tokens = tuple(int(t) for t in rng.integers(0, 500, size=rng.integers(1, 6)))
            assert parse_sid(render_sid(tokens)) == tokens

    def test_parse_rejects_malformed(self):
        for bad in (
            "",
            "<a_1",
            "a_1>",
            "<a_01>",
            "<b_0>",
            "<a_0><c_1>",
            "<a_0><a_1>",
            "<a_0> <b_1>",
            "<a_-1>",
            "<A_0>",
            "junk<a_0>",
            "<a_0>junk",
        ):
            with pytest.raises(RqError):
                parse_sid(bad)

    def test_parse_range_checked_against_model(self, rng):
        model = random_model(rng, 2, [4, 4], 3)
        assert parse_sid("<a_3><b_0>", model) == (3, 0)
        with pytest.raises(RqError):
            parse_sid("<a_4><b_0>", model)
        with pytest.raises(RqError):
            parse_sid("<a_0>", model)

    def test_letters(self):
        assert level_letter(1) == "a"
        assert level_letter(26) == "z"
        with pytest.raises(RqError):
            level_letter(27)


class TestAssignment:
    def test_assign_all_and_roundtrip(self, tmp_path, rng):
        model = random_model(rng, 3, [8, 8, 8], 6)
        rows = np.asarray(rng.normal(size=(50, 6)), dtype=np.float32)
        emb = EmbeddingSet([f"i{k}" for k in range(50)], rows)
        assign = assign_all(model, emb)
        assert len(assign) == 50
        assert assign.model_hash == model.model_hash()
        path = tmp_path / "s.jsonl"
        save_assignment(assign, path)
        back = load_assignment(path)
        assert back.sids == assign.sids
        assert back.model_hash == assign.model_hash

    def test_assignment_file_rejects_token_mismatch(self, tmp_path, rng):
        model = random_model(rng, 1, [4], 3)
        emb = EmbeddingSet(["a"], np.ones((1, 3), dtype=np.float32))
        assign = assign_all(model, emb)
        path = tmp_path / "s.jsonl"
        save_assignment(assign, path)
        lines = path.read_text().splitlines()
        bad_sid = lines[1].replace('"sid": "<a_', '"sid": "<a_9').replace("<a_99", "<a_9")
        meta = json.loads(lines[0])
        for meta_line, rec, match in (
            (lines[0], bad_sid, "line 2"),
            (lines[0], lines[1].replace('"item_id"', '"item"'), "line 2"),
            ("[]", lines[1], "meta line"),
            (lines[0], lines[1].replace('"a"', "5"), "line 2: item_id 5"),
            (json.dumps({**meta, "count": "x"}), lines[1], "count 'x'"),
            (json.dumps({**meta, "count": True}), lines[1], "count True"),
            (json.dumps({**meta, "count": 1.0}), lines[1], "count 1.0"),
            (lines[0], "\udcff" + lines[1], "line 2: invalid UTF-8"),
            *(
                (lines[0], json.dumps({"item_id": "a", "sid": "<a_1><b_0><c_0>", "tokens": tokens}),
                 "line 2: tokens")
                for tokens in ([True, 0, 0], [1.9, 0, 0], ["1", 0, 0])
            ),
        ):
            path.write_text(meta_line + "\n" + rec + "\n", errors="surrogateescape")
            with pytest.raises(RqError, match=match):
                load_assignment(path)
        # Every token must index its level's codebook in the model that
        # produced the assignment: token 5 of a 4-entry level is refused.
        model_path = tmp_path / "m.rq"
        save_model(model, model_path)
        for tokens, match in (
            ([5], "item 'a': token 5 out of range"),
            ([-1], "item 'a': token -1 out of range"),
            ([1, 2], "do not all have 1 tokens"),
        ):
            rec = {"item_id": "a", "sid": render_sid(tokens), "tokens": tokens}
            path.write_text(lines[0] + "\n" + json.dumps(rec) + "\n")
            with pytest.raises(RqError, match=match):
                load_model_and_assignment(model_path, path)
        path.write_text("\n".join(lines[:2]) + "\n")
        assert load_model_and_assignment(model_path, path)[1].sids == assign.sids


class TestModelFile:
    def test_roundtrip_hash_and_bytes(self, tmp_path, rng):
        points = np.asarray(rng.normal(size=(300, 9)), dtype=np.float32)
        emb = EmbeddingSet([f"i{k}" for k in range(300)], points)
        model = fit_codebooks(emb, RqConfig(levels=2, codebook_sizes=(16, 8), seed=4))
        path = tmp_path / "m.rq"
        save_model(model, path)
        back = load_model(path)
        assert back.model_hash() == model.model_hash()
        assert back.effective_sizes == model.effective_sizes
        assert back.dim == model.dim
        for a, b in zip(back.codebooks, model.codebooks):
            assert np.array_equal(a.centroids, b.centroids)
        for a, b in zip(back.fit_stats, model.fit_stats):
            assert a == b
        # reloaded model encodes identically
        xs = rng.normal(size=(40, 9))
        assert np.array_equal(encode_batch(model, xs), encode_batch(back, xs))

    def test_rejects_tampered_centroids(self, tmp_path, rng):
        points = np.asarray(rng.normal(size=(60, 4)), dtype=np.float32)
        emb = EmbeddingSet([f"i{k}" for k in range(60)], points)
        model = fit_codebooks(emb, RqConfig(levels=1, codebook_sizes=(8,), seed=4))
        path = tmp_path / "m.rq"
        save_model(model, path)
        original = path.read_bytes()
        raw = bytearray(original)
        header_end = raw.index(b"\n") + 1
        raw[header_end + 20] ^= 0xFF
        damaged_files = [bytes(raw)]
        for key in ("levels", "fit_stats"):
            header = json.loads(original[:header_end])
            del header[key]
            damaged_files.append(json.dumps(header).encode() + b"\n" + original[header_end:])
        damaged_files.append(b"[]\n" + original[header_end:])
        for damaged in damaged_files:
            path.write_bytes(damaged)
            with pytest.raises(RqError):
                load_model(path)
        # A block header claiming 0xFFFFFFFF x 0xFFFFFFFF floats is refused
        # before any read, citing the absolute offset of its payload.
        claim = struct.pack("<II", 0xFFFFFFFF, 0xFFFFFFFF)
        path.write_bytes(original[: header_end + 8] + claim + original[header_end + 16 :])
        with pytest.raises(RqError, match=f"byte offset {header_end + 16}: header claims"):
            load_model(path)

    def test_rejects_trailing_bytes(self, tmp_path, rng):
        points = np.asarray(rng.normal(size=(60, 4)), dtype=np.float32)
        emb = EmbeddingSet([f"i{k}" for k in range(60)], points)
        model = fit_codebooks(emb, RqConfig(levels=1, codebook_sizes=(8,), seed=4))
        path = tmp_path / "m.rq"
        save_model(model, path)
        with open(path, "ab") as fh:
            fh.write(b"x")
        with pytest.raises(RqError):
            load_model(path)


class TestTrie:
    def test_structure_and_lookup(self):
        assign = assignment_from_sids(
            {"x": (0, 1), "y": (0, 2), "z": (0, 1), "w": (3, 0)}
        )
        trie = build_trie(assign)
        assert trie.depth == 2
        assert trie.n_sids == 3
        assert trie.n_items == 4
        assert (0, 1) in trie
        assert (0, 3) not in trie
        assert trie.items_for((0, 1)) == ("x", "z")
        assert list(trie.iter_sids()) == [
            ((0, 1), ("x", "z")),
            ((0, 2), ("y",)),
            ((3, 0), ("w",)),
        ]
        sids = set(assign.sids.values())
        for s in sids:
            for h in range(trie.depth):
                prefix = s[:h]
                want = sorted({t[h] for t in sids if t[:h] == prefix})
                assert trie.next_tokens(prefix) == tuple(want)
        for not_prefix in [(1,), (0, 3), (0, 1), (0, 1, 0)]:
            assert trie.next_tokens(not_prefix) == ()

    def test_mixed_depth_rejected(self):
        assign = assignment_from_sids({"x": (0, 1), "y": (0,)})
        with pytest.raises(RqError):
            build_trie(assign)

    def test_empty_rejected(self):
        with pytest.raises(RqError):
            build_trie(assignment_from_sids({}))
