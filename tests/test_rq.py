from __future__ import annotations

import dataclasses
import hashlib
import json
import re
import struct
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import assignment_from_sids, encode, random_assignments, random_model, reference_decode_batch, sid_map
from sidforge import rq
from sidforge.datamodel import EmbeddingSet, atomic_open
from sidforge.rq import (
    ASSIGNMENT_FORMAT,
    BLOCK_ELEMENTS,
    RqConfig,
    RqError,
    SidAssignment,
    assign_all,
    build_trie,
    decode,
    decode_batch,
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
    sorted_prefixes,
    validate_sid,
)


def oracle_encode(model, x):
    """Independent exhaustive per-level scan: squared distances via a Python
    loop over centroids, smallest index wins ties."""
    residual = np.asarray(x, dtype=np.float64).copy()
    tokens = []
    for cb in model.codebooks:
        cents = cb.astype(np.float64)
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
        cents = np.array(model.codebooks[0], copy=True)
        cents[2] = cents[0]  # duplicate centroid further down the table
        cents.setflags(write=False)
        model = dataclasses.replace(model, codebooks=(cents,))
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
        k, dim = BLOCK_ELEMENTS + 1, 2
        assert k > BLOCK_ELEMENTS
        model = random_model(rng, 1, [k], dim)
        xs = rng.normal(size=(6, dim))
        got = encode_batch(model, xs)
        for i in range(xs.shape[0]):
            assert (int(got[i, 0]),) == oracle_encode(model, xs[i])[0]

    def test_threads_over_many_blocks_match_exhaustive_scan(self, rng):
        model = random_model(rng, 2, [256, 2], 64)
        xs = rng.normal(size=(3841, 64))
        # Level 1 takes 256 rows a block, so the 3841 rows span 16 blocks.
        assert xs.shape[0] > 15 * (BLOCK_ELEMENTS // 256)
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


def parent_update_centroids(points, idx, k, old):
    """rq._update_centroids before the bincount sums, verbatim."""
    sums = np.zeros((k, points.shape[1]), dtype=np.float64)
    np.add.at(sums, idx, points)
    counts = np.bincount(idx, minlength=k).astype(np.float64)
    new = old.astype(np.float64)
    filled = counts > 0
    new[filled] = sums[filled] / counts[filled, None]
    return new.astype(np.float32)


def parent_render_sid(s):
    """rq.render_sid before the per-depth template, verbatim."""
    if not s:
        raise RqError("cannot render an empty SID")
    return "".join(f"<{level_letter(h + 1)}_{int(t)}>" for h, t in enumerate(s))


def parent_save_assignment(assign, path):
    """rq.save_assignment before the per-line text template, verbatim but
    for rendering through parent_render_sid and reading `sid_map`."""
    sids = sid_map(assign)
    with atomic_open(path, encoding="utf-8", newline="\n") as fh:
        meta = {"format": ASSIGNMENT_FORMAT, "model_hash": assign.model_hash, "count": len(sids)}
        fh.write(json.dumps(meta, sort_keys=True) + "\n")
        for item_id, s in sids.items():
            fh.write(
                json.dumps(
                    {"item_id": item_id, "sid": parent_render_sid(s), "tokens": list(s)},
                    sort_keys=True,
                )
                + "\n"
            )


def reference_build_trie(assign):
    """rq.build_trie before the token matrix, verbatim but for reading the
    assignment's tuple view, `sid_map`."""

    def frozen_i64(values):
        out = np.array(values, dtype=np.int64)
        out.setflags(write=False)
        return out

    if len(sid_map(assign)) == 0:
        raise RqError("cannot build a trie from an empty assignment")
    leaves = frozenset(tuple(map(int, s)) for s in sid_map(assign).values())
    depth = len(next(iter(leaves)))
    if any(len(s) != depth for s in leaves):
        raise RqError("assignment mixes SID lengths")
    sids = np.array(sorted(leaves), dtype=np.int64).reshape(len(leaves), depth)
    # starts[r]: row r of the sorted SIDs begins a new prefix of the current length.
    starts = np.zeros(len(sids), dtype=bool)
    starts[0] = True
    levels = []
    for h in range(depth):
        parent = np.cumsum(starts) - 1
        starts[1:] |= sids[1:, h] != sids[:-1, h]
        n_children = np.bincount(parent[starts], minlength=int(parent[-1]) + 1)
        levels.append((frozen_i64(np.concatenate(([0], np.cumsum(n_children)))),
                       frozen_i64(sids[starts, h])))
    return rq.SidTrie(leaves=leaves, levels=tuple(levels))


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
        monkeypatch.setattr(rq, "BLOCK_ELEMENTS", budget)
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
        monkeypatch.setattr(rq, "BLOCK_ELEMENTS", 16)
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
        # Row norms from 1e-3 to 1e3: the one margin per pick, that of the
        # largest row, is loosest for the smallest rows.
        for d in (3, 16):
            wide = rng.normal(size=(300, d))
            wide *= 10.0 ** rng.uniform(-3, 3, size=(300, 1)) / np.linalg.norm(wide, axis=1)[:, None]
            cases.append((wide, 60))
        for seed, (points, k) in enumerate(cases):
            got_gen, want_gen = np.random.default_rng(seed), np.random.default_rng(seed)
            got = rq._kmeanspp_init(points, k, got_gen)
            want = parent_kmeanspp_init(points, k, want_gen)
            assert got.tobytes() == want.tobytes()
            assert got_gen.random() == want_gen.random()

    def test_update_centroids_matches_parent(self, rng):
        for _ in range(60):
            n, d, k = (int(v) for v in rng.integers((3, 1, 1), (200, 12, 30)))
            points = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
            points[rng.random(size=(n, d)) < 0.2] = -0.0
            points[: n // 4] = -0.0  # rows of -0.0 only
            points = points[rng.integers(n, size=n)]  # repeated rows
            # Clusters drawn from a subset of the k: the others stay empty.
            idx = rng.choice(rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False), size=n)
            # Rows that cancel, so that the sum depends on the order it is taken in.
            points[:3] = np.array([1e17, -1e17, 1.0])[:, None]
            idx[:3] = idx[0]
            old = rng.normal(size=(k, d)).astype(np.float32)
            got = rq._update_centroids(points, idx, k, old)
            assert got.tobytes() == parent_update_centroids(points, idx, k, old).tobytes()
        assert np.bincount(idx, minlength=k).min() == 0

    def test_seeding_stop_matches_the_distinct_count_cap(self, rng):
        """Uncapped seeding against seeding capped at the distinct row count,
        as the fit did before the zero-mass stop alone shrank a level."""
        cases = []
        for n_distinct in (1, 3, 7):
            base = rng.normal(size=(n_distinct, 5))
            dups = base[rng.integers(n_distinct, size=40)]
            cases += [(dups, k) for k in (n_distinct - 1 or 1, n_distinct, n_distinct + 5, 60)]
        cases.append((np.tile(rng.normal(size=(1, 4)), (25, 1)), 9))  # all rows identical
        cases.append((rng.normal(size=(6, 3)), 10))  # k above n, all rows distinct
        cases.append((rng.normal(size=(30, 4)), 9))  # k below the distinct count
        # Squares that underflow to 0 stop both versions at the same pick.
        tiny = rng.normal(size=(12, 3)) * 1e-162
        cases.append((tiny[rng.integers(12, size=30)], 20))
        for seed, (points, k_conf) in enumerate(cases):
            distinct = np.unique(points, axis=0).shape[0]
            gen, gen2 = np.random.default_rng(seed), np.random.default_rng(seed)
            got = rq._kmeanspp_init(points, k_conf, gen)
            want = rq._kmeanspp_init(points, min(k_conf, distinct), gen2)
            assert got.tobytes() == want.tobytes()
            assert gen.random() == gen2.random()
        assert got.shape[0] < distinct

    def test_fit_shrinks_to_the_distinct_residual_count(self, rng):
        rows = np.tile(np.asarray(rng.normal(size=(6, 6)), dtype=np.float32), (20, 1))
        emb = EmbeddingSet([f"i{k}" for k in range(rows.shape[0])], rows)
        model = fit_codebooks(emb, RqConfig(levels=2, codebook_sizes=(4, 8), seed=7))
        first = model.codebooks[0].astype(np.float64)
        residual = rows.astype(np.float64) - first[encode_batch(model, rows)[:, 0]]
        distinct = np.unique(residual, axis=0).shape[0]
        assert distinct < 8
        assert model.fit_stats[1].configured_size == 8
        assert model.fit_stats[1].effective_size == len(model.codebooks[1]) == distinct

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
                residual = residual - model.codebooks[h - 1][tokens[h - 1]].astype(np.float64)
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

    def test_decode_batch_matches_parent_on_all_rows_and_on_some(self, rng):
        model = random_model(rng, 3, [5, 4, 3], 6)
        tokens = rng.integers(0, (5, 4, 3), size=(40, 3))
        rows = np.sort(rng.choice(40, size=15, replace=False))
        for depth in (None, 0, 1, 3):
            want = reference_decode_batch(model, tokens, depth)
            for got, expected in ((decode_batch(model, tokens, depth), want),
                                  (decode_batch(model, tokens, depth, rows=rows), want[rows])):
                assert got.dtype == np.float64
                assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_decode_batch_of_some_rows_checks_every_row(self, rng):
        model = random_model(rng, 2, [4, 3], 5)
        tokens = np.zeros((6, 2), dtype=np.int64)
        tokens[4, 1] = 3
        with pytest.raises(RqError, match=re.escape("token 3 out of range [0, 3) at level 2 (row 4)")):
            decode_batch(model, tokens, rows=[0, 1])
        with pytest.raises(RqError, match=re.escape("expected shape (n, 2), got (6, 3)")):
            decode_batch(model, np.zeros((6, 3), dtype=np.int64), rows=[0])


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

    @staticmethod
    def assert_fit_tokens_are_the_encoding(rows, cfg, workers=1):
        emb = EmbeddingSet([f"i{k}" for k in range(rows.shape[0])], rows)
        model = fit_codebooks(emb, cfg, workers=workers)
        want = encode_batch(model, rows, workers=workers)
        assert model.fit_tokens.shape == want.shape
        assert model.fit_tokens.dtype == want.dtype
        assert model.fit_tokens.tobytes() == want.tobytes()
        return model

    def test_fit_tokens_equal_encode_batch(self, rng, monkeypatch):
        normal = np.asarray(rng.normal(size=(300, 6)), dtype=np.float32)
        few = np.tile(np.asarray(rng.normal(size=(6, 6)), dtype=np.float32), (20, 1))
        model = self.assert_fit_tokens_are_the_encoding(few, RqConfig(levels=2, codebook_sizes=(4, 8)))
        assert model.effective_sizes[1] < 8  # a level that shrank
        self.assert_fit_tokens_are_the_encoding(
            normal * 100.0, RqConfig(levels=3, codebook_sizes=(16, 8, 4), normalize_inputs=True))
        self.assert_fit_tokens_are_the_encoding(
            normal, RqConfig(levels=2, codebook_sizes=(16, 8), kmeans_max_iters=0))
        # Rows that span several kernel blocks, on one thread and on three.
        with monkeypatch.context() as patch:
            patch.setattr(rq, "BLOCK_ELEMENTS", 64)
            for workers in (1, 3):
                self.assert_fit_tokens_are_the_encoding(
                    normal, RqConfig(levels=2, codebook_sizes=(16, 8), seed=3), workers)

    def test_fit_tokens_after_an_empty_cluster_repair(self, rng, monkeypatch):
        rows = np.asarray(rng.normal(size=(60, 4)), dtype=np.float32)
        init = rows[:5].copy()
        init[[1, 3]] = 1e3  # far from every row: both start empty
        assert set(parent_nearest(rows.astype(np.float64), init)[0].tolist()).isdisjoint({1, 3})
        monkeypatch.setattr(rq, "_kmeanspp_init", lambda points, k, gen: init.copy())
        for iters in (0, 10):
            cfg = RqConfig(levels=1, codebook_sizes=(5,), kmeans_max_iters=iters)
            model = self.assert_fit_tokens_are_the_encoding(rows, cfg)
            assert not np.any(model.codebooks[0] == np.float32(1e3))

    def test_fit_tokens_after_an_mse_rise(self, rng, monkeypatch):
        rows = np.asarray(rng.normal(size=(200, 6)), dtype=np.float32)
        cfg = RqConfig(levels=2, codebook_sizes=(8, 4), kmeans_max_iters=20, kmeans_rel_tol=0.0)
        calls = []

        def shifted_second_update(points, idx, k, old):
            calls.append(k)
            new = parent_update_centroids(points, idx, k, old)
            return new + np.float32(10.0) if len(calls) == 2 else new

        monkeypatch.setattr(rq, "_update_centroids", shifted_second_update)
        model = self.assert_fit_tokens_are_the_encoding(rows, cfg)
        # Level 1 stopped on the rise, keeping the first update's state.
        assert len(model.fit_stats[0].mse_trace) == 2
        monkeypatch.undo()
        emb = EmbeddingSet([f"i{k}" for k in range(200)], rows)
        assert len(fit_codebooks(emb, cfg).fit_stats[0].mse_trace) > 2

    def test_fit_tokens_stay_out_of_the_file_repr_and_equality(self, tmp_path, rng):
        rows = np.asarray(rng.normal(size=(100, 5)), dtype=np.float32)
        emb = EmbeddingSet([f"i{k}" for k in range(100)], rows)
        model = fit_codebooks(emb, RqConfig(levels=2, codebook_sizes=(8, 4)))
        assert not model.fit_tokens.flags.writeable
        with pytest.raises(ValueError):
            model.fit_tokens[0, 0] = 1
        assert "fit_tokens" not in repr(model)
        bare = dataclasses.replace(model, fit_tokens=None)
        assert bare.model_hash() == model.model_hash()
        assert (bare.config, bare.fit_stats) == (model.config, model.fit_stats)
        a, b = tmp_path / "a.rq", tmp_path / "b.rq"
        save_model(model, a)
        save_model(bare, b)
        assert a.read_bytes() == b.read_bytes()
        assert load_model(a).fit_tokens is None

    def test_models_compare_by_identity(self, rng):
        rows = np.asarray(rng.normal(size=(100, 5)), dtype=np.float32)
        model = fit_codebooks(EmbeddingSet([f"i{k}" for k in range(100)], rows),
                              RqConfig(levels=2, codebook_sizes=(8, 4)))
        twin = dataclasses.replace(model, codebooks=tuple(cb.copy() for cb in model.codebooks))
        assert twin.model_hash() == model.model_hash()
        assert twin != model and not twin == model
        assert model == model
        assert len({model, twin, model}) == 2

    def test_normalize_inputs(self, rng):
        points = np.asarray(rng.normal(size=(100, 4)), dtype=np.float32) * 100.0
        emb = EmbeddingSet([f"i{k}" for k in range(100)], points)
        cfg = RqConfig(levels=1, codebook_sizes=(4,), seed=0, normalize_inputs=True)
        model = fit_codebooks(emb, cfg)
        norms = np.linalg.norm(model.codebooks[0].astype(np.float64), axis=1)
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
        with pytest.raises(RqError, match=re.escape("token 4 out of range [0, 4) at level 1 (row 0)")):
            parse_sid("<a_4><b_0>", model)
        with pytest.raises(RqError):
            parse_sid("<a_0>", model)
        # A token past 64 bits is compared exactly and named as written.
        with pytest.raises(RqError, match=re.escape(f"token {2**70} out of range [0, 4) at level 2")):
            parse_sid(f"<a_0><b_{2**70}>", model)

    def test_render_matches_parent(self, rng):
        for depth in range(1, 27):
            tokens = rng.integers(0, 10 ** int(rng.integers(1, 10)), size=depth)
            tokens[rng.random(size=depth) < 0.2] = 0
            for s in (tuple(tokens.tolist()), tuple(tokens), tuple(tokens.astype(np.int32)), list(tokens)):
                assert render_sid(s) == parent_render_sid(s)
        for s, match in (((), "empty SID"), ((0,) * 27, "at most 26 levels")):
            for render in (render_sid, parent_render_sid):
                with pytest.raises(RqError, match=match):
                    render(s)

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
        assert assign.row_of == {f"i{k}": k for k in range(50)}
        assert not assign.tokens.flags.writeable and assign.tokens.dtype == np.int64
        with pytest.raises(RqError, match=r"50 item ids for a token matrix of shape \(49, 3\)"):
            SidAssignment(emb.item_ids, encode_batch(model, rows[:49]), "h")
        path = tmp_path / "s.jsonl"
        save_assignment(assign, path)
        back = load_assignment(path)
        assert sid_map(back) == sid_map(assign)
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
            (json.dumps({**meta, "count": "x"}), lines[1],
             re.escape("field 'count' must be int | None, not 'x'")),
            (json.dumps({**meta, "count": True}), lines[1],
             re.escape("field 'count' must be int | None, not True")),
            (json.dumps({**meta, "count": 1.0}), lines[1],
             re.escape("field 'count' must be int | None, not 1.0")),
            (lines[0], "\udcff" + lines[1], "line 2: invalid UTF-8"),
            *(
                (lines[0], json.dumps({"item_id": "a", "sid": "<a_1><b_0><c_0>", "tokens": tokens}),
                 "line 2: tokens")
                for tokens in ([True, 0, 0], [1.9, 0, 0], ["1", 0, 0])
            ),
            (lines[0], json.dumps({"item_id": "a", "sid": "", "tokens": []}),
             "line 2: cannot render an empty SID"),
            (lines[0], json.dumps({"item_id": "a", "sid": "<a_0>", "tokens": [0] * 27}),
             "line 2: token rendering supports at most 26 levels"),
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
            ([1, 2], "SIDs have 2 tokens, not the model's 1"),
        ):
            rec = {"item_id": "a", "sid": render_sid(tokens), "tokens": tokens}
            path.write_text(lines[0] + "\n" + json.dumps(rec) + "\n")
            with pytest.raises(RqError, match=match):
                load_model_and_assignment(model_path, path)
        path.write_text("\n".join(lines[:2]) + "\n")
        assert sid_map(load_model_and_assignment(model_path, path)[1]) == sid_map(assign)


    def test_save_matches_parent(self, tmp_path, rng):
        ids = ['q"uote', "back\\slash", "ctl\x00\x01\x1f\x7f", "tab\tnl\nret\r", "na\u00efve",
               "\u65e5\u672c", "emoji\U0001f600", "line\u2028sep", "</script>", "", "lone\udcff",
               "\\u0041", "plain-42"]
        for depth in (1, 3, 26):
            tokens = rng.integers(0, 10 ** 6, size=(len(ids), depth)).tolist()
            assign = SidAssignment(ids, tokens, model_hash='h"\\')
            got, want = tmp_path / "got.jsonl", tmp_path / "want.jsonl"
            save_assignment(assign, got)
            parent_save_assignment(assign, want)
            assert got.read_bytes() == want.read_bytes()
            back = load_assignment(got)
            assert back.item_ids == assign.item_ids and back.model_hash == assign.model_hash
            assert np.array_equal(back.tokens, assign.tokens)


class TestSidAssignment:
    def test_sorted_prefixes_match_a_python_sort(self, rng):
        for depth in (1, 2, 4):
            for n in (1, 2, 50):
                for dtype in (np.int64, np.uint8):
                    tokens = rng.integers(0, 3, size=(n, depth)).astype(dtype)
                    rows, starts = sorted_prefixes(tokens)
                    want = sorted(map(tuple, tokens.tolist()))
                    assert rows.tolist() == [list(s) for s in want] and rows.dtype == dtype
                    assert len(starts) == depth + 1
                    for p, firsts in enumerate(starts):
                        expect = [i for i in range(n) if i == 0 or want[i][:p] != want[i - 1][:p]]
                        assert firsts.tolist() == expect

    def test_matrix_checks(self):
        ids = ("a", "b")
        for tokens in ([[0, 1], [0]], [0, 1], np.zeros((2, 2, 1)), np.zeros((3, 2)),
                       np.zeros((2, 0)), [["x", 1], [0, 1]], [[2**64, 0], [0, 0]]):
            with pytest.raises(RqError, match="2 item ids for a token matrix|not an integer matrix"):
                SidAssignment(ids, tokens, "h")
        assert SidAssignment((), np.empty((0, 0), dtype=np.int64), "h").tokens.shape == (0, 0)

    def test_repeated_id_names_the_first_repeat(self):
        with pytest.raises(RqError, match="^duplicate item_id 'a'$"):
            SidAssignment(["a", "a"], [[0], [1]], "h")
        with pytest.raises(RqError, match="^duplicate item_id 'b'$"):
            SidAssignment(["b", "c", "d", "c", "b"], np.zeros((5, 2)), "h")

    def test_tokens_read_only_and_copied_only_when_writeable(self, rng):
        tokens = np.array([[3, 1], [0, 2]])
        assign = SidAssignment(["a", "b"], tokens, "h")
        tokens[0, 0] = 9
        assert assign.tokens.tolist() == [[3, 1], [0, 2]] and not assign.tokens.flags.writeable
        assert assign.item_ids == ("a", "b")
        with pytest.raises(ValueError):
            assign.tokens[0, 0] = 9
        assert SidAssignment(("a", "b"), assign.tokens, "h").tokens is assign.tokens
        points = np.asarray(rng.normal(size=(40, 3)), dtype=np.float32)
        model = fit_codebooks(EmbeddingSet([f"i{k}" for k in range(40)], points),
                              RqConfig(levels=2, codebook_sizes=(4, 4)))
        assert SidAssignment(range(40), model.fit_tokens, "h").tokens is model.fit_tokens

    def test_row_map_built_on_first_lookup(self):
        assign = assignment_from_sids({"a": (3, 1), "b": (0, 2)})
        assert len(assign) == 2 and "row_of" not in vars(assign)
        assert assign.tokens[assign.row_of["b"]].tolist() == [0, 2] and "c" not in assign.row_of
        assert vars(assign)["row_of"] == {"a": 0, "b": 1}
        assert assign.row_of is assign.row_of

    def test_load_names_the_line_of_a_ragged_record_or_a_wide_token(self, tmp_path):
        path = tmp_path / "s.jsonl"
        meta = json.dumps({"format": ASSIGNMENT_FORMAT, "model_hash": "h", "count": 2})

        def record(item_id, tokens):
            return json.dumps({"item_id": item_id, "sid": render_sid(tokens), "tokens": tokens})

        for second, match in (
            (record("b", [1]), "line 3: 1 tokens, where the first record has 2"),
            (record("b", [1, 2, 3]), "line 3: 3 tokens, where the first record has 2"),
            (record("b", [2**63, 0]), r"line 3: tokens \[9223372036854775808, 0\] are not a list of 64-bit integers"),
            (record("b", [0, -2**63 - 1]), "line 3: tokens .* are not a list of 64-bit integers"),
        ):
            path.write_text("\n".join((meta, record("a", [0, 1]), second)) + "\n")
            with pytest.raises(RqError, match=match):
                load_assignment(path)
        path.write_text("\n".join((meta, record("a", [0, 1]), record("b", [2**63 - 1, -2**63]))) + "\n")
        assert load_assignment(path).tokens.tolist() == [[0, 1], [2**63 - 1, -2**63]]


    def test_first_bad_token_named_in_level_order(self, tmp_path, rng):
        model = random_model(rng, 2, [4, 3], 2)
        model_path, path = tmp_path / "m.rq", tmp_path / "s.jsonl"
        save_model(model, model_path)
        save_assignment(SidAssignment(["a", "b", "c"], [[0, 7], [9, 0], [-2, 5]], model.model_hash()), path)
        with pytest.raises(RqError, match=re.escape("item 'b': token 9 out of range [0, 4) at level 1")):
            load_model_and_assignment(model_path, path)


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
            assert np.array_equal(a, b)
        for a, b in zip(back.fit_stats, model.fit_stats):
            assert a == b
        # reloaded model encodes identically
        xs = rng.normal(size=(40, 9))
        assert np.array_equal(encode_batch(model, xs), encode_batch(back, xs))

    def test_each_model_hashed_once(self, tmp_path, rng, monkeypatch):
        """Encoding, saving and loading back hash the fitted model once and
        the loaded one once: the digest is kept on the frozen model."""
        model = random_model(rng, 2, [4, 3], 5)
        emb = EmbeddingSet([f"i{k}" for k in range(20)], rng.normal(size=(20, 5)))
        hashed = []
        sha256 = rq.hashlib.sha256
        monkeypatch.setattr(rq.hashlib, "sha256", lambda: hashed.append(1) or sha256())
        assign = assign_all(model, emb)
        save_model(model, tmp_path / "m.rq")
        save_assignment(assign, tmp_path / "s.jsonl")
        assert len(hashed) == 1 and model.model_hash() == assign.model_hash
        back, _ = load_model_and_assignment(tmp_path / "m.rq", tmp_path / "s.jsonl")
        assert len(hashed) == 2 and back.model_hash() == model.model_hash()
        monkeypatch.undo()
        digest = hashlib.sha256(b"".join(cb.astype("<f4").tobytes() for cb in model.codebooks))
        assert model.model_hash() == digest.hexdigest()

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

    @pytest.mark.parametrize("edit", [
        lambda stats: stats.pop(),
        lambda stats: stats[1].update(level=9),
        lambda stats: stats[0].update(effective_size=99),
        lambda stats: stats[1].update(configured_size=77),
        lambda stats: stats[0].update(mse_trace=[]),
    ], ids=["a level dropped", "level 9", "effective size 99", "configured size 77", "empty mse_trace"])
    def test_rejects_fit_stats_that_do_not_match_the_codebooks(self, tmp_path, rng, edit):
        path = tmp_path / "m.rq"
        save_model(random_model(rng, 2, [4, 3], 2), path)
        header, blocks = path.read_bytes().split(b"\n", 1)
        header = json.loads(header)
        edit(header["fit_stats"])
        path.write_bytes(json.dumps(header).encode() + b"\n" + blocks)
        with pytest.raises(RqError, match="fit_stats must hold, per level from 1"):
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
        assert (0, 1) in trie and [0, 1] in trie
        assert (0, 3) not in trie
        assert trie.leaves == {(0, 1), (0, 2), (3, 0)}
        # The root's next tokens are 0 and 3; node (0,) has 1 and 2, node (3,) has 0.
        assert [[a.tolist() for a in level] for level in trie.levels] == [
            [[0, 2], [0, 3]], [[0, 2, 3], [1, 2, 0]]]

    def test_matches_reference_build_trie(self):
        for assign in random_assignments(7):
            got, want = build_trie(assign), reference_build_trie(assign)
            assert got.leaves == want.leaves
            assert all(type(t) is int for s in got.leaves for t in s)
            assert got.depth == want.depth == assign.tokens.shape[1]
            for (indptr, tokens), (want_indptr, want_tokens) in zip(got.levels, want.levels):
                for array, expect in ((indptr, want_indptr), (tokens, want_tokens)):
                    assert array.dtype == np.int64 and not array.flags.writeable
                    assert np.array_equal(array, expect)

    def test_mixed_depth_rejected(self):
        with pytest.raises(RqError, match="not an integer matrix"):
            assignment_from_sids({"x": (0, 1), "y": (0,)})

    def test_empty_rejected(self):
        with pytest.raises(RqError):
            build_trie(assignment_from_sids({}))
