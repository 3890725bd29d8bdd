from __future__ import annotations

import dataclasses
import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import (
    assignment_from_sids,
    random_assignments,
    random_model,
    reference_decode_batch,
    report_of,
    sid_map,
    sized_model,
)
from sidforge import diagnostics
from sidforge import rng as sidforge_rng
from sidforge.datamodel import EmbeddingSet
from sidforge.diagnostics import (
    DiagnosticsError,
    ReconstructionCurve,
    active_codes_per_level,
    build_report,
    codebook_utilization,
    collision_rate,
    prefix_entropy_profile,
    reconstruction_curve,
    render_table,
    report_to_dict,
    semantic_probe,
)
from sidforge.rq import LevelFitStats, RqConfig, RqError, RqModel, SidAssignment, assign_all


def one_level_model(centroids):
    cents = np.ascontiguousarray(np.asarray(centroids, dtype=np.float32))
    cents.setflags(write=False)
    k = len(cents)
    return RqModel(
        config=RqConfig(levels=1, codebook_sizes=(k,)),
        codebooks=(cents,),
        fit_stats=(
            LevelFitStats(level=1, configured_size=k, effective_size=k, mse_trace=(0.0,)),
        ),
    )


def two_level_model(coarse, fine):
    mats = []
    for mat in (coarse, fine):
        mat = np.ascontiguousarray(np.asarray(mat, dtype=np.float32))
        mat.setflags(write=False)
        mats.append(mat)
    sizes = (mats[0].shape[0], mats[1].shape[0])
    return RqModel(
        config=RqConfig(levels=2, codebook_sizes=sizes),
        codebooks=tuple(mats),
        fit_stats=tuple(
            LevelFitStats(level=i + 1, configured_size=k, effective_size=k, mse_trace=(0.0,))
            for i, k in enumerate(sizes)
        ),
    )


def reference_collision_rate(assign):
    """diagnostics.collision_rate before the sorted prefix pass, verbatim but
    for reading `sid_map`."""
    sids = sid_map(assign)
    if len(sids) == 0:
        raise DiagnosticsError("collision_rate needs a nonempty assignment")
    counts = Counter(sids.values())
    shared = sum(c for c in counts.values() if c > 1)
    return shared / len(sids)


def reference_prefix_entropy_profile(assign):
    """diagnostics.prefix_entropy_profile before the sorted prefix pass,
    verbatim but for reading `sid_map`."""
    sids = sid_map(assign)
    if len(sids) == 0:
        raise DiagnosticsError("prefix_entropy needs a nonempty assignment")
    depth = len(next(iter(sids.values())))
    n = len(sids)
    profile = []
    for p in range(1, depth + 1):
        counts = Counter(s[:p] for s in sids.values())
        entropy = 0.0
        for key in sorted(counts):
            q = counts[key] / n
            entropy -= q * math.log2(q)
        profile.append(entropy)
    return tuple(profile)


def reference_active_codes_per_level(assign, model):
    """diagnostics.active_codes_per_level before the token matrix, verbatim
    but for reading `sid_map`."""
    used: list[set[int]] = [set() for _ in range(model.levels)]
    for s in sid_map(assign).values():
        if len(s) != model.levels:
            raise DiagnosticsError("assignment SID length does not match the model")
        for level, token in enumerate(s):
            if not 0 <= int(token) < len(model.codebooks[level]):
                raise DiagnosticsError(
                    f"token {token} out of range at level {level + 1}"
                )
            used[level].add(int(token))
    return tuple(len(u) for u in used)


class TestPrefixCountsMatchReference:
    """The sorted-prefix pass against the Counter and set loops, bit for bit."""

    def test_collision_rate(self):
        for assign in random_assignments(11):
            assert collision_rate(assign) == reference_collision_rate(assign)

    def test_prefix_entropy_profile(self):
        for assign in random_assignments(12):
            got, want = prefix_entropy_profile(assign), reference_prefix_entropy_profile(assign)
            assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_active_codes_and_distinct_count(self):
        for assign in random_assignments(13):
            model = sized_model((assign.tokens.max(axis=0) + 1).tolist())
            got = active_codes_per_level(assign, model)
            assert got == reference_active_codes_per_level(assign, model)
            assert all(type(count) is int for count in got)
            report = build_report(assign, model)
            assert report.n_distinct_sids == len(set(sid_map(assign).values()))
            assert report.n_items == len(assign)

    def test_active_codes_name_the_bad_token(self):
        model = sized_model((4, 3))
        for sids, match in (({"a": (0, 1), "b": (4, 0)}, "item 'b': token 4 out of range [0, 4) at level 1 (row 1)"),
                            # level order: b's level-1 token comes before a's level-2 token
                            ({"a": (0, -1), "b": (5, 0)}, "item 'b': token 5 out of range [0, 4) at level 1 (row 1)"),
                            ({"a": (0, -1), "b": (3, 0)}, "item 'a': token -1 out of range [0, 3) at level 2 (row 0)"),
                            ({"a": (0, 1, 0)}, "SID length does not match")):
            with pytest.raises(DiagnosticsError, match=re.escape(match)):
                active_codes_per_level(assignment_from_sids(sids), model)


class TestCollision:
    def test_all_distinct(self):
        assign = assignment_from_sids({"a": (0,), "b": (1,), "c": (2,)})
        assert collision_rate(assign) == 0.0
        assert report_of(assign).unique_ratio == 1.0

    def test_all_identical(self):
        assign = assignment_from_sids({"a": (7,), "b": (7,), "c": (7,)})
        assert collision_rate(assign) == 1.0
        assert report_of(assign).unique_ratio == 0.0

    def test_hand_case(self):
        # two of four items share a SID -> half the items collide
        assign = assignment_from_sids({"a": (0, 1), "b": (0, 1), "c": (2, 0), "d": (3, 3)})
        assert collision_rate(assign) == 0.5
        assert report_of(assign).unique_ratio == 0.5

    def test_sum_is_exactly_one(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 40))
            sids = {f"i{k}": (int(rng.integers(0, 6)),) for k in range(n)}
            assign = assignment_from_sids(sids)
            assert collision_rate(assign) + report_of(assign).unique_ratio == 1.0

    def test_empty_rejected(self):
        with pytest.raises(DiagnosticsError):
            collision_rate(assignment_from_sids({}))


class TestUtilization:
    def test_counts_against_configured_sizes(self, rng):
        model = random_model(rng, 2, [4, 8], 3)
        assign = assignment_from_sids(
            {"a": (0, 0), "b": (1, 0), "c": (1, 1)}, model_hash=model.model_hash()
        )
        assert active_codes_per_level(assign, model) == (2, 2)
        assert codebook_utilization(assign, model) == (2 / 4 + 2 / 8) / 2

    def test_full_utilization(self, rng):
        model = random_model(rng, 1, [2], 3)
        assign = assignment_from_sids({"a": (0,), "b": (1,)}, model_hash=model.model_hash())
        assert codebook_utilization(assign, model) == 1.0

    def test_shrunk_capacity_reads_as_unused(self, rng):
        # the model kept 2 of 4 configured codes; utilization is over 4
        model = random_model(rng, 1, [2], 3)
        object.__setattr__(model.config, "codebook_sizes", (4,))
        assign = assignment_from_sids({"a": (0,), "b": (1,)}, model_hash=model.model_hash())
        assert codebook_utilization(assign, model) == 0.5

    def test_out_of_range_token_rejected(self, rng):
        model = random_model(rng, 1, [2], 3)
        assign = assignment_from_sids({"a": (5,)})
        with pytest.raises(DiagnosticsError):
            active_codes_per_level(assign, model)


class TestPrefixEntropy:
    def test_uniform_grid(self):
        assign = assignment_from_sids(
            {"a": (0, 0), "b": (0, 1), "c": (1, 0), "d": (1, 1)}
        )
        profile = prefix_entropy_profile(assign)
        assert profile == pytest.approx((1.0, 2.0))
        assert report_of(assign).prefix_entropy == pytest.approx(1.5)

    def test_degenerate_assignment(self):
        assign = assignment_from_sids({"a": (0, 0), "b": (0, 0)})
        assert report_of(assign).prefix_entropy == 0.0

    def test_skewed_distribution(self):
        # 3 items at prefix (0,), 1 at (1,): H = -(0.75 log 0.75 + 0.25 log 0.25)
        assign = assignment_from_sids({"a": (0,), "b": (0,), "c": (0,), "d": (1,)})
        want = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        assert report_of(assign).prefix_entropy == pytest.approx(want)


class TestReconstructionCurve:
    def test_perfect_codes_give_unit_similarity(self, rng):
        # Coarse level at scale 100, fine level at scale 0.1, so the greedy
        # encoder provably recovers the generating tokens.
        coarse = np.asarray(rng.normal(size=(4, 5)) * 100.0, dtype=np.float32)
        fine = np.asarray(rng.normal(size=(3, 5)) * 0.1, dtype=np.float32)
        model = two_level_model(coarse, fine)
        tokens = np.array([[i % 4, (i * 2) % 3] for i in range(12)])
        rows = np.stack(
            [
                coarse[a].astype(np.float64) + fine[b].astype(np.float64)
                for a, b in tokens
            ]
        )
        emb = EmbeddingSet([f"i{k}" for k in range(12)], rows.astype(np.float32))
        curve = reconstruction_curve(model, emb, assign_all(model, emb))
        assert curve.sims[2] == pytest.approx(1.0, abs=1e-6)
        assert curve.sims[1] <= curve.sims[2]
        assert curve.n_items == 12

    def test_zero_norm_originals_excluded(self, rng):
        model = random_model(rng, 1, [4], 3)
        rows = np.vstack([np.zeros(3), rng.normal(size=(4, 3))]).astype(np.float32)
        emb = EmbeddingSet([f"i{k}" for k in range(5)], rows)
        curve = reconstruction_curve(model, emb, assign_all(model, emb))
        assert curve.n_zero_norm_originals == 1
        assert curve.n_items == 5

    def test_h_max_validated(self, rng):
        model = random_model(rng, 2, [4, 4], 3)
        emb = EmbeddingSet(["a"], np.ones((1, 3), dtype=np.float32))
        with pytest.raises(DiagnosticsError):
            reconstruction_curve(model, emb, assign_all(model, emb), h_max=3)

    def test_id_missing_from_assignment_rejected(self, rng):
        model = random_model(rng, 1, [4], 3)
        emb = EmbeddingSet(["a", "b"], np.ones((2, 3), dtype=np.float32))
        assign = assignment_from_sids({"a": (0,)}, model_hash=model.model_hash())
        with pytest.raises(DiagnosticsError, match="no SID"):
            reconstruction_curve(model, emb, assign)

    def test_monotone_on_fitted_like_data(self, rng):
        model = random_model(rng, 3, [8, 8, 8], 6)
        rows = np.asarray(rng.normal(size=(300, 6)), dtype=np.float32)
        emb = EmbeddingSet([f"i{k}" for k in range(300)], rows)
        curve = reconstruction_curve(model, emb, assign_all(model, emb))
        assert len(curve.sims) == 3


def reference_reconstruction_curve(model, emb, assign, h_max=None):
    """diagnostics.reconstruction_curve before the row blocks, verbatim."""
    if h_max is None:
        h_max = model.levels
    if not 1 <= h_max <= model.levels:
        raise DiagnosticsError(f"h_max {h_max} out of range [1, {model.levels}]")
    if emb.count == 0:
        raise DiagnosticsError("reconstruction_curve needs a nonempty embedding set")
    row_of = dict(zip(assign.item_ids, range(len(assign))))
    missing = [i for i in emb.item_ids if i not in row_of]
    if missing:
        raise DiagnosticsError(
            f"{len(missing)} embedding ids have no SID in the assignment, e.g. {missing[0]!r}"
        )
    tokens = assign.tokens[[row_of[i] for i in emb.item_ids]]
    points = emb.rows.astype(np.float64)
    x_norms = np.sqrt(np.square(points).sum(axis=1))
    included = x_norms > 0.0
    recon = np.zeros_like(points)
    sims: dict[int, float] = {}
    zero_recon: dict[int, int] = {}
    for h in range(1, h_max + 1):
        recon = recon + model.codebooks[h - 1].astype(np.float64)[tokens[:, h - 1]]
        r_norms = np.sqrt(np.square(recon).sum(axis=1))
        cos = np.zeros(points.shape[0])
        ok = included & (r_norms > 0.0)
        cos[ok] = (points[ok] * recon[ok]).sum(axis=1) / (x_norms[ok] * r_norms[ok])
        np.clip(cos, -1.0, 1.0, out=cos)
        zero_recon[h] = int((included & (r_norms == 0.0)).sum())
        values = cos[included]
        sims[h] = float(values.mean()) if values.size else 0.0
    return ReconstructionCurve(
        sims=sims,
        n_items=emb.count,
        n_zero_norm_originals=int((~included).sum()),
        zero_recon_counts=zero_recon,
    )


def curve_case(rng, n, d, sizes):
    """(model, embeddings, assignment) with zero rows and zero
    reconstructions: centroid 0 of level 1 is zero, and centroid 0 of level 2
    cancels centroid 1 of level 1 exactly. The assignment holds the ids in
    another order, plus two that have no embedding."""
    model = random_model(rng, len(sizes), sizes, d)
    books = [cb.copy() for cb in model.codebooks]
    books[0][0] = 0.0
    if len(books) > 1:
        books[1][0] = -books[0][1]
    for cb in books:
        cb.setflags(write=False)
    model = dataclasses.replace(model, codebooks=tuple(books))
    rows = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3)
    rows[rng.random(n) < 0.1] = 0.0
    emb = EmbeddingSet([f"i{k}" for k in range(n)], rows.astype(np.float32))
    tokens = rng.integers(0, sizes, size=(n + 2, len(sizes)))
    tokens[rng.random(n + 2) < 0.2, 0] = 0
    tokens[rng.random(n + 2) < 0.2, :2] = (1, 0)[:len(sizes)]
    ids = [f"i{k}" for k in rng.permutation(n + 2)]
    return model, emb, SidAssignment(ids, tokens, model.model_hash())


def assert_same_curve(got, want):
    assert [(h, v.hex()) for h, v in got.sims.items()] == [(h, v.hex()) for h, v in want.sims.items()]
    assert (got.n_items, got.n_zero_norm_originals) == (want.n_items, want.n_zero_norm_originals)
    assert got.zero_recon_counts == want.zero_recon_counts


class TestReconstructionCurveMatchesReference:
    """The row blocks against the whole-matrix curve, bit for bit."""

    @pytest.mark.parametrize("block_rows", [1, 3, 16, None])
    def test_random_cases_across_block_sizes(self, rng, monkeypatch, block_rows):
        zero_recons = zero_norms = 0
        for trial in range(12):
            levels = int(rng.integers(1, 5))
            sizes = rng.integers(2, 9, size=levels)
            d = int(rng.integers(1, 9))
            # Below one block, an exact multiple of it, and neither.
            n = int((1, 2, 15, 16, 32, 47)[trial % 6] if block_rows else rng.integers(1, 200))
            if block_rows:
                monkeypatch.setattr(diagnostics, "BLOCK_ELEMENTS", block_rows * d)
            model, emb, assign = curve_case(rng, n, d, sizes)
            for h_max in range(1, levels + 1):
                got = reconstruction_curve(model, emb, assign, h_max=h_max)
                assert_same_curve(got, reference_reconstruction_curve(model, emb, assign, h_max=h_max))
                zero_recons += sum(got.zero_recon_counts.values())
                zero_norms += got.n_zero_norm_originals
        assert zero_recons > 0 and zero_norms > 0

    def test_blocks_of_the_default_size(self, rng):
        # 64 dims make blocks of 1,024 rows; 2,500 rows fill two and part of a third.
        model, emb, assign = curve_case(rng, 2500, 64, [16, 8, 4])
        for h_max in (2, 3):
            assert_same_curve(reconstruction_curve(model, emb, assign, h_max=h_max),
                              reference_reconstruction_curve(model, emb, assign, h_max=h_max))

    def test_dim_mismatch_is_named(self, rng):
        model = random_model(rng, 1, [4], 3)
        emb = EmbeddingSet(["a"], np.ones((1, 5), dtype=np.float32))
        assign = assignment_from_sids({"a": (0,)}, model_hash=model.model_hash())
        with pytest.raises(DiagnosticsError, match="embeddings of dim 5 for a model of dim 3"):
            reconstruction_curve(model, emb, assign)

    @pytest.mark.parametrize("token, shown", [(-1, "-1 out of range [0, 3)"), (7, "7 out of range [0, 3)")])
    def test_token_outside_its_codebook_is_named(self, rng, token, shown):
        """A negative token would read a centroid from the codebook's end,
        one past it a bare IndexError; both are refused, naming the item.
        A level past h_max is not read, so it is not checked."""
        model = random_model(rng, 2, [2, 3], 4)
        emb = EmbeddingSet(["a", "b"], np.ones((2, 4), dtype=np.float32))
        assign = SidAssignment(["a", "b"], [[0, token], [1, 1]], "x")
        with pytest.raises(DiagnosticsError, match=re.escape(f"item 'a': token {shown} at level 2 (row 0)")):
            reconstruction_curve(model, emb, assign)
        assert reconstruction_curve(model, emb, assign, h_max=1).n_items == 2


def reference_fit_probe(x_train, y_train, n_cat):
    """semantic_probe's loop before the (c, n) layout, verbatim: the oracle
    diagnostics._fit_probe must equal bit for bit."""
    n, d = x_train.shape
    onehot = np.zeros((n, n_cat))
    onehot[np.arange(n), y_train] = 1.0
    weights = np.zeros((d, n_cat))
    bias = np.zeros(n_cat)
    step_size, l2 = 0.1, 1e-4
    for _ in range(500):
        logits = x_train @ weights + bias
        logits -= logits.max(axis=1, keepdims=True)
        expv = np.exp(logits)
        probs = expv / expv.sum(axis=1, keepdims=True)
        grad = (probs - onehot) / n
        weights -= step_size * (x_train.T @ grad + l2 * weights)
        bias -= step_size * grad.sum(axis=0)
    return weights, bias


def probe_case(rng, n, d, n_cat, scale):
    """Features around one mean per category, as float32 values like the
    decoded reconstructions; every category has a train row."""
    y = np.concatenate([np.arange(n_cat), rng.integers(0, n_cat, n - n_cat)])
    rng.shuffle(y)
    means = rng.normal(size=(n_cat, d))
    x = (means[y] + rng.normal(size=(n, d))) * scale
    return x.astype(np.float32).astype(np.float64), y


def assert_same_fit(x, y, n_cat):
    got = diagnostics._fit_probe(x, y, n_cat)
    want = reference_fit_probe(x, y, n_cat)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g.view(np.int64), w.view(np.int64))


class TestFitProbe:
    def test_row_sum_matches_numpy_pairwise_order(self, rng):
        for c in range(1, 301):
            rows = rng.normal(size=(c, 5)) * 10.0 ** rng.uniform(-3, 3, size=(c, 5))
            want = np.ascontiguousarray(rows.T).sum(axis=1)
            assert np.array_equal(diagnostics._row_sum(rows).view(np.int64), want.view(np.int64)), c

    def test_matches_reference_on_the_catalog_shape(self, rng):
        assert_same_fit(*probe_case(rng, 1636, 64, 16, 1.0), 16)

    @pytest.mark.parametrize("n_cat", [2, 7, 8, 9, 17, 128, 129, 300])
    def test_matches_reference_across_category_counts(self, rng, n_cat):
        scale = 10.0 ** rng.uniform(-3, 3)
        assert_same_fit(*probe_case(rng, n_cat + 40, 6, n_cat, scale), n_cat)

    def test_matches_reference_on_rows_of_zeros(self, rng):
        x, y = probe_case(rng, 200, 12, 9, 1.0)
        x[::3] = 0.0
        assert_same_fit(x, y, 9)
        assert_same_fit(np.zeros_like(x), y, 9)

    def test_matches_reference_with_a_single_row_category(self, rng):
        x, y = probe_case(rng, 150, 12, 5, 30.0)
        y[y == 4] = 3
        y[17] = 4
        assert_same_fit(x, y, 5)


class TestSemanticProbe:
    def test_separable_categories_score_high(self):
        model = one_level_model([[10.0, 0.0], [-10.0, 0.0]])
        sids = {}
        labels = {}
        for i in range(24):
            item = f"i{i:02d}"
            sids[item] = (i % 2,)
            labels[item] = "left" if i % 2 else "right"
        assign = assignment_from_sids(sids, model_hash=model.model_hash())
        acc = semantic_probe(assign, model, labels, split_seed=0)
        assert acc == 1.0

    def test_shuffled_labels_score_low(self):
        model = one_level_model([[10.0, 0.0], [-10.0, 0.0]])
        gen = np.random.default_rng(9)
        sids = {f"i{i:02d}": (int(gen.integers(2)),) for i in range(40)}
        labels = {item: ("A" if gen.random() < 0.5 else "B") for item in sids}
        counts = {"A": sum(v == "A" for v in labels.values())}
        assert 10 <= counts["A"] <= 30
        assign = assignment_from_sids(sids, model_hash=model.model_hash())
        acc = semantic_probe(assign, model, labels, split_seed=1)
        assert acc <= 0.85

    def test_needs_two_categories(self, caplog):
        model = one_level_model([[1.0, 0.0]])
        sids = {f"i{i}": (0,) for i in range(20)}
        labels = {item: "only" for item in sids}
        assert semantic_probe(assignment_from_sids(sids), model, labels, split_seed=0) is None
        assert "skipping the category probe" in caplog.text
        assert "found 1, the smallest 'only' with 20 items" in caplog.text

    def test_needs_ten_per_category(self, caplog):
        model = one_level_model([[1.0, 0.0], [-1.0, 0.0]])
        sids = {f"i{i:02d}": (0,) for i in range(12)}
        sids.update({f"j{i}": (1,) for i in range(9)})
        labels = {item: ("A" if s == (0,) else "B") for item, s in sids.items()}
        assign = assignment_from_sids(sids)
        assert semantic_probe(assign, model, labels, split_seed=0) is None
        assert "found 2, the smallest 'B' with 9 items" in caplog.text
        payload = report_to_dict(build_report(assign, model, labels=labels, probe_seed=0))
        assert "probe_accuracy" not in payload

    def test_unusable_inputs_still_raise(self):
        model = one_level_model([[1.0, 0.0], [-1.0, 0.0]])
        sids = {f"i{i:02d}": (i % 2,) for i in range(20)}
        labels = {item: ("A" if s == (0,) else "B") for item, s in sids.items()}
        assign = assignment_from_sids(sids)
        del labels["i00"]
        with pytest.raises(DiagnosticsError, match="1 items lack category labels"):
            semantic_probe(assign, model, labels, split_seed=0)
        with pytest.raises(DiagnosticsError, match="nonempty assignment"):
            semantic_probe(assignment_from_sids({}), model, labels, split_seed=0)
        with pytest.raises(DiagnosticsError, match="probe_seed is required"):
            build_report(assign, model, labels=labels)

    def test_split_seed_changes_split_not_contract(self):
        model = one_level_model([[10.0, 0.0], [-10.0, 0.0]])
        sids = {f"i{i:02d}": (i % 2,) for i in range(30)}
        labels = {item: ("A" if s == (0,) else "B") for item, s in sids.items()}
        assign = assignment_from_sids(sids, model_hash=model.model_hash())
        for seed in (0, 1, 2):
            assert semantic_probe(assign, model, labels, split_seed=seed) == 1.0


def reference_semantic_probe(assign, model, labels, split_seed):
    """diagnostics.semantic_probe before each split decoded its own rows,
    verbatim but for the decoder, reference_decode_batch."""
    order = sorted(range(len(assign)), key=assign.item_ids.__getitem__)
    item_ids = [assign.item_ids[r] for r in order]
    if not item_ids:
        raise DiagnosticsError("semantic_probe needs a nonempty assignment")
    missing = [i for i in item_ids if i not in labels]
    if missing:
        raise DiagnosticsError(f"{len(missing)} items lack category labels")
    categories = sorted({labels[i] for i in item_ids})
    cat_index = {c: k for k, c in enumerate(categories)}
    y = np.array([cat_index[labels[i]] for i in item_ids], dtype=np.int64)
    sizes = np.bincount(y)
    if len(categories) < 2 or sizes.min() < 10:
        return None

    features = reference_decode_batch(model, assign.tokens[order])

    gen = sidforge_rng.stream(split_seed, sidforge_rng.PROBE_SPLIT)
    train_parts = []
    test_parts = []
    for k in range(len(categories)):
        members = np.flatnonzero(y == k)
        members = members[gen.permutation(members.size)]
        cut = min(max(int(round(members.size * 0.8)), 1), members.size - 1)
        train_parts.append(members[:cut])
        test_parts.append(members[cut:])
    train_idx = np.sort(np.concatenate(train_parts))
    test_idx = np.sort(np.concatenate(test_parts))

    x_train, y_train = features[train_idx], y[train_idx]
    x_test, y_test = features[test_idx], y[test_idx]
    weights, bias = diagnostics._fit_probe(x_train, y_train, len(categories))
    predictions = (x_test @ weights + bias).argmax(axis=1)
    return float((predictions == y_test).mean())


def probe_inputs(rng, n, d, sizes, n_cat):
    """A random model, an assignment of n items in shuffled id order, and
    labels of n_cat categories of at least 10 items each, a category's items
    leaning to one level-1 token."""
    model = random_model(rng, len(sizes), sizes, d)
    y = np.concatenate([np.repeat(np.arange(n_cat), 10), rng.integers(0, n_cat, n - 10 * n_cat)])
    tokens = rng.integers(0, sizes, size=(n, len(sizes)))
    lean = rng.random(n) < 0.7
    tokens[lean, 0] = y[lean] % sizes[0]
    ids = [f"i{k:04d}" for k in rng.permutation(n)]
    labels = {item: f"c{cat}" for item, cat in zip(ids, y)}
    return model, SidAssignment(ids, tokens, model.model_hash()), labels


class TestSemanticProbeMatchesReference:
    """Decoding each split from its own token rows against decoding the
    whole catalog and copying the splits out of it, bit for bit."""

    def test_random_cases(self, rng):
        accuracies = set()
        for trial in range(10):
            levels = int(rng.integers(1, 4))
            n_cat = int(rng.integers(2, 6))
            model, assign, labels = probe_inputs(
                rng, int(rng.integers(10 * n_cat, 160)), int(rng.integers(1, 9)),
                rng.integers(2, 9, size=levels), n_cat)
            for seed in (0, trial + 1):
                got = semantic_probe(assign, model, labels, split_seed=seed)
                assert got == reference_semantic_probe(assign, model, labels, split_seed=seed)
                accuracies.add(got)
        assert len(accuracies) > 3

    def test_bad_tokens_raise_the_reference_error(self, rng):
        model, assign, labels = probe_inputs(rng, 40, 3, [4, 3], 2)
        for row, level, token in ((0, 0, 4), (17, 1, -1), (39, 1, 3)):
            tokens = np.array(assign.tokens)
            tokens[row, level] = token
            bad = SidAssignment(assign.item_ids, tokens, assign.model_hash)
            with pytest.raises(RqError) as want:
                reference_semantic_probe(bad, model, labels, split_seed=0)
            with pytest.raises(RqError, match=re.escape(str(want.value))):
                semantic_probe(bad, model, labels, split_seed=0)
        for width in (1, 3):
            narrow = SidAssignment(assign.item_ids, np.zeros((40, width), dtype=np.int64), "x")
            with pytest.raises(RqError, match=re.escape(f"expected shape (n, 2), got (40, {width})")):
                semantic_probe(narrow, model, labels, split_seed=0)


def traced_peak(fn, *args, **kwargs) -> int:
    """The largest number of bytes tracemalloc saw allocated during fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStageThreeMemory:
    """Stage 3 keeps no whole-catalog float64 copies: peaks as multiples of
    one (n, d) float64 matrix, n * d * 8 bytes."""

    def test_reconstruction_curve_peaks_below_one_matrix(self, rng):
        n, d = 20_000, 64
        model = random_model(rng, 3, [256, 256, 256], d)
        emb = EmbeddingSet([f"i{k}" for k in range(n)], rng.normal(size=(n, d)).astype(np.float32))
        assign = SidAssignment(emb.item_ids, rng.integers(0, 256, size=(n, 3)), model.model_hash())
        assert traced_peak(reconstruction_curve, model, emb, assign) < 1.0 * n * d * 8

    def test_semantic_probe_peaks_below_two_matrices(self, rng):
        n, d = 3_000, 256
        model, assign, labels = probe_inputs(rng, n, d, [64, 32, 16], 4)
        assert traced_peak(semantic_probe, assign, model, labels, 0) < 1.9 * n * d * 8


class TestReport:
    def test_build_and_render(self, rng):
        model = random_model(rng, 2, [8, 8], 4)
        rows = np.asarray(rng.normal(size=(40, 4)), dtype=np.float32)
        emb = EmbeddingSet([f"i{k}" for k in range(40)], rows)
        assign = assign_all(model, emb)
        labels = {item: ("A" if k < 20 else "B") for k, item in enumerate(emb.item_ids)}
        report = build_report(assign, model, emb=emb, labels=labels, probe_seed=0)
        payload = report_to_dict(report)
        assert payload["n_items"] == 40
        assert payload["collision_rate"] + payload["unique_ratio"] == 1.0
        assert "sim_curve" in payload
        assert "probe_accuracy" in payload
        table = render_table(payload)
        assert "Collision" in table and "Entropy" in table
        assert len(table.splitlines()) == 2

    def test_probe_requires_seed(self, rng):
        model = random_model(rng, 1, [4], 3)
        assign = assignment_from_sids({"a": (0,)}, model_hash=model.model_hash())
        with pytest.raises(DiagnosticsError):
            build_report(assign, model, labels={"a": "x"}, probe_seed=None)
