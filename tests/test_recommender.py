from __future__ import annotations

import csv
import json
import math
from collections import Counter

import numpy as np
import pytest

from conftest import assignment_from_sids
from sidforge.datamodel import SplitDataset, UserSplit
from sidforge.recommender import (
    MetricsReport,
    NGramModel,
    RecommenderError,
    beam_search,
    evaluate,
    evaluate_static_ranking,
    flat_sids,
    flatten_sid,
    level_offsets,
    load_ngram,
    popularity_ranking,
    save_ngram,
    train_ngram,
    user_context,
    write_metrics_csv,
)
from sidforge.rq import build_trie


def split_of(user_seqs: dict) -> SplitDataset:
    users = {
        uid: UserSplit(train=tuple(seq[:-2]), validation=seq[-2], test=seq[-1])
        for uid, seq in user_seqs.items()
    }
    return SplitDataset(users=users, n_dropped_users=0)


class TestTokenSpace:
    def test_offsets(self):
        assert level_offsets((4, 3, 2)) == (0, 4, 7)
        assert level_offsets((5,)) == (0,)

    def test_flatten(self):
        assert flatten_sid((1, 2, 0), (0, 4, 7)) == (1, 6, 7)

    def test_user_context_skips_unassigned(self):
        assign = assignment_from_sids({"a": (0,), "b": (1,)})
        flat = flat_sids(assign, (0,))
        ctx = user_context(("a", "x", "b"), "a", flat, include_validation=True)
        assert ctx == (0, 1, 0)
        ctx = user_context(("a", "x", "b"), "a", flat, include_validation=False)
        assert ctx == (0, 1)


class TestNGram:
    def test_hand_counts(self):
        # one user, train items a b a -> token stream 0 1 0 over vocab size 2
        assign = assignment_from_sids({"a": (0,), "b": (1,)})
        split = split_of({"u": ["a", "b", "a", "b", "a"]})
        model = train_ngram(split, assign, sizes=(2,), order=2, alpha=0.5)
        # train sequence is a b a -> tokens 0 1 0
        assert model.totals[()] == 3
        assert model.counts[()] == {0: 2, 1: 1}
        assert model.counts[(0,)] == {1: 1}
        assert model.counts[(1,)] == {0: 1}
        # unigram: p = (count + alpha) / (total + alpha * V)
        probs = np.exp(model.score_next(()))
        assert probs == pytest.approx([(2 + 0.5) / 4, (1 + 0.5) / 4])
        # bigram after token 0
        probs = np.exp(model.score_next((0,)))
        assert probs == pytest.approx([0.5 / 2, 1.5 / 2])

    def test_backoff_to_unigram_on_unseen_context(self):
        assign = assignment_from_sids({"a": (0,), "b": (1,)})
        split = split_of({"u": ["a", "a", "a", "a", "a"]})
        model = train_ngram(split, assign, sizes=(2,), order=3, alpha=1.0)
        unseen = np.exp(model.score_next((1, 1)))
        unigram = np.exp(model.score_next(()))
        assert unseen == pytest.approx(unigram)

    def test_include_validation_extends_counts(self):
        assign = assignment_from_sids({"a": (0,), "b": (1,)})
        split = split_of({"u": ["a", "a", "b", "b"]})
        without = train_ngram(split, assign, (2,), order=1, alpha=0.1)
        with_val = train_ngram(split, assign, (2,), order=1, alpha=0.1, include_validation=True)
        assert without.totals[()] == 2
        assert with_val.totals[()] == 3
        assert with_val.counts[()][1] == 1

    def test_distribution_sums_to_one(self):
        assign = assignment_from_sids({"a": (0, 1), "b": (1, 0)})
        split = split_of({"u": ["a", "b", "a", "b"]})
        model = train_ngram(split, assign, (2, 2), order=4, alpha=0.3)
        for ctx in ((), (0,), (3, 2), (1, 1, 1)):
            assert float(np.exp(model.score_next(ctx)).sum()) == pytest.approx(1.0)

    def test_empty_training_rejected(self):
        assign = assignment_from_sids({"z": (0,)})
        split = split_of({"u": ["a", "b", "c"]})  # nothing assigned
        with pytest.raises(RecommenderError):
            train_ngram(split, assign, (1,), order=2, alpha=0.1)

    def test_roundtrip(self, tmp_path):
        assign = assignment_from_sids({"a": (0, 1), "b": (1, 0), "c": (0, 0)})
        split = split_of({"u": ["a", "b", "c", "a", "b"], "v": ["c", "c", "a", "b", "c"]})
        model = train_ngram(split, assign, (2, 2), order=3, alpha=0.25)
        path = tmp_path / "ng.json"
        save_ngram(model, path)
        back = load_ngram(path)
        assert back.order == model.order
        assert back.alpha == model.alpha
        assert back.sizes == model.sizes
        assert back.counts == model.counts
        assert back.totals == model.totals

    def test_save_bytes_match_json_dump(self, tmp_path):
        """save_ngram writes exactly what one json.dump of the whole payload
        (the pure-Python encoder) wrote."""
        gen = np.random.default_rng(4)
        items = {f"i{k}": (k % 12, k // 12) for k in range(36)}
        assign = assignment_from_sids(items)
        for order, alpha in ((1, 0.1), (2, 1e-300), (3, 0.1), (4, 2.5)):
            users = {f"u{u}": [f"i{k}" for k in gen.integers(36, size=gen.integers(3, 12))]
                     for u in range(20)}
            model = train_ngram(split_of(users), assign, (12, 3), order=order, alpha=alpha)
            payload = {
                "format": "sidforge-ngram-v1",
                "order": model.order,
                "alpha": model.alpha,
                "sizes": list(model.sizes),
                "contexts": [
                    {
                        "ctx": list(ctx),
                        "counts": {str(t): int(c) for t, c in sorted(model.counts[ctx].items())},
                    }
                    for ctx in sorted(model.counts)
                ],
            }
            want = tmp_path / "want.json"
            with open(want, "w", encoding="utf-8", newline="\n") as fh:
                json.dump(payload, fh, sort_keys=True)
                fh.write("\n")
            got = tmp_path / "got.json"
            save_ngram(model, got)
            assert got.read_bytes() == want.read_bytes()
            assert (order == 1) == (list(model.counts) == [()])
            assert any({"10", "2"} <= set(row["counts"]) for row in payload["contexts"])

    def test_load_rejects_token_outside_vocabulary(self, tmp_path):
        assign = assignment_from_sids({"a": (0,), "b": (1,)})
        model = train_ngram(split_of({"u": ["a", "b", "a", "b"]}), assign, (2,), order=2, alpha=0.1)
        path = tmp_path / "ng.json"
        save_ngram(model, path)
        good = json.loads(path.read_text())
        bad_token = json.loads(path.read_text())
        bad_token["contexts"][0]["counts"]["99"] = 1
        for text, match in (
            (json.dumps(bad_token), "token 99"),
            ("[]", "not a JSON object"),
            ("{", "unreadable"),
            (json.dumps({**good, "order": 0}), "order"),
            (json.dumps({**good, "alpha": 0.0}), "alpha"),
            (json.dumps({**good, "alpha": -1.0}), "alpha"),
            (json.dumps({**good, "sizes": [0]}), "sizes"),
        ):
            path.write_text(text)
            with pytest.raises(RecommenderError, match=match):
                load_ngram(path)

    @pytest.mark.parametrize(
        "edit, match",
        [
            ({"order": 3.9}, "order"),
            ({"order": True}, "order"),
            ({"order": "2"}, "order"),
            ({"alpha": True}, "alpha"),
            ({"alpha": "0.1"}, "alpha"),
            ({"alpha": float("inf")}, "alpha"),
            ({"alpha": float("nan")}, "alpha"),
            ({"alpha": 10**400}, "alpha"),
            ({"sizes": [2.0]}, "sizes"),
            ({"sizes": [True]}, "sizes"),
            ({"sizes": []}, "sizes"),
            ({"sizes": 2}, "sizes"),
            ({"contexts": {}}, "contexts"),
            ({"contexts": [[]]}, "#0 is not an object"),
            ({"contexts": [{"ctx": []}]}, "#0 is not an object"),
            ({"contexts": [{"ctx": [True], "counts": {"0": 1}}]}, "#0"),
            ({"contexts": [{"ctx": [0.0], "counts": {"0": 1}}]}, "#0"),
            ({"contexts": [{"ctx": [-1], "counts": {"0": 1}}]}, "#0"),
            ({"contexts": [{"ctx": [2], "counts": {"0": 1}}]}, r"#0: \[2\] is not a list of at most 1 tokens in \[0, 2\)"),
            ({"contexts": [{"ctx": [0, 1], "counts": {"0": 1}}]}, "at most 1 tokens"),
            ({"contexts": [{"ctx": [], "counts": {"0": 1}}, {"ctx": [], "counts": {"1": 1}}]}, "appears twice"),
            ({"contexts": [{"ctx": [], "counts": {"01": 1}}]}, "token 01 is not a canonical"),
            ({"contexts": [{"ctx": [], "counts": {"-1": 1}}]}, "token -1 is not a canonical"),
            ({"contexts": [{"ctx": [], "counts": {"+1": 1}}]}, "canonical"),
            ({"contexts": [{"ctx": [], "counts": {" 1": 1}}]}, "canonical"),
            ({"contexts": [{"ctx": [], "counts": {"1_0": 1}}]}, "canonical"),
            ({"contexts": [{"ctx": [], "counts": {"1.0": 1}}]}, "canonical"),
            ({"contexts": [{"ctx": [], "counts": {"9" * 30: 1}}]}, "canonical"),
            ({"contexts": [{"ctx": [], "counts": {"0": 0}}]}, "count 0"),
            ({"contexts": [{"ctx": [], "counts": {"0": -2}}]}, "count -2"),
            ({"contexts": [{"ctx": [], "counts": {"0": 1.5}}]}, "count 1.5"),
            ({"contexts": [{"ctx": [], "counts": {"0": True}}]}, "count True"),
            ({"contexts": [{"ctx": [], "counts": {"0": "1"}}]}, "count '1'"),
        ],
    )
    def test_load_rejects_mistyped_values(self, tmp_path, edit, match):
        assign = assignment_from_sids({"a": (0,), "b": (1,)})
        model = train_ngram(split_of({"u": ["a", "b", "a", "b"]}), assign, (2,), order=2, alpha=0.1)
        path = tmp_path / "ng.json"
        save_ngram(model, path)
        path.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
        with pytest.raises(RecommenderError, match=match):
            load_ngram(path)

    def test_load_names_a_missing_field(self, tmp_path):
        path = tmp_path / "ng.json"
        path.write_text(json.dumps({"format": "sidforge-ngram-v1", "order": 2, "alpha": 0.1}))
        with pytest.raises(RecommenderError, match="sizes"):
            load_ngram(path)

    def test_tokens_outside_the_level_sizes_rejected(self):
        assign = assignment_from_sids({"a": (0,), "b": (3,)})
        with pytest.raises(RecommenderError, match="level sizes"):
            train_ngram(split_of({"u": ["a", "b", "a", "b"]}), assign, (2,), order=2, alpha=0.1)

    def test_untrained_parameter_validation(self):
        assign = assignment_from_sids({"a": (0,)})
        split = split_of({"u": ["a", "a", "a"]})
        with pytest.raises(RecommenderError):
            train_ngram(split, assign, (1,), order=0, alpha=0.1)
        with pytest.raises(RecommenderError):
            train_ngram(split, assign, (1,), order=1, alpha=0.0)


def exhaustive_rank(model, context, trie, sizes, top_k):
    """Oracle: score every SID in the trie by left-to-right accumulation and
    sort by (-score, tokens)."""
    offsets = level_offsets(sizes)
    scored = []
    for tokens, _items in trie.iter_sids():
        score = 0.0
        gtokens = tuple(int(t) for t in context)
        for level, token in enumerate(tokens):
            logp = model.score_next(gtokens)
            gid = offsets[level] + token
            score = score + float(logp[gid])
            gtokens = gtokens + (gid,)
        scored.append((score, tokens))
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return [(tokens, score) for score, tokens in scored[:top_k]]


class TestBeamSearch:
    def test_matches_exhaustive_with_full_beam(self):
        gen = np.random.default_rng(5)
        sids = {}
        for i in range(60):
            sids[f"i{i}"] = (int(gen.integers(4)), int(gen.integers(3)), int(gen.integers(3)))
        assign = assignment_from_sids(sids)
        trie = build_trie(assign)
        split = split_of({
            f"u{j}": [f"i{int(gen.integers(60))}" for _ in range(6)] for j in range(10)
        })
        model = train_ngram(split, assign, (4, 3, 3), order=3, alpha=0.2)
        for ctx in ((), (0, 5, 8), (1, 4)):
            want = exhaustive_rank(model, ctx, trie, (4, 3, 3), 10)
            got = beam_search(model, ctx, trie, beam_size=trie.n_sids, top_k=10, sizes=(4, 3, 3))
            assert got == want

    def test_all_results_within_catalog(self):
        assign = assignment_from_sids({"a": (0, 0), "b": (0, 1), "c": (1, 1)})
        trie = build_trie(assign)
        split = split_of({"u": ["a", "b", "c", "a", "b"]})
        model = train_ngram(split, assign, (2, 2), order=2, alpha=0.1)
        results = beam_search(model, (), trie, beam_size=3, top_k=3, sizes=(2, 2))
        assert {tokens for tokens, _ in results} == {(0, 0), (0, 1), (1, 1)}

    def test_unconstrained_can_leave_catalog(self):
        assign = assignment_from_sids({"a": (0, 0)})
        trie = build_trie(assign)
        split = split_of({"u": ["a", "a", "a", "a"]})
        model = train_ngram(split, assign, (2, 2), order=1, alpha=5.0)
        results = beam_search(
            model, (), trie, beam_size=4, top_k=4, sizes=(2, 2), unconstrained=True
        )
        assert len(results) == 4
        assert any(tokens not in trie for tokens, _ in results)

    def test_fewer_sids_than_topk(self):
        assign = assignment_from_sids({"a": (0, 0), "b": (1, 1)})
        trie = build_trie(assign)
        split = split_of({"u": ["a", "b", "a", "b"]})
        model = train_ngram(split, assign, (2, 2), order=1, alpha=0.1)
        results = beam_search(model, (), trie, beam_size=5, top_k=5, sizes=(2, 2))
        assert len(results) == 2

    def test_parameter_validation(self):
        assign = assignment_from_sids({"a": (0,)})
        trie = build_trie(assign)
        split = split_of({"u": ["a", "a", "a"]})
        model = train_ngram(split, assign, (1,), order=1, alpha=0.1)
        with pytest.raises(RecommenderError):
            beam_search(model, (), trie, beam_size=0, top_k=1, sizes=(1,))
        with pytest.raises(RecommenderError):
            beam_search(model, (), trie, beam_size=2, top_k=3, sizes=(1,))
        with pytest.raises(RecommenderError):
            beam_search(model, (), trie, beam_size=2, top_k=1, sizes=(1, 2))

    def test_tie_break_lexicographic(self):
        # untrained-context alpha smoothing gives equal scores; order must be
        # lexicographic on token sequences
        assign = assignment_from_sids({"a": (1, 1), "b": (0, 1), "c": (0, 0), "d": (1, 0)})
        trie = build_trie(assign)
        split = split_of({"u": ["a", "b", "c", "d", "a"]})
        model = NGramModel(
            order=1,
            alpha=1.0,
            sizes=(2, 2),
            counts={(): {0: 1, 1: 1, 2: 1, 3: 1}},
            totals={(): 4},
        )
        results = beam_search(model, (), trie, beam_size=4, top_k=4, sizes=(2, 2))
        assert [tokens for tokens, _ in results] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def reference_score_next(model, context) -> np.ndarray:
    """NGramModel.score_next before rows were memoised, verbatim: the oracle
    for the memoised rows."""
    ctx = tuple(int(t) for t in context)
    longest = min(model.order - 1, len(ctx))
    for length in range(longest, -1, -1):
        suffix = ctx[len(ctx) - length:] if length else ()
        total = model.totals.get(suffix)
        if total is None:
            continue
        probs = np.full(model.vocab_size, model.alpha, dtype=np.float64)
        for token, count in model.counts[suffix].items():
            probs[token] += count
        probs /= total + model.alpha * model.vocab_size
        return np.log(probs)
    raise RecommenderError("model has no unigram table; was it trained?")


class ReferenceModel:
    """Scores through reference_score_next, recomputing every row."""

    def __init__(self, model):
        self.model = model

    def score_next(self, context):
        return reference_score_next(self.model, context)


def reference_beam_search(model, context, trie, beam_size, top_k, sizes, unconstrained=False):
    """beam_search before it was vectorised, verbatim: one Python tuple per
    candidate and one list sort per level."""
    if top_k < 1 or beam_size < top_k:
        raise RecommenderError("need beam_size >= top_k >= 1")
    if trie.n_sids == 0 or not trie.next_tokens(()):
        raise RecommenderError("empty trie")
    sizes = tuple(int(k) for k in sizes)
    if len(sizes) != trie.depth:
        raise RecommenderError(f"{len(sizes)} level sizes for trie depth {trie.depth}")
    offsets = level_offsets(sizes)
    ctx = tuple(int(t) for t in context)
    # beam entry: (score, level tokens, global tokens)
    beams = [(0.0, (), ())]
    for level in range(trie.depth):
        candidates = []
        for score, tokens, gtokens in beams:
            logp = model.score_next(ctx + gtokens)
            children = range(sizes[level]) if unconstrained else trie.next_tokens(tokens)
            for token in children:
                gid = offsets[level] + token
                candidates.append((score + float(logp[gid]), tokens + (token,), gtokens + (gid,)))
        # (-score, tokens) is a total order, so the candidates' insertion order
        # never shows in the ranking.
        candidates.sort(key=lambda c: (-c[0], c[1]))
        beams = candidates[:beam_size]
    return [(tokens, score) for score, tokens, _ in beams[:top_k]]


def reference_counts(split, assign, sizes, order, include_validation):
    """train_ngram's counting before it sorted windows: the Counter loop."""
    offsets = level_offsets(sizes)
    counts: dict = {}
    totals: dict = {}
    for user_id in sorted(split.users):
        user = split.users[user_id]
        items = list(user.train) + ([user.validation] if include_validation else [])
        tokens = tuple(t for item in items if item in assign for t in flatten_sid(assign[item], offsets))
        for i, token in enumerate(tokens):
            for length in range(min(order - 1, i) + 1):
                ctx = tokens[i - length:i]
                if ctx not in counts:
                    counts[ctx] = Counter()
                    totals[ctx] = 0
                counts[ctx][token] += 1
                totals[ctx] += 1
    return counts, totals


def random_case(gen):
    """Random level sizes, assignment and split. Some items have no SID, and
    one user has none at all."""
    sizes = tuple(int(gen.integers(1, 6)) for _ in range(int(gen.integers(1, 4))))
    sids = {f"i{j}": tuple(int(gen.integers(k)) for k in sizes) for j in range(int(gen.integers(1, 40)))}
    pool = list(sids) + ["x0", "x1"]
    users = {
        f"u{u}": [pool[int(gen.integers(len(pool)))] for _ in range(int(gen.integers(3, 12)))]
        for u in range(int(gen.integers(1, 8)))
    }
    users["no_sids"] = ["x0", "x1", "x0", "x1"]
    return sizes, assignment_from_sids(sids), split_of(users)


class TestFastPathsMatchLoops:
    def test_counts_equal_the_counter_loop(self):
        for trial in range(80):
            gen = np.random.default_rng(trial)
            sizes, assign, split = random_case(gen)
            order = int(gen.integers(1, 5))
            include_validation = bool(trial % 2)
            counts, totals = reference_counts(split, assign, sizes, order, include_validation)
            if not totals:
                with pytest.raises(RecommenderError):
                    train_ngram(split, assign, sizes, order, 0.5, include_validation)
                continue
            model = train_ngram(split, assign, sizes, order, 0.5, include_validation)
            assert model.counts == counts and model.totals == totals, f"trial {trial}"
            assert all(type(c) is Counter for c in model.counts.values())
            assert all(type(t) is int for ctx in model.counts for t in ctx)

    def test_counts_exact_for_wide_vocabularies(self):
        # global ids above 255 and above 65535 need wider window types
        sizes = (300, 70000)
        assign = assignment_from_sids({"a": (299, 69999), "b": (1, 65536), "c": (256, 0)})
        split = split_of({"u": ["a", "b", "c", "a", "b", "c", "a"], "v": ["c", "c", "b", "a", "a"]})
        for order in (1, 2, 3, 4):
            model = train_ngram(split, assign, sizes, order, 0.5)
            assert (model.counts, model.totals) == reference_counts(split, assign, sizes, order, False)

    def test_beam_equals_the_list_beam(self):
        for trial in range(60):
            gen = np.random.default_rng(1000 + trial)
            sizes, assign, split = random_case(gen)
            trie = build_trie(assign)
            order = int(gen.integers(1, 5))
            vocab = sum(sizes)
            try:
                if trial % 4 == 0:
                    raise RecommenderError("use the alpha-only model")
                model = train_ngram(split, assign, sizes, order, float(gen.uniform(0.05, 2.0)))
            except RecommenderError:
                # every row uniform, so every score ties and tokens decide
                model = NGramModel(order=order, alpha=1.0, sizes=sizes, counts={(): Counter()}, totals={(): 0})
            unseen = [t for t in range(vocab) if (t,) not in model.totals]
            contexts = [
                (),
                tuple(int(t) for t in gen.integers(vocab, size=max(order - 2, 0))),
                tuple(int(t) for t in gen.integers(vocab, size=order + 3)),
                tuple(int(t) for t in gen.integers(vocab, size=2)) + tuple(unseen[-1:]),
            ]
            for unconstrained in (False, True):
                for beam_size in sorted({1, max(trie.n_sids - 1, 1), trie.n_sids + 3}):
                    top_k = int(gen.integers(1, beam_size + 1))
                    for ctx in contexts:
                        want = reference_beam_search(
                            ReferenceModel(model), ctx, trie, beam_size, top_k, sizes, unconstrained
                        )
                        got = beam_search(model, ctx, trie, beam_size, top_k, sizes, unconstrained)
                        assert got == want, f"trial {trial} beam {beam_size} ctx {ctx}"
                        assert all(type(t) is int for tokens, _ in got for t in tokens)

    def test_rows_read_only_repeatable_and_bounded(self, tmp_path):
        gen = np.random.default_rng(3)
        assign = assignment_from_sids({f"i{j}": (j % 4, j % 3) for j in range(12)})
        split = split_of({f"u{u}": [f"i{int(gen.integers(12))}" for _ in range(9)] for u in range(6)})
        model = train_ngram(split, assign, (4, 3), order=3, alpha=0.2)
        for _ in range(200):
            ctx = tuple(int(t) for t in gen.integers(7, size=int(gen.integers(0, 6))))
            row = model.score_next(ctx)
            assert not row.flags.writeable
            with pytest.raises(ValueError):
                row[0] = 0.0
            assert np.array_equal(row, reference_score_next(model, ctx))
            assert np.array_equal(model.score_next(list(ctx)), row)
        assert 0 < len(model._rows) <= len(model.counts)
        path = tmp_path / "ng.json"
        save_ngram(model, path)
        assert load_ngram(path) == model
        assert "_rows" not in repr(model)


class TestMetrics:
    def test_ndcg_rank_three(self):
        report = MetricsReport(
            hr={5: 1.0}, ndcg={5: 1.0 / math.log2(4)}, n_users=1, n_excluded=0, beam_shortfalls=0
        )
        assert report.to_dict()["NDCG@5"] == 0.5

    def test_evaluate_hand_case(self):
        # catalog of 3 SIDs; u1's test item sits at beam rank 1, u2's at rank 2
        assign = assignment_from_sids({"a": (0, 0), "b": (0, 1), "c": (1, 1)})
        trie = build_trie(assign)
        split = split_of(
            {
                "u1": ["a", "a", "a", "b", "a"],
                "u2": ["a", "a", "a", "a", "b"],
            }
        )
        model = train_ngram(split, assign, (2, 2), order=1, alpha=0.01)
        report = evaluate(
            model, split, assign, trie, (2, 2), ks=(1, 5), beam_size=3, keep_ranks=True
        )
        # unigram heavily favors item a's tokens; a ranks first for both users
        assert report.per_user_ranks == {"u1": 1, "u2": 2}
        assert report.hr[1] == 0.5
        assert report.hr[5] == 1.0
        assert report.ndcg[5] == pytest.approx((1.0 + 1.0 / math.log2(3)) / 2)
        assert report.n_users == 2

    def test_excluded_users_counted(self):
        assign = assignment_from_sids({"a": (0,), "b": (1,)})
        trie = build_trie(assign)
        split = split_of({"u1": ["a", "b", "a"], "u2": ["a", "b", "zzz"]})
        model = train_ngram(split, assign, (2,), order=1, alpha=0.1)
        report = evaluate(model, split, assign, trie, (2,), ks=(1,), beam_size=2)
        assert report.n_users == 1
        assert report.n_excluded == 1

    def test_collision_counts_as_hit(self):
        # b and t share a SID; predicting the shared SID is a hit for test item t
        assign = assignment_from_sids({"a": (0,), "b": (1,), "t": (1,)})
        trie = build_trie(assign)
        split = split_of({"u": ["b", "b", "b", "b", "t"]})
        model = train_ngram(split, assign, (2,), order=1, alpha=0.01)
        report = evaluate(model, split, assign, trie, (2,), ks=(1,), beam_size=2)
        assert report.hr[1] == 1.0

    def test_ks_validated(self):
        assign = assignment_from_sids({"a": (0,)})
        trie = build_trie(assign)
        split = split_of({"u": ["a", "a", "a"]})
        model = train_ngram(split, assign, (1,), order=1, alpha=0.1)
        with pytest.raises(RecommenderError):
            evaluate(model, split, assign, trie, (1,), ks=())
        with pytest.raises(RecommenderError):
            evaluate(model, split, assign, trie, (1,), ks=(0,))


class TestPopularity:
    def test_ranking_counts_and_ties(self):
        assign = assignment_from_sids({"a": (0,), "b": (1,), "c": (2,), "d": (3,)})
        split = split_of(
            {
                "u1": ["b", "b", "b", "a", "x"],
                "u2": ["b", "a", "a", "a", "x"],
            }
        )
        # counts with validation: b=3+0, a=2+2 -> a=4, b=3; c,d unseen -> count 0
        ranked = popularity_ranking(split, assign, include_validation=True)
        assert ranked == [(0,), (1,), (2,), (3,)]
        without = popularity_ranking(split, assign, include_validation=False)
        # counts: b=3, a=2
        assert without == [(1,), (0,), (2,), (3,)]

    def test_unseen_sids_tie_lexicographically(self):
        assign = assignment_from_sids({"a": (2,), "b": (0,), "c": (1,)})
        split = split_of({"u": ["a", "a", "a", "a", "a"]})
        ranked = popularity_ranking(split, assign)
        assert ranked == [(2,), (0,), (1,)]

    def test_static_evaluation(self):
        assign = assignment_from_sids({"a": (0,), "b": (1,), "c": (2,)})
        split = split_of({"u1": ["a", "a", "a", "a", "b"], "u2": ["a", "a", "a", "a", "c"]})
        ranked = [(0,), (1,), (2,)]
        report = evaluate_static_ranking(ranked, split, assign, ks=(1, 2), keep_ranks=True)
        assert report.per_user_ranks == {"u1": 2, "u2": 3}
        assert report.hr[1] == 0.0
        assert report.hr[2] == 0.5


class TestCsv:
    def test_layout_and_precision(self, tmp_path):
        report = MetricsReport(
            hr={5: 1 / 3, 10: 2 / 3},
            ndcg={5: 0.123456789012345, 10: 0.5},
            n_users=3,
            n_excluded=0,
            beam_shortfalls=0,
        )
        path = tmp_path / "m.csv"
        write_metrics_csv(report, path)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["metric", "K", "value", "n_users"]
        assert rows[1] == ["HR", "5", repr(1 / 3), "3"]
        assert float(rows[3][2]) == 0.123456789012345
        assert len(rows) == 5
