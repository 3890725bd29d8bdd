from __future__ import annotations

import csv
import json
import math

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
        ctx = user_context(("a", "x", "b"), "a", assign, (0,), include_validation=True)
        assert ctx == (0, 1, 0)
        ctx = user_context(("a", "x", "b"), "a", assign, (0,), include_validation=False)
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
