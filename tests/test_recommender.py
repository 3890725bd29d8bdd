from __future__ import annotations

import csv
import json
import math
import re
import sys
from collections import Counter

import numpy as np
import pytest

from conftest import assignment_from_sids
from sidforge import recommender
from sidforge.datamodel import SplitDataset, UserSplit
from sidforge.recommender import (
    MetricsReport,
    NGramModel,
    RecommenderError,
    _metrics_from_ranks,
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
    user_state,
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
        probs = np.exp(model.score_next([()])[0])
        assert probs == pytest.approx([(2 + 0.5) / 4, (1 + 0.5) / 4])
        # bigram after token 0
        probs = np.exp(model.score_next([(0,)])[0])
        assert probs == pytest.approx([0.5 / 2, 1.5 / 2])

    def test_backoff_to_unigram_on_unseen_context(self):
        assign = assignment_from_sids({"a": (0,), "b": (1,)})
        split = split_of({"u": ["a", "a", "a", "a", "a"]})
        model = train_ngram(split, assign, sizes=(2,), order=3, alpha=1.0)
        unseen, unigram = np.exp(model.score_next([(1, 1), ()]))
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
            assert float(np.exp(model.score_next([ctx])[0]).sum()) == pytest.approx(1.0)

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
            logp = model.score_next([gtokens])[0]
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
    for the compiled rows."""
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


class MemoisedModel:
    """An NGramModel's fields with NGramModel.score_next as it was before the
    model was compiled, verbatim: one sparse row per resolved back-off
    context, kept in a memo, and one dense row built per call."""

    def __init__(self, model):
        self.order, self.alpha, self.counts, self.totals = model.order, model.alpha, model.counts, model.totals
        self.vocab_size = model.vocab_size
        self.state = model.state
        self._rows = {}

    def score_next(self, context) -> np.ndarray:
        ctx = self.state(context)
        while ctx not in self.totals:
            if not ctx:
                raise RecommenderError("model has no unigram table; was it trained?")
            ctx = ctx[1:]
        sparse = self._rows.get(ctx)
        if sparse is None:
            probs = np.full(self.vocab_size, self.alpha, dtype=np.float64)
            for token, count in self.counts[ctx].items():
                probs[token] += count
            probs /= self.totals[ctx] + self.alpha * self.vocab_size
            logp = np.log(probs)
            fill = logp.min()
            positions = np.flatnonzero(logp != fill)
            sparse = self._rows[ctx] = (fill, positions, logp[positions])
        fill, positions, values = sparse
        row = np.empty(self.vocab_size, dtype=np.float64)
        row.fill(fill)
        row[positions] = values
        row.setflags(write=False)
        return row


def memoised_beam_search(model, context, trie, beam_size, top_k, sizes, unconstrained=False):
    """beam_search before it scored a level in one call, verbatim: one
    `score_next` row per hypothesis and a lexsort on the token columns."""
    if top_k < 1 or beam_size < top_k:
        raise RecommenderError("need beam_size >= top_k >= 1")
    if trie.n_sids == 0 or not trie.next_tokens(()):
        raise RecommenderError("empty trie")
    sizes = tuple(int(k) for k in sizes)
    if len(sizes) != trie.depth:
        raise RecommenderError(f"{len(sizes)} level sizes for trie depth {trie.depth}")
    offsets = np.array(level_offsets(sizes), dtype=np.int64)
    ctx = tuple(context)
    # The beam, best first: trie node at the current depth, score, level tokens.
    nodes = np.zeros(1, dtype=np.int64)
    scores = np.zeros(1, dtype=np.float64)
    tokens = np.zeros((1, 0), dtype=np.int64)
    for level in range(trie.depth):
        rows = np.array([model.score_next(ctx + tuple(g)) for g in (tokens + offsets[:level]).tolist()])
        if unconstrained:
            first, n_children = 0, np.full(nodes.size, sizes[level])
        else:
            indptr, children = trie.levels[level]
            first = indptr[nodes]
            n_children = indptr[nodes + 1] - first
        parent = np.repeat(np.arange(nodes.size), n_children)
        # child[j]: position of candidate j in its level's token array (the
        # token itself when unconstrained), i.e. its node at the next depth
        child = np.arange(parent.size) + (first - np.cumsum(n_children) + n_children)[parent]
        child_tokens = child if unconstrained else children[child]
        candidates = scores[parent] + rows[parent, offsets[level] + child_tokens]
        candidate_tokens = np.concatenate((tokens[parent], child_tokens[:, None]), axis=1)
        best = np.lexsort((*candidate_tokens.T[::-1], -candidates))[:beam_size]
        nodes, scores, tokens = child[best], candidates[best], candidate_tokens[best]
    return [(tuple(t), s) for t, s in zip(tokens[:top_k].tolist(), scores[:top_k].tolist())]


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


def reference_evaluate(
    model,
    split,
    assign,
    trie,
    sizes,
    ks=(5, 10),
    beam_size=20,
    include_validation=True,
    keep_ranks=False,
    unconstrained=False,
):
    """evaluate before it searched once per n-gram state, verbatim: one
    beam search per user, over the user's whole context."""
    ks = sorted(int(k) for k in ks)
    if not ks or ks[0] < 1:
        raise RecommenderError("every K must be >= 1")
    top_k = min(beam_size, max(ks))
    flat = flat_sids(assign, level_offsets(sizes))
    ranks: dict[str, int] = {}
    excluded = 0
    shortfalls = 0
    for user_id in sorted(split.users):
        user = split.users[user_id]
        if user.test not in assign:
            excluded += 1
            continue
        target = assign[user.test]
        ctx = user_context(user.train, user.validation, flat, include_validation)
        ranked = beam_search(
            model, ctx, trie, beam_size, top_k, sizes, unconstrained=unconstrained
        )
        if len(ranked) < top_k:
            shortfalls += 1
        if not unconstrained:
            for tokens, _ in ranked:
                if tokens not in trie:
                    raise RecommenderError("constrained search produced a non-catalog SID")
        rank = 0
        for position, (tokens, _) in enumerate(ranked, start=1):
            if tokens == target:
                rank = position
                break
        ranks[user_id] = rank
    return _metrics_from_ranks(ranks, ks, excluded, shortfalls, keep_ranks)


def evaluation_case(gen):
    """random_case plus users whose contexts are empty or shorter than
    order - 1 tokens but whose test item has a SID."""
    sizes, assign, split = random_case(gen)
    items = sorted(assign.sids)
    extra = split_of({
        "empty_ctx": ["x0", "x1", "x0", items[0]],
        "short_ctx": ["x1", items[-1], "x0", items[0]],
        "one_sid": [items[0], "x0", items[-1]],
    })
    users = {**split.users, **extra.users}
    return sizes, assign, SplitDataset(users=users, n_dropped_users=0)


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

    def test_evaluate_equals_the_per_user_search(self):
        for trial in range(40):
            gen = np.random.default_rng(2000 + trial)
            sizes, assign, split = evaluation_case(gen)
            trie = build_trie(assign)
            for order in (1, 2, 3, 4):
                model = train_ngram(split, assign, sizes, order, float(gen.uniform(0.05, 2.0)))
                for unconstrained in (False, True):
                    beam_size = int(gen.integers(1, trie.n_sids + 4))
                    ks = sorted({int(k) for k in gen.integers(1, 8, size=2)})
                    include_validation = bool(gen.integers(2))
                    args = (model, split, assign, trie, sizes, ks, beam_size, include_validation, True,
                            unconstrained)
                    want = reference_evaluate(*args)
                    assert evaluate(*args) == want, f"trial {trial} order {order}"
                    assert want.n_excluded >= 1 and want.n_users >= 3

    def test_one_search_per_ngram_state(self, monkeypatch):
        gen = np.random.default_rng(5)
        sizes, assign, split = evaluation_case(gen)
        trie = build_trie(assign)
        flat = flat_sids(assign, level_offsets(sizes))
        searched = []

        def counting_beam_search(model, context, *args, **kwargs):
            searched.append(context)
            return beam_search(model, context, *args, **kwargs)

        monkeypatch.setattr(recommender, "beam_search", counting_beam_search)
        for order in (1, 2, 3, 4):
            searched.clear()
            model = train_ngram(split, assign, sizes, order, 0.3)
            evaluate(model, split, assign, trie, sizes, ks=(3,), beam_size=4)
            contexts = [
                user_context(user.train, user.validation, flat, True)
                for user in split.users.values() if user.test in assign
            ]
            states = {ctx[max(len(ctx) - order + 1, 0):] for ctx in contexts}
            assert sorted(searched) == sorted(states), f"order {order}"
        assert model.state((1, 2, 3, 4)) == (2, 3, 4) and model.state([1]) == (1,)
        assert train_ngram(split, assign, sizes, 1, 0.3).state((1, 2, 3)) == ()

    def test_user_state_is_the_state_of_the_whole_context(self):
        for trial in range(30):
            gen = np.random.default_rng(3000 + trial)
            sizes, assign, split = evaluation_case(gen)
            flat = flat_sids(assign, level_offsets(sizes))
            for order in (1, 2, 3):
                model = NGramModel(order=order, alpha=1.0, sizes=sizes, counts={(): Counter()},
                                   totals={(): 0})
                for include_validation in (True, False):
                    for user_id, user in split.users.items():
                        whole = user_context(user.train, user.validation, flat, include_validation)
                        got = user_state(model, user.train, user.validation, flat, include_validation)
                        assert got == model.state(whole), f"trial {trial} order {order} {user_id}"

    def test_vocab_size_cached_outside_equality_repr_and_file(self, tmp_path):
        assign = assignment_from_sids({f"i{j}": (j % 4, j % 3) for j in range(12)})
        split = split_of({f"u{u}": [f"i{(u * 5 + k) % 12}" for k in range(7)] for u in range(5)})
        model = train_ngram(split, assign, (4, 3), order=3, alpha=0.2)
        before, path = repr(model), tmp_path / "before.json"
        save_ngram(model, path)
        assert "vocab_size" not in vars(model)
        assert model.vocab_size == 7
        assert vars(model)["vocab_size"] == 7  # kept after the first read
        assert repr(model) == before and "vocab_size" not in before
        assert model == load_ngram(path)
        save_ngram(model, tmp_path / "after.json")
        assert (tmp_path / "after.json").read_bytes() == path.read_bytes()

    def test_rows_read_only_repeatable_and_bounded(self, tmp_path):
        gen = np.random.default_rng(3)
        assign = assignment_from_sids({f"i{j}": (j % 4, j % 3) for j in range(12)})
        split = split_of({f"u{u}": [f"i{int(gen.integers(12))}" for _ in range(9)] for u in range(6)})
        model = train_ngram(split, assign, (4, 3), order=3, alpha=0.2)
        before, path = repr(model), tmp_path / "before.json"
        save_ngram(model, path)
        contexts = [tuple(int(t) for t in gen.integers(7, size=int(gen.integers(0, 6)))) for _ in range(200)]
        batch = model.score_next(contexts)
        assert batch.shape == (200, 7) and not batch.flags.writeable
        for ctx, in_batch in zip(contexts, batch):
            row = model.score_next([ctx])[0]
            assert not row.flags.writeable
            with pytest.raises(ValueError):
                row[0] = 0.0
            assert np.array_equal(row, reference_score_next(model, ctx))
            assert np.array_equal(model.score_next([list(ctx)])[0], row)
            assert row.tobytes() == in_batch.tobytes()
        assert model.score_next([]).shape == (0, 7)
        # The compiled arrays hold the counted entries and one fill per
        # context, not a row per context.
        _, indptr, tokens, logp, fill = model._compiled
        assert len(fill) == len(model.totals) and len(indptr) == len(fill) + 1
        assert len(tokens) == len(logp) == sum(map(len, model.counts.values()))
        assert repr(model) == before and "_compiled" not in before
        assert load_ngram(path) == model
        save_ngram(model, tmp_path / "after.json")
        assert (tmp_path / "after.json").read_bytes() == path.read_bytes()

    def test_no_unigram_table_raises(self):
        model = NGramModel(order=3, alpha=0.5, sizes=(2, 2), counts={(1,): Counter({2: 1})},
                           totals={(1,): 1})
        assert model.score_next([(0, 1), (1,)]).shape == (2, 4)
        for contexts in ([(0,)], [(1,), ()], [(3, 2)]):
            with pytest.raises(RecommenderError, match="no unigram table"):
                model.score_next(contexts)

    @pytest.mark.filterwarnings("ignore:divide by zero encountered in log:RuntimeWarning")
    def test_compiled_model_equals_the_memoised_rows(self):
        """Rows and searches bit for bit against the model as it was before
        it was compiled, over orders 1-4, tiny and huge alpha, short contexts
        and contexts with untrained tokens, beams below and above n_sids,
        constrained and unconstrained."""
        alphas = (1e-300, 1e-3, 0.5, 7.0, 1e300, sys.float_info.max)
        for trial in range(60):
            gen = np.random.default_rng(4000 + trial)
            sizes, assign, split = random_case(gen)
            trie = build_trie(assign)
            vocab = sum(sizes)
            for order in (1, 2, 3, 4):
                try:
                    model = train_ngram(split, assign, sizes, order, alphas[(trial + order) % len(alphas)])
                except RecommenderError:
                    continue  # nothing to train on
                memoised = MemoisedModel(model)
                unseen = [t for t in range(vocab) if (t,) not in model.totals]
                contexts = [
                    (),
                    tuple(int(t) for t in gen.integers(vocab, size=max(order - 2, 0))),
                    tuple(int(t) for t in gen.integers(vocab, size=order + 3)),
                    tuple(int(t) for t in gen.integers(vocab, size=2)) + tuple(unseen[-1:]),
                    *model.counts,
                ]
                rows = model.score_next(contexts)
                for ctx, row in zip(contexts, rows):
                    assert row.tobytes() == memoised.score_next(ctx).tobytes(), f"trial {trial} {ctx}"
                for unconstrained in (False, True):
                    for beam_size in sorted({1, max(trie.n_sids - 1, 1), trie.n_sids + 3}):
                        top_k = int(gen.integers(1, beam_size + 1))
                        for ctx in contexts[:4]:
                            args = (ctx, trie, beam_size, top_k, sizes, unconstrained)
                            want = memoised_beam_search(memoised, *args)
                            got = beam_search(model, *args)
                            assert [(t, s.hex()) for t, s in got] == [(t, s.hex()) for t, s in want], (
                                f"trial {trial} order {order} beam {beam_size} ctx {ctx}")


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

    def test_beam_size_validated_with_no_user_to_search(self):
        assign = assignment_from_sids({"a": (0,)})
        trie = build_trie(assign)
        model = train_ngram(split_of({"u": ["a", "a", "a"]}), assign, (1,), order=1, alpha=0.1)
        nobody = split_of({"v": ["a", "a", "x"]})
        assert evaluate(model, nobody, assign, trie, (1,), ks=(1,), beam_size=1).n_excluded == 1
        with pytest.raises(RecommenderError, match="beam_size must be >= 1, not 0"):
            evaluate(model, nobody, assign, trie, (1,), ks=(1,), beam_size=0)

    def test_ngram_level_sizes_must_be_the_models(self):
        assign = assignment_from_sids({"a": (0, 1), "b": (1, 0), "c": (3, 5)})
        trie = build_trie(assign)
        split = split_of({"u": ["a", "b", "a", "c"], "v": ["b", "b", "a", "a"]})
        # Too small a vocabulary once indexed past its end; too large a one
        # read the second level's scores at the wrong offsets.
        for ngram_sizes in ((2, 2), (4, 8, 2), (5, 8)):
            model = NGramModel(order=2, alpha=0.1, sizes=ngram_sizes, counts={(): Counter({1: 3})},
                               totals={(): 3})
            named = re.escape(f"level sizes {list(ngram_sizes)} are not the SID levels' [4, 8]")
            with pytest.raises(RecommenderError, match=named):
                evaluate(model, split, assign, trie, (4, 8), ks=(1,), beam_size=2)


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
