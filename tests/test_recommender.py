from __future__ import annotations

import csv
import itertools
import json
import math
import re
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from conftest import assignment_from_sids, ngram_dicts, ngram_model, sid_map, split_of, user_splits
from sidforge import recommender
from sidforge.datamodel import SplitDataset
from sidforge.recommender import (
    MetricsReport,
    NGramModel,
    RecommenderError,
    _global_tokens,
    _metrics_from_ranks,
    beam_search,
    check_settings,
    evaluate,
    evaluate_static_ranking,
    level_offsets,
    load_ngram,
    popularity_ranking,
    save_ngram,
    split_rows,
    train_ngram,
    write_metrics_csv,
)
from sidforge.rq import SidAssignment, SidTrie, build_trie, sorted_prefixes


def same_model(a, b) -> bool:
    """Equal order, alpha, sizes, counts and totals."""
    return (a.order, a.alpha, a.sizes, ngram_dicts(a)) == (b.order, b.alpha, b.sizes, ngram_dicts(b))


def flatten_sid(sid, offsets) -> tuple[int, ...]:
    """recommender.flatten_sid before the token matrix, verbatim."""
    return tuple(offsets[h] + int(t) for h, t in enumerate(sid))


def user_context(user_train, validation, flat, include_validation: bool) -> tuple[int, ...]:
    """recommender.user_context before train_ngram gathered its streams from
    the token matrix, verbatim: a user's flattened global-token context,
    oldest item first, from the `flat_sids` mapping. Items without a SID are
    skipped."""
    items = list(user_train) + ([validation] if include_validation else [])
    tokens: list[int] = []
    for item in items:
        sid = flat.get(item)
        if sid is not None:
            tokens.extend(sid)
    return tuple(tokens)


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
        model = train_ngram(split_rows(split, assign, False), assign, sizes=(2,), order=2, alpha=0.5)
        # train sequence is a b a -> tokens 0 1 0
        counts, totals = ngram_dicts(model)
        assert totals[()] == 3
        assert counts[()] == {0: 2, 1: 1}
        assert counts[(0,)] == {1: 1}
        assert counts[(1,)] == {0: 1}
        # unigram: p = (count + alpha) / (total + alpha * V)
        probs = np.exp(model.score_next([()])[0])
        assert probs == pytest.approx([(2 + 0.5) / 4, (1 + 0.5) / 4])
        # bigram after token 0
        probs = np.exp(model.score_next([(0,)])[0])
        assert probs == pytest.approx([0.5 / 2, 1.5 / 2])

    def test_backoff_to_unigram_on_unseen_context(self):
        assign = assignment_from_sids({"a": (0,), "b": (1,)})
        split = split_of({"u": ["a", "a", "a", "a", "a"]})
        model = train_ngram(split_rows(split, assign, False), assign, sizes=(2,), order=3, alpha=1.0)
        unseen, unigram = np.exp(model.score_next([(1, 1), ()]))
        assert unseen == pytest.approx(unigram)

    def test_include_validation_extends_counts(self):
        assign = assignment_from_sids({"a": (0,), "b": (1,)})
        split = split_of({"u": ["a", "a", "b", "b"]})
        without = train_ngram(split_rows(split, assign, False), assign, (2,), order=1, alpha=0.1)
        with_val = train_ngram(split_rows(split, assign, True), assign, (2,), order=1, alpha=0.1)
        assert ngram_dicts(without)[1][()] == 2
        assert ngram_dicts(with_val)[1][()] == 3
        assert ngram_dicts(with_val)[0][()][1] == 1

    def test_distribution_sums_to_one(self):
        assign = assignment_from_sids({"a": (0, 1), "b": (1, 0)})
        split = split_of({"u": ["a", "b", "a", "b"]})
        model = train_ngram(split_rows(split, assign, False), assign, (2, 2), order=4, alpha=0.3)
        for ctx in ((), (0,), (3, 2), (1, 1, 1)):
            assert float(np.exp(model.score_next([ctx])[0]).sum()) == pytest.approx(1.0)

    def test_empty_training_rejected(self):
        assign = assignment_from_sids({"z": (0,)})
        split = split_of({"u": ["a", "b", "c"]})  # nothing assigned
        with pytest.raises(RecommenderError):
            train_ngram(split_rows(split, assign, False), assign, (1,), order=2, alpha=0.1)

    def test_roundtrip(self, tmp_path):
        assign = assignment_from_sids({"a": (0, 1), "b": (1, 0), "c": (0, 0)})
        split = split_of({"u": ["a", "b", "c", "a", "b"], "v": ["c", "c", "a", "b", "c"]})
        model = train_ngram(split_rows(split, assign, False), assign, (2, 2), order=3, alpha=0.25)
        path = tmp_path / "ng.json"
        save_ngram(model, path)
        back = load_ngram(path)
        assert back.order == model.order
        assert back.alpha == model.alpha
        assert back.sizes == model.sizes
        assert ngram_dicts(back) == ngram_dicts(model)
        # Contexts with no counts, and a file with no contexts.
        for counts in ({(): {}, (1,): {3: 2, 0: 1}, (2,): {}}, {}):
            model = ngram_model(2, 0.5, (4,), counts)
            save_ngram(model, path)
            assert same_model(load_ngram(path), model)

    def test_save_bytes_match_json_dump(self, tmp_path):
        """save_ngram writes exactly what one json.dump of the whole payload
        (the pure-Python encoder) wrote."""
        gen = np.random.default_rng(4)
        items = {f"i{k}": (k % 12, k // 12) for k in range(36)}
        assign = assignment_from_sids(items)
        for order, alpha in ((1, 0.1), (2, 1e-300), (3, 0.1), (4, 2.5)):
            users = {f"u{u}": [f"i{k}" for k in gen.integers(36, size=gen.integers(3, 12))]
                     for u in range(20)}
            user_rows = split_rows(split_of(users), assign, False)
            model = train_ngram(user_rows, assign, (12, 3), order=order, alpha=alpha)
            counts = ngram_dicts(model)[0]
            payload = {
                "format": "sidforge-ngram-v1",
                "order": model.order,
                "alpha": model.alpha,
                "sizes": list(model.sizes),
                "contexts": [
                    {
                        "ctx": list(ctx),
                        "counts": {str(t): int(c) for t, c in sorted(counts[ctx].items())},
                    }
                    for ctx in sorted(counts)
                ],
            }
            want = tmp_path / "want.json"
            with open(want, "w", encoding="utf-8", newline="\n") as fh:
                json.dump(payload, fh, sort_keys=True)
                fh.write("\n")
            got = tmp_path / "got.json"
            save_ngram(model, got)
            assert got.read_bytes() == want.read_bytes()
            # "10" precedes "2" in the file; loading sorts the tokens again.
            assert same_model(load_ngram(got), model)
            assert (order == 1) == (list(model.counts) == [()])
            assert any({"10", "2"} <= set(row["counts"]) for row in payload["contexts"])

    def test_load_rejects_token_outside_vocabulary(self, tmp_path):
        assign = assignment_from_sids({"a": (0,), "b": (1,)})
        user_rows = split_rows(split_of({"u": ["a", "b", "a", "b"]}), assign, False)
        model = train_ngram(user_rows, assign, (2,), order=2, alpha=0.1)
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
            ({"contexts": [{"ctx": [], "counts": {"0": 2**63}}]}, f"#0: token 0 has count {2**63}"),
            ({"contexts": [{"ctx": [], "counts": {"1": 10**400}}]}, "#0: token 1 has count 1000"),
            ({"contexts": [{"ctx": [], "counts": {"0": 1}},
                           {"ctx": [0], "counts": {"0": 2**62, "1": 2**62}}]},
             r"#1: the counts up to token 1 sum to 2\*\*63 or more"),
        ],
    )
    def test_load_rejects_mistyped_values(self, tmp_path, edit, match):
        assign = assignment_from_sids({"a": (0,), "b": (1,)})
        user_rows = split_rows(split_of({"u": ["a", "b", "a", "b"]}), assign, False)
        model = train_ngram(user_rows, assign, (2,), order=2, alpha=0.1)
        path = tmp_path / "ng.json"
        save_ngram(model, path)
        path.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
        with pytest.raises(RecommenderError, match=match):
            load_ngram(path)

    def test_int64_totals_round_like_python_ints(self, tmp_path):
        """Counts near the int64 limit: the compiled rows, whose totals are
        int64 sums, equal rows built from Python-int totals bit for bit. The
        exact sum of three 2**53 + 1 counts rounds to another float than the
        float64 sum of the three, so a float total would show."""
        big = 2**53 + 1
        path = tmp_path / "ng.json"
        path.write_text(json.dumps({
            "format": "sidforge-ngram-v1", "order": 2, "alpha": 0.5, "sizes": [3],
            "contexts": [
                {"ctx": [], "counts": {"0": big, "2": 2**62}},
                {"ctx": [1], "counts": {"0": big, "1": big, "2": big}},
                {"ctx": [2], "counts": {"1": 2**62, "2": 2**62 - 1}},
            ],
        }))
        model = load_ngram(path)
        assert ngram_dicts(model)[1] == {(): big + 2**62, (1,): 3 * big, (2,): 2**63 - 1}
        assert float(3 * big) != float(big) + float(big) + float(big)
        contexts = [(), (0,), (1,), (2,), (0, 1)]
        for ctx, row in zip(contexts, model.score_next(contexts)):
            assert row.tobytes() == reference_score_next(model, ctx).tobytes(), ctx

    def test_load_names_a_missing_field(self, tmp_path):
        path = tmp_path / "ng.json"
        path.write_text(json.dumps({"format": "sidforge-ngram-v1", "order": 2, "alpha": 0.1}))
        with pytest.raises(RecommenderError, match="sizes"):
            load_ngram(path)

    def test_tokens_outside_the_level_sizes_rejected(self):
        assign = assignment_from_sids({"a": (0,), "b": (3,)})
        with pytest.raises(RecommenderError, match="level sizes"):
            user_rows = split_rows(split_of({"u": ["a", "b", "a", "b"]}), assign, False)
            train_ngram(user_rows, assign, (2,), order=2, alpha=0.1)

    def test_untrained_parameter_validation(self):
        assign = assignment_from_sids({"a": (0,)})
        split = split_of({"u": ["a", "a", "a"]})
        with pytest.raises(RecommenderError):
            train_ngram(split_rows(split, assign, False), assign, (1,), order=0, alpha=0.1)
        with pytest.raises(RecommenderError):
            train_ngram(split_rows(split, assign, False), assign, (1,), order=1, alpha=0.0)


def exhaustive_rank(model, context, trie, sizes, top_k):
    """Oracle: score every SID in the trie by left-to-right accumulation and
    sort by (-score, tokens)."""
    offsets = level_offsets(sizes)
    scored = []
    for tokens in trie.leaves:
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
        model = train_ngram(split_rows(split, assign, False), assign, (4, 3, 3), order=3, alpha=0.2)
        for ctx in ((), (0, 5, 8), (1, 4)):
            want = exhaustive_rank(model, ctx, trie, (4, 3, 3), 10)
            got = beam_search(model, ctx, trie, beam_size=trie.n_sids, top_k=10, sizes=(4, 3, 3))
            assert got == want

    def test_all_results_within_catalog(self):
        assign = assignment_from_sids({"a": (0, 0), "b": (0, 1), "c": (1, 1)})
        trie = build_trie(assign)
        split = split_of({"u": ["a", "b", "c", "a", "b"]})
        model = train_ngram(split_rows(split, assign, False), assign, (2, 2), order=2, alpha=0.1)
        results = beam_search(model, (), trie, beam_size=3, top_k=3, sizes=(2, 2))
        assert {tokens for tokens, _ in results} == {(0, 0), (0, 1), (1, 1)}

    def test_unconstrained_can_leave_catalog(self):
        assign = assignment_from_sids({"a": (0, 0)})
        trie = build_trie(assign)
        split = split_of({"u": ["a", "a", "a", "a"]})
        model = train_ngram(split_rows(split, assign, False), assign, (2, 2), order=1, alpha=5.0)
        results = beam_search(
            model, (), trie, beam_size=4, top_k=4, sizes=(2, 2), unconstrained=True
        )
        assert len(results) == 4
        assert any(tokens not in trie for tokens, _ in results)

    def test_fewer_sids_than_topk(self):
        assign = assignment_from_sids({"a": (0, 0), "b": (1, 1)})
        trie = build_trie(assign)
        split = split_of({"u": ["a", "b", "a", "b"]})
        model = train_ngram(split_rows(split, assign, False), assign, (2, 2), order=1, alpha=0.1)
        results = beam_search(model, (), trie, beam_size=5, top_k=5, sizes=(2, 2))
        assert len(results) == 2

    def test_parameter_validation(self):
        assign = assignment_from_sids({"a": (0,)})
        trie = build_trie(assign)
        split = split_of({"u": ["a", "a", "a"]})
        model = train_ngram(split_rows(split, assign, False), assign, (1,), order=1, alpha=0.1)
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
        model = ngram_model(1, 1.0, (2, 2), {(): {0: 1, 1: 1, 2: 1, 3: 1}})
        results = beam_search(model, (), trie, beam_size=4, top_k=4, sizes=(2, 2))
        assert [tokens for tokens, _ in results] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def reference_score_next(model, context) -> np.ndarray:
    """NGramModel.score_next before rows were memoised, verbatim: the oracle
    for the compiled rows."""
    counts, totals = ngram_dicts(model)
    ctx = tuple(int(t) for t in context)
    longest = min(model.order - 1, len(ctx))
    for length in range(longest, -1, -1):
        suffix = ctx[len(ctx) - length:] if length else ()
        total = totals.get(suffix)
        if total is None:
            continue
        probs = np.full(model.vocab_size, model.alpha, dtype=np.float64)
        for token, count in counts[suffix].items():
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


def trie_children(trie, prefix) -> tuple[int, ...]:
    """The sorted tokens that extend `prefix` towards a catalog SID, read from
    the trie's full SIDs, not from its CSR arrays; () past the last level."""
    n = len(prefix)
    return tuple(sorted({leaf[n] for leaf in trie.leaves if len(leaf) > n and leaf[:n] == tuple(prefix)}))


def reference_beam_search(model, context, trie, beam_size, top_k, sizes, unconstrained=False):
    """beam_search before it was vectorised, verbatim: one Python tuple per
    candidate and one list sort per level."""
    if top_k < 1 or beam_size < top_k:
        raise RecommenderError("need beam_size >= top_k >= 1")
    if trie.n_sids == 0 or not trie_children(trie, ()):
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
            children = range(sizes[level]) if unconstrained else trie_children(trie, tokens)
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
        self.order, self.alpha, (self.counts, self.totals) = model.order, model.alpha, ngram_dicts(model)
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
    if trie.n_sids == 0 or not trie_children(trie, ()):
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


def flat_sids(assign, offsets) -> dict[str, tuple[int, ...]]:
    """recommender.flat_sids before split_rows, verbatim: each assigned item's
    SID as a tuple of global tokens."""
    return dict(zip(assign.item_ids, zip(*recommender._global_tokens(assign, offsets).T.tolist())))


def user_state(model, user_train, validation, flat, include_validation: bool) -> tuple[int, ...]:
    """recommender.user_state before split_rows, verbatim: the n-gram state of
    a user's `flat_sids` tokens (train items, then the validation item when
    included; items without a SID skipped), read from the newest item back
    until the state's order - 1 tokens are found."""
    newest_first = itertools.chain((validation,) if include_validation else (), reversed(user_train))
    tail: list[int] = []
    for sid in filter(None, map(flat.get, newest_first)):
        if len(tail) >= model.order - 1:
            break
        tail[:0] = sid
    return model.state(tail)


def reference_split_rows(split, assign, include_validation):
    """split_rows as a per-user loop: each user's train items (then its
    validation item) that have a SID, as assignment rows."""
    row_of = {item: row for row, item in enumerate(assign.item_ids)}
    user_ids, rows, ends, test = [], [], [], []
    users = user_splits(split)
    for user_id in sorted(users):
        user = users[user_id]
        items = list(user.train) + ([user.validation] if include_validation else [])
        rows.extend(row_of[item] for item in items if item in row_of)
        user_ids.append(user_id)
        ends.append(len(rows))
        test.append(row_of.get(user.test, -1))
    return user_ids, rows, ends, test


def reference_counts(split, assign, sizes, order, include_validation):
    """train_ngram's counting before it sorted windows: the Counter loop."""
    offsets = level_offsets(sizes)
    sids = sid_map(assign)
    counts: dict = {}
    totals: dict = {}
    users = user_splits(split)
    for user_id in sorted(users):
        user = users[user_id]
        items = list(user.train) + ([user.validation] if include_validation else [])
        tokens = tuple(t for item in items if item in sids for t in flatten_sid(sids[item], offsets))
        for i, token in enumerate(tokens):
            for length in range(min(order - 1, i) + 1):
                ctx = tokens[i - length:i]
                if ctx not in counts:
                    counts[ctx] = Counter()
                    totals[ctx] = 0
                counts[ctx][token] += 1
                totals[ctx] += 1
    return counts, totals


def reference_train_ngram(
    split: SplitDataset,
    assign: SidAssignment,
    sizes,
    order: int,
    alpha: float,
    include_validation: bool = False,
) -> NGramModel:
    """train_ngram before it packed each window into one key, verbatim: it
    took the split and sorted the windows' token rows with sorted_prefixes."""
    check_settings(order=order, alpha=alpha)
    sizes = tuple(int(k) for k in sizes)
    vocab_size = sum(sizes)
    flat = _global_tokens(assign, level_offsets(sizes))
    if flat.size and not (flat.min() >= 0 and flat.max() < vocab_size):
        raise RecommenderError(f"a SID token lies outside the level sizes {list(sizes)}")
    _, item_rows, ends, _ = split_rows(split, assign, include_validation)
    lengths = np.diff(ends, prepend=0) * flat.shape[1]
    if not lengths.any():
        raise RecommenderError("no training tokens; empty split or assignment")
    # The narrowest type that holds every token keeps the window copies small.
    tokens = flat.astype(np.min_scalar_type(vocab_size - 1))[item_rows].ravel()
    user_start = np.zeros(tokens.size, dtype=bool)
    user_start[(np.cumsum(lengths) - lengths)[lengths > 0]] = True
    # inside[s]: the window of the current length starting at s lies in one user
    inside = np.ones(tokens.size, dtype=bool)
    counts: dict[tuple[int, ...], np.ndarray] = {}
    for length in range(min(order, int(lengths.max()))):
        if length:
            inside = inside[:-1] & ~user_start[length:]
        ordered, starts = sorted_prefixes(sliding_window_view(tokens, length + 1)[inside])
        # One row per distinct window, and the first of each context's rows.
        runs, ctx_starts = ordered[starts[-1]], np.searchsorted(starts[-1], starts[-2])
        rows = np.empty((len(runs), 2), dtype=np.int64)
        rows[:, 0], rows[:, 1] = runs[:, length], np.diff(starts[-1], append=len(ordered))
        rows.setflags(write=False)
        bounds = [*ctx_starts.tolist(), len(runs)]
        for ctx, a, b in zip(runs[ctx_starts, :length].tolist(), bounds, bounds[1:]):
            counts[tuple(ctx)] = rows[a:b]
    return NGramModel(order=order, alpha=float(alpha), sizes=sizes, counts=counts)


def reference_evaluate_stream(
    model,
    user_rows,
    assign: SidAssignment,
    trie: SidTrie,
    sizes,
    ks=(5, 10),
    beam_size: int = 20,
    unconstrained: bool = False,
) -> MetricsReport:
    """evaluate before it gathered only the users' states, verbatim: it
    listed the histories' whole token stream and sliced each state from it."""
    check_settings(ks=ks, beam_size=beam_size)
    sizes = tuple(int(k) for k in sizes)
    if model.sizes != sizes:
        raise RecommenderError(
            f"the n-gram's level sizes {list(model.sizes)} are not the SID levels' {list(sizes)}"
        )
    top_k = min(beam_size, max(ks))
    flat = _global_tokens(assign, level_offsets(sizes))
    user_ids, rows, ends, test = user_rows
    stream = flat[rows].ravel().tolist()
    sids = assign.tokens.tolist()
    rankings: dict[tuple[int, ...], list[SidSequence]] = {}
    ranks: dict[str, int] = {}
    excluded = 0
    shortfalls = 0
    # A user's tokens are stream[start:end]; its state is their last order - 1.
    bounds = (ends * len(sizes)).tolist()
    for user_id, start, end, test_row in zip(user_ids, [0, *bounds], bounds, test.tolist()):
        if test_row < 0:
            excluded += 1
            continue
        state = tuple(stream[max(start, end - (model.order - 1)):end])
        ranked = rankings.get(state)
        if ranked is None:
            found = beam_search(model, state, trie, beam_size, top_k, sizes, unconstrained=unconstrained)
            ranked = rankings[state] = [tokens for tokens, _ in found]
            if not unconstrained and any(tokens not in trie for tokens in ranked):
                raise RecommenderError("constrained search produced a non-catalog SID")
        if len(ranked) < top_k:
            shortfalls += 1
        target = tuple(sids[test_row])
        ranks[user_id] = ranked.index(target) + 1 if target in ranked else 0
    return _metrics_from_ranks(ranks, ks, excluded, shortfalls)


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
    unconstrained=False,
):
    """evaluate before it searched once per n-gram state, verbatim: one
    beam search per user, over the user's whole context."""
    ks = sorted(int(k) for k in ks)
    if not ks or ks[0] < 1:
        raise RecommenderError("every K must be >= 1")
    top_k = min(beam_size, max(ks))
    flat = flat_sids(assign, level_offsets(sizes))
    sids = sid_map(assign)
    ranks: dict[str, int] = {}
    excluded = 0
    shortfalls = 0
    users = user_splits(split)
    for user_id in sorted(users):
        user = users[user_id]
        if user.test not in sids:
            excluded += 1
            continue
        target = sids[user.test]
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
    return _metrics_from_ranks(ranks, ks, excluded, shortfalls)


def evaluation_case(gen):
    """random_case plus users whose contexts are empty or shorter than
    order - 1 tokens but whose test item has a SID."""
    sizes, assign, split = random_case(gen)
    items = sorted(assign.item_ids)
    extra = {
        "empty_ctx": ["x0", "x1", "x0", items[0]],
        "short_ctx": ["x1", items[-1], "x0", items[0]],
        "one_sid": [items[0], "x0", items[-1]],
    }
    users = {user_id: [*user.train, user.validation, user.test] for user_id, user in user_splits(split).items()}
    return sizes, assign, split_of({**users, **extra})


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
                    train_ngram(split_rows(split, assign, include_validation), assign, sizes, order, 0.5)
                continue
            model = train_ngram(split_rows(split, assign, include_validation), assign, sizes, order, 0.5)
            # ngram_dicts also checks the layout: int tuples, read-only
            # (k, 2) int64 arrays, tokens ascending
            assert ngram_dicts(model) == (counts, totals), f"trial {trial}"
            assert len(model.counts) == len(counts)

    def test_counts_equal_the_sorted_prefix_version(self):
        """The same contexts in the same order, each with the same rows. Every
        fifth case has a vocabulary of 70,300 tokens, whose keys are ranked
        before a fourth token."""
        for trial in range(60):
            gen = np.random.default_rng(3000 + trial)
            sizes, assign, split = random_case(gen)
            if trial % 5 == 0:
                sizes = (300, 70000)
                assign = assignment_from_sids({item: (int(gen.integers(300)), int(gen.integers(70000)))
                                               for item in assign.item_ids})
            order, include_validation = int(gen.integers(1, 6)), bool(trial % 2)
            try:
                want = reference_train_ngram(split, assign, sizes, order, 0.5, include_validation)
            except RecommenderError:
                continue
            got = train_ngram(split_rows(split, assign, include_validation), assign, sizes, order, 0.5)
            assert list(got.counts) == list(want.counts), f"trial {trial}"
            for ctx, rows in want.counts.items():
                assert np.array_equal(got.counts[ctx], rows) and not got.counts[ctx].flags.writeable, (trial, ctx)

    def test_training_peaks_below_the_sorted_prefix_version(self):
        """30,000 events of 3-level SIDs over 1,000 items, order 3, traced
        from the split (the map included, which the older version built
        inside). The packed keys copy one integer per window where the
        sorted rows copied order tokens, an index and a sorted copy."""
        gen = np.random.default_rng(3100)
        sizes = (256, 256, 256)
        sids = {f"i{j:04d}": tuple(int(t) for t in gen.integers(256, size=3)) for j in range(1000)}
        assign = assignment_from_sids(sids)
        split = split_of({f"u{u:04d}": [f"i{j:04d}" for j in gen.integers(1000, size=30)] for u in range(1000)})

        def traced_peak(train):
            tracemalloc.start()
            try:
                model = train()
                return tracemalloc.get_traced_memory()[1], model
            finally:
                tracemalloc.stop()

        old_peak, want = traced_peak(lambda: reference_train_ngram(split, assign, sizes, 3, 0.5))
        new_peak, got = traced_peak(
            lambda: train_ngram(split_rows(split, assign, False), assign, sizes, 3, 0.5)
        )
        assert ngram_dicts(got) == ngram_dicts(want)
        assert new_peak < old_peak

    def test_flat_sids_equal_the_per_sid_flatten(self):
        for trial in range(20):
            sizes, assign, _ = random_case(np.random.default_rng(4000 + trial))
            offsets = level_offsets(sizes)
            want = {item: flatten_sid(sid, offsets) for item, sid in sid_map(assign).items()}
            assert flat_sids(assign, offsets) == want

    def test_sid_width_and_range_checked(self):
        assign = assignment_from_sids({"a": (0, 1), "b": (1, 0)})
        split = split_of({"u": ["a", "b", "a", "b"]})
        with pytest.raises(RecommenderError, match="the SIDs have 2 levels, not 1"):
            train_ngram(split_rows(split, assign, False), assign, (4,), order=2, alpha=0.5)
        model = ngram_model(2, 0.5, (2, 2, 2), {(): {}})
        with pytest.raises(RecommenderError, match="the SIDs have 2 levels, not 3"):
            evaluate(model, split_rows(split, assign, True), assign, build_trie(assign), (2, 2, 2), ks=(1,))
        with pytest.raises(RecommenderError, match=re.escape("outside the level sizes [2, 1]")):
            train_ngram(split_rows(split, assign, False), assign, (2, 1), order=2, alpha=0.5)

    def test_counts_exact_for_wide_vocabularies(self):
        # global ids above 255 and above 65535 need wider window types
        sizes = (300, 70000)
        assign = assignment_from_sids({"a": (299, 69999), "b": (1, 65536), "c": (256, 0)})
        split = split_of({"u": ["a", "b", "c", "a", "b", "c", "a"], "v": ["c", "c", "b", "a", "a"]})
        for order in (1, 2, 3, 4):
            model = train_ngram(split_rows(split, assign, False), assign, sizes, order, 0.5)
            assert ngram_dicts(model) == reference_counts(split, assign, sizes, order, False)

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
                user_rows = split_rows(split, assign, False)
                model = train_ngram(user_rows, assign, sizes, order, float(gen.uniform(0.05, 2.0)))
            except RecommenderError:
                # every row uniform, so every score ties and tokens decide
                model = ngram_model(order, 1.0, sizes, {(): {}})
            unseen = [t for t in range(vocab) if (t,) not in model.counts]
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
                user_rows = split_rows(split, assign, False)
                model = train_ngram(user_rows, assign, sizes, order, float(gen.uniform(0.05, 2.0)))
                for unconstrained in (False, True):
                    beam_size = int(gen.integers(1, trie.n_sids + 4))
                    ks = sorted({int(k) for k in gen.integers(1, 8, size=2)})
                    include_validation = bool(gen.integers(2))
                    want = reference_evaluate(model, split, assign, trie, sizes, ks, beam_size,
                                              include_validation, unconstrained)
                    user_rows = split_rows(split, assign, include_validation)
                    got = evaluate(model, user_rows, assign, trie, sizes, ks, beam_size, unconstrained)
                    assert got == want, f"trial {trial} order {order}"
                    assert got == reference_evaluate_stream(model, user_rows, assign, trie, sizes, ks, beam_size,
                                                            unconstrained)
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
            model = train_ngram(split_rows(split, assign, False), assign, sizes, order, 0.3)
            evaluate(model, split_rows(split, assign, True), assign, trie, sizes, ks=(3,), beam_size=4)
            contexts = [
                user_context(user.train, user.validation, flat, True)
                for user in user_splits(split).values() if user.test in assign.row_of
            ]
            states = {ctx[max(len(ctx) - order + 1, 0):] for ctx in contexts}
            assert sorted(searched) == sorted(states), f"order {order}"
        assert model.state((1, 2, 3, 4)) == (2, 3, 4) and model.state([1]) == (1,)
        assert train_ngram(split_rows(split, assign, False), assign, sizes, 1, 0.3).state((1, 2, 3)) == ()

    def test_user_state_is_the_state_of_the_whole_context(self):
        """A user's slice of the split_rows token stream is its whole context,
        and evaluate's state, the slice's last order - 1 tokens, is the
        user_state oracle's."""
        for trial in range(30):
            gen = np.random.default_rng(3000 + trial)
            sizes, assign, split = evaluation_case(gen)
            offsets = level_offsets(sizes)
            flat = flat_sids(assign, offsets)
            for include_validation in (True, False):
                user_ids, rows, ends, _ = split_rows(split, assign, include_validation)
                stream = recommender._global_tokens(assign, offsets)[rows].ravel().tolist()
                bounds = (ends * len(sizes)).tolist()
                users = user_splits(split)
                for user_id, start, end in zip(user_ids, [0, *bounds], bounds):
                    user = users[user_id]
                    whole = user_context(user.train, user.validation, flat, include_validation)
                    assert tuple(stream[start:end]) == whole, f"trial {trial} {user_id}"
                    for order in (1, 2, 3):
                        model = ngram_model(order, 1.0, sizes, {(): {}})
                        got = tuple(stream[max(start, end - (order - 1)):end])
                        want = user_state(model, user.train, user.validation, flat, include_validation)
                        assert got == want == model.state(whole), f"trial {trial} order {order} {user_id}"

    def test_vocab_size_cached_outside_equality_repr_and_file(self, tmp_path):
        assign = assignment_from_sids({f"i{j}": (j % 4, j % 3) for j in range(12)})
        split = split_of({f"u{u}": [f"i{(u * 5 + k) % 12}" for k in range(7)] for u in range(5)})
        model = train_ngram(split_rows(split, assign, False), assign, (4, 3), order=3, alpha=0.2)
        before, path = repr(model), tmp_path / "before.json"
        save_ngram(model, path)
        assert "vocab_size" not in vars(model)
        assert model.vocab_size == 7
        assert vars(model)["vocab_size"] == 7  # kept after the first read
        assert repr(model) == before and "vocab_size" not in before
        assert same_model(model, load_ngram(path))
        save_ngram(model, tmp_path / "after.json")
        assert (tmp_path / "after.json").read_bytes() == path.read_bytes()

    def test_rows_read_only_repeatable_and_bounded(self, tmp_path):
        gen = np.random.default_rng(3)
        assign = assignment_from_sids({f"i{j}": (j % 4, j % 3) for j in range(12)})
        split = split_of({f"u{u}": [f"i{int(gen.integers(12))}" for _ in range(9)] for u in range(6)})
        model = train_ngram(split_rows(split, assign, False), assign, (4, 3), order=3, alpha=0.2)
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
        assert len(fill) == len(model.counts) and len(indptr) == len(fill) + 1
        assert len(tokens) == len(logp) == sum(map(len, model.counts.values()))
        assert repr(model) == before and "_compiled" not in before
        assert same_model(load_ngram(path), model)
        save_ngram(model, tmp_path / "after.json")
        assert (tmp_path / "after.json").read_bytes() == path.read_bytes()

    def test_no_unigram_table_raises(self):
        model = ngram_model(3, 0.5, (2, 2), {(1,): {2: 1}})
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
                    user_rows = split_rows(split, assign, False)
                    model = train_ngram(user_rows, assign, sizes, order, alphas[(trial + order) % len(alphas)])
                except RecommenderError:
                    continue  # nothing to train on
                memoised = MemoisedModel(model)
                unseen = [t for t in range(vocab) if (t,) not in model.counts]
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


class TestSplitRows:
    def test_equals_the_per_user_loop(self):
        for trial in range(40):
            gen = np.random.default_rng(6000 + trial)
            for case in (random_case, evaluation_case):
                _, assign, split = case(gen)
                for include_validation in (True, False):
                    user_ids, rows, ends, test = split_rows(split, assign, include_validation)
                    assert all(a.dtype == np.int64 for a in (rows, ends, test))
                    want = reference_split_rows(split, assign, include_validation)
                    assert (list(user_ids), rows.tolist(), ends.tolist(), test.tolist()) == want, f"trial {trial}"

    def test_hand_case(self):
        """A user with no item that has a SID, one with no train items, and one
        whose test item has no SID; users given out of order."""
        assign = assignment_from_sids({"a": (0, 1), "b": (1, 0), "c": (1, 1)})
        split = split_of({
            "plain": ["c", "b", "a", "b"],
            "no_sids": ["x", "y", "z", "a"],
            "no_train": ["b", "c"],
            "no_test_sid": ["a", "x", "c", "x", "q"],
        })
        users = ["no_sids", "no_test_sid", "no_train", "plain"]
        for include_validation, rows, ends in (
            (True, [0, 2, 1, 2, 1, 0], [0, 2, 3, 6]),
            (False, [0, 2, 2, 1], [0, 2, 2, 4]),
        ):
            got = split_rows(split, assign, include_validation)
            assert (list(got[0]), got[1].tolist(), got[2].tolist(), got[3].tolist()) == (
                users, rows, ends, [0, -1, 2, 1])
            assert reference_split_rows(split, assign, include_validation) == (users, rows, ends, [0, -1, 2, 1])
            model = train_ngram(split_rows(split, assign, include_validation), assign, (2, 2), 3, 0.5)
            assert ngram_dicts(model) == reference_counts(split, assign, (2, 2), 3, include_validation)
            trie = build_trie(assign)
            assert evaluate(model, got, assign, trie, (2, 2), (1, 3), 3) == reference_evaluate(
                model, split, assign, trie, (2, 2), (1, 3), 3, include_validation)
        empty = split_rows(split_of({}), assign, True)
        assert (list(empty[0]), *(a.tolist() for a in empty[1:])) == ([], [], [], [])


class TestMetrics:
    def test_ndcg_rank_three(self):
        report = MetricsReport(
            hr={5: 1.0}, ndcg={5: 1.0 / math.log2(4)}, n_users=1, n_excluded=0, beam_shortfalls=0,
            per_user_ranks={"u": 3},
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
        model = train_ngram(split_rows(split, assign, False), assign, (2, 2), order=1, alpha=0.01)
        report = evaluate(
            model, split_rows(split, assign, True), assign, trie, (2, 2), ks=(1, 5), beam_size=3
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
        model = train_ngram(split_rows(split, assign, False), assign, (2,), order=1, alpha=0.1)
        report = evaluate(model, split_rows(split, assign, True), assign, trie, (2,), ks=(1,), beam_size=2)
        assert report.n_users == 1
        assert report.n_excluded == 1

    def test_collision_counts_as_hit(self):
        # b and t share a SID; predicting the shared SID is a hit for test item t
        assign = assignment_from_sids({"a": (0,), "b": (1,), "t": (1,)})
        trie = build_trie(assign)
        split = split_of({"u": ["b", "b", "b", "b", "t"]})
        model = train_ngram(split_rows(split, assign, False), assign, (2,), order=1, alpha=0.01)
        report = evaluate(model, split_rows(split, assign, True), assign, trie, (2,), ks=(1,), beam_size=2)
        assert report.hr[1] == 1.0

    def test_ks_validated(self):
        assign = assignment_from_sids({"a": (0,)})
        trie = build_trie(assign)
        split = split_of({"u": ["a", "a", "a"]})
        model = train_ngram(split_rows(split, assign, False), assign, (1,), order=1, alpha=0.1)
        with pytest.raises(RecommenderError):
            evaluate(model, split_rows(split, assign, True), assign, trie, (1,), ks=())
        with pytest.raises(RecommenderError):
            evaluate(model, split_rows(split, assign, True), assign, trie, (1,), ks=(0,))

    def test_beam_size_validated_with_no_user_to_search(self):
        assign = assignment_from_sids({"a": (0,)})
        trie = build_trie(assign)
        user_rows = split_rows(split_of({"u": ["a", "a", "a"]}), assign, False)
        model = train_ngram(user_rows, assign, (1,), order=1, alpha=0.1)
        nobody = split_rows(split_of({"v": ["a", "a", "x"]}), assign, True)
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
            model = ngram_model(2, 0.1, ngram_sizes, {(): {1: 3}})
            named = re.escape(f"level sizes {list(ngram_sizes)} are not the SID levels' [4, 8]")
            with pytest.raises(RecommenderError, match=named):
                evaluate(model, split_rows(split, assign, True), assign, trie, (4, 8), ks=(1,), beam_size=2)


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
        ranked = popularity_ranking(split_rows(split, assign, True), assign)
        assert ranked == [(0,), (1,), (2,), (3,)]
        without = popularity_ranking(split_rows(split, assign, False), assign)
        # counts: b=3, a=2
        assert without == [(1,), (0,), (2,), (3,)]

    def test_unseen_sids_tie_lexicographically(self):
        assign = assignment_from_sids({"a": (2,), "b": (0,), "c": (1,)})
        split = split_of({"u": ["a", "a", "a", "a", "a"]})
        ranked = popularity_ranking(split_rows(split, assign, True), assign)
        assert ranked == [(2,), (0,), (1,)]

    def test_ranking_equals_the_counting_loop(self):
        """Heavy collisions (2 or 3 values per level), items without a SID, and
        an empty assignment."""
        for trial in range(40):
            gen = np.random.default_rng(7000 + trial)
            levels = int(gen.integers(1, 4))
            n_items = int(gen.integers(0, 30)) if trial else 0
            sids = {f"i{j}": tuple(int(gen.integers(int(gen.integers(2, 4)))) for _ in range(levels))
                    for j in range(n_items)}
            assign = assignment_from_sids(sids)
            pool = [*sids, "x0", "x1"]
            split = split_of({
                f"u{u}": [pool[int(gen.integers(len(pool)))] for _ in range(int(gen.integers(3, 10)))]
                for u in range(int(gen.integers(1, 8)))
            })
            for include_validation in (True, False):
                want = reference_popularity_ranking(split, assign, include_validation)
                user_rows = split_rows(split, assign, include_validation)
                got = popularity_ranking(user_rows, assign)
                assert got == want, f"trial {trial}"
                assert all(type(t) is int for sid in got for t in sid)
                for ks in ((1,), (2, 5)):
                    assert evaluate_static_ranking(got, user_rows, assign, ks) == (
                        reference_evaluate_static_ranking(want, split, assign, ks)), f"trial {trial}"
        empty = assignment_from_sids({})
        assert popularity_ranking(split_rows(split_of({"u": ["a", "b", "c"]}), empty, True), empty) == []

    def test_static_evaluation(self):
        assign = assignment_from_sids({"a": (0,), "b": (1,), "c": (2,)})
        split = split_of({"u1": ["a", "a", "a", "a", "b"], "u2": ["a", "a", "a", "a", "c"]})
        ranked = [(0,), (1,), (2,)]
        report = evaluate_static_ranking(ranked, split_rows(split, assign, False), assign, ks=(1, 2))
        assert report.hr[1] == 0.0
        assert report.hr[2] == 0.5


def reference_popularity_ranking(split, assign, include_validation=True):
    """popularity_ranking before it counted assignment rows, verbatim: one
    count per SID tuple, from the {item_id: SID} view."""
    sids = sid_map(assign)
    counts = dict.fromkeys(sids.values(), 0)
    for user in user_splits(split).values():
        items = itertools.chain(user.train, (user.validation,) if include_validation else ())
        for sid in filter(None, map(sids.get, items)):
            counts[sid] += 1
    return sorted(counts, key=lambda s: (-counts[s], s))


def reference_evaluate_static_ranking(ranked, split, assign, ks=(5, 10)):
    """evaluate_static_ranking before split_rows, verbatim but for reading
    membership from the `sids` view."""
    position_of = {sid: i + 1 for i, sid in enumerate(ranked)}
    users = user_splits(split)
    sids = sid_map(assign)
    ranks = {user_id: position_of.get(sids[user.test], 0)
             for user_id, user in users.items() if user.test in sids}
    return _metrics_from_ranks(ranks, ks, len(users) - len(ranks), 0)


class TestCsv:
    def test_layout_and_precision(self, tmp_path):
        report = MetricsReport(
            hr={5: 1 / 3, 10: 2 / 3},
            ndcg={5: 0.123456789012345, 10: 0.5},
            n_users=3,
            n_excluded=0,
            beam_shortfalls=0,
            per_user_ranks={"u1": 1, "u2": 6, "u3": 0},
        )
        path = tmp_path / "m.csv"
        write_metrics_csv(report, path)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["metric", "K", "value", "n_users"]
        assert rows[1] == ["HR", "5", repr(1 / 3), "3"]
        assert float(rows[3][2]) == 0.123456789012345
        assert len(rows) == 5
