"""Next-item prediction over SID tokens: a smoothed back-off n-gram baseline,
trie-constrained beam search, and HR@K / NDCG@K evaluation.

All SID tokens are level-tagged: token t at level h maps to the global id
offset_h + t, so the same integer at different levels stays distinct. A
sequence model scores the next global token given a flattened context; beam
search expands level by level, restricted to trie children, so only catalog
SIDs can be generated.

Speed without changing a bit of the results:
- Training gathers the users' token streams from the assignment's token
  matrix in one step, and counts each context length's (context, token)
  windows by sorting one packed integer key per window, a run of equal keys
  being one count. The
  counts keep that form to the file and back, with no separate totals: a
  read-only (k, 2) int64 array of (token, count) rows per context, tokens
  ascending. Loading reads the top level as an `NGramFile` and rejects a
  count or a context total of 2**63 or more.
- A score row depends only on the back-off context that the last order - 1
  tokens resolve to. The model compiles once into a fill value per trained
  context, for every token it never counted, and CSR arrays of its counted
  tokens' log-probabilities, each bit-equal to a dense row's entry, and
  `NGramModel.score_next` scores a batch of contexts in one call.
- `rq.build_trie` compiles the trie into per-level CSR arrays, and
  `beam_search` expands a whole level at once: it scores every hypothesis
  with one `score_next` call, gathers every child's score from its
  hypothesis's row, adds it to the hypothesis score with the same float64
  addition as a token-by-token walk, and ranks the candidates with one
  lexsort on (-score, node), the trie's nodes being in token order.
- `split_rows`, the one place a split becomes assignment rows, looks up
  each distinct item id's row once and gathers and masks the split's item
  codes, giving each user's history as a CSR of rows: one map per
  evaluation that every stage-5 function reads.
- `evaluate` searches once per n-gram state, the last order - 1 tokens of
  a user's context, gathered from the histories' rows, and gives that
  ranking to every user with the state. It is exact: the state of the
  context extended by a beam's tokens is the state of the state extended by
  them, so every row, score and tie-break of the search is the same.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from .datamodel import (SplitDataset, atomic_open, from_json, is_json_int, is_json_number, names_file,
                        read_json_object)
from .rq import SidAssignment, SidSequence, SidTrie


class RecommenderError(ValueError):
    """Raised for invalid model, search, or evaluation inputs."""


# A count key in ngram.json: a token id in canonical decimal, short enough to
# convert without the interpreter's digit limit.
_TOKEN_KEY = re.compile(r"0|[1-9][0-9]{0,17}")


def check_settings(*, ks=(1,), beam_size: int = 1, order: int = 1, alpha: float = 1.0, sizes=(1,)) -> None:
    """Raise RecommenderError, naming the setting, when the evaluation's `ks`
    or `beam_size`, or the n-gram's `order`, `alpha` or level `sizes`, is out
    of range. The `eval` config section and load_ngram run the same checks."""
    if not ks or min(ks) < 1:
        raise RecommenderError(f"ks must be a non-empty list of cutoffs >= 1, not {list(ks)}")
    if beam_size < 1:
        raise RecommenderError(f"beam_size must be >= 1, not {beam_size}")
    if order < 1:
        raise RecommenderError(f"order must be >= 1, not {order}")
    if not 0.0 < alpha <= sys.float_info.max:
        raise RecommenderError(f"alpha must be a finite number > 0, not {alpha}")
    if not sizes or min(sizes) < 1:
        raise RecommenderError(f"sizes must be a non-empty list of level sizes >= 1, not {list(sizes)}")


def level_offsets(sizes) -> tuple[int, ...]:
    """Global-id offset of each level's token block."""
    offsets = [0]
    for k in tuple(sizes)[:-1]:
        offsets.append(offsets[-1] + int(k))
    return tuple(offsets)


def _global_tokens(assign: SidAssignment, offsets) -> np.ndarray:
    """The (items, levels) matrix of global token ids: the assignment's token
    matrix plus each level's offset."""
    if len(assign) and assign.tokens.shape[1] != len(offsets):
        raise RecommenderError(f"the SIDs have {assign.tokens.shape[1]} levels, not {len(offsets)}")
    return assign.tokens.reshape(len(assign), len(offsets)) + np.array(offsets, dtype=np.int64)


def split_rows(split: SplitDataset, assign: SidAssignment, include_validation: bool):
    """`(user_ids, rows, ends, test)`, the one map from a split to assignment
    rows: the split's users, in sorted order; user i's history, its train
    items then its validation item when included, less the items with no
    SID, is `rows[ends[i - 1]:ends[i]]` (from 0 for i = 0); `test[i]` is its
    test item's row, or -1 when that has no SID."""
    rows = np.fromiter(map(assign.row_of.get, split.item_ids, itertools.repeat(-1)), np.int64)[split.items]
    last = split.ends - 1  # each user's test item
    history = rows >= 0
    history[last] = False
    if not include_validation:
        history[last - 1] = False
    return split.user_ids, rows[history], history.cumsum()[last], rows[last]


@dataclass(frozen=True, eq=False)
class NGramModel:
    """Back-off n-gram with additive smoothing over the global SID vocabulary.

    `counts` maps each trained context to a read-only (k, 2) int64 array of
    (token, count) rows, tokens ascending; a context's total is their sum.
    Scoring uses the longest trained context that matches a suffix of the
    query context, falling back level by level down to the unigram table.
    The model compiles into arrays on first use, and is frozen so that they
    cannot go stale. Models compare by identity (`eq=False`), arrays having
    no dataclass equality.
    """

    order: int
    alpha: float
    sizes: tuple[int, ...]
    counts: dict[tuple[int, ...], np.ndarray]

    @functools.cached_property
    def vocab_size(self) -> int:
        """Summed on first read and kept; not a field, so not in the repr or file."""
        return sum(self.sizes)

    @functools.cached_property
    def _compiled(self) -> tuple[dict, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(context ids, indptr, tokens, logp, fill), kept like vocab_size.
        Context i's counted tokens are tokens[indptr[i]:indptr[i + 1]], each
        with logp log((alpha + count) / d); every other token has fill[i] =
        log(alpha / d), where d = total + alpha * vocab_size: the float64
        operations of a dense row."""
        rows = list(self.counts.values())
        indptr = np.cumsum([0, *map(len, rows)])
        tokens, counts = np.concatenate([np.empty((0, 2), np.int64), *rows]).T
        # Each total is below 2**63, so the difference of the int64 running
        # sums is exact even where the running sum wraps.
        summed = np.concatenate(([0], counts.cumsum()))
        denominators = (summed[indptr[1:]] - summed[indptr[:-1]]) + self.alpha * self.vocab_size
        logp = np.log((self.alpha + counts) / np.repeat(denominators, np.diff(indptr)))
        fill = np.log(self.alpha / denominators)
        return {ctx: i for i, ctx in enumerate(self.counts)}, indptr, tokens, logp, fill

    def state(self, context) -> tuple[int, ...]:
        """The last order - 1 tokens of a context (a sequence), all of it that
        `score_next` reads. A context extended by any tokens has the state of
        its state extended by them."""
        # context[-0:] would be the whole context
        return tuple(context[-(self.order - 1):]) if self.order > 1 else ()

    def score_next(self, contexts) -> np.ndarray:
        """Read-only (len(contexts), vocab_size) log-probabilities over the
        global vocabulary, one row per context (a sequence); each row sums to
        one after exponentiation and is a pure function of the context's
        state. A single row is `score_next([context])[0]`."""
        index, indptr, tokens, logp, fill = self._compiled
        ids = []
        for context in contexts:
            ctx = self.state(context)
            while (i := index.get(ctx)) is None:
                if not ctx:
                    raise RecommenderError("model has no unigram table; was it trained?")
                ctx = ctx[1:]
            ids.append(i)
        ids = np.array(ids, dtype=np.int64)
        starts = indptr[ids]
        n_counted = indptr[ids + 1] - starts
        rows = fill[ids].repeat(self.vocab_size).reshape(ids.size, self.vocab_size)
        entry = np.arange(n_counted.sum()) + (starts - n_counted.cumsum() + n_counted).repeat(n_counted)
        rows[np.arange(ids.size).repeat(n_counted), tokens[entry]] = logp[entry]
        rows.setflags(write=False)
        return rows


def _sorted_runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(the distinct keys ascending, how often each occurs); sorts keys in place."""
    keys.sort()
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.diff(starts, append=len(keys))


def train_ngram(user_rows, assign: SidAssignment, sizes, order: int, alpha: float) -> NGramModel:
    """Accumulate context counts over every user's flattened history in
    `user_rows`, `split_rows`'s map: its train sequence, extended by the
    validation item when the map includes it. Test items never enter.

    Each window of tokens is one packed integer key, its first token the most
    significant digit in base vocab_size, so key order is window order; each
    context length extends the keys in place by one token. Keys that one more
    token would take past their type's range are first replaced by their
    dense ranks, which keep the order. For each length the keys of the
    windows that lie inside one user's history are sorted, and each run of
    equal keys is one count. A context is a window counted at the length
    before, so its name is taken from there; the last length names none."""
    check_settings(order=order, alpha=alpha)
    sizes = tuple(int(k) for k in sizes)
    vocab_size = sum(sizes)
    flat = _global_tokens(assign, level_offsets(sizes))
    if flat.size and not (flat.min() >= 0 and flat.max() < vocab_size):
        raise RecommenderError(f"a SID token lies outside the level sizes {list(sizes)}")
    _, item_rows, ends, _ = user_rows
    lengths = np.diff(ends, prepend=0) * flat.shape[1]
    if not lengths.any():
        raise RecommenderError("no training tokens; empty split or assignment")
    # The narrowest types that hold every token and every key keep the copies small.
    tokens = flat.astype(np.min_scalar_type(vocab_size - 1))[item_rows].ravel()
    last = min(order, int(lengths.max())) - 1
    keys = tokens.astype(np.uint32 if vocab_size ** (last + 1) <= 2**32 else np.uint64)
    bound = vocab_size  # every key is below it
    user_start = np.zeros(tokens.size, dtype=bool)
    user_start[(np.cumsum(lengths) - lengths)[lengths > 0]] = True
    # inside[s]: the window of the current length starting at s lies in one user
    inside = np.ones(tokens.size, dtype=bool)
    # The distinct windows of the length before, as sorted keys and as names.
    named, names = np.zeros(1, dtype=keys.dtype), [()]
    counts: dict[tuple[int, ...], np.ndarray] = {}
    for length in range(last + 1):
        if length:
            if bound * vocab_size > 2 ** (8 * keys.itemsize):
                distinct, ranks = np.unique(keys, return_inverse=True)
                keys, bound = ranks.reshape(-1).astype(keys.dtype), len(distinct)
                named = np.searchsorted(distinct, named).astype(keys.dtype)
            keys = keys[:-1]
            keys *= vocab_size
            keys += tokens[length:]
            bound *= vocab_size
            inside = inside[:-1] & ~user_start[length:]
        runs, run_counts = _sorted_runs(keys[inside])  # the copy of the keys is gone on return
        rows = np.empty((len(runs), 2), dtype=np.int64)
        rows[:, 0], rows[:, 1] = runs % vocab_size, run_counts
        rows.setflags(write=False)
        # A context's runs start at its key with one more token 0 appended.
        firsts = np.searchsorted(runs, named * vocab_size).tolist()
        spans = [(name, a, b) for name, a, b in zip(names, firsts, [*firsts[1:], len(runs)]) if a < b]
        for name, a, b in spans:
            counts[name] = rows[a:b]
        if length < last:
            run_tokens = rows[:, 0].tolist()
            names = [name + (t,) for name, a, b in spans for t in run_tokens[a:b]]
            named = runs
    return NGramModel(order=order, alpha=float(alpha), sizes=sizes, counts=counts)


@dataclass(frozen=True)
class NGramFile:
    """ngram.json's top level; load_ngram checks each {"ctx", "counts"} context."""

    format: str
    order: int
    alpha: float
    sizes: tuple[int, ...]
    contexts: list


def save_ngram(model: NGramModel, path) -> None:
    """The bytes of `json.dump(payload, fh, sort_keys=True)` over the format,
    order, alpha, sizes and one {"counts", "ctx"} record per sorted context,
    written one context at a time. A count renders as `"<token>": <count>`;
    the quote sorts below every digit, so a plain string sort of the cells is
    json's key order."""
    with atomic_open(path, encoding="utf-8", newline="\n") as fh:
        fh.write(f'{{"alpha": {json.dumps(model.alpha)}, "contexts": [')
        for i, ctx in enumerate(sorted(model.counts)):
            cells = ", ".join(sorted('"%d": %d' % (t, c) for t, c in model.counts[ctx].tolist()))
            fh.write('%s{"counts": {%s}, "ctx": %s}' % (", " if i else "", cells, list(map(int, ctx))))
        fh.write(
            f'], "format": "sidforge-ngram-v1", "order": {json.dumps(model.order)}, '
            f'"sizes": {json.dumps(list(model.sizes))}}}\n'
        )


def load_ngram(path) -> NGramModel:
    with names_file(path, RecommenderError):
        payload = read_json_object(path, RecommenderError, "n-gram file")
        if payload.get("format") != "sidforge-ngram-v1":
            raise RecommenderError(f"unsupported n-gram format {payload.get('format')!r}")
        header = from_json(NGramFile, payload, RecommenderError, "n-gram file")
        check_settings(order=header.order, alpha=header.alpha, sizes=header.sizes)
        vocab_size = sum(header.sizes)
        counts: dict[tuple[int, ...], np.ndarray] = {}
        for i, entry in enumerate(header.contexts):
            where = f"n-gram context #{i}"
            if not (isinstance(entry, dict) and isinstance(entry.get("ctx"), list)
                    and isinstance(entry.get("counts"), dict)):
                raise RecommenderError(f"{where} is not an object with a 'ctx' list and a 'counts' object")
            ctx = entry["ctx"]
            if len(ctx) >= header.order or not all(is_json_int(t) and 0 <= t < vocab_size for t in ctx):
                raise RecommenderError(
                    f"{where}: {ctx!r} is not a list of at most {header.order - 1} tokens in [0, {vocab_size})"
                )
            if tuple(ctx) in counts:
                raise RecommenderError(f"{where}: context {ctx} appears twice")
            rows, total = [], 0
            for key, count in entry["counts"].items():
                if not _TOKEN_KEY.fullmatch(key) or int(key) >= vocab_size:
                    raise RecommenderError(
                        f"{where}: token {key} is not a canonical decimal integer"
                        f" in the vocabulary [0, {vocab_size})"
                    )
                if not is_json_int(count) or not 1 <= count < 2**63:
                    raise RecommenderError(
                        f"{where}: token {key} has count {count!r}, not an integer in [1, 2**63)"
                    )
                total += count
                if total >= 2**63:
                    raise RecommenderError(f"{where}: the counts up to token {key} sum to 2**63 or more")
                rows.append((int(key), count))
            counts[tuple(ctx)] = np.array(sorted(rows), dtype=np.int64).reshape(-1, 2)
            counts[tuple(ctx)].setflags(write=False)
        return NGramModel(order=header.order, alpha=header.alpha, sizes=header.sizes, counts=counts)


def beam_search(
    model,
    context,
    trie: SidTrie,
    beam_size: int,
    top_k: int,
    sizes,
    unconstrained: bool = False,
) -> list[tuple[SidSequence, float]]:
    """Top SID hypotheses by cumulative log-probability.

    Expands exactly trie.depth steps. Candidate tokens are the trie's next
    tokens after each hypothesis (or the whole level vocabulary when
    unconstrained). Ties break lexicographically on the token sequence. May
    return fewer than top_k results if the trie has fewer SIDs.

    Each level is expanded for all hypotheses at once: one `score_next` call
    for all their rows, every child's score as its row entry added to the
    hypothesis score (the same float64 sums as a token-by-token walk), and a
    lexsort on (-score, tokens), a total order, picks the next beam; under
    the trie, whose nodes are numbered in prefix order, on (-score, node).
    """
    if top_k < 1 or beam_size < top_k:
        raise RecommenderError("need beam_size >= top_k >= 1")
    if trie.n_sids == 0:
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
        rows = model.score_next([ctx + tuple(g) for g in (tokens + offsets[:level]).tolist()])
        if unconstrained:
            first, n_children = 0, np.full(nodes.size, sizes[level])
        else:
            indptr, children = trie.levels[level]
            first = indptr[nodes]
            n_children = indptr[nodes + 1] - first
        parent = np.arange(nodes.size).repeat(n_children)
        # child[j]: position of candidate j in its level's token array (the
        # token itself when unconstrained), i.e. its node at the next depth
        child = np.arange(parent.size) + (first - n_children.cumsum() + n_children)[parent]
        child_tokens = child if unconstrained else children[child]
        candidates = scores[parent] + rows[parent, offsets[level] + child_tokens]
        ties = np.column_stack((tokens[parent], child)).T[::-1] if unconstrained else (child,)
        best = np.lexsort((*ties, -candidates))[:beam_size]
        nodes, scores = child[best], candidates[best]
        tokens = np.concatenate((tokens[parent[best]], child_tokens[best, None]), axis=1)
    return [(tuple(t), s) for t, s in zip(tokens[:top_k].tolist(), scores[:top_k].tolist())]


def _ndcg_gain(rank: int) -> float:
    return 1.0 / math.log2(rank + 1)


@dataclass(frozen=True)
class MetricsReport:
    hr: dict[int, float]
    ndcg: dict[int, float]
    n_users: int
    n_excluded: int
    beam_shortfalls: int
    per_user_ranks: dict[str, int]  # 1-based rank, 0 for a miss

    def to_dict(self) -> dict:
        out: dict = {}
        for k in sorted(self.hr):
            out[f"HR@{k}"] = self.hr[k]
        for k in sorted(self.ndcg):
            out[f"NDCG@{k}"] = self.ndcg[k]
        out["n_users"] = self.n_users
        out["n_excluded"] = self.n_excluded
        out["beam_shortfalls"] = self.beam_shortfalls
        return out


def _metrics_from_ranks(ranks: dict[str, int], ks, n_excluded: int, shortfalls: int) -> MetricsReport:
    ordered = [ranks[user_id] for user_id in sorted(ranks)]
    n = len(ordered)
    hr: dict[int, float] = {}
    ndcg: dict[int, float] = {}
    for k in sorted(int(k) for k in ks):
        hits = [rank for rank in ordered if 0 < rank <= k]
        gain = 0.0  # one gain at a time, in user-id order
        for rank in hits:
            gain += _ndcg_gain(rank)
        hr[k] = len(hits) / n if n else 0.0
        ndcg[k] = gain / n if n else 0.0
    return MetricsReport(
        hr=hr,
        ndcg=ndcg,
        n_users=n,
        n_excluded=n_excluded,
        beam_shortfalls=shortfalls,
        per_user_ranks=ranks,
    )


def evaluate(
    model,
    user_rows,
    assign: SidAssignment,
    trie: SidTrie,
    sizes,
    ks=(5, 10),
    beam_size: int = 20,
    unconstrained: bool = False,
) -> MetricsReport:
    """Next-SID generation for every user with a test SID, and macro-averaged
    HR/NDCG.

    `user_rows` is `split_rows(split, assign, include_validation)`. The
    context is the user's flattened history token sequence; the target is the
    test item's SID. A generated SID counts as a hit whenever the target item
    maps to it, collisions included. NDCG uses binary relevance with gain
    1/log2(rank + 1) and ideal DCG 1.

    Every row the search scores depends only on the context's n-gram state,
    so users who share a state share a ranking: each state is searched once,
    with the state as the context. The n-gram's level sizes must be `sizes`.
    """
    check_settings(ks=ks, beam_size=beam_size)
    sizes = tuple(int(k) for k in sizes)
    if model.sizes != sizes:
        raise RecommenderError(
            f"the n-gram's level sizes {list(model.sizes)} are not the SID levels' {list(sizes)}"
        )
    top_k = min(beam_size, max(ks))
    flat = _global_tokens(assign, level_offsets(sizes))
    user_ids, rows, ends, test = user_rows
    # User i's tokens are positions [ends[i - 1], ends[i]) * levels of the
    # histories' token stream; only its state, their last order - 1, is
    # gathered.
    ends = ends * len(sizes)
    width = np.minimum(np.diff(ends, prepend=0), model.order - 1)
    at = np.arange(width.sum()) + (ends - width.cumsum()).repeat(width)
    states = flat[rows[at // len(sizes)], at % len(sizes)].tolist()
    sids = assign.tokens.tolist()
    rankings: dict[tuple[int, ...], list[SidSequence]] = {}
    ranks: dict[str, int] = {}
    excluded = 0
    shortfalls = 0
    bounds = width.cumsum().tolist()
    for user_id, start, end, test_row in zip(user_ids, [0, *bounds], bounds, test.tolist()):
        if test_row < 0:
            excluded += 1
            continue
        state = tuple(states[start:end])
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


def popularity_ranking(user_rows, assign: SidAssignment) -> list[SidSequence]:
    """Catalog SIDs ranked by their frequency in the histories of `user_rows`,
    `split_rows`'s map (ties lexicographic).
    A static list: every user sees the same ranking. np.unique sorts the
    distinct SIDs, so a stable sort on the negated counts keeps ties in order."""
    distinct, index = np.unique(assign.tokens, axis=0, return_inverse=True)
    _, rows, _, _ = user_rows
    # The inverse's shape changed between numpy 2.0 releases; flatten it.
    counts = np.bincount(index.reshape(-1)[rows], minlength=len(distinct))
    return list(map(tuple, distinct[np.argsort(-counts, kind="stable")].tolist()))


def evaluate_static_ranking(
    ranked: list[SidSequence], user_rows, assign: SidAssignment, ks=(5, 10)
) -> MetricsReport:
    """HR/NDCG for a fixed SID ranking shared by all users of `split_rows`'s
    map, with the same hit semantics as evaluate()."""
    check_settings(ks=ks)
    position_of = {sid: i + 1 for i, sid in enumerate(ranked)}
    user_ids, _, _, test = user_rows
    sids = assign.tokens.tolist()
    ranks = {user_id: position_of.get(tuple(sids[row]), 0)
             for user_id, row in zip(user_ids, test.tolist()) if row >= 0}
    return _metrics_from_ranks(ranks, ks, len(user_ids) - len(ranks), 0)


def load_metrics(path) -> dict:
    """A saved metrics.json, {model: {metric: value}}; RecommenderError names
    the file and key of an entry that is not an object or an HR/NDCG value
    that is not a number."""
    with names_file(path, RecommenderError):
        payload = read_json_object(path, RecommenderError, "metrics file")
        for model, values in payload.items():
            if not isinstance(values, dict):
                raise RecommenderError(f"{model!r} is not an object")
            for key, value in values.items():
                if key.startswith(("HR@", "NDCG@")) and not is_json_number(value):
                    raise RecommenderError(f"{model}.{key} is {value!r}, not a number")
    return payload


def write_metrics_csv(report: MetricsReport, path) -> None:
    with atomic_open(path, encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["metric", "K", "value", "n_users"])
        for k in sorted(report.hr):
            writer.writerow(["HR", k, repr(report.hr[k]), report.n_users])
        for k in sorted(report.ndcg):
            writer.writerow(["NDCG", k, repr(report.ndcg[k]), report.n_users])
