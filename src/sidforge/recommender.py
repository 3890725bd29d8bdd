"""Next-item prediction over SID tokens: a smoothed back-off n-gram baseline,
trie-constrained beam search, and HR@K / NDCG@K evaluation.

All SID tokens are level-tagged: token t at level h maps to the global id
offset_h + t, so the same integer at different levels stays distinct. A
sequence model scores the next global token given a flattened context; beam
search expands level by level, restricted to trie children, so only catalog
SIDs can be generated.

Speed without changing a bit of the results:
- Training counts each context length's (context, token) windows by sorting
  them and measuring the runs of equal windows, per user, in numpy.
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
- `evaluate` searches once per n-gram state, the last order - 1 tokens of
  a user's context, and gives that ranking to every user with the state.
  It is exact: the state of the context extended by a beam's tokens is the
  state of the state extended by them, so every row, score and tie-break
  of the search is the same.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import re
import sys
from collections import Counter
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .datamodel import SplitDataset, atomic_open, is_json_int
from .rq import SidAssignment, SidSequence, SidTrie


class RecommenderError(ValueError):
    """Raised for invalid model, search, or evaluation inputs."""


# A count key in ngram.json: a token id in canonical decimal, short enough to
# convert without the interpreter's digit limit.
_TOKEN_KEY = re.compile(r"0|[1-9][0-9]{0,17}")


def check_settings(*, ks=(1,), beam_size: int = 1, order: int = 1, alpha: float = 1.0) -> None:
    """Raise RecommenderError, naming the setting, when the evaluation's
    cutoffs `ks` or `beam_size`, or the n-gram's `order` or `alpha`, is out of
    range. The pipeline's `eval` config section runs the same checks."""
    if not ks or min(ks) < 1:
        raise RecommenderError(f"ks must be a non-empty list of cutoffs >= 1, not {list(ks)}")
    if beam_size < 1:
        raise RecommenderError(f"beam_size must be >= 1, not {beam_size}")
    if order < 1:
        raise RecommenderError(f"order must be >= 1, not {order}")
    if not 0.0 < alpha <= sys.float_info.max:
        raise RecommenderError(f"alpha must be a finite number > 0, not {alpha}")


def level_offsets(sizes) -> tuple[int, ...]:
    """Global-id offset of each level's token block."""
    offsets = [0]
    for k in tuple(sizes)[:-1]:
        offsets.append(offsets[-1] + int(k))
    return tuple(offsets)


def flatten_sid(sid: SidSequence, offsets) -> tuple[int, ...]:
    return tuple(offsets[h] + int(t) for h, t in enumerate(sid))


def flat_sids(assign: SidAssignment, offsets) -> dict[str, tuple[int, ...]]:
    """Each assigned item's SID as global tokens, flattened once."""
    return {item: flatten_sid(sid, offsets) for item, sid in assign.sids.items()}


def user_context(
    user_train,
    validation,
    flat: dict[str, tuple[int, ...]],
    include_validation: bool,
) -> tuple[int, ...]:
    """Flattened global-token context for one user, oldest item first, from
    the `flat_sids` mapping. Items without a SID are skipped."""
    items = list(user_train) + ([validation] if include_validation else [])
    tokens: list[int] = []
    for item in items:
        sid = flat.get(item)
        if sid is not None:
            tokens.extend(sid)
    return tuple(tokens)


def user_state(model, user_train, validation, flat, include_validation: bool) -> tuple[int, ...]:
    """`model.state(user_context(user_train, validation, flat,
    include_validation))`, read from the newest item back until the state's
    order - 1 tokens are found rather than from the whole history."""
    newest_first = itertools.chain((validation,) if include_validation else (), reversed(user_train))
    tail: list[int] = []
    for sid in filter(None, map(flat.get, newest_first)):
        if len(tail) >= model.order - 1:
            break
        tail[:0] = sid
    return model.state(tail)


@dataclass(frozen=True)
class NGramModel:
    """Back-off n-gram with additive smoothing over the global SID vocabulary.

    Scoring uses the longest trained context that matches a suffix of the
    query context, falling back level by level down to the unigram table.
    The model compiles into arrays on first use, and is frozen so that they
    cannot go stale.
    """

    order: int
    alpha: float
    sizes: tuple[int, ...]
    counts: dict[tuple[int, ...], Counter]
    totals: dict[tuple[int, ...], int]

    @functools.cached_property
    def vocab_size(self) -> int:
        """Summed on first read and kept; not a field, so not in equality,
        repr or the saved file."""
        return sum(self.sizes)

    @functools.cached_property
    def _compiled(self) -> tuple[dict, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(context ids, indptr, tokens, logp, fill), kept like vocab_size.
        Context i's counted tokens are tokens[indptr[i]:indptr[i + 1]], each
        with logp log((alpha + count) / d); every other token has fill[i] =
        log(alpha / d), where d = total + alpha * vocab_size: the float64
        operations of a dense row."""
        contexts = list(self.totals)
        counters = [self.counts[ctx] for ctx in contexts]
        indptr = np.cumsum([0, *map(len, counters)])
        tokens = np.array([t for c in counters for t in c], dtype=np.int64)
        counts = np.array([n for c in counters for n in c.values()], dtype=np.float64)
        denominators = np.array([self.totals[ctx] + self.alpha * self.vocab_size for ctx in contexts])
        logp = np.log((self.alpha + counts) / np.repeat(denominators, np.diff(indptr)))
        fill = np.log(self.alpha / denominators)
        return {ctx: i for i, ctx in enumerate(contexts)}, indptr, tokens, logp, fill

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


def train_ngram(
    split: SplitDataset,
    assign: SidAssignment,
    sizes,
    order: int,
    alpha: float,
    include_validation: bool = False,
) -> NGramModel:
    """Accumulate context counts over every user's flattened train sequence
    (optionally extended by the validation item). Test items never enter.

    For each context length, the (context, token) windows that lie inside one
    user's sequence are sorted, and each run of equal windows is one count."""
    check_settings(order=order, alpha=alpha)
    sizes = tuple(int(k) for k in sizes)
    vocab_size = sum(sizes)
    flat = flat_sids(assign, level_offsets(sizes))
    if not all(0 <= t < vocab_size for sid in flat.values() for t in sid):
        raise RecommenderError(f"a SID token lies outside the level sizes {list(sizes)}")
    streams = [
        user_context(user.train, user.validation, flat, include_validation)
        for user in (split.users[user_id] for user_id in sorted(split.users))
    ]
    lengths = np.array([len(s) for s in streams], dtype=np.int64)
    if not lengths.any():
        raise RecommenderError("no training tokens; empty split or assignment")
    # The narrowest type that holds every token keeps the window copies small.
    tokens = np.fromiter(
        itertools.chain.from_iterable(streams),
        dtype=np.min_scalar_type(vocab_size - 1),
        count=int(lengths.sum()),
    )
    del streams  # free the per-user tuples before the window copies
    user_start = np.zeros(tokens.size, dtype=bool)
    user_start[(np.cumsum(lengths) - lengths)[lengths > 0]] = True
    # inside[s]: the window of the current length starting at s lies in one user
    inside = np.ones(tokens.size, dtype=bool)
    counts: dict[tuple[int, ...], Counter] = {}
    totals: dict[tuple[int, ...], int] = {}
    for length in range(min(order, int(lengths.max()))):
        if length:
            inside = inside[:-1] & ~user_start[length:]
        runs, n_runs = _distinct_rows(sliding_window_view(tokens, length + 1)[inside])
        ctx_starts = _row_changes(runs[:, :length])
        bounds = [*ctx_starts.tolist(), len(runs)]
        for ctx, a, b in zip(runs[ctx_starts, :length].tolist(), bounds, bounds[1:]):
            counter = Counter(dict(zip(runs[a:b, length].tolist(), n_runs[a:b].tolist())))
            counts[tuple(ctx)] = counter
            totals[tuple(ctx)] = sum(counter.values())
    return NGramModel(order=order, alpha=float(alpha), sizes=sizes, counts=counts, totals=totals)


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a matrix in lexicographic order, and how often
    each occurs."""
    rows = rows[np.lexsort(rows.T[::-1])]
    starts = _row_changes(rows)
    return rows[starts], np.diff(starts, append=len(rows))


def _row_changes(rows: np.ndarray) -> np.ndarray:
    """Indices of the rows of a sorted matrix that differ from the row before."""
    changed = np.ones(len(rows), dtype=bool)
    changed[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return np.flatnonzero(changed)


def save_ngram(model: NGramModel, path) -> None:
    """The bytes of `json.dump(payload, fh, sort_keys=True)` over the format,
    order, alpha, sizes and one {"counts", "ctx"} record per sorted context,
    written one context at a time through the C encoder."""
    with atomic_open(path, encoding="utf-8", newline="\n") as fh:
        fh.write(f'{{"alpha": {json.dumps(model.alpha)}, "contexts": [')
        for i, ctx in enumerate(sorted(model.counts)):
            record = {
                "counts": {str(tok): int(c) for tok, c in model.counts[ctx].items()},
                "ctx": list(ctx),
            }
            fh.write((", " if i else "") + json.dumps(record, sort_keys=True))
        fh.write(
            f'], "format": "sidforge-ngram-v1", "order": {json.dumps(model.order)}, '
            f'"sizes": {json.dumps(list(model.sizes))}}}\n'
        )


def load_ngram(path) -> NGramModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise RecommenderError(f"unreadable n-gram file: {exc}") from exc
    if not isinstance(payload, dict):
        raise RecommenderError("n-gram file is not a JSON object")
    if payload.get("format") != "sidforge-ngram-v1":
        raise RecommenderError(f"unsupported n-gram format {payload.get('format')!r}")
    missing = [key for key in ("order", "alpha", "sizes", "contexts") if key not in payload]
    if missing:
        raise RecommenderError(f"n-gram file has no {missing} fields")
    order, alpha, sizes = payload["order"], payload["alpha"], payload["sizes"]
    if not is_json_int(order) or order < 1:
        raise RecommenderError(f"n-gram order {order!r} is not an integer >= 1")
    if (isinstance(alpha, bool) or not isinstance(alpha, (int, float))
            or not 0.0 < alpha <= sys.float_info.max):
        raise RecommenderError(f"n-gram alpha {alpha!r} is not a finite number > 0")
    if not isinstance(sizes, list) or not sizes or not all(is_json_int(k) and k >= 1 for k in sizes):
        raise RecommenderError(f"n-gram sizes {sizes!r} are not a list of integers >= 1")
    if not isinstance(payload["contexts"], list):
        raise RecommenderError("n-gram contexts are not a list")
    vocab_size = sum(sizes)
    counts: dict[tuple[int, ...], Counter] = {}
    totals: dict[tuple[int, ...], int] = {}
    for i, entry in enumerate(payload["contexts"]):
        where = f"n-gram context #{i}"
        if not (isinstance(entry, dict) and isinstance(entry.get("ctx"), list)
                and isinstance(entry.get("counts"), dict)):
            raise RecommenderError(f"{where} is not an object with a 'ctx' list and a 'counts' object")
        ctx = entry["ctx"]
        if len(ctx) >= order or not all(is_json_int(t) and 0 <= t < vocab_size for t in ctx):
            raise RecommenderError(
                f"{where}: {ctx!r} is not a list of at most {order - 1} tokens in [0, {vocab_size})"
            )
        if tuple(ctx) in counts:
            raise RecommenderError(f"{where}: context {ctx} appears twice")
        counter = Counter()
        for key, count in entry["counts"].items():
            if not _TOKEN_KEY.fullmatch(key) or int(key) >= vocab_size:
                raise RecommenderError(
                    f"{where}: token {key} is not a canonical decimal integer"
                    f" in the vocabulary [0, {vocab_size})"
                )
            if not is_json_int(count) or count < 1:
                raise RecommenderError(f"{where}: token {key} has count {count!r}, not an integer >= 1")
            counter[int(key)] = count
        counts[tuple(ctx)] = counter
        totals[tuple(ctx)] = sum(counter.values())
    return NGramModel(order=order, alpha=float(alpha), sizes=tuple(sizes), counts=counts, totals=totals)


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
    per_user_ranks: dict[str, int] | None = None  # 1-based rank, 0 for a miss

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


def _metrics_from_ranks(
    ranks: dict[str, int], ks, n_excluded: int, shortfalls: int, keep_ranks: bool
) -> MetricsReport:
    ks = sorted(int(k) for k in ks)
    n = len(ranks)
    hr: dict[int, float] = {}
    ndcg: dict[int, float] = {}
    for k in ks:
        if n == 0:
            hr[k] = 0.0
            ndcg[k] = 0.0
            continue
        hits = 0
        gain = 0.0
        for user_id in sorted(ranks):
            rank = ranks[user_id]
            if 0 < rank <= k:
                hits += 1
                gain += _ndcg_gain(rank)
        hr[k] = hits / n
        ndcg[k] = gain / n
    return MetricsReport(
        hr=hr,
        ndcg=ndcg,
        n_users=n,
        n_excluded=n_excluded,
        beam_shortfalls=shortfalls,
        per_user_ranks=dict(ranks) if keep_ranks else None,
    )


def evaluate(
    model,
    split: SplitDataset,
    assign: SidAssignment,
    trie: SidTrie,
    sizes,
    ks=(5, 10),
    beam_size: int = 20,
    include_validation: bool = True,
    keep_ranks: bool = False,
    unconstrained: bool = False,
) -> MetricsReport:
    """Next-SID generation for every user with a test SID, and macro-averaged
    HR/NDCG.

    The context is the user's flattened train (plus validation, by default)
    token sequence; the target is the test item's SID. A generated SID counts
    as a hit whenever the target item maps to it, collisions included. NDCG
    uses binary relevance with gain 1/log2(rank + 1) and ideal DCG 1.

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
    flat = flat_sids(assign, level_offsets(sizes))
    rankings: dict[tuple[int, ...], list[SidSequence]] = {}
    ranks: dict[str, int] = {}
    excluded = 0
    shortfalls = 0
    for user_id in sorted(split.users):
        user = split.users[user_id]
        if user.test not in assign:
            excluded += 1
            continue
        state = user_state(model, user.train, user.validation, flat, include_validation)
        ranked = rankings.get(state)
        if ranked is None:
            found = beam_search(model, state, trie, beam_size, top_k, sizes, unconstrained=unconstrained)
            ranked = rankings[state] = [tokens for tokens, _ in found]
            if not unconstrained and any(tokens not in trie for tokens in ranked):
                raise RecommenderError("constrained search produced a non-catalog SID")
        if len(ranked) < top_k:
            shortfalls += 1
        target = assign[user.test]
        ranks[user_id] = ranked.index(target) + 1 if target in ranked else 0
    return _metrics_from_ranks(ranks, ks, excluded, shortfalls, keep_ranks)


def popularity_ranking(
    split: SplitDataset, assign: SidAssignment, include_validation: bool = True
) -> list[SidSequence]:
    """Catalog SIDs ranked by train-sequence frequency (ties lexicographic).
    A static list: every user sees the same ranking."""
    sids = assign.sids
    counts = dict.fromkeys(sids.values(), 0)
    for user in split.users.values():
        items = itertools.chain(user.train, (user.validation,) if include_validation else ())
        for sid in filter(None, map(sids.get, items)):
            counts[sid] += 1
    return sorted(counts, key=lambda s: (-counts[s], s))


def evaluate_static_ranking(
    ranked: list[SidSequence],
    split: SplitDataset,
    assign: SidAssignment,
    ks=(5, 10),
    keep_ranks: bool = False,
) -> MetricsReport:
    """HR/NDCG for a fixed SID ranking shared by all users, with the same hit
    semantics as evaluate()."""
    check_settings(ks=ks)
    position_of = {sid: i + 1 for i, sid in enumerate(ranked)}
    ranks: dict[str, int] = {}
    excluded = 0
    for user_id in sorted(split.users):
        user = split.users[user_id]
        if user.test not in assign:
            excluded += 1
            continue
        ranks[user_id] = position_of.get(assign[user.test], 0)
    return _metrics_from_ranks(ranks, ks, excluded, 0, keep_ranks)


def write_metrics_csv(report: MetricsReport, path) -> None:
    with atomic_open(path, encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["metric", "K", "value", "n_users"])
        for k in sorted(report.hr):
            writer.writerow(["HR", k, repr(report.hr[k]), report.n_users])
        for k in sorted(report.ndcg):
            writer.writerow(["NDCG", k, repr(report.ndcg[k]), report.n_users])
