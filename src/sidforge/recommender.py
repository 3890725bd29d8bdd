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
  tokens resolve to, so `NGramModel.score_next` computes each such row once
  and keeps it on the model in sparse form (its minimum plus the entries
  that differ from it), at most one per trained context.
- `rq.build_trie` compiles the trie into per-level CSR arrays, and
  `beam_search` expands a whole level at once: it gathers every child's
  score from its hypothesis's row, adds it to the hypothesis score with the
  same float64 addition as a token-by-token walk, and ranks the candidates
  with one lexsort on (-score, tokens).
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import re
import sys
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .datamodel import SplitDataset, atomic_open, is_json_int
from .rq import SidAssignment, SidSequence, SidTrie


class RecommenderError(ValueError):
    """Raised for invalid model, search, or evaluation inputs."""


# A count key in ngram.json: a token id in canonical decimal, short enough to
# convert without the interpreter's digit limit.
_TOKEN_KEY = re.compile(r"0|[1-9][0-9]{0,17}")


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


@dataclass(frozen=True)
class NGramModel:
    """Back-off n-gram with additive smoothing over the global SID vocabulary.

    Scoring uses the longest trained context that matches a suffix of the
    query context, falling back level by level down to the unigram table.
    Each back-off context's log-probability row is computed once and kept
    on the model in sparse form, and the model is frozen so the rows cannot
    go stale.
    """

    order: int
    alpha: float
    sizes: tuple[int, ...]
    counts: dict[tuple[int, ...], Counter]
    totals: dict[tuple[int, ...], int]
    # Each resolved back-off context's row as (fill, positions, values): the
    # row's minimum, which every token without a count holds, and the entries
    # that differ from it. Full rows would hold vocab_size floats apiece.
    _rows: dict[tuple[int, ...], tuple[float, np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def vocab_size(self) -> int:
        return sum(self.sizes)

    def score_next(self, context) -> np.ndarray:
        """Read-only log-probability vector over the global vocabulary; sums
        to one after exponentiation. A pure function of the last order - 1
        tokens of the context (a sequence)."""
        ctx = tuple(context[-(self.order - 1):]) if self.order > 1 else ()
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
    if order < 1:
        raise RecommenderError("order must be >= 1")
    if not alpha > 0.0:
        raise RecommenderError("alpha must be > 0")
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

    Each level is expanded for all hypotheses at once: one `score_next` row
    per hypothesis, every child's score as the row entry added to the
    hypothesis score (the same float64 sums as a token-by-token walk), and a
    lexsort on (-score, tokens), a total order, picks the next beam.
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
    """Per-user generation and macro-averaged HR/NDCG.

    The context is the user's flattened train (plus validation, by default)
    token sequence; the target is the test item's SID. A generated SID counts
    as a hit whenever the target item maps to it, collisions included. NDCG
    uses binary relevance with gain 1/log2(rank + 1) and ideal DCG 1.
    """
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


def popularity_ranking(
    split: SplitDataset, assign: SidAssignment, include_validation: bool = True
) -> list[SidSequence]:
    """Catalog SIDs ranked by train-sequence frequency (ties lexicographic).
    A static list: every user sees the same ranking."""
    counts: Counter = Counter()
    for user_id in sorted(split.users):
        user = split.users[user_id]
        items = list(user.train) + ([user.validation] if include_validation else [])
        for item in items:
            if item in assign:
                counts[assign[item]] += 1
    for sid in assign.distinct_sids():
        counts.setdefault(sid, 0)
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
    ks = sorted(int(k) for k in ks)
    if not ks or ks[0] < 1:
        raise RecommenderError("every K must be >= 1")
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
