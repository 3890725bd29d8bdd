"""Next-item prediction over SID tokens: a smoothed back-off n-gram baseline,
trie-constrained beam search, and HR@K / NDCG@K evaluation.

All SID tokens are level-tagged: token t at level h maps to the global id
offset_h + t, so the same integer at different levels stays distinct. A
sequence model scores the next global token given a flattened context; beam
search expands level by level, restricted to trie children, so only catalog
SIDs can be generated.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .datamodel import SplitDataset, atomic_open
from .rq import SidAssignment, SidSequence, SidTrie


class RecommenderError(ValueError):
    """Raised for invalid model, search, or evaluation inputs."""


def level_offsets(sizes) -> tuple[int, ...]:
    """Global-id offset of each level's token block."""
    offsets = [0]
    for k in tuple(sizes)[:-1]:
        offsets.append(offsets[-1] + int(k))
    return tuple(offsets)


def flatten_sid(sid: SidSequence, offsets) -> tuple[int, ...]:
    return tuple(offsets[h] + int(t) for h, t in enumerate(sid))


def user_context(
    user_train,
    validation,
    assign: SidAssignment,
    offsets,
    include_validation: bool,
) -> tuple[int, ...]:
    """Flattened global-token context for one user, oldest item first. Items
    without a SID are skipped."""
    items = list(user_train) + ([validation] if include_validation else [])
    tokens: list[int] = []
    for item in items:
        if item in assign:
            tokens.extend(flatten_sid(assign[item], offsets))
    return tuple(tokens)


@dataclass
class NGramModel:
    """Back-off n-gram with additive smoothing over the global SID vocabulary.

    Scoring uses the longest trained context that matches a suffix of the
    query context, falling back level by level down to the unigram table.
    """

    order: int
    alpha: float
    sizes: tuple[int, ...]
    counts: dict[tuple[int, ...], Counter]
    totals: dict[tuple[int, ...], int]

    @property
    def vocab_size(self) -> int:
        return sum(self.sizes)

    def score_next(self, context) -> np.ndarray:
        """Log-probability vector over the global vocabulary; sums to one
        after exponentiation. Pure function of the context."""
        ctx = tuple(int(t) for t in context)
        longest = min(self.order - 1, len(ctx))
        for length in range(longest, -1, -1):
            suffix = ctx[len(ctx) - length:] if length else ()
            total = self.totals.get(suffix)
            if total is None:
                continue
            probs = np.full(self.vocab_size, self.alpha, dtype=np.float64)
            for token, count in self.counts[suffix].items():
                probs[token] += count
            probs /= total + self.alpha * self.vocab_size
            return np.log(probs)
        raise RecommenderError("model has no unigram table; was it trained?")


def train_ngram(
    split: SplitDataset,
    assign: SidAssignment,
    sizes,
    order: int,
    alpha: float,
    include_validation: bool = False,
) -> NGramModel:
    """Accumulate context counts over every user's flattened train sequence
    (optionally extended by the validation item). Test items never enter."""
    if order < 1:
        raise RecommenderError("order must be >= 1")
    if not alpha > 0.0:
        raise RecommenderError("alpha must be > 0")
    sizes = tuple(int(k) for k in sizes)
    offsets = level_offsets(sizes)
    counts: dict[tuple[int, ...], Counter] = {}
    totals: dict[tuple[int, ...], int] = {}
    n_tokens = 0
    for user_id in sorted(split.users):
        user = split.users[user_id]
        tokens = user_context(
            user.train, user.validation, assign, offsets, include_validation
        )
        n_tokens += len(tokens)
        for i, token in enumerate(tokens):
            for length in range(min(order - 1, i) + 1):
                ctx = tokens[i - length:i]
                if ctx not in counts:
                    counts[ctx] = Counter()
                    totals[ctx] = 0
                counts[ctx][token] += 1
                totals[ctx] += 1
    if n_tokens == 0:
        raise RecommenderError("no training tokens; empty split or assignment")
    return NGramModel(order=order, alpha=float(alpha), sizes=sizes, counts=counts, totals=totals)


def save_ngram(model: NGramModel, path) -> None:
    contexts = [
        {
            "ctx": list(ctx),
            "counts": {str(tok): int(c) for tok, c in sorted(model.counts[ctx].items())},
        }
        for ctx in sorted(model.counts)
    ]
    payload = {
        "format": "sidforge-ngram-v1",
        "order": model.order,
        "alpha": model.alpha,
        "sizes": list(model.sizes),
        "contexts": contexts,
    }
    with atomic_open(path, encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def load_ngram(path) -> NGramModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RecommenderError(f"unreadable n-gram file: {exc}") from exc
    if not isinstance(payload, dict):
        raise RecommenderError("n-gram file is not a JSON object")
    if payload.get("format") != "sidforge-ngram-v1":
        raise RecommenderError(f"unsupported n-gram format {payload.get('format')!r}")
    counts: dict[tuple[int, ...], Counter] = {}
    totals: dict[tuple[int, ...], int] = {}
    try:
        sizes = tuple(int(k) for k in payload["sizes"])
        for entry in payload["contexts"]:
            ctx = tuple(int(t) for t in entry["ctx"])
            counter = Counter({int(tok): int(c) for tok, c in entry["counts"].items()})
            counts[ctx] = counter
            totals[ctx] = sum(counter.values())
        order, alpha = int(payload["order"]), float(payload["alpha"])
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise RecommenderError(f"malformed n-gram file: {exc!r}") from exc
    if order < 1:
        raise RecommenderError(f"n-gram order {order} is below 1")
    if not alpha > 0.0:
        raise RecommenderError(f"n-gram alpha {alpha} is not > 0")
    if any(k < 1 for k in sizes):
        raise RecommenderError(f"n-gram sizes {list(sizes)} include a size below 1")
    vocab_size = sum(sizes)
    for ctx, counter in counts.items():
        for token in counter:
            if not 0 <= token < vocab_size:
                raise RecommenderError(
                    f"context {list(ctx)}: token {token} outside the vocabulary [0, {vocab_size})"
                )
    return NGramModel(order=order, alpha=alpha, sizes=sizes, counts=counts, totals=totals)


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
    """
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
    offsets = level_offsets(sizes)
    ranks: dict[str, int] = {}
    excluded = 0
    shortfalls = 0
    for user_id in sorted(split.users):
        user = split.users[user_id]
        if user.test not in assign:
            excluded += 1
            continue
        target = assign[user.test]
        ctx = user_context(user.train, user.validation, assign, offsets, include_validation)
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
