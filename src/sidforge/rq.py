"""Hierarchical residual quantization: per-level k-means codebooks, SID
encoding/decoding, token-string rendering, and the catalog SID trie.

Encoding picks, at each level, the centroid nearest to the current residual
(smallest index wins ties) and subtracts it before descending to the next
level. Decoding sums the selected centroids. Fitting runs k-means on the
residual vectors of each level in turn.

Determinism notes: centroids are held in float32 (the on-disk precision) and
all distance work happens in float64 upcasts, so a saved and reloaded model
encodes identically to the freshly fitted one. One nearest-centroid kernel
serves fitting, empty-cluster repair and encoding. It screens every centroid
with the norm expansion of the squared distance (one matrix product per row
block) and re-scores only the centroids within a proven rounding margin of
the row's best by direct squared differences, so its results are those of a
direct scan over all centroids. Threads, when asked for, take whole blocks.
Each row's result depends only on that row, so outputs do not depend on the
block size or the worker count. k-means++ seeding uses the same screen.
"""

from __future__ import annotations

import hashlib
import json
import re
import string
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from . import rng
from .datamodel import (
    EmbeddingIOError,
    EmbeddingSet,
    atomic_open,
    from_json,
    is_json_int,
    read_lines,
    read_matrix_block,
    write_matrix_block,
)

SidSequence = tuple[int, ...]

MODEL_FORMAT = "sidforge-rq-v1"
ASSIGNMENT_FORMAT = "sidforge-sids-v1"

# Elements in one block's float64 work matrix (rows x centroids, 512 KiB): the
# kernel's only temporary that grows with the codebook size.
_BLOCK_ELEMENTS = 1 << 16

_UNIT_ROUNDOFF = 2.0 ** -53
_SMALLEST_SUBNORMAL = float(np.finfo(np.float64).smallest_subnormal)


class RqError(ValueError):
    """Raised for invalid quantizer configs, inputs, SIDs, or model files."""


@dataclass(frozen=True)
class RqConfig:
    levels: int
    codebook_sizes: tuple[int, ...]
    kmeans_max_iters: int = 50
    kmeans_rel_tol: float = 1e-4
    seed: int = 0
    normalize_inputs: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "codebook_sizes", tuple(self.codebook_sizes))
        if self.levels < 1:
            raise RqError("levels must be >= 1")
        if len(self.codebook_sizes) != self.levels:
            raise RqError(
                f"codebook_sizes has {len(self.codebook_sizes)} entries for {self.levels} levels"
            )
        if any(k < 1 for k in self.codebook_sizes):
            raise RqError("every codebook size must be >= 1")
        if self.kmeans_max_iters < 0:
            raise RqError("kmeans_max_iters must be >= 0")
        if not self.kmeans_rel_tol >= 0.0:
            raise RqError("kmeans_rel_tol must be >= 0")

    @classmethod
    def from_dict(cls, obj: dict) -> "RqConfig":
        """Config from a pipeline `rq` section or a model header; raises RqError."""
        return from_json(cls, obj, RqError)


@dataclass(frozen=True)
class Codebook:
    level: int  # 1-based
    centroids: np.ndarray  # size x dim float32, read-only

    @property
    def size(self) -> int:
        return self.centroids.shape[0]


@dataclass(frozen=True)
class LevelFitStats:
    level: int
    configured_size: int
    effective_size: int
    mse_trace: tuple[float, ...]  # nonincreasing; entry 0 is the post-init error


@dataclass(frozen=True)
class RqModel:
    config: RqConfig
    codebooks: tuple[Codebook, ...]
    dim: int
    fit_stats: tuple[LevelFitStats, ...]

    @property
    def levels(self) -> int:
        return len(self.codebooks)

    @property
    def effective_sizes(self) -> tuple[int, ...]:
        return tuple(cb.size for cb in self.codebooks)

    def model_hash(self) -> str:
        digest = hashlib.sha256()
        for cb in self.codebooks:
            digest.update(np.ascontiguousarray(cb.centroids, dtype="<f4").tobytes(order="C"))
        return digest.hexdigest()


@dataclass(frozen=True)
class SidAssignment:
    """Per-item SID sequences, keyed by item_id in embedding order, tagged with
    the hash of the model that produced them."""

    sids: dict[str, SidSequence]
    model_hash: str

    def __len__(self) -> int:
        return len(self.sids)

    def __getitem__(self, item_id: str) -> SidSequence:
        return self.sids[item_id]

    def __contains__(self, item_id: str) -> bool:
        return item_id in self.sids

    def distinct_sids(self) -> set[SidSequence]:
        return set(self.sids.values())


def _frozen_f32(matrix: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(matrix, dtype=np.float32)
    out.setflags(write=False)
    return out


def _margin(norm_x, norm_c, d: int):
    """Screening margin 8 * gamma_{d+4} * (|x| + |c|)^2 plus an underflow
    allowance; `_nearest` derives it."""
    n = d + 4
    gamma = n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
    return 8.0 * gamma * np.square(norm_x + norm_c) + 16.0 * n * _SMALLEST_SUBNORMAL


def _nearest(
    points: np.ndarray, centroids: np.ndarray, workers: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Index of the nearest centroid per point and the squared distance to it.

    The result is that of a direct scan: for each point, the centroid with
    the smallest `np.square(x - c).sum()` in float64, ties going to the
    smallest index, and that value. With workers > 1 the row blocks are
    spread over a thread pool; the values are the same.

    Per row block the kernel screens every centroid with the norm expansion
    S = |x|^2 - 2 x.c + |c|^2 (one matrix product), keeps the centroids whose
    S lies within a margin M(x) of the row's smallest S, and re-scores only
    those directly. Why no direct-scan winner is dropped, with u = 2^-53 and
    gamma_n = n u / (1 - n u), for the true squared distance D = |x - c|^2:

    - |S - D| <= gamma_{d+2} (|x| + |c|)^2 in any summation order (BLAS
      blocking and fused multiply-adds included): the d products of x.c err
      by at most gamma_d |x||c|, since sum |x_i c_i| <= |x||c|, each norm by
      gamma_d times itself, and two additions follow.
    - The direct value E obeys |E - D| <= gamma_{d+2} D, and
      D <= (|x| + |c|)^2.
    - Let w be the direct-scan winner and j the screen's. Then
      S_w <= D_w + e <= E_w + 2e <= E_j + 2e <= D_j + 3e <= S_j + 4e with
      e = gamma_{d+2} (|x| + max_c |c|)^2, so any
      M(x) >= 4 gamma_{d+2} (|x| + max_c |c|)^2 keeps w.

    M(x) is 8 gamma_{d+4} (|x| + max_c |c|)^2, twice that, which leaves room
    for the rounding of M and of the threshold themselves, plus
    16 (d + 4) times the smallest subnormal for the absolute error of
    products that underflow. Squares of float32 values cannot overflow
    float64, so neither can S or M on float32 data; for larger inputs an
    overflow makes the threshold infinite or NaN, which keeps every
    centroid, and the row is scanned directly.
    """
    points = np.asarray(points, dtype=np.float64)
    cents = centroids.astype(np.float64)
    k, d = cents.shape
    n = points.shape[0]
    idx = np.empty(n, dtype=np.int64)
    sq = np.empty(n, dtype=np.float64)
    cc = np.einsum("ij,ij->i", cents, cents)
    reach = np.sqrt(cc.max())
    step = max(1, _BLOCK_ELEMENTS // k)

    def block(start: int) -> None:
        x = points[start:start + step]
        xx = np.einsum("ij,ij->i", x, x)
        work = np.matmul(x, cents.T)
        work *= -2.0
        work += xx[:, None]
        work += cc
        bound = work.min(axis=1) + _margin(np.sqrt(xx), reach, d)
        # Negated so that a NaN bound keeps the whole row.
        rows, cols = np.nonzero(~(work > bound[:, None]))
        diff = x[rows]
        diff -= cents[cols]
        np.square(diff, out=diff)
        direct = diff.sum(axis=1)
        # Candidates come row by row, columns ascending; every row has one.
        first = np.flatnonzero(np.diff(rows, prepend=-1))
        low = np.minimum.reduceat(direct, first)
        hits = np.flatnonzero(direct == np.repeat(low, np.diff(first, append=rows.size)))
        hits = hits[np.diff(rows[hits], prepend=-1) != 0]
        idx[start:start + step] = cols[hits]
        sq[start:start + step] = direct[hits]

    starts = range(0, n, step)
    if workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(block, starts))
    else:
        for start in starts:
            block(start)
    return idx, sq


def _kmeanspp_init(points: np.ndarray, k: int, gen: np.random.Generator) -> np.ndarray:
    """Greedy D^2-weighted seeding; returns float32 centroids (possibly < k rows
    if the remaining distance mass hits zero).

    After each new centre c, a row's distance is recomputed directly only
    where its screened value S minus the `_nearest` margin falls below its
    current distance; elsewhere the direct value cannot be smaller (by the
    bound in `_nearest`), so the update would leave it as it is."""
    n, d = points.shape
    xx = np.einsum("ij,ij->i", points, points)
    norms = np.sqrt(xx)
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
        screened = points @ points[j]
        screened *= -2.0
        screened += xx
        screened += xx[j]
        screened -= _margin(norms, norms[j], d)
        rows = np.flatnonzero(~(screened >= d2))  # a NaN keeps the row
        d2[rows] = np.minimum(d2[rows], np.square(points[rows] - points[j]).sum(axis=1))
    return points[np.array(chosen, dtype=np.int64)].astype(np.float32)


def _assign_with_repair(points: np.ndarray, centroids: np.ndarray, workers: int):
    """Nearest-centroid assignment where every empty cluster is re-seeded with
    the point currently farthest from its assigned centroid (one at a time,
    smallest cluster index first)."""
    cents = centroids.copy()
    k = cents.shape[0]
    idx, sq = _nearest(points, cents, workers)
    for _ in range(k):
        counts = np.bincount(idx, minlength=k)
        empty = np.flatnonzero(counts == 0)
        if empty.size == 0:
            break
        cents[int(empty[0])] = points[int(np.argmax(sq))].astype(np.float32)
        idx, sq = _nearest(points, cents, workers)
    return idx, sq, cents


def _update_centroids(points: np.ndarray, idx: np.ndarray, k: int, old: np.ndarray) -> np.ndarray:
    sums = np.zeros((k, points.shape[1]), dtype=np.float64)
    np.add.at(sums, idx, points)
    counts = np.bincount(idx, minlength=k).astype(np.float64)
    new = old.astype(np.float64)
    filled = counts > 0
    new[filled] = sums[filled] / counts[filled, None]
    return new.astype(np.float32)


def _fit_level(points, k_conf, gen, max_iters, rel_tol, workers):
    distinct = np.unique(points, axis=0).shape[0]
    cents = _kmeanspp_init(points, min(k_conf, distinct), gen)
    idx, sq, cents = _assign_with_repair(points, cents, workers)
    mse = float(sq.mean())
    trace = [mse]
    for _ in range(max_iters):
        new_cents = _update_centroids(points, idx, cents.shape[0], cents)
        new_idx, new_sq, new_cents = _assign_with_repair(points, new_cents, workers)
        new_mse = float(new_sq.mean())
        if new_mse > mse:
            break  # numerical wobble; keep the previous, better state
        cents, idx = new_cents, new_idx
        trace.append(new_mse)
        if mse == 0.0 or (mse - new_mse) < rel_tol * mse:
            mse = new_mse
            break
        mse = new_mse
    return cents, idx, trace


def _prepare(points: np.ndarray, cfg: RqConfig) -> np.ndarray:
    if not cfg.normalize_inputs:
        return points
    norms = np.sqrt(np.square(points).sum(axis=1, keepdims=True))
    norms[norms == 0.0] = 1.0
    return points / norms


def fit_codebooks(emb: EmbeddingSet, cfg: RqConfig, workers: int = 1) -> RqModel:
    """Fit one k-means codebook per level on the residuals of the previous
    levels. A level whose residuals have fewer distinct values than its
    configured size shrinks to that count (recorded in fit_stats)."""
    if emb.count == 0:
        raise RqError("cannot fit codebooks on an empty embedding set")
    residual = _prepare(emb.rows.astype(np.float64), cfg)
    codebooks = []
    stats = []
    for level in range(1, cfg.levels + 1):
        gen = rng.stream(cfg.seed, rng.CODEBOOK_LEVEL, level)
        k_conf = cfg.codebook_sizes[level - 1]
        cents, idx, trace = _fit_level(
            residual, k_conf, gen, cfg.kmeans_max_iters, cfg.kmeans_rel_tol, workers
        )
        codebooks.append(Codebook(level=level, centroids=_frozen_f32(cents)))
        stats.append(
            LevelFitStats(
                level=level,
                configured_size=k_conf,
                effective_size=cents.shape[0],
                mse_trace=tuple(trace),
            )
        )
        residual = residual - cents.astype(np.float64)[idx]
    return RqModel(config=cfg, codebooks=tuple(codebooks), dim=emb.dim, fit_stats=tuple(stats))


def encode_batch(model: RqModel, rows, workers: int = 1) -> np.ndarray:
    """Token matrix (n x levels, int64) for a batch of embedding rows."""
    points = np.asarray(rows, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != model.dim:
        raise RqError(f"expected shape (n, {model.dim}), got {points.shape}")
    if not np.all(np.isfinite(points)):
        raise RqError("embedding rows contain non-finite values")
    # Every squared distance the kernel forms (and the squared norm that
    # normalization takes) is at most (|x| + reach)^2, reach being the sum
    # of each level's largest centroid norm. A row where that overflows
    # would tie every centroid at inf and encode as token 0.
    reach = sum(
        np.sqrt(np.square(cb.centroids, dtype=np.float64).sum(axis=1).max())
        for cb in model.codebooks
    )
    with np.errstate(over="ignore"):
        bound = np.square(np.sqrt(np.square(points).sum(axis=1)) + reach)
    overflow = np.flatnonzero(~np.isfinite(bound))
    if overflow.size:
        raise RqError(f"embedding row {overflow[0]} is too large: its squared distances overflow")
    residual = _prepare(points, model.config)
    out = np.empty((points.shape[0], model.levels), dtype=np.int64)
    for level, cb in enumerate(model.codebooks):
        idx, _ = _nearest(residual, cb.centroids, workers)
        out[:, level] = idx
        residual = residual - cb.centroids.astype(np.float64)[idx]
    return out


def encode(model: RqModel, x) -> SidSequence:
    """SID of one vector: per level, the nearest centroid to the running
    residual, smallest index winning ties."""
    vec = np.asarray(x, dtype=np.float64).reshape(-1)
    if vec.shape[0] != model.dim:
        raise RqError(f"expected a {model.dim}-dimensional vector, got {vec.shape[0]}")
    return tuple(int(t) for t in encode_batch(model, vec[None, :])[0])


def validate_sid(model: RqModel, s: SidSequence) -> None:
    if len(s) != model.levels:
        raise RqError(f"SID has {len(s)} tokens for a {model.levels}-level model")
    for level, token in enumerate(s):
        size = model.codebooks[level].size
        if not 0 <= int(token) < size:
            raise RqError(f"token {token} out of range [0, {size}) at level {level + 1}")


def decode(model: RqModel, s: SidSequence, depth: int | None = None) -> np.ndarray:
    """Sum of the first `depth` selected centroids (default: all levels).
    Reconstructs the embedding as quantized (after normalization, if the model
    normalizes its inputs)."""
    validate_sid(model, s)
    return decode_batch(model, [s], depth)[0]


def decode_batch(model: RqModel, tokens, depth: int | None = None) -> np.ndarray:
    """Reconstruction matrix for a token matrix (n x levels)."""
    toks = np.asarray(tokens, dtype=np.int64)
    if toks.ndim != 2 or toks.shape[1] != model.levels:
        raise RqError(f"expected shape (n, {model.levels}), got {toks.shape}")
    if depth is None:
        depth = model.levels
    if not 0 <= depth <= model.levels:
        raise RqError(f"depth {depth} out of range [0, {model.levels}]")
    out = np.zeros((toks.shape[0], model.dim), dtype=np.float64)
    for level in range(depth):
        cb = model.codebooks[level]
        col = toks[:, level]
        if col.size and (col.min() < 0 or col.max() >= cb.size):
            raise RqError(f"token out of range at level {level + 1}")
        out += cb.centroids.astype(np.float64)[col]
    return out


def level_letter(level: int) -> str:
    """Letter tag for a 1-based level: a, b, c, ..."""
    if not 1 <= level <= 26:
        raise RqError("token rendering supports at most 26 levels")
    return string.ascii_lowercase[level - 1]


_TOKEN_RE = re.compile(r"<([a-z])_(0|[1-9][0-9]*)>")


def render_sid(s: SidSequence) -> str:
    """Token string like "<a_239><b_112><c_7>": one <letter_index> group per
    level, concatenated without separators."""
    if not s:
        raise RqError("cannot render an empty SID")
    return "".join(f"<{level_letter(h + 1)}_{int(t)}>" for h, t in enumerate(s))


def parse_sid(text: str, model: RqModel | None = None) -> SidSequence:
    """Exact inverse of render_sid. Level letters must run a, b, c, ... with no
    gaps; token indices take no leading zeros. With a model, range-checks too."""
    tokens: list[int] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise RqError(f"malformed SID token at position {pos} in {text!r}")
        expected = level_letter(len(tokens) + 1)
        if match.group(1) != expected:
            raise RqError(
                f"expected level letter {expected!r} at position {pos}, got {match.group(1)!r}"
            )
        tokens.append(int(match.group(2)))
        pos = match.end()
    if not tokens:
        raise RqError("empty SID string")
    s = tuple(tokens)
    if model is not None:
        validate_sid(model, s)
    return s


def assign_all(model: RqModel, emb: EmbeddingSet, workers: int = 1) -> SidAssignment:
    """Encode every row of an embedding set; output order follows the set."""
    if emb.dim != model.dim:
        raise RqError(f"model dim {model.dim} != embedding dim {emb.dim}")
    tokens = encode_batch(model, emb.rows, workers=workers)
    sids = {
        item_id: tuple(int(t) for t in row)
        for item_id, row in zip(emb.item_ids, tokens)
    }
    return SidAssignment(sids=sids, model_hash=model.model_hash())


@dataclass(frozen=True)
class SidTrie:
    """Prefix tree over the catalog's SIDs, compiled into one CSR pair of
    read-only arrays per level, and each full SID (in lexicographic order)
    mapped to the sorted item_ids sharing it.

    The nodes at depth h are the distinct length-h prefixes in lexicographic
    order. `levels[h]` is `(indptr, tokens)`: node n's next tokens are
    `tokens[indptr[n]:indptr[n + 1]]`, ascending, and the child reached
    through position p of `tokens` is node p at depth h + 1."""

    leaves: dict[SidSequence, tuple[str, ...]]
    n_items: int
    levels: tuple[tuple[np.ndarray, np.ndarray], ...] = field(repr=False, compare=False)

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def n_sids(self) -> int:
        return len(self.leaves)

    def next_tokens(self, prefix) -> tuple[int, ...]:
        """Sorted tokens that extend `prefix` towards a catalog SID; () when
        `prefix` is a full SID or not a prefix of any."""
        prefix = tuple(prefix)
        if len(prefix) >= self.depth:
            return ()
        node = 0
        for (indptr, tokens), token in zip(self.levels, prefix):
            lo, hi = indptr[node], indptr[node + 1]
            node = lo + int(np.searchsorted(tokens[lo:hi], token))
            if node == hi or tokens[node] != token:
                return ()
        indptr, tokens = self.levels[len(prefix)]
        return tuple(tokens[indptr[node]:indptr[node + 1]].tolist())

    def __contains__(self, tokens) -> bool:
        return tuple(tokens) in self.leaves

    def items_for(self, tokens) -> tuple[str, ...]:
        return self.leaves.get(tuple(tokens), ())

    def iter_sids(self):
        """Yield (tokens, item_ids) over all distinct SIDs in lexicographic
        token order."""
        yield from self.leaves.items()


def _frozen_i64(values) -> np.ndarray:
    out = np.array(values, dtype=np.int64)
    out.setflags(write=False)
    return out


def build_trie(assign: SidAssignment) -> SidTrie:
    if len(assign.sids) == 0:
        raise RqError("cannot build a trie from an empty assignment")
    depth = len(next(iter(assign.sids.values())))
    items: dict[SidSequence, list[str]] = {}
    for item_id, s in assign.sids.items():
        if len(s) != depth:
            raise RqError("assignment mixes SID lengths")
        items.setdefault(tuple(int(t) for t in s), []).append(item_id)
    leaves = {s: tuple(sorted(items[s])) for s in sorted(items)}
    sids = np.array(list(leaves), dtype=np.int64).reshape(len(leaves), depth)
    # starts[r]: row r of the sorted SIDs begins a new prefix of the current length.
    starts = np.zeros(len(sids), dtype=bool)
    starts[0] = True
    levels = []
    for h in range(depth):
        parent = np.cumsum(starts) - 1
        starts[1:] |= sids[1:, h] != sids[:-1, h]
        n_children = np.bincount(parent[starts], minlength=int(parent[-1]) + 1)
        levels.append((_frozen_i64(np.concatenate(([0], np.cumsum(n_children)))),
                       _frozen_i64(sids[starts, h])))
    return SidTrie(leaves=leaves, n_items=len(assign.sids), levels=tuple(levels))


def save_model(model: RqModel, path) -> None:
    """One-line JSON header followed by one binary centroid block per level."""
    header = {
        "format": MODEL_FORMAT,
        "levels": model.levels,
        "dim": model.dim,
        "codebook_sizes": list(model.config.codebook_sizes),
        "effective_sizes": list(model.effective_sizes),
        "kmeans_max_iters": model.config.kmeans_max_iters,
        "kmeans_rel_tol": model.config.kmeans_rel_tol,
        "seed": model.config.seed,
        "normalize_inputs": model.config.normalize_inputs,
        "model_hash": model.model_hash(),
        "fit_stats": [
            {
                "level": st.level,
                "configured_size": st.configured_size,
                "effective_size": st.effective_size,
                "mse_trace": list(st.mse_trace),
            }
            for st in model.fit_stats
        ],
    }
    with atomic_open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        for cb in model.codebooks:
            write_matrix_block(fh, cb.centroids)


def load_model(path) -> RqModel:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RqError(f"unreadable model header: {exc}") from exc
        if not isinstance(header, dict):
            raise RqError("model header is not a JSON object")
        if header.get("format") != MODEL_FORMAT:
            raise RqError(f"unsupported model format {header.get('format')!r}")
        cfg = RqConfig.from_dict({f.name: header[f.name] for f in fields(RqConfig) if f.name in header})
        codebooks = []
        for level in range(1, cfg.levels + 1):
            try:
                matrix = read_matrix_block(fh)
            except EmbeddingIOError as exc:
                raise RqError(f"level {level} centroid block: {exc}") from exc
            codebooks.append(Codebook(level=level, centroids=_frozen_f32(matrix)))
        if fh.read(1):
            raise RqError("trailing bytes after the last codebook block")
    try:
        dim = int(header["dim"])
        stats = tuple(from_json(LevelFitStats, st, RqError) for st in header["fit_stats"])
        effective_sizes, stored_hash = list(header["effective_sizes"]), header["model_hash"]
    except (KeyError, TypeError, ValueError) as exc:
        raise RqError(f"malformed model header: {exc!r}") from exc
    dims = {cb.centroids.shape[1] for cb in codebooks}
    if dims != {dim}:
        raise RqError(f"codebook dims {sorted(dims)} do not match header dim {dim}")
    model = RqModel(config=cfg, codebooks=tuple(codebooks), dim=dim, fit_stats=stats)
    if list(model.effective_sizes) != effective_sizes:
        raise RqError("codebook sizes do not match the header")
    if model.model_hash() != stored_hash:
        raise RqError("model hash mismatch; file corrupted or edited")
    return model


def save_assignment(assign: SidAssignment, path) -> None:
    """One-line JSON meta record, then one JSON line per item."""
    with atomic_open(path, encoding="utf-8", newline="\n") as fh:
        meta = {"format": ASSIGNMENT_FORMAT, "model_hash": assign.model_hash, "count": len(assign.sids)}
        fh.write(json.dumps(meta, sort_keys=True) + "\n")
        for item_id, s in assign.sids.items():
            fh.write(
                json.dumps(
                    {"item_id": item_id, "sid": render_sid(s), "tokens": list(s)},
                    sort_keys=True,
                )
                + "\n"
            )


def load_assignment(path) -> SidAssignment:
    sids: dict[str, SidSequence] = {}
    lines = read_lines(path, RqError)
    _, first = next(lines, (1, ""))
    try:
        meta = json.loads(first)
    except json.JSONDecodeError as exc:
        raise RqError(f"unreadable assignment meta line: {exc.msg}") from exc
    if not isinstance(meta, dict):
        raise RqError("assignment meta line is not a JSON object")
    if meta.get("format") != ASSIGNMENT_FORMAT:
        raise RqError(f"unsupported assignment format {meta.get('format')!r}")
    for lineno, line in lines:
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RqError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
        try:
            item_id, sid, tokens = obj["item_id"], obj["sid"], obj["tokens"]
        except (KeyError, TypeError) as exc:
            raise RqError(f"line {lineno}: malformed record ({exc!r})") from exc
        if not isinstance(item_id, str):
            raise RqError(f"line {lineno}: item_id {item_id!r} is not a string")
        if not isinstance(tokens, list) or not all(map(is_json_int, tokens)):
            raise RqError(f"line {lineno}: tokens {tokens!r} are not a list of integers")
        tokens = tuple(tokens)
        if item_id in sids:
            raise RqError(f"line {lineno}: duplicate item_id {item_id!r}")
        if render_sid(tokens) != sid:
            raise RqError(f"line {lineno}: sid text does not match tokens")
        sids[item_id] = tokens
    count = meta.get("count", len(sids))
    if not is_json_int(count):
        raise RqError(f"assignment count {count!r} is not an integer")
    if len(sids) != count:
        raise RqError("assignment count does not match the meta line")
    if "model_hash" not in meta:
        raise RqError("assignment meta line lacks model_hash")
    return SidAssignment(sids=sids, model_hash=str(meta["model_hash"]))


def load_model_and_assignment(model_path, assignment_path) -> tuple[RqModel, SidAssignment]:
    """Load a model and an assignment, and check that the model produced it:
    the model hashes match and every token indexes its level's codebook."""
    model = load_model(model_path)
    assign = load_assignment(assignment_path)
    if assign.model_hash != model.model_hash():
        raise RqError("assignment was produced by a different model")
    sids = assign.sids.values()
    if sids and set(map(len, sids)) != {model.levels}:
        raise RqError(f"assignment SIDs do not all have {model.levels} tokens")
    for level, (column, size) in enumerate(zip(zip(*sids), model.effective_sizes), start=1):
        if min(column) < 0 or max(column) >= size:
            item_id = next(i for i, s in assign.sids.items() if not 0 <= s[level - 1] < size)
            raise RqError(
                f"item {item_id!r}: token {assign[item_id][level - 1]} out of range "
                f"[0, {size}) at level {level}"
            )
    return model, assign
