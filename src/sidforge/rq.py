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
block size or the worker count. k-means++ seeding uses the same screen, with
one margin per pick (that of the largest row norm, which bounds every row's).
The Lloyd update sums each cluster's rows with one weighted bincount, in row
order from 0.0 as a scatter-add would. The fit keeps each level's final
assignment (`RqModel.fit_tokens`): the tokens that encoding the rows gives.
An assignment holds such an (items, levels) token matrix, and its `prefixes`,
one `sorted_prefixes` pass, is what every count of distinct prefixes reads.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
import string
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import rng
from .datamodel import (
    EmbeddingIOError,
    EmbeddingSet,
    atomic_open,
    from_json,
    id_rows,
    is_json_int,
    names_file,
    read_lines,
    read_matrix_block,
    write_matrix_block,
)

SidSequence = tuple[int, ...]

MODEL_FORMAT = "sidforge-rq-v1"
ASSIGNMENT_FORMAT = "sidforge-sids-v1"

# Elements in one row block's float64 work matrix (512 KiB): rows x centroids
# in the nearest-centroid kernel, its only temporary that grows with the
# codebook size, and rows x dims in diagnostics.reconstruction_curve.
BLOCK_ELEMENTS = 1 << 16

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
class LevelFitStats:
    level: int
    configured_size: int
    effective_size: int
    mse_trace: tuple[float, ...]  # nonincreasing; entry 0 is the post-init error


@dataclass(frozen=True)
class ModelHeader:
    """The fields of a model file's JSON header line beside its RqConfig's."""

    format: str
    dim: int
    effective_sizes: tuple[int, ...]
    model_hash: str
    fit_stats: tuple[LevelFitStats, ...]


@dataclass(frozen=True, eq=False)
class RqModel:
    """`codebooks[h]`: level h + 1's read-only float32 (size, dim) centroids;
    `dim`, `levels` and `effective_sizes` read these matrices. Compared by
    identity, as arrays have no dataclass equality; `model_hash` compares
    the centroids."""

    config: RqConfig
    codebooks: tuple[np.ndarray, ...]
    fit_stats: tuple[LevelFitStats, ...]
    # The fitted rows' tokens (n x levels int64, read-only), equal to
    # encode_batch on those rows; None on a loaded model. Not saved.
    fit_tokens: np.ndarray | None = field(default=None, repr=False)

    @property
    def levels(self) -> int:
        return len(self.codebooks)

    @property
    def dim(self) -> int:
        return self.codebooks[0].shape[1]

    @property
    def effective_sizes(self) -> tuple[int, ...]:
        return tuple(map(len, self.codebooks))

    def model_hash(self) -> str:
        """The sha256 of the centroids as saved, hashed on the first call: they are read-only."""
        return self._digest

    @functools.cached_property
    def _digest(self) -> str:
        digest = hashlib.sha256()
        for cb in self.codebooks:
            digest.update(np.ascontiguousarray(cb, dtype="<f4").tobytes(order="C"))
        return digest.hexdigest()


@dataclass(frozen=True)
class AssignmentMeta:
    """An assignment file's first line; `count`, if present, is its record count."""

    format: str
    model_hash: str
    count: int | None = None


@dataclass(frozen=True, eq=False)
class SidAssignment:
    """Row r of the read-only int64 (items, levels) matrix `tokens` is the SID
    of `item_ids[r]` (distinct ids, in embedding order), made by the model
    with hash `model_hash`. A writeable matrix is copied; one that is not
    2-D, is ragged or has not one row per id raises RqError, as does a
    repeated id. Every stage shares `row_of` (item id -> row, built with the
    assignment) and `prefixes` (its one sorted-prefix pass, made on first
    read). Compared by identity, as arrays have no dataclass equality."""

    item_ids: tuple[str, ...]
    tokens: np.ndarray = field(repr=False)
    model_hash: str
    row_of: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        try:
            tokens = np.asarray(self.tokens, dtype=np.int64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise RqError(f"SID tokens are not an integer matrix: {exc}") from None
        object.__setattr__(self, "item_ids", tuple(self.item_ids))
        if tokens.ndim != 2 or len(tokens) != len(self.item_ids) or tokens.size == 0 < len(tokens):
            raise RqError(f"{len(self.item_ids)} item ids for a token matrix of shape {tokens.shape}")
        object.__setattr__(self, "row_of", id_rows(self.item_ids, RqError))
        if tokens.flags.writeable:
            tokens = tokens.copy()
            tokens.setflags(write=False)
        object.__setattr__(self, "tokens", tokens)

    @functools.cached_property
    def prefixes(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """`sorted_prefixes(tokens)`, made on the first read and kept: the
        tokens are read-only, so it cannot go stale. Readers leave it as is."""
        return sorted_prefixes(self.tokens)

    def __len__(self) -> int:
        return len(self.item_ids)


def sorted_prefixes(tokens: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """`(rows, starts)` for an (n, levels) integer matrix: its rows in
    lexicographic order (one `np.lexsort`), and for p = 0..levels the
    positions `starts[p]` in `rows` where a new length-p prefix begins. So
    the distinct length-p prefixes are `rows[starts[p], :p]`, in order, each
    shared by `np.diff(starts[p], append=n)` rows; `starts[p]` holds
    `starts[p - 1]`, and `np.searchsorted(starts[p], starts[p - 1])` finds
    each prefix's first extension."""
    rows = tokens[np.lexsort(tokens.T[::-1])]
    new = np.zeros(len(tokens), dtype=bool)
    new[:1] = True
    starts = [np.flatnonzero(new)]
    for column in rows.T:
        new[1:] |= column[1:] != column[:-1]
        starts.append(np.flatnonzero(new))
    return rows, starts


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
    S = |x|^2 + x.(-2c) + |c|^2 (one matrix product), keeps the centroids whose
    S lies within a margin M(x) of the row's smallest S, and re-scores only
    those directly. Why no direct-scan winner is dropped, with u = 2^-53 and
    gamma_n = n u / (1 - n u), for the true squared distance D = |x - c|^2:

    - |S - D| <= gamma_{d+2} (|x| + |c|)^2 in any summation order (BLAS
      blocking and fused multiply-adds included): -2c is exact, so x.(-2c)
      errs by at most 2 gamma_d |x||c|, since sum |x_i c_i| <= |x||c|, each
      norm by gamma_d times itself, and two additions follow.
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
    overflow makes the threshold infinite or NaN (-2c overflows only where
    |c|^2 already has), which keeps every centroid, and the row is scanned
    directly.
    """
    points = np.asarray(points, dtype=np.float64)
    cents = centroids.astype(np.float64)
    k, d = cents.shape
    n = points.shape[0]
    idx = np.empty(n, dtype=np.int64)
    sq = np.empty(n, dtype=np.float64)
    cc = np.einsum("ij,ij->i", cents, cents)
    minus_2c = -2.0 * cents
    reach = np.sqrt(cc.max())
    step = max(1, BLOCK_ELEMENTS // k)

    def block(start: int) -> None:
        x = points[start:start + step]
        xx = np.einsum("ij,ij->i", x, x)
        work = np.matmul(x, minus_2c.T)
        work += xx[:, None]
        work += cc
        # The row's minimum, or its first NaN: argmin stops at a NaN.
        bound = work[np.arange(len(x)), work.argmin(axis=1)]
        bound += _margin(np.sqrt(xx), reach, d)
        # Negated so that a NaN bound keeps the whole row.
        rows, cols = np.divmod(np.flatnonzero(~(work > bound[:, None])), k)
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
    """Greedy D^2-weighted seeding; returns float32 centroids, fewer than k
    rows when the remaining distance mass hits zero. That stop is how a level
    with fewer distinct points than k shrinks: a duplicate of a chosen centre
    always has its distance recomputed to exactly 0 (its screened value minus
    the margin lies below 0), every draw takes a row with positive distance,
    so the chosen rows are distinct, and the mass is zero once every distinct
    row is chosen. The stop draws nothing from `gen`.

    After each new centre c, a row's distance is recomputed directly only
    where its screened value S minus the `_nearest` margin for the largest
    row norm and |c| falls below its current distance; elsewhere the direct
    value cannot be smaller (by the bound in `_nearest`, that margin being at
    least the row's own), so the update would leave it as it is."""
    n, d = points.shape
    xx = np.einsum("ij,ij->i", points, points)
    norms = np.sqrt(xx)
    reach = norms.max()
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
        screened -= _margin(reach, norms[j], d)
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
    d = points.shape[1]
    # Entry (i, j) goes to flat bin idx[i] * d + j; bincount adds each bin's
    # entries in row order, starting from 0.0.
    bins = np.add.outer(idx * d, np.arange(d)).ravel()
    sums = np.bincount(bins, weights=points.ravel(), minlength=k * d).reshape(k, d)
    counts = np.bincount(idx, minlength=k).astype(np.float64)
    new = old.astype(np.float64)
    filled = counts > 0
    new[filled] = sums[filled] / counts[filled, None]
    return new.astype(np.float32)


def _fit_level(points, k_conf, gen, max_iters, rel_tol, workers):
    cents = _kmeanspp_init(points, k_conf, gen)
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


def check_settings(*, workers: int = 1) -> None:
    """Raise RqError, naming the setting, when the thread count `workers` is
    below 1. The pipeline's `pipeline` config section runs the same check."""
    if workers < 1:
        raise RqError(f"workers must be >= 1, not {workers}")


def fit_codebooks(emb: EmbeddingSet, cfg: RqConfig, workers: int = 1) -> RqModel:
    """Fit one k-means codebook per level on the residuals of the previous
    levels. A level whose residuals have fewer distinct values than its
    configured size shrinks to that count (recorded in fit_stats): the
    k-means++ seeding stops when every residual equals a chosen centre."""
    check_settings(workers=workers)
    if emb.count == 0:
        raise RqError("cannot fit codebooks on an empty embedding set")
    residual = _prepare(emb.rows.astype(np.float64), cfg)
    codebooks = []
    stats = []
    tokens = np.empty((emb.count, cfg.levels), dtype=np.int64)
    for level in range(1, cfg.levels + 1):
        gen = rng.stream(cfg.seed, rng.CODEBOOK_LEVEL, level)
        k_conf = cfg.codebook_sizes[level - 1]
        cents, idx, trace = _fit_level(
            residual, k_conf, gen, cfg.kmeans_max_iters, cfg.kmeans_rel_tol, workers
        )
        codebooks.append(_frozen_f32(cents))
        stats.append(
            LevelFitStats(
                level=level,
                configured_size=k_conf,
                effective_size=cents.shape[0],
                mse_trace=tuple(trace),
            )
        )
        tokens[:, level - 1] = idx
        residual = residual - cents.astype(np.float64)[idx]
    tokens.setflags(write=False)
    return RqModel(config=cfg, codebooks=tuple(codebooks), fit_stats=tuple(stats), fit_tokens=tokens)


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
        np.sqrt(np.square(cb, dtype=np.float64).sum(axis=1).max())
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
        idx, _ = _nearest(residual, cb, workers)
        out[:, level] = idx
        residual = residual - cb.astype(np.float64)[idx]
    return out


def check_token_range(model: RqModel, tokens, item_ids=None, error: type[ValueError] = RqError) -> None:
    """Raise `error` unless every token of the matrix (n x h, h <= levels)
    indexes its level's codebook. The message names the first bad token in
    level order, its range, level and row, and its item where ids are given."""
    tokens = np.asarray(tokens)
    sizes = np.array(model.effective_sizes[:tokens.shape[1]])
    bad = (tokens < 0) | (tokens >= sizes)
    if bad.any():
        level, row = np.argwhere(bad.T)[0]
        item = "" if item_ids is None else f"item {item_ids[row]!r}: "
        raise error(f"{item}token {tokens[row, level]} out of range [0, {sizes[level]}) "
                    f"at level {level + 1} (row {row})")


def validate_sid(model: RqModel, s: SidSequence) -> None:
    if len(s) != model.levels:
        raise RqError(f"SID has {len(s)} tokens for a {model.levels}-level model")
    check_token_range(model, np.array([s], dtype=object))  # object: exact for any int


def decode(model: RqModel, s: SidSequence, depth: int | None = None) -> np.ndarray:
    """Sum of the first `depth` selected centroids (default: all levels).
    Reconstructs the embedding as quantized (after normalization, if the model
    normalizes its inputs)."""
    validate_sid(model, s)
    return decode_batch(model, [s], depth)[0]


def decode_batch(model: RqModel, tokens, depth: int | None = None, rows=None) -> np.ndarray:
    """Reconstruction matrix for a token matrix (n x levels), or for its
    `rows` only. The checks cover the whole matrix, so an error names a row
    of it. Each float32 centroid is widened exactly as the sum adds it."""
    toks = np.asarray(tokens, dtype=np.int64)
    if toks.ndim != 2 or toks.shape[1] != model.levels:
        raise RqError(f"expected shape (n, {model.levels}), got {toks.shape}")
    if depth is None:
        depth = model.levels
    if not 0 <= depth <= model.levels:
        raise RqError(f"depth {depth} out of range [0, {model.levels}]")
    check_token_range(model, toks[:, :depth])
    if rows is not None:
        toks = toks[rows]
    out = np.zeros((toks.shape[0], model.dim), dtype=np.float64)
    for level in range(depth):
        out += model.codebooks[level][toks[:, level]]
    return out


def level_letter(level: int) -> str:
    """Letter tag for a 1-based level: a, b, c, ..."""
    if not 1 <= level <= 26:
        raise RqError("token rendering supports at most 26 levels")
    return string.ascii_lowercase[level - 1]


_TOKEN_RE = re.compile(r"<([a-z])_(0|[1-9][0-9]*)>")


@functools.cache
def _sid_template(depth: int) -> str:
    """"<a_%d><b_%d>..." with `depth` groups."""
    if depth == 0:
        raise RqError("cannot render an empty SID")
    return "".join(f"<{level_letter(h)}_%d>" for h in range(1, depth + 1))


def render_sid(s: SidSequence) -> str:
    """Token string like "<a_239><b_112><c_7>": one <letter_index> group per
    level, concatenated without separators."""
    return _sid_template(len(s)) % tuple(s)


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
    check_settings(workers=workers)
    tokens = encode_batch(model, emb.rows, workers=workers)
    tokens.setflags(write=False)
    return SidAssignment(emb.item_ids, tokens, model.model_hash())


@dataclass(frozen=True)
class SidTrie:
    """Prefix tree over the catalog's SIDs, compiled into one CSR pair of
    read-only arrays per level, plus the set of full SIDs.

    The nodes at depth h are the distinct length-h prefixes in lexicographic
    order. `levels[h]` is `(indptr, tokens)`: node n's next tokens are
    `tokens[indptr[n]:indptr[n + 1]]`, ascending, and the child reached
    through position p of `tokens` is node p at depth h + 1."""

    leaves: frozenset[SidSequence]
    levels: tuple[tuple[np.ndarray, np.ndarray], ...] = field(repr=False, compare=False)

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def n_sids(self) -> int:
        return len(self.leaves)

    def __contains__(self, tokens) -> bool:
        return tuple(tokens) in self.leaves


def build_trie(assign: SidAssignment) -> SidTrie:
    """The trie of an assignment's SIDs from its one `prefixes` pass: a
    node's children start at its first extension among the next depth's."""
    if len(assign) == 0:
        raise RqError("cannot build a trie from an empty assignment")
    rows, starts = assign.prefixes
    levels = []
    for h, (parents, children) in enumerate(zip(starts, starts[1:])):
        levels.append((np.append(np.searchsorted(children, parents), len(children)), rows[children, h]))
        for array in levels[-1]:
            array.setflags(write=False)
    leaves = frozenset(map(tuple, rows[starts[-1]].tolist()))
    return SidTrie(leaves=leaves, levels=tuple(levels))


def save_model(model: RqModel, path) -> None:
    """One JSON header line (RqConfig and ModelHeader fields), then one binary centroid block per level."""
    meta = ModelHeader(MODEL_FORMAT, model.dim, model.effective_sizes, model.model_hash(), model.fit_stats)
    header = {**asdict(model.config), **asdict(meta)}
    with atomic_open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        for cb in model.codebooks:
            write_matrix_block(fh, cb)


def load_model(path) -> RqModel:
    with names_file(path, RqError), open(path, "rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RqError(f"unreadable model header: {exc}") from exc
        if not isinstance(header, dict):
            raise RqError("model header is not a JSON object")
        if header.get("format") != MODEL_FORMAT:
            raise RqError(f"unsupported model format {header.get('format')!r}")
        cfg = RqConfig.from_dict({f.name: header.pop(f.name) for f in fields(RqConfig) if f.name in header})
        meta = from_json(ModelHeader, header, RqError, "model header")
        codebooks = []
        for level in range(1, cfg.levels + 1):
            try:
                matrix = read_matrix_block(fh)
            except EmbeddingIOError as exc:
                raise RqError(f"level {level} centroid block: {exc}") from exc
            codebooks.append(_frozen_f32(matrix))
        if fh.read(1):
            raise RqError("trailing bytes after the last codebook block")
        dims = {cb.shape[1] for cb in codebooks}
        if dims != {meta.dim}:
            raise RqError(f"codebook dims {sorted(dims)} do not match header dim {meta.dim}")
        model = RqModel(config=cfg, codebooks=tuple(codebooks), fit_stats=meta.fit_stats)
        if model.effective_sizes != meta.effective_sizes:
            raise RqError("codebook sizes do not match the header")
        stats = [(st.level, st.configured_size, st.effective_size) for st in meta.fit_stats if st.mse_trace]
        if stats != list(zip(range(1, model.levels + 1), cfg.codebook_sizes, model.effective_sizes)):
            raise RqError("fit_stats must hold, per level from 1, its number, configured size, "
                          "codebook size and a nonempty mse_trace")
        if model.model_hash() != meta.model_hash:
            raise RqError("model hash mismatch; file corrupted or edited")
        return model


def save_assignment(assign: SidAssignment, path) -> None:
    """One-line JSON meta record (AssignmentMeta, keys sorted), then one JSON
    line per item, keys sorted: {"item_id": ..., "sid": ..., "tokens": [...]}."""
    meta = AssignmentMeta(ASSIGNMENT_FORMAT, assign.model_hash, len(assign))
    with atomic_open(path, encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(asdict(meta), sort_keys=True) + "\n")
        for item_id, s in zip(assign.item_ids, assign.tokens.tolist()):
            # The SID text needs no JSON escaping, and the tokens are ints.
            fh.write('{"item_id": %s, "sid": "%s", "tokens": [%s]}\n'
                     % (json.dumps(item_id), render_sid(s), ", ".join(map(str, s))))


def load_assignment(path) -> SidAssignment:
    """RqError names the line of a malformed record, of one whose token count
    differs from the first record's, and of a token outside int64."""
    with names_file(path, RqError):
        sids: dict[str, list[int]] = {}
        width = 0  # the token count of every record so far
        lines = read_lines(path, RqError)
        _, first = next(lines, (1, ""))
        try:
            meta = json.loads(first)
        except json.JSONDecodeError as exc:
            raise RqError(f"unreadable assignment meta line at column {exc.colno} ({exc.msg})") from exc
        if isinstance(meta, dict) and meta.get("format") != ASSIGNMENT_FORMAT:
            raise RqError(f"unsupported assignment format {meta.get('format')!r}")
        meta = from_json(AssignmentMeta, meta, RqError, "assignment meta line")
        for lineno, line in lines:
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise RqError(f"line {lineno}: invalid JSON at column {exc.colno} ({exc.msg})") from exc
            try:
                item_id, sid, tokens = obj["item_id"], obj["sid"], obj["tokens"]
            except (KeyError, TypeError) as exc:
                raise RqError(f"line {lineno}: malformed record ({exc!r})") from exc
            if not isinstance(item_id, str):
                raise RqError(f"line {lineno}: item_id {item_id!r} is not a string")
            if not isinstance(tokens, list) or not all(is_json_int(t) and -2**63 <= t < 2**63 for t in tokens):
                raise RqError(f"line {lineno}: tokens {tokens!r} are not a list of 64-bit integers")
            if sids and len(tokens) != width:
                raise RqError(f"line {lineno}: {len(tokens)} tokens, where the first record has {width}")
            if item_id in sids:
                raise RqError(f"line {lineno}: duplicate item_id {item_id!r}")
            try:
                rendered = render_sid(tokens)
            except RqError as exc:
                raise RqError(f"line {lineno}: {exc}") from exc
            if rendered != sid:
                raise RqError(f"line {lineno}: sid text does not match tokens")
            sids[item_id] = tokens
            width = len(tokens)
        if meta.count not in (None, len(sids)):
            raise RqError("assignment count does not match the meta line")
        tokens = np.array(list(sids.values()), dtype=np.int64).reshape(len(sids), width)
        return SidAssignment(list(sids), tokens, meta.model_hash)


def load_model_and_assignment(model_path, assignment_path) -> tuple[RqModel, SidAssignment]:
    """Load a model and an assignment, and check that the model produced it:
    the hashes match and every token indexes its level's codebook (an error names the assignment)."""
    model = load_model(model_path)
    assign = load_assignment(assignment_path)
    with names_file(assignment_path, RqError):
        if assign.model_hash != model.model_hash():
            raise RqError("assignment was produced by a different model")
        if len(assign) and assign.tokens.shape[1] != model.levels:
            raise RqError(f"assignment SIDs have {assign.tokens.shape[1]} tokens, not the model's {model.levels}")
        check_token_range(model, assign.tokens, assign.item_ids)
    return model, assign
