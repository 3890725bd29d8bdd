"""Seeded synthetic catalogs, embeddings, and interaction logs.

Items come from Gaussian category clusters whose signal lives in an
"informative" coordinate block. The enrichment level widens cluster
separation, de-noises the informative block, and pushes apart look-alike twin
pairs (items sharing one noise draw, told apart only by an enrichment-scaled
offset), so SID collision and utilization trends can be studied directly.
Twin pair j draws `standard_normal(dim + d_info)` from stream
`(seed, TWIN_PAIRS, j)`: its shared noise, then its offset direction. Every
other item i draws `standard_normal(dim)` from `(seed, ITEM_NOISE, i)`; the
scaling, centers and offsets then apply to the whole matrix at once.
Interactions follow a per-user category-level Markov chain with a dominant
transition into the next category. User u draws from its own stream
`(seed, USER_EVENTS, u)`, in this order: the event count
`integers(lo, hi + 1)`, the start state `integers(len(live))`, then per step a
`random()` for the transition (not at step 0), the item `integers(len(pool))`
and the gap `integers(1, 3601)`. The walk steps all users at once: it reads
each stream's raw Philox words and applies numpy's integer and float rules to
them (`StreamDraws`), so its bytes equal those of calling each user's
Generator draw by draw. Every per-index stream comes from `rng.streams`, one
Philox re-keyed per index, bit for bit `rng.stream`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .datamodel import EmbeddingSet, InteractionLog, ItemCatalog, from_json, names_file, read_json_object

_CATEGORY_NOUNS = (
    "Soccer Gear",
    "Trail Camping",
    "Desk Lamps",
    "Ceramic Mugs",
    "Yoga Mats",
    "Wireless Audio",
    "Board Games",
    "Garden Tools",
    "Road Cycling",
    "Watercolor Paint",
    "Robot Kits",
    "Espresso Brewing",
    "Alpine Skiing",
    "Aquarium Care",
    "Leather Wallets",
    "Drone Photography",
)

_BASE_TIMESTAMP = 1_600_000_000

_LOW32 = np.uint64(0xFFFFFFFF)
_TWO32 = np.uint64(2**32)
_RAW_BLOCK_WORDS = 1 << 18  # raw Philox words held for one block of users (2 MiB)
_TOP_UP_WORDS = 4  # words added to every row when one runs out


class SynthError(ValueError):
    """Raised for invalid generator configurations."""


@dataclass(frozen=True)
class SynthConfig:
    num_items: int
    num_users: int
    dim: int
    num_categories: int
    enrichment_level: float
    intra_category_noise: float
    events_per_user: tuple[int, int]
    seed: int
    informative_fraction: float = 0.5
    twin_fraction: float = 0.2
    twin_separation: float = 2.0
    center_scale: float = 1.0
    dominant_transition: float = 0.8

    def __post_init__(self) -> None:
        object.__setattr__(self, "events_per_user", tuple(self.events_per_user))
        if self.num_items < 1 or self.num_users < 1 or self.num_categories < 1:
            raise SynthError("num_items, num_users, and num_categories must be positive")
        for name in ("num_items", "num_users"):
            if getattr(self, name) > 2**32:
                raise SynthError(f"{name} must be <= 2**32, the number of RNG stream indices")
        if self.num_categories > self.num_items:
            raise SynthError("num_categories cannot exceed num_items")
        if self.dim < 2:
            raise SynthError("dim must be >= 2")
        if not 0.0 <= self.enrichment_level <= 1.0:
            raise SynthError("enrichment_level must lie in [0, 1]")
        if not self.intra_category_noise > 0.0:
            raise SynthError("intra_category_noise must be > 0")
        lo, hi = self.events_per_user
        if lo < 1 or hi < lo:
            raise SynthError("events_per_user must be a range with 1 <= lo <= hi")
        if hi >= 2**32:
            raise SynthError("events_per_user upper bound must be < 2**32: the event count is a 32-bit draw")
        if not 0.0 < self.informative_fraction <= 1.0:
            raise SynthError("informative_fraction must lie in (0, 1]")
        if not 0.0 <= self.twin_fraction <= 1.0:
            raise SynthError("twin_fraction must lie in [0, 1]")
        if self.twin_separation < 0.0:
            raise SynthError("twin_separation must be >= 0")
        if not 0.0 < self.dominant_transition <= 1.0:
            raise SynthError("dominant_transition must lie in (0, 1]")

    @classmethod
    def from_dict(cls, obj: dict) -> "SynthConfig":
        """Config from a JSON object; raises SynthError."""
        return from_json(cls, obj, SynthError)


def load_synth_config(path) -> SynthConfig:
    with names_file(path, SynthError):
        return SynthConfig.from_dict(read_json_object(path, SynthError, "synth config"))


def category_name(index: int) -> str:
    base = _CATEGORY_NOUNS[index % len(_CATEGORY_NOUNS)]
    repeat = index // len(_CATEGORY_NOUNS)
    return base if repeat == 0 else f"{base} {repeat + 1}"


def _informative_dims(cfg: SynthConfig) -> int:
    return min(cfg.dim, max(1, int(round(cfg.dim * cfg.informative_fraction))))


def _twin_pairs(cfg: SynthConfig) -> int:
    return int(cfg.twin_fraction * cfg.num_items) // 2


def _category_layout(cfg: SynthConfig) -> np.ndarray:
    """Item index -> category index. Twin pairs occupy the first 2*P slots and
    share a category; everything after is assigned round-robin."""
    pairs = _twin_pairs(cfg)
    return np.concatenate([
        np.repeat(np.arange(pairs) % cfg.num_categories, 2),
        np.arange(2 * pairs, cfg.num_items) % cfg.num_categories,
    ])


def generate_catalog(cfg: SynthConfig):
    """Deterministic (catalog, embeddings, labels) triple for a config.

    Cluster centers sit in the informative block at separation scaled by
    (1 + 2e); informative noise has standard deviation intra_category_noise *
    (1.5 - e) while ambient noise stays at intra_category_noise * 1.5. Twin
    pair members share one noise draw and get opposite offsets of magnitude
    e * twin_separation * intra_category_noise, so they are bit-identical at
    e = 0 and drift apart as enrichment grows.
    """
    e = cfg.enrichment_level
    d_info = _informative_dims(cfg)
    pairs = _twin_pairs(cfg)
    cat = _category_layout(cfg)

    centers_gen = rng.stream(cfg.seed, rng.CATEGORY_CENTERS)
    centers = np.zeros((cfg.num_categories, cfg.dim))
    centers[:, :d_info] = (
        centers_gen.standard_normal((cfg.num_categories, d_info))
        * cfg.center_scale
        * (1.0 + 2.0 * e)
    )
    info_std = cfg.intra_category_noise * (1.5 - e)
    ambient_std = cfg.intra_category_noise * 1.5

    # Per twin pair, one draw of dim + d_info normals: shared noise, then the
    # offset direction. Per other item, one row of dim normals.
    pair_draws = np.empty((pairs, cfg.dim + d_info))
    for draw, gen in zip(pair_draws, rng.streams(cfg.seed, rng.TWIN_PAIRS, range(pairs))):
        gen.standard_normal(out=draw)
    rows = np.empty((cfg.num_items, cfg.dim))
    singles = rows[2 * pairs:]
    for row, gen in zip(singles, rng.streams(cfg.seed, rng.ITEM_NOISE, range(2 * pairs, cfg.num_items))):
        gen.standard_normal(out=row)

    shared = pair_draws[:, :cfg.dim]
    for noise in (shared, singles):
        noise[:, :d_info] *= info_std
        noise[:, d_info:] *= ambient_std
    singles += centers[cat[2 * pairs:]]
    direction = pair_draws[:, cfg.dim:]
    norm = np.sqrt(np.square(direction).sum(axis=1))[:, None]
    np.divide(direction, norm, out=direction, where=norm > 0.0)
    offset = np.zeros((pairs, cfg.dim))
    offset[:, :d_info] = direction * (e * cfg.twin_separation * cfg.intra_category_noise)
    base = centers[cat[:2 * pairs:2]] + shared
    rows[:2 * pairs:2] = base + offset
    rows[1:2 * pairs:2] = base - offset

    names = [(name, name.lower()) for name in map(category_name, range(cfg.num_categories))]
    interests = [(f"{lower} enthusiasts & hobby collectors",) for _, lower in names]  # one per category
    layout = cat.tolist()
    item_ids = tuple(f"it{i:06d}" for i in range(cfg.num_items))
    categories = tuple(names[c][0] for c in layout)
    titles, descriptions, visuals = [], [], []
    for i, c in enumerate(layout):
        cname, lower = names[c]
        if i < 2 * pairs:
            pair, member = divmod(i, 2)
            style = "style A" if member == 0 else "style B"
            finish = "matte black" if member == 0 else "glossy red"
            titles.append(f"{cname} Model {pair:04d} ({style})")
            descriptions.append(f"Dependable {lower} model {pair:04d} for everyday use.")
            visuals.append(f"Studio photo of a {lower} product in a {finish} finish.")
        else:
            titles.append(f"{cname} Item {i:05d}")
            descriptions.append(f"A dependable {lower} product, catalog entry {i}.")
            visuals.append(f"Product photo of a {lower} item on a white background, angle {i % 9}.")
    catalog = ItemCatalog(item_ids, tuple(titles), tuple(descriptions), categories, tuple(visuals),
                          tuple(map(interests.__getitem__, layout)))
    emb = EmbeddingSet(item_ids, rows.astype(np.float32))
    labels = dict(zip(item_ids, categories))
    return catalog, emb, labels


def default_transition(cfg: SynthConfig) -> np.ndarray:
    """Category transition matrix: dominant_transition mass on the next
    category (cyclic), the remainder spread over all others including self."""
    c = cfg.num_categories
    if c == 1:
        return np.ones((1, 1))
    matrix = np.full((c, c), (1.0 - cfg.dominant_transition) / (c - 1))
    src = np.arange(c)
    matrix[src, (src + 1) % c] = cfg.dominant_transition
    return matrix


class StreamDraws:
    """numpy's `Generator.integers(span)` and `Generator.random()` for many
    Philox streams at once, one row per stream, computed from each stream's
    raw 64-bit words (`random_raw`) in the order numpy reads them.

    The rules are numpy's own (the tests hold them to `Generator`): a 32-bit
    draw takes the low half of a fresh word and holds the high half for the
    next 32-bit draw. `integers` with a span k <= 2**32 draws nothing when
    k == 1; otherwise it multiplies a 32-bit word w by k, draws again while
    (w * k) mod 2**32 < (2**32 - k) mod k (Lemire's rejection rule) and
    returns (w * k) >> 32. `random()` takes a fresh word x, leaves the held
    half alone and returns (x >> 11) * 2**-53. Row r holds the words of
    `rng.stream(seed, purpose, indices[r])`, read through `rng.streams`; when
    a row runs out, every row is topped up by re-keying its stream and
    reading past the words already taken.
    """

    def __init__(self, seed: int, purpose: int, indices, width: int):
        self._seed, self._purpose, self._indices = seed, purpose, list(indices)
        self._words = self._read(0, width)
        self._next = np.zeros(len(self._indices), dtype=np.int64)
        self._held = np.zeros(len(self._indices), dtype=np.uint64)
        self._has_held = np.zeros(len(self._indices), dtype=bool)

    def _read(self, skip: int, count: int) -> np.ndarray:
        """Words skip .. skip + count - 1 of every row's stream."""
        words = np.empty((len(self._indices), count), dtype=np.uint64)
        for row, gen in zip(words, rng.streams(self._seed, self._purpose, self._indices)):
            row[:] = gen.bit_generator.random_raw(skip + count)[skip:]
        return words

    def _fresh(self, rows: np.ndarray) -> np.ndarray:
        """The next unread 64-bit word of each of `rows` (distinct indices)."""
        at = self._next[rows]
        while np.any(at == self._words.shape[1]):
            self._words = np.hstack([self._words, self._read(self._words.shape[1], _TOP_UP_WORDS)])
        self._next[rows] = at + 1
        return self._words[rows, at]

    def _next32(self, rows: np.ndarray) -> np.ndarray:
        """The next 32-bit word of each of `rows`: the held high half if the
        row has one, else the low half of a fresh word, whose high half is held."""
        held = self._has_held[rows]
        out = np.empty(rows.shape, dtype=np.uint64)
        out[held] = self._held[rows[held]]
        fresh = rows[~held]
        words = self._fresh(fresh)
        out[~held] = words & _LOW32
        self._held[fresh] = words >> 32
        self._has_held[rows] = ~held
        return out

    def integers(self, rows: np.ndarray, span) -> np.ndarray:
        """`integers(span)` on each of `rows` (distinct indices), for one span
        or one per row, 1 <= span <= 2**32."""
        span = np.broadcast_to(np.asarray(span, dtype=np.uint64), rows.shape)
        out = np.zeros(rows.shape, dtype=np.int64)
        todo = np.flatnonzero(span > 1)
        while todo.size:
            k = span[todo]
            product = self._next32(rows[todo]) * k
            out[todo] = product >> 32
            todo = todo[(product & _LOW32) < (_TWO32 - k) % k]
        return out

    def random(self, rows: np.ndarray) -> np.ndarray:
        """`random()` on each of `rows` (distinct indices)."""
        return (self._fresh(rows) >> 11) * 2.0**-53


def generate_interactions(
    catalog: ItemCatalog, labels: dict[str, str], cfg: SynthConfig
) -> InteractionLog:
    """Per-user category Markov walks over `default_transition` with uniform
    item choice within the category and strictly increasing timestamps.
    Chain states are restricted to categories that actually contain items.
    Users step together in blocks, one draw at a time in the order the module
    docstring gives."""
    matrix = default_transition(cfg)
    c = cfg.num_categories

    by_category: dict[int, list[str]] = {i: [] for i in range(c)}
    name_to_index = {category_name(i): i for i in range(c)}
    for item_id in catalog.item_ids:
        idx = name_to_index.get(labels[item_id])
        if idx is not None:
            by_category[idx].append(item_id)
    live = [i for i in range(c) if by_category[i]]
    if not live:
        raise SynthError("no catalog item belongs to any configured category")
    reduced = matrix[np.ix_(live, live)]
    row_sums = reduced.sum(axis=1)
    if np.any(row_sums <= 0.0):
        raise SynthError("a transition row has no mass on categories with items")
    reduced = reduced / row_sums[:, None]
    cumulative = np.cumsum(reduced, axis=1)

    pool_ids = [item_id for ci in live for item_id in by_category[ci]]
    pool_size = np.array([len(by_category[ci]) for ci in live])
    pool_start = np.cumsum(pool_size) - pool_size
    lo, hi = cfg.events_per_user
    width = 2 * hi + 2  # raw words per user: enough for a walk with no rejected draw
    block = max(1, _RAW_BLOCK_WORDS // width)
    columns: list = []  # (user codes, pool indices, timestamps) per block
    for first in range(0, cfg.num_users, block):
        users = range(first, min(first + block, cfg.num_users))
        draws = StreamDraws(cfg.seed, rng.USER_EVENTS, users, width)
        every = np.arange(len(users))
        counts = lo + draws.integers(every, hi - lo + 1)
        state = draws.integers(every, len(live))
        ts = np.full(len(users), _BASE_TIMESTAMP, dtype=np.int64)
        picked = np.zeros((len(users), hi), dtype=np.int64)
        stamps = np.zeros((len(users), hi), dtype=np.int64)
        for step in range(int(counts.max())):
            rows = np.flatnonzero(counts > step)
            if step > 0:
                # np.searchsorted(row, draw, side="right") on each non-decreasing row
                draw = draws.random(rows)
                moved = np.count_nonzero(cumulative[state[rows]] <= draw[:, None], axis=1)
                state[rows] = np.minimum(moved, len(live) - 1)
            pools = state[rows]
            picked[rows, step] = pool_start[pools] + draws.integers(rows, pool_size[pools])
            ts[rows] += 1 + draws.integers(rows, 3600)
            stamps[rows, step] = ts[rows]
        taken = np.arange(hi) < counts[:, None]
        columns.append((np.arange(first, users.stop).repeat(counts), picked[taken], stamps[taken]))
    users, picked, stamps = map(np.concatenate, zip(*columns))
    user_ids = [f"u{u:05d}" for u in range(cfg.num_users)]
    return InteractionLog.from_codes(user_ids, users, pool_ids, picked, stamps)
