"""Seeded synthetic catalogs, embeddings, and interaction logs.

Items come from Gaussian category clusters whose signal lives in an
"informative" coordinate block. The enrichment level widens cluster
separation, de-noises the informative block, and pushes apart look-alike twin
pairs (items sharing one noise draw, told apart only by an enrichment-scaled
offset), so SID collision and utilization trends can be studied directly.
Interactions follow a per-user category-level Markov chain with a dominant
transition into the next category.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields

import numpy as np

from . import rng
from .datamodel import EmbeddingSet, InteractionLog, ItemCatalog, ItemRecord

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


class SynthError(ValueError):
    """Raised for invalid generator configurations."""


# SynthConfig field -> the conversion applied to its JSON value.
_FIELD_TYPES = {
    "num_items": int,
    "num_users": int,
    "dim": int,
    "num_categories": int,
    "enrichment_level": float,
    "intra_category_noise": float,
    "events_per_user": lambda pair: tuple(int(v) for v in pair),
    "seed": int,
    "informative_fraction": float,
    "twin_fraction": float,
    "twin_separation": float,
    "center_scale": float,
    "dominant_transition": float,
}


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
        object.__setattr__(self, "events_per_user", tuple(int(v) for v in self.events_per_user))
        if self.num_items < 1 or self.num_users < 1 or self.num_categories < 1:
            raise SynthError("num_items, num_users, and num_categories must be positive")
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
        """Config from a JSON object; unknown, missing or mistyped fields
        raise SynthError."""
        if not isinstance(obj, dict):
            raise SynthError(f"a SynthConfig must be a JSON object, not {type(obj).__name__}")
        unknown = set(obj) - set(_FIELD_TYPES)
        if unknown:
            raise SynthError(f"unknown SynthConfig fields: {sorted(unknown)}")
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(obj)
        if missing:
            raise SynthError(f"missing SynthConfig fields: {sorted(missing)}")
        kwargs = {}
        for name, value in obj.items():
            try:
                kwargs[name] = _FIELD_TYPES[name](value)
            except (TypeError, ValueError) as exc:
                raise SynthError(f"invalid SynthConfig field {name!r}: {exc}") from exc
        return cls(**kwargs)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["events_per_user"] = list(self.events_per_user)
        return out


def load_synth_config(path) -> SynthConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SynthError(f"unreadable synth config {path}: {exc}") from exc
    return SynthConfig.from_dict(obj)


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
    cat = np.empty(cfg.num_items, dtype=np.int64)
    pairs = _twin_pairs(cfg)
    for j in range(pairs):
        cat[2 * j] = cat[2 * j + 1] = j % cfg.num_categories
    for i in range(2 * pairs, cfg.num_items):
        cat[i] = i % cfg.num_categories
    return cat


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

    rows = np.empty((cfg.num_items, cfg.dim))
    for j in range(pairs):
        pair_gen = rng.stream(cfg.seed, rng.TWIN_PAIRS, j)
        shared = pair_gen.standard_normal(cfg.dim)
        shared[:d_info] *= info_std
        shared[d_info:] *= ambient_std
        direction = pair_gen.standard_normal(d_info)
        norm = float(np.sqrt(np.square(direction).sum()))
        if norm > 0.0:
            direction /= norm
        offset = np.zeros(cfg.dim)
        offset[:d_info] = direction * (e * cfg.twin_separation * cfg.intra_category_noise)
        base = centers[cat[2 * j]] + shared
        rows[2 * j] = base + offset
        rows[2 * j + 1] = base - offset
    for i in range(2 * pairs, cfg.num_items):
        item_gen = rng.stream(cfg.seed, rng.ITEM_NOISE, i)
        noise = item_gen.standard_normal(cfg.dim)
        noise[:d_info] *= info_std
        noise[d_info:] *= ambient_std
        rows[i] = centers[cat[i]] + noise

    records = []
    labels: dict[str, str] = {}
    for i in range(cfg.num_items):
        item_id = f"it{i:06d}"
        cname = category_name(int(cat[i]))
        if i < 2 * pairs:
            pair, member = divmod(i, 2)
            style = "style A" if member == 0 else "style B"
            finish = "matte black" if member == 0 else "glossy red"
            title = f"{cname} Model {pair:04d} ({style})"
            description = f"Dependable {cname.lower()} model {pair:04d} for everyday use."
            visual = f"Studio photo of a {cname.lower()} product in a {finish} finish."
        else:
            title = f"{cname} Item {i:05d}"
            description = f"A dependable {cname.lower()} product, catalog entry {i}."
            visual = (
                f"Product photo of a {cname.lower()} item on a white background, "
                f"angle {i % 9}."
            )
        records.append(
            ItemRecord(
                item_id=item_id,
                title=title,
                description=description,
                category=cname,
                visual_description=visual,
                interests=(f"{cname.lower()} enthusiasts & hobby collectors",),
            )
        )
        labels[item_id] = cname
    catalog = ItemCatalog.from_records(records)
    emb = EmbeddingSet([r.item_id for r in records], rows.astype(np.float32))
    return catalog, emb, labels


def default_transition(cfg: SynthConfig) -> np.ndarray:
    """Category transition matrix: dominant_transition mass on the next
    category (cyclic), the remainder spread over all others including self."""
    c = cfg.num_categories
    if c == 1:
        return np.ones((1, 1))
    matrix = np.full((c, c), (1.0 - cfg.dominant_transition) / (c - 1))
    for src in range(c):
        matrix[src, (src + 1) % c] = cfg.dominant_transition
    return matrix


def generate_interactions(
    catalog: ItemCatalog,
    labels: dict[str, str],
    cfg: SynthConfig,
    transition: np.ndarray | None = None,
) -> InteractionLog:
    """Per-user category Markov walks with uniform item choice within the
    category and strictly increasing timestamps. Chain states are restricted
    to categories that actually contain items."""
    if transition is None:
        transition = default_transition(cfg)
    matrix = np.asarray(transition, dtype=np.float64)
    c = cfg.num_categories
    if matrix.shape != (c, c):
        raise SynthError(f"transition must be {c}x{c}, got {matrix.shape}")
    if np.any(matrix < 0.0) or not np.allclose(matrix.sum(axis=1), 1.0, atol=1e-9):
        raise SynthError("transition rows must be nonnegative and sum to 1")

    by_category: dict[int, list[str]] = {i: [] for i in range(c)}
    name_to_index = {category_name(i): i for i in range(c)}
    for rec in catalog:
        idx = name_to_index.get(labels[rec.item_id])
        if idx is not None:
            by_category[idx].append(rec.item_id)
    live = [i for i in range(c) if by_category[i]]
    if not live:
        raise SynthError("no catalog item belongs to any configured category")
    live_pos = {ci: p for p, ci in enumerate(live)}
    reduced = matrix[np.ix_(live, live)]
    row_sums = reduced.sum(axis=1)
    if np.any(row_sums <= 0.0):
        raise SynthError("a transition row has no mass on categories with items")
    reduced = reduced / row_sums[:, None]
    cumulative = np.cumsum(reduced, axis=1)

    events = []
    lo, hi = cfg.events_per_user
    for u in range(cfg.num_users):
        gen = rng.stream(cfg.seed, rng.USER_EVENTS, u)
        user_id = f"u{u:05d}"
        count = int(gen.integers(lo, hi + 1))
        state = int(gen.integers(len(live)))
        ts = _BASE_TIMESTAMP
        for step in range(count):
            if step > 0:
                draw = gen.random()
                state = int(np.searchsorted(cumulative[state], draw, side="right"))
                if state >= len(live):
                    state = len(live) - 1
            items = by_category[live[state]]
            item_id = items[int(gen.integers(len(items)))]
            ts += int(gen.integers(1, 3601))
            events.append((user_id, item_id, ts))
    return InteractionLog(events=tuple(events))
