from __future__ import annotations

import json
import operator
import re
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
import pytest

from sidforge.datamodel import CatalogError, InteractionLog, ItemCatalog, SplitDataset, read_lines
from sidforge.diagnostics import DiagnosticsReport, build_report
from sidforge.recommender import NGramModel
from sidforge.rq import LevelFitStats, RqConfig, RqError, RqModel, SidAssignment, check_token_range, encode_batch

_CRITERION_RE = re.compile(r"test_criterion_(\d+)_(\w+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion, printed after the run."""
    lines = {}
    for outcome, verdict in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for report in terminalreporter.stats.get(outcome, []):
            match = _CRITERION_RE.search(getattr(report, "nodeid", ""))
            if match is None:
                continue
            number = int(match.group(1))
            label = match.group(2).replace("_", " ")
            if verdict == "FAIL" or number not in lines:
                lines[number] = f"criterion {number:2d} {verdict} - {label}"
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for number in sorted(lines):
            terminalreporter.write_line(lines[number])


def random_model(rng: np.random.Generator, levels: int, sizes, dim: int) -> RqModel:
    """A hand-built model with random centroids, no fitting involved."""
    sizes = tuple(int(k) for k in sizes)
    codebooks = []
    stats = []
    for level, k in enumerate(sizes, start=1):
        cents = np.asarray(rng.normal(size=(k, dim)), dtype=np.float32)
        cents = np.ascontiguousarray(cents)
        cents.setflags(write=False)
        codebooks.append(cents)
        stats.append(
            LevelFitStats(level=level, configured_size=k, effective_size=k, mse_trace=(0.0,))
        )
    cfg = RqConfig(levels=levels, codebook_sizes=sizes)
    return RqModel(config=cfg, codebooks=tuple(codebooks), fit_stats=tuple(stats))


def reference_decode_batch(model: RqModel, tokens, depth=None) -> np.ndarray:
    """rq.decode_batch before it took `rows` and widened each centroid as it
    added it, verbatim: the oracle of decode_batch and of the reference
    semantic probe."""
    toks = np.asarray(tokens, dtype=np.int64)
    if toks.ndim != 2 or toks.shape[1] != model.levels:
        raise RqError(f"expected shape (n, {model.levels}), got {toks.shape}")
    if depth is None:
        depth = model.levels
    if not 0 <= depth <= model.levels:
        raise RqError(f"depth {depth} out of range [0, {model.levels}]")
    check_token_range(model, toks[:, :depth])
    out = np.zeros((toks.shape[0], model.dim), dtype=np.float64)
    for level in range(depth):
        out += model.codebooks[level].astype(np.float64)[toks[:, level]]
    return out


def sized_model(sizes) -> RqModel:
    """A model with the given level sizes whose centroids take no memory:
    broadcast zeros, enough for the metrics that read only the sizes."""
    zero = np.zeros((1, 1), dtype=np.float32)
    return RqModel(
        config=RqConfig(levels=len(sizes), codebook_sizes=tuple(sizes)),
        codebooks=tuple(np.broadcast_to(zero, (k, 1)) for k in sizes),
        fit_stats=tuple(LevelFitStats(level=h + 1, configured_size=k, effective_size=k, mse_trace=(0.0,))
                        for h, k in enumerate(sizes)),
    )


def encode(model: RqModel, x) -> tuple[int, ...]:
    """The SID of one vector, through encode_batch."""
    return tuple(encode_batch(model, np.reshape(np.asarray(x, dtype=np.float64), (1, -1)))[0].tolist())


def report_of(assign: SidAssignment) -> DiagnosticsReport:
    """build_report on a model sized to the assignment's largest tokens."""
    return build_report(assign, sized_model((assign.tokens.max(axis=0) + 1).tolist()))


def sid_map(assign: SidAssignment) -> dict:
    """An assignment's {item_id: SID tuple of ints} view, the `sids` it kept
    before its items' rows were one id-to-row map."""
    return dict(zip(assign.item_ids, map(tuple, assign.tokens.tolist())))


def assignment_from_sids(sids: dict, model_hash: str = "test") -> SidAssignment:
    """The assignment of a {item_id: SID} dict; an empty one has one level."""
    tokens = [tuple(s) for s in sids.values()] or np.empty((0, 1), dtype=np.int64)
    return SidAssignment(tuple(sids), tokens, model_hash)


def random_assignments(seed: int):
    """Assignments for the prefix-count oracles: depths 1 to 4 and 1 to 300
    items, with token ranges that give heavy collisions (2 or 3 values per
    level), some, and none (10**6 values)."""
    gen = np.random.default_rng(seed)
    for depth in (1, 2, 3, 4):
        for n in (1, 2, 7, 64, 300):
            for high in (2, 3, 17, 10**6):
                tokens = gen.integers(0, high, size=(n, depth)).tolist()
                yield assignment_from_sids({f"i{j}": row for j, row in enumerate(tokens)})


def ngram_model(order: int, alpha: float, sizes, counts: dict) -> NGramModel:
    """A hand-built NGramModel from {ctx: {token: count}}, in the model's
    layout: one read-only (k, 2) int64 array of (token, count) rows per
    context, tokens ascending."""
    arrays = {}
    for ctx, row in counts.items():
        arrays[tuple(ctx)] = np.array(sorted(row.items()), dtype=np.int64).reshape(-1, 2)
        arrays[tuple(ctx)].setflags(write=False)
    return NGramModel(order=order, alpha=alpha, sizes=tuple(sizes), counts=arrays)


def ngram_dicts(model: NGramModel) -> tuple[dict, dict]:
    """({ctx: {token: count}}, {ctx: total}) rebuilt from a model's count
    arrays with Python ints, after checking the arrays' layout."""
    counts, totals = {}, {}
    for ctx, rows in model.counts.items():
        assert type(ctx) is tuple and all(type(t) is int for t in ctx), ctx
        assert rows.dtype == np.int64 and rows.ndim == 2 and rows.shape[1] == 2, ctx
        assert not rows.flags.writeable, ctx
        assert (np.diff(rows[:, 0]) > 0).all(), f"tokens of {ctx} not ascending"
        counts[ctx] = dict(rows.tolist())
        totals[ctx] = sum(counts[ctx].values())
    return counts, totals


@dataclass(frozen=True)
class ItemRecord:
    """datamodel.ItemRecord before the catalog held columns, verbatim: one
    item. The `reference_*` catalog oracles read it."""
    item_id: str
    title: str
    description: str
    category: str
    visual_description: str | None = None
    interests: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not self.item_id:
            raise CatalogError("item_id must be non-empty")


@dataclass(frozen=True)
class RecordCatalog:
    """datamodel.ItemCatalog before it held columns, verbatim but for its
    name: one ItemRecord per item."""
    items: tuple[ItemRecord, ...]
    _index: dict[str, int] = field(repr=False, compare=False, default_factory=dict)

    @classmethod
    def from_records(cls, records) -> "RecordCatalog":
        items = tuple(records)
        index: dict[str, int] = {}
        for pos, rec in enumerate(items):
            if rec.item_id in index:
                raise CatalogError(f"duplicate item_id {rec.item_id!r}")
            index[rec.item_id] = pos
        return cls(items=items, _index=index)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._index

    def get(self, item_id: str) -> ItemRecord:
        try:
            return self.items[self._index[item_id]]
        except KeyError:
            raise CatalogError(f"unknown item_id {item_id!r}") from None


def reference_load_items(path) -> RecordCatalog:
    """datamodel.load_items before the catalog held columns, verbatim but for
    its names and the column in its JSON error: one ItemRecord per line, then
    the catalog's index."""
    records = []
    for lineno, line in read_lines(path, CatalogError):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CatalogError(f"line {lineno}: invalid JSON at column {exc.colno} ({exc.msg})") from exc
        if not isinstance(obj, dict):
            raise CatalogError(f"line {lineno}: expected a JSON object")
        try:
            rec = reference_record_from_obj(obj)
        except (KeyError, TypeError, CatalogError) as exc:
            raise CatalogError(f"line {lineno}: {exc}") from exc
        records.append(rec)
    return RecordCatalog.from_records(records)


def reference_record_from_obj(obj: dict) -> ItemRecord:
    """datamodel._record_from_obj, verbatim."""
    for key in ("item_id", "title", "description", "category"):
        if key not in obj:
            raise CatalogError(f"missing field {key!r}")
        if not isinstance(obj[key], str):
            raise CatalogError(f"field {key!r} must be a string")
    visual = obj.get("visual_description")
    if visual is not None and not isinstance(visual, str):
        raise CatalogError("field 'visual_description' must be a string")
    interests = obj.get("interests")
    if interests is not None:
        if not isinstance(interests, list) or any(not isinstance(t, str) for t in interests):
            raise CatalogError("field 'interests' must be a list of strings")
        interests = tuple(interests)
    return ItemRecord(
        item_id=obj["item_id"],
        title=obj["title"],
        description=obj["description"],
        category=obj["category"],
        visual_description=visual,
        interests=interests,
    )


def catalog_of(*rows) -> ItemCatalog:
    """The ItemCatalog of rows (item_id, title, description, category[,
    visual_description[, interests]]), in order; a field left off is None."""
    full = [tuple(row) + (None,) * (6 - len(row)) for row in rows]
    return ItemCatalog(*(tuple(zip(*full)) or ((),) * 6))


def record_catalog(catalog: ItemCatalog) -> RecordCatalog:
    """The oracle's catalog of the same items, one ItemRecord each."""
    return RecordCatalog.from_records(ItemRecord(*row) for row in zip(*catalog.columns()))


Event = tuple[str, str, int]  # (user_id, item_id, timestamp seconds)


@dataclass(frozen=True)
class EventLog:
    """datamodel.InteractionLog before it held columns, verbatim but for its
    name: one tuple per event. The `reference_*` interaction oracles return it."""
    events: tuple[Event, ...]

    @property
    def n_events(self) -> int:
        return len(self.events)

    def by_user(self) -> dict[str, list[Event]]:
        """Per-user events in chronological order; timestamp ties break on item_id."""
        grouped: dict[str, list[Event]] = defaultdict(list)
        for ev in self.events:
            grouped[ev[0]].append(ev)
        for events in grouped.values():
            events.sort(key=operator.itemgetter(2, 1))
        return dict(grouped)


def events_of(log: InteractionLog) -> tuple[Event, ...]:
    """A log's events as (user_id, item_id, timestamp) tuples of Python
    values, in the log's order, after checking the columns' layout."""
    assert list(log.user_ids) == sorted(set(log.user_ids)) and list(log.item_ids) == sorted(set(log.item_ids))
    assert (log.users.dtype, log.items.dtype, log.timestamps.dtype) == (np.int32, np.int32, np.int64)
    assert len(log.users) == len(log.items) == len(log.timestamps) == log.n_events
    assert not (log.users.flags.writeable or log.items.flags.writeable or log.timestamps.flags.writeable)
    # Every id in a table is some event's.
    assert set(log.users.tolist()) == set(range(len(log.user_ids)))
    assert set(log.items.tolist()) == set(range(len(log.item_ids)))
    return tuple(zip(map(log.user_ids.__getitem__, log.users.tolist()),
                     map(log.item_ids.__getitem__, log.items.tolist()), log.timestamps.tolist()))


def log_of(events) -> InteractionLog:
    """The InteractionLog of (user_id, item_id, timestamp) events, in order."""
    events = list(events)
    user_code, item_code = ({x: c for c, x in enumerate(dict.fromkeys(ev[k] for ev in events))} for k in (0, 1))
    return InteractionLog.from_codes(
        list(user_code), np.array([user_code[ev[0]] for ev in events], dtype=np.int64),
        list(item_code), np.array([item_code[ev[1]] for ev in events], dtype=np.int64),
        np.array([ev[2] for ev in events], dtype=np.int64),
    )


@dataclass(frozen=True)
class UserSplit:
    """datamodel.UserSplit before the split held columns, verbatim: one
    user's leave-last-out split. The `reference_*` split oracles read it."""
    train: tuple[str, ...]
    validation: str
    test: str


def user_splits(split: SplitDataset) -> dict[str, UserSplit]:
    """A split as the {user_id: UserSplit} dict it was before it held
    columns, users in order, after checking the columns' layout."""
    assert list(split.user_ids) == sorted(set(split.user_ids)) and len(set(split.item_ids)) == len(split.item_ids)
    assert (split.items.dtype, split.ends.dtype) == (np.int32, np.int64)
    assert not (split.items.flags.writeable or split.ends.flags.writeable)
    lengths = np.diff(split.ends, prepend=0)
    assert len(lengths) == len(split.user_ids) and lengths.sum() == len(split.items) and (lengths >= 2).all()
    items = list(map(split.item_ids.__getitem__, split.items.tolist()))
    bounds = [0, *split.ends.tolist()]
    return {user_id: UserSplit(train=tuple(items[a:b - 2]), validation=items[b - 2], test=items[b - 1])
            for user_id, a, b in zip(split.user_ids, bounds, bounds[1:])}


def split_of(user_seqs: dict) -> SplitDataset:
    """The split of {user_id: item ids}, users in any order: each user's
    items are its train sequence, then its validation and test items."""
    user_ids = tuple(sorted(user_seqs))
    item_ids = tuple(sorted({item for seq in user_seqs.values() for item in seq}))
    code = {item: c for c, item in enumerate(item_ids)}
    items = np.array([code[item] for user_id in user_ids for item in user_seqs[user_id]], dtype=np.int32)
    ends = np.cumsum([len(user_seqs[user_id]) for user_id in user_ids], dtype=np.int64)
    for column in (items, ends):
        column.setflags(write=False)
    return SplitDataset(user_ids, item_ids, items, ends)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
