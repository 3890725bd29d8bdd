"""Core domain types and file ingestion: item catalogs, embedding matrices,
interaction logs, k-core filtering, and the leave-last-out split. Every
sidforge writer opens its file through atomic_open; every config is read by
from_json."""

from __future__ import annotations

import functools
import itertools
import json
import operator
import os
import struct
import typing
import zlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

EMBEDDING_MAGIC = b"SIDEMB01"
_HEADER_LEN = len(EMBEDDING_MAGIC) + 8  # magic + u32 count + u32 dim


# Numbers the temp files of this process's writers, so no two writers of one
# path share a temp name.
_temp_serial = itertools.count()


@contextmanager
def atomic_open(path, mode="w", **open_kwargs):
    """Open a writer for path that replaces it atomically: the bytes go to a
    temp file beside path, renamed over it on a clean exit, so readers never
    see a partial file. On an exception the temp file is deleted and path is
    left as it was. The temp name (pid plus a per-process serial) belongs to
    this writer alone, and exclusive create gives the temp file the
    permissions a plain open would give path."""
    if not mode.startswith("w"):
        raise ValueError(f"atomic_open writes a whole file; got mode {mode!r}")
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{next(_temp_serial)}.tmp")
    try:
        with open(tmp, "x" + mode[1:], **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def is_json_int(value) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


# A dataclass's field annotations as types, evaluated once per class.
_field_types = functools.cache(typing.get_type_hints)


def _json_as(kind, value):
    """value as the annotated type kind; TypeError if its JSON type differs."""
    if kind is float:
        if is_json_int(value) or isinstance(value, float):
            return float(value)
    elif kind is int:
        if is_json_int(value):
            return value
    elif type(kind) is type:  # bool, str and None take only themselves
        if isinstance(value, kind):
            return value
    elif typing.get_origin(kind) is tuple:
        # tuple[int, ...] takes any length, tuple[int, int] exactly two.
        args = typing.get_args(kind)
        if isinstance(value, (list, tuple)) and (args[-1] is ... or len(value) == len(args)):
            return tuple(_json_as(args[0], v) for v in value)
    else:  # a union such as str | None
        for arg in typing.get_args(kind):
            try:
                return _json_as(arg, value)
            except TypeError:
                pass
    raise TypeError(kind)


def from_json(cls, obj, error: type[ValueError], name: str | None = None):
    """An instance of the dataclass cls from a JSON object: each key must name
    a field, each field without a default must be present, and each value must
    have its field's JSON type (a bool is not an int; an int is a float). Else
    raises `error`, naming `name` (by default the class name) and the field."""
    name = name or cls.__name__
    if not isinstance(obj, dict):
        raise error(f"{name} must be a JSON object, not {type(obj).__name__}")
    hints = _field_types(cls)
    unknown = set(obj) - set(hints)
    if unknown:
        raise error(f"unknown {name} fields: {sorted(unknown)}")
    missing = {f.name for f in fields(cls) if f.default is MISSING} - set(obj)
    if missing:
        raise error(f"missing {name} fields: {sorted(missing)}")
    kwargs = {}
    for key, value in obj.items():
        kind = hints[key]
        try:
            kwargs[key] = _json_as(kind, value)
        except TypeError:
            shown = kind.__name__ if type(kind) is type else str(kind)
            raise error(f"{name} field {key!r} must be {shown}, not {value!r}") from None
    return cls(**kwargs)


class CatalogError(ValueError):
    """Raised when an item file violates the catalog contract."""


class EmbeddingIOError(ValueError):
    """Raised when an embedding file is malformed; message carries the byte offset."""


class InteractionError(ValueError):
    """Raised when an interaction file cannot be parsed."""


def read_lines(path, error: type[ValueError]):
    """Yield (line number, line) over a UTF-8 text file. A byte sequence that
    is not UTF-8 raises `error` citing its line and byte offset."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError:
            # Located on the error path only: decoding the whole file again
            # gives the absolute offset the text reader's chunk does not.
            data = Path(path).read_bytes()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                line = data.count(b"\n", 0, exc.start) + 1
                raise error(
                    f"line {line}: invalid UTF-8 at byte offset {exc.start} ({exc.reason})"
                ) from None
            raise


@dataclass(frozen=True)
class ItemRecord:
    item_id: str
    title: str
    description: str
    category: str
    visual_description: str | None = None
    interests: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not self.item_id:
            raise CatalogError("item_id must be non-empty")

    @property
    def unified_text(self) -> str:
        """Labeled concatenation of the text fields: title, interest tags,
        description, then visual description; absent optional fields are dropped."""
        parts = [f"Title: {self.title}"]
        if self.interests:
            parts.append("[INTERESTS] " + "; ".join(self.interests))
        parts.append(f"Description: {self.description}")
        if self.visual_description:
            parts.append(f"Visual: {self.visual_description}")
        return " ".join(parts)


@dataclass(frozen=True)
class ItemCatalog:
    items: tuple[ItemRecord, ...]
    _index: dict[str, int] = field(repr=False, compare=False, default_factory=dict)

    @classmethod
    def from_records(cls, records) -> "ItemCatalog":
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


def load_items(path) -> ItemCatalog:
    """Read a line-delimited JSON item file.

    Each line holds one object with item_id, title, description, category and
    optional visual_description / interests; unknown keys are ignored.
    """
    records = []
    for lineno, line in read_lines(path, CatalogError):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CatalogError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
        if not isinstance(obj, dict):
            raise CatalogError(f"line {lineno}: expected a JSON object")
        try:
            rec = _record_from_obj(obj)
        except (KeyError, TypeError, CatalogError) as exc:
            raise CatalogError(f"line {lineno}: {exc}") from exc
        records.append(rec)
    return ItemCatalog.from_records(records)


def _record_from_obj(obj: dict) -> ItemRecord:
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


def save_items(catalog: ItemCatalog, path) -> None:
    with atomic_open(path, encoding="utf-8", newline="\n") as fh:
        for rec in catalog:
            obj = {
                "item_id": rec.item_id,
                "title": rec.title,
                "description": rec.description,
                "category": rec.category,
            }
            if rec.visual_description is not None:
                obj["visual_description"] = rec.visual_description
            if rec.interests is not None:
                obj["interests"] = list(rec.interests)
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


class EmbeddingSet:
    """A dense item-embedding matrix with aligned item ids.

    Rows are float32 and frozen after construction; every entry must be finite.
    """

    def __init__(self, item_ids, rows: np.ndarray):
        rows = np.ascontiguousarray(rows, dtype=np.float32)
        if rows.ndim != 2:
            raise EmbeddingIOError("rows must be a 2-D matrix")
        if rows.shape[1] < 1:
            raise EmbeddingIOError("dim must be >= 1")
        if not np.all(np.isfinite(rows)):
            bad = int(np.flatnonzero(~np.isfinite(rows.ravel()))[0])
            raise EmbeddingIOError(f"non-finite value at flat index {bad}")
        ids = tuple(item_ids)
        if len(ids) != rows.shape[0]:
            raise EmbeddingIOError(
                f"{len(ids)} item_ids for {rows.shape[0]} rows"
            )
        if len(set(ids)) != len(ids):
            dupes = [i for i, c in Counter(ids).items() if c > 1]
            raise EmbeddingIOError(f"duplicate item_ids: {dupes[:3]}")
        rows.setflags(write=False)
        self.item_ids = ids
        self.rows = rows

    @property
    def count(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


def write_matrix_block(fh, matrix: np.ndarray) -> None:
    """Write one binary embedding block: magic, u32 count, u32 dim, little-endian
    float32 payload (row-major), u32 CRC32 of the payload."""
    matrix = np.ascontiguousarray(matrix, dtype="<f4")
    payload = matrix.tobytes(order="C")
    fh.write(EMBEDDING_MAGIC)
    fh.write(struct.pack("<II", matrix.shape[0], matrix.shape[1]))
    fh.write(payload)
    fh.write(struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))


def read_matrix_block(fh) -> np.ndarray:
    """Read one block written by write_matrix_block, starting at fh's current
    position. Errors cite absolute byte offsets in the file. A header that
    claims more payload than the file holds is refused before any read."""
    base = fh.tell()
    magic = fh.read(len(EMBEDDING_MAGIC))
    if magic != EMBEDDING_MAGIC:
        raise EmbeddingIOError(
            f"bad magic {magic!r} at byte offset {base} (expected {EMBEDDING_MAGIC!r})"
        )
    head = fh.read(8)
    if len(head) != 8:
        raise EmbeddingIOError(f"truncated header at byte offset {base + len(EMBEDDING_MAGIC)}")
    count, dim = struct.unpack("<II", head)
    need = count * dim * 4
    start = base + _HEADER_LEN
    left = fh.seek(0, os.SEEK_END) - start
    if need > left:
        raise EmbeddingIOError(
            f"truncated payload at byte offset {start}: header claims {count} x {dim} "
            f"floats ({need} bytes), {left} bytes remain"
        )
    fh.seek(start)
    payload = fh.read(need)
    crc_raw = fh.read(4)
    if len(crc_raw) != 4:
        raise EmbeddingIOError(f"truncated checksum at byte offset {start + need}")
    (crc,) = struct.unpack("<I", crc_raw)
    if crc != (zlib.crc32(payload) & 0xFFFFFFFF):
        raise EmbeddingIOError(
            f"checksum mismatch for payload at byte offset {start}"
        )
    matrix = np.frombuffer(payload, dtype="<f4").reshape(count, dim).copy()
    finite = np.isfinite(matrix.ravel())
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise EmbeddingIOError(
            f"non-finite float at byte offset {start + bad * 4}"
        )
    return matrix


def ids_path_for(path) -> Path:
    """Sibling line-delimited id file for an embedding file."""
    return Path(str(path) + ".ids")


def write_embeddings(emb: EmbeddingSet, path) -> None:
    """Write the matrix and its id sidecar. Both are complete before either
    replaces its target; the sidecar is replaced first, then the matrix."""
    with atomic_open(path, "wb") as fh, atomic_open(
        ids_path_for(path), encoding="utf-8", newline="\n"
    ) as ids_fh:
        write_matrix_block(fh, emb.rows)
        for item_id in emb.item_ids:
            ids_fh.write(item_id + "\n")


def load_embeddings(path) -> EmbeddingSet:
    with open(path, "rb") as fh:
        matrix = read_matrix_block(fh)
        if fh.read(1):
            raise EmbeddingIOError("trailing bytes after checksum")
    idp = ids_path_for(path)
    if not idp.exists():
        raise EmbeddingIOError(f"missing sibling id file {idp}")
    lines = read_lines(idp, EmbeddingIOError)
    ids = [line.rstrip("\n") for _, line in lines if line.rstrip("\n")]
    if len(ids) != matrix.shape[0]:
        raise EmbeddingIOError(
            f"id file lists {len(ids)} ids for {matrix.shape[0]} rows"
        )
    return EmbeddingSet(ids, matrix)


Event = tuple[str, str, int]  # (user_id, item_id, timestamp seconds)


@dataclass(frozen=True)
class InteractionLog:
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


def load_interactions(path) -> InteractionLog:
    """Read tab-separated interactions: user_id, item_id, timestamp (no header)."""
    events: list[Event] = []
    for lineno, line in read_lines(path, InteractionError):
        line = line.rstrip("\n")
        if not line:
            continue
        cols = line.split("\t")
        if len(cols) != 3:
            raise InteractionError(f"line {lineno}: expected 3 tab-separated columns")
        try:
            ts = int(cols[2])
        except ValueError:
            raise InteractionError(f"line {lineno}: timestamp {cols[2]!r} is not an integer") from None
        events.append((cols[0], cols[1], ts))
    return InteractionLog(events=tuple(events))


def save_interactions(log: InteractionLog, path) -> None:
    with atomic_open(path, encoding="utf-8", newline="\n") as fh:
        for user, item, ts in log.events:
            fh.write(f"{user}\t{item}\t{ts}\n")


def k_core_filter(log: InteractionLog, k: int) -> InteractionLog:
    """Iteratively drop users and items with fewer than k events until none remain.

    The fixed point is the unique maximal sub-log where every surviving user and
    item has >= k events. Output events are in canonical (user, timestamp, item)
    order, so the result does not depend on input event order.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    events = list(log.events)
    while True:
        user_deg = Counter(u for u, _, _ in events)
        item_deg = Counter(i for _, i, _ in events)
        kept = [
            ev for ev in events
            if user_deg[ev[0]] >= k and item_deg[ev[1]] >= k
        ]
        if len(kept) == len(events):
            break
        events = kept
    events.sort(key=lambda ev: (ev[0], ev[2], ev[1]))
    return InteractionLog(events=tuple(events))


@dataclass(frozen=True)
class UserSplit:
    train: tuple[str, ...]
    validation: str
    test: str


@dataclass(frozen=True)
class SplitDataset:
    """Per-user leave-last-out split: last event is the test target, the one
    before it the validation target, everything earlier the train sequence."""

    users: dict[str, UserSplit]
    n_dropped_users: int


def leave_last_out_split(log: InteractionLog) -> SplitDataset:
    users: dict[str, UserSplit] = {}
    dropped = 0
    grouped = log.by_user()
    for user in sorted(grouped):
        seq = [item for _, item, _ in grouped[user]]
        if len(seq) < 3:
            dropped += 1
            continue
        users[user] = UserSplit(
            train=tuple(seq[:-2]),
            validation=seq[-2],
            test=seq[-1],
        )
    return SplitDataset(users=users, n_dropped_users=dropped)
