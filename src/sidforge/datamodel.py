"""Core domain types and file ingestion: item catalogs, embedding matrices,
interaction logs, k-core filtering and the leave-last-out split. Writers open
their files through atomic_open, configs are read by from_json, and each
loader's errors name its file through names_file."""

from __future__ import annotations

import functools
import itertools
import json
import os
import re
import reprlib
import struct
import typing
import zlib
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
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
    permissions a plain open would give path. An OSError on the temp file
    names path."""
    if not mode.startswith("w"):
        raise ValueError(f"atomic_open writes a whole file; got mode {mode!r}")
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{next(_temp_serial)}.tmp")
    try:
        with open(tmp, "x" + mode[1:], **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(tmp):  # OSError(errno, ...) builds its subclass
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


# atomic_open's temp names: the target's name, the pid, the serial, ".tmp".
_TEMP_NAME = re.compile(r"(.+)\.[0-9]+\.[0-9]+\.tmp")


def remove_temp_files(directory: Path, names) -> None:
    """Delete the temp files that killed atomic_open writers of the files
    `names` in `directory` left behind; every other file stays. Only for
    files that no writer is writing."""
    for name in os.listdir(directory):
        match = _TEMP_NAME.fullmatch(name)
        if match and match[1] in names and (directory / name).is_file():
            (directory / name).unlink()


def is_json_int(value) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_json_number(value) -> bool:
    """A JSON number: an int or float that is not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# A dataclass's field annotations as types, evaluated once per class.
_field_types = functools.cache(typing.get_type_hints)


def _json_as(kind, value, error):
    """value as the annotated type kind; TypeError if its JSON type differs."""
    if is_dataclass(kind):
        return from_json(kind, value, error)
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
            return tuple(_json_as(args[0], v, error) for v in value)
    else:  # a union such as str | None
        for arg in typing.get_args(kind):
            try:
                return _json_as(arg, value, error)
            except TypeError:
                pass
    raise TypeError(kind)


def from_json(cls, obj, error: type[ValueError], name: str | None = None):
    """An instance of the dataclass cls from a JSON object: each key must name
    a field, each field without a default must be present, and each value must
    have its field's JSON type (a bool is not an int; an int in range is a
    float; a dataclass is an object, read in turn). Else raises `error`,
    naming `name` (by default the class name), the field and its value (by reprlib)."""
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
            kwargs[key] = _json_as(kind, value, error)
        except (TypeError, OverflowError):  # OverflowError: an int too large for a float
            shown = kind.__name__ if type(kind) is type else str(kind)
            raise error(f"{name} field {key!r} must be {shown}, not {reprlib.repr(value)}") from None
    return cls(**kwargs)


class CatalogError(ValueError):
    """Raised when an item file violates the catalog contract."""


class EmbeddingIOError(ValueError):
    """Raised when an embedding file is malformed; message carries the byte offset."""


class InteractionError(ValueError):
    """Raised when an interaction file cannot be parsed."""


def read_json_object(path, error: type[ValueError], what: str) -> dict:
    """The JSON object in a UTF-8 file. Raises `error`, naming `what` and the
    file, when the file is not UTF-8 JSON or holds a value of another type,
    which it names."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise error(f"unreadable {what} {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise error(f"{what} {path} is a {type(payload).__name__}, not a JSON object")
    return payload


@contextmanager
def names_file(path, error: type[ValueError]):
    """Put `<path>: ` in front of the message of an `error` raised in the
    block that does not name path already. The exception itself goes on, so
    its type, cause and traceback stay; any other exception is left alone."""
    try:
        yield
    except error as exc:
        if str(path) not in str(exc):
            exc.args = (f"{path}: {exc}",)
        raise


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


def id_rows(item_ids: tuple[str, ...], error: type[ValueError]) -> dict[str, int]:
    """item id -> its position; a repeated id raises `error` naming the first id met again."""
    row_of = dict(zip(item_ids, range(len(item_ids))))
    if len(row_of) < len(item_ids):
        seen: set[str] = set()
        repeated = next(i for i in item_ids if i in seen or seen.add(i))
        raise error(f"duplicate item_id {repeated!r}")
    return row_of


_ITEM_KEYS = ("item_id", "title", "description", "category", "visual_description", "interests")


@dataclass(frozen=True)
class ItemCatalog:
    """The item file's records as columns in file order, with no object per
    item: item r is `item_ids[r]` with `titles[r]`, `descriptions[r]`,
    `categories[r]`, `visual_descriptions[r]` (str or None) and `interests[r]`
    (a tuple of str, or None). `row_of`, each id's row, is built once and left
    out of equality, which is by column. An empty or repeated id, or columns
    of unequal lengths, raise CatalogError."""

    item_ids: tuple[str, ...]
    titles: tuple[str, ...]
    descriptions: tuple[str, ...]
    categories: tuple[str, ...]
    visual_descriptions: tuple[str | None, ...]
    interests: tuple[tuple[str, ...] | None, ...]
    row_of: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if any(len(column) != len(self.item_ids) for column in self.columns()):
            raise CatalogError(f"catalog columns of unequal lengths {[len(c) for c in self.columns()]}")
        row_of = id_rows(self.item_ids, CatalogError)
        if "" in row_of:
            raise CatalogError("item_id must be non-empty")
        object.__setattr__(self, "row_of", row_of)

    def columns(self) -> tuple[tuple, ...]:
        """The six columns, in the order of `_ITEM_KEYS`."""
        return (self.item_ids, self.titles, self.descriptions, self.categories,
                self.visual_descriptions, self.interests)

    def __len__(self) -> int:
        return len(self.item_ids)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self.row_of


def load_items(path) -> ItemCatalog:
    """Read a line-delimited JSON item file in one pass, each line's object
    checked into a row: item_id, title, description and category (strings),
    optional visual_description (a string) and interests (a list of strings);
    unknown keys are ignored. CatalogError names the file and the bad line."""
    rows = []
    with names_file(path, CatalogError):
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
                rows.append(_item_row(obj))
            except CatalogError as exc:
                raise CatalogError(f"line {lineno}: {exc}") from exc
        return ItemCatalog(*(tuple(zip(*rows)) or ((),) * len(_ITEM_KEYS)))


def _item_row(obj: dict) -> tuple:
    """An item record's values in `_ITEM_KEYS` order; CatalogError names the first bad field."""
    for key in _ITEM_KEYS[:4]:
        if not isinstance(obj.get(key), str):
            raise CatalogError(f"field {key!r} must be a string" if key in obj else f"missing field {key!r}")
    visual, interests = obj.get("visual_description"), obj.get("interests")
    if visual is not None and not isinstance(visual, str):
        raise CatalogError("field 'visual_description' must be a string")
    if interests is not None:
        if not isinstance(interests, list) or not all(map(isinstance, interests, itertools.repeat(str))):
            raise CatalogError("field 'interests' must be a list of strings")
        interests = tuple(interests)
    if not obj["item_id"]:
        raise CatalogError("item_id must be non-empty")
    return obj["item_id"], obj["title"], obj["description"], obj["category"], visual, interests


_ITEM_ENCODER = json.JSONEncoder(ensure_ascii=False)  # json.dumps(obj, ensure_ascii=False), built once


def save_items(catalog: ItemCatalog, path) -> None:
    """One JSON object per item, keys in `_ITEM_KEYS` order; an optional field that is None is left out."""
    with atomic_open(path, encoding="utf-8", newline="\n") as fh:
        for item_id, title, description, category, visual, interests in zip(*catalog.columns()):
            obj = {"item_id": item_id, "title": title, "description": description, "category": category}
            if visual is not None:
                obj["visual_description"] = visual
            if interests is not None:
                obj["interests"] = interests
            fh.write(_ITEM_ENCODER.encode(obj) + "\n")


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
        id_rows(ids, EmbeddingIOError)
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
    """The matrix and its id sidecar; EmbeddingIOError names the file at fault."""
    with names_file(path, EmbeddingIOError), open(path, "rb") as fh:
        matrix = read_matrix_block(fh)
        if fh.read(1):
            raise EmbeddingIOError("trailing bytes after checksum")
    idp = ids_path_for(path)
    if not idp.exists():
        raise EmbeddingIOError(f"missing sibling id file {idp}")
    with names_file(idp, EmbeddingIOError):
        ids = [line.rstrip("\n") for _, line in read_lines(idp, EmbeddingIOError) if line.rstrip("\n")]
        if len(ids) != matrix.shape[0]:
            raise EmbeddingIOError(f"id file lists {len(ids)} ids for {matrix.shape[0]} rows")
        return EmbeddingSet(ids, matrix)


@dataclass(frozen=True, eq=False)
class InteractionLog:
    """Events as columns, with no object per event: event j is
    (user_ids[users[j]], item_ids[items[j]], timestamps[j]). The id tables
    are the log's distinct ids, sorted, so codes compare as their ids do;
    `users` and `items` are read-only int32 codes and `timestamps` read-only
    int64 seconds. Compared by identity, as arrays have no dataclass
    equality."""

    user_ids: tuple[str, ...]
    item_ids: tuple[str, ...]
    users: np.ndarray
    items: np.ndarray
    timestamps: np.ndarray

    @classmethod
    def from_codes(cls, user_ids, users, item_ids, items, timestamps) -> "InteractionLog":
        """The log of events (user_ids[users[j]], item_ids[items[j]],
        timestamps[j]) over distinct ids in any order: the tables keep the
        ids that some event uses, sorted, and the codes are renumbered."""
        tables, codes = [], []
        for ids, column in ((user_ids, users), (item_ids, items)):
            used = np.flatnonzero(np.bincount(column, minlength=len(ids))).tolist()
            used.sort(key=ids.__getitem__)
            rank = np.zeros(len(ids), dtype=np.int32)
            rank[used] = np.arange(len(used), dtype=np.int32)
            tables.append(tuple(map(ids.__getitem__, used)))
            codes.append(rank[column])
        codes.append(np.asarray(timestamps, dtype=np.int64).view())
        for column in codes:  # read-only, so that logs may share them
            column.setflags(write=False)
        return cls(tables[0], tables[1], *codes)

    @property
    def n_events(self) -> int:
        return len(self.timestamps)


class _Codes(dict):
    """id -> code: each id not yet seen takes the next code, from 0."""

    def __missing__(self, key):
        self[key] = code = len(self)
        return code


_PARSE_LINES = 8192  # lines parsed into lists before they become arrays


def load_interactions(path) -> InteractionLog:
    """Read tab-separated interactions: user_id, item_id, timestamp (no header).
    Each id is kept as the first `str` read for it, users and items alike, so
    a log keeps one object per distinct id, and its k-core and split share
    them. A timestamp must be an integer in the int64 range. The lines are
    parsed in blocks, each block's columns becoming arrays, so no Python int
    outlives its block."""
    with names_file(path, InteractionError):
        lines = read_lines(path, InteractionError)
        user_code, item_code = _Codes(), _Codes()
        blocks: list[tuple[np.ndarray, ...]] = []
        events = 0  # in the blocks before this one
        while True:
            users, items, stamps = [], [], []
            add_user, add_item, add_stamp = users.append, items.append, stamps.append
            lineno = None
            for lineno, line in itertools.islice(lines, _PARSE_LINES):
                cols = line.split("\t")  # the timestamp keeps the line end, which int() skips
                if len(cols) != 3:
                    if line == "\n":
                        continue
                    _int64_column(stamps, events, path)  # an earlier line's fault first
                    raise InteractionError(f"line {lineno}: expected 3 tab-separated columns")
                try:
                    add_stamp(int(cols[2]))
                except ValueError:
                    _int64_column(stamps, events, path)
                    text = cols[2].rstrip("\n")
                    raise InteractionError(f"line {lineno}: timestamp {text!r} is not an integer") from None
                add_user(user_code[cols[0]])
                add_item(item_code[cols[1]])
            if lineno is None:
                break
            stamps = _int64_column(stamps, events, path)
            blocks.append((np.array(users, np.int32), np.array(items, np.int32), stamps))
            events += len(stamps)
    columns = [np.concatenate(column) for column in zip(*blocks)] or [np.empty(0, np.int32)] * 3
    user_ids = list(user_code)
    shared = dict(zip(user_ids, user_ids))  # an item id equal to a user id takes the user's object
    item_ids = [shared.get(i, i) for i in item_code]
    return InteractionLog.from_codes(user_ids, columns[0], item_ids, columns[1], columns[2])


def _int64_column(stamps: list, events_before: int, path) -> np.ndarray:
    """A block's timestamps as int64; InteractionError names the line of the
    first that does not fit, found by reading the file again."""
    try:
        return np.array(stamps, dtype=np.int64)
    except OverflowError:
        bad = next(i for i, ts in enumerate(stamps) if not -2**63 <= ts < 2**63)
        event_lines = (n for n, line in read_lines(path, InteractionError) if line != "\n")
        lineno = next(itertools.islice(event_lines, events_before + bad, None))
        raise InteractionError(f"line {lineno}: timestamp {stamps[bad]} is outside the int64 range") from None


_SAVE_CHUNK = 4096  # events rendered per write


def save_interactions(log: InteractionLog, path) -> None:
    # Each id with its tab, in object arrays that a chunk's codes gather from.
    users, items = (np.array([i + "\t" for i in ids], dtype=object) for ids in (log.user_ids, log.item_ids))
    with atomic_open(path, encoding="utf-8", newline="\n") as fh:
        for start in range(0, log.n_events, _SAVE_CHUNK):
            chunk = slice(start, start + _SAVE_CHUNK)
            lines = zip(users[log.users[chunk]].tolist(), items[log.items[chunk]].tolist(),
                        log.timestamps[chunk].tolist())
            fh.write("".join([f"{u}{i}{ts}\n" for u, i, ts in lines]))


def _canonical_order(users, items, timestamps):
    """Event positions in (user, timestamp, item) order: one lexsort, or a
    slice of every event when they are in that order already, as a log that
    was written in it is."""
    (u0, u1), (t0, t1), (i0, i1) = ((x[:-1], x[1:]) for x in (users, timestamps, items))
    if ((u0 < u1) | (u0 == u1) & ((t0 < t1) | (t0 == t1) & (i0 <= i1))).all():
        return slice(None)
    return np.lexsort((items, timestamps, users))


def k_core_filter(log: InteractionLog, k: int) -> InteractionLog:
    """Iteratively drop users and items with fewer than k events until none remain.

    The fixed point is the unique maximal sub-log where every surviving user and
    item has >= k events. Output events are in canonical (user, timestamp, item)
    order, so the result does not depend on input event order.
    """
    if k < 1:
        raise InteractionError(f"k must be >= 1, not {k}")
    users, items, timestamps = log.users, log.items, log.timestamps
    while True:
        kept = ((np.bincount(users, minlength=len(log.user_ids))[users] >= k)
                & (np.bincount(items, minlength=len(log.item_ids))[items] >= k))
        if kept.all():
            break
        users, items, timestamps = users[kept], items[kept], timestamps[kept]
    order = _canonical_order(users, items, timestamps)
    return InteractionLog.from_codes(
        log.user_ids, users[order], log.item_ids, items[order], timestamps[order]
    )


@dataclass(frozen=True, eq=False)
class SplitDataset:
    """Leave-last-out split of each user with 3+ events, as columns. User i
    of the sorted `user_ids` has the events `items[ends[i - 1]:ends[i]]`
    (from 0 for i = 0), codes into `item_ids` in (timestamp, item) order:
    the last is the test target, the one before it validation, the rest the
    train sequence. `items` (int32) and `ends` (int64) are read-only.
    Compared by identity, as arrays have no dataclass equality."""

    user_ids: tuple[str, ...]
    item_ids: tuple[str, ...]
    items: np.ndarray
    ends: np.ndarray


def leave_last_out_split(log: InteractionLog) -> SplitDataset:
    """The split of a log, sharing its item table: each user's events in
    (timestamp, item) order, users in sorted order."""
    order = _canonical_order(log.users, log.items, log.timestamps)
    users = log.users[order]
    counts = np.bincount(users, minlength=len(log.user_ids))
    kept = counts >= 3
    items, ends = log.items[order][kept[users]], counts[kept].cumsum()
    items.setflags(write=False)
    ends.setflags(write=False)
    return SplitDataset(tuple(itertools.compress(log.user_ids, kept.tolist())), log.item_ids, items, ends)
