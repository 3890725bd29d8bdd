from __future__ import annotations

import json
import os
import re
import stat
import struct
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    Event,
    EventLog,
    UserSplit,
    catalog_of,
    events_of,
    log_of,
    record_catalog,
    reference_load_items,
    user_splits,
)
from sidforge.datamodel import (
    CatalogError,
    EmbeddingIOError,
    EmbeddingSet,
    InteractionError,
    ItemCatalog,
    atomic_open,
    ids_path_for,
    k_core_filter,
    leave_last_out_split,
    load_embeddings,
    load_interactions,
    load_items,
    read_lines,
    save_interactions,
    save_items,
    write_embeddings,
    write_matrix_block,
)


def make_row(i, title=None, visual=None, interests=None):
    """Item i's catalog row, for `catalog_of`."""
    return f"it{i}", f"Title {i}" if title is None else title, f"Desc {i}", "cat", visual, interests


class TestCatalog:
    def test_empty_id_rejected(self):
        with pytest.raises(CatalogError, match="^item_id must be non-empty$"):
            catalog_of(make_row(1), ("", "t", "d", "c"))

    def test_duplicate_id_rejected(self):
        with pytest.raises(CatalogError, match="^duplicate item_id 'it1'$"):
            catalog_of(make_row(1), make_row(1))
        # The first id met again in file order, as the record loader named it.
        with pytest.raises(CatalogError, match="^duplicate item_id 'c'$"):
            catalog_of(*((i, "t", "d", "c") for i in "bccb"))

    def test_columns_of_unequal_lengths_rejected(self):
        with pytest.raises(CatalogError, match="unequal lengths"):
            ItemCatalog(("a", "b"), ("t", "t"), ("d",), ("c", "c"), (None, None), (None, None))

    def test_lookup(self):
        cat = catalog_of(*(make_row(i) for i in range(3)))
        assert len(cat) == 3 and cat.row_of == {"it0": 0, "it1": 1, "it2": 2}
        assert cat.titles[cat.row_of["it1"]] == "Title 1"
        assert "it0" in cat and "nope" not in cat

    def test_equality_by_column(self):
        cat = catalog_of(make_row(0), make_row(1, visual="v"))
        assert cat == catalog_of(make_row(0), make_row(1, visual="v"))
        assert cat != catalog_of(make_row(0), make_row(1))
        assert "row_of" not in repr(cat)

    def test_jsonl_roundtrip(self, tmp_path):
        cat = catalog_of(make_row(0, visual="Shiny.", interests=("a", "b")), make_row(1))
        path = tmp_path / "items.jsonl"
        save_items(cat, path)
        back = load_items(path)
        assert back == cat and back.interests == (("a", "b"), None)

    def test_saved_bytes_are_one_json_dumps_per_record(self, tmp_path):
        """Non-ASCII text is written as UTF-8, not as \\u escapes; quotes and
        control characters are escaped as json.dumps escapes them."""
        title = 'Café "Ü" \t\u2028 \U0001f600'
        path = tmp_path / "items.jsonl"
        save_items(catalog_of(make_row(0, title=title, interests=("naïve",)), make_row(1)), path)
        want = [
            {"item_id": "it0", "title": title, "description": "Desc 0", "category": "cat",
             "interests": ["naïve"]},
            {"item_id": "it1", "title": "Title 1", "description": "Desc 1", "category": "cat"},
        ]
        assert path.read_bytes() == "".join(json.dumps(obj, ensure_ascii=False) + "\n" for obj in want).encode("utf-8")

    def test_unknown_keys_ignored(self, tmp_path):
        path = tmp_path / "items.jsonl"
        obj = {
            "item_id": "x",
            "title": "t",
            "description": "d",
            "category": "c",
            "embedding_hint": [1, 2, 3],
        }
        path.write_text(json.dumps(obj) + "\n")
        cat = load_items(path)
        assert cat.titles[cat.row_of["x"]] == "t"

    def test_bad_line_cites_line_number(self, tmp_path):
        path = tmp_path / "items.jsonl"
        good = json.dumps({"item_id": "x", "title": "t", "description": "d", "category": "c"})
        path.write_text(good + "\n{broken\n")
        with pytest.raises(CatalogError, match="line 2"):
            load_items(path)

    def test_cut_line_cites_its_column(self, tmp_path):
        path = tmp_path / "items.jsonl"
        lines = [json.dumps({"item_id": f"x{i}", "title": "t", "description": "d", "category": "c"})
                 for i in range(4)]
        path.write_text("\n".join(lines[:3] + [lines[3][:20]]) + "\n")
        message = f"{path}: line 4: invalid JSON at column 21 (Invalid control character at)"
        with pytest.raises(CatalogError, match=f"^{re.escape(message)}$"):
            load_items(path)

    def test_missing_field_cites_line_number(self, tmp_path):
        path = tmp_path / "items.jsonl"
        path.write_text(json.dumps({"item_id": "x", "title": "t"}) + "\n")
        with pytest.raises(CatalogError, match="line 1"):
            load_items(path)

    def test_interests_must_be_strings(self, tmp_path):
        path = tmp_path / "items.jsonl"
        obj = {
            "item_id": "x",
            "title": "t",
            "description": "d",
            "category": "c",
            "interests": [1, 2],
        }
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(CatalogError):
            load_items(path)


# Item file lines: a record with any key left out or of a wrong type, one
# that holds every required key (often well typed, so that files load and ids
# repeat), a blank line, a line that is not JSON, or JSON that is not an object.
_TEXT = st.text(max_size=3)
_ID = st.sampled_from(["a", "b", "c", ""])
_ANY_RECORD = st.fixed_dictionaries({}, optional={
    "item_id": _ID | st.integers(0, 2) | st.none(),
    "title": _TEXT | st.integers(0, 2) | st.none(),
    "description": _TEXT | st.lists(_TEXT, max_size=1),
    "category": _TEXT | st.booleans(),
    "visual_description": _TEXT | st.none() | st.integers(0, 2),
    "interests": st.lists(_TEXT | st.integers(0, 2) | st.none(), max_size=3) | _TEXT | st.none(),
    "extra": st.integers(0, 2),
})
_FULL_RECORD = st.fixed_dictionaries(
    {"item_id": _ID, "title": _TEXT, "description": _TEXT, "category": _TEXT},
    optional={"visual_description": _TEXT | st.none(), "interests": st.lists(_TEXT | st.integers(0, 2), max_size=2)},
)
_ITEM_LINES = st.lists(
    st.one_of(
        (_ANY_RECORD | _FULL_RECORD).map(lambda obj: json.dumps(obj, ensure_ascii=False)),
        st.sampled_from(["", "  ", "{", "[1]", '"x"', "null"]),
    ),
    max_size=6,
)


class TestItemFileOracle:
    """load_items against the record loader it replaced, on drawn files:
    the same columns, or the same error type and message once the file's
    prefix is stripped."""

    @settings(max_examples=200, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=_ITEM_LINES)
    def test_columns_or_error_equal_the_record_loader(self, tmp_path, lines):
        path = tmp_path / "items.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        try:
            want = reference_load_items(path)
        except CatalogError as exc:
            with pytest.raises(CatalogError) as got:
                load_items(path)
            assert str(got.value) == f"{path}: {exc}"
            assert type(got.value.__cause__) is type(exc.__cause__)
            return
        assert record_catalog(load_items(path)).items == want.items


class TestEmbeddingSet:
    def test_rows_frozen_float32(self):
        emb = EmbeddingSet(["a", "b"], np.ones((2, 4)))
        assert emb.rows.dtype == np.float32
        assert not emb.rows.flags.writeable
        assert emb.count == 2 and emb.dim == 4

    def test_nonfinite_rejected(self):
        rows = np.ones((2, 3))
        rows[1, 2] = np.nan
        with pytest.raises(EmbeddingIOError, match="flat index 5"):
            EmbeddingSet(["a", "b"], rows)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(EmbeddingIOError, match="^duplicate item_id 'a'$"):
            EmbeddingSet(["a", "a"], np.ones((2, 3)))
        # The first id met again, as the catalog and the SID assignment name it.
        with pytest.raises(EmbeddingIOError, match="^duplicate item_id 'c'$"):
            EmbeddingSet(list("bcdcb"), np.ones((5, 3)))

    def test_id_count_mismatch(self):
        with pytest.raises(EmbeddingIOError):
            EmbeddingSet(["a"], np.ones((2, 3)))


class TestEmbeddingFile:
    def test_roundtrip(self, tmp_path, rng):
        rows = np.asarray(rng.normal(size=(5, 7)), dtype=np.float32)
        emb = EmbeddingSet([f"i{k}" for k in range(5)], rows)
        path = tmp_path / "e.emb"
        write_embeddings(emb, path)
        back = load_embeddings(path)
        assert back.item_ids == emb.item_ids
        assert np.array_equal(back.rows, emb.rows)

    def test_corrupt_payload_detected(self, tmp_path):
        emb = EmbeddingSet(["a", "b"], np.ones((2, 3)))
        path = tmp_path / "e.emb"
        write_embeddings(emb, path)
        raw = bytearray(path.read_bytes())
        raw[20] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(EmbeddingIOError, match="checksum"):
            load_embeddings(path)

    def test_bad_magic_cites_offset(self, tmp_path):
        path = tmp_path / "e.emb"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 20)
        with pytest.raises(EmbeddingIOError, match="offset 0"):
            load_embeddings(path)

    def test_oversized_header_refused_before_reading(self, tmp_path):
        path = tmp_path / "e.emb"
        path.write_bytes(b"SIDEMB01" + struct.pack("<II", 0xFFFFFFFF, 0xFFFFFFFF) + b"\x00" * 8)
        with pytest.raises(EmbeddingIOError, match="offset 16: header claims"):
            load_embeddings(path)

    def test_truncated_payload(self, tmp_path):
        emb = EmbeddingSet(["a", "b"], np.ones((2, 3)))
        path = tmp_path / "e.emb"
        write_embeddings(emb, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-6])
        with pytest.raises(EmbeddingIOError):
            load_embeddings(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        emb = EmbeddingSet(["a"], np.ones((1, 2)))
        path = tmp_path / "e.emb"
        write_embeddings(emb, path)
        with open(path, "ab") as fh:
            fh.write(b"junk")
        with pytest.raises(EmbeddingIOError, match="trailing"):
            load_embeddings(path)

    def test_missing_ids_file(self, tmp_path):
        emb = EmbeddingSet(["a"], np.ones((1, 2)))
        path = tmp_path / "e.emb"
        write_embeddings(emb, path)
        ids_path_for(path).unlink()
        with pytest.raises(EmbeddingIOError, match="id file"):
            load_embeddings(path)

    def test_id_count_mismatch_on_load(self, tmp_path):
        emb = EmbeddingSet(["a", "b"], np.ones((2, 3)))
        path = tmp_path / "e.emb"
        write_embeddings(emb, path)
        ids_path_for(path).write_text("only_one\n")
        with pytest.raises(EmbeddingIOError, match="id file lists 1"):
            load_embeddings(path)

    def test_header_layout(self, tmp_path):
        emb = EmbeddingSet(["a", "b"], np.arange(6, dtype=np.float32).reshape(2, 3))
        path = tmp_path / "e.emb"
        write_embeddings(emb, path)
        raw = path.read_bytes()
        assert raw[:8] == b"SIDEMB01"
        count, dim = struct.unpack("<II", raw[8:16])
        assert (count, dim) == (2, 3)
        payload = raw[16:16 + 24]
        assert np.array_equal(
            np.frombuffer(payload, dtype="<f4").reshape(2, 3), emb.rows
        )


def reference_load_interactions(path) -> EventLog:
    """load_interactions before it held columns, verbatim: one tuple per
    event, each holding the first `str` read for each of its ids."""
    events: list[Event] = []
    ids: dict[str, str] = {}
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
        events.append((ids.setdefault(cols[0], cols[0]), ids.setdefault(cols[1], cols[1]), ts))
    return EventLog(events=tuple(events))


def reference_k_core_filter(log: EventLog, k: int) -> EventLog:
    """k_core_filter before the log held columns, verbatim: Counter passes
    and a sort on (user, timestamp, item) tuples."""
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
    return EventLog(events=tuple(events))


def reference_leave_last_out_split(log: EventLog) -> dict[str, UserSplit]:
    """leave_last_out_split before the log held columns, verbatim but for
    returning its users' dict, the split's field then."""
    users: dict[str, UserSplit] = {}
    grouped = log.by_user()
    for user in sorted(grouped):
        seq = [item for _, item, _ in grouped[user]]
        if len(seq) >= 3:
            users[user] = UserSplit(
                train=tuple(seq[:-2]),
                validation=seq[-2],
                test=seq[-1],
            )
    return users


# Timestamps at and just inside both ends of the int64 range.
INT64_EDGES = (-2**63, -2**63 + 1, 2**63 - 2, 2**63 - 1)


def random_events(gen) -> tuple[Event, ...]:
    """Up to 50 events over a small id pool shared by users and items, so
    ids repeat and a user id can equal an item id; few distinct timestamps,
    so a user's events tie, and now and then one at an end of the int64
    range."""
    pool = ["u0", "u1", "a", "b", "é", "x y", "7", "ü-β"]
    events = []
    for _ in range(int(gen.integers(0, 50))):
        user, item = (pool[int(i)] for i in gen.integers(len(pool), size=2))
        ts = INT64_EDGES[int(gen.integers(4))] if gen.random() < 0.1 else int(gen.integers(-5, 20))
        events.append((user, item, ts))
    return tuple(events)


def random_log_text(gen, events) -> str:
    """The tab-separated lines of events, with blank lines and LF, CRLF and
    lone-CR line ends mixed."""
    text = []
    for user, item, ts in events:
        while gen.random() < 0.15:
            text.append(("\n", "\r\n", "\r")[int(gen.integers(3))])
        text.append(f"{user}\t{item}\t{ts}")
        text.append(("\n", "\r\n", "\r")[int(gen.integers(3))])
    return "".join(text)


def random_logs(seed: int, trials: int = 40):
    """(log, the same events as an EventLog) pairs of random_events."""
    gen = np.random.default_rng(seed)
    for _ in range(trials):
        events = random_events(gen)
        yield log_of(events), EventLog(events=events)


class TestInteractions:
    def test_equals_the_reference_loop(self, tmp_path):
        path = tmp_path / "log.tsv"
        gen = np.random.default_rng(2300)
        for trial in range(40):
            events = random_events(gen)
            path.write_bytes(random_log_text(gen, events).encode())
            want = reference_load_interactions(path).events
            assert events_of(load_interactions(path)) == want == events, trial
        for bad in ("u\ta\t1\n\r\nu\tb\n", "u\ta\t1\rv\tb\tnoon\n", "u\ta\t1\tx\n", "u\ta\t\n"):
            path.write_bytes(bad.encode())
            with pytest.raises(InteractionError) as want:
                reference_load_interactions(path)
            with pytest.raises(InteractionError, match=f"^{re.escape(f'{path}: {want.value}')}$"):
                load_interactions(path)

    @pytest.mark.parametrize("ts", [2**63, -2**63 - 1, 10**30])
    @pytest.mark.parametrize("before", [0, 3, 9000])
    def test_timestamp_outside_int64_names_its_line(self, tmp_path, ts, before):
        """Also in a later block of lines, after blank lines, and before a
        later line's fault."""
        path = tmp_path / "log.tsv"
        lines = ["u\ta\t1", ""] * before + [f"u\tb\t{ts}", "u\tc\tnoon"]
        path.write_text("\n".join(lines) + "\n")
        message = f"^{re.escape(str(path))}: line {2 * before + 1}: timestamp {ts} is outside the int64 range$"
        with pytest.raises(InteractionError, match=message):
            load_interactions(path)

    def test_keeps_under_40_bytes_per_event(self, tmp_path):
        """30,000 events over 1,000 users and 1,000 items. The tuple per
        event of the log before columns kept 108 bytes per event."""
        gen = np.random.default_rng(2500)
        items = gen.integers(1000, size=30_000).tolist()
        path = tmp_path / "log.tsv"
        path.write_text("".join(f"user{e // 30:04d}\titem{i:04d}\t{1_600_000_000 + e}\n"
                                for e, i in enumerate(items)))
        tracemalloc.start()
        try:
            log = load_interactions(path)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert log.n_events == 30_000 and len(log.user_ids) == 1000
        assert kept / log.n_events < 40

    def test_one_object_per_distinct_id(self, tmp_path):
        path = tmp_path / "log.tsv"
        gen = np.random.default_rng(2400)
        for trial in range(20):
            path.write_bytes(random_log_text(gen, random_events(gen)).encode())
            log = load_interactions(path)
            for ids in (log.user_ids, log.item_ids):
                assert len(set(map(id, ids))) == len(set(ids)) == len(ids), f"trial {trial}"
            # A user id and an equal item id are one object.
            ids = log.user_ids + log.item_ids
            assert len(set(map(id, ids))) == len(set(ids)), f"trial {trial}"
            # The split's ids are the log's objects: it shares the item table.
            split = leave_last_out_split(log)
            assert split.item_ids is log.item_ids, f"trial {trial}"
            assert set(map(id, split.user_ids)) <= set(map(id, log.user_ids)), f"trial {trial}"

    def test_roundtrip_and_order(self, tmp_path):
        events = (("u1", "a", 5), ("u1", "b", 2), ("u2", "c", 9), ("u1", "z", 2))
        path = tmp_path / "log.tsv"
        save_interactions(log_of(events), path)
        assert path.read_text() == "".join(f"{u}\t{i}\t{ts}\n" for u, i, ts in events)
        back = load_interactions(path)
        assert events_of(back) == events
        assert user_splits(leave_last_out_split(back))["u1"] == UserSplit(train=("b",), validation="z", test="a")

    def test_save_writes_the_reference_bytes(self, tmp_path):
        """save_interactions before columns wrote one f-string per event;
        the chunked writer gives the same bytes, past a chunk boundary too."""
        path = tmp_path / "log.tsv"
        for log, old in random_logs(2600, 20):
            save_interactions(log, path)
            assert path.read_text(encoding="utf-8") == "".join(f"{u}\t{i}\t{ts}\n" for u, i, ts in old.events)
        events = [(f"u{e % 7}", f"i{e % 11}", e - 5000) for e in range(10_000)]
        save_interactions(log_of(events), path)
        assert events_of(load_interactions(path)) == tuple(events)

    def test_bad_column_count(self, tmp_path):
        path = tmp_path / "log.tsv"
        path.write_text("u1\ta\t1\nu2\tonlytwo\n")
        with pytest.raises(InteractionError, match="line 2"):
            load_interactions(path)

    def test_bad_timestamp(self, tmp_path):
        path = tmp_path / "log.tsv"
        path.write_text("u1\ta\tnoon\n")
        with pytest.raises(InteractionError, match="line 1"):
            load_interactions(path)


def load_embeddings_beside(ids_path):
    """Load the two-row embedding file written beside an id sidecar."""
    emb_path = ids_path.with_name(ids_path.name.removesuffix(".ids"))
    with atomic_open(emb_path, "wb") as fh:
        write_matrix_block(fh, np.ones((2, 3)))
    return load_embeddings(emb_path)


@pytest.mark.parametrize(
    "name, good, load, error",
    [
        (
            "items.jsonl",
            json.dumps({"item_id": "x", "title": "t", "description": "d", "category": "c"}),
            load_items,
            CatalogError,
        ),
        ("log.tsv", "u1\ta\t1", load_interactions, InteractionError),
        ("e.emb.ids", "a", load_embeddings_beside, EmbeddingIOError),
    ],
)
def test_undecodable_byte_cites_line(tmp_path, name, good, load, error):
    path = tmp_path / name
    path.write_bytes(good.encode() + b"\n\xff" + good.encode() + b"\n")
    with pytest.raises(error, match="line 2: invalid UTF-8"):
        load(path)


class TestKCore:
    def test_hand_case(self):
        # u1 interacts with a,b,c; u2 with a,b; u3 with d only.
        # 2-core: d dies (degree 1), killing u3; then c dies (only u1 touched it).
        log = log_of(
            (
                ("u1", "a", 1),
                ("u1", "b", 2),
                ("u1", "c", 3),
                ("u2", "a", 1),
                ("u2", "b", 2),
                ("u3", "d", 1),
            )
        )
        out = k_core_filter(log, 2)
        assert {u for u, _, _ in events_of(out)} == {"u1", "u2"}
        assert {i for _, i, _ in events_of(out)} == {"a", "b"}
        assert out.n_events == 4

    def test_canonical_order_independent_of_input_order(self):
        events = [("u2", "b", 2), ("u1", "a", 1), ("u1", "b", 3), ("u2", "a", 1)]
        a = k_core_filter(log_of(events), 2)
        b = k_core_filter(log_of(reversed(events)), 2)
        assert events_of(a) == events_of(b)

    def test_equals_the_reference_on_random_logs(self):
        """Ties on timestamp included; k up to past every degree."""
        for trial, (log, old) in enumerate(random_logs(2700)):
            for k in (1, 2, 3, 5, 60):
                assert events_of(k_core_filter(log, k)) == reference_k_core_filter(old, k).events, (trial, k)

    def test_k1_keeps_everything(self):
        log = log_of((("u", "a", 1),))
        assert k_core_filter(log, 1).n_events == 1

    def test_k_below_one_rejected(self):
        for k in (0, -1):
            with pytest.raises(InteractionError, match=f"^k must be >= 1, not {k}$"):
                k_core_filter(log_of(()), k)

    def test_can_empty_out(self):
        log = log_of((("u", "a", 1), ("u", "b", 2)))
        out = k_core_filter(log, 3)
        assert out.n_events == 0 and out.user_ids == out.item_ids == ()


class TestSplit:
    def test_leave_last_out(self):
        log = log_of(
            (
                ("u1", "a", 1),
                ("u1", "b", 2),
                ("u1", "c", 3),
                ("u1", "d", 4),
                ("u2", "x", 1),
                ("u2", "y", 2),
            )
        )
        split = user_splits(leave_last_out_split(log))
        assert "u2" not in split
        u1 = split["u1"]
        assert u1.train == ("a", "b")
        assert u1.validation == "c"
        assert u1.test == "d"
        assert u1.train + (u1.validation, u1.test) == ("a", "b", "c", "d")

    def test_users_sorted(self):
        log = log_of(
            (u, it, t)
            for u in ("zeta", "alpha")
            for t, it in enumerate(["a", "b", "c"])
        )
        split = leave_last_out_split(log)
        assert split.user_ids == ("alpha", "zeta")

    def test_equals_the_reference_on_random_logs(self):
        """Ties on timestamp break on the item, in logs in any order, in
        canonical order, and in (user, timestamp) order with tied items
        descending alike."""
        for trial, (log, old) in enumerate(random_logs(2800)):
            want = reference_leave_last_out_split(old)
            by_item = sorted(old.events, key=lambda ev: ev[1], reverse=True)
            descending = sorted(by_item, key=lambda ev: (ev[0], ev[2]))
            for got in (leave_last_out_split(log), leave_last_out_split(k_core_filter(log, 1)),
                        leave_last_out_split(log_of(descending))):
                assert list(user_splits(got).items()) == list(want.items()), trial


class TestAtomicOpen:
    def test_overlapping_writers_on_one_path(self, tmp_path):
        path = tmp_path / "a.txt"
        old_umask = os.umask(0o027)
        try:
            with atomic_open(path, encoding="utf-8") as outer:
                outer.write("outer")
                with atomic_open(path, encoding="utf-8") as inner:
                    inner.write("inner")
                assert path.read_text() == "inner"
            plain = tmp_path / "plain.txt"
            with open(plain, "w", encoding="utf-8") as fh:
                fh.write("plain")
        finally:
            os.umask(old_umask)
        assert path.read_text() == "outer"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "plain.txt"]
        assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)

    def test_exception_keeps_target_and_removes_temp(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with atomic_open(path, "wb") as fh:
                fh.write(b"partial")
                raise RuntimeError("writer failed")
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["a.bin"]

    def test_read_mode_refused(self, tmp_path):
        with pytest.raises(ValueError, match="mode"):
            with atomic_open(tmp_path / "a.txt", "r"):
                pass
