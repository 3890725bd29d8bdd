from __future__ import annotations

import json
import os
import re
import stat
import struct

import numpy as np
import pytest

from sidforge.datamodel import (
    CatalogError,
    EmbeddingIOError,
    EmbeddingSet,
    InteractionError,
    InteractionLog,
    ItemCatalog,
    ItemRecord,
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


def make_record(i, **kw):
    base = dict(
        item_id=f"it{i}",
        title=f"Title {i}",
        description=f"Desc {i}",
        category="cat",
    )
    base.update(kw)
    return ItemRecord(**base)


class TestItemRecord:
    def test_empty_id_rejected(self):
        with pytest.raises(CatalogError):
            make_record(1, item_id="")


class TestCatalog:
    def test_duplicate_id_rejected(self):
        with pytest.raises(CatalogError, match="duplicate"):
            ItemCatalog.from_records([make_record(1), make_record(1)])

    def test_lookup(self):
        cat = ItemCatalog.from_records([make_record(i) for i in range(3)])
        assert len(cat) == 3
        assert cat.get("it1").title == "Title 1"
        assert "it0" in cat and "nope" not in cat
        with pytest.raises(CatalogError, match="unknown"):
            cat.get("nope")

    def test_jsonl_roundtrip(self, tmp_path):
        records = [
            make_record(0, visual_description="Shiny.", interests=("a", "b")),
            make_record(1),
        ]
        cat = ItemCatalog.from_records(records)
        path = tmp_path / "items.jsonl"
        save_items(cat, path)
        back = load_items(path)
        assert back.items == cat.items

    def test_saved_bytes_are_one_json_dumps_per_record(self, tmp_path):
        """Non-ASCII text is written as UTF-8, not as \\u escapes; quotes and
        control characters are escaped as json.dumps escapes them."""
        rec = make_record(0, title='Café "Ü" \t\u2028 \U0001f600', interests=("naïve",))
        path = tmp_path / "items.jsonl"
        save_items(ItemCatalog.from_records([rec, make_record(1)]), path)
        want = [
            {"item_id": "it0", "title": rec.title, "description": rec.description, "category": rec.category,
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
        assert cat.get("x").title == "t"

    def test_bad_line_cites_line_number(self, tmp_path):
        path = tmp_path / "items.jsonl"
        good = json.dumps({"item_id": "x", "title": "t", "description": "d", "category": "c"})
        path.write_text(good + "\n{broken\n")
        with pytest.raises(CatalogError, match="line 2"):
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
        with pytest.raises(EmbeddingIOError, match="duplicate"):
            EmbeddingSet(["a", "a"], np.ones((2, 3)))

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


def reference_load_interactions(path) -> InteractionLog:
    """load_interactions before it kept one str per distinct id, verbatim."""
    events: list = []
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


def random_log_text(gen) -> str:
    """Tab-separated events over a small id pool shared by users and items,
    so ids repeat and a user id can equal an item id; blank lines and LF,
    CRLF and lone-CR line ends mixed."""
    pool = ["u0", "u1", "a", "b", "é", "x y", "7", "ü-β"]
    text = []
    for _ in range(int(gen.integers(0, 60))):
        if gen.random() < 0.15:
            text.append("")
        else:
            user, item = (pool[int(i)] for i in gen.integers(len(pool), size=2))
            text.append(f"{user}\t{item}\t{int(gen.integers(-5, 10**6))}")
        text.append(("\n", "\r\n", "\r")[int(gen.integers(3))])
    return "".join(text)


class TestInteractions:
    def test_equals_the_reference_loop(self, tmp_path):
        path = tmp_path / "log.tsv"
        for trial in range(40):
            path.write_bytes(random_log_text(np.random.default_rng(2300 + trial)).encode())
            assert load_interactions(path) == reference_load_interactions(path), f"trial {trial}"
        for bad in ("u\ta\t1\n\r\nu\tb\n", "u\ta\t1\rv\tb\tnoon\n", "u\ta\t1\tx\n"):
            path.write_bytes(bad.encode())
            with pytest.raises(InteractionError) as want:
                reference_load_interactions(path)
            with pytest.raises(InteractionError, match=f"^{re.escape(str(want.value))}$"):
                load_interactions(path)

    def test_one_object_per_distinct_id(self, tmp_path):
        path = tmp_path / "log.tsv"
        for trial in range(20):
            path.write_bytes(random_log_text(np.random.default_rng(2400 + trial)).encode())
            log = load_interactions(path)
            for ids in ([u for u, _, _ in log.events], [i for _, i, _ in log.events],
                        [x for u, i, _ in log.events for x in (u, i)]):
                assert len(set(map(id, ids))) == len(set(ids)), f"trial {trial}"
            # The split's train, validation and test items are the log's objects.
            canonical = {i: i for _, i, _ in log.events}
            for user_id, user in leave_last_out_split(log).users.items():
                for item in (*user.train, user.validation, user.test):
                    assert item is canonical[item], f"trial {trial} {user_id}"

    def test_roundtrip_and_order(self, tmp_path):
        log = InteractionLog(
            events=(("u1", "a", 5), ("u1", "b", 2), ("u2", "c", 9), ("u1", "z", 2))
        )
        path = tmp_path / "log.tsv"
        save_interactions(log, path)
        back = load_interactions(path)
        assert back.events == log.events
        by_user = back.by_user()
        assert [i for _, i, _ in by_user["u1"]] == ["b", "z", "a"]

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
        log = InteractionLog(
            events=(
                ("u1", "a", 1),
                ("u1", "b", 2),
                ("u1", "c", 3),
                ("u2", "a", 1),
                ("u2", "b", 2),
                ("u3", "d", 1),
            )
        )
        out = k_core_filter(log, 2)
        assert {u for u, _, _ in out.events} == {"u1", "u2"}
        assert {i for _, i, _ in out.events} == {"a", "b"}
        assert out.n_events == 4

    def test_canonical_order_independent_of_input_order(self):
        events = [("u2", "b", 2), ("u1", "a", 1), ("u1", "b", 3), ("u2", "a", 1)]
        a = k_core_filter(InteractionLog(events=tuple(events)), 2)
        b = k_core_filter(InteractionLog(events=tuple(reversed(events))), 2)
        assert a.events == b.events

    def test_k1_keeps_everything(self):
        log = InteractionLog(events=(("u", "a", 1),))
        assert k_core_filter(log, 1).n_events == 1

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            k_core_filter(InteractionLog(events=()), 0)

    def test_can_empty_out(self):
        log = InteractionLog(events=(("u", "a", 1), ("u", "b", 2)))
        assert k_core_filter(log, 3).n_events == 0


class TestSplit:
    def test_leave_last_out(self):
        log = InteractionLog(
            events=(
                ("u1", "a", 1),
                ("u1", "b", 2),
                ("u1", "c", 3),
                ("u1", "d", 4),
                ("u2", "x", 1),
                ("u2", "y", 2),
            )
        )
        split = leave_last_out_split(log)
        assert "u2" not in split.users
        u1 = split.users["u1"]
        assert u1.train == ("a", "b")
        assert u1.validation == "c"
        assert u1.test == "d"
        assert u1.train + (u1.validation, u1.test) == ("a", "b", "c", "d")

    def test_users_sorted(self):
        log = InteractionLog(
            events=tuple(
                (u, it, t)
                for u in ("zeta", "alpha")
                for t, it in enumerate(["a", "b", "c"])
            )
        )
        split = leave_last_out_split(log)
        assert list(split.users) == ["alpha", "zeta"]


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
