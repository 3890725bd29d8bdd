from __future__ import annotations

import json
import os
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
    def test_unified_text_full(self):
        rec = ItemRecord(
            item_id="a",
            title="Lamp",
            description="A lamp.",
            category="home",
            visual_description="Black metal shade.",
            interests=("lighting", "decor"),
        )
        assert rec.unified_text == (
            "Title: Lamp [INTERESTS] lighting; decor "
            "Description: A lamp. Visual: Black metal shade."
        )

    def test_unified_text_minimal(self):
        rec = make_record(1)
        assert rec.unified_text == "Title: Title 1 Description: Desc 1"

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
        assert cat.position("it2") == 2
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


class TestInteractions:
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
        assert out.user_ids() == ("u1", "u2")
        assert out.item_ids() == ("a", "b")
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
        assert split.n_dropped_users == 1
        u1 = split.users["u1"]
        assert u1.train == ("a", "b")
        assert u1.validation == "c"
        assert u1.test == "d"
        assert u1.full_sequence() == ("a", "b", "c", "d")

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
