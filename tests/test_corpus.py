from __future__ import annotations

import functools
import json
import logging

import numpy as np
import pytest

from conftest import (
    assignment_from_sids,
    catalog_of,
    random_model,
    record_catalog,
    sid_map,
    split_of,
    user_splits,
)
from sidforge import corpus, rng
from sidforge.corpus import (
    _USER_TEMPLATES,
    HISTORY_SEPARATOR,
    CorpusError,
    TaskId,
    TaskSources,
    check_settings,
    make_examples,
    render_chat,
    sample_corpus,
    system_instruction,
    write_chat_corpus,
    write_corpus,
    write_sid_vocabulary,
)
from sidforge.rq import render_sid

T1_INSTRUCTION = (
    "You are a semantic ID encoder. Given a product title, generate its "
    "corresponding Semantic ID (SID) sequence."
)
T3_INSTRUCTION = (
    "You are a sequential recommendation model. Given a user's interaction "
    "history as SID sequences, predict the SID of the next item they will "
    "interact with."
)


def tiny_world():
    catalog = catalog_of(
        ("a", "Alpha Lamp", "da", "cat", "Black lamp."),
        ("b", "Beta Mug", "db", "cat", "Red mug."),
        ("c", "Gamma Mat", "dc", "cat", None),
        ("d", "Delta Kit", "dd", "cat", "Blue kit."),
    )
    assign = assignment_from_sids({"a": (0, 1), "b": (1, 0), "c": (2, 2)})
    # Each user's train items, then its validation and test items.
    split = split_of({"u1": ["a", "c", "b", "d"], "u2": ["d", "a", "b"]})
    return catalog, assign, split


class TestInstructions:
    def test_t1_bytes(self):
        assert system_instruction(TaskId.T1) == T1_INSTRUCTION

    def test_t3_bytes(self):
        assert system_instruction(TaskId.T3) == T3_INSTRUCTION

    def test_all_eight_distinct_and_nonempty(self):
        texts = [system_instruction(t) for t in TaskId]
        assert all(texts)
        assert len(set(texts)) == 8
        for text in texts:
            assert not text.endswith("\n")


class TestChatTemplate:
    def test_render_layout(self):
        record = {"system": "SYS", "user": "USR", "assistant": "TGT"}
        assert render_chat(record) == (
            "<|im_start|>system\nSYS\n<|im_end|>\n"
            "<|im_start|>user\nUSR\n<|im_end|>\n"
            "<|im_start|>assistant\nTGT\n<|im_end|>"
        )


class TestMakeExamples:
    def test_t1(self):
        catalog, assign, split = tiny_world()
        sources = TaskSources(split, catalog, assign)
        examples, skipped = make_examples(TaskId.T1, sources)
        assert skipped == 1  # item d has no SID
        assert len(examples) == 3 and sources.items == ["a", "b", "c"]
        assert examples[0] == {
            "task": "T1",
            "system": T1_INSTRUCTION,
            "user": "Product Title: Alpha Lamp\nGenerate the SID sequence:",
            "assistant": "<a_0><b_1>",
        }
        assert list(examples[0]) == ["task", "system", "user", "assistant"]

    def test_t2_reverses_direction(self):
        catalog, assign, split = tiny_world()
        examples, _ = make_examples(TaskId.T2, TaskSources(split, catalog, assign))
        first = examples[0]
        assert first["user"] == "SID Sequence: <a_0><b_1>\nGenerate the product title:"
        assert first["assistant"] == "Alpha Lamp"

    def test_t7_t8_need_visuals(self):
        catalog, assign, split = tiny_world()
        sources = TaskSources(split, catalog, assign)
        examples, skipped = make_examples(TaskId.T7, sources)
        assert len(examples) == 2 and sources.visual_items == ["a", "b"]
        assert skipped == 2  # c lacks a visual description, d lacks a SID
        assert examples[0]["user"] == (
            "Visual Description: Black lamp.\nGenerate the SID sequence:"
        )
        assert examples[0]["assistant"] == "<a_0><b_1>"
        t8, _ = make_examples(TaskId.T8, sources)
        assert t8[0]["assistant"] == "Alpha Lamp"

    def test_t3_history_and_validation_target(self):
        catalog, assign, split = tiny_world()
        sources = TaskSources(split, catalog, assign)
        examples, skipped = make_examples(TaskId.T3, sources)
        assert skipped == 1  # u2's only train item has no SID
        only = examples[0]
        assert len(examples) == 1 and sources.users[0][0] == "u1"
        assert only["user"] == (
            "Interaction History (SIDs): <a_0><b_1>, <a_2><b_2>\n"
            "Predict the next item's SID:"
        )
        assert only["assistant"] == "<a_1><b_0>"

    def test_t4_t5_t6_variants(self):
        catalog, assign, split = tiny_world()
        t4, _ = make_examples(TaskId.T4, TaskSources(split, catalog, assign))
        assert t4[0]["user"] == (
            "Interaction History (Titles): Alpha Lamp, Gamma Mat\n"
            "Predict the next item's SID:"
        )
        assert t4[0]["assistant"] == "<a_1><b_0>"
        t5, _ = make_examples(TaskId.T5, TaskSources(split, catalog, assign))
        assert t5[0]["assistant"] == "Beta Mug"
        t6, _ = make_examples(TaskId.T6, TaskSources(split, catalog, assign))
        assert "Titles" in t6[0]["user"]
        assert t6[0]["assistant"] == "Beta Mug"

    def test_targets_are_validation_not_test_events(self):
        from sidforge.rq import render_sid

        catalog, assign, split = tiny_world()
        sources, sids = TaskSources(split, catalog, assign), sid_map(assign)
        for task in (TaskId.T3, TaskId.T4):
            pool, _ = make_examples(task, sources)
            for (user_id, _, _), example in zip(sources.users, pool, strict=True):
                user = user_splits(split)[user_id]
                assert example["assistant"] == render_sid(sids[user.validation])
                if user.test in sids:
                    assert example["assistant"] != render_sid(sids[user.test])

    def test_history_truncated_to_max(self):
        catalog, assign, _ = tiny_world()
        train = ["a" if i % 2 else "b" for i in range(25)]
        split = split_of({"u": [*train, "a", "b"]})
        examples, _ = make_examples(TaskId.T6, TaskSources(split, catalog, assign, max_history=20))
        history = examples[0]["user"].split(": ", 1)[1].split("\n")[0]
        entries = history.split(HISTORY_SEPARATOR)
        assert len(entries) == 20
        want = ["Alpha Lamp" if i % 2 else "Beta Mug" for i in range(5, 25)]
        assert entries == want

    def test_max_history_validated(self):
        catalog, assign, split = tiny_world()
        with pytest.raises(CorpusError):
            TaskSources(split, catalog, assign, max_history=0)


class TestSampleCorpus:
    def test_deterministic(self):
        catalog, assign, split = tiny_world()
        a, _ = sample_corpus(split, catalog, assign, n=50, seed=4)
        b, _ = sample_corpus(split, catalog, assign, n=50, seed=4)
        assert a == b
        c, _ = sample_corpus(split, catalog, assign, n=50, seed=5)
        assert a != c

    def test_stats_shape(self):
        catalog, assign, split = tiny_world()
        records, stats = sample_corpus(split, catalog, assign, n=40, seed=0)
        assert len(records) == 40
        assert sum(stats["sampled_per_task"].values()) == 40
        assert set(stats["pool_sizes"]) == {t.name for t in TaskId}
        assert stats["excluded_tasks"] == []
        for record in records:
            assert set(record) == {"task", "system", "user", "assistant"}

    def test_empty_tasks_excluded_with_warning(self, caplog):
        catalog, assign, _ = tiny_world()
        empty_split = split_of({})
        with caplog.at_level(logging.WARNING, logger="sidforge.corpus"):
            records, stats = sample_corpus(empty_split, catalog, assign, n=30, seed=1)
        assert stats["excluded_tasks"] == ["T3", "T4", "T5", "T6"]
        assert any("renormaliz" in message for message in caplog.messages)
        assert {r["task"] for r in records} <= {"T1", "T2", "T7", "T8"}

    def test_uniform_over_available_tasks(self):
        catalog, assign, split = tiny_world()
        _, stats = sample_corpus(split, catalog, assign, n=8000, seed=2)
        shares = [stats["sampled_per_task"][t.name] / 8000 for t in TaskId]
        for share in shares:
            assert abs(share - 0.125) < 0.02

    def test_all_pools_empty_rejected(self):
        catalog = catalog_of(("z", "Z", "d", "c"))
        assign = assignment_from_sids({"q": (0,)})
        split = split_of({})
        with pytest.raises(CorpusError, match="no task"):
            sample_corpus(split, catalog, assign, n=5, seed=0)


def reference_make_examples(task, split, catalog, assign, max_history=20):
    """make_examples before its pools were lazy, verbatim but for building
    each example as its record: every example of the task rendered into a
    list, and for reading the oracle's catalog and `sid_map`. Returns
    (records, skipped count, each record's source: its item id, or its user
    id for a history task)."""
    catalog, sids = record_catalog(catalog), sid_map(assign)
    check_settings(max_history=max_history)
    source, input_view, output_view = task.value
    system = system_instruction(task)
    template = _USER_TEMPLATES[task]
    examples: list[dict] = []
    provenance: list[str] = []
    skipped = 0

    def add(user_input: str, target_output: str, source_id: str) -> None:
        examples.append({"task": task.name, "system": system, "user": user_input,
                         "assistant": target_output})
        provenance.append(source_id)

    # History tasks show the same items to many users: render each SID once
    # per call. Catalog fields are read directly, which is cheaper than a cache.
    sid_text = functools.cache(lambda item_id: render_sid(sids[item_id]))

    def show(view: str, item_id: str) -> str:
        if view == "sid":
            return sid_text(item_id)
        return getattr(catalog.get(item_id), view)

    if source == "history":
        users = user_splits(split)
        for user_id in sorted(users):
            user = users[user_id]
            history = [i for i in user.train[-max_history:] if i in catalog and i in sids]
            target = user.validation
            if not history or target not in catalog or target not in sids:
                skipped += 1
                continue
            shown = HISTORY_SEPARATOR.join(show(input_view, i) for i in history)
            user_input = template.format_map({f"{input_view}_history": shown})
            add(user_input, show(output_view, target), user_id)
        return examples, skipped, provenance

    for record in catalog:
        # An empty title is still shown; an empty visual description is not.
        if record.item_id not in sids or (
            input_view == "visual_description" and not record.visual_description
        ):
            skipped += 1
            continue
        user_input = template.format_map({input_view: show(input_view, record.item_id)})
        target_output = show(output_view, record.item_id)
        add(user_input, target_output, record.item_id)
    return examples, skipped, provenance


def reference_sample_corpus(split, catalog, assign, n, seed, max_history=20):
    """sample_corpus before it rendered by draw: the same generator calls
    over the reference's eager pools."""
    pools = {}
    skipped = {}
    for task in TaskId:
        pools[task], skipped[task.name], _ = reference_make_examples(
            task, split, catalog, assign, max_history
        )
    available = [t for t in TaskId if pools[t]]
    gen = rng.stream(seed, rng.CORPUS_SAMPLING)
    records = []
    sampled = {t.name: 0 for t in TaskId}
    for _ in range(n):
        task = available[int(gen.integers(len(available)))]
        pool = pools[task]
        sampled[task.name] += 1
        records.append(dict(pool[int(gen.integers(len(pool)))]))
    stats = {
        "sampled_per_task": sampled,
        "skipped_per_task": skipped,
        "excluded_tasks": [t.name for t in TaskId if not pools[t]],
        "pool_sizes": {t.name: len(pools[t]) for t in TaskId},
    }
    return records, stats


def random_world(seed: int, visuals: bool = True):
    """A catalog, assignment and split with every kind of skipped source:
    items without a SID, SIDs without a catalog record, empty and missing
    visual descriptions (all missing when `visuals` is false), an empty
    title, and users whose history or validation item has no SID."""
    gen = np.random.default_rng(seed)
    rows = []
    for j in range(60):
        visual = [None, "", f"Visual {j}."][int(gen.integers(3))] if visuals else None
        title = "" if j == 7 else f"Title {j}"
        rows.append((f"i{j}", title, f"d{j}", "cat", visual))
    catalog = catalog_of(*rows)
    ids = [f"i{j}" for j in range(60)] + ["ghost0", "ghost1", "nowhere"]
    sids = {
        item_id: (int(gen.integers(5)), int(gen.integers(4)))
        for item_id in ids
        if item_id != "nowhere" and gen.random() < 0.8
    }
    users = {}
    for u in range(45):
        seq = [ids[int(gen.integers(len(ids)))] for _ in range(int(gen.integers(1, 12)))]
        users[f"u{u:02d}"] = [*seq, ids[int(gen.integers(len(ids)))], "i0"]
    users["no_history"] = ["nowhere", "ghost0", "i1", "i2"]
    split = split_of(users)
    return catalog, assignment_from_sids(sids), split


def oracle_worlds():
    catalog, assign, split = tiny_world()
    yield "tiny", (catalog, assign, split)
    only_skipped = split_of({"u2": ["d", "a", "b"]})
    yield "no user kept", (catalog, assign, only_skipped)
    for seed in range(6):
        catalog, assign, split = random_world(seed, visuals=seed != 5)
        yield f"random {seed}", (catalog, assign, split)


def pool_sources(task, sources):
    """The source of each entry of a task's pool, in pool order: an item id,
    or a user id for a history task."""
    source, input_view, _ = task.value
    if source == "history":
        return [user_id for user_id, _, _ in sources.users]
    return sources.visual_items if input_view == "visual_description" else sources.items


class TestLazyPoolsMatchTheEagerOracle:
    def test_pools_and_skips(self):
        for name, (catalog, assign, split) in oracle_worlds():
            for max_history in (1, 3, 20):
                sources = TaskSources(split, catalog, assign, max_history)
                for task in TaskId:
                    pool, skipped = make_examples(task, sources)
                    want, want_skipped, want_sources = reference_make_examples(
                        task, split, catalog, assign, max_history
                    )
                    where = f"{name} {task.name} max_history {max_history}"
                    assert len(pool) == len(want), where
                    assert list(pool) == want, where
                    assert pool_sources(task, sources) == want_sources, where
                    assert skipped == want_skipped, where
                    if want:
                        assert pool[-1] == want[-1]
                        with pytest.raises(IndexError):
                            pool[len(want)]
                        with pytest.raises(TypeError):
                            pool[0:1]

    def test_fixtures_skip_every_kind_of_source(self):
        catalog, assign, split = random_world(0)
        _, stats = reference_sample_corpus(split, catalog, assign, n=1, seed=0)
        assert all(stats["skipped_per_task"][t.name] for t in TaskId)
        assert stats["pool_sizes"]["T7"] < stats["pool_sizes"]["T1"]
        catalog, assign, split = random_world(5, visuals=False)
        _, stats = reference_sample_corpus(split, catalog, assign, n=1, seed=0)
        assert stats["excluded_tasks"] == ["T7", "T8"]

    def test_sample_corpus(self):
        for name, (catalog, assign, split) in oracle_worlds():
            for n, seed, max_history in ((1, 0, 20), (37, 3, 2), (3000, 11, 20)):
                got = sample_corpus(split, catalog, assign, n, seed, max_history)
                want = reference_sample_corpus(split, catalog, assign, n, seed, max_history)
                assert got == want, f"{name} n {n}"


class TestRenderCount:
    @staticmethod
    def count_renders(monkeypatch):
        """Wrap the pool read that renders an example: returns the list of
        (task, index) pairs rendered so far."""
        rendered = []
        original = corpus.ExamplePool.__getitem__

        def counting_getitem(pool, index):
            record = original(pool, index)
            rendered.append((record["task"], index))
            return record

        monkeypatch.setattr(corpus.ExamplePool, "__getitem__", counting_getitem)
        return rendered

    def test_renders_no_more_than_it_draws(self, monkeypatch):
        catalog, assign, split = random_world(1)
        _, stats = sample_corpus(split, catalog, assign, n=1, seed=0)
        assert sum(stats["pool_sizes"].values()) > 100
        rendered = self.count_renders(monkeypatch)
        records, _ = sample_corpus(split, catalog, assign, n=5, seed=2)
        assert len(records) == 5
        assert 0 < len(rendered) <= 5

    def test_renders_each_draw_into_a_record_of_its_own(self, monkeypatch):
        catalog, assign, split = random_world(2)
        _, stats = sample_corpus(split, catalog, assign, n=1, seed=0)
        n = 50 * sum(stats["pool_sizes"].values())  # every example is drawn many times
        rendered = self.count_renders(monkeypatch)
        records, _ = sample_corpus(split, catalog, assign, n=n, seed=3)
        want, _ = reference_sample_corpus(split, catalog, assign, n, 3)
        assert records == want
        assert len(rendered) == len(records) == n
        for record in records:
            record["assistant"] += "!"
        assert [record["assistant"] for record in records] == [record["assistant"] + "!" for record in want]

    def test_renders_each_sid_once_per_call(self, monkeypatch):
        catalog, assign, split = random_world(2)
        _, stats = sample_corpus(split, catalog, assign, n=1, seed=0)
        total = sum(stats["pool_sizes"].values())
        rendered = []  # each item's SID tuple is one object, so its id names the item

        def counting_render_sid(sid):
            rendered.append(sid)
            return render_sid(sid)

        monkeypatch.setattr(corpus, "render_sid", counting_render_sid)
        sample_corpus(split, catalog, assign, n=50 * total, seed=3)
        shown = [item_id for item_id in assign.item_ids if item_id in catalog]
        assert 0 < len(rendered) <= len(shown)
        assert len({id(sid) for sid in rendered}) == len(rendered)

    def test_one_make_examples_call_per_task_over_shared_sources(self, monkeypatch):
        catalog, assign, split = random_world(2)
        calls = []
        original = corpus.make_examples

        def recording_make_examples(task, sources):
            calls.append((task, sources))
            return original(task, sources)

        monkeypatch.setattr(corpus, "make_examples", recording_make_examples)
        sample_corpus(split, catalog, assign, n=10, seed=0)
        assert [task for task, _ in calls] == list(TaskId)
        assert len({id(sources) for _, sources in calls}) == 1


class TestWriters:
    def test_write_corpus_jsonl(self, tmp_path):
        catalog, assign, split = tiny_world()
        records, _ = sample_corpus(split, catalog, assign, n=10, seed=0)
        path = tmp_path / "c.jsonl"
        write_corpus(records, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 10
        assert [json.loads(line) for line in lines] == records

    def test_write_chat_corpus_bytes(self, tmp_path):
        catalog, assign, split = tiny_world()
        records, _ = sample_corpus(split, catalog, assign, n=4, seed=0)
        path = tmp_path / "c.txt"
        write_chat_corpus(records, path)
        want = "\n\n".join(render_chat(record) for record in records) + "\n"
        assert path.read_bytes() == want.encode("utf-8")
        assert len(records) == 4 and len({r["user"] for r in records}) > 1

    def test_vocabulary_file(self, tmp_path, rng):
        model = random_model(rng, 2, [3, 2], 4)
        path = tmp_path / "vocab.txt"
        write_sid_vocabulary(model, path)
        assert path.read_text(encoding="utf-8") == (
            "<a_0>\n<a_1>\n<a_2>\n<b_0>\n<b_1>\n"
        )
