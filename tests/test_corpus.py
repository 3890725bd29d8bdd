from __future__ import annotations

import json
import logging

import pytest

from conftest import assignment_from_sids, random_model
from sidforge.corpus import (
    CHAT_TEMPLATE,
    HISTORY_SEPARATOR,
    CorpusError,
    TaskId,
    TrainingExample,
    make_examples,
    parse_conversational,
    render_template,
    sample_corpus,
    system_instruction,
    write_chat_corpus,
    write_corpus,
    write_sid_vocabulary,
)
from sidforge.datamodel import ItemCatalog, ItemRecord, SplitDataset, UserSplit

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
    records = [
        ItemRecord("a", "Alpha Lamp", "da", "cat", visual_description="Black lamp."),
        ItemRecord("b", "Beta Mug", "db", "cat", visual_description="Red mug."),
        ItemRecord("c", "Gamma Mat", "dc", "cat", visual_description=None),
        ItemRecord("d", "Delta Kit", "dd", "cat", visual_description="Blue kit."),
    ]
    catalog = ItemCatalog.from_records(records)
    assign = assignment_from_sids({"a": (0, 1), "b": (1, 0), "c": (2, 2)})
    split = SplitDataset(
        users={
            "u1": UserSplit(train=("a", "c"), validation="b", test="d"),
            "u2": UserSplit(train=("d",), validation="a", test="b"),
        },
        n_dropped_users=0,
    )
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
        example = TrainingExample(TaskId.T1, "SYS", "USR", "TGT", "item")
        record = render_template(example)
        assert record.text == (
            "<|im_start|>system\nSYS\n<|im_end|>\n"
            "<|im_start|>user\nUSR\n<|im_end|>\n"
            "<|im_start|>assistant\nTGT\n<|im_end|>"
        )

    def test_parse_inverse(self):
        example = TrainingExample(
            TaskId.T2, "line one\nline two", "user text", "answer", "x"
        )
        parts = parse_conversational(render_template(example).text)
        assert parts == {
            "system": "line one\nline two",
            "user": "user text",
            "assistant": "answer",
        }

    def test_parse_rejects_malformed(self):
        with pytest.raises(CorpusError):
            parse_conversational("<|im_start|>system\nx\n<|im_end|>")
        with pytest.raises(CorpusError):
            parse_conversational(CHAT_TEMPLATE.format(system="s", user="u", assistant="a") + "x")


class TestMakeExamples:
    def test_t1(self):
        catalog, assign, split = tiny_world()
        examples, skipped = make_examples(TaskId.T1, split, catalog, assign)
        assert skipped == 1  # item d has no SID
        assert [e.provenance for e in examples] == ["a", "b", "c"]
        first = examples[0]
        assert first.user_input == "Product Title: Alpha Lamp\nGenerate the SID sequence:"
        assert first.target_output == "<a_0><b_1>"
        assert first.system_instruction == T1_INSTRUCTION

    def test_t2_reverses_direction(self):
        catalog, assign, split = tiny_world()
        examples, _ = make_examples(TaskId.T2, split, catalog, assign)
        first = examples[0]
        assert first.user_input == "SID Sequence: <a_0><b_1>\nGenerate the product title:"
        assert first.target_output == "Alpha Lamp"

    def test_t7_t8_need_visuals(self):
        catalog, assign, split = tiny_world()
        examples, skipped = make_examples(TaskId.T7, split, catalog, assign)
        assert [e.provenance for e in examples] == ["a", "b"]
        assert skipped == 2  # c lacks a visual description, d lacks a SID
        assert examples[0].user_input == (
            "Visual Description: Black lamp.\nGenerate the SID sequence:"
        )
        assert examples[0].target_output == "<a_0><b_1>"
        t8, _ = make_examples(TaskId.T8, split, catalog, assign)
        assert t8[0].target_output == "Alpha Lamp"

    def test_t3_history_and_validation_target(self):
        catalog, assign, split = tiny_world()
        examples, skipped = make_examples(TaskId.T3, split, catalog, assign)
        assert skipped == 1  # u2's only train item has no SID
        only = examples[0]
        assert only.provenance == "u1"
        assert only.user_input == (
            "Interaction History (SIDs): <a_0><b_1>, <a_2><b_2>\n"
            "Predict the next item's SID:"
        )
        assert only.target_output == "<a_1><b_0>"

    def test_t4_t5_t6_variants(self):
        catalog, assign, split = tiny_world()
        t4, _ = make_examples(TaskId.T4, split, catalog, assign)
        assert t4[0].user_input == (
            "Interaction History (Titles): Alpha Lamp, Gamma Mat\n"
            "Predict the next item's SID:"
        )
        assert t4[0].target_output == "<a_1><b_0>"
        t5, _ = make_examples(TaskId.T5, split, catalog, assign)
        assert t5[0].target_output == "Beta Mug"
        t6, _ = make_examples(TaskId.T6, split, catalog, assign)
        assert "Titles" in t6[0].user_input
        assert t6[0].target_output == "Beta Mug"

    def test_targets_are_validation_not_test_events(self):
        from sidforge.rq import render_sid

        catalog, assign, split = tiny_world()
        for task in (TaskId.T3, TaskId.T4):
            for example in make_examples(task, split, catalog, assign)[0]:
                user = split.users[example.provenance]
                assert example.target_output == render_sid(assign[user.validation])
                if user.test in assign:
                    assert example.target_output != render_sid(assign[user.test])

    def test_history_truncated_to_max(self):
        catalog, assign, _ = tiny_world()
        train = tuple("a" if i % 2 else "b" for i in range(25))
        split = SplitDataset(
            users={"u": UserSplit(train=train, validation="a", test="b")},
            n_dropped_users=0,
        )
        examples, _ = make_examples(TaskId.T6, split, catalog, assign, max_history=20)
        history = examples[0].user_input.split(": ", 1)[1].split("\n")[0]
        entries = history.split(HISTORY_SEPARATOR)
        assert len(entries) == 20
        want = ["Alpha Lamp" if i % 2 else "Beta Mug" for i in range(5, 25)]
        assert entries == want

    def test_max_history_validated(self):
        catalog, assign, split = tiny_world()
        with pytest.raises(CorpusError):
            make_examples(TaskId.T3, split, catalog, assign, max_history=0)


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
        empty_split = SplitDataset(users={}, n_dropped_users=0)
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
        catalog = ItemCatalog.from_records(
            [ItemRecord("z", "Z", "d", "c", visual_description=None)]
        )
        assign = assignment_from_sids({"q": (0,)})
        split = SplitDataset(users={}, n_dropped_users=0)
        with pytest.raises(CorpusError, match="no task"):
            sample_corpus(split, catalog, assign, n=5, seed=0)


class TestWriters:
    def test_write_corpus_jsonl(self, tmp_path):
        catalog, assign, split = tiny_world()
        records, _ = sample_corpus(split, catalog, assign, n=10, seed=0)
        path = tmp_path / "c.jsonl"
        write_corpus(records, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 10
        assert [json.loads(line) for line in lines] == records

    def test_write_chat_corpus_parses_back(self, tmp_path):
        catalog, assign, split = tiny_world()
        records, _ = sample_corpus(split, catalog, assign, n=4, seed=0)
        path = tmp_path / "c.txt"
        write_chat_corpus(records, path)
        text = path.read_text(encoding="utf-8")
        blocks = text.rstrip("\n").split("\n\n")
        assert len(blocks) == 4
        for block, record in zip(blocks, records):
            parts = parse_conversational(block)
            assert parts["system"] == record["system"]
            assert parts["assistant"] == record["assistant"]

    def test_vocabulary_file(self, tmp_path, rng):
        model = random_model(rng, 2, [3, 2], 4)
        path = tmp_path / "vocab.txt"
        write_sid_vocabulary(model, path)
        assert path.read_text(encoding="utf-8") == (
            "<a_0>\n<a_1>\n<a_2>\n<b_0>\n<b_1>\n"
        )
