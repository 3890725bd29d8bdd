"""Eight-task conversational training corpus: the sources and rendered views
all tasks share (built once per corpus), per-task lazy example pools over them,
chat-template rendering, and uniform task sampling to line-delimited JSON."""

from __future__ import annotations

import functools
import json
import logging
import operator
from collections.abc import Sequence
from enum import Enum
from importlib import resources

import numpy as np

from . import rng
from .datamodel import ItemCatalog, SplitDataset, atomic_open
from .rq import RqModel, SidAssignment, level_letter, render_sid

log = logging.getLogger("sidforge.corpus")

HISTORY_SEPARATOR = ", "
_RECORD_ENCODER = json.JSONEncoder(ensure_ascii=False)  # json.dumps(record, ensure_ascii=False), built once

CHAT_TEMPLATE = (
    "<|im_start|>system\n{system}\n<|im_end|>\n"
    "<|im_start|>user\n{user}\n<|im_end|>\n"
    "<|im_start|>assistant\n{assistant}\n<|im_end|>"
)


class CorpusError(ValueError):
    """Raised for unusable corpus inputs."""


class TaskId(Enum):
    """The eight tasks over the SID-title-visual triangle. Each value is
    (source, input view, output view): the source is one catalog item or one
    user's history, and a view is the item's SID or the catalog field of that name."""

    T1 = ("item", "title", "sid")
    T2 = ("item", "sid", "title")
    T3 = ("history", "sid", "sid")
    T4 = ("history", "title", "sid")
    T5 = ("history", "sid", "title")
    T6 = ("history", "title", "title")
    T7 = ("item", "visual_description", "sid")
    T8 = ("item", "visual_description", "title")


_USER_TEMPLATES = {
    TaskId.T1: "Product Title: {title}\nGenerate the SID sequence:",
    TaskId.T2: "SID Sequence: {sid}\nGenerate the product title:",
    TaskId.T3: "Interaction History (SIDs): {sid_history}\nPredict the next item's SID:",
    TaskId.T4: "Interaction History (Titles): {title_history}\nPredict the next item's SID:",
    TaskId.T5: "Interaction History (SIDs): {sid_history}\nPredict the next item's title:",
    TaskId.T6: "Interaction History (Titles): {title_history}\nPredict the next item's title:",
    TaskId.T7: "Visual Description: {visual_description}\nGenerate the SID sequence:",
    TaskId.T8: "Visual Description: {visual_description}\nGenerate the product title:",
}


@functools.cache
def system_instruction(task: TaskId) -> str:
    """Verbatim system instruction for one task, read from the shipped asset
    file once per process."""
    name = f"{task.name.lower()}.txt"
    return resources.files("sidforge.templates").joinpath(name).read_text("utf-8")


def check_settings(*, n: int = 1, max_history: int = 1) -> None:
    """Raise CorpusError, naming the setting, when the corpus size `n` or the
    history length `max_history` is below 1. The pipeline's `corpus` config
    section runs the same checks."""
    for name, value in (("n", n), ("max_history", max_history)):
        if value < 1:
            raise CorpusError(f"{name} must be >= 1, not {value}")


class _Rendered(dict):
    """item id -> one view's text, rendered on the first read of each id."""

    def __init__(self, render):
        self._render = render

    def __missing__(self, item_id: str) -> str:
        text = self[item_id] = self._render(item_id)
        return text


class TaskSources:
    """What the eight tasks draw from, found once for all of them. `items`
    are the catalog's items with a SID (T1/T2) and `visual_items` those with
    a visual description too (T7/T8), in catalog order: an empty title is
    still shown, an empty visual description is not. `users` holds, in id
    order, (user_id, history, validation item) for T3-T6: the history is
    those of the user's most recent max_history train items that have a SID
    and a catalog record, oldest first. A user with no such item, or whose
    validation item lacks either, is left out; test targets never enter a
    training corpus. `text[view]` maps an item id to its `sid`, `title` or
    `visual_description`, each rendered on first read."""

    def __init__(self, split: SplitDataset, catalog: ItemCatalog, assign: SidAssignment,
                 max_history: int = 20):
        check_settings(max_history=max_history)
        self.n_items, self.n_users = len(catalog), len(split.user_ids)
        # The item sources are the id strings themselves: a container per
        # item would add thousands of objects for the garbage collector to track.
        sid_row, item_row = assign.row_of, catalog.row_of
        self.items = [i for i in catalog.item_ids if i in sid_row]
        self.visual_items = [i for i, visual in zip(catalog.item_ids, catalog.visual_descriptions)
                             if visual and i in sid_row]
        item_ids, items, ends = split.item_ids, split.items, split.ends
        shown = np.fromiter((i in sid_row and i in item_row for i in item_ids), bool, len(item_ids))
        # Each event's place from its user's end: 1 the test item, 2 the validation.
        from_end = ends.repeat(np.diff(ends, prepend=0)) - np.arange(len(items))
        in_history = shown[items] & (from_end > 2) & (from_end <= max_history + 2)
        history = np.array(item_ids, dtype=object)[items[in_history]].tolist()
        bounds = [0, *in_history.cumsum()[ends - 1].tolist()]
        validation = items[ends - 2].tolist()
        self.users = [(user_id, history[a:b], item_ids[v]) for user_id, a, b, v
                      in zip(split.user_ids, bounds, bounds[1:], validation) if a < b and shown[v]]
        self.text = {"sid": _Rendered(lambda i: render_sid(assign.tokens[sid_row[i]].tolist()))}
        for view, column in (("title", catalog.titles), ("visual_description", catalog.visual_descriptions)):
            self.text[view] = _Rendered(lambda i, column=column: column[item_row[i]])


class ExamplePool(Sequence):
    """One task's examples as a read-only sequence over its eligible sources:
    `pool[i]` renders example i when it is read, so a sampler that reads k
    examples renders k, however large the pool."""

    def __init__(self, sources: list, render):
        self._sources = sources
        self._render = render

    def __len__(self) -> int:
        return len(self._sources)

    def __getitem__(self, index: int) -> dict:
        """Example i as the JSONL record: {"task", "system", "user", "assistant"}."""
        return self._render(self._sources[operator.index(index)])  # no slices


def make_examples(task: TaskId, sources: TaskSources) -> tuple[ExamplePool, int]:
    """One task's records as a lazy pool over its share of `sources`, plus
    the count of skipped sources. An item task's input is one view of the
    item; a history task's is that view of each history item, joined."""
    source, input_view, output_view = task.value
    name, system = task.name, system_instruction(task)
    template = _USER_TEMPLATES[task]
    shown, target_text = sources.text[input_view], sources.text[output_view]

    if source == "history":
        key = f"{input_view}_history"

        def render_user(user: tuple) -> dict:
            _, history, target = user
            joined = HISTORY_SEPARATOR.join(map(shown.__getitem__, history))
            return {"task": name, "system": system, "user": template.format_map({key: joined}),
                    "assistant": target_text[target]}

        return ExamplePool(sources.users, render_user), sources.n_users - len(sources.users)

    items = sources.visual_items if input_view == "visual_description" else sources.items

    def render_item(item_id: str) -> dict:
        return {"task": name, "system": system, "user": template.format_map({input_view: shown[item_id]}),
                "assistant": target_text[item_id]}

    return ExamplePool(items, render_item), sources.n_items - len(items)


def render_chat(record: dict) -> str:
    """Render one {"system", "user", "assistant"} record (as sample_corpus
    returns it) in the unified chat layout: three role blocks, each opened by
    an <|im_start|> line and closed by an <|im_end|> line."""
    return CHAT_TEMPLATE.format(
        system=record["system"], user=record["user"], assistant=record["assistant"]
    )


def sample_corpus(
    split: SplitDataset,
    catalog: ItemCatalog,
    assign: SidAssignment,
    n: int,
    seed: int,
    max_history: int = 20,
) -> tuple[list[dict], dict]:
    """n records sampled task-uniformly (then uniformly within the task, with
    replacement). Tasks with no examples are excluded and sampling is
    renormalized over the rest, with a warning. Each draw renders its
    example into a record of its own. Returns (records, stats)."""
    check_settings(n=n)
    sources = TaskSources(split, catalog, assign, max_history)
    pools: dict[TaskId, ExamplePool] = {}
    skipped: dict[str, int] = {}
    for task in TaskId:
        pools[task], skipped[task.name] = make_examples(task, sources)
    available = [t for t in TaskId if pools[t]]
    excluded = [t.name for t in TaskId if not pools[t]]
    if not available:
        raise CorpusError("no task has any example to sample from")
    if excluded:
        log.warning(
            "tasks with zero examples excluded from sampling; "
            "renormalizing over the rest: %s",
            ", ".join(excluded),
        )
    gen = rng.stream(seed, rng.CORPUS_SAMPLING)
    records = []
    sampled: dict[str, int] = {t.name: 0 for t in TaskId}
    # The loop keys on task names: an Enum member hashes in Python, a str
    # hash is cached.
    choices = [(t.name, pools[t]) for t in available]
    for _ in range(n):
        name, pool = choices[int(gen.integers(len(choices)))]
        records.append(pool[int(gen.integers(len(pool)))])
        sampled[name] += 1
    stats = {
        "sampled_per_task": sampled,
        "skipped_per_task": skipped,
        "excluded_tasks": excluded,
        "pool_sizes": {t.name: len(pools[t]) for t in TaskId},
    }
    return records, stats


def write_corpus(records: list[dict], path) -> None:
    with atomic_open(path, encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(_RECORD_ENCODER.encode(record) + "\n")


def write_chat_corpus(records: list[dict], path) -> None:
    """Raw chat-text export: rendered records separated by blank lines."""
    with atomic_open(path, encoding="utf-8", newline="\n") as fh:
        for i, record in enumerate(records):
            if i:
                fh.write("\n\n")
            fh.write(render_chat(record))
        fh.write("\n")


def write_sid_vocabulary(model: RqModel, path) -> None:
    """Sidecar token list (one rendered token per line) so an external trainer
    can extend its tokenizer vocabulary with the atomic SID tokens."""
    with atomic_open(path, encoding="utf-8", newline="\n") as fh:
        for level, size in enumerate(model.effective_sizes, start=1):
            letter = level_letter(level)
            for token in range(size):
                fh.write(f"<{letter}_{token}>\n")
