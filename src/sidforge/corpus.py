"""Eight-task conversational training corpus: per-task example construction,
chat-template rendering, and uniform task sampling to line-delimited JSON."""

from __future__ import annotations

import json
import logging
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from importlib import resources

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


def system_instruction(task: TaskId) -> str:
    """Verbatim system instruction for one task, read from the shipped asset
    file."""
    name = f"{task.name.lower()}.txt"
    return resources.files("sidforge.templates").joinpath(name).read_text("utf-8")


@dataclass(frozen=True)
class TrainingExample:
    task: TaskId
    system_instruction: str
    user_input: str
    target_output: str
    provenance: str  # item_id for item tasks, user_id for history tasks


def check_settings(*, n: int = 1, max_history: int = 1) -> None:
    """Raise CorpusError, naming the setting, when the corpus size `n` or the
    history length `max_history` is below 1. The pipeline's `corpus` config
    section runs the same checks."""
    for name, value in (("n", n), ("max_history", max_history)):
        if value < 1:
            raise CorpusError(f"{name} must be >= 1, not {value}")


class ExamplePool(Sequence):
    """One task's examples as a read-only sequence over its eligible sources:
    `pool[i]` renders example i when it is read, so a sampler that reads k
    examples renders k, however large the pool."""

    def __init__(self, sources: list, render):
        self._sources = sources
        self._render = render

    def __len__(self) -> int:
        return len(self._sources)

    def __getitem__(self, index: int) -> TrainingExample:
        return self._render(self._sources[operator.index(index)])  # no slices


def make_examples(
    task: TaskId,
    split: SplitDataset,
    catalog: ItemCatalog,
    assign: SidAssignment,
    max_history: int = 20,
) -> tuple[ExamplePool, int]:
    """One task's examples as a lazy pool, plus the count of skipped sources.

    Item tasks iterate the catalog (a visual input skips items without a
    visual description). History tasks iterate users: the input is the most
    recent max_history train items, oldest first, and the target is the
    validation item, so test targets never enter a training corpus. Only
    the eligible sources are found here; the pool renders an example when
    it is read.
    """
    check_settings(max_history=max_history)
    source, input_view, output_view = task.value
    system = system_instruction(task)
    template = _USER_TEMPLATES[task]

    def show(view: str, item_id: str) -> str:
        if view == "sid":
            return render_sid(assign[item_id])
        return getattr(catalog.get(item_id), view)

    if source == "history":
        shown_items = {item_id for item_id in assign.item_ids if item_id in catalog}
        users = []  # (user_id, shown history, validation item)
        for user_id in sorted(split.users):
            user = split.users[user_id]
            history = [i for i in user.train[-max_history:] if i in shown_items]
            if history and user.validation in shown_items:
                users.append((user_id, history, user.validation))

        def render_user(source: tuple) -> TrainingExample:
            user_id, history, target = source
            shown = HISTORY_SEPARATOR.join(show(input_view, i) for i in history)
            user_input = template.format_map({f"{input_view}_history": shown})
            return TrainingExample(task, system, user_input, show(output_view, target), user_id)

        return ExamplePool(users, render_user), len(split.users) - len(users)

    # An empty title is still shown; an empty visual description is not. The
    # sources are the item id strings themselves: a container per item would
    # add thousands of objects for the garbage collector to track.
    items = [
        record.item_id
        for record in catalog
        if record.item_id in assign.sids
        and (input_view != "visual_description" or record.visual_description)
    ]

    def render_item(item_id: str) -> TrainingExample:
        user_input = template.format_map({input_view: show(input_view, item_id)})
        return TrainingExample(task, system, user_input, show(output_view, item_id), item_id)

    return ExamplePool(items, render_item), len(catalog) - len(items)


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
    renormalized over the rest, with a warning. Only the drawn examples are
    rendered, each once. Returns (records, stats)."""
    check_settings(n=n)
    pools: dict[TaskId, ExamplePool] = {}
    skipped: dict[str, int] = {}
    for task in TaskId:
        pools[task], skipped[task.name] = make_examples(task, split, catalog, assign, max_history)
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
    # Each drawn example is rendered into a record once; a draw of it again
    # copies that record. The loop keys on task names: an Enum member hashes
    # in Python, a str hash is cached.
    drawn: dict[tuple[str, int], dict] = {}
    choices = [(t.name, pools[t]) for t in available]
    for _ in range(n):
        name, pool = choices[int(gen.integers(len(choices)))]
        key = name, int(gen.integers(len(pool)))
        record = drawn.get(key)
        if record is None:
            example = pool[key[1]]
            record = drawn[key] = {
                "task": name,
                "system": example.system_instruction,
                "user": example.user_input,
                "assistant": example.target_output,
            }
        sampled[name] += 1
        records.append(record.copy())
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
