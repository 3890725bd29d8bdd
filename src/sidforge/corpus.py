"""Eight-task conversational training corpus: per-task example construction,
chat-template rendering, and uniform task sampling to line-delimited JSON."""

from __future__ import annotations

import functools
import json
import logging
import re
from dataclasses import dataclass
from enum import Enum
from importlib import resources

from . import rng
from .datamodel import ItemCatalog, SplitDataset, atomic_open
from .rq import RqModel, SidAssignment, level_letter, render_sid

log = logging.getLogger("sidforge.corpus")

HISTORY_SEPARATOR = ", "

CHAT_TEMPLATE = (
    "<|im_start|>system\n{system}\n<|im_end|>\n"
    "<|im_start|>user\n{user}\n<|im_end|>\n"
    "<|im_start|>assistant\n{assistant}\n<|im_end|>"
)

_CHAT_RE = re.compile(
    r"\A<\|im_start\|>system\n(.*?)\n<\|im_end\|>\n"
    r"<\|im_start\|>user\n(.*?)\n<\|im_end\|>\n"
    r"<\|im_start\|>assistant\n(.*?)\n<\|im_end\|>\Z",
    re.DOTALL,
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


@dataclass(frozen=True)
class ConversationalRecord:
    task: TaskId
    text: str


def make_examples(
    task: TaskId,
    split: SplitDataset,
    catalog: ItemCatalog,
    assign: SidAssignment,
    max_history: int = 20,
) -> tuple[list[TrainingExample], int]:
    """Examples for one task plus the count of skipped sources.

    Item tasks iterate the catalog (a visual input skips items without a
    visual description). History tasks iterate users: the input is the most
    recent max_history train items, oldest first, and the target is the
    validation item, so test targets never enter a training corpus.
    """
    if max_history < 1:
        raise CorpusError("max_history must be >= 1")
    source, input_view, output_view = task.value
    system = system_instruction(task)
    template = _USER_TEMPLATES[task]
    examples: list[TrainingExample] = []
    skipped = 0

    # History tasks show the same items to many users: render each SID once
    # per call. Catalog fields are read directly, which is cheaper than a cache.
    sid_text = functools.cache(lambda item_id: render_sid(assign[item_id]))

    def show(view: str, item_id: str) -> str:
        if view == "sid":
            return sid_text(item_id)
        return getattr(catalog.get(item_id), view)

    if source == "history":
        for user_id in sorted(split.users):
            user = split.users[user_id]
            history = [i for i in user.train[-max_history:] if i in catalog and i in assign]
            target = user.validation
            if not history or target not in catalog or target not in assign:
                skipped += 1
                continue
            shown = HISTORY_SEPARATOR.join(show(input_view, i) for i in history)
            user_input = template.format_map({f"{input_view}_history": shown})
            examples.append(
                TrainingExample(task, system, user_input, show(output_view, target), user_id)
            )
        return examples, skipped

    for record in catalog:
        # An empty title is still shown; an empty visual description is not.
        if record.item_id not in assign or (
            input_view == "visual_description" and not record.visual_description
        ):
            skipped += 1
            continue
        user_input = template.format_map({input_view: show(input_view, record.item_id)})
        target_output = show(output_view, record.item_id)
        examples.append(TrainingExample(task, system, user_input, target_output, record.item_id))
    return examples, skipped


def render_template(example: TrainingExample) -> ConversationalRecord:
    """Render one example in the unified chat layout: three role blocks, each
    opened by an <|im_start|> line and closed by an <|im_end|> line."""
    return ConversationalRecord(
        task=example.task,
        text=CHAT_TEMPLATE.format(
            system=example.system_instruction,
            user=example.user_input,
            assistant=example.target_output,
        ),
    )


def parse_conversational(text: str) -> dict[str, str]:
    """Inverse of render_template for well-formed records."""
    match = _CHAT_RE.match(text)
    if match is None:
        raise CorpusError("text does not match the conversational template")
    return {
        "system": match.group(1),
        "user": match.group(2),
        "assistant": match.group(3),
    }


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
    renormalized over the rest, with a warning. Returns (records, stats)."""
    if n < 1:
        raise CorpusError("n must be >= 1")
    pools: dict[TaskId, list[TrainingExample]] = {}
    skipped: dict[str, int] = {}
    for task in TaskId:
        examples, n_skipped = make_examples(task, split, catalog, assign, max_history)
        pools[task] = examples
        skipped[task.name] = n_skipped
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
    for _ in range(n):
        task = available[int(gen.integers(len(available)))]
        pool = pools[task]
        example = pool[int(gen.integers(len(pool)))]
        sampled[task.name] += 1
        records.append(
            {
                "task": task.name,
                "system": example.system_instruction,
                "user": example.user_input,
                "assistant": example.target_output,
            }
        )
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
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def write_chat_corpus(records: list[dict], path) -> None:
    """Raw chat-text export: rendered records separated by blank lines."""
    with atomic_open(path, encoding="utf-8", newline="\n") as fh:
        for i, record in enumerate(records):
            if i:
                fh.write("\n\n")
            fh.write(
                CHAT_TEMPLATE.format(
                    system=record["system"],
                    user=record["user"],
                    assistant=record["assistant"],
                )
            )
        fh.write("\n")


def write_sid_vocabulary(model: RqModel, path) -> None:
    """Sidecar token list (one rendered token per line) so an external trainer
    can extend its tokenizer vocabulary with the atomic SID tokens."""
    with atomic_open(path, encoding="utf-8", newline="\n") as fh:
        for level, size in enumerate(model.effective_sizes, start=1):
            letter = level_letter(level)
            for token in range(size):
                fh.write(f"<{letter}_{token}>\n")
