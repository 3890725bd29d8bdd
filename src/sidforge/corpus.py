"""Eight-task conversational training corpus: per-task example construction,
chat-template rendering, and uniform task sampling to line-delimited JSON."""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from enum import Enum
from importlib import resources

from . import rng
from .datamodel import ItemCatalog, SplitDataset, atomic_open
from .rq import RqModel, SidAssignment, level_letter, render_sid, validate_sid

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
    """The eight generation tasks: SID/text translation (T1, T2), sequential
    prediction across the two spaces (T3-T6), and visual-description grounding
    (T7, T8)."""

    T1 = "title_to_sid"
    T2 = "sid_to_title"
    T3 = "sid_history_to_sid"
    T4 = "title_history_to_sid"
    T5 = "sid_history_to_title"
    T6 = "title_history_to_title"
    T7 = "visual_to_sid"
    T8 = "visual_to_title"


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

_HISTORY_TASKS = (TaskId.T3, TaskId.T4, TaskId.T5, TaskId.T6)


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
    provenance: str  # item_id for T1/T2/T7/T8, user_id for T3-T6


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

    Item tasks iterate the catalog (T7/T8 skip items without a visual
    description). History tasks iterate users: the input is the most recent
    max_history train items, oldest first, and the target is the validation
    item, so test targets never enter a training corpus.
    """
    if max_history < 1:
        raise CorpusError("max_history must be >= 1")
    system = system_instruction(task)
    template = _USER_TEMPLATES[task]
    examples: list[TrainingExample] = []
    skipped = 0

    if task in _HISTORY_TASKS:
        for user_id in sorted(split.users):
            user = split.users[user_id]
            history = [
                i for i in user.train[-max_history:] if i in catalog and i in assign
            ]
            target = user.validation
            if not history or target not in catalog or target not in assign:
                skipped += 1
                continue
            if task in (TaskId.T3, TaskId.T5):
                rendered_history = HISTORY_SEPARATOR.join(
                    render_sid(assign[i]) for i in history
                )
                user_input = template.format(sid_history=rendered_history)
            else:
                rendered_history = HISTORY_SEPARATOR.join(
                    catalog.get(i).title for i in history
                )
                user_input = template.format(title_history=rendered_history)
            if task in (TaskId.T3, TaskId.T4):
                target_output = render_sid(assign[target])
            else:
                target_output = catalog.get(target).title
            examples.append(
                TrainingExample(task, system, user_input, target_output, user_id)
            )
        return examples, skipped

    for record in catalog:
        if record.item_id not in assign:
            skipped += 1
            continue
        sid_text = render_sid(assign[record.item_id])
        if task is TaskId.T1:
            user_input = template.format(title=record.title)
            target_output = sid_text
        elif task is TaskId.T2:
            user_input = template.format(sid=sid_text)
            target_output = record.title
        else:
            if not record.visual_description:
                skipped += 1
                continue
            user_input = template.format(visual_description=record.visual_description)
            target_output = sid_text if task is TaskId.T7 else record.title
        examples.append(
            TrainingExample(task, system, user_input, target_output, record.item_id)
        )
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
    model: RqModel | None = None,
) -> tuple[list[dict], dict]:
    """n records sampled task-uniformly (then uniformly within the task, with
    replacement). Tasks with no examples are excluded and sampling is
    renormalized over the rest, with a warning. Returns (records, stats)."""
    if n < 1:
        raise CorpusError("n must be >= 1")
    if model is not None:
        for item_id, s in assign.sids.items():
            try:
                validate_sid(model, s)
            except Exception as exc:
                raise CorpusError(f"item {item_id!r}: {exc}") from exc
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
