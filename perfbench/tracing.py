"""Spans and counters recorded from outside the program.

The benchmark replaces the public functions of each sidforge module that a
pipeline run calls (the ones listed in `install`) with wrappers that open a span around the call (name, start, end, parent) and bump
a few counters. Spans stay in memory and are written once the traced round
ends. Per-layer times are span self times: the span's duration minus the part
its child spans cover.

Modules that imported a function by name (`pipeline` imports the datamodel
loaders) get the same wrapper under that name, so every call site is seen.
Functions called only inside a wrapped one (`rq.encode_batch` inside
`assign_all` and `reconstruction_curve`) count toward their caller's self
time; `diagnostics.build_report` is not wrapped, so its own few lines count
toward `pipeline.stage_overhead_s`.
"""

from __future__ import annotations

import functools
import os
import resource
import time
from collections import defaultdict

from workloads import STAGES

TASKS = tuple(f"T{i}" for i in range(1, 9))

# Every per-layer metric the traced run reports, with its unit and direction.
# A `_s` timing is the summed self time of the spans of that name in one
# traced round (cold staged run plus one cache-hit re-run).
PER_LAYER = (
    [(f"datamodel.{f}_s", "s", "lower") for f in (
        "load_items", "load_embeddings", "load_interactions", "leave_last_out_split",
        "save_items", "write_embeddings", "save_interactions")]
    + [("datamodel.items", "count", "higher"), ("datamodel.events", "count", "higher")]
    + [("synthgen.generate_catalog_s", "s", "lower"), ("synthgen.generate_interactions_s", "s", "lower")]
    + [(f"rq.{f}", "s", "lower") for f in (
        "fit_codebooks_s", "fit_codebooks_sys_s", "assign_all_s", "save_model_s",
        "save_assignment_s", "load_model_s", "load_assignment_s", "build_trie_s")]
    + [("rq.lloyd_iters", "count", "lower"), ("rq.effective_codes", "count", "higher")]
    + [(f"diagnostics.{f}_s", "s", "lower") for f in (
        "reconstruction_curve", "semantic_probe", "collision_rate", "prefix_entropy_profile",
        "codebook_utilization", "active_codes_per_level", "report_to_dict", "render_table")]
    + [(f"corpus.make_examples.{t}_s", "s", "lower") for t in TASKS]
    + [(f"corpus.{f}_s", "s", "lower") for f in ("sample_corpus", "write_corpus", "write_sid_vocabulary")]
    + [("corpus.pool_examples", "count", "higher"), ("corpus.skipped", "count", "lower"),
       ("corpus.bytes_written", "bytes", "lower")]
    + [(f"recommender.{f}_s", "s", "lower") for f in (
        "train_ngram", "evaluate", "save_ngram", "popularity_ranking", "evaluate_static_ranking",
        "write_metrics_csv")]
    + [("recommender.beam_search_p50_ms", "ms", "lower"), ("recommender.beam_search_tail_ms", "ms", "lower")]
    + [("recommender.score_next_calls", "count", "lower"), ("recommender.ngram_contexts", "count", "higher"),
       ("recommender.beam_shortfalls", "count", "lower")]
    + [("pipeline.sha256_file_s", "s", "lower"), ("pipeline.hashed_mb", "MB", "lower"),
       ("pipeline.cache_hits", "count", "higher"), ("pipeline.stage_overhead_s", "s", "lower")]
    + [(f"{stage}.cpu_{kind}_s", "s", "lower") for stage in STAGES for kind in ("user", "sys")]
)

# Percentiles tried for the per-user beam-search tail, highest first. The tail
# is the highest one with at least ten users beyond it.
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 95.0, 90.0)


def _sys_cpu_s() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_stime


class Tracer:
    """In-memory spans plus named counters. Single-threaded: every wrapped
    function is called from the main thread (the rq worker threads run
    private helpers, which are not wrapped)."""

    def __init__(self):
        self.spans: list[list] = []  # [id, name, start, end, parent]
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def begin(self, name: str) -> list:
        span = [len(self.spans), name, time.perf_counter(), None,
                self._open[-1] if self._open else None]
        self.spans.append(span)
        self._open.append(span[0])
        return span

    def end(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        span = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span)

    def to_json(self) -> dict:
        return {
            "spans": [{"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4]}
                      for s in self.spans],
            "counters": dict(self.counters),
        }


def install(tracer: Tracer):
    """Wrap the public functions of every measured sidforge module. Returns a
    function that puts the originals back."""
    from sidforge import corpus, datamodel, diagnostics, pipeline, recommender, rq, synthgen

    count = tracer.counters
    replaced = []  # (namespace, attribute, original)

    def put(target, attr, value):
        replaced.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    # Counters set from a call's result: name -> (counter, value of the result).
    from_result = {
        "datamodel.load_items": ("datamodel.items", len),
        "datamodel.load_interactions": ("datamodel.events", lambda log: log.n_events),
        "recommender.train_ngram": ("recommender.ngram_contexts", lambda model: len(model.counts)),
        "recommender.evaluate": ("recommender.beam_shortfalls", lambda report: report.beam_shortfalls),
    }
    # Counters summing the size of the file named by a call's last argument:
    # name -> (counter, unit in bytes).
    file_sizes = {
        "corpus.write_corpus": ("corpus.bytes_written", 1),
        "corpus.write_sid_vocabulary": ("corpus.bytes_written", 1),
        "pipeline.sha256_file": ("pipeline.hashed_mb", 2**20),
    }

    def wrap(module, attr, also=()):
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = tracer.call(name, original, *args, **kwargs)
            if name in from_result:
                key, value = from_result[name]
                count[key] = value(result)
            if name in file_sizes:
                key, unit = file_sizes[name]
                count[key] += os.path.getsize(args[-1]) / unit
            return result

        for target in (module, *also):
            put(target, attr, wrapper)

    for attr in ("load_items", "load_embeddings", "load_interactions", "leave_last_out_split",
                 "save_items", "write_embeddings", "save_interactions"):
        wrap(datamodel, attr, also=(pipeline,))
    for attr in ("generate_catalog", "generate_interactions"):
        wrap(synthgen, attr)
    for attr in ("assign_all", "save_model", "save_assignment", "load_model",
                 "load_assignment", "build_trie"):
        wrap(rq, attr)
    for attr in ("reconstruction_curve", "semantic_probe", "collision_rate",
                 "prefix_entropy_profile", "codebook_utilization", "active_codes_per_level",
                 "report_to_dict", "render_table"):
        wrap(diagnostics, attr)
    for attr in ("sample_corpus", "write_corpus", "write_sid_vocabulary"):
        wrap(corpus, attr)
    for attr in ("train_ngram", "evaluate", "save_ngram", "popularity_ranking",
                 "evaluate_static_ranking", "beam_search", "write_metrics_csv"):
        wrap(recommender, attr)
    wrap(pipeline, "sha256_file")

    original_fit = rq.fit_codebooks

    @functools.wraps(original_fit)
    def fit_codebooks(*args, **kwargs):
        sys0 = _sys_cpu_s()
        model = tracer.call("rq.fit_codebooks", original_fit, *args, **kwargs)
        count["rq.fit_codebooks_sys_s"] += _sys_cpu_s() - sys0
        count["rq.lloyd_iters"] = sum(len(st.mse_trace) - 1 for st in model.fit_stats)
        count["rq.effective_codes"] = sum(model.effective_sizes)
        return model

    put(rq, "fit_codebooks", fit_codebooks)

    original_examples = corpus.make_examples

    @functools.wraps(original_examples)
    def make_examples(task, *args, **kwargs):
        examples, skipped = tracer.call(f"corpus.make_examples.{task.name}",
                                        original_examples, task, *args, **kwargs)
        count["corpus.pool_examples"] += len(examples)
        count["corpus.skipped"] += skipped
        return examples, skipped

    put(corpus, "make_examples", make_examples)

    original_score = recommender.NGramModel.score_next

    @functools.wraps(original_score)
    def score_next(self, context):
        count["recommender.score_next_calls"] += 1
        return original_score(self, context)

    put(recommender.NGramModel, "score_next", score_next)

    def restore():
        for target, attr, original in reversed(replaced):
            setattr(target, attr, original)

    return restore


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the summed duration of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def tail_percentile(n: int) -> float | None:
    """Highest percentile in TAIL_PERCENTILES with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def per_layer_metrics(traces: list[dict], stage_cpu: dict, cache_hits: int) -> dict[str, float]:
    """Every PER_LAYER metric from the spans and counters of one traced round
    (and of the traced set-up, which holds the synthgen spans). stage_cpu maps
    a stage name to its (user, sys) CPU seconds."""
    out: dict[str, float] = {name: 0.0 for name, unit, _ in PER_LAYER if unit == "s"}
    out["pipeline.stage_overhead_s"] = 0.0
    beams = []
    for trace in traces:
        spans = trace["spans"]
        own = self_times(spans)
        for s in spans:
            key = s["name"] + "_s"
            if key in out:
                out[key] += own[s["id"]]
            elif s["name"].startswith("stage."):
                out["pipeline.stage_overhead_s"] += own[s["id"]]
            if s["name"] == "recommender.beam_search":
                beams.append(1e3 * (s["end"] - s["start"]))
        out.update(trace["counters"])
    tail = tail_percentile(len(beams))
    out["recommender.beam_search_p50_ms"] = percentile(beams, 50.0)
    out["recommender.beam_search_tail_ms"] = percentile(beams, tail if tail is not None else 100.0)
    out["pipeline.cache_hits"] = cache_hits
    for stage in STAGES:
        out[f"{stage}.cpu_user_s"], out[f"{stage}.cpu_sys_s"] = stage_cpu[stage]
    return {name: float(out[name]) for name, _, _ in PER_LAYER}
