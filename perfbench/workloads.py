"""The benchmark's workloads: synthetic input shapes and the pipeline config
each one runs with.

Inputs are generated from the run's seed by `sidforge.synthgen`. Everything
else about a workload is fixed here (codebooks, iteration cap, how often each
stage runs in a round, how long a round is taken to be; corpus, eval and the
worker count keep the pipeline defaults), so two runs with the same seed and
length do identical work.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace

STAGES = ("source", "tokenize", "diagnose", "corpus", "eval")

# Paths inside a run's work directory. They are relative so that the manifest
# bytes do not depend on where the checkout lives.
INPUT_FILES = {
    "items": "inputs/items.jsonl",
    "embeddings": "inputs/embeddings.emb",
    "interactions": "inputs/interactions.tsv",
}
OUTPUT_DIR = "out"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: dict
    # Calls of each stage per round: the cold call and forced re-computations,
    # so that every stage's time covers a few hundred milliseconds of work.
    calls: dict
    # Nominal length of one round in seconds. A run of S seconds makes
    # S // round_s rounds, a number that does not depend on the code's speed.
    round_s: float
    rq: dict = field(default_factory=dict)
    # The synthetic interactions plant a category Markov chain; on a workload
    # with long histories the n-gram must beat the static popularity list.
    expects_ngram_win: bool = False

    def synth_config(self, seed: int) -> dict:
        return dict(self.synth, seed=int(seed))

    def pipeline_config(self) -> dict:
        """Full pipeline config in ingest mode. SIDFORGE_* variables of the
        calling environment are ignored, so the workload cannot drift."""
        from sidforge.pipeline import load_config

        cfg = copy.deepcopy(load_config(env={}))
        cfg["pipeline"].update(mode="ingest", output_dir=OUTPUT_DIR)
        cfg["inputs"] = dict(INPUT_FILES)
        cfg["rq"].update(self.rq)
        return cfg


_SYNTH_COMMON = {
    "num_categories": 16,
    "enrichment_level": 0.5,
    "intra_category_noise": 0.6,
}

# Every workload caps the Lloyd iterations below where the 1e-4 tolerance
# would stop them, so each seed does the same number of iterations.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="catalog_fit",
            why="paper-sized 256/256/256 codebooks on 2,048 64-d items; rq and diagnostics dominate",
            synth=dict(_SYNTH_COMMON, num_items=2048, num_users=150, dim=64, events_per_user=[4, 6]),
            calls={"source": 12, "tokenize": 1, "diagnose": 1, "corpus": 4, "eval": 2},
            round_s=6.5,
            rq={"codebook_sizes": [256, 256, 256], "kmeans_max_iters": 2},
        ),
        Workload(
            name="user_eval",
            why="1,000 users with 20-40 events on a small catalog; beam search, n-gram and history tasks dominate",
            synth=dict(_SYNTH_COMMON, num_items=1000, num_users=1000, dim=32, events_per_user=[20, 40]),
            calls={"source": 10, "tokenize": 3, "diagnose": 3, "corpus": 3, "eval": 1},
            round_s=5.0,
            rq={"kmeans_max_iters": 5},
            expects_ngram_win=True,
        ),
    )
}

# Small versions of each workload for the benchmark's own tests: same code
# paths, a fraction of the work.
def _tiny(name: str, rq: dict, **synth) -> Workload:
    w = WORKLOADS[name]
    # Two calls of every stage, so the forced repeats are exercised too.
    return replace(w, synth=dict(w.synth, num_categories=4, **synth), rq=dict(w.rq, **rq),
                   calls=dict.fromkeys(STAGES, 2))


TINY = {
    "catalog_fit": _tiny("catalog_fit", {"codebook_sizes": [32, 32, 32]},
                         num_items=240, num_users=40, dim=8),
    "user_eval": _tiny("user_eval", {"codebook_sizes": [8, 4, 4]},
                       num_items=120, num_users=300, dim=8, events_per_user=[10, 20]),
}
