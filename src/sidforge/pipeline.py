"""Config-driven five-stage pipeline with content-addressed caching.

Stages: (1) source the catalog, embeddings, and interactions (synthesize or
ingest), (2) fit codebooks and assign SIDs, (3) diagnostics report, (4) corpus
export, (5) baseline training plus evaluation. Each stage is skipped when its
config and input hashes match the manifest and its outputs exist. If a cached
upstream artifact was edited on disk behind the manifest's back, the consuming
stage refuses to run rather than silently building on it; --force recomputes
every enabled stage. A stage that fails or refuses exits with its number, and
the manifest still records the stages that finished before it; it is written
after each stage that runs, so an interrupted run keeps them too. Every writer
replaces its file atomically (datamodel.atomic_open), so a stage that fails
leaves no partial file. A run holds `run_lock` on its output directory, so a
second run on the same directory fails at once.

Each stage's load, check, compute and write sequence is a public function
here; run_pipeline and the `sidforge` subcommands both call them.

Cache keys are content hashes of inputs plus the stage's config subsection.
Worker counts are excluded from the keys and never change artifact bytes.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import logging
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

from . import corpus as corpus_mod
from . import diagnostics, recommender, rq, synthgen
from .datamodel import (
    CatalogError,
    atomic_open,
    from_json,
    ids_path_for,
    k_core_filter,
    leave_last_out_split,
    load_embeddings,
    load_interactions,
    load_items,
    save_interactions,
    save_items,
    write_embeddings,
)

log = logging.getLogger("sidforge.pipeline")

MANIFEST_FORMAT = "sidforge-manifest-v1"
ENV_PREFIX = "SIDFORGE_"


class ConfigError(ValueError):
    """An unreadable config, a section key unknown or of the wrong type, a
    `pipeline`, `corpus` or `eval` value out of range, or a source setting
    that stage 1 needs left unset."""


# One record per config section; its fields hold the defaults. The `rq` and
# `synth` sections are read by rq.RqConfig and synthgen.SynthConfig.
@dataclass(frozen=True)
class PipelineSection:
    mode: str = "synth"
    output_dir: str = "sidforge_out"
    workers: int = 1
    kcore: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("synth", "ingest"):
            raise ConfigError(f"pipeline.mode must be 'synth' or 'ingest', not {self.mode!r}")
        if self.workers < 1:
            raise ConfigError(f"pipeline.workers must be >= 1, not {self.workers}")
        if self.kcore < 0:
            raise ConfigError(f"pipeline.kcore must be >= 0, not {self.kcore}")


@dataclass(frozen=True)
class InputsSection:
    items: str | None = None
    embeddings: str | None = None
    interactions: str | None = None


def _check_section(section: str, check, **settings) -> None:
    """Run a library range check on a section's settings, as a ConfigError
    that names the section and the key."""
    try:
        check(**settings)
    except ValueError as exc:
        raise ConfigError(f"{section}.{exc}") from None


@dataclass(frozen=True)
class CorpusSection:
    n: int = 1000
    max_history: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        _check_section("corpus", corpus_mod.check_settings, n=self.n, max_history=self.max_history)


@dataclass(frozen=True)
class EvalSection:
    ks: tuple[int, ...] = (5, 10)
    beam_size: int = 20
    order: int = 3
    alpha: float = 0.1
    include_validation: bool = True
    ngram_include_validation: bool = False

    def __post_init__(self) -> None:
        _check_section(
            "eval", recommender.check_settings,
            ks=self.ks, beam_size=self.beam_size, order=self.order, alpha=self.alpha,
        )


@dataclass(frozen=True)
class DiagnosticsSection:
    probe_seed: int = 0
    run_probe: bool = True
    sim_curve: bool = True


@dataclass(frozen=True)
class StagesSection:
    source: bool = True
    tokenize: bool = True
    diagnose: bool = True
    corpus: bool = True
    eval: bool = True


_SECTIONS = {
    "pipeline": PipelineSection,
    "inputs": InputsSection,
    "corpus": CorpusSection,
    "eval": EvalSection,
    "diagnostics": DiagnosticsSection,
    "stages": StagesSection,
}

# The JSON round trip turns tuples into lists, as a config file holds them.
DEFAULT_CONFIG = json.loads(json.dumps({
    "synth": None,
    "rq": asdict(rq.RqConfig(levels=3, codebook_sizes=(64, 32, 16))),
    **{name: asdict(section()) for name, section in _SECTIONS.items()},
}))


class StageFailure(RuntimeError):
    """A stage stopped: an input is missing or no longer matches its recorded
    hash, or the stage could not produce its artifacts."""

    def __init__(self, stage: int, name: str, message: str):
        super().__init__(f"stage {stage} ({name}): {message}")
        self.stage = stage
        self.name = name


class RunLocked(RuntimeError):
    """Another run holds the lock on the output directory."""


@contextmanager
def run_lock(out_dir: Path):
    """Hold an exclusive `flock` on a lockfile in `out_dir`, or raise
    RunLocked at once rather than wait. The lockfile is no artifact: it is
    removed, still locked, when the run ends. A run that locked a file that
    is no longer the one at the path lost the race to the run that removed
    it, and gives up too."""
    path = out_dir / ".sidforge.lock"
    fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            current = os.path.samestat(os.fstat(fd), os.stat(path))
        except (BlockingIOError, FileNotFoundError):
            current = False
        if not current:
            raise RunLocked(f"another run holds the lock {path}")
        try:
            yield
        finally:
            os.unlink(path)
    finally:
        os.close(fd)


@dataclass(frozen=True)
class ArtifactPaths:
    items: Path
    embeddings: Path
    embedding_ids: Path
    interactions: Path
    model: Path
    assignment: Path
    diagnostics_json: Path
    diagnostics_table: Path
    corpus: Path
    vocabulary: Path
    ngram: Path
    metrics_json: Path
    metrics_csv: Path
    manifest: Path

    @classmethod
    def in_dir(cls, out_dir: Path) -> "ArtifactPaths":
        emb = out_dir / "embeddings.emb"
        return cls(
            items=out_dir / "items.jsonl",
            embeddings=emb,
            embedding_ids=ids_path_for(emb),
            interactions=out_dir / "interactions.tsv",
            model=out_dir / "model.rq",
            assignment=out_dir / "sids.jsonl",
            diagnostics_json=out_dir / "diagnostics.json",
            diagnostics_table=out_dir / "diagnostics.txt",
            corpus=out_dir / "corpus.jsonl",
            vocabulary=out_dir / "sid_vocab.txt",
            ngram=out_dir / "ngram.json",
            metrics_json=out_dir / "metrics.json",
            metrics_csv=out_dir / "metrics.csv",
            manifest=out_dir / "manifest.json",
        )


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def config_hash(obj) -> str:
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_json(obj, path) -> None:
    """Indented, key-sorted JSON."""
    with atomic_open(path, encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def apply_env_overrides(cfg: dict, env=None) -> dict:
    """Overlay SIDFORGE_<SECTION>_<KEY> environment variables; values are
    parsed as JSON when possible, otherwise kept as strings. A variable that
    names no section, or no key, raises ConfigError."""
    if env is None:
        env = os.environ
    out = {k: (dict(v) if isinstance(v, dict) else v) for k, v in cfg.items()}
    for name in sorted(env):
        if not name.startswith(ENV_PREFIX):
            continue
        section, _, key = name[len(ENV_PREFIX):].partition("_")
        section = section.lower()
        key = key.lower()
        if section not in out or not key:
            raise ConfigError(f"override {name} does not name a config section and a key")
        if out[section] is None:
            out[section] = {}
        if not isinstance(out[section], dict):
            log.warning("ignoring override %s for non-section key", name)
            continue
        raw = env[name]
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        out[section][key] = value
    return out


def load_config(path=None, env=None) -> dict:
    cfg = {k: (dict(v) if isinstance(v, dict) else v) for k, v in DEFAULT_CONFIG.items()}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"unreadable pipeline config {path}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"pipeline config {path} is a {type(file_cfg).__name__}, not an object")
        cfg = _merge(cfg, file_cfg)
    return apply_env_overrides(cfg, env)


def _read_manifest(path: Path) -> dict:
    """The manifest's stage entries; none, with a warning, if it is malformed."""
    if not path.exists():
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError):
        manifest = None
    stages = manifest.get("stages") if isinstance(manifest, dict) else None
    if isinstance(stages, dict) and manifest.get("format") == MANIFEST_FORMAT and all(
        isinstance(entry, dict)
        and all(isinstance(entry.get(key), dict) for key in ("input_files", "output_files"))
        for entry in stages.values()
    ):
        return stages
    log.warning("unreadable manifest at %s; treating all stages as stale", path)
    return {}


class _Runner:
    def __init__(self, old_stages: dict, force: bool):
        # Under force nothing hits, but the entries of stages this run skips
        # are kept for the next run.
        self.old_stages = dict(old_stages)
        self.new_stages = dict(self.old_stages)
        self.ledger: dict[str, str] = {}
        self.summary: dict[str, str] = {}
        self.force = force

    def run(self, number: int, name: str, cfg_hash: str, input_paths, output_paths, compute):
        input_hashes: dict[str, str] = {}
        for path in input_paths:
            key = str(path)
            exists = Path(path).exists()
            if key in self.ledger:
                actual = sha256_file(path) if exists else None
                if actual != self.ledger[key]:
                    raise StageFailure(
                        number,
                        name,
                        f"cached input {path} no longer matches its recorded hash; "
                        f"use --force to rebuild",
                    )
                input_hashes[key] = self.ledger[key]
            elif exists:
                input_hashes[key] = sha256_file(path)
            else:
                raise StageFailure(number, name, f"missing input file {path}")
        entry = self.old_stages.get(name)
        hit = (
            not self.force
            and entry is not None
            and entry.get("config_hash") == cfg_hash
            and entry.get("input_files") == input_hashes
            and all(Path(p).exists() for p in output_paths)
        )
        if hit:
            output_hashes = dict(entry["output_files"])
        else:
            try:
                compute()
            except StageFailure:
                raise
            except Exception as exc:
                raise StageFailure(number, name, str(exc)) from exc
            output_hashes = {str(p): sha256_file(p) for p in output_paths}
        self.ledger.update(output_hashes)
        self.new_stages[name] = {
            "config_hash": cfg_hash,
            "input_files": input_hashes,
            "output_files": output_hashes,
        }
        self.summary[name] = "cache-hit" if hit else "ran"


def synthesize_sources(scfg: synthgen.SynthConfig):
    """(catalog, embeddings, interactions) generated from a synthetic config."""
    catalog, emb, labels = synthgen.generate_catalog(scfg)
    return catalog, emb, synthgen.generate_interactions(catalog, labels, scfg)


def load_sources(items, embeddings, interactions):
    """(catalog, embeddings, interactions) read from external files. Every
    embedding id must name a catalog item."""
    catalog = load_items(items)
    emb = load_embeddings(embeddings)
    events = load_interactions(interactions)
    unknown = [i for i in emb.item_ids if i not in catalog]
    if unknown:
        raise CatalogError(f"{len(unknown)} embedding ids missing from the item file")
    return catalog, emb, events


def write_sources(paths: ArtifactPaths, catalog, emb, interactions, kcore: int = 0):
    """Stage 1 output: apply the k-core filter when kcore >= 1, then write the
    catalog, embeddings and interactions. Returns the kept interactions."""
    if kcore >= 1:
        interactions = k_core_filter(interactions, kcore)
    paths.items.parent.mkdir(parents=True, exist_ok=True)
    save_items(catalog, paths.items)
    write_embeddings(emb, paths.embeddings)
    save_interactions(interactions, paths.interactions)
    return interactions


def tokenize(paths: ArtifactPaths, cfg: rq.RqConfig, workers: int = 1) -> None:
    """Stage 2: fit codebooks on the embeddings, assign every item its SID,
    and write the model and the assignment."""
    emb = load_embeddings(paths.embeddings)
    model = rq.fit_codebooks(emb, cfg, workers=workers)
    assign = rq.assign_all(model, emb, workers=workers)
    rq.save_model(model, paths.model)
    rq.save_assignment(assign, paths.assignment)


def diagnose(
    model_path, assignment_path, embeddings=None, items=None, probe_seed=None, out=None
) -> dict:
    """Stage 3: the diagnostics payload (report_to_dict) of an assignment.
    Embeddings add the reconstruction curve, items the category probe (which
    then needs probe_seed). Written as JSON to out when given."""
    model, assign = rq.load_model_and_assignment(model_path, assignment_path)
    emb = load_embeddings(embeddings) if embeddings else None
    labels = None
    if items:
        labels = {rec.item_id: rec.category for rec in load_items(items)}
    report = diagnostics.build_report(assign, model, emb=emb, labels=labels, probe_seed=probe_seed)
    payload = diagnostics.report_to_dict(report)
    if out:
        write_json(payload, out)
    return payload


def load_tokens_and_split(model_path, assignment_path, interactions):
    """Stages 4 and 5 input: (model, assignment, leave-last-out split). The
    model must have produced the assignment. The interactions are used as
    written: the k-core filter is applied once, at stage 1."""
    model, assign = rq.load_model_and_assignment(model_path, assignment_path)
    return model, assign, leave_last_out_split(load_interactions(interactions))


def export_corpus(
    items,
    model_path,
    assignment_path,
    interactions,
    out,
    *,
    n: int,
    seed: int,
    max_history: int,
    chat_out=None,
    vocab_out=None,
) -> dict:
    """Stage 4: sample the eight-task corpus and write it as JSONL, plus the
    chat rendering and the SID vocabulary when asked. Returns the sampling
    stats."""
    model, assign, split = load_tokens_and_split(model_path, assignment_path, interactions)
    records, stats = corpus_mod.sample_corpus(
        split, load_items(items), assign, n=n, seed=seed, max_history=max_history
    )
    corpus_mod.write_corpus(records, out)
    if chat_out:
        corpus_mod.write_chat_corpus(records, chat_out)
    if vocab_out:
        corpus_mod.write_sid_vocabulary(model, vocab_out)
    return stats


def evaluate_baseline(
    ngram,
    model,
    assign,
    split,
    *,
    ks,
    beam_size: int,
    include_validation=True,
    keep_ranks=False,
    unconstrained=False,
):
    """Stage 5: (n-gram report, metrics) from trie-constrained beam search and
    the static popularity ranking. metrics is the {"ngram", "popularity"}
    payload that metrics.json stores."""
    report = recommender.evaluate(
        ngram,
        split,
        assign,
        rq.build_trie(assign),
        model.effective_sizes,
        ks=ks,
        beam_size=beam_size,
        include_validation=include_validation,
        keep_ranks=keep_ranks,
        unconstrained=unconstrained,
    )
    popular = recommender.popularity_ranking(split, assign, include_validation=include_validation)
    pop_report = recommender.evaluate_static_ranking(popular, split, assign, ks=ks)
    return report, {"ngram": report.to_dict(), "popularity": pop_report.to_dict()}


def run_pipeline(cfg: dict, force: bool = False):
    """Execute the enabled stages; returns (exit_status, summary). A nonzero
    status is the number of the stage that failed or refused. A section with
    an unknown key, a mistyped value, or a value out of range raises
    ConfigError before any stage runs, as does an enabled source stage whose
    mode lacks its `synth` section or an `inputs` path. The run holds
    `run_lock` on the output directory, and raises RunLocked if another run
    holds it."""
    if set(cfg) != set(DEFAULT_CONFIG):
        odd = sorted(set(cfg) ^ set(DEFAULT_CONFIG))
        raise ConfigError(f"unknown or missing config sections: {odd}")
    sections = {name: from_json(cls, cfg[name], ConfigError, name) for name, cls in _SECTIONS.items()}
    pipe, inputs, enabled = sections["pipeline"], sections["inputs"], sections["stages"]
    ccfg, ecfg, dcfg = sections["corpus"], sections["eval"], sections["diagnostics"]
    rcfg = rq.RqConfig.from_dict(cfg["rq"])
    scfg = None if cfg["synth"] is None else synthgen.SynthConfig.from_dict(cfg["synth"])

    out_dir = Path(pipe.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # Checked after the directory is made, so that a directory that cannot be
    # made is a file error whatever the config.
    if enabled.source:
        unset = [f"inputs.{key}" for key, path in asdict(inputs).items() if not path]
        if pipe.mode == "synth" and scfg is None:
            raise ConfigError("pipeline.mode is 'synth' but the synth section is empty")
        if pipe.mode == "ingest" and unset:
            raise ConfigError(f"pipeline.mode is 'ingest' but {', '.join(unset)} is not set")
    paths = ArtifactPaths.in_dir(out_dir)

    def source_stage():
        if pipe.mode == "synth":
            sources = synthesize_sources(scfg)
        else:
            sources = load_sources(inputs.items, inputs.embeddings, inputs.interactions)
        write_sources(paths, *sources, kcore=pipe.kcore)

    def diagnose_stage():
        payload = diagnose(
            paths.model,
            paths.assignment,
            embeddings=paths.embeddings if dcfg.sim_curve else None,
            items=paths.items if dcfg.run_probe else None,
            probe_seed=dcfg.probe_seed,
            out=paths.diagnostics_json,
        )
        with atomic_open(paths.diagnostics_table, encoding="utf-8", newline="\n") as fh:
            fh.write(diagnostics.render_table(payload) + "\n")

    def corpus_stage():
        export_corpus(
            paths.items,
            paths.model,
            paths.assignment,
            paths.interactions,
            paths.corpus,
            n=ccfg.n,
            seed=ccfg.seed,
            max_history=ccfg.max_history,
            vocab_out=paths.vocabulary,
        )

    def eval_stage():
        model, assign, split = load_tokens_and_split(paths.model, paths.assignment, paths.interactions)
        ngram = recommender.train_ngram(
            split,
            assign,
            model.effective_sizes,
            order=ecfg.order,
            alpha=ecfg.alpha,
            include_validation=ecfg.ngram_include_validation,
        )
        report, metrics = evaluate_baseline(
            ngram,
            model,
            assign,
            split,
            ks=ecfg.ks,
            beam_size=ecfg.beam_size,
            include_validation=ecfg.include_validation,
        )
        # Saved after the evaluation: saving first raises the peak RSS.
        recommender.save_ngram(ngram, paths.ngram)
        write_json(metrics, paths.metrics_json)
        recommender.write_metrics_csv(report, paths.metrics_csv)

    source_cfg = {"mode": pipe.mode, "kcore": pipe.kcore, "synth": cfg["synth"]}
    source_inputs = []
    if pipe.mode == "ingest":
        source_cfg["inputs"] = cfg["inputs"]
        source_inputs = [p for p in (inputs.items, inputs.embeddings, inputs.interactions) if p]
    # (exit status, name, config hashed into the cache key, inputs, outputs, compute)
    stages = (
        (1, "source", source_cfg, source_inputs,
         [paths.items, paths.embeddings, paths.embedding_ids, paths.interactions], source_stage),
        (2, "tokenize", {"rq": cfg["rq"]}, [paths.embeddings, paths.embedding_ids],
         [paths.model, paths.assignment], lambda: tokenize(paths, rcfg, pipe.workers)),
        (3, "diagnose", {"diagnostics": cfg["diagnostics"]},
         [paths.model, paths.assignment, paths.embeddings, paths.items],
         [paths.diagnostics_json, paths.diagnostics_table], diagnose_stage),
        (4, "corpus", {"corpus": cfg["corpus"]},
         [paths.model, paths.assignment, paths.items, paths.interactions],
         [paths.corpus, paths.vocabulary], corpus_stage),
        (5, "eval", {"eval": cfg["eval"]}, [paths.model, paths.assignment, paths.interactions],
         [paths.ngram, paths.metrics_json, paths.metrics_csv], eval_stage),
    )
    with run_lock(out_dir):
        runner = _Runner(_read_manifest(paths.manifest), force)
        summary: dict = {"output_dir": str(out_dir), "stages": runner.summary}
        manifest = {"format": MANIFEST_FORMAT, "stages": runner.new_stages}
        status = 0
        try:
            for number, name, stage_cfg, stage_inputs, outputs, compute in stages:
                if getattr(enabled, name):
                    runner.run(number, name, config_hash(stage_cfg), stage_inputs, outputs, compute)
                    # An interrupted run keeps the stages it finished.
                    if runner.summary[name] == "ran":
                        write_json(manifest, paths.manifest)
        except StageFailure as stop:
            log.error("%s", stop)
            summary["error"] = str(stop)
            status = stop.stage
            # The failed stage may have replaced some of its outputs; the stages
            # that finished keep their entries.
            runner.new_stages.pop(stop.name, None)
        write_json(manifest, paths.manifest)
    return status, summary
