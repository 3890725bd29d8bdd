"""Config-driven five-stage pipeline with content-addressed caching.

Stages: (1) source the catalog, embeddings, and interactions (synthesize or
ingest), (2) fit codebooks and assign SIDs, (3) diagnostics report, (4) corpus
export, (5) baseline training plus evaluation. Each stage is skipped when its
config and input hashes match the manifest and its outputs exist at the paths
the manifest records for them. If a cached
upstream artifact was edited on disk behind the manifest's back, the consuming
stage refuses to run rather than silently building on it; --force recomputes
every enabled stage. A run content-hashes each file at most once; a cache hit
takes its output hashes from the manifest, so the first stage that reads such
an output checks it on disk. A stage that fails or refuses, an input or
output it cannot read included, exits with its number, and the manifest still
records the stages that finished before it; it is rewritten after each stage
that changes an entry, so an interrupted run keeps them too, and an all-hit
run writes nothing. Every writer replaces its file
atomically (datamodel.atomic_open), so a stage that fails leaves no partial
file. Before a stage recomputes, its manifest entry is removed (and the
manifest rewritten) unless this run would record the same entry, so a run
killed while it replaces outputs never leaves the manifest vouching for
them. A run holds `run_lock` on its output directory, so a second run on the
same directory fails at once; under the lock it deletes the temp files that
a killed writer left beside the artifacts.

Each stage's load, check, compute and write sequence is a public function
here; run_pipeline and the `sidforge` subcommands both call them.

Cache keys are content hashes of inputs plus the stage's config subsection.
Worker counts are excluded from the keys and never change artifact bytes.
"""

from __future__ import annotations

import copy
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
    read_json_object,
    remove_temp_files,
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
        _check_section("pipeline", rq.check_settings, workers=self.workers)
        _check_section("pipeline", check_settings, kcore=self.kcore)


@dataclass(frozen=True)
class InputsSection:
    items: str | None = None
    embeddings: str | None = None
    interactions: str | None = None


def check_settings(*, kcore: int = 0) -> None:
    """Raise ConfigError, naming the setting, when the k-core filter's `kcore`
    is below 0 (0 is off). The `pipeline` config section runs the same check."""
    if kcore < 0:
        raise ConfigError(f"kcore must be >= 0, not {kcore}")


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
    """A stage stopped: an input is missing or disagrees with the hash the
    manifest records for it. run_pipeline reports it, like any error inside a stage, as
    `stage N (name): message`."""


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
    names no section, no key, or a section that is not an object raises
    ConfigError."""
    if env is None:
        env = os.environ
    out = copy.deepcopy(cfg)
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
            raise ConfigError(f"override {name} sets a key of {section!r}, which is not an object")
        raw = env[name]
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        out[section][key] = value
    return out


def load_config(path=None, env=None) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            file_cfg = read_json_object(path, ConfigError, "pipeline config")
        except OSError as exc:
            raise ConfigError(f"unreadable pipeline config {path}: {exc}") from exc
        cfg = _merge(cfg, file_cfg)
    return apply_env_overrides(cfg, env)


def _read_manifest(path: Path) -> dict | None:
    """The manifest's stage entries; None if it is missing or (with a warning)
    malformed."""
    if not path.exists():
        return None
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
    return None


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
        raise CatalogError(
            f"{len(unknown)} embedding ids missing from the item file {items}, e.g. {unknown[0]!r}"
        )
    return catalog, emb, events


def write_sources(paths: ArtifactPaths, catalog, emb, interactions, kcore: int = 0):
    """Stage 1 output: apply the k-core filter when kcore >= 1, then write the
    catalog, embeddings and interactions. Returns the kept interactions."""
    check_settings(kcore=kcore)
    if kcore >= 1:
        interactions = k_core_filter(interactions, kcore)
    paths.items.parent.mkdir(parents=True, exist_ok=True)
    save_items(catalog, paths.items)
    write_embeddings(emb, paths.embeddings)
    save_interactions(interactions, paths.interactions)
    return interactions


def tokenize(paths: ArtifactPaths, cfg: rq.RqConfig, workers: int = 1) -> None:
    """Stage 2: fit codebooks on the embeddings and write the model and the
    assignment the fit made (each item's SID, as encoding would give it)."""
    emb = load_embeddings(paths.embeddings)
    model = rq.fit_codebooks(emb, cfg, workers=workers)
    assign = rq.SidAssignment(emb.item_ids, model.fit_tokens, model.model_hash())
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
        catalog = load_items(items)
        labels = dict(zip(catalog.item_ids, catalog.categories))
        del catalog  # the probe reads the labels only; the other columns go now
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


def evaluate_baseline(ngram, model, assign, user_rows, *, ks, beam_size: int, unconstrained=False):
    """Stage 5: (n-gram report, metrics) from trie-constrained beam search and
    the static popularity ranking over `user_rows`, `recommender.split_rows`'s
    map. metrics is the {"ngram", "popularity"} payload that metrics.json
    stores."""
    report = recommender.evaluate(
        ngram,
        user_rows,
        assign,
        rq.build_trie(assign),
        model.effective_sizes,
        ks=ks,
        beam_size=beam_size,
        unconstrained=unconstrained,
    )
    popular = recommender.popularity_ranking(user_rows, assign)
    pop_report = recommender.evaluate_static_ranking(popular, user_rows, assign, ks=ks)
    return report, {"ngram": report.to_dict(), "popularity": pop_report.to_dict()}


def run_pipeline(cfg: dict, force: bool = False):
    """Execute the enabled stages; returns (exit_status, summary). A nonzero
    status is the number of the stage that failed or refused, whatever the
    error raised while it hashed its inputs, computed, or hashed its outputs;
    summary["error"] then names the stage. A section with an unknown key, a
    mistyped value, or a value out of range raises ConfigError before any
    stage runs, as does an enabled source stage whose mode lacks its `synth`
    section or an `inputs` path. The run holds `run_lock` on the output
    directory, and raises RunLocked if another run holds it."""
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
        payload = diagnose(paths.model, paths.assignment, embeddings=paths.embeddings,
                           items=paths.items, probe_seed=dcfg.probe_seed,
                           out=paths.diagnostics_json)
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
        user_rows = recommender.split_rows(split, assign, ecfg.ngram_include_validation)
        ngram = recommender.train_ngram(
            user_rows, assign, model.effective_sizes, order=ecfg.order, alpha=ecfg.alpha
        )
        if ecfg.include_validation != ecfg.ngram_include_validation:
            user_rows = recommender.split_rows(split, assign, ecfg.include_validation)
        report, metrics = evaluate_baseline(
            ngram, model, assign, user_rows, ks=ecfg.ks, beam_size=ecfg.beam_size
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
        if inputs.embeddings:
            source_inputs.append(ids_path_for(inputs.embeddings))
    # (exit status, name, config hashed into the cache key, inputs, outputs, compute)
    stages = (
        (1, "source", source_cfg, source_inputs,
         [paths.items, paths.embeddings, paths.embedding_ids, paths.interactions], source_stage),
        (2, "tokenize", {"rq": cfg["rq"]}, [paths.embeddings, paths.embedding_ids],
         [paths.model, paths.assignment], lambda: tokenize(paths, rcfg, pipe.workers)),
        (3, "diagnose", {"diagnostics": cfg["diagnostics"]},
         [paths.model, paths.assignment, paths.embeddings, paths.embedding_ids, paths.items],
         [paths.diagnostics_json, paths.diagnostics_table], diagnose_stage),
        (4, "corpus", {"corpus": cfg["corpus"]},
         [paths.model, paths.assignment, paths.items, paths.interactions],
         [paths.corpus, paths.vocabulary], corpus_stage),
        (5, "eval", {"eval": cfg["eval"]}, [paths.model, paths.assignment, paths.interactions],
         [paths.ngram, paths.metrics_json, paths.metrics_csv], eval_stage),
    )
    with run_lock(out_dir):
        # No other run writes here now, so a temp file is a killed writer's.
        remove_temp_files(out_dir, {path.name for path in vars(paths).values()})
        written = _read_manifest(paths.manifest)  # the entries manifest.json holds
        old_stages = written or {}
        # Under force nothing hits, but the entries of stages this run skips
        # are kept for the next run.
        manifest = {"format": MANIFEST_FORMAT, "stages": dict(old_stages)}
        summary: dict = {"output_dir": str(out_dir), "stages": {}}
        ledger: dict[str, str] = {}  # output path -> sha256, of the stages this run finished
        hashed: dict[str, str] = {}  # path -> sha256, of the files this run read from disk
        status = 0
        for number, name, stage_cfg, stage_inputs, outputs, compute in stages:
            if not getattr(enabled, name):
                continue
            try:
                cfg_hash = config_hash(stage_cfg)
                input_hashes: dict[str, str] = {}
                for path in map(str, stage_inputs):
                    exists = Path(path).exists()
                    if exists and path not in hashed:
                        hashed[path] = sha256_file(path)
                    actual = hashed[path] if exists else None
                    if path in ledger and actual != ledger[path]:
                        raise StageFailure(f"cached input {path} and the hash {paths.manifest} "
                                           f"records for it disagree; use --force to rebuild")
                    if actual is None:
                        raise StageFailure(f"missing input file {path}")
                    input_hashes[path] = actual
                entry = old_stages.get(name)
                matches = (
                    entry is not None
                    and entry.get("config_hash") == cfg_hash
                    and entry.get("input_files") == input_hashes
                    and set(entry["output_files"]) == set(map(str, outputs))
                    and all(Path(p).exists() for p in outputs)
                )
                hit = matches and not force
                if hit:  # not in `hashed`: the first stage to read one checks it
                    output_hashes = dict(entry["output_files"])
                else:
                    # Write-ahead: an entry that this run's outputs will not
                    # match is dropped before they replace the files it vouches
                    # for, so an interrupted compute leaves no stale hit.
                    if not matches and manifest["stages"].pop(name, None) is not None:
                        write_json(manifest, paths.manifest)
                        written = dict(manifest["stages"])
                    compute()
                    output_hashes = {str(p): sha256_file(p) for p in outputs}
                    hashed.update(output_hashes)
            except Exception as exc:
                summary["error"] = f"stage {number} ({name}): {exc}"
                log.error("%s", summary["error"])
                log.debug("stage %d (%s) traceback", number, name, exc_info=exc)
                status = number
                # The failed stage may have replaced some of its outputs; the
                # stages that finished keep their entries.
                manifest["stages"].pop(name, None)
                break
            ledger.update(output_hashes)
            manifest["stages"][name] = {
                "config_hash": cfg_hash,
                "input_files": input_hashes,
                "output_files": output_hashes,
            }
            summary["stages"][name] = "cache-hit" if hit else "ran"
            # An interrupted run keeps the stages it finished.
            if manifest["stages"] != written:
                write_json(manifest, paths.manifest)
                written = dict(manifest["stages"])
        if manifest["stages"] != written:
            write_json(manifest, paths.manifest)
    return status, summary
