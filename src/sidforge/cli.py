"""Command-line entry points.

Every subcommand is a thin wrapper over one module operation. Machine-readable
JSON goes to stdout; logs and human-readable tables go to stderr. Commands
that draw random numbers require an explicit --seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import diagnostics, pipeline, recommender, rq, synthgen
from .datamodel import EmbeddingSet, load_embeddings, write_embeddings

log = logging.getLogger("sidforge.cli")

# Every typed sidforge error subclasses ValueError.
_KNOWN_ERRORS = (ValueError, OSError)


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def integer_list(text: str) -> tuple[int, ...]:
    """argparse type: comma-separated integers, at least one."""
    values = tuple(int(part) for part in text.split(",") if part.strip())
    if not values:
        raise ValueError(text)
    return values


def _cmd_synth(args) -> int:
    cfg = synthgen.load_synth_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    catalog, emb, interactions = pipeline.synthesize_sources(cfg)
    paths = pipeline.ArtifactPaths.in_dir(Path(args.out_dir))
    interactions = pipeline.write_sources(paths, catalog, emb, interactions, args.kcore)
    _emit(
        {
            "items": len(catalog),
            "users": len(interactions.user_ids),
            "events": interactions.n_events,
            "dim": emb.dim,
            "categories": cfg.num_categories,
            "paths": {
                "items": str(paths.items),
                "embeddings": str(paths.embeddings),
                "interactions": str(paths.interactions),
            },
        }
    )
    return 0


def _cmd_ingest(args) -> int:
    catalog, emb, interactions = pipeline.load_sources(
        args.items, args.embeddings, args.interactions
    )
    paths = pipeline.ArtifactPaths.in_dir(Path(args.out_dir))
    kept = pipeline.write_sources(paths, catalog, emb, interactions, args.kcore)
    _emit(
        {
            "items": len(catalog),
            "embeddings": emb.count,
            "events_in": interactions.n_events,
            "events_kept": kept.n_events,
            "users_kept": len(kept.user_ids),
            "kcore": args.kcore,
        }
    )
    return 0


def _cmd_fit(args) -> int:
    emb = load_embeddings(args.embeddings)
    cfg = rq.RqConfig(
        levels=args.levels,
        codebook_sizes=args.sizes,
        kmeans_max_iters=args.max_iters,
        kmeans_rel_tol=args.tol,
        seed=args.seed,
        normalize_inputs=args.normalize,
    )
    model = rq.fit_codebooks(emb, cfg, workers=args.workers)
    rq.save_model(model, args.out)
    _emit(
        {
            "model_hash": model.model_hash(),
            "levels": model.levels,
            "dim": model.dim,
            "configured_sizes": list(cfg.codebook_sizes),
            "effective_sizes": list(model.effective_sizes),
            "final_mse": [stats.mse_trace[-1] for stats in model.fit_stats],
            "path": str(args.out),
        }
    )
    return 0


def _cmd_encode(args) -> int:
    model = rq.load_model(args.model)
    emb = load_embeddings(args.embeddings)
    assign = rq.assign_all(model, emb, workers=args.workers)
    rq.save_assignment(assign, args.out)
    _, starts = rq.sorted_prefixes(assign.tokens)
    _emit(
        {
            "items": len(assign),
            "distinct_sids": len(starts[-1]),
            "model_hash": assign.model_hash,
            "path": str(args.out),
        }
    )
    return 0


def _cmd_decode(args) -> int:
    model = rq.load_model(args.model)
    tokens = rq.parse_sid(args.sid, model)
    vector = rq.decode(model, tokens, depth=args.depth)
    result = {"sid": rq.render_sid(tokens), "tokens": list(tokens), "dim": model.dim}
    if args.out:
        out_emb = EmbeddingSet([result["sid"]], vector[None, :].astype(np.float32))
        write_embeddings(out_emb, args.out)
        result["path"] = str(args.out)
    else:
        result["vector"] = [float(v) for v in vector]
    _emit(result)
    return 0


def _cmd_diagnose(args) -> int:
    payload = pipeline.diagnose(
        args.model,
        args.assignment,
        embeddings=args.embeddings,
        items=args.items,
        probe_seed=args.probe_seed,
        out=args.out,
    )
    if args.table:
        print(diagnostics.render_table(payload), file=sys.stderr)
    _emit(payload)
    return 0


def _cmd_recon_curve(args) -> int:
    model, assign = rq.load_model_and_assignment(args.model, args.assignment)
    emb = load_embeddings(args.embeddings)
    curve = diagnostics.reconstruction_curve(model, emb, assign, h_max=args.h_max)
    payload = {
        "sims": {str(h): curve.sims[h] for h in sorted(curve.sims)},
        "n_items": curve.n_items,
        "n_zero_norm_originals": curve.n_zero_norm_originals,
        "zero_recon_counts": {str(h): curve.zero_recon_counts[h] for h in sorted(curve.zero_recon_counts)},
    }
    if args.out:
        pipeline.write_json(payload, args.out)
    _emit(payload)
    return 0


def _cmd_corpus(args) -> int:
    stats = pipeline.export_corpus(
        args.items,
        args.model,
        args.assignment,
        args.interactions,
        args.out,
        n=args.n,
        seed=args.seed,
        max_history=args.max_history,
        chat_out=args.chat_out,
        vocab_out=args.vocab_out,
    )
    _emit(stats)
    return 0


def _cmd_train_baseline(args) -> int:
    model, assign, split = pipeline.load_tokens_and_split(
        args.model, args.assignment, args.interactions
    )
    ngram = recommender.train_ngram(
        recommender.split_rows(split, assign, args.include_validation),
        assign,
        model.effective_sizes,
        order=args.order,
        alpha=args.alpha,
    )
    recommender.save_ngram(ngram, args.out)
    _emit(
        {
            "order": ngram.order,
            "alpha": ngram.alpha,
            "vocab_size": ngram.vocab_size,
            "contexts": len(ngram.counts),
            "path": str(args.out),
        }
    )
    return 0


def _cmd_eval(args) -> int:
    model, assign, split = pipeline.load_tokens_and_split(
        args.model, args.assignment, args.interactions
    )
    ngram = recommender.load_ngram(args.ngram)
    report, metrics = pipeline.evaluate_baseline(
        ngram,
        model,
        assign,
        recommender.split_rows(split, assign, not args.exclude_validation),
        ks=args.k,
        beam_size=args.beam,
        unconstrained=args.unconstrained,
    )
    if args.ranks_out:
        pipeline.write_json(dict(sorted(report.per_user_ranks.items())), args.ranks_out)
    if args.out:
        pipeline.write_json(metrics, args.out)
    if args.csv:
        recommender.write_metrics_csv(report, args.csv)
    _emit(metrics)
    return 0


def _cmd_report(args) -> int:
    payload: dict = {}
    if args.diagnostics:
        payload["diagnostics"] = diagnostics.load_report(args.diagnostics)
        print(diagnostics.render_table(payload["diagnostics"]), file=sys.stderr)
    if args.metrics:
        payload["metrics"] = metrics = recommender.load_metrics(args.metrics)
        for model_name, values in sorted(metrics.items()):
            cells = "  ".join(
                f"{key} {values[key]:.4f}"
                for key in sorted(values)
                if key.startswith(("HR@", "NDCG@"))
            )
            print(f"{model_name}: {cells}", file=sys.stderr)
    if not payload:
        raise ValueError("nothing to report; pass --diagnostics and/or --metrics")
    _emit(payload)
    return 0


def _cmd_pipeline(args) -> int:
    """Exit status: 0, the number of the stage that failed (1-5), EX_CONFIG
    for a config that cannot be read or is rejected before any stage runs,
    EX_IOERR for a file error outside the stages, or EX_TEMPFAIL when
    another run holds the output directory's lock."""
    try:
        cfg = pipeline.load_config(args.config)
        if args.output_dir:
            cfg["pipeline"]["output_dir"] = args.output_dir
        if args.workers is not None:
            cfg["pipeline"]["workers"] = args.workers
        status, summary = pipeline.run_pipeline(cfg, force=args.force)
    except (pipeline.ConfigError, rq.RqError, synthgen.SynthError) as exc:
        log.error("%s", exc)
        return os.EX_CONFIG
    except pipeline.RunLocked as exc:
        log.error("%s", exc)
        return os.EX_TEMPFAIL
    except OSError as exc:
        log.error("%s", exc)
        return os.EX_IOERR
    _emit(summary)
    return status


class _Parser(argparse.ArgumentParser):
    """Exits with EX_USAGE on a usage error; subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(os.EX_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sidforge",
        description="Semantic-ID codebooks, diagnostics, corpus export, and evaluation.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic catalog and interaction log")
    p.add_argument("--config", required=True, help="synthetic-config JSON file")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--kcore", type=int, default=0, help="k-core filter (0 = off)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("ingest", help="validate and normalize external inputs")
    p.add_argument("--items", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--interactions", required=True)
    p.add_argument("--kcore", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("fit", help="fit residual-quantization codebooks")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--sizes", type=integer_list, required=True, help="comma-separated codebook sizes")
    p.add_argument("--max-iters", type=int, default=rq.RqConfig.kmeans_max_iters)
    p.add_argument("--tol", type=float, default=rq.RqConfig.kmeans_rel_tol)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--normalize", action="store_true", help="unit-normalize inputs first")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True, help="model file to write")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("encode", help="assign a SID to every embedding")
    p.add_argument("--model", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True, help="assignment JSONL to write")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="reconstruct the vector for a SID string")
    p.add_argument("--model", required=True)
    p.add_argument("--sid", required=True, help='e.g. "<a_239><b_112><c_7>"')
    p.add_argument("--depth", type=int, default=None, help="truncate to this many levels")
    p.add_argument("--out", default=None, help="binary embedding file to write")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("diagnose", help="SID quality report")
    p.add_argument("--model", required=True)
    p.add_argument("--assignment", required=True)
    p.add_argument("--embeddings", default=None, help="enables the reconstruction curve")
    p.add_argument("--items", default=None, help="enables the category probe")
    p.add_argument("--probe-seed", type=int, default=None, help="required with --items")
    p.add_argument("--out", default=None, help="also write the JSON report here")
    p.add_argument("--table", action="store_true", help="print a table to stderr")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("recon-curve", help="cosine similarity by reconstruction depth")
    p.add_argument("--model", required=True)
    p.add_argument("--assignment", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--h-max", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_recon_curve)

    p = sub.add_parser("corpus", help="sample the conversational training corpus")
    p.add_argument("--items", required=True)
    p.add_argument("--assignment", required=True)
    p.add_argument("--interactions", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-history", type=int, default=pipeline.CorpusSection.max_history)
    p.add_argument("--out", required=True, help="JSONL corpus to write")
    p.add_argument("--chat-out", default=None, help="rendered chat-text file")
    p.add_argument("--vocab-out", default=None, help="SID token vocabulary file")
    p.set_defaults(func=_cmd_corpus)

    p = sub.add_parser("train-baseline", help="train the n-gram sequence baseline")
    p.add_argument("--model", required=True)
    p.add_argument("--assignment", required=True)
    p.add_argument("--interactions", required=True)
    p.add_argument("--order", type=int, default=pipeline.EvalSection.order)
    p.add_argument("--alpha", type=float, default=pipeline.EvalSection.alpha)
    p.add_argument("--include-validation", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_baseline)

    p = sub.add_parser("eval", help="next-item evaluation with constrained beam search")
    p.add_argument("--model", required=True)
    p.add_argument("--assignment", required=True)
    p.add_argument("--interactions", required=True)
    p.add_argument("--ngram", required=True)
    p.add_argument("--beam", type=int, default=pipeline.EvalSection.beam_size)
    p.add_argument("--k", type=integer_list, default=pipeline.EvalSection.ks, help="comma-separated cutoffs")
    p.add_argument("--exclude-validation", action="store_true")
    p.add_argument("--unconstrained", action="store_true")
    p.add_argument("--ranks-out", default=None, help="per-user rank dump (JSON)")
    p.add_argument("--out", default=None)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("report", help="echo saved reports as JSON plus stderr tables")
    p.add_argument("--diagnostics", default=None)
    p.add_argument("--metrics", default=None)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("pipeline", help="run the cached five-stage pipeline")
    p.add_argument("--config", default=None, help="pipeline config JSON")
    p.add_argument("--output-dir", default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--force", action="store_true", help="ignore the cache and rebuild")
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except _KNOWN_ERRORS as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
