"""The timed phases, each run in a fresh process by run.py.

    python3 perfbench/child.py setup WORKLOAD SEED TRACE RESULT_JSON
    python3 perfbench/child.py round WORKLOAD TRACE RESULT_JSON

Both run in the current directory, which is the run's work directory:
`setup` writes `inputs/`, `round` rebuilds `out/` from those inputs (see
run_round). The
process environment (PYTHONPATH, BLAS threads, PYTHONHASHSEED) is pinned by
run.py.
"""

import time

_T0 = time.perf_counter()  # set-up time includes the imports below

import copy  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
from workloads import INPUT_FILES, OUTPUT_DIR, STAGES, WORKLOADS  # noqa: E402

RERUNS = 20  # cache-hit re-runs per round


def sha256(path) -> str:
    # Not pipeline.sha256_file: in a traced round that one is wrapped, and
    # these hashes must not count as the pipeline's hashing.
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def tree_hashes(directory) -> dict[str, str]:
    root = Path(directory)
    return {p.relative_to(root).as_posix(): sha256(p)
            for p in sorted(root.rglob("*")) if p.is_file()}


def make_inputs(workload, seed: int) -> dict[str, str]:
    """Generate the workload's inputs from its seed, write them under
    inputs/ and return their hashes."""
    from sidforge import datamodel, synthgen

    cfg = synthgen.SynthConfig.from_dict(workload.synth_config(seed))
    catalog, emb, labels = synthgen.generate_catalog(cfg)
    interactions = synthgen.generate_interactions(catalog, labels, cfg)
    Path(INPUT_FILES["items"]).parent.mkdir(parents=True, exist_ok=True)
    datamodel.save_items(catalog, INPUT_FILES["items"])
    datamodel.write_embeddings(emb, INPUT_FILES["embeddings"])
    datamodel.save_interactions(interactions, INPUT_FILES["interactions"])
    return tree_hashes(Path(INPUT_FILES["items"]).parent)


def _timed_call(run_pipeline, cfg, tracer, span_name, force=False):
    span = tracer.begin(span_name) if tracer is not None else None
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    status, summary = run_pipeline(cfg, force=force)
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    if span is not None:
        tracer.end(span)
    cpu = (ru1.ru_utime - ru0.ru_utime, ru1.ru_stime - ru0.ru_stime)
    return status, summary, wall, cpu


def _call_record(name, status, summary, wall):
    return {"wall_s": wall, "status": status, "state": summary["stages"].get(name),
            "error": summary.get("error")}


def run_round(workload, tracer=None, reruns: int = RERUNS, calls: dict | None = None) -> dict:
    """One round: a cold run of the five stages, one run_pipeline call per
    stage, on a fresh output directory; then the further calls of each stage
    that `calls` asks for (default: the workload's), forced, on the cold run's
    outputs; then identical cache-hit re-runs of all five stages."""
    from sidforge import pipeline

    calls = workload.calls if calls is None else calls
    cfg = workload.pipeline_config()
    one_stage = {}
    for name in STAGES:
        one_stage[name] = copy.deepcopy(cfg)
        one_stage[name]["stages"] = {s: s == name for s in STAGES}
    shutil.rmtree(OUTPUT_DIR, ignore_errors=True)
    stages = {}
    t_cold = time.perf_counter()
    for name in STAGES:
        status, summary, wall, cpu = _timed_call(pipeline.run_pipeline, one_stage[name], tracer, f"stage.{name}")
        stages[name] = {"calls": [_call_record(name, status, summary, wall)],
                        "cpu_user_s": cpu[0], "cpu_sys_s": cpu[1]}
    pipeline_s = time.perf_counter() - t_cold
    cold_hashes = tree_hashes(OUTPUT_DIR)
    # A forced one-stage call writes a manifest that holds only that stage;
    # the cold run's manifest goes back before the re-runs.
    manifest = Path(OUTPUT_DIR) / "manifest.json"
    cold_manifest = manifest.read_bytes()
    for name in STAGES:
        for _ in range(calls[name] - 1):
            status, summary, wall, _ = _timed_call(
                pipeline.run_pipeline, one_stage[name], tracer, f"stage.{name}", force=True)
            stages[name]["calls"].append(_call_record(name, status, summary, wall))
    manifest.write_bytes(cold_manifest)
    rerun_s, rerun_states = [], []
    for _ in range(reruns):
        status, summary, wall, _ = _timed_call(pipeline.run_pipeline, cfg, tracer, "rerun")
        rerun_s.append(wall)
        rerun_states.append({"status": status, "stages": summary["stages"]})
    return {
        "stages": stages,
        "pipeline_s": pipeline_s,
        "rerun_s": rerun_s,
        "reruns": rerun_states,
        "hashes": cold_hashes,
        "hashes_after_rerun": tree_hashes(OUTPUT_DIR),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv) -> int:
    command, name, *rest = argv
    workload = WORKLOADS[name]
    trace, out = rest[-2] == "1", rest[-1]
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracing.install(tracer)
    if command == "setup":
        result = {"inputs": make_inputs(workload, int(rest[0])),
                  "setup_s": time.perf_counter() - _T0}
        if tracer is not None:
            # The input writers are traced inside the source stage; keep only
            # the generator spans here.
            tracer.spans = [s for s in tracer.spans if s[1].startswith("synthgen.")]
    elif command == "round" and trace:
        # The traced round calls each stage once, so a layer's summed span
        # time is what one cold run spends in it.
        result = run_round(workload, tracer, reruns=1, calls=dict.fromkeys(STAGES, 1))
    elif command == "round":
        result = run_round(workload)
    else:
        raise SystemExit(f"unknown command {command!r}")
    if tracer is not None:
        result["trace"] = tracer.to_json()
    Path(out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
