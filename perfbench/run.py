"""Benchmark of the sidforge pipeline, stage by stage, from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/sidforge`. Set-up generates
the workload's inputs from the seed in a fresh process. Then S // round_s
rounds run (round_s is fixed per workload, so the count does not depend on
the code's speed), each in a fresh process after one more set-up: a cold run
of the five stages (one run_pipeline call per stage), forced repeats of the
short stages, and cache-hit re-runs. Every timing is the median of its
samples over the run: of the set-ups, the cold runs, all calls of each
stage, all re-runs. The artifacts are then checked. With --trace 1 one more round runs with the
public sidforge functions wrapped in spans, and the per-layer metrics come
from it.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The full record, with the model hash and the sha256 of every
artifact, goes to .perfbench_out/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import checks
import tracing
from workloads import STAGES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
CHILD_TIMEOUT_S = 150

END_TO_END = (
    [("setup_s", "s"), ("pipeline_s", "s")]
    + [(f"{stage}_s", "s") for stage in STAGES]
    + [("rerun_s", "s"), ("peak_rss_mb", "MB")]
)

# Pinned in every child process. One BLAS thread per process keeps
# workers x BLAS threads within the two cores, and stops the probe's matrix
# products from competing with the fit's worker threads; a fixed hash seed
# keeps dict and set layouts, and with them the pure-Python stage times, the
# same from round to round.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class Ops:
    """Operations attempted in this run; a failed one keeps its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{name}: {error}")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SIDFORGE_")}
    env.update(PINNED_ENV, PYTHONPATH=str(ROOT / "src"))
    return env


def run_child(args: list[str], cwd: Path) -> dict:
    """Run child.py in a fresh process and return the JSON it wrote."""
    result_path = cwd / "child_result.json"
    result_path.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args, result_path.name],
        cwd=cwd, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def record_round(ops: Ops, rnd: dict, first: dict | None) -> None:
    """The operations of one round: every stage call, the re-run, and the
    byte comparison with the first round."""
    for name in STAGES:
        for call in rnd["stages"][name]["calls"]:
            ok = call["status"] == 0 and call["state"] == "ran"
            ops.record(f"stage {name}",
                       None if ok else f"status {call['status']} state {call['state']}: {call['error']}")
    hits = all(r["status"] == 0 and r["stages"] == {s: "cache-hit" for s in STAGES} for r in rnd["reruns"])
    same = rnd["hashes_after_rerun"] == rnd["hashes"]
    ops.record("rerun", None if hits and same else f"states {rnd['reruns']}, bytes unchanged: {same}")
    reference = first or rnd
    ops.record("same bytes as round 1", None if rnd["hashes"] == reference["hashes"] else "artifacts differ")


def end_to_end(setups: list[dict], rounds: list[dict]) -> dict[str, float]:
    """Every metric is the median of its samples over the whole run. The
    host's speed swings from one second to the next, so a figure steadies
    with the number of samples and the span of time they cover, which is why
    the short stages are called several times per round."""
    out = {"setup_s": statistics.median(s["setup_s"] for s in setups),
           "pipeline_s": statistics.median(r["pipeline_s"] for r in rounds)}
    for stage in STAGES:
        out[f"{stage}_s"] = statistics.median(
            call["wall_s"] for r in rounds for call in r["stages"][stage]["calls"])
    out["rerun_s"] = statistics.median(t for r in rounds for t in r["rerun_s"])
    out["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in rounds)
    return out


def traced_run(ops: Ops, work: Path, name: str, seed: int, setups: list[dict], rounds: list[dict]):
    """Set-up and one round with spans, in their own directory. Returns the
    per-layer metrics and the traced round's pipeline_s."""
    traced = work / "traced"
    traced.mkdir()
    setup = run_child(["setup", name, str(seed), "1"], traced)
    rnd = run_child(["round", name, "1"], traced)
    same = setup["inputs"] == setups[0]["inputs"] and rnd["hashes"] == rounds[0]["hashes"]
    ops.record("traced bytes identical", None if same else "tracing changed the inputs or artifacts")
    stage_cpu = {s: (rnd["stages"][s]["cpu_user_s"], rnd["stages"][s]["cpu_sys_s"]) for s in STAGES}
    cache_hits = sum(state == "cache-hit" for state in rnd["reruns"][0]["stages"].values())
    layers = tracing.per_layer_metrics([setup["trace"], rnd["trace"]], stage_cpu, cache_hits)
    spans = {"setup": setup["trace"], "round": rnd["trace"]}
    return layers, rnd["pipeline_s"], spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sidforge" / "__init__.py").is_file():
        print(f"perfbench: no sidforge sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # the beam-score check calls into sidforge
    name, seed = args.workload, args.seed
    workload = WORKLOADS[name]
    work = OUT / "work" / f"{name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = Ops()

    # One set-up before every round, so the set-ups spread over the run like
    # the rounds do; each rewrites the same inputs.
    setups = [run_child(["setup", name, str(seed), "0"], work)]
    rounds: list[dict] = []
    for _ in range(max(1, int(args.seconds // workload.round_s))):
        setups.append(run_child(["setup", name, str(seed), "0"], work))
        rnd = run_child(["round", name, "0"], work)
        record_round(ops, rnd, rounds[0] if rounds else None)
        rounds.append(rnd)
    ops.record("inputs deterministic",
               None if all(s["inputs"] == setups[0]["inputs"] for s in setups) else "inputs differ")

    check_results = checks.run_checks(work, workload, seed)
    for check_name, error in check_results.items():
        ops.record(check_name, error)

    e2e = end_to_end(setups, rounds)
    units = dict(END_TO_END)
    record = {
        "workload": name, "seed": seed, "seconds": args.seconds, "trace": args.trace,
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                    "platform": platform.platform()},
        "pinned_env": PINNED_ENV, "workers": workload.pipeline_config()["pipeline"]["workers"],
        "rounds": len(rounds),
        "samples": {
            "setup_s": [s["setup_s"] for s in setups],
            "pipeline_s": [r["pipeline_s"] for r in rounds],
            **{f"{s}_s": [[c["wall_s"] for c in r["stages"][s]["calls"]] for r in rounds] for s in STAGES},
            "rerun_s": [r["rerun_s"] for r in rounds],
            "peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
        },
        "end_to_end": {k: {"value": v, "unit": units[k]} for k, v in e2e.items()},
        "checks": check_results,
        "model_hash": json.loads((work / "out" / "model.rq").read_bytes().split(b"\n", 1)[0])["model_hash"],
        "artifacts": rounds[0]["hashes"],
        "inputs": setups[0]["inputs"],
    }
    if args.trace:
        layers, traced_pipeline_s, spans = traced_run(ops, work, name, seed, setups, rounds)
        layer_units = {key: unit for key, unit, _ in tracing.PER_LAYER}
        record["per_layer"] = {k: {"value": v, "unit": layer_units[k]} for k, v in layers.items()}
        record["trace_overhead_s"] = traced_pipeline_s - e2e["pipeline_s"]  # the untraced median
        metrics = record["per_layer"]
    else:
        metrics = record["end_to_end"]
    record["attempted"], record["failures"] = ops.attempted, ops.failures

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}" + ("-trace" if args.trace else "")
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    if args.trace:
        (results / f"{stem}-spans.json").write_text(json.dumps(spans), encoding="utf-8")

    print(f"{name} seed {seed}: {len(rounds)} rounds, {ops.attempted} operations, "
          f"{len(ops.failures)} failed")
    for failure in ops.failures:
        print(f"  FAILED {failure}")
    for key, m in metrics.items():
        print(f"  {key:40s} {m['value']:.6g} {m['unit']}")
    if args.trace:
        print(f"  tracing overhead: {record['trace_overhead_s']:+.4f} s on pipeline_s "
              f"(untraced median: {e2e['pipeline_s']:.4f} s)")
    failed_checks = [c for c, err in check_results.items() if err is not None]
    print(json.dumps({
        "correct": not failed_checks,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
