"""Output checks for one pipeline run.

Every check reads the artifacts with its own parser and compares them with a
computation made here, or with a property the method must have. None of them
compares against stored output. Each check is one operation of the run; it
fails by raising CheckFailed (or any other exception) and is reported by name.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import struct
import zlib
from collections import Counter, defaultdict
from functools import cached_property
from pathlib import Path

import numpy as np

from workloads import INPUT_FILES, OUTPUT_DIR

EMB_MAGIC = b"SIDEMB01"
SID_SAMPLE = 256  # rows re-encoded by brute force
BEAM_SAMPLE = 32  # users whose beam scores are recomputed
SCORE_TOL = 1e-9  # the independent log-probabilities use math.log, not numpy's


class CheckFailed(AssertionError):
    pass


def ensure(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _read_block(data: bytes, offset: int):
    """One embedding block: magic, u32 count, u32 dim, f32 payload, u32 crc."""
    ensure(data[offset:offset + 8] == EMB_MAGIC, f"bad block magic at byte {offset}")
    count, dim = struct.unpack_from("<II", data, offset + 8)
    start = offset + 16
    payload = data[start:start + 4 * count * dim]
    ensure(len(payload) == 4 * count * dim, f"truncated block at byte {offset}")
    (crc,) = struct.unpack_from("<I", data, start + len(payload))
    ensure(crc == zlib.crc32(payload), f"block checksum mismatch at byte {offset}")
    matrix = np.frombuffer(payload, dtype="<f4").reshape(count, dim)
    return matrix, payload, start + len(payload) + 4


def read_embeddings(path):
    data = Path(path).read_bytes()
    matrix, _, end = _read_block(data, 0)
    ensure(end == len(data), f"{path}: trailing bytes")
    ids = Path(str(path) + ".ids").read_text(encoding="utf-8").split("\n")
    ids = [i for i in ids if i]
    ensure(len(ids) == matrix.shape[0], f"{path}: {len(ids)} ids for {matrix.shape[0]} rows")
    return ids, matrix


def read_model(path):
    data = Path(path).read_bytes()
    newline = data.index(b"\n") + 1
    header = json.loads(data[:newline])
    offset, centroids, payloads = newline, [], []
    for _ in range(header["levels"]):
        matrix, payload, offset = _read_block(data, offset)
        centroids.append(matrix)
        payloads.append(payload)
    ensure(offset == len(data), f"{path}: trailing bytes")
    return header, centroids, payloads


def read_jsonl(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def render_sid(tokens) -> str:
    return "".join(f"<{chr(ord('a') + level)}_{int(t)}>" for level, t in enumerate(tokens))


def _between(text: str, prefix: str, suffix: str) -> str:
    ensure(text.startswith(prefix) and text.endswith(suffix), f"unexpected prompt {text[:60]!r}")
    return text[len(prefix):len(text) - len(suffix)]


class Run:
    """Lazily parsed artifacts of one run directory (inputs/ and out/)."""

    def __init__(self, directory, workload, seed: int):
        self.dir = Path(directory)
        self.out = self.dir / OUTPUT_DIR
        self.workload = workload
        self.seed = seed
        self.cfg = workload.pipeline_config()

    @cached_property
    def items(self) -> list[dict]:
        return read_jsonl(self.out / "items.jsonl")

    @cached_property
    def embeddings(self):
        return read_embeddings(self.out / "embeddings.emb")

    @cached_property
    def model(self):
        return read_model(self.out / "model.rq")

    @cached_property
    def sids(self) -> tuple[dict, dict[str, tuple[int, ...]]]:
        meta, *rows = read_jsonl(self.out / "sids.jsonl")
        sids = {}
        for row in rows:
            tokens = tuple(row["tokens"])
            ensure(row["sid"] == render_sid(tokens), f"{row['item_id']}: sid text != tokens")
            ensure(row["item_id"] not in sids, f"duplicate item {row['item_id']}")
            sids[row["item_id"]] = tokens
        return meta, sids

    @cached_property
    def users(self) -> dict[str, tuple[list[str], str, str]]:
        """user -> (train items, validation item, test item), events ordered by
        (timestamp, item_id); users with fewer than three events are left out."""
        events = defaultdict(list)
        with open(self.out / "interactions.tsv", encoding="utf-8") as fh:
            for line in fh:
                user, item, ts = line.rstrip("\n").split("\t")
                events[user].append((int(ts), item))
        split = {}
        for user, evs in events.items():
            seq = [item for _, item in sorted(evs)]
            if len(seq) >= 3:
                split[user] = (seq[:-2], seq[-2], seq[-1])
        return split

    @cached_property
    def metrics(self) -> dict:
        return json.loads((self.out / "metrics.json").read_text(encoding="utf-8"))

    @cached_property
    def diagnostics(self) -> dict:
        return json.loads((self.out / "diagnostics.json").read_text(encoding="utf-8"))

    def offsets(self) -> list[int]:
        sizes = self.model[0]["effective_sizes"]
        return [sum(sizes[:level]) for level in range(len(sizes))]

    def context(self, items) -> list[int]:
        offsets = self.offsets()
        sids = self.sids[1]
        return [offsets[h] + t for i in items if i in sids for h, t in enumerate(sids[i])]


# --- source -----------------------------------------------------------------

def source_matches_inputs(run: Run) -> None:
    ensure(read_jsonl(run.dir / INPUT_FILES["items"]) == run.items, "items differ from the input")
    ids_in, rows_in = read_embeddings(run.dir / INPUT_FILES["embeddings"])
    ids_out, rows_out = run.embeddings
    ensure(ids_in == ids_out and np.array_equal(rows_in, rows_out), "embeddings differ from the input")
    lines_in = (run.dir / INPUT_FILES["interactions"]).read_text(encoding="utf-8").splitlines()
    lines_out = (run.out / "interactions.tsv").read_text(encoding="utf-8").splitlines()
    ensure(sorted(lines_in) == sorted(lines_out), "interactions differ from the input")


# --- tokenize ---------------------------------------------------------------

def model_hash(run: Run) -> None:
    header, _, payloads = run.model
    digest = hashlib.sha256()
    for payload in payloads:
        digest.update(payload)
    ensure(digest.hexdigest() == header["model_hash"], "model_hash does not match the centroid bytes")
    ensure(run.sids[0]["model_hash"] == header["model_hash"], "assignment names another model")


def mse_trace(run: Run) -> None:
    header, centroids, _ = run.model
    ensure([c.shape[0] for c in centroids] == header["effective_sizes"], "effective sizes != blocks")
    for st in header["fit_stats"]:
        trace = st["mse_trace"]
        ensure(all(b <= a for a, b in zip(trace, trace[1:])), f"level {st['level']} mse rose: {trace}")
        ensure(len(trace) - 1 <= header["kmeans_max_iters"], f"level {st['level']} ran past the cap")


def sid_bruteforce(run: Run) -> None:
    """Per-row scan over every centroid of every level, in float64, ties to
    the smallest index."""
    ids, rows = run.embeddings
    meta, sids = run.sids
    ensure(list(sids) == ids and meta["count"] == len(ids), "assignment does not cover the embeddings")
    cents = [c.astype(np.float64) for c in run.model[1]]
    sample = sorted(random.Random(run.seed).sample(range(len(ids)), min(SID_SAMPLE, len(ids))))
    for i in sample:
        residual = rows[i].astype(np.float64)
        tokens = []
        for c in cents:
            d2 = np.square(residual[None, :] - c).sum(axis=1)
            j = int(np.flatnonzero(d2 == d2.min())[0])
            tokens.append(j)
            residual = residual - c[j]
        ensure(tuple(tokens) == sids[ids[i]], f"{ids[i]}: SID {sids[ids[i]]}, nearest scan gives {tokens}")


# --- diagnose ---------------------------------------------------------------

def collision_rate(run: Run) -> None:
    sids = run.sids[1]
    diag = run.diagnostics
    counts = Counter(sids.values())
    rate = sum(c for c in counts.values() if c > 1) / len(sids)
    ensure(diag["n_items"] == len(sids) and diag["n_distinct_sids"] == len(counts), "item counts differ")
    ensure(diag["collision_rate"] == rate, f"collision_rate {diag['collision_rate']} != recount {rate}")
    ensure(diag["unique_ratio"] == 1.0 - diag["collision_rate"], "unique_ratio != 1 - collision_rate")


def codebook_utilization(run: Run) -> None:
    header = run.model[0]
    active = [len({s[level] for s in run.sids[1].values()}) for level in range(header["levels"])]
    diag = run.diagnostics
    ensure(diag["active_codes_per_level"] == active, f"active codes {diag['active_codes_per_level']} != {active}")
    util = sum(a / k for a, k in zip(active, header["codebook_sizes"])) / header["levels"]
    ensure(math.isclose(diag["utilization"], util, rel_tol=1e-12), "utilization differs from the recount")


def prefix_entropy(run: Run) -> None:
    sids = list(run.sids[1].values())
    n = len(sids)
    profile = []
    for p in range(1, len(sids[0]) + 1):
        counts = Counter(s[:p] for s in sids)
        profile.append(-sum(c / n * math.log2(c / n) for c in counts.values()))
    got = run.diagnostics["prefix_entropy_profile"]
    ensure(len(got) == len(profile), "profile length differs")
    ensure(all(math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12) for a, b in zip(got, profile)),
           f"profile {got} != recount {profile}")
    ensure(all(b >= a for a, b in zip(got, got[1:])), f"profile decreases: {got}")
    ensure(got[-1] <= math.log2(n) + 1e-12, f"entropy {got[-1]} above log2({n})")
    ensure(math.isclose(run.diagnostics["prefix_entropy"], sum(got) / len(got), rel_tol=1e-12),
           "prefix_entropy is not the profile mean")


def probe_accuracy(run: Run) -> None:
    categories = {rec["category"] for rec in run.items}
    acc = run.diagnostics["probe_accuracy"]
    ensure(1.0 / len(categories) < acc <= 1.0, f"probe accuracy {acc} with {len(categories)} categories")


# --- corpus -----------------------------------------------------------------

def corpus_count(run: Run) -> None:
    records = read_jsonl(run.out / "corpus.jsonl")
    ensure(len(records) == run.cfg["corpus"]["n"], f"{len(records)} records, expected {run.cfg['corpus']['n']}")
    for rec in records:
        ensure(set(rec) == {"task", "system", "user", "assistant"}, f"record keys {sorted(rec)}")
        ensure(rec["task"] in {f"T{i}" for i in range(1, 9)}, f"task {rec['task']!r}")


def corpus_item_targets(run: Run) -> None:
    """T1/T7 targets are an item's SID, T2/T8 targets its title."""
    sids = run.sids[1]
    by_title, by_visual, titles_by_sid = defaultdict(set), defaultdict(set), defaultdict(set)
    for rec in run.items:
        sid = render_sid(sids[rec["item_id"]])
        by_title[rec["title"]].add(sid)
        by_visual[rec.get("visual_description")].add((sid, rec["title"]))
        titles_by_sid[sid].add(rec["title"])
    for rec in read_jsonl(run.out / "corpus.jsonl"):
        task, user, target = rec["task"], rec["user"], rec["assistant"]
        if task == "T1":
            title = _between(user, "Product Title: ", "\nGenerate the SID sequence:")
            ensure(target in by_title[title], f"T1 target {target} is not the SID of {title!r}")
        elif task == "T2":
            sid = _between(user, "SID Sequence: ", "\nGenerate the product title:")
            ensure(target in titles_by_sid[sid], f"T2 target {target!r} is not titled by {sid}")
        elif task == "T7":
            visual = _between(user, "Visual Description: ", "\nGenerate the SID sequence:")
            ensure(target in {s for s, _ in by_visual[visual]}, f"T7 target {target} not of {visual!r}")
        elif task == "T8":
            visual = _between(user, "Visual Description: ", "\nGenerate the product title:")
            ensure(target in {t for _, t in by_visual[visual]}, f"T8 target {target!r} not of {visual!r}")


_HISTORY = {
    "T3": ("Interaction History (SIDs): ", "\nPredict the next item's SID:", "sid", "sid"),
    "T4": ("Interaction History (Titles): ", "\nPredict the next item's SID:", "title", "sid"),
    "T5": ("Interaction History (SIDs): ", "\nPredict the next item's title:", "sid", "title"),
    "T6": ("Interaction History (Titles): ", "\nPredict the next item's title:", "title", "title"),
}


def corpus_history_targets(run: Run) -> None:
    """Each T3-T6 target is the validation item (second to last event) of a
    user whose last max_history train items form the prompt; never the test."""
    sids = run.sids[1]
    titles = {rec["item_id"]: rec["title"] for rec in run.items}
    show = {"sid": lambda i: render_sid(sids[i]), "title": lambda i: titles[i]}
    max_history = run.cfg["corpus"]["max_history"]
    users_by_history = defaultdict(list)
    for user, (train, validation, test) in run.users.items():
        for kind in ("sid", "title"):
            history = ", ".join(show[kind](i) for i in train[-max_history:])
            users_by_history[kind, history].append((validation, test))
    for rec in read_jsonl(run.out / "corpus.jsonl"):
        if rec["task"] not in _HISTORY:
            continue
        prefix, suffix, shown, target_kind = _HISTORY[rec["task"]]
        users = users_by_history.get((shown, _between(rec["user"], prefix, suffix)))
        ensure(users, f"{rec['task']} history matches no user")
        valid = {show[target_kind](v) for v, _ in users}
        if rec["assistant"] not in valid:
            leaked = rec["assistant"] in {show[target_kind](t) for _, t in users}
            raise CheckFailed(f"{rec['task']} target {rec['assistant']!r} is "
                              + ("the user's test item" if leaked else "not the validation item"))


def sid_vocabulary(run: Run) -> None:
    lines = (run.out / "sid_vocab.txt").read_text(encoding="utf-8").splitlines()
    want = [f"<{chr(ord('a') + level)}_{t}>"
            for level, size in enumerate(run.model[0]["effective_sizes"]) for t in range(size)]
    ensure(lines == want, "SID vocabulary does not list every code of every level")


# --- eval -------------------------------------------------------------------

class _NGram:
    """Back-off n-gram scores read straight from ngram.json."""

    def __init__(self, path):
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        self.order, self.alpha = payload["order"], payload["alpha"]
        self.vocab = sum(payload["sizes"])
        self.counts = {tuple(e["ctx"]): {int(t): c for t, c in e["counts"].items()}
                       for e in payload["contexts"]}
        self.totals = {ctx: sum(c.values()) for ctx, c in self.counts.items()}

    def logp(self, context, token: int) -> float:
        for length in range(min(self.order - 1, len(context)), -1, -1):
            suffix = tuple(context[len(context) - length:]) if length else ()
            if suffix in self.counts:
                count = self.counts[suffix].get(token, 0)
                return math.log((self.alpha + count) / (self.totals[suffix] + self.alpha * self.vocab))
        raise CheckFailed("n-gram has no unigram table")


def ngram_counts(run: Run) -> None:
    """ngram.json holds exactly the context counts of the users' train
    sequences: no validation or test event enters."""
    ecfg = run.cfg["eval"]
    order = ecfg["order"]
    want = defaultdict(Counter)
    for user in sorted(run.users):
        train, validation, _ = run.users[user]
        tokens = run.context(train + ([validation] if ecfg["ngram_include_validation"] else []))
        for i, token in enumerate(tokens):
            for length in range(min(order - 1, i) + 1):
                want[tuple(tokens[i - length:i])][token] += 1
    got = _NGram(run.out / "ngram.json")
    ensure(got.order == order and got.alpha == ecfg["alpha"], "n-gram order or alpha differs")
    ensure(got.counts == {ctx: dict(c) for ctx, c in want.items()}, "n-gram counts differ from a recount")


def beam_scores(run: Run) -> None:
    """For sampled users, every beam result is a catalog SID, its score is the
    sum of back-off log-probabilities from ngram.json, and results come in
    (-score, tokens) order."""
    from sidforge import recommender, rq

    ecfg = run.cfg["eval"]
    model = recommender.load_ngram(run.out / "ngram.json")
    trie = rq.build_trie(rq.load_assignment(run.out / "sids.jsonl"))
    sizes = run.model[0]["effective_sizes"]
    offsets = run.offsets()
    catalog = set(run.sids[1].values())
    oracle = _NGram(run.out / "ngram.json")
    top_k = min(ecfg["beam_size"], max(ecfg["ks"]))
    users = sorted(run.users)
    for user in random.Random(run.seed + 1).sample(users, min(BEAM_SAMPLE, len(users))):
        train, validation, _ = run.users[user]
        ctx = run.context(train + ([validation] if ecfg["include_validation"] else []))
        ranked = recommender.beam_search(model, ctx, trie, ecfg["beam_size"], top_k, sizes)
        ensure(len(ranked) == min(top_k, len(catalog)), f"{user}: {len(ranked)} results")
        ensure(ranked == sorted(ranked, key=lambda r: (-r[1], r[0])), f"{user}: results out of order")
        for tokens, score in ranked:
            ensure(tokens in catalog, f"{user}: {tokens} is not a catalog SID")
            gtokens = [offsets[h] + t for h, t in enumerate(tokens)]
            expect = sum(oracle.logp(ctx + gtokens[:h], g) for h, g in enumerate(gtokens))
            ensure(abs(score - expect) <= SCORE_TOL, f"{user}: score {score} != {expect}")


def _ranks_metrics(ranks: list[int], ks) -> dict:
    out = {}
    for k in ks:
        out[f"HR@{k}"] = sum(1 for r in ranks if 0 < r <= k) / len(ranks)
        out[f"NDCG@{k}"] = sum(1.0 / math.log2(r + 1) for r in ranks if 0 < r <= k) / len(ranks)
    return out


def metric_identities(run: Run) -> None:
    ks = sorted(run.cfg["eval"]["ks"])
    sids = run.sids[1]
    n_users = sum(1 for _, _, test in run.users.values() if test in sids)
    for name, report in run.metrics.items():
        ensure(report["n_users"] == n_users, f"{name}: n_users {report['n_users']} != {n_users}")
        for k in ks:
            ensure(0.0 <= report[f"NDCG@{k}"] <= report[f"HR@{k}"] <= 1.0, f"{name}: NDCG@{k} > HR@{k}")
        for a, b in zip(ks, ks[1:]):
            ensure(report[f"HR@{a}"] <= report[f"HR@{b}"], f"{name}: HR@{a} > HR@{b}")
    with open(run.out / "metrics.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    ngram = run.metrics["ngram"]
    ensure(len(rows) == 2 * len(ks), "metrics.csv row count")
    for row in rows:
        ensure(float(row["value"]) == ngram[f"{row['metric']}@{row['K']}"], f"metrics.csv {row} != json")


def popularity_baseline(run: Run) -> None:
    """Popularity HR/NDCG recomputed from interactions.tsv: SIDs ranked by
    train (plus validation) frequency, ties by token order."""
    ecfg = run.cfg["eval"]
    sids = run.sids[1]
    counts = Counter({sid: 0 for sid in sids.values()})
    for train, validation, _ in run.users.values():
        for item in train + ([validation] if ecfg["include_validation"] else []):
            if item in sids:
                counts[sids[item]] += 1
    position = {sid: i + 1 for i, sid in enumerate(sorted(counts, key=lambda s: (-counts[s], s)))}
    ranks = [position[sids[test]] for _, (_, _, test) in sorted(run.users.items()) if test in sids]
    want = _ranks_metrics(ranks, ecfg["ks"])
    got = run.metrics["popularity"]
    for key, value in want.items():
        ensure(math.isclose(got[key], value, rel_tol=1e-12, abs_tol=1e-15), f"popularity {key} {got[key]} != {value}")


def ngram_beats_popularity(run: Run) -> None:
    ngram, pop = run.metrics["ngram"]["HR@10"], run.metrics["popularity"]["HR@10"]
    ensure(ngram > pop, f"n-gram HR@10 {ngram} does not beat popularity {pop}")


CHECKS = (
    source_matches_inputs, model_hash, mse_trace, sid_bruteforce, collision_rate,
    codebook_utilization, prefix_entropy, probe_accuracy, corpus_count, corpus_item_targets,
    corpus_history_targets, sid_vocabulary, ngram_counts, beam_scores, metric_identities,
    popularity_baseline,
)


def checks_for(workload) -> tuple:
    return CHECKS + ((ngram_beats_popularity,) if workload.expects_ngram_win else ())


def run_checks(directory, workload, seed: int) -> dict[str, str | None]:
    """Check name -> None when it passed, else the reason it failed."""
    run = Run(directory, workload, seed)
    results = {}
    for check in checks_for(workload):
        try:
            check(run)
            results[check.__name__] = None
        except Exception as exc:  # a crash in a check is that check failing
            results[check.__name__] = f"{type(exc).__name__}: {exc}"
    return results
