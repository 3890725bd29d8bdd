"""SID quality metrics: collision and unique rates, codebook utilization,
prefix entropy, the reconstruction-similarity curve, and a linear category
probe over reconstruction vectors."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .datamodel import EmbeddingSet, is_json_number, names_file, read_json_object
from .rq import BLOCK_ELEMENTS, RqModel, SidAssignment, check_token_range, decode_batch, sorted_prefixes

log = logging.getLogger("sidforge.diagnostics")


class DiagnosticsError(ValueError):
    """Raised for empty or inconsistent metric inputs."""


def collision_rate(assign: SidAssignment) -> float:
    """Fraction of items whose full SID is shared with at least one other."""
    if len(assign) == 0:
        raise DiagnosticsError("collision_rate needs a nonempty assignment")
    _, starts = sorted_prefixes(assign.tokens)
    counts = np.diff(starts[-1], append=len(assign))
    return int(counts[counts > 1].sum()) / len(assign)


def active_codes_per_level(assign: SidAssignment, model: RqModel) -> tuple[int, ...]:
    """Distinct tokens in each level's column of the assignment."""
    if len(assign) and assign.tokens.shape[1] != model.levels:
        raise DiagnosticsError("assignment SID length does not match the model")
    tokens = assign.tokens.reshape(len(assign), model.levels)
    check_token_range(model, tokens, assign.item_ids, DiagnosticsError)
    return tuple(int(np.count_nonzero(np.bincount(column))) for column in tokens.T)


def codebook_utilization(assign: SidAssignment, model: RqModel) -> float:
    """Mean over levels of (distinct codes used) / (configured codebook size).

    The denominator is the configured size, so capacity a fit could not use
    (for example a level shrunk to the distinct-residual count) reads as
    unused."""
    if len(assign) == 0:
        raise DiagnosticsError("codebook_utilization needs a nonempty assignment")
    return _utilization(active_codes_per_level(assign, model), model)


def _utilization(active: tuple[int, ...], model: RqModel) -> float:
    sizes = model.config.codebook_sizes
    return sum(a / k for a, k in zip(active, sizes)) / model.levels


def prefix_entropy_profile(assign: SidAssignment) -> tuple[float, ...]:
    """Base-2 Shannon entropy of the length-p prefix distribution over items,
    for every prefix length p. The terms are subtracted one by one in
    lexicographic prefix order, the order `sorted_prefixes` gives."""
    n = len(assign)
    if n == 0:
        raise DiagnosticsError("prefix_entropy needs a nonempty assignment")
    _, starts = sorted_prefixes(assign.tokens)
    profile = []
    for firsts in starts[1:]:
        entropy = 0.0
        for q in (np.diff(firsts, append=n) / n).tolist():
            entropy -= q * math.log2(q)
        profile.append(entropy)
    return tuple(profile)


@dataclass(frozen=True)
class ReconstructionCurve:
    sims: dict[int, float]  # depth -> mean cosine
    n_items: int
    n_zero_norm_originals: int  # excluded from every mean
    zero_recon_counts: dict[int, int]  # contribute similarity 0 at that depth


def reconstruction_curve(
    model: RqModel, emb: EmbeddingSet, assign: SidAssignment, h_max: int | None = None
) -> ReconstructionCurve:
    """Mean cosine between each embedding and its depth-h reconstruction, for
    h = 1..h_max. Each row's tokens are its item's SID in the assignment.

    The rows are upcast to float64 and reconstructed one block at a time
    (`BLOCK_ELEMENTS` values per block); each row's cosines are kept, and
    every mean is taken over all of them, so the block size changes no bit."""
    if h_max is None:
        h_max = model.levels
    if not 1 <= h_max <= model.levels:
        raise DiagnosticsError(f"h_max {h_max} out of range [1, {model.levels}]")
    if emb.count == 0:
        raise DiagnosticsError("reconstruction_curve needs a nonempty embedding set")
    if emb.dim != model.dim:
        raise DiagnosticsError(f"embeddings of dim {emb.dim} for a model of dim {model.dim}")
    missing = [i for i in emb.item_ids if i not in assign.row_of]
    if missing:
        raise DiagnosticsError(
            f"{len(missing)} embedding ids have no SID in the assignment, e.g. {missing[0]!r}"
        )
    check_token_range(model, assign.tokens[:, :h_max], assign.item_ids, DiagnosticsError)
    rows = np.array([assign.row_of[i] for i in emb.item_ids], dtype=np.int64)
    included = np.empty(emb.count, dtype=bool)
    cos = np.zeros((h_max, emb.count))
    zero_recon = dict.fromkeys(range(1, h_max + 1), 0)
    step = max(1, BLOCK_ELEMENTS // emb.dim)
    for start in range(0, emb.count, step):
        block = slice(start, start + step)
        points = emb.rows[block].astype(np.float64)
        tokens = assign.tokens[rows[block]]
        x_norms = np.sqrt(np.square(points).sum(axis=1))
        kept = included[block] = x_norms > 0.0
        recon = np.zeros_like(points)
        for h in range(1, h_max + 1):
            recon += model.codebooks[h - 1][tokens[:, h - 1]]
            r_norms = np.sqrt(np.square(recon).sum(axis=1))
            ok = kept & (r_norms > 0.0)
            cos[h - 1, block][ok] = (points[ok] * recon[ok]).sum(axis=1) / (x_norms[ok] * r_norms[ok])
            zero_recon[h] += int((kept & (r_norms == 0.0)).sum())
    np.clip(cos, -1.0, 1.0, out=cos)
    sims = {h: float(values.mean()) if values.size else 0.0
            for h, values in enumerate(cos[:, included], start=1)}
    return ReconstructionCurve(
        sims=sims,
        n_items=emb.count,
        n_zero_norm_originals=int((~included).sum()),
        zero_recon_counts=zero_recon,
    )


def _row_sum(rows: np.ndarray) -> np.ndarray:
    """Sum over axis 0 of a C-order (c, n) array with the bits of numpy's
    pairwise sum over each contiguous run of c values, i.e. of
    `np.ascontiguousarray(rows.T).sum(axis=1)`: in sequence below 8 values;
    up to 128, 8 accumulators over 8-wide blocks, combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the tail in sequence; above
    128, the sums of two halves split at a multiple of 8."""
    c = rows.shape[0]
    if c > 128:
        half = c // 2 - c // 2 % 8
        return _row_sum(rows[:half]) + _row_sum(rows[half:])
    if c < 8:
        out, stop = rows[0].copy(), 1
    else:
        acc = rows[:8].copy()
        stop = c - c % 8
        for i in range(8, stop, 8):
            acc += rows[i:i + 8]
        acc[0::2] += acc[1::2]
        acc[0::4] += acc[2::4]
        out = acc[0] + acc[4]
    for k in range(stop, c):
        out += rows[k]
    return out


def _fit_probe(
    x_train: np.ndarray, y_train: np.ndarray, n_cat: int
) -> tuple[np.ndarray, np.ndarray]:
    """Weights (d, c) and bias (c,) of the probe: 500 full-batch steps of
    softmax regression, step size 0.1, L2 penalty 1e-4 on the weights.

    Both products are the plain loop's: `x_train @ weights`, and
    `x_train.T @ grad` on a C-order (n, c) `grad`. The softmax and gradient
    between them run in place on a C-order (c, n) buffer and keep the plain
    loop's bits: a max is exact in any order, `_row_sum` copies numpy's
    pairwise order, subtracting the one-hot's zeros changes nothing, and the
    bias gradient sums the rows of the (n, c) `grad` in sequence."""
    n, d = x_train.shape
    onehot_t = np.zeros((n_cat, n))
    onehot_t[y_train, np.arange(n)] = 1.0
    weights = np.zeros((d, n_cat))
    bias = np.zeros(n_cat)
    buf = np.empty((n_cat, n))
    grad = np.empty((n, n_cat))
    step_size, l2 = 0.1, 1e-4
    for _ in range(500):
        np.copyto(buf, (x_train @ weights).T)
        buf += bias[:, None]
        buf -= buf.max(axis=0)
        np.exp(buf, out=buf)
        buf /= _row_sum(buf)
        buf -= onehot_t
        np.divide(buf.T, n, out=grad)
        weights -= step_size * (x_train.T @ grad + l2 * weights)
        bias -= step_size * grad.sum(axis=0)
    return weights, bias


def semantic_probe(
    assign: SidAssignment,
    model: RqModel,
    labels: dict[str, str],
    split_seed: int,
) -> float | None:
    """Held-out accuracy of a multinomial logistic-regression probe that
    predicts the category label from the full-depth reconstruction vector;
    None, with a warning that names the reason, for a catalog the probe
    cannot use: fewer than 2 categories, or one with fewer than 10 items.

    80/20 stratified split, seeded by `split_seed`; `_fit_probe` fits the
    weights. Its result is bit-identical to the plain (n, c) softmax loop.
    """
    order = sorted(range(len(assign)), key=assign.item_ids.__getitem__)
    item_ids = [assign.item_ids[r] for r in order]
    if not item_ids:
        raise DiagnosticsError("semantic_probe needs a nonempty assignment")
    missing = [i for i in item_ids if i not in labels]
    if missing:
        raise DiagnosticsError(f"{len(missing)} items lack category labels")
    categories = sorted({labels[i] for i in item_ids})
    cat_index = {c: k for k, c in enumerate(categories)}
    y = np.array([cat_index[labels[i]] for i in item_ids], dtype=np.int64)
    sizes = np.bincount(y)
    if len(categories) < 2 or sizes.min() < 10:
        log.warning("skipping the category probe, which needs 2 or more categories of 10 or more "
                    "items; found %d, the smallest %r with %d items",
                    len(categories), categories[int(sizes.argmin())], sizes.min())
        return None

    tokens = assign.tokens[order]

    gen = rng.stream(split_seed, rng.PROBE_SPLIT)
    train_parts = []
    test_parts = []
    for k in range(len(categories)):
        members = np.flatnonzero(y == k)
        members = members[gen.permutation(members.size)]
        cut = min(max(int(round(members.size * 0.8)), 1), members.size - 1)
        train_parts.append(members[:cut])
        test_parts.append(members[cut:])
    train_idx = np.sort(np.concatenate(train_parts))
    test_idx = np.sort(np.concatenate(test_parts))

    # Each split decodes its own rows; the checks cover the whole matrix.
    x_train, y_train = decode_batch(model, tokens, rows=train_idx), y[train_idx]
    x_test, y_test = decode_batch(model, tokens, rows=test_idx), y[test_idx]
    weights, bias = _fit_probe(x_train, y_train, len(categories))
    predictions = (x_test @ weights + bias).argmax(axis=1)
    return float((predictions == y_test).mean())


@dataclass(frozen=True)
class DiagnosticsReport:
    n_items: int
    n_distinct_sids: int
    collision_rate: float
    unique_ratio: float  # 1.0 - collision_rate: the two sum to exactly 1.0
    utilization: float
    prefix_entropy: float  # mean of prefix_entropy_profile
    prefix_entropy_profile: tuple[float, ...]
    active_codes_per_level: tuple[int, ...]
    configured_sizes: tuple[int, ...]
    sim_curve: dict[int, float] | None = None
    probe_accuracy: float | None = None


def build_report(
    assign: SidAssignment,
    model: RqModel,
    emb: EmbeddingSet | None = None,
    labels: dict[str, str] | None = None,
    probe_seed: int | None = None,
) -> DiagnosticsReport:
    """Assemble the full report; the similarity curve needs embeddings and the
    probe needs labels plus a split seed."""
    if labels is not None and probe_seed is None:
        raise DiagnosticsError("probe_seed is required when labels are given")
    rate = collision_rate(assign)
    _, starts = sorted_prefixes(assign.tokens)
    profile = prefix_entropy_profile(assign)
    active = active_codes_per_level(assign, model)
    sim = None if emb is None else reconstruction_curve(model, emb, assign).sims
    probe = None if labels is None else semantic_probe(assign, model, labels, probe_seed)
    return DiagnosticsReport(
        n_items=len(assign),
        n_distinct_sids=len(starts[-1]),
        collision_rate=rate,
        unique_ratio=1.0 - rate,
        utilization=_utilization(active, model),
        prefix_entropy=sum(profile) / len(profile),
        prefix_entropy_profile=profile,
        active_codes_per_level=active,
        configured_sizes=model.config.codebook_sizes,
        sim_curve=sim,
        probe_accuracy=probe,
    )


def report_to_dict(report: DiagnosticsReport) -> dict:
    out = {
        "n_items": report.n_items,
        "n_distinct_sids": report.n_distinct_sids,
        "collision_rate": report.collision_rate,
        "unique_ratio": report.unique_ratio,
        "utilization": report.utilization,
        "prefix_entropy": report.prefix_entropy,
        "prefix_entropy_profile": list(report.prefix_entropy_profile),
        "active_codes_per_level": list(report.active_codes_per_level),
        "configured_sizes": list(report.configured_sizes),
    }
    if report.sim_curve is not None:
        out["sim_curve"] = {str(h): v for h, v in sorted(report.sim_curve.items())}
    if report.probe_accuracy is not None:
        out["probe_accuracy"] = report.probe_accuracy
    return out


# render_table's columns: header, report key and format.
_COLUMNS = (("Collision", "collision_rate", "{:.2%}"), ("Unique", "unique_ratio", "{:.2%}"),
            ("Util.", "utilization", "{:.2%}"), ("Entropy", "prefix_entropy", "{:.4f}"))


def load_report(path) -> dict:
    """A saved report_to_dict payload. Raises DiagnosticsError, naming the
    file and the key, unless every value render_table reads is a number."""
    with names_file(path, DiagnosticsError):
        payload = read_json_object(path, DiagnosticsError, "diagnostics report")
        for _, key, _ in _COLUMNS:
            if not is_json_number(payload.get(key)):
                shown = repr(payload[key]) if key in payload else "missing"
                raise DiagnosticsError(f"{key} is {shown}, not a number")
    return payload


def render_table(payload: dict) -> str:
    """Aligned-column table of a report_to_dict payload, in the Collision /
    Unique / Util. / Entropy order."""
    headers = [header for header, _, _ in _COLUMNS]
    values = [form.format(payload[key]) for _, key, form in _COLUMNS]
    widths = [max(len(h), len(v)) for h, v in zip(headers, values)]
    head = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
    body = "  ".join(v.rjust(w) for v, w in zip(values, widths))
    return head + "\n" + body
