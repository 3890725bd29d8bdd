from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np
import pytest

from conftest import EventLog, catalog_of, events_of, record_catalog
from sidforge import rng, synthgen
from sidforge.cli import main
from sidforge.datamodel import EmbeddingSet
from sidforge.synthgen import (
    StreamDraws,
    SynthConfig,
    SynthError,
    _category_layout,
    _informative_dims,
    _twin_pairs,
    category_name,
    default_transition,
    generate_catalog,
    generate_interactions,
    load_synth_config,
)


def small_cfg(**kw):
    base = dict(
        num_items=80,
        num_users=30,
        dim=12,
        num_categories=4,
        enrichment_level=0.5,
        intra_category_noise=0.5,
        events_per_user=(5, 10),
        seed=42,
    )
    base.update(kw)
    return SynthConfig(**base)


class TestConfig:
    def test_roundtrip(self):
        cfg = small_cfg()
        assert SynthConfig.from_dict(asdict(cfg)) == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(SynthError, match="unknown"):
            SynthConfig.from_dict({**asdict(small_cfg()), "bogus": 1})

    def test_missing_or_mistyped_field_rejected(self):
        with pytest.raises(SynthError, match="missing SynthConfig fields"):
            SynthConfig.from_dict({"num_items": 5})
        with pytest.raises(SynthError, match="num_items"):
            SynthConfig.from_dict({**asdict(small_cfg()), "num_items": "x"})
        with pytest.raises(SynthError, match="events_per_user"):
            SynthConfig.from_dict({**asdict(small_cfg()), "events_per_user": [1, 2, 3]})
        with pytest.raises(SynthError, match="seed"):
            SynthConfig.from_dict({**asdict(small_cfg()), "seed": True})

    def test_config_file_must_hold_an_object(self, tmp_path):
        path = tmp_path / "synth.json"
        for text, match in (("5", "is a int, not a JSON object"), ("[]", "is a list, not a JSON object"),
                            ("{", "unreadable")):
            path.write_text(text)
            with pytest.raises(SynthError, match=match) as info:
                load_synth_config(path)
            assert str(path) in str(info.value)

    def test_validation(self):
        with pytest.raises(SynthError):
            small_cfg(num_items=0)
        with pytest.raises(SynthError):
            small_cfg(num_categories=81)
        with pytest.raises(SynthError):
            small_cfg(enrichment_level=1.5)
        with pytest.raises(SynthError):
            small_cfg(intra_category_noise=0.0)
        with pytest.raises(SynthError):
            small_cfg(events_per_user=(5, 3))
        with pytest.raises(SynthError):
            small_cfg(dim=1)
        with pytest.raises(SynthError):
            small_cfg(dominant_transition=0.0)

    def test_category_names_cycle(self):
        assert category_name(0) != category_name(1)
        assert category_name(16) == category_name(0) + " 2"


class TestCatalog:
    def test_deterministic(self):
        cfg = small_cfg()
        cat_a, emb_a, lab_a = generate_catalog(cfg)
        cat_b, emb_b, lab_b = generate_catalog(cfg)
        assert cat_a == cat_b
        assert np.array_equal(emb_a.rows, emb_b.rows)
        assert lab_a == lab_b

    def test_seed_matters(self):
        _, emb_a, _ = generate_catalog(small_cfg(seed=1))
        _, emb_b, _ = generate_catalog(small_cfg(seed=2))
        assert not np.array_equal(emb_a.rows, emb_b.rows)

    def test_shapes_and_labels(self):
        cfg = small_cfg()
        catalog, emb, labels = generate_catalog(cfg)
        assert len(catalog) == cfg.num_items
        assert emb.rows.shape == (cfg.num_items, cfg.dim)
        assert set(labels) == set(catalog.item_ids)
        for rec in record_catalog(catalog):
            assert labels[rec.item_id] == rec.category
            assert rec.category in rec.title
            assert rec.visual_description

    def test_twins_identical_at_zero_enrichment(self):
        cfg = small_cfg(enrichment_level=0.0, twin_fraction=0.25)
        _, emb, _ = generate_catalog(cfg)
        pairs = int(cfg.twin_fraction * cfg.num_items) // 2
        assert pairs >= 5
        for j in range(pairs):
            assert np.array_equal(emb.rows[2 * j], emb.rows[2 * j + 1])

    def test_twins_separate_with_enrichment(self):
        lo = generate_catalog(small_cfg(enrichment_level=0.2))[1].rows
        hi = generate_catalog(small_cfg(enrichment_level=1.0))[1].rows
        pairs = int(0.2 * 80) // 2
        gaps_lo = [float(np.linalg.norm(lo[2 * j] - lo[2 * j + 1])) for j in range(pairs)]
        gaps_hi = [float(np.linalg.norm(hi[2 * j] - hi[2 * j + 1])) for j in range(pairs)]
        assert all(g > 0 for g in gaps_lo)
        assert np.mean(gaps_hi) > np.mean(gaps_lo)

    def test_twin_titles_share_base(self):
        catalog, _, _ = generate_catalog(small_cfg(twin_fraction=0.25))
        a, b = record_catalog(catalog).items[:2]
        assert a.title.endswith("(style A)")
        assert b.title.endswith("(style B)")
        assert a.title.rsplit("(", 1)[0] == b.title.rsplit("(", 1)[0]
        assert a.visual_description != b.visual_description

    def test_enrichment_tightens_informative_noise(self):
        # Mean within-category distance in the informative block shrinks as
        # enrichment rises; the ambient block stays put.
        def spread(e):
            cfg = small_cfg(enrichment_level=e, twin_fraction=0.0, num_items=400)
            _, emb, labels = generate_catalog(cfg)
            rows = emb.rows.astype(np.float64)
            d_info = 6
            info_var, ambient_var = [], []
            cats = sorted(set(labels.values()))
            ids = list(emb.item_ids)
            for c in cats:
                mask = np.array([labels[i] == c for i in ids])
                block = rows[mask]
                info_var.append(block[:, :d_info].var(axis=0).mean())
                ambient_var.append(block[:, d_info:].var(axis=0).mean())
            return float(np.mean(info_var)), float(np.mean(ambient_var))

        info0, amb0 = spread(0.0)
        info1, amb1 = spread(1.0)
        assert info1 < info0 * 0.5
        assert abs(amb1 - amb0) / amb0 < 0.25


# The benchmark's two workload shapes (perfbench/workloads.py).
_WORKLOAD_SHAPES = {
    "catalog_fit": dict(num_items=2048, num_users=150, dim=64, events_per_user=(4, 6)),
    "user_eval": dict(num_items=1000, num_users=1000, dim=32, events_per_user=(20, 40)),
}


# ---------------------------------------------------------------------------
# The whole-matrix catalog against the per-item loop it replaced.

def reference_generate_catalog(cfg: SynthConfig):
    """`generate_catalog` as a per-item loop, kept verbatim but for passing
    each item's fields to `catalog_of` as one row: a fresh `rng.stream` per
    twin pair and per item, two draws per pair (shared noise, then
    direction) and one row written at a time."""
    e = cfg.enrichment_level
    d_info = _informative_dims(cfg)
    pairs = _twin_pairs(cfg)
    cat = _category_layout(cfg)

    centers_gen = rng.stream(cfg.seed, rng.CATEGORY_CENTERS)
    centers = np.zeros((cfg.num_categories, cfg.dim))
    centers[:, :d_info] = (
        centers_gen.standard_normal((cfg.num_categories, d_info))
        * cfg.center_scale
        * (1.0 + 2.0 * e)
    )
    info_std = cfg.intra_category_noise * (1.5 - e)
    ambient_std = cfg.intra_category_noise * 1.5

    rows = np.empty((cfg.num_items, cfg.dim))
    for j in range(pairs):
        pair_gen = rng.stream(cfg.seed, rng.TWIN_PAIRS, j)
        shared = pair_gen.standard_normal(cfg.dim)
        shared[:d_info] *= info_std
        shared[d_info:] *= ambient_std
        direction = pair_gen.standard_normal(d_info)
        norm = float(np.sqrt(np.square(direction).sum()))
        if norm > 0.0:
            direction /= norm
        offset = np.zeros(cfg.dim)
        offset[:d_info] = direction * (e * cfg.twin_separation * cfg.intra_category_noise)
        base = centers[cat[2 * j]] + shared
        rows[2 * j] = base + offset
        rows[2 * j + 1] = base - offset
    for i in range(2 * pairs, cfg.num_items):
        item_gen = rng.stream(cfg.seed, rng.ITEM_NOISE, i)
        noise = item_gen.standard_normal(cfg.dim)
        noise[:d_info] *= info_std
        noise[d_info:] *= ambient_std
        rows[i] = centers[cat[i]] + noise

    records = []
    labels: dict[str, str] = {}
    for i in range(cfg.num_items):
        item_id = f"it{i:06d}"
        cname = category_name(int(cat[i]))
        if i < 2 * pairs:
            pair, member = divmod(i, 2)
            style = "style A" if member == 0 else "style B"
            finish = "matte black" if member == 0 else "glossy red"
            title = f"{cname} Model {pair:04d} ({style})"
            description = f"Dependable {cname.lower()} model {pair:04d} for everyday use."
            visual = f"Studio photo of a {cname.lower()} product in a {finish} finish."
        else:
            title = f"{cname} Item {i:05d}"
            description = f"A dependable {cname.lower()} product, catalog entry {i}."
            visual = (
                f"Product photo of a {cname.lower()} item on a white background, "
                f"angle {i % 9}."
            )
        records.append((item_id, title, description, cname, visual,
                        (f"{cname.lower()} enthusiasts & hobby collectors",)))
        labels[item_id] = cname
    catalog = catalog_of(*records)
    emb = EmbeddingSet(catalog.item_ids, rows.astype(np.float32))
    return catalog, emb, labels


def assert_catalog_matches_reference(cfg):
    catalog, emb, labels = generate_catalog(cfg)
    want_catalog, want_emb, want_labels = reference_generate_catalog(cfg)
    assert emb.rows.dtype == want_emb.rows.dtype == np.float32
    assert np.array_equal(emb.rows.view(np.int32), want_emb.rows.view(np.int32))  # bits, so -0.0 != 0.0
    assert emb.item_ids == want_emb.item_ids
    assert catalog == want_catalog
    assert labels == want_labels


class TestCatalogMatchesLoop:
    @pytest.mark.parametrize("seed", [7, 11])
    @pytest.mark.parametrize("shape", ["catalog_fit", "user_eval"])
    def test_workload_shapes(self, shape, seed):
        assert_catalog_matches_reference(
            small_cfg(**_WORKLOAD_SHAPES[shape], num_categories=16, intra_category_noise=0.6, seed=seed))

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(twin_fraction=0.0),
            dict(twin_fraction=1.0),
            dict(enrichment_level=0.0),  # twins bit-identical
            dict(dim=2, num_categories=3),
            dict(num_items=81, twin_fraction=0.5),  # odd item count: one item after the pairs
            dict(informative_fraction=1.0),  # no ambient block
        ],
        ids=["no-twins", "all-twins", "enrichment-0", "dim-2", "odd-items", "all-informative"],
    )
    def test_edge_configs(self, overrides):
        assert_catalog_matches_reference(small_cfg(**overrides))


class TestInteractions:
    def test_deterministic_and_within_bounds(self):
        cfg = small_cfg()
        catalog, _, labels = generate_catalog(cfg)
        log_a = generate_interactions(catalog, labels, cfg)
        log_b = generate_interactions(catalog, labels, cfg)
        assert events_of(log_a) == events_of(log_b)
        by_user = EventLog(events_of(log_a)).by_user()
        assert len(by_user) == cfg.num_users
        lo, hi = cfg.events_per_user
        for events in by_user.values():
            assert lo <= len(events) <= hi
            times = [t for _, _, t in events]
            assert all(b > a for a, b in zip(times, times[1:]))

    def test_dominant_transition_frequency(self):
        cfg = small_cfg(num_users=300, events_per_user=(30, 30), dominant_transition=0.8)
        catalog, _, labels = generate_catalog(cfg)
        log = generate_interactions(catalog, labels, cfg)
        name_to_idx = {category_name(i): i for i in range(cfg.num_categories)}
        forward = total = 0
        for events in EventLog(events_of(log)).by_user().values():
            cats = [name_to_idx[labels[item]] for _, item, _ in events]
            for a, b in zip(cats, cats[1:]):
                total += 1
                forward += b == (a + 1) % cfg.num_categories
        assert abs(forward / total - 0.8) < 0.03

    def test_default_transition_rows(self):
        matrix = default_transition(small_cfg(num_categories=5, dominant_transition=0.8))
        assert matrix.shape == (5, 5)
        assert np.allclose(matrix.sum(axis=1), 1.0)
        assert matrix[4, 0] == 0.8
        assert np.isclose(matrix[0, 2], 0.05)


# ---------------------------------------------------------------------------
# The stepped walk against the per-user loop it replaced, and its draw helper
# against numpy's Generator.

def reference_generate_interactions(catalog, labels, cfg):
    """The per-event loop: one Generator per user, called draw by draw."""
    matrix = default_transition(cfg)
    c = cfg.num_categories

    by_category: dict[int, list[str]] = {i: [] for i in range(c)}
    name_to_index = {category_name(i): i for i in range(c)}
    for item_id in catalog.item_ids:
        idx = name_to_index.get(labels[item_id])
        if idx is not None:
            by_category[idx].append(item_id)
    live = [i for i in range(c) if by_category[i]]
    if not live:
        raise SynthError("no catalog item belongs to any configured category")
    reduced = matrix[np.ix_(live, live)]
    row_sums = reduced.sum(axis=1)
    if np.any(row_sums <= 0.0):
        raise SynthError("a transition row has no mass on categories with items")
    reduced = reduced / row_sums[:, None]
    cumulative = np.cumsum(reduced, axis=1)

    events = []
    lo, hi = cfg.events_per_user
    for u in range(cfg.num_users):
        gen = rng.stream(cfg.seed, rng.USER_EVENTS, u)
        user_id = f"u{u:05d}"
        count = int(gen.integers(lo, hi + 1))
        state = int(gen.integers(len(live)))
        ts = 1_600_000_000
        for step in range(count):
            if step > 0:
                draw = gen.random()
                state = int(np.searchsorted(cumulative[state], draw, side="right"))
                if state >= len(live):
                    state = len(live) - 1
            items = by_category[live[state]]
            item_id = items[int(gen.integers(len(items)))]
            ts += int(gen.integers(1, 3601))
            events.append((user_id, item_id, ts))
    return EventLog(events=tuple(events))


def reference_category_layout(cfg):
    cat = np.empty(cfg.num_items, dtype=np.int64)
    pairs = int(cfg.twin_fraction * cfg.num_items) // 2
    for j in range(pairs):
        cat[2 * j] = cat[2 * j + 1] = j % cfg.num_categories
    for i in range(2 * pairs, cfg.num_items):
        cat[i] = i % cfg.num_categories
    return cat


def reference_default_transition(cfg):
    c = cfg.num_categories
    if c == 1:
        return np.ones((1, 1))
    matrix = np.full((c, c), (1.0 - cfg.dominant_transition) / (c - 1))
    for src in range(c):
        matrix[src, (src + 1) % c] = cfg.dominant_transition
    return matrix


def assert_walk_matches_reference(cfg, labels_of=None):
    catalog, _, labels = generate_catalog(cfg)
    if labels_of is not None:
        labels = labels_of(labels)
    fast = generate_interactions(catalog, labels, cfg)
    assert events_of(fast) == reference_generate_interactions(catalog, labels, cfg).events
    return fast


class TestSteppedWalkMatchesLoop:
    @pytest.mark.parametrize("seed", [7, 11])
    @pytest.mark.parametrize("shape", sorted(_WORKLOAD_SHAPES))
    def test_workload_shapes(self, shape, seed):
        cfg = small_cfg(**_WORKLOAD_SHAPES[shape], num_categories=16, intra_category_noise=0.6, seed=seed)
        assert assert_walk_matches_reference(cfg).n_events > 0

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(events_per_user=(5, 5)),  # no count draw
            dict(num_categories=1),  # no start-state draw, one-row transition
            dict(num_items=16, num_categories=16, twin_fraction=0.0),  # one-item pools: no pick draw
            dict(num_items=20, num_categories=16),  # one- and three-item pools
            dict(dominant_transition=1.0),  # cumulative rows of exact 0 and 1 steps
            dict(num_users=1),
            dict(events_per_user=(1, 1), num_categories=1, num_items=1, dim=4),  # gap draws only
        ],
        ids=["lo==hi", "one-category", "one-item-pools", "mixed-pools", "dominant-1.0", "one-user",
             "gap-only"],
    )
    def test_edge_configs(self, overrides):
        assert_walk_matches_reference(small_cfg(**overrides))

    def test_labels_leaving_a_category_unused(self):
        unused = category_name(1)

        def relabel(labels):
            return {item: category_name(0) if name == unused else name for item, name in labels.items()}

        log = assert_walk_matches_reference(small_cfg(), relabel)
        assert log.n_events > 0

    def test_rejected_draws(self, monkeypatch):
        """Every user's stream starts a few words before a word that
        `integers(3600)` (the gap) rejects, so both walks retry draws. Most
        pools hold one item, so the gap reads low and high halves alike."""
        cfg = small_cfg(num_items=20, num_categories=16, num_users=28, events_per_user=(3, 6))
        catalog, _, labels = generate_catalog(cfg)
        key_bits = rng.stream(cfg.seed, rng.USER_EVENTS, 0).bit_generator
        span, threshold = 3600, (2**32 - 3600) % 3600
        rejecting, read = [], 0
        while len(rejecting) < 2:
            words = key_bits.random_raw(1 << 20)
            halves = np.stack([words & 0xFFFFFFFF, words >> 32]) * np.uint64(span)
            rejecting += (read + np.flatnonzero(((halves & 0xFFFFFFFF) < threshold).any(axis=0))).tolist()
            read += words.size
        real_stream = rng.stream
        rejected = []

        class CountingGenerator:
            """A Generator that records the 32-bit words each `integers`
            call reads beyond its first."""

            def __init__(self, bits):
                self.bit_generator = bits
                self._gen = np.random.Generator(bits)

            def _halves_read(self):
                state = self.bit_generator.state
                words = 4 * int(state["state"]["counter"][0]) + state["buffer_pos"] - 4
                return 2 * words - state["has_uint32"]

            def random(self):
                return self._gen.random()

            def integers(self, *args):
                before = self._halves_read()
                value = self._gen.integers(*args)
                rejected.append(max(0, self._halves_read() - before - 1))
                return value

        def shifted_bits(seed, index):
            start = rejecting[index % 2] - index // 2
            bits = real_stream(seed, rng.USER_EVENTS, 0).bit_generator
            bits.advance(start // 4)
            bits.random_raw(start % 4)
            return bits

        def shifted_stream(seed, purpose, index=0):
            if purpose != rng.USER_EVENTS:
                return real_stream(seed, purpose, index)
            return CountingGenerator(shifted_bits(seed, index))

        def shifted_streams(seed, purpose, indices):
            assert purpose == rng.USER_EVENTS
            for index in indices:
                yield np.random.Generator(shifted_bits(seed, index))

        # The reference reads `rng.stream`, the stepped walk `rng.streams`.
        monkeypatch.setattr(rng, "stream", shifted_stream)
        monkeypatch.setattr(rng, "streams", shifted_streams)
        fast = generate_interactions(catalog, labels, cfg)
        assert events_of(fast) == reference_generate_interactions(catalog, labels, cfg).events
        assert sum(rejected) >= 1


class TestStreamDraws:
    SPANS = (1, 2, 3, 3600, 2**31 + 1, 2**32)

    def test_matches_generator_interleaved(self):
        """`StreamDraws` reproduces numpy's Generator.integers / random() on
        each stream. A numpy release that changes its bounded-integer or
        float rules fails here first."""
        seeds = range(5)
        gens = [rng.stream(3, rng.USER_EVENTS, r) for r in seeds]
        draws = StreamDraws(3, rng.USER_EVENTS, seeds, width=4)
        subsets = [np.arange(5), np.array([0, 2, 4]), np.array([3]), np.array([1, 2, 3, 4])]
        for step in range(240):
            rows = subsets[step % len(subsets)]
            span = self.SPANS[step % len(self.SPANS)]
            if step % 7 == 3:
                got = draws.random(rows)
                want = [gens[r].random() for r in rows]
                what = "StreamDraws.random() no longer matches Generator.random()"
            else:
                # Every other call gives each row a span of its own.
                spans = span if step % 2 else np.array([self.SPANS[(step + r) % len(self.SPANS)] for r in rows])
                got = draws.integers(rows, spans)
                want = [gens[r].integers(int(np.broadcast_to(spans, rows.shape)[i])) for i, r in enumerate(rows)]
                what = f"StreamDraws.integers({spans}) no longer matches Generator.integers"
            assert got.tolist() == want, f"{what} on numpy {np.__version__}"

    def test_rejections_and_top_up(self):
        """2**31 + 1 rejects about half its words, so a 4-word row runs out
        and is topped up from its own stream many times."""
        gen = rng.stream(9, rng.USER_EVENTS, 1)
        draws = StreamDraws(9, rng.USER_EVENTS, [1], width=4)
        row = np.array([0])
        got = [int(draws.integers(row, 2**31 + 1)[0]) for _ in range(200)]
        assert got == [int(gen.integers(2**31 + 1)) for _ in range(200)], (
            f"StreamDraws.integers(2**31 + 1) no longer matches Generator.integers on numpy {np.__version__}")
        assert gen.bit_generator.state["state"]["counter"][0] * 4 > 200  # more words than draws


class TestLayoutMatchesLoops:
    @pytest.mark.parametrize(
        "num_items, num_categories, twin_fraction",
        [(80, 4, 0.2), (80, 4, 0.0), (80, 4, 1.0), (81, 5, 1.0), (17, 16, 0.3), (1, 1, 1.0), (50, 1, 0.5)],
    )
    def test_category_layout(self, num_items, num_categories, twin_fraction):
        cfg = small_cfg(num_items=num_items, num_categories=num_categories, twin_fraction=twin_fraction)
        got = _category_layout(cfg)
        assert got.dtype == np.int64
        assert np.array_equal(got, reference_category_layout(cfg))

    @pytest.mark.parametrize("num_categories", [1, 2, 5, 16])
    @pytest.mark.parametrize("dominant", [0.3, 0.8, 1.0])
    def test_default_transition(self, num_categories, dominant):
        cfg = small_cfg(num_categories=num_categories, dominant_transition=dominant)
        assert np.array_equal(default_transition(cfg), reference_default_transition(cfg))


class TestStreamLimits:
    """Configs whose users, items or event counts no RNG stream can serve."""

    @pytest.mark.parametrize(
        "field, value",
        [("num_users", 2**32 + 1), ("num_items", 2**32 + 1), ("events_per_user", [1, 2**32]),
         ("events_per_user", [2**32, 2**33])],
    )
    def test_rejected(self, field, value):
        with pytest.raises(SynthError, match=field):
            SynthConfig.from_dict({**asdict(small_cfg()), field: value})

    def test_limits_themselves_accepted(self):
        cfg = SynthConfig.from_dict({**asdict(small_cfg()), "num_users": 2**32, "num_items": 2**32,
                                     "events_per_user": [1, 2**32 - 1]})
        assert cfg.num_users == cfg.num_items == 2**32

    def test_pipeline_exits_ex_config(self, tmp_path, caplog, monkeypatch):
        # Were the config accepted, generating 2**32 users would run for hours.
        monkeypatch.setattr(synthgen, "generate_catalog", lambda cfg: pytest.fail("generation started"))
        out = tmp_path / "out"
        cfg_path = tmp_path / "pipe.json"
        cfg_path.write_text(json.dumps({"pipeline": {"output_dir": str(out)},
                                        "synth": {**asdict(small_cfg()), "num_users": 2**32 + 1}}))
        assert main(["pipeline", "--config", str(cfg_path)]) == 78
        assert "num_users" in caplog.text
        assert not out.exists()
