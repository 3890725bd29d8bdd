from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest

from sidforge.synthgen import (
    SynthConfig,
    SynthError,
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
        assert cat_a.items == cat_b.items
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
        assert set(labels) == {r.item_id for r in catalog}
        for rec in catalog:
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
        a, b = catalog.items[0], catalog.items[1]
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


class TestInteractions:
    def test_deterministic_and_within_bounds(self):
        cfg = small_cfg()
        catalog, _, labels = generate_catalog(cfg)
        log_a = generate_interactions(catalog, labels, cfg)
        log_b = generate_interactions(catalog, labels, cfg)
        assert log_a.events == log_b.events
        by_user = log_a.by_user()
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
        for events in log.by_user().values():
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
