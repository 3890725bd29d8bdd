"""Golden bytes: the sha256 of every artifact of two small pipeline runs.

The hashes below pin what sidforge writes. An optimisation must leave them
as they are; only an intended change of behaviour, named as such in
CHANGES.md, may pin new values. The manifest is left out because it records
the output path.
"""

from __future__ import annotations

import pytest

from sidforge import synthgen
from sidforge.pipeline import (
    ArtifactPaths,
    load_config,
    run_pipeline,
    sha256_file,
    synthesize_sources,
    write_sources,
)

SYNTH = {
    "num_items": 600,
    "num_users": 200,
    "dim": 16,
    "num_categories": 6,
    "enrichment_level": 0.5,
    "intra_category_noise": 0.5,
    "events_per_user": [6, 14],
    "seed": 3,
}

SYNTH_HASHES = {
    "items.jsonl": "823428b6ac248f595129feeb8f2c9fe82e642beab29455987866c99df93af5f1",
    "embeddings.emb": "34e417c5b49161685fa2360d69d0cffeb2be34636eaa695bc45dea621d949479",
    "embeddings.emb.ids": "76bbb8fb9510e59d6ebdb76d3b0d5cb30d44c14aa55af31af21a9041e1f23448",
    "interactions.tsv": "a2d5ef486c5ebcefe6dcb0cbf76b4ed583a6ceac9dace9760cc3f0fafeec4837",
    "model.rq": "44f0461c5aaa0159ef7ff477199a18be8f10e4ce2c46a6c80e0f2eb314f911bf",
    "sids.jsonl": "b78e6ee095a3416c6a6dbe75daa78149fee5493fbeda439bbf085f0d5dbd4b8d",
    "diagnostics.json": "ec8fa13042192c6f94c6b53e94cf55ef789da59d716c1473051af795b29ecc32",
    "diagnostics.txt": "7f15e8567cdb39d654759d62250b4044813917eefed40856abffd89df70cb30e",
    "corpus.jsonl": "60d9dfc7cec6453c2be50104e2df678a4ddc83abd05d47ebd6a070f35dfb9396",
    "sid_vocab.txt": "a71b00c112dcecbad1d9458d4819c892788a4b23c221c58771b41cfc48f71376",
    "ngram.json": "8420cf0fd768ec6e4b4c4d099fb83684ff799f464ad2227e6a0e00bf590c6b53",
    "metrics.json": "4caa267f6b3aa3cab2f5bcddcd74cecc370bb054cd2e53cbb7174addb9a2d27c",
    "metrics.csv": "4b579cc53ef46be478a7e16491f4da53efc596f68622819859723e89b6f6fd10",
}

INGEST_HASHES = {
    "items.jsonl": "823428b6ac248f595129feeb8f2c9fe82e642beab29455987866c99df93af5f1",
    "embeddings.emb": "34e417c5b49161685fa2360d69d0cffeb2be34636eaa695bc45dea621d949479",
    "embeddings.emb.ids": "76bbb8fb9510e59d6ebdb76d3b0d5cb30d44c14aa55af31af21a9041e1f23448",
    "interactions.tsv": "3dca0b459b441a3fba84d5cd45f390b6a18846aa4a6e7dd1fafc3355da8487db",
    "model.rq": "44f0461c5aaa0159ef7ff477199a18be8f10e4ce2c46a6c80e0f2eb314f911bf",
    "sids.jsonl": "b78e6ee095a3416c6a6dbe75daa78149fee5493fbeda439bbf085f0d5dbd4b8d",
    "diagnostics.json": "ec8fa13042192c6f94c6b53e94cf55ef789da59d716c1473051af795b29ecc32",
    "diagnostics.txt": "7f15e8567cdb39d654759d62250b4044813917eefed40856abffd89df70cb30e",
    "corpus.jsonl": "385f5e986ce41d40fadace32c1618ceb12565007cca1e5c59caa77de7730f834",
    "sid_vocab.txt": "a71b00c112dcecbad1d9458d4819c892788a4b23c221c58771b41cfc48f71376",
    "ngram.json": "205275da89adb53395efaead72a4e42060484bbd7be3e592ab60d7cd4a61ef7b",
    "metrics.json": "7db5b470470790e3b5687c27036163694e4f70b9b1557146e48b9560dbc22260",
    "metrics.csv": "6ccb894261045e0058c68a6abb530dd35c6e4490471b85723ae21c7cb980e3e6",
}


def golden_cfg(out_dir, workers=1):
    cfg = load_config(env={})
    cfg["pipeline"]["output_dir"] = str(out_dir)
    cfg["pipeline"]["workers"] = workers
    cfg["synth"] = dict(SYNTH)
    cfg["rq"] = {**cfg["rq"], "levels": 3, "codebook_sizes": [32, 16, 8]}
    cfg["corpus"] = {**cfg["corpus"], "n": 300}
    return cfg


def artifact_hashes(out_dir):
    paths = ArtifactPaths.in_dir(out_dir)
    artifacts = [p for name, p in vars(paths).items() if name != "manifest"]
    return {p.name: sha256_file(p) for p in artifacts}


@pytest.mark.parametrize("workers", [1, 2])
def test_synth_run_bytes(tmp_path, workers):
    status, _ = run_pipeline(golden_cfg(tmp_path, workers))
    assert status == 0
    assert artifact_hashes(tmp_path) == SYNTH_HASHES


def test_ingest_kcore_run_bytes(tmp_path):
    source = ArtifactPaths.in_dir(tmp_path / "inputs")
    sources = synthesize_sources(synthgen.SynthConfig.from_dict(SYNTH))
    write_sources(source, *sources)
    out = tmp_path / "out"
    cfg = golden_cfg(out)
    cfg["pipeline"].update(mode="ingest", kcore=2)
    cfg["inputs"] = {
        "items": str(source.items),
        "embeddings": str(source.embeddings),
        "interactions": str(source.interactions),
    }
    status, _ = run_pipeline(cfg)
    assert status == 0
    assert artifact_hashes(out) == INGEST_HASHES
