"""Incremental (cross-corpus) MinHash near-dup vs a brute-force oracle."""

import numpy as np
import pyarrow as pa
import pytest

from markdown_query_ray.pipelines.dedup import (
    _bucket_cross_pair_scan,
    incremental_minhash_pairs,
    jaccard,
)

BASE = [
    (0, "the quick brown fox jumps over the lazy dog today"),
    (2, "completely different text about ray data pipelines here"),
    (4, "alpha beta gamma delta epsilon zeta eta theta iota"),
    (6, ""),
]
NEW = [
    (1, "the quick brown fox jumps over the lazy dog today"),   # dup of 0
    (3, "the quick brown fox jumps over the lazy cat today"),   # near 0
    (5, "totally novel content never seen in the base corpus"),
    (7, ""),                                                    # dup of 6
    (9, "alpha beta gamma delta epsilon zeta eta theta iota"),  # dup of 4
]


def _brute_cross(base, new, thr):
    out = []
    for a, ta in base:
        for b, tb in new:
            j = jaccard(ta, tb, 3)
            if j >= thr:
                out.append((a, b, round(j, 6)))
    return sorted(out)


def test_incremental_pairs_match_brute(ray_session):
    import ray.data

    def t(rows):
        return pa.table({"doc_id": pa.array([r[0] for r in rows],
                                            pa.int64()),
                         "text": pa.array([r[1] for r in rows],
                                          pa.string())})

    base = ray.data.from_arrow(t(BASE)).repartition(2)
    new = ray.data.from_arrow(t(NEW)).repartition(2)
    # 64x2 banding: recall-complete at the 0.5 boundary
    got = incremental_minhash_pairs(base, new, threshold=0.5,
                                    num_hashes=128, bands=64)
    got_rows = sorted((a, b, round(j, 6)) for a, b, j in
                      zip(got.column("doc_a").to_pylist(),
                          got.column("doc_b").to_pylist(),
                          got.column("jaccard").to_pylist()))
    assert got_rows == _brute_cross(BASE, NEW, 0.5)
    # orientation contract: doc_a from base, doc_b from new
    assert all(a % 2 == 0 and b % 2 == 1 for a, b, _ in got_rows)


def test_cross_pair_scan_emits_cross_side_only():
    # one collision segment with 2 base + 3 new docs
    g = pa.table({
        "band_id": pa.array([0] * 5, pa.int32()),
        "band_hash": pa.array([7] * 5, pa.uint64()),
        "doc_id": pa.array([10, 20, 11, 21, 31], pa.int64()),
        "side": pa.array([0, 0, 1, 1, 1], pa.int8()),
    })
    out = _bucket_cross_pair_scan(g)
    pairs = set(zip(out.column("doc_a").to_pylist(),
                    out.column("doc_b").to_pylist()))
    assert pairs == {(a, b) for a in (10, 20) for b in (11, 21, 31)}


def test_cross_pair_scan_cap_keeps_min_and_nearest(monkeypatch):
    import markdown_query_ray.pipelines.dedup as dd

    monkeypatch.setattr(dd, "MAX_SEGMENT_DOCS", 8)
    nb, nn = 5, 4
    base_ids = list(range(0, 100, 20))          # 0 20 40 60 80
    new_ids = [15, 55, 95, 99]
    g = pa.table({
        "band_id": pa.array([0] * (nb + nn), pa.int32()),
        "band_hash": pa.array([7] * (nb + nn), pa.uint64()),
        "doc_id": pa.array(base_ids + new_ids, pa.int64()),
        "side": pa.array([0] * nb + [1] * nn, pa.int8()),
    })
    out = dd._bucket_cross_pair_scan(g)
    pairs = set(zip(out.column("doc_a").to_pylist(),
                    out.column("doc_b").to_pylist()))
    exp = set()
    for x in new_ids:
        exp.add((0, x))                               # segment-min base
        exp.add((max(b for b in base_ids if b <= x), x))  # nearest base
    assert pairs == exp


def test_base_signature_checkpoint_reused(ray_session, tmp_path):
    """base_sigs_dir: first call computes + checkpoints the base
    signatures; a second call (same params) reads them back and returns
    identical pairs; a mismatched-params reuse raises."""
    import numpy as np
    import pyarrow as pa
    import pytest
    import ray.data

    from markdown_query_ray.pipelines.dedup import incremental_minhash_pairs

    base_rows = [f"alpha beta gamma delta epsilon doc{i}" for i in range(30)]
    new_rows = [base_rows[3], base_rows[17], "totally fresh text here"]

    def ds(rows, base_id):
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array(np.arange(base_id, base_id + len(rows))),
            "text": pa.array(rows),
        })).repartition(3)

    kw = dict(threshold=0.5, num_hashes=64, bands=32, collect=True)
    ck = str(tmp_path / "sigck")
    p_live = incremental_minhash_pairs(ds(base_rows, 0), ds(new_rows, 100),
                                       **kw)
    p_ck1 = incremental_minhash_pairs(ds(base_rows, 0), ds(new_rows, 100),
                                      base_sigs_dir=ck, **kw)
    import os
    assert os.path.exists(os.path.join(ck, "_SIG_PARAMS.json"))
    p_ck2 = incremental_minhash_pairs(ds(base_rows, 0), ds(new_rows, 100),
                                      base_sigs_dir=ck, **kw)
    assert p_live.equals(p_ck1) and p_ck1.equals(p_ck2)
    assert p_ck1.num_rows >= 2  # both planted dups found
    with pytest.raises(ValueError, match="checkpoint"):
        incremental_minhash_pairs(ds(base_rows, 0), ds(new_rows, 100),
                                  base_sigs_dir=ck, threshold=0.5,
                                  num_hashes=128, bands=64, collect=True)


def _mk_ds(rows, base_id):
    import ray.data

    return ray.data.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(base_id, base_id + len(rows))),
        "text": pa.array(rows),
    })).repartition(3)


def test_base_checkpoint_append_only_growth(ray_session, tmp_path):
    """An append-only grown base (new ids above the checkpointed max)
    signatures only the delta into a new generation and returns pairs
    identical to a live run over the full grown base."""
    import json
    import os

    base1 = [f"alpha beta gamma delta epsilon doc{i}" for i in range(20)]
    grown_tail = ["zeta eta theta iota kappa lambda mu nu",
                  "the quick brown fox jumps over the lazy dog"]
    base2 = base1 + grown_tail
    new_rows = [base1[5], grown_tail[1], "totally fresh text here"]

    kw = dict(threshold=0.5, num_hashes=64, bands=32, collect=True)
    ck = str(tmp_path / "sigck")
    p1 = incremental_minhash_pairs(_mk_ds(base1, 0), _mk_ds(new_rows, 100),
                                   base_sigs_dir=ck, **kw)
    meta1 = json.load(open(os.path.join(ck, "_SIG_PARAMS.json")))
    assert meta1["gens"] == ["gen-000000"] and meta1["n_docs"] == 20

    # refresh #2 against the grown base: delta generation, same answer
    # as a live (no-checkpoint) run
    p2 = incremental_minhash_pairs(_mk_ds(base2, 0), _mk_ds(new_rows, 100),
                                   base_sigs_dir=ck, **kw)
    live = incremental_minhash_pairs(_mk_ds(base2, 0),
                                     _mk_ds(new_rows, 100), **kw)
    assert p2.equals(live)
    meta2 = json.load(open(os.path.join(ck, "_SIG_PARAMS.json")))
    assert meta2["gens"] == ["gen-000000", "gen-000001"]
    assert meta2["n_docs"] == 22
    # the dup against a doc that only exists in the grown tail is found
    assert 21 in p2.column("doc_a").to_pylist()
    # reuse again unchanged: no third generation
    p3 = incremental_minhash_pairs(_mk_ds(base2, 0), _mk_ds(new_rows, 100),
                                   base_sigs_dir=ck, **kw)
    assert p3.equals(live)
    meta3 = json.load(open(os.path.join(ck, "_SIG_PARAMS.json")))
    assert meta3["gens"] == meta2["gens"]

    # incompatible change (doc removed below the checkpointed max) raises
    import pytest as _pytest

    with _pytest.raises(ValueError, match="append-only"):
        incremental_minhash_pairs(_mk_ds(base2[1:], 5000),
                                  _mk_ds(new_rows, 100),
                                  base_sigs_dir=ck, **kw)


def test_base_checkpoint_truncated_sidecar_regenerates(ray_session,
                                                       tmp_path):
    """A crash that left a truncated sidecar must regenerate the
    checkpoint, not crash in json.load."""
    import os

    base = [f"alpha beta gamma delta epsilon doc{i}" for i in range(12)]
    new_rows = [base[2], "totally fresh text here"]
    kw = dict(threshold=0.5, num_hashes=64, bands=32, collect=True)
    ck = str(tmp_path / "sigck")
    p1 = incremental_minhash_pairs(_mk_ds(base, 0), _mk_ds(new_rows, 100),
                                   base_sigs_dir=ck, **kw)
    # simulate the crash: truncate the committed sidecar mid-json
    sp = os.path.join(ck, "_SIG_PARAMS.json")
    raw = open(sp).read()
    open(sp, "w").write(raw[: len(raw) // 2])
    p2 = incremental_minhash_pairs(_mk_ds(base, 0), _mk_ds(new_rows, 100),
                                   base_sigs_dir=ck, **kw)
    assert p2.equals(p1)
    # regenerated sidecar is whole again
    import json

    meta = json.load(open(sp))
    assert meta["n_docs"] == 12


def test_base_checkpoint_rejects_compensating_edit(ray_session,
                                                   tmp_path):
    """A base edit that preserves count and RAW id sum below the
    checkpointed max (delete {1, 4}, add {2, 3}) must still be
    rejected — the fingerprint sums HASHED ids, which such edits do
    not preserve."""
    import ray.data

    texts = [f"alpha beta gamma delta epsilon doc{i}" for i in range(8)]

    def ds_ids(ids):
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array(np.asarray(ids, np.int64)),
            "text": pa.array([texts[i % len(texts)] for i in ids]),
        })).repartition(2)

    new = _mk_ds(["totally fresh text here"], 500)
    kw = dict(threshold=0.5, num_hashes=64, bands=32, collect=True)
    ck = str(tmp_path / "sigck")
    incremental_minhash_pairs(ds_ids([0, 1, 4, 10]), new,
                              base_sigs_dir=ck, **kw)
    # edited base: same count, same raw id sum (1+4 == 2+3), same max,
    # plus an appended doc — the old raw-sum check called this "grown"
    with pytest.raises(ValueError, match="append-only"):
        incremental_minhash_pairs(ds_ids([0, 2, 3, 10, 11]), new,
                                  base_sigs_dir=ck, **kw)


def test_empty_base_with_checkpoint_matches_live(ray_session, tmp_path):
    """An EMPTY base with ``base_sigs_dir``: the signature checkpoint
    pins a 0-row file (Ray writes none for an empty dataset), so the
    call returns the same pairs as the run without a checkpoint, and a
    second call reuses the committed sidecar."""
    import json
    import os

    import ray.data

    def empty_base():
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "text": pa.array([], pa.string())}))

    new = ["the quick brown fox jumps over the lazy dog",
           "totally fresh text here"]
    kw = dict(threshold=0.5, num_hashes=64, bands=32, collect=True)
    ck = str(tmp_path / "sigck")
    live = incremental_minhash_pairs(empty_base(), _mk_ds(new, 100), **kw)
    p1 = incremental_minhash_pairs(empty_base(), _mk_ds(new, 100),
                                   base_sigs_dir=ck, **kw)
    sp = os.path.join(ck, "_SIG_PARAMS.json")
    meta1 = json.load(open(sp))
    assert meta1["gens"] == ["gen-000000"] and meta1["n_docs"] == 0
    mtime = os.path.getmtime(sp)
    p2 = incremental_minhash_pairs(empty_base(), _mk_ds(new, 100),
                                   base_sigs_dir=ck, **kw)
    assert live.num_rows == 0
    assert p1.equals(live) and p2.equals(live)
    assert os.path.getmtime(sp) == mtime  # reused, not re-committed
    assert json.load(open(sp)) == meta1
