"""Deterministic mixture weighting + stratified sampling."""

import numpy as np
import pyarrow as pa
import pytest

from markdown_query_ray.pipelines.sampling import (
    _draw_u,
    stratified_sample,
    weighted_repeat,
    weighted_repeat_batch,
)

LANGS = ["en", "de", "fr", "es", "ja"]
WEIGHTS = {"en": 1.0, "de": 2.0, "fr": 0.4, "es": 1.7, "ja": 0.0}


def _table(n=200):
    return pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "lang": pa.array([LANGS[i % 5] for i in range(n)], pa.string()),
    })


def _brute_copies(ids, langs):
    out = []
    for i, g in zip(ids, langs):
        w = WEIGHTS[g]
        base = int(np.floor(w))
        thr = int(round((w - base) * 1_000_000))
        u = int(_draw_u(np.array([i], np.int64))[0])
        out.append(base + (1 if u < thr else 0))
    return out


def test_batch_copies_match_brute():
    t = _table(200)
    out = weighted_repeat_batch(t, WEIGHTS)
    exp = _brute_copies(range(200), [LANGS[i % 5] for i in range(200)])
    # integer weights repeat exactly
    ids = out.column("doc_id").to_numpy()
    got = np.bincount(ids, minlength=200).tolist()
    assert got == exp
    # en always 1, de always 2, ja always 0
    langs = np.array([LANGS[i % 5] for i in range(200)])
    assert all(got[i] == 1 for i in np.nonzero(langs == "en")[0])
    assert all(got[i] == 2 for i in np.nonzero(langs == "de")[0])
    assert all(got[i] == 0 for i in np.nonzero(langs == "ja")[0])
    # fractional weights land near their expectation on 40 docs/lang
    fr = sum(got[i] for i in np.nonzero(langs == "fr")[0])
    assert 5 <= fr <= 30  # E = 16
    # n_copies column is consistent with the realized repeats
    nc = out.column("n_copies").to_numpy()
    assert all(got[int(i)] == int(c) for i, c in zip(ids, nc))


def test_repeat_deterministic_across_runs_and_partitions(ray_session):
    import ray.data

    t = _table(300)
    # Ray Data does not keep block order, and a doc's copies share its
    # doc_id: sort on the full row key so only content is compared
    key = ["doc_id", "copy_idx"]
    a = weighted_repeat(ray.data.from_arrow(t).repartition(2), WEIGHTS) \
        .to_pandas().sort_values(key).reset_index(drop=True)
    b = weighted_repeat(ray.data.from_arrow(t).repartition(7), WEIGHTS) \
        .to_pandas().sort_values(key).reset_index(drop=True)
    assert a.equals(b)


def test_stratified_sample_exact_and_uniform(ray_session):
    import ray.data

    t = _table(500)
    ds = ray.data.from_arrow(t).repartition(5)
    out = stratified_sample(ds, "lang", k=7).to_pandas()
    assert len(out) == 5 * 7
    assert (out.groupby("lang").size() == 7).all()
    # exactly the k smallest hashes per lang, ties by id
    ids = np.arange(500)
    langs = np.array([LANGS[i % 5] for i in range(500)])
    u = _draw_u(ids.astype(np.int64))
    for g in LANGS:
        members = ids[langs == g]
        order = np.lexsort((members, u[langs == g]))
        exp = sorted(members[order][:7].tolist())
        got = sorted(out[out["lang"] == g]["doc_id"].tolist())
        assert got == exp


def test_stratum_smaller_than_k(ray_session):
    import ray.data

    t = _table(8)  # <= 2 docs per lang
    out = stratified_sample(
        ray.data.from_arrow(t), "lang", k=5).to_pandas()
    assert len(out) == 8  # every doc kept, no padding
