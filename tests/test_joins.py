"""AS-OF and bounded range joins vs brute-force reference."""

import numpy as np
import pyarrow as pa
import pytest


def _streams(seed: int, n_left: int = 300, n_right: int = 400,
             n_users: int = 25):
    rng = np.random.Generator(np.random.PCG64(seed))
    base = 1_700_000_000_000_000
    day = 86_400_000_000

    def mk(n, id0):
        return {
            "event_id": np.arange(id0, id0 + n, dtype=np.int64),
            "ts": base + rng.integers(0, 30 * day, n),
            "user_id": rng.integers(0, n_users, n),
            "value": np.round(rng.random(n) * 100, 2),
        }

    return mk(n_left, 0), mk(n_right, 100_000)


def _ds(d):
    import ray.data

    return ray.data.from_arrow(pa.table({
        "event_id": pa.array(d["event_id"], pa.int64()),
        "ts": pa.array(d["ts"], pa.timestamp("us")),
        "user_id": pa.array(d["user_id"], pa.int64()),
        "value": pa.array(d["value"], pa.float64()),
    }))


def _run(res) -> pa.Table | None:
    chunks = list(res.iter_batches(batch_size=None, batch_format="pyarrow"))
    return pa.concat_tables(chunks) if chunks else None


def _brute_asof(left, right):
    out = {}
    for i in range(len(left["event_id"])):
        u, t = left["user_id"][i], left["ts"][i]
        best = None
        for j in range(len(right["event_id"])):
            if right["user_id"][j] == u and right["ts"][j] <= t:
                if best is None or right["ts"][j] > right["ts"][best]:
                    best = j
        out[int(left["event_id"][i])] = (
            None if best is None else int(right["event_id"][best]))
    return out


def _brute_range(left, right, lo, hi):
    out = set()
    for i in range(len(left["event_id"])):
        u, t = left["user_id"][i], left["ts"][i]
        for j in range(len(right["event_id"])):
            if right["user_id"][j] == u and \
                    t + lo <= right["ts"][j] < t + hi:
                out.add((int(left["event_id"][i]),
                         int(right["event_id"][j])))
    return out


@pytest.mark.parametrize("seed", [5, 6])
def test_asof_vs_bruteforce(ray_session, seed):
    from markdown_query_ray.pipelines.joins import asof_join

    left, right = _streams(seed)
    res = asof_join(_ds(left), _ds(right), key="user_id", ts="ts",
                    left_payload=["event_id"], right_payload=["event_id"])
    t = pa.concat_tables(list(res.iter_batches(batch_size=None,
                                               batch_format="pyarrow")))
    got = dict(zip(t.column("lp0").to_pylist(),
                   t.column("rp0").to_pylist()))
    assert got == _brute_asof(left, right)
    # every left row present exactly once
    assert t.num_rows == len(left["event_id"])
    # rt agrees with the picked right row's ts
    rts = dict(zip(right["event_id"].tolist(), right["ts"].tolist()))
    for eid, cid, cts in zip(t.column("lp0").to_pylist(),
                             t.column("rp0").to_pylist(),
                             t.column("rt").cast(pa.int64()).to_pylist()):
        assert cts == (None if cid is None else rts[cid])


@pytest.mark.parametrize("lo,hi", [(-86_400_000_000, 0),
                                   (0, 3_600_000_000),
                                   (-1_000_000, 1_000_000)])
def test_range_vs_bruteforce(ray_session, lo, hi):
    from markdown_query_ray.pipelines.joins import range_join

    left, right = _streams(11)
    res = range_join(_ds(left), _ds(right), key="user_id", ts="ts",
                     lo_us=lo, hi_us=hi,
                     left_payload=["event_id"], right_payload=["event_id"])
    t = _run(res)
    got = set() if t is None else set(
        zip(t.column("lp0").to_pylist(), t.column("rp0").to_pylist()))
    assert got == _brute_range(left, right, lo, hi)


def test_asof_equal_instant_matches(ray_session):
    """l.ts >= r.ts: a right row AT the left instant is eligible."""
    from markdown_query_ray.pipelines.joins import asof_join

    left = {"event_id": np.array([1], np.int64),
            "ts": np.array([1000], np.int64),
            "user_id": np.array([7], np.int64),
            "value": np.array([1.0])}
    right = {"event_id": np.array([2, 3], np.int64),
             "ts": np.array([1000, 900], np.int64),
             "user_id": np.array([7, 7], np.int64),
             "value": np.array([1.0, 2.0])}
    res = asof_join(_ds(left), _ds(right), left_payload=["event_id"],
                    right_payload=["event_id"])
    t = pa.concat_tables(list(res.iter_batches(batch_size=None,
                                               batch_format="pyarrow")))
    assert t.column("rp0").to_pylist() == [2]


def test_asof_no_rights_for_user(ray_session):
    from markdown_query_ray.pipelines.joins import asof_join

    left = {"event_id": np.array([1, 2], np.int64),
            "ts": np.array([1000, 2000], np.int64),
            "user_id": np.array([7, 8], np.int64),
            "value": np.array([1.0, 2.0])}
    right = {"event_id": np.array([9], np.int64),
             "ts": np.array([500], np.int64),
             "user_id": np.array([7], np.int64),
             "value": np.array([0.5])}
    res = asof_join(_ds(left), _ds(right), left_payload=["event_id"],
                    right_payload=["event_id"])
    t = pa.concat_tables(list(res.iter_batches(batch_size=None,
                                               batch_format="pyarrow")))
    got = dict(zip(t.column("lp0").to_pylist(), t.column("rp0").to_pylist()))
    assert got == {1: 9, 2: None}


def test_groupwise_topk_matches_window(ray_session):
    """Two-phase top-k == row_number() window semantics, regardless of
    batch boundaries (small override blocks force multi-batch combine)."""
    import ray.data

    from markdown_query_ray.pipelines.topk import groupwise_topk

    rng = np.random.Generator(np.random.PCG64(21))
    n = 2000
    key = rng.integers(0, 37, n)
    score = rng.integers(0, 50, n)
    t = pa.table({
        "k": pa.array(key, pa.int64()),
        "score": pa.array(score, pa.int64()),
        "rid": pa.array(np.arange(n), pa.int64()),
    })
    ds = ray.data.from_arrow(t).repartition(16)
    order = [("score", "descending"), ("rid", "ascending")]
    # k=100 exceeds every group (~54 rows): the whole group, ranked
    for k in (5, 100):
        res = groupwise_topk(ds, key="k", order=order, k=k)
        out = pa.concat_tables(list(res.iter_batches(
            batch_size=None, batch_format="pyarrow")))
        got = sorted(zip(out.column("k").to_pylist(),
                         out.column("rank").to_pylist(),
                         out.column("rid").to_pylist()))
        exp = []
        for kk in np.unique(key):
            rows = sorted(((-score[i], i) for i in range(n)
                           if key[i] == kk))
            exp.extend((int(kk), r + 1, int(rows[r][1]))
                       for r in range(min(k, len(rows))))
        assert got == sorted(exp), k
    with pytest.raises(ValueError, match="k must be >= 1"):
        groupwise_topk(ds, key="k", order=order, k=0)
