"""SearchSession: repeat-query caching gives identical results to the
one-shot search path, and the actor-pool deployment serves concurrently."""

from __future__ import annotations

import time

import pytest

from markdown_query_ray.config import BM25Params, QueryConfig
from markdown_query_ray.query import executor as qx
from markdown_query_ray.query.compiler import parse_user_query
from markdown_query_ray.query.session import SearchSession, make_search_actors

QUERIES = ["merge", "the fast merge", "merge AND sort",
           "merge AND NOT sort", "mer", '"fast merge"']


@pytest.fixture(scope="module")
def session(built_index):
    idx, _, _ = built_index
    return SearchSession(idx, QueryConfig(k=50, params=BM25Params.xapian()))


def test_session_matches_oneshot(built_index, session):
    idx, _, _ = built_index
    qcfg = QueryConfig(k=50, params=BM25Params.xapian())
    for q in QUERIES:
        want = qx.search(idx, parse_user_query(q), qcfg, distributed=False)
        got = session.search(q)
        assert got.equals(want), q


def test_repeat_query_uses_cache(session):
    session.search("merge OR sort")
    info1 = session.cache_info()
    assert info1["terms_cached"] > 0
    t0 = time.perf_counter()
    session.search("merge OR sort")
    warm = time.perf_counter() - t0
    info2 = session.cache_info()
    # no new postings decoded on the repeat
    assert info2["terms_cached"] == info1["terms_cached"]
    assert warm < 1.0


def test_keystroke_extension_reuses_postings(built_index):
    idx, _, _ = built_index
    fresh = SearchSession(idx, QueryConfig(k=50, params=BM25Params.xapian()))
    fresh.search("merge")
    before = fresh.cache_info()["terms_cached"]
    fresh.search("merge sort")  # extends the query; 'merge' lists reused
    after = fresh.cache_info()["terms_cached"]
    assert after > before  # new terms decoded...
    fresh.search("merge sort")
    assert fresh.cache_info()["terms_cached"] == after  # ...once


def test_count(session, built_index, pages_corpus):
    from .oracle import OracleIndex

    oracle = OracleIndex(pages_corpus)
    got = session.count("merge AND sort")
    a = set(oracle.postings.get("merge", {}))
    b = set(oracle.postings.get("sort", {}))
    assert got == len(a & b)


def test_run_query_set_matches_oneshot(ray_session, built_index):
    from markdown_query_ray.query.session import (
        REFERENCE_QUERY_SET,
        run_query_set,
    )

    idx, _, _ = built_index
    qcfg = QueryConfig(k=20, params=BM25Params.xapian())
    # reference set (mostly no-match on the pseudo-word corpus: exercises
    # empty paths) + corpus-matching queries (exercise real ranking)
    qset = REFERENCE_QUERY_SET + [
        "xqzrareuno OR xqzrareduo", "xqzraretri AND xqzrareduo",
        "merger", "uncle AND NOT at&t", '"1,000,000"',
    ]
    table = run_query_set(idx, qset, qcfg, k=20, concurrency=2)
    assert table.num_rows > 0
    empty = run_query_set(idx, [], qcfg, k=20, concurrency=2)
    assert empty.num_rows == 0 and empty.schema.equals(table.schema)
    local = SearchSession(idx, qcfg)
    for q in qset:
        import pyarrow.compute as pc

        got = table.filter(pc.equal(table.column("query"), q)) \
                   .sort_by("rank")
        want = local.search(q, k=20)
        assert got.column("doc_id").to_pylist() == \
            want.column("doc_id").to_pylist(), q
        assert got.column("score").to_pylist() == \
            pytest.approx(want.column("score").to_pylist()), q


def test_actor_pool_serving(ray_session, built_index):
    import ray

    idx, _, _ = built_index
    actors = make_search_actors(idx, 2,
                                QueryConfig(k=20, params=BM25Params.xapian()))
    outs = ray.get([a.search.remote(q) for a, q in
                    zip(actors * 3, QUERIES)])
    local = SearchSession(idx, QueryConfig(k=20, params=BM25Params.xapian()))
    for q, out in zip(QUERIES, outs):
        assert out.equals(local.search(q)), q
    for a in actors:
        ray.kill(a)


@pytest.mark.parametrize("k", [0, -1])
def test_k_below_one_rejected(built_index, k):
    idx, _, _ = built_index
    with pytest.raises(ValueError):
        QueryConfig(k=k)
    sess = SearchSession(idx, QueryConfig())
    with pytest.raises(ValueError):
        sess.search("merge OR sort", k=k)


def test_one_stats_read_per_term(built_index, monkeypatch):
    """Raw ``IndexReader.term_stats`` reads each term at most once: over a
    cold one-shot search, and over repeats of one session's search (the
    session's reader-level cache is the only term-stats cache)."""
    from collections import Counter

    from markdown_query_ray.index.reader import IndexReader

    idx, _, _ = built_index
    raw = IndexReader.term_stats
    raw_wc = IndexReader.expand_wildcard
    reads: Counter = Counter()
    calls: Counter = Counter()

    def counting(self, terms, prefixes=()):
        calls["term_stats"] += 1
        reads.update(set(terms))
        return raw(self, terms, prefixes=prefixes)

    def counting_wc(self, *args, **kwargs):
        calls["expand_wildcard"] += 1
        return raw_wc(self, *args, **kwargs)

    monkeypatch.setattr(IndexReader, "term_stats", counting)
    monkeypatch.setattr(IndexReader, "expand_wildcard", counting_wc)
    qcfg = QueryConfig(k=50, params=BM25Params.xapian())
    for q in ("the fast merge", "merge AND sort"):
        reads.clear()
        qx.search(idx, parse_user_query(q), qcfg, distributed=False)
        assert reads and max(reads.values()) == 1, (q, reads)

        reads.clear()
        sess = SearchSession(idx, qcfg)
        sess.search(q)
        sess.search(q)
        assert reads and max(reads.values()) == 1, (q, reads)

    # a multi-prefix partial query: every literal term and every wildcard
    # prefix resolves in ONE dictionary read, per bucket task or session;
    # warm (any bucket of the same session) it reads nothing
    node = parse_user_query("the fast merg")
    sess = SearchSession(idx, qcfg)
    calls.clear()
    sess.topk(node, bucket=0)
    assert calls == {"term_stats": 1}, calls
    calls.clear()
    sess.topk(node, bucket=0)
    sess.topk(node, bucket=1)
    sess.topk(node)
    assert not calls, calls
