"""Rank-identity tests: engine top-k (exhaustive AND WAND) vs the sequential
oracle, xapian + classic BM25 profiles, boolean algebra, synonym estimation.
"""

import numpy as np
import pyarrow as pa
import pytest

from markdown_query_ray.config import BM25Params, QueryConfig
from markdown_query_ray.index.reader import IndexReader
from markdown_query_ray.query.ast import (
    And,
    AndMaybe,
    AndNot,
    Filter,
    Or,
    Synonym,
    Term,
    Wildcard,
    Xor,
)
from markdown_query_ray.query.executor import (
    Evaluator,
    search,
    search_bucket,
    topk_from_scored,
)
from markdown_query_ray.query.scorer import synonym_termfreq_estimate

from .oracle import OracleIndex


@pytest.fixture(scope="module")
def oracle(pages_corpus):
    return OracleIndex(pages_corpus)


PROFILES = [BM25Params.xapian(), BM25Params.classic()]
QUERIES = [
    ["Zthe"],                      # stopword-grade stem (negative-idf floor)
    ["xqzrareuno"],                # df=1 rare term
    ["Zthe", "xqzraretri"],        # heavy AND-ed with rare (skew+prune path)
    ["Zfast", "Zmerg", "Zsort"],   # wait: fixture vocab is random; use real
]


def _fixture_terms(oracle, n=3):
    """Pick mid-frequency real terms from the corpus."""
    by_df = sorted(oracle.postings.items(), key=lambda kv: -len(kv[1]))
    mids = [t for t, d in by_df if 10 < len(d) < 300 and t[0] != "Z"]
    return mids[:n]


@pytest.mark.parametrize("params", PROFILES,
                         ids=["xapian", "classic"])
def test_or_rank_identity(built_index, oracle, params):
    index_dir, _, _ = built_index
    cases = [["Zthe"], ["xqzrareuno"], ["Zthe", "xqzraretri"],
             _fixture_terms(oracle, 4)]
    for terms in cases:
        expect = oracle.topk(oracle.score_or(terms, params), 100)
        node = Or(tuple(Term(t) for t in terms)) if len(terms) > 1 \
            else Term(terms[0])
        qcfg = QueryConfig(k=100, params=params, use_wand=False)
        got = search(index_dir, node, qcfg)
        got_pairs = list(zip(got.column("score").to_pylist(),
                             got.column("doc_id").to_pylist()))
        assert [d for _, d in got_pairs] == [d for _, d in expect], terms
        np.testing.assert_allclose([s for s, _ in got_pairs],
                                   [s for s, _ in expect], rtol=1e-12)


@pytest.mark.parametrize("params", PROFILES, ids=["xapian", "classic"])
def test_wand_matches_exhaustive(built_index, oracle, params):
    index_dir, _, _ = built_index
    cases = [["Zthe", "xqzraretri"], _fixture_terms(oracle, 5),
             ["Zthe", "Zand", "Zfor"]]
    for terms in cases:
        node = Or(tuple(Term(t) for t in terms))
        hits_ex = search_bucket(index_dir, node,
                                QueryConfig(k=50, params=params,
                                            use_wand=False), None)
        hits_wand = search_bucket(index_dir, node,
                                  QueryConfig(k=50, params=params,
                                              use_wand=True), None)
        assert [d for _, d in hits_wand] == [d for _, d in hits_ex], terms
        np.testing.assert_allclose([s for s, _ in hits_wand],
                                   [s for s, _ in hits_ex], rtol=1e-12)


def test_distributed_equals_local(built_index):
    index_dir, _, _ = built_index
    qcfg = QueryConfig(k=100, params=BM25Params.xapian())
    nodes = [
        Or((Term("Zthe"), Term("xqzraretri"))),
        And((Term("Zthe"), Term("Zand"))),
        # matches nothing: every bucket task returns an empty block, whose
        # schema must survive the merge
        Term("zzznosuchterm"),
    ]
    for node in nodes:
        for with_urls in (False, True):
            a = search(index_dir, node, qcfg, with_urls=with_urls,
                       distributed=True)
            b = search(index_dir, node, qcfg, with_urls=with_urls,
                       distributed=False)
            case = (node, with_urls)
            assert a.schema == b.schema, case
            assert a.equals(b), case
            if with_urls:
                assert a.schema.field("url").type == pa.string(), case


def test_boolean_ops_vs_oracle_sets(built_index, oracle):
    index_dir, _, _ = built_index
    reader = IndexReader(index_dir)
    ev = Evaluator(reader, BM25Params.xapian())
    t1, t2 = "Zthe", "Zand"
    d1 = set(oracle.postings.get(t1, {}))
    d2 = set(oracle.postings.get(t2, {}))

    assert set(ev.evaluate(And((Term(t1), Term(t2)))).ids.tolist()) == d1 & d2
    assert set(ev.evaluate(Or((Term(t1), Term(t2)))).ids.tolist()) == d1 | d2
    assert set(ev.evaluate(AndNot(Term(t1), Term(t2))).ids.tolist()) == d1 - d2
    assert set(ev.evaluate(Xor((Term(t1), Term(t2)))).ids.tolist()) == d1 ^ d2
    assert set(ev.evaluate(Filter(Term(t1), Term(t2))).ids.tolist()) == d1 & d2
    assert set(ev.evaluate(AndMaybe(Term(t1), Term(t2))).ids.tolist()) == d1


def test_filter_contributes_no_weight(built_index):
    index_dir, _, _ = built_index
    reader = IndexReader(index_dir)
    ev = Evaluator(reader, BM25Params.xapian())
    t1, t2 = "Zthe", "Zand"
    filt = ev.evaluate(Filter(Term(t1), Term(t2)))
    plain = ev.evaluate(Term(t1))
    lookup = dict(zip(plain.ids.tolist(), plain.scores.tolist()))
    for d, s in zip(filt.ids.tolist(), filt.scores.tolist()):
        assert s == lookup[d]  # identical to left-only score


def test_and_maybe_boosts(built_index):
    index_dir, _, _ = built_index
    reader = IndexReader(index_dir)
    ev = Evaluator(reader, BM25Params.xapian())
    t1, t2 = "Zthe", "Zand"
    am = ev.evaluate(AndMaybe(Term(t1), Term(t2)))
    left = ev.evaluate(Term(t1))
    right = ev.evaluate(Term(t2))
    rl = dict(zip(right.ids.tolist(), right.scores.tolist()))
    ll = dict(zip(left.ids.tolist(), left.scores.tolist()))
    for d, s in zip(am.ids.tolist(), am.scores.tolist()):
        assert s == pytest.approx(ll[d] + rl.get(d, 0.0), rel=1e-12)


def test_synonym_estimate_formula():
    # est = tf_l + tf_r - tf_l*tf_r/N, pairwise (orpostlist.cc:290-301)
    assert synonym_termfreq_estimate([], 100) == 0
    assert synonym_termfreq_estimate([10], 100) == 10
    assert synonym_termfreq_estimate([10, 20], 100) == 10 + 20 - 2
    assert synonym_termfreq_estimate([100, 100], 100) == 100  # clamped


def test_synonym_wdf_clamp_and_scoring(built_index, oracle):
    """Synonym over {term, its stem} must use summed wdf clamped to doclen
    and the estimated termfreq — cross-checked against a direct computation
    from the oracle's postings."""
    index_dir, _, _ = built_index
    reader = IndexReader(index_dir)
    params = BM25Params.xapian()
    ev = Evaluator(reader, params)
    terms = ["the", "Zthe"]
    node = Synonym(tuple(Term(t) for t in terms))
    got = ev.evaluate(node)

    freqs = [len(oracle.postings.get(t, {})) for t in terms]
    est = synonym_termfreq_estimate(freqs, oracle.n_docs)
    w = oracle.term_weight("__synthetic__", params) if False else None
    # direct: weight with estimated tf
    import math
    tw = (oracle.n_docs - est + 0.5) / (est + 0.5)
    if tw < 2:
        tw = tw * 0.5 + 1
    wt = math.log(tw) * ((params.k3 + 1) / (params.k3 + 1)) * (params.k1 + 1)
    docs = {}
    for t in terms:
        for d, tf in oracle.postings.get(t, {}).items():
            docs[d] = docs.get(d, 0) + tf
    exp = {}
    for d, wdf in docs.items():
        wdf = min(wdf, oracle.doclen[d])
        exp[d] = oracle.sumpart(params, wt, wdf, oracle.doclen[d])
    got_map = dict(zip(got.ids.tolist(), got.scores.tolist()))
    assert set(got_map) == set(exp)
    for d in exp:
        assert got_map[d] == pytest.approx(exp[d], rel=1e-12)


def test_wildcard_expansion(built_index, oracle):
    index_dir, _, _ = built_index
    reader = IndexReader(index_dir)
    expanded = reader.expand_wildcard("xqzrare")
    assert set(expanded) == {"xqzrareuno", "xqzrareduo", "xqzraretri"}
    ev = Evaluator(reader, BM25Params.xapian())
    got = ev.evaluate(Wildcard("xqzrare"))
    assert set(got.ids.tolist()) == {42, 43, 44, 45, 46, 47}


def test_empty_and_missing_terms(built_index):
    index_dir, _, _ = built_index
    reader = IndexReader(index_dir)
    ev = Evaluator(reader, BM25Params.xapian())
    out = ev.evaluate(Term("zzznosuchterm"))
    assert len(out.ids) == 0
    assert topk_from_scored(out, 10) == []


def test_tie_break_doc_id_asc(built_index, oracle):
    """Equal scores must order by ascending doc_id (msetcmp.cc:51-59).
    The planted df=3 term hits three docs with (likely) equal tf; verify
    relative order among equal scores."""
    index_dir, _, _ = built_index
    got = search(index_dir, Term("xqzraretri"),
                 QueryConfig(k=10, params=BM25Params.xapian()))
    ids = got.column("doc_id").to_pylist()
    scores = got.column("score").to_pylist()
    for i in range(1, len(ids)):
        if scores[i] == scores[i - 1]:
            assert ids[i] > ids[i - 1]
