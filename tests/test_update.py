"""Incremental upsert (index/update.py): delta segments + tombstones give
the reference's idempotent replace-by-url semantics with exact stats;
compaction folds back to a single segment with identical query results."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from markdown_query_ray.config import BM25Params, IndexConfig, QueryConfig
from markdown_query_ray.index.build import build_index
from markdown_query_ray.index.reader import IndexReader
from markdown_query_ray.index.update import (
    compact,
    load_segments,
    update_index,
)
from markdown_query_ray.query import executor as qx
from markdown_query_ray.query.ast import Or, Term

CFG = IndexConfig(tokenizer="simple", stem=False, num_term_parts=4,
                  num_doc_buckets=1, block_size=16)


def _pages(rows: list[tuple[str, str]], path: str, base_id: int = 0):
    urls = [u for u, _ in rows]
    t = pa.table({
        "url": pa.array(urls, pa.string()),
        "text": pa.array([x for _, x in rows], pa.string()),
        "doc_id": pa.array(np.arange(base_id, base_id + len(rows),
                                     dtype=np.uint64)),
    })
    pq.write_table(t, path)
    return t


@pytest.fixture()
def base_index(ray_session, tmp_path):
    import ray.data

    rows = [(f"u{i}", f"alpha beta doc{i}" + (" gamma" if i % 2 else ""))
            for i in range(20)]
    p = str(tmp_path / "base.parquet")
    _pages(rows, p)
    idx = str(tmp_path / "idx")
    ds = ray.data.read_parquet(p)
    build_index(idx, dataset=ds, cfg=CFG, total_docs=20)
    return idx, rows


def _search_ids(idx, term, k=100):
    out = qx.search(idx, Term(term), QueryConfig(k=k), distributed=False)
    return set(out.column("doc_id").to_pylist())


def test_index_with_another_codec_is_refused(base_index, tmp_path):
    """An index whose commit state records a payload codec other than
    varint fails loudly, naming it, wherever it is opened: the reader,
    an update, a delete and compaction; the index is left as it was."""
    import json

    import ray.data

    from markdown_query_ray.index.update import delete_documents

    idx, _ = base_index
    path = os.path.join(idx, "segments.json")
    with open(path) as f:
        segs = json.load(f)
    segs["global_stats"]["codec"] = "bitpack"
    with open(path, "w") as f:
        json.dump(segs, f)
    before = sorted(os.walk(idx))
    upd = str(tmp_path / "upd.parquet")
    _pages([("u1", "alpha new")], upd, base_id=20)
    opens = [lambda: IndexReader(idx),
             lambda: update_index(idx, dataset=ray.data.read_parquet(upd)),
             lambda: delete_documents(idx, ["u1"]),
             lambda: compact(idx, str(tmp_path / "compacted"))]
    for open_index in opens:
        with pytest.raises(ValueError, match="'bitpack'"):
            open_index()
    assert sorted(os.walk(idx)) == before


def test_update_and_compact_keep_payload_and_cjk_settings(ray_session,
                                                         tmp_path):
    """update_index / compact rebuild the base's config from its global
    stats: a store_payload + cjk_ngram index keeps storing payloads and
    indexing CJK n-grams for updated docs, and compaction keeps them."""
    import ray.data

    from markdown_query_ray.query.session import SearchSession

    cfg = IndexConfig(num_term_parts=2, num_doc_buckets=1, block_size=16,
                      store_payload=True, cjk_ngram=True)
    rows = [(f"u{i}", f"plain doc{i} 机器学习") for i in range(6)]
    p = str(tmp_path / "b.parquet")
    _pages(rows, p)
    idx = str(tmp_path / "idx")
    build_index(idx, dataset=ray.data.read_parquet(p), cfg=cfg,
                total_docs=6)
    p2 = str(tmp_path / "d.parquet")
    _pages([("u2", "changed 深度网络")], p2, base_id=6)
    update_index(idx, dataset=ray.data.read_parquet(p2))

    def check(index_dir):
        s = SearchSession(index_dir, QueryConfig(k=10))
        assert s.get_documents([6]) == {6: "changed 深度网络"}
        hits = s.search("深度", grammar="freetext-cjk")
        assert hits.column("doc_id").to_pylist() == [6]
        base = s.search("机器", grammar="freetext-cjk")
        assert sorted(base.column("doc_id").to_pylist()) == [0, 1, 3, 4, 5]

    check(idx)
    out = str(tmp_path / "cidx")
    compact(idx, out)
    check(out)


def test_empty_build(ray_session, tmp_path):
    """A 0-row build is an empty, searchable index that updates fill."""
    import ray.data

    empty = str(tmp_path / "empty.parquet")
    _pages([], empty)
    eidx = str(tmp_path / "eidx")
    g = build_index(eidx, dataset=ray.data.read_parquet(empty), cfg=CFG)
    assert (g["n_docs"], g["total_doclen"], g["wdf_ub_global"]) == (0, 0, 0)
    assert _search_ids(eidx, "alpha") == set()
    p = str(tmp_path / "rows.parquet")
    _pages([("u1", "alpha one"), ("u2", "alpha two")], p)
    g = update_index(eidx, dataset=ray.data.read_parquet(p))
    assert g["n_docs"] == 2
    assert _search_ids(eidx, "alpha") == {0, 1}


def test_empty_update_commits_empty_generation(base_index, tmp_path):
    """A 0-row update commits an empty generation: next_gen advances,
    n_docs and every result stay as they were."""
    import ray.data

    from markdown_query_ray.index.update import load_segments

    empty = str(tmp_path / "empty.parquet")
    _pages([], empty)
    idx, rows = base_index
    before = load_segments(idx)
    want = {t: _search_ids(idx, t) for t in ["alpha", "gamma", "doc3"]}
    g = update_index(idx, dataset=ray.data.read_parquet(empty))
    after = load_segments(idx)
    assert after["next_gen"] == before["next_gen"] + 1
    assert after["next_doc_id"] == before["next_doc_id"]
    assert g["n_docs"] == len(rows)
    assert IndexReader(idx).n_docs == len(rows)
    assert {t: _search_ids(idx, t) for t in want} == want


def test_update_adds_and_replaces(base_index, tmp_path):
    import ray.data

    idx, rows = base_index
    # u3 changes content (loses 'gamma', gains 'delta'); u100 is new
    p = str(tmp_path / "upd.parquet")
    _pages([("u3", "alpha delta replaced"), ("u100", "delta newcomer")],
           p, base_id=20)
    g = update_index(idx, dataset=ray.data.read_parquet(p))
    assert g["n_docs"] == 21  # 20 - 1 replaced + 2 new

    delta_ids = _search_ids(idx, "delta")
    assert delta_ids == {20, 21}
    # old u3 (doc 3, had 'gamma') is gone; other gamma docs remain
    gamma_ids = _search_ids(idx, "gamma")
    assert 3 not in gamma_ids
    assert gamma_ids == {i for i in range(20) if i % 2 and i != 3}
    # 'alpha' now matches 19 old + replacement
    alpha_ids = _search_ids(idx, "alpha")
    assert alpha_ids == (set(range(20)) - {3}) | {20}


def test_update_crash_before_commit_is_idempotent(base_index, tmp_path):
    """segments.json is the atomic commit point. Simulate a crash AFTER the
    segment build / tombstones / global_stats.json write but BEFORE the
    segments.json write, then re-run the same update: stats must not
    double-count, replaced docs must stay dead, and results must equal a
    clean single-run update."""
    import json
    import shutil

    import ray.data

    idx, rows = base_index
    p = str(tmp_path / "upd.parquet")
    _pages([("u3", "alpha delta replaced"), ("u100", "delta newcomer")],
           p, base_id=20)

    seg_path = os.path.join(idx, "segments.json")
    pre_segments = open(seg_path).read()
    g = update_index(idx, dataset=ray.data.read_parquet(p))
    # rewind ONLY the commit point — everything else (segment dir,
    # tombstones, deltas, global_stats.json) is the crashed state
    with open(seg_path, "w") as f:
        f.write(pre_segments)

    g2 = update_index(idx, dataset=ray.data.read_parquet(p))
    assert g2["n_docs"] == g["n_docs"] == 21
    assert g2["total_doclen"] == g["total_doclen"]
    assert _search_ids(idx, "delta") == {20, 21}
    gamma_ids = _search_ids(idx, "gamma")
    assert 3 not in gamma_ids  # replaced doc must stay tombstoned
    assert _search_ids(idx, "alpha") == (set(range(20)) - {3}) | {20}


def test_reader_sees_committed_generations_only(base_index, tmp_path):
    """In the crash state above (an update replacing u3 wrote its segment,
    tombstones, deltas and global_stats.json, but segments.json was never
    swapped) readers answer from the committed index: doc 3 still matches,
    n_docs and termfreq count the 20 committed docs."""
    import ray.data

    idx, rows = base_index
    seg_path = os.path.join(idx, "segments.json")
    pre_segments = open(seg_path).read()
    p = str(tmp_path / "upd.parquet")
    _pages([("u3", "alpha delta replaced"), ("u100", "delta newcomer")],
           p, base_id=20)
    update_index(idx, dataset=ray.data.read_parquet(p))
    with open(seg_path, "w") as f:  # rewind the commit point
        f.write(pre_segments)

    assert _search_ids(idx, "alpha") == set(range(20))
    assert _search_ids(idx, "delta") == set()
    r = IndexReader(idx)
    assert r.n_docs == 20
    assert len(r.tombstones) == 0
    assert r.term_stats(["alpha"])["alpha"]["termfreq"] == 20
    assert r.term_stats(["gamma"])["gamma"]["termfreq"] == 10


def test_crashed_segment_with_different_input_not_reused(base_index,
                                                         tmp_path):
    """If update A crashes before commit and the user instead runs update B
    with different docs, B must not silently reuse A's staged segment
    (whose _SUCCESS marker would short-circuit B's build): A's docs stay
    out, B's docs get indexed."""
    import ray.data

    idx, rows = base_index
    seg_path = os.path.join(idx, "segments.json")
    pre_segments = open(seg_path).read()

    pa_ = str(tmp_path / "a.parquet")
    _pages([("u200", "zebrafirst abandoned")], pa_, base_id=20)
    update_index(idx, dataset=ray.data.read_parquet(pa_))
    with open(seg_path, "w") as f:  # rewind the commit point: A "crashed"
        f.write(pre_segments)

    pb = str(tmp_path / "b.parquet")
    _pages([("u201", "yaksecond committed")], pb, base_id=20)
    update_index(idx, dataset=ray.data.read_parquet(pb))
    assert _search_ids(idx, "yaksecond") == {20}
    assert _search_ids(idx, "zebrafirst") == set()


def test_compact_next_doc_id_skips_live_ids(base_index, tmp_path):
    """Compaction preserves doc_ids across tombstone holes; a later update
    on the compacted index must allocate ids ABOVE the live maximum, not at
    n_docs (which a replaced doc makes a live id)."""
    import ray.data

    idx, rows = base_index
    p = str(tmp_path / "upd.parquet")
    _pages([("u3", "alpha delta replaced")], p, base_id=20)
    update_index(idx, dataset=ray.data.read_parquet(p))
    # live ids now {0..19}-{3} + {20}: n_docs == 20 but max live id == 20
    out2 = str(tmp_path / "compacted")
    compact(idx, out2)
    p2 = str(tmp_path / "upd2.parquet")
    _pages([("u300", "omega fresh")], p2, base_id=0)  # ids reassigned inside
    import json

    with open(os.path.join(out2, "segments.json")) as f:
        next_id = json.load(f)["next_doc_id"]
    assert next_id == 21  # max live id 20 + 1, NOT n_docs == 20

    from markdown_query_ray.sources.pages import read_pages  # noqa: F401

    upd = pa.table({
        "url": pa.array(["u300"], pa.string()),
        "text": pa.array(["omega fresh"], pa.string()),
        "doc_id": pa.array([next_id], pa.uint64()),
    })
    update_index(out2, dataset=ray.data.from_arrow(upd))
    assert _search_ids(out2, "omega") == {21}
    assert _search_ids(out2, "delta") == {20}  # untouched live doc


def test_update_past_stripe_wrap_keeps_blocks_sorted(ray_session, tmp_path):
    """With S>1 doc-buckets, an update that pushes ids past dpb*S makes a
    bucket's id set multiple disjoint stripes. Posting blocks must not span
    a stripe wrap: a spanning block's [first,last] range would overlap the
    OTHER bucket's blocks and whole-index reads (bucket=None, sorted by
    first_doc_id) would feed non-monotone doc_ids into the searchsorted
    AND/WAND paths — silently wrong results."""
    import ray.data

    from markdown_query_ray.index.codec import decode_blocks
    from markdown_query_ray.query.ast import And

    cfg = IndexConfig(tokenizer="simple", stem=False, num_term_parts=2,
                      num_doc_buckets=2, block_size=16)
    rows = [(f"u{i}", "alpha" + (" beta" if i % 2 else ""))
            for i in range(10)]
    p = str(tmp_path / "base.parquet")
    _pages(rows, p)
    idx = str(tmp_path / "idx")
    build_index(idx, dataset=ray.data.read_parquet(p), cfg=cfg,
                total_docs=10)  # dpb = 5: bucket0 owns [0,5)+[10,15)+...
    upd = [(f"u{i}", "alpha" + (" beta" if i % 2 else ""))
           for i in range(10, 25)]
    p2 = str(tmp_path / "upd.parquet")
    _pages(upd, p2, base_id=10)
    update_index(idx, dataset=ray.data.read_parquet(p2))

    reader = IndexReader(idx)
    blocks = reader.load_blocks(["alpha", "beta"], bucket=None)
    ids, _, _, _ = decode_blocks(blocks)
    terms = blocks.column("term").to_pylist()
    ns = blocks.column("n").to_pylist()
    flat_terms = np.repeat(np.asarray(terms, object), ns)
    for t in ("alpha", "beta"):
        tids = ids[flat_terms == t]
        assert np.all(np.diff(tids.astype(np.int64)) > 0), \
            f"non-monotone doc_ids for {t!r}: {tids.tolist()}"

    assert _search_ids(idx, "alpha") == set(range(25))
    out = qx.search(idx, And((Term("alpha"), Term("beta"))),
                    QueryConfig(k=100), distributed=False)
    assert set(out.column("doc_id").to_pylist()) == set(range(1, 25, 2))


def test_spelling_sees_update_segments(base_index, tmp_path):
    """load_spelling reads the committed dictionary, every segment plus
    the fold: terms added by an update get suggested, and terms whose
    every holder was replaced or deleted drop out (here across two
    generations and a delete, so only the folded deltas reach termfreq
    0)."""
    import ray.data

    from markdown_query_ray.index.update import delete_documents
    from markdown_query_ray.query.spelling import SpellingIndex, load_spelling

    idx, rows = base_index
    # replace every gamma-holding doc (odd ids) over two generations and
    # add a new-term doc; then delete the one holder of 'doc4'
    upd = [(f"u{i}", f"alpha beta doc{i}") for i in range(1, 10, 2)]
    upd.append(("u500", "zebrafish alpha"))
    p = str(tmp_path / "upd.parquet")
    _pages(upd, p, base_id=20)
    update_index(idx, dataset=ray.data.read_parquet(p))
    p = str(tmp_path / "upd2.parquet")
    _pages([(f"u{i}", f"alpha beta doc{i}") for i in range(11, 20, 2)], p,
           base_id=26)
    update_index(idx, dataset=ray.data.read_parquet(p))
    delete_documents(idx, ["u4"])

    sp = load_spelling(idx)
    assert "gamma" not in sp.freqs          # all holders replaced
    assert "doc4" not in sp.freqs           # its one holder deleted
    assert sp.freqs.get("zebrafish", 0) > 0  # update-only term present
    assert sp.suggest("zebrafsh") == "zebrafish"
    assert sp.freqs == SpellingIndex({
        t: s["collfreq"]
        for t, s in IndexReader(idx).all_term_stats().items()}).freqs


def test_update_exact_term_stats(base_index, tmp_path):
    import ray.data

    idx, rows = base_index
    p = str(tmp_path / "upd.parquet")
    _pages([("u3", "alpha delta replaced")], p, base_id=20)
    update_index(idx, dataset=ray.data.read_parquet(p))
    reader = IndexReader(idx)
    st = reader.term_stats(["alpha", "gamma", "delta", "doc3"])
    assert st["alpha"]["termfreq"] == 20  # 19 survivors + replacement
    assert st["gamma"]["termfreq"] == 9   # doc 3's gamma removed
    assert st["delta"]["termfreq"] == 1
    assert "doc3" not in st               # df fell to 0: term is dead
    assert reader.expand_wildcard("doc3") == []
    # the session's one-read resolution drops the dead term the same way
    from markdown_query_ray.query.ast import Wildcard
    from markdown_query_ray.query.session import SearchSession

    sess = SearchSession(idx)
    assert sess.topk(Or((Wildcard("doc3"), Wildcard("doc3", 100, True),
                         Term("alpha")))) != []
    assert sess.reader.expand_wildcard("doc3") == []
    assert sess.reader.expand_wildcard("doc3", 100, True) == []
    assert reader.n_docs == 20
    # avg doclen is exact: doc3 had 4 tokens, replacement has 3
    doclens = [len(t.split()) for _, t in rows]
    want = (sum(doclens) - doclens[3] + 3) / 20
    assert reader.avg_doclen == pytest.approx(want)


def test_update_idempotent_rerun(base_index, tmp_path):
    import ray.data

    idx, _ = base_index
    for gen in range(2):  # same content twice: second run replaces first
        p = str(tmp_path / f"upd{gen}.parquet")
        _pages([("u5", "omega rewrite")], p, base_id=20 + gen)
        update_index(idx, dataset=ray.data.read_parquet(p))
    assert _search_ids(idx, "omega") == {21}  # only the newest version
    reader = IndexReader(idx)
    assert reader.n_docs == 20
    assert reader.term_stats(["omega"])["omega"]["termfreq"] == 1


def test_compact_preserves_results(base_index, tmp_path):
    import ray.data

    idx, _ = base_index
    p = str(tmp_path / "upd.parquet")
    _pages([("u3", "alpha delta replaced"), ("u100", "delta newcomer")],
           p, base_id=20)
    update_index(idx, dataset=ray.data.read_parquet(p))

    out = str(tmp_path / "compacted")
    g = compact(idx, out)
    assert g["n_docs"] == 21
    node = Or((Term("alpha"), Term("gamma"), Term("delta")))
    before = qx.search(idx, node, QueryConfig(k=100), distributed=False)
    after = qx.search(out, node, QueryConfig(k=100), distributed=False)
    assert before.equals(after)
    # compacted index has no segments/tombstones
    r = IndexReader(out)
    assert r.segments == ["."] and len(r.tombstones) == 0


def test_compact_twice_into_same_out_dir(base_index, tmp_path):
    """A second compact into the same out_dir writes the index's current
    state, not the first compact's: a later update's new word is found,
    and the doc it replaced no longer matches."""
    import ray.data

    idx, _ = base_index
    out = str(tmp_path / "compacted")
    p = str(tmp_path / "u3.parquet")
    _pages([("u3", "alpha delta replaced")], p, base_id=20)
    update_index(idx, dataset=ray.data.read_parquet(p))
    compact(idx, out)
    assert _search_ids(out, "zeta") == set()
    p = str(tmp_path / "u5.parquet")
    _pages([("u5", "alpha zeta replaced")], p, base_id=21)
    update_index(idx, dataset=ray.data.read_parquet(p))
    g = compact(idx, out)
    assert g["n_docs"] == 20
    assert _search_ids(out, "zeta") == {21}
    assert _search_ids(out, "gamma") == \
        {i for i in range(20) if i % 2 and i not in (3, 5)}
    assert _search_ids(out, "alpha") == _search_ids(idx, "alpha")


def test_compact_rejects_overlapping_out_dir(base_index, tmp_path):
    """compact refuses an out_dir that is the index, lies inside it or
    holds it (the check resolves symlinks), and leaves the index as it
    was."""
    import ray.data

    idx, _ = base_index
    p = str(tmp_path / "upd.parquet")
    _pages([("u3", "alpha delta replaced")], p, base_id=20)
    update_index(idx, dataset=ray.data.read_parquet(p))
    want = {t: _search_ids(idx, t) for t in ("alpha", "gamma", "delta")}
    link = str(tmp_path / "link")
    os.symlink(idx, link)
    for out in (idx, link, os.path.join(idx, "sub"), str(tmp_path)):
        with pytest.raises(ValueError, match="overlap"):
            compact(idx, out)
    assert {t: _search_ids(idx, t) for t in want} == want
    assert not os.path.exists(os.path.join(idx, "sub"))


def test_wand_on_updated_index(base_index, tmp_path):
    """Block-max WAND bounds stay valid when blocks contain tombstoned
    postings (bounds only overestimate)."""
    import ray.data

    idx, _ = base_index
    p = str(tmp_path / "upd.parquet")
    _pages([("u3", "alpha delta replaced")], p, base_id=20)
    update_index(idx, dataset=ray.data.read_parquet(p))
    node = Or((Term("alpha"), Term("gamma")))
    wand = qx.search(idx, node, QueryConfig(k=10, use_wand=True),
                     distributed=False)
    exact = qx.search(idx, node, QueryConfig(k=10, use_wand=False),
                      distributed=False)
    assert wand.equals(exact)


def test_update_with_idless_url_dataset(base_index, tmp_path):
    """The documented input shape "a Dataset with url + text" (no doc_id):
    ids are derived deterministically by url rank, continuing the index's
    id space (assign_doc_ids via build_index(id_base=next_doc_id))."""
    import ray.data

    idx, rows = base_index
    t = pa.table({
        "url": pa.array(["u3", "new_a", "new_b"]),
        "text": pa.array(["replaced gamma text", "fresh delta", "fresh eps"]),
    })
    p = str(tmp_path / "upd_noid.parquet")
    pq.write_table(t, p)
    update_index(idx, dataset=ray.data.read_parquet(p))

    r = IndexReader(idx)
    # 20 base + 3 new, one base doc (u3) tombstoned
    assert r.n_docs == 22
    assert _search_ids(idx, "delta") and _search_ids(idx, "eps")
    assert _search_ids(idx, "replaced")
    # replaced doc's old id no longer matches its old content
    assert 3 not in _search_ids(idx, "doc3")
    # new ids continue the id space deterministically (url rank order)
    new_ids = _search_ids(idx, "fresh")
    assert new_ids == {20, 21}  # new_a < new_b < u3 in url sort order


def test_positional_update_and_compact_rank_identity(ray_session, tmp_path):
    """PHRASE/NEAR over an updated positional index (and its compaction)
    must rank-identically to a fresh positional build of the merged corpus
    — positions ride through delta segments, tombstones, and compact."""
    import ray.data

    from markdown_query_ray.query.ast import Phrase

    pcfg = IndexConfig(tokenizer="simple", stem=False, num_term_parts=4,
                       num_doc_buckets=2, block_size=16, positions=True)
    rows = [(f"u{i}", f"alpha beta doc{i} alpha gamma beta")
            for i in range(30)]
    p = str(tmp_path / "base.parquet")
    _pages(rows, p)
    idx = str(tmp_path / "idx")
    build_index(idx, dataset=ray.data.read_parquet(p), cfg=pcfg,
                total_docs=30)

    # update: replace half the urls with REORDERED text (phrase set must
    # change), add new docs containing the phrase
    upd_rows = [(f"u{i}", f"beta alpha doc{i} gamma") for i in range(15)] + \
               [(f"v{i}", f"alpha beta fresh{i}") for i in range(10)]
    upd = pa.table({
        "url": pa.array([u for u, _ in upd_rows], pa.string()),
        "text": pa.array([t for _, t in upd_rows], pa.string()),
    })
    update_index(idx, dataset=ray.data.from_arrow(upd))

    # fresh rebuild of the logically-equivalent corpus, ids matching the
    # update's id assignment (survivors keep ids; replacements/new get
    # 30.. in sorted-url order — reproduce via the same assign path)
    from markdown_query_ray.sources.pages import assign_doc_ids

    merged_rows = [(u, t) for u, t in rows if int(u[1:]) >= 15]
    live = pa.table({
        "url": pa.array([u for u, _ in merged_rows], pa.string()),
        "text": pa.array([t for _, t in merged_rows], pa.string()),
        "doc_id": pa.array([np.uint64(int(u[1:]))
                            for u, _ in merged_rows]),
    })
    newpart = assign_doc_ids(
        ray.data.from_arrow(upd), id_base=30)
    fresh = str(tmp_path / "fresh")
    build_index(fresh,
                dataset=ray.data.from_arrow(live).union(newpart),
                cfg=pcfg)

    compacted = str(tmp_path / "compacted")
    compact(idx, compacted)

    qcfg = QueryConfig(k=100, params=BM25Params.xapian())
    for node in (Phrase(("alpha", "beta")),
                 Phrase(("beta", "alpha")),
                 Phrase(("alpha", "gamma"), window=4, ordered=False)):
        want = qx.search(fresh, node, qcfg, distributed=False)
        for which in (idx, compacted):
            got = qx.search(which, node, qcfg, distributed=False)
            assert got.column("doc_id").to_pylist() == \
                want.column("doc_id").to_pylist(), (which, node)
            assert np.allclose(got.column("score").to_numpy(),
                               want.column("score").to_numpy(),
                               rtol=1e-9), (which, node)


def test_update_dataset_fn_file_rank_ids(base_index, tmp_path):
    """File-backed updates via dataset_fn skip the assign_doc_ids sort:
    ids continue the index's id space in (file order, record order), are
    identical across repeated runs, and upsert semantics hold."""
    from markdown_query_ray.fixtures import write_warc_corpus
    from markdown_query_ray.sources.warc import read_warc

    idx, rows = base_index
    warcs = write_warc_corpus(str(tmp_path / "w"), n_docs=12, n_files=3)

    calls = []

    def fn(base):
        calls.append(base)
        return read_warc(warcs, id_base=base)

    g = update_index(idx, dataset_fn=fn)
    assert calls == [20]  # factory got the index's next free id
    # ids are file-rank: page-000's urls get 20..23, page-001 24..27, ...
    r = IndexReader(idx)
    seg_tok = os.path.join(idx, "updates", "gen-0001", "tokenized")
    import pyarrow.dataset as pads
    t = pads.dataset(seg_tok).to_table(columns=["doc_id", "url"])
    got = dict(zip(t.column("url").to_pylist(),
                   t.column("doc_id").to_pylist()))
    want_ids = {}
    base = 20
    for w in sorted(warcs):
        from markdown_query_ray.sources.warc import response_rows
        with open(w, "rb") as f:
            urls, _, _ = response_rows(f.read())
        for u in urls:
            want_ids[u] = base
            base += 1
    assert got == want_ids
    assert g["n_docs"] == 20 + 12  # disjoint url spaces: no replacement

    # determinism: a second identical update onto a fresh copy of the same
    # base assigns the same ids (no sort-order or partitioning dependence)
    import shutil
    idx2 = str(tmp_path / "idx2")
    # rebuild the same base (base_index fixture's corpus) from scratch
    import ray.data
    p = str(tmp_path / "base2.parquet")
    _pages(rows, p)
    build_index(idx2, dataset=ray.data.read_parquet(p), cfg=CFG,
                total_docs=len(rows))
    update_index(idx2, dataset_fn=lambda b: read_warc(warcs, id_base=b))
    t2 = pads.dataset(os.path.join(idx2, "updates", "gen-0001",
                                   "tokenized")).to_table(
        columns=["doc_id", "url"])
    got2 = dict(zip(t2.column("url").to_pylist(),
                    t2.column("doc_id").to_pylist()))
    assert got2 == want_ids


def test_stats_deltas_distributed_matches_local(base_index, tmp_path,
                                                monkeypatch):
    """The Ray task-pool per-file delta path must produce the identical
    delta table as the local loop (same files, same replaced ids)."""
    import markdown_query_ray.index.update as up

    idx, rows = base_index
    segs = up.load_segments(idx)
    ids = np.array([1, 3, 7, 19], np.uint64)
    local = up._stats_deltas_for(idx, segs, ids)
    monkeypatch.setattr(up, "_DELTA_DRIVER_FILES", 0)
    dist = up._stats_deltas_for(idx, segs, ids)
    ls = local.sort_by("term").to_pylist()
    ds_ = dist.sort_by("term").to_pylist()
    assert ls == ds_
    assert len(ls) > 0


# ---------------------------------------------------------------------------
# delete_documents (round 4): tombstone-only generations
# ---------------------------------------------------------------------------

def _scores(idx, terms, k=100):
    out = qx.search(idx, Or([Term(t) for t in terms]),
                    QueryConfig(k=k, params=BM25Params.classic()),
                    distributed=False)
    return {d: round(s, 9) for d, s in
            zip(out.column("doc_id").to_pylist(),
                out.column("score").to_pylist())}


def test_delete_documents_basic(base_index, tmp_path):
    from markdown_query_ray.index.update import delete_documents

    idx, rows = base_index
    g = delete_documents(idx, ["u3", "u7", "u-nonexistent"])
    assert g["n_docs"] == 18
    assert _search_ids(idx, "alpha") == set(range(20)) - {3, 7}
    assert _search_ids(idx, "doc3") == set()


def test_delete_exact_stats_rank_identical_to_fresh_build(
        base_index, tmp_path):
    """With stats_mode='exact', BM25 scores over the deleted index match
    a from-scratch build over the surviving docs bit-for-bit (same
    doc_ids, same n_docs/avg_doclen/termfreq)."""
    import ray.data

    from markdown_query_ray.index.update import delete_documents

    idx, rows = base_index
    dead = {"u0", "u5", "u11"}
    delete_documents(idx, sorted(dead))
    live_rows = [(u, t) for u, t in rows if u not in dead]
    live_ids = [i for i, (u, _) in enumerate(rows) if u not in dead]
    p = str(tmp_path / "live.parquet")
    t = pa.table({
        "url": pa.array([u for u, _ in live_rows], pa.string()),
        "text": pa.array([x for _, x in live_rows], pa.string()),
        "doc_id": pa.array(np.asarray(live_ids, np.uint64)),
    })
    pq.write_table(t, p)
    fresh = str(tmp_path / "fresh_idx")
    build_index(fresh, dataset=ray.data.read_parquet(p), cfg=CFG,
                total_docs=len(live_rows))
    assert _scores(idx, ["alpha", "gamma"]) == \
        _scores(fresh, ["alpha", "gamma"])


def test_delete_then_reinsert_same_url(base_index, tmp_path):
    import ray.data

    from markdown_query_ray.index.update import delete_documents

    idx, rows = base_index
    delete_documents(idx, ["u4"])
    assert _search_ids(idx, "doc4") == set()
    p = str(tmp_path / "re.parquet")
    _pages([("u4", "alpha reborn doc4")], p, base_id=20)
    update_index(idx, dataset=ray.data.read_parquet(p))
    assert _search_ids(idx, "reborn") == {20}
    assert _search_ids(idx, "doc4") == {20}
    with open(os.path.join(idx, "global_stats.json")) as f:
        import json
        assert json.load(f)["n_docs"] == 20


def test_delete_crash_rerun_idempotent(base_index, tmp_path):
    """A crash after the tombstone write but before the segments.json
    commit re-runs the same generation and converges to the same state."""
    import json

    from markdown_query_ray.index.update import (
        delete_documents,
        load_segments,
    )

    idx, rows = base_index
    segs_before = json.dumps(load_segments(idx), sort_keys=True)
    # simulate the crashed first attempt: tombstones written, no commit
    g1 = delete_documents(idx, ["u2", "u9"])
    # roll the commit back (as if the segments.json write never landed)
    segs = json.loads(segs_before)
    with open(os.path.join(idx, "segments.json"), "w") as f:
        json.dump(segs, f)
    g2 = delete_documents(idx, ["u2", "u9"])
    assert g2["n_docs"] == g1["n_docs"] == 18
    assert _search_ids(idx, "alpha") == set(range(20)) - {2, 9}
    ts_dir = os.path.join(idx, "tombstones")
    ids = pq.read_table(os.path.join(
        ts_dir, "gen-0001.parquet")).column("doc_id").to_pylist()
    assert sorted(ids) == [2, 9]


def test_compact_after_delete(base_index, tmp_path):
    from markdown_query_ray.index.update import (
        compact,
        delete_documents,
    )

    idx, rows = base_index
    delete_documents(idx, ["u1", "u18"])
    out = str(tmp_path / "cidx")
    compact(idx, out)
    assert _search_ids(out, "alpha") == set(range(20)) - {1, 18}
    assert _scores(idx, ["alpha", "gamma"]) == \
        _scores(out, ["alpha", "gamma"])
