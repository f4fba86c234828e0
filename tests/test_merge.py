"""Segment merging inside update_index (index/update.py): the size-tiered
policy, the shuffle-free merge kernel and its three-step commit."""

from __future__ import annotations

import json
import os
import re
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import markdown_query_ray.index.update as up
from markdown_query_ray import checkpoint
from markdown_query_ray.config import BM25Params, IndexConfig, QueryConfig
from markdown_query_ray.index.build import build_index
from markdown_query_ray.index.reader import IndexReader
from markdown_query_ray.query import executor as qx
from markdown_query_ray.query.ast import And, Or, Phrase, Term

QCFG = QueryConfig(k=100, params=BM25Params.classic())
QUERIES = (Term("alpha"), Term("gamma"), Or((Term("beta"), Term("rev"))),
           And((Term("alpha"), Term("gamma"))))


def _table(rows: list[tuple[str, str]], base_id: int) -> pa.Table:
    return pa.table({
        "url": pa.array([u for u, _ in rows], pa.string()),
        "text": pa.array([t for _, t in rows], pa.string()),
        "doc_id": pa.array(np.arange(base_id, base_id + len(rows),
                                     dtype=np.uint64)),
    })


def _base_rows(n: int) -> list[tuple[str, str]]:
    return [(f"u{i}", f"alpha beta doc{i}" + (" gamma" if i % 2 else "")
             + (" alpha" if i % 3 == 0 else "")) for i in range(n)]


def _batch(g: int) -> list[tuple[str, str]]:
    """Generation g (1-based): one new url and one replaced base url."""
    return [(f"n{g}", f"alpha rev gamma new{g}"),
            (f"u{g - 1}", f"beta rev{g} alpha alpha")]


def _build(idx: str, rows, cfg: IndexConfig) -> None:
    import ray.data

    build_index(idx, dataset=ray.data.from_arrow(_table(rows, 0)), cfg=cfg,
                total_docs=len(rows))


def _update(idx: str, g: int) -> None:
    import ray.data

    base = up.load_segments(idx)["next_doc_id"]
    up.update_index(idx, dataset=ray.data.from_arrow(_table(_batch(g), base)))


def _hits(idx: str) -> list[dict]:
    out = []
    for node in QUERIES:
        t = qx.search(idx, node, QCFG, distributed=False, with_urls=True)
        out.append({u: round(s, 9) for u, s in zip(
            t.column("url").to_pylist(), t.column("score").to_pylist())})
    return out


def _reader_view(idx: str) -> dict:
    """Everything a reader answers about the live docs and terms."""
    r = IndexReader(idx)
    ids = r.doc_ids_in_bucket(None)
    every = sorted(r.term_stats([], prefixes=[""]))
    view = {"stats": r.term_stats(every), "ids": ids.tolist(),
            "urls": r.urls_for(ids.tolist()),
            "payloads": r.payloads_for(ids.tolist()),
            "n_docs": r.n_docs, "avg_doclen": r.avg_doclen}
    for b in range(r.S):
        view[f"bucket{b}"] = r.doc_ids_in_bucket(b).tolist()
    return view


def _without_wdf_ub(view: dict) -> dict:
    return dict(view, stats={t: (s["termfreq"], s["collfreq"])
                             for t, s in view["stats"].items()})


def _live_max_wdf(idx: str) -> dict[str, int]:
    """Brute-force max wdf per term over the live tokenized rows."""
    segs = up.load_segments(idx)
    dead = set(up.dead_ids(idx, segs["fold"]).tolist())
    out: dict[str, int] = {}
    for p in (f for s in segs["segments"] for f in
              up._parquet_files(os.path.join(idx, s, "tokenized"))):
        t = pq.read_table(p, columns=["doc_id", "terms", "tfs"])
        for d, terms, tfs in zip(*(t.column(c).to_pylist()
                                   for c in t.column_names)):
            if d not in dead:
                for term, tf in zip(terms, tfs):
                    out[term] = max(out.get(term, 0), tf)
    return out


def _no_merge(monkeypatch):
    monkeypatch.setattr(up, "_merge_tail", lambda index_dir, segs: segs)


def test_merge_run_policy():
    """The trailing run grows while its docs reach 1/MERGE_FACTOR of the
    next older segment; a lone segment is never a run."""
    assert up.merge_run([]) is None
    assert up.merge_run([10]) is None
    assert up.merge_run([10, 2]) is None
    assert up.merge_run([10, 2, 2]) == (1, 3)
    assert up.merge_run([10, 4, 2]) == (0, 3)
    assert up.merge_run([10, 6, 2]) is None
    assert up.merge_run([18, 4, 2]) == (1, 3)


def test_policy_segment_counts_and_live_results(ray_session, tmp_path):
    """Ten generations of 2 docs over a 10-doc base (the refresh shape at
    1/150 scale): the segment count after each update's commit and merge
    is pinned, and every generation answers like a from-scratch build of
    the live corpus."""
    cfg = IndexConfig(tokenizer="simple", stem=False, num_term_parts=2,
                      num_doc_buckets=2, block_size=4)
    rows = _base_rows(10)
    idx = str(tmp_path / "idx")
    _build(idx, rows, cfg)
    live = dict(rows)
    counts = []
    for g in range(1, 11):
        _update(idx, g)
        counts.append(len(up.load_segments(idx)["segments"]))
        live.update(_batch(g))
        if g in (4, 9, 10):
            ref = str(tmp_path / f"ref{g}")
            _build(ref, sorted(live.items()), cfg)
            assert _hits(idx) == _hits(ref), g
    assert counts == [2, 3, 3, 2, 3, 3, 3, 4, 2, 3]
    # everything before generation 9 folded into m-0009 at its commit;
    # every generation keeps its build record, retired ones hold no data
    segs = up.load_segments(idx)
    assert segs["segments"] == ["merged/m-0009", "updates/gen-0009",
                                "updates/gen-0010"]
    for g in range(1, 11):
        d = os.path.join(idx, "updates", f"gen-{g:04d}")
        assert os.path.exists(os.path.join(d, "_metrics.json"))
        assert os.path.isdir(os.path.join(d, "postings")) == (g >= 9)
    assert not os.path.exists(os.path.join(idx, "postings"))
    assert os.listdir(os.path.join(idx, "merged")) == ["m-0009"]


def _rebuild(idx: str, out: str) -> dict:
    """The reference for compact: a from-scratch build_index over the live
    tokenized rows of the committed segments, re-shuffled."""
    import ray.data

    segs = up.load_segments(idx)
    dead = up.dead_ids(idx, segs["fold"])

    def drop_dead(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy().astype(np.uint64)
        return batch.filter(pa.array(~np.isin(ids, dead)))

    ds = ray.data.read_parquet(
        [os.path.join(idx, s, "tokenized") for s in segs["segments"]],
        file_extensions=["parquet"]).map_batches(drop_dead,
                                                 batch_format="pyarrow")
    return build_index(out, dataset=ds,
                       cfg=IndexConfig.from_gstats(segs["global_stats"]))


def _written(idx: str) -> dict:
    """What a single-segment index holds: every postings table, the term
    stats, the url-map and tokenized rows sorted by doc_id, the global
    stats without timings and the next free doc_id."""
    def table(sub: str, key: str = "term") -> pa.Table | None:
        files = up._parquet_files(os.path.join(idx, sub))
        return pa.concat_tables(pq.read_table(p) for p in files).sort_by(
            key) if files else None

    post = os.path.join(idx, "postings")
    with open(os.path.join(idx, "global_stats.json")) as f:
        g = json.load(f)
    del g["stage_metrics"]
    return {"postings": {p: pq.read_table(os.path.join(post, p))
                         for p in sorted(os.listdir(post))}
            if os.path.isdir(post) else {},
            "term_stats": table("term_stats"),
            "url_map": table("url_map", "doc_id"),
            "tokenized": table("tokenized", "doc_id"),
            "global_stats": g,
            "next_doc_id": up.load_segments(idx)["next_doc_id"]}


@pytest.mark.parametrize("positions,ray_leg,history", [
    pytest.param(False, False, "updates", id="varint-False-False"),
    pytest.param(True, False, "updates", id="varint-True-False"),
    pytest.param(True, True, "updates", id="varint-True-True"),
    pytest.param(False, False, "all-deleted", id="all-deleted"),
])
def test_merge_identity(ray_session, tmp_path, monkeypatch, positions,
                        ray_leg, history):
    """A merge changes no answer of the reader (termfreq and collfreq of
    every term, urls, payloads, bucket universes, search hits) and
    tightens each wdf_ub to between the live max wdf and its old value;
    compact() writes what a from-scratch build of the live tokenized rows
    writes: postings, term stats, url map, tokenized rows, global stats
    and next doc_id. ``history``: 4 updates, or 4 updates, then every url
    deleted."""
    if ray_leg:
        monkeypatch.setattr(up, "_MERGE_DRIVER_BYTES", 0)
    cfg = IndexConfig(tokenizer="simple", stem=False, num_term_parts=2,
                      num_doc_buckets=2, block_size=4,
                      positions=positions, store_payload=True)
    idx = str(tmp_path / "idx")
    _build(idx, _base_rows(10), cfg)
    with monkeypatch.context() as m:
        _no_merge(m)
        for g in range(1, 5):
            _update(idx, g)
        if history == "all-deleted":
            up.delete_documents(idx, [f"u{i}" for i in range(10)]
                                + [f"n{g}" for g in range(1, 5)])
    segs = up.load_segments(idx)
    assert len(segs["segments"]) == 5
    before, hits = _reader_view(idx), _hits(idx)
    if positions:
        phrase = qx.search(idx, Phrase(("alpha", "alpha")), QCFG,
                           distributed=False)

    compacted = str(tmp_path / "compacted")
    g = up.compact(idx, compacted)
    ref = str(tmp_path / "ref")
    want = _rebuild(idx, ref)
    assert g["n_docs"] == want["n_docs"] == (0 if history == "all-deleted"
                                             else 14)
    got, want = _written(compacted), _written(ref)
    assert got["postings"].keys() == want["postings"].keys()
    for p, t in want["postings"].items():
        assert got["postings"][p].equals(t), p
    for key in ("term_stats", "url_map", "tokenized"):
        assert (got[key] is None and want[key] is None) or \
            got[key].equals(want[key]), key
    assert got["global_stats"] == want["global_stats"]
    assert got["next_doc_id"] == want["next_doc_id"]

    # the policy's merge through the commit: base + gens 1-3 fold into one,
    # named after the newest committed generation (the delete's is 5)
    up._merge_tail(idx, segs)
    merged = os.path.join("merged", f"m-{segs['next_gen'] - 1:04d}")
    assert up.load_segments(idx)["segments"] == [merged, "updates/gen-0004"]
    after, live_wdf = _reader_view(idx), _live_max_wdf(idx)
    for t, s in after["stats"].items():
        assert live_wdf[t] <= s["wdf_ub"] <= before["stats"][t]["wdf_ub"], t
    assert _without_wdf_ub(after) == _without_wdf_ub(before)
    assert _hits(idx) == hits
    with open(os.path.join(idx, merged, "_metrics.json")) as f:
        m = json.load(f)
    # 16 docs written by the base and gens 1-3, 4 base docs replaced by
    # gens 1-4 (gen 4 is committed when its merge runs)
    kept = 0 if history == "all-deleted" else 12
    assert (m["merge_inputs"], m["tokenized_rows_out"]) == (4, kept)
    assert m["merge_s"] >= 0 and (m["postings_rows_out"] > 0) == (kept > 0)
    if positions:
        assert qx.search(idx, Phrase(("alpha", "alpha")), QCFG,
                         distributed=False).equals(phrase)


_RAY_FILE = re.compile(r"^\d+_[0-9a-f]{32}_")


def _data_files(idx: str) -> list[str]:
    """Files under every postings/, tokenized/ and url_map/ directory;
    Ray Data's per-run dataset id in staging file names is masked."""
    out = []
    for root, _, files in os.walk(idx):
        rel = os.path.relpath(root, idx)
        if os.path.basename(rel) in ("postings", "tokenized", "url_map"):
            out += [os.path.join(rel, _RAY_FILE.sub("*_", f)) for f in files]
    return sorted(out)


def _orphans(idx: str) -> list[str]:
    """Segment data directories segments.json does not list."""
    listed = set(up.load_segments(idx)["segments"])
    found = ["."] + [os.path.join(sub, d) for sub in ("updates", "merged")
                     if os.path.isdir(os.path.join(idx, sub))
                     for d in os.listdir(os.path.join(idx, sub))]
    return [os.path.join(s, d) for s in found if s not in listed
            for d in up._SEGMENT_DATA
            if os.path.isdir(os.path.join(idx, s, d))]


def _state(idx: str) -> tuple:
    r = IndexReader(idx)
    return (_hits(idx), r.all_term_stats(), r.tombstones.tolist(),
            _data_files(idx))


def _run_failing(monkeypatch, fn, fail_at: int | None = None) -> int:
    """Run ``fn()`` with every checkpoint.write_table / write_text counted
    and the ``fail_at``-th failing with OSError; returns the count."""
    n = 0
    real = {f: getattr(checkpoint, f) for f in ("write_table", "write_text")}

    def counted(name):
        def write(*a, **kw):
            nonlocal n
            n += 1
            if n == fail_at:
                raise OSError(f"injected failure of write {n}")
            return real[name](*a, **kw)
        return write

    with monkeypatch.context() as m:
        for f in real:
            m.setattr(checkpoint, f, counted(f))
        fn()
    return n


def test_merge_crash_at_every_write(ray_session, tmp_path, monkeypatch):
    """Fail the k-th checkpoint write of a merge (its segment, its fold
    and the swap), for every k (and the retirement after the swap), then
    run the next update_index: hits, term stats, the fold's dead ids and
    the data files equal an uninterrupted run, and no orphan data
    directory or fold is left."""
    cfg = IndexConfig(tokenizer="simple", stem=False, num_term_parts=2,
                      num_doc_buckets=1, block_size=4)
    prep = str(tmp_path / "prep")
    _build(prep, _base_rows(10), cfg)
    for g in range(1, 7):
        _update(prep, g)
    with monkeypatch.context() as m:
        _no_merge(m)
        _update(prep, 7)
    # gen 7 committed, its merge (m-0006 and gen 6) not yet run. Skipping
    # that merge would change what gen 8 merges: [m-0004, m-0006, gen 6,
    # gen 7] fold into one, where the uninterrupted run keeps 4 segments

    def finish(idx: str) -> tuple:
        _update(idx, 8)  # redoes the interrupted merge first
        assert _orphans(idx) == []
        assert os.listdir(os.path.join(idx, "folds")) == ["f-0008"]
        return _state(idx)

    def merge_with(idx: str, fail_at) -> int:
        return _run_failing(monkeypatch, lambda: up._merge_tail(
            idx, up.load_segments(idx)), fail_at)

    clean = str(tmp_path / "clean")
    shutil.copytree(prep, clean)
    n_writes = merge_with(clean, None)
    segs = up.load_segments(clean)
    assert segs["segments"] == [
        "merged/m-0004", "merged/m-0007", "updates/gen-0007"]
    # the fold moved out the docs the merge dropped
    assert segs["fold"] == "folds/m-0007"
    assert os.listdir(os.path.join(clean, "folds")) == ["m-0007"]
    want = finish(clean)
    assert len(up.load_segments(clean)["segments"]) == 4
    assert n_writes > 5

    for k in range(1, n_writes + 1):
        idx = str(tmp_path / f"crash{k}")
        shutil.copytree(prep, idx)
        with pytest.raises(OSError, match="injected"):
            merge_with(idx, k)
        assert finish(idx) == want, k
        shutil.rmtree(idx)

    # a crash after the swap, before the inputs are retired
    idx = str(tmp_path / "crash-retire")
    shutil.copytree(prep, idx)
    with monkeypatch.context() as m:
        m.setattr(up, "_retire", lambda *a: (_ for _ in ()).throw(
            OSError("injected retire failure")))
        with pytest.raises(OSError, match="injected"):
            up._merge_tail(idx, up.load_segments(idx))
    assert _orphans(idx) != []
    assert finish(idx) == want


def test_compact_crash_at_every_write(ray_session, tmp_path, monkeypatch):
    """Fail the k-th checkpoint write of a compact over an older compact's
    output, for every k, then re-run it into the same out_dir: hits, term
    stats and the data files equal an uninterrupted compact's and a
    compact into a fresh directory. A crashed compact leaves no
    segments.json, and the index it reads is never written."""
    cfg = IndexConfig(tokenizer="simple", stem=False, num_term_parts=2,
                      num_doc_buckets=2, block_size=4, store_payload=True)
    idx = str(tmp_path / "idx")
    _build(idx, _base_rows(10), cfg)
    with monkeypatch.context() as m:
        _no_merge(m)
        for g in range(1, 4):
            _update(idx, g)
    stale = str(tmp_path / "stale")
    up.compact(idx, stale)
    # every doc of generation 3 dies, so its tokenized file in the stale
    # output has no counterpart in the next compact
    up.delete_documents(idx, ["u7", "n3", "u2"])
    src = _state(idx)

    clean = str(tmp_path / "clean")
    shutil.copytree(stale, clean)
    n_writes = _run_failing(monkeypatch, lambda: up.compact(idx, clean))
    want = _state(clean)
    assert n_writes > 5
    fresh = str(tmp_path / "fresh")
    up.compact(idx, fresh)
    assert _state(fresh) == want

    for k in range(1, n_writes + 1):
        out = str(tmp_path / f"crash{k}")
        shutil.copytree(stale, out)
        with pytest.raises(OSError, match="injected"):
            _run_failing(monkeypatch, lambda: up.compact(idx, out), k)
        assert not os.path.exists(os.path.join(out, "segments.json")), k
        up.compact(idx, out)
        assert _state(out) == want, k
        shutil.rmtree(out)
    assert _state(idx) == src
