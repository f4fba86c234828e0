"""The fold (index/update.py): every committed generation's stat deltas
and dead doc_ids in one place, named by segments.json; and the reader's
footer-pruned dictionary lookups over segments plus fold."""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

import markdown_query_ray.index.build as build_mod
import markdown_query_ray.index.update as up
from markdown_query_ray import checkpoint
from markdown_query_ray.config import BM25Params, IndexConfig, QueryConfig
from markdown_query_ray.index.build import build_index
from markdown_query_ray.index.reader import IndexReader
from markdown_query_ray.query import executor as qx
from markdown_query_ray.query.ast import And, Or, Term, Wildcard

CFG = IndexConfig(tokenizer="simple", stem=False, num_term_parts=2,
                  num_doc_buckets=2, block_size=4)
QCFG = QueryConfig(k=100, params=BM25Params.classic())
QUERIES = (Term("alpha"), Term("gamma"), Or((Term("beta"), Term("rev"))),
           And((Term("alpha"), Term("gamma"))), Wildcard("al"))
_WORDS = ("alpha", "alps", "alto", "beta", "bet", "gamma", "gala", "game")


def _table(rows: list[tuple[str, str]], base_id: int) -> pa.Table:
    return pa.table({
        "url": pa.array([u for u, _ in rows], pa.string()),
        "text": pa.array([t for _, t in rows], pa.string()),
        "doc_id": pa.array(np.arange(base_id, base_id + len(rows),
                                     dtype=np.uint64)),
    })


def _base_rows(n: int) -> list[tuple[str, str]]:
    return [(f"u{i}", " ".join(_WORDS[j % len(_WORDS)]
                               for j in range(i, i + 2 + i % 4))
             + f" doc{i}") for i in range(n)]


def _batch(g: int) -> list[tuple[str, str]]:
    """Generation g (1-based): one new url and one replaced base url."""
    return [(f"n{g}", f"alpha rev gamma new{g} gala"),
            (f"u{g - 1}", f"beta rev{g} alpha alpha alps")]


def _build(idx: str, rows, cfg: IndexConfig = CFG) -> None:
    import ray.data

    build_index(idx, dataset=ray.data.from_arrow(_table(rows, 0)), cfg=cfg,
                total_docs=len(rows))


def _update(idx: str, rows) -> None:
    import ray.data

    base = up.load_segments(idx)["next_doc_id"]
    up.update_index(idx, dataset=ray.data.from_arrow(_table(rows, base)))


def _no_merge(monkeypatch):
    monkeypatch.setattr(up, "_merge_tail", lambda index_dir, segs: segs)


def _folds(idx: str) -> list[str]:
    d = os.path.join(idx, "folds")
    return sorted(os.listdir(d)) if os.path.isdir(d) else []


# ---- term_stats identity -----------------------------------------------------

class _Docs:
    """Every document version the test wrote, as the index tokenized it
    (read from each new segment's tokenized rows), and which versions are
    live: the newest version of each url not deleted since."""

    def __init__(self):
        self.rows: dict[int, tuple[str, dict[str, int]]] = {}
        self.dead: set[int] = set()

    def add_segment(self, seg_dir: str) -> None:
        t = pads.dataset(os.path.join(seg_dir, "tokenized")).to_table(
            columns=["doc_id", "url", "terms", "tfs"])
        for did, url, terms, tfs in zip(*(t.column(c).to_pylist()
                                          for c in t.column_names)):
            for old, (u, _) in self.rows.items():
                if u == url:
                    self.dead.add(old)
            self.rows[did] = (url, dict(zip(terms, tfs)))

    def delete(self, urls) -> set[int]:
        gone = {d for d, (u, _) in self.rows.items()
                if u in set(urls) and d not in self.dead}
        self.dead |= gone
        return gone

    def live(self) -> set[int]:
        return set(self.rows) - self.dead

    def stats(self, ids: set[int]) -> dict[str, tuple[int, int, int]]:
        """Brute-force (termfreq, collfreq, max wdf) over docs ``ids``."""
        out: dict[str, list[int]] = {}
        for d in ids:
            for term, tf in self.rows[d][1].items():
                cur = out.setdefault(term, [0, 0, 0])
                cur[0] += 1
                cur[1] += tf
                cur[2] = max(cur[2], tf)
        return {t: tuple(v) for t, v in out.items()}


def _check_stats(idx: str, want: dict[str, tuple[int, int, int]]) -> None:
    """Every term's termfreq/collfreq from the reader equal ``want``
    (wdf_ub bounds the true max wdf), and so does every 1- and
    2-character prefix's expansion."""
    r = IndexReader(idx)
    every = r.all_term_stats()
    assert {t: (s["termfreq"], s["collfreq"]) for t, s in every.items()} \
        == {t: (tf, cf) for t, (tf, cf, _) in want.items()}
    for t, (_, _, wdf) in want.items():
        assert every[t]["wdf_ub"] >= wdf, t
    assert r.term_stats(sorted(want)) == every
    for t in want:
        assert IndexReader(idx).term_stats([t]) == {t: every[t]}
    prefixes = {t[:n] for t in want for n in (1, 2)}
    for p in sorted(prefixes):
        under = sorted(t for t in want if t.startswith(p))
        assert r.expand_wildcard(p) == under, p
        assert r.term_stats([], prefixes=[p]) == \
            {t: every[t] for t in under}, p
    assert r.term_stats(["nosuchterm"], prefixes=["zzz"]) == {}


@pytest.mark.parametrize("ray_leg", [False, True])
def test_term_stats_identity(ray_session, tmp_path, monkeypatch, ray_leg):
    """term_stats of every term and every 1-/2-character prefix equal a
    brute-force count over the live tokenized rows after a build, 4
    updates, a delete, a merge and compact — on both legs of
    merge_term_stats."""
    if ray_leg:
        monkeypatch.setattr(build_mod, "TERM_STATS_DRIVER_ROWS", 0)
    real_merge = up._merge_tail
    _no_merge(monkeypatch)
    idx = str(tmp_path / "idx")
    docs = _Docs()
    _build(idx, _base_rows(12))
    docs.add_segment(idx)
    if ray_leg:
        assert len(up._parquet_files(os.path.join(idx, "term_stats"))) > 1
    _check_stats(idx, docs.stats(docs.live()))

    for g in (1, 2, 3, 4):
        _update(idx, _batch(g))
        docs.add_segment(os.path.join(idx, "updates", f"gen-{g:04d}"))
    _check_stats(idx, docs.stats(docs.live()))

    assert docs.delete(["u5", "n1"])
    up.delete_documents(idx, ["u5", "n1"])
    _check_stats(idx, docs.stats(docs.live()))

    segs = up.load_segments(idx)
    real_merge(idx, segs)
    assert len(up.load_segments(idx)["segments"]) < len(segs["segments"])
    _check_stats(idx, docs.stats(docs.live()))

    out = str(tmp_path / "compacted")
    up.compact(idx, out)
    _check_stats(out, docs.stats(docs.live()))


def _stats_dict(t: pa.Table) -> dict[str, tuple[int, int, int]]:
    """TERM_STATS_SCHEMA rows as {term: (termfreq, collfreq, wdf_ub)},
    each term once."""
    terms = t.column("term").to_pylist()
    assert len(set(terms)) == len(terms)
    return dict(zip(terms, zip(*(t.column(c).to_pylist() for c in
                                 ("termfreq", "collfreq", "wdf_ub")))))


def _own_block_stats(seg_dir: str) -> dict[str, tuple[int, int, int]]:
    """A segment's per-term stats taken from its own posting blocks."""
    parts = [build_mod._stats_partial_from_blocks(pq.read_table(p))
             for p in up._parquet_files(os.path.join(seg_dir, "postings"))]
    out: dict[str, list[int]] = {}
    for term, (tf, cf, wub) in (
            kv for t in parts for kv in _stats_dict(t).items()):
        cur = out.setdefault(term, [0, 0, 0])
        cur[0] += tf
        cur[1] += cf
        cur[2] = max(cur[2], wub)
    return {t: tuple(v) for t, v in out.items()}


def _on_disk(idx: str, segs: dict) -> set[int]:
    """The doc_ids in the listed segments' tokenized rows."""
    return {d for s in segs["segments"] for d in pads.dataset(
        os.path.join(idx, s, "tokenized")).to_table(
        columns=["doc_id"]).column("doc_id").to_pylist()}


def _superseded(idx: str, segs: dict) -> set[int]:
    """The doc_ids on disk whose url has a newer version on disk."""
    newest: dict[str, int] = {}
    ids = []
    for s in segs["segments"]:
        t = pads.dataset(os.path.join(idx, s, "tokenized")).to_table(
            columns=["doc_id", "url"])
        for d, u in zip(*(t.column(c).to_pylist() for c in ("doc_id",
                                                            "url"))):
            ids.append(d)
            newest[u] = max(newest.get(u, d), d)
    return set(ids) - set(newest.values())


def _check_invariant(idx: str, docs: _Docs) -> None:
    """Every listed segment's term stats are its own blocks' stats, and
    the fold holds exactly the dead docs still on disk: their ids, and
    minus their brute-force stats (wdf_ub 0)."""
    segs = up.load_segments(idx)
    for s in segs["segments"]:
        seg_dir = os.path.join(idx, s)
        assert _stats_dict(pq.ParquetDataset(up._parquet_files(
            os.path.join(seg_dir, "term_stats"))).read()) == \
            _own_block_stats(seg_dir), s
    present = docs.dead & _on_disk(idx, segs)
    fold = segs["fold"]
    assert up.dead_ids(idx, fold).tolist() == sorted(present)
    assert _stats_dict(pq.ParquetDataset(
        up.fold_stats_files(idx, fold)).read()) == {
        t: (-tf, -cf, 0) for t, (tf, cf, _) in docs.stats(present).items()}


def test_segment_stats_from_own_blocks(ray_session, tmp_path):
    """32 generations of updates and deletes with the real merge policy:
    after each, every listed segment's term stats equal its own blocks'
    stats, the fold holds exactly the dead docs still on disk, and the
    reader's stats equal a brute-force count over the live docs."""
    idx = str(tmp_path / "idx")
    docs = _Docs()
    _build(idx, _base_rows(12))
    docs.add_segment(idx)
    merged = 0
    for g in range(1, 33):
        if g % 4 == 0:
            urls = [f"u{g % 12}", f"n{g - 3}", "nosuchurl"]
            docs.delete(urls)
            up.delete_documents(idx, urls)
        else:
            _update(idx, [(f"n{g}", f"alpha rev gamma new{g} gala"),
                          (f"u{(g * 5) % 12}", f"beta rev{g} alps alto"
                           + " alpha" * (g % 3))])
            docs.add_segment(os.path.join(idx, "updates", f"gen-{g:04d}"))
        _check_invariant(idx, docs)
        live = docs.stats(docs.live())
        assert {t: (s["termfreq"], s["collfreq"]) for t, s in
                IndexReader(idx).all_term_stats().items()} == \
            {t: (tf, cf) for t, (tf, cf, _) in live.items()}, g
        merged += any(s.startswith("merged")
                      for s in up.load_segments(idx)["segments"])
    assert merged  # the policy merged along the way


# ---- crash matrix ------------------------------------------------------------

def _state(idx: str) -> tuple:
    hits = []
    for node in QUERIES:
        t = qx.search(idx, node, QCFG, distributed=False, with_urls=True)
        hits.append({u: round(s, 9) for u, s in zip(
            t.column("url").to_pylist(), t.column("score").to_pylist())})
    r = IndexReader(idx)
    return hits, r.all_term_stats(), r.tombstones.tolist()


@pytest.mark.parametrize("op", ["update", "delete"])
def test_crash_at_every_write(ray_session, tmp_path, monkeypatch, op):
    """Fail the k-th checkpoint write of an update_index /
    delete_documents, for every k, then re-run it: hits, term stats of
    every term and the dead ids equal an uninterrupted run, and exactly
    one fold is on disk. A crash after the swap, before the previous fold
    is deleted, leaves it to the next commit."""
    _no_merge(monkeypatch)  # the merge has its own matrix
    prep = str(tmp_path / "prep")
    _build(prep, _base_rows(10))
    for g in (1, 2):
        _update(prep, _batch(g))

    def run(idx: str) -> None:
        if op == "update":
            _update(idx, _batch(3))
        else:
            up.delete_documents(idx, ["u4", "n1", "nosuchurl"])

    calls = {"n": 0, "fail_at": None}
    real = {f: getattr(checkpoint, f) for f in ("write_table", "write_text")}

    def counted(name):
        def write(*a, **kw):
            calls["n"] += 1
            if calls["n"] == calls["fail_at"]:
                raise OSError(f"injected failure of write {calls['n']}")
            return real[name](*a, **kw)
        return write

    def run_with(idx: str, fail_at) -> None:
        calls.update(n=0, fail_at=fail_at)
        with monkeypatch.context() as m:
            for f in real:
                m.setattr(checkpoint, f, counted(f))
            run(idx)

    clean = str(tmp_path / "clean")
    shutil.copytree(prep, clean)
    run_with(clean, None)
    n_writes = calls["n"]
    want = _state(clean)
    assert _folds(clean) == ["f-0003"]
    assert n_writes >= 5

    for k in range(1, n_writes + 1):
        idx = str(tmp_path / f"crash{k}")
        shutil.copytree(prep, idx)
        with pytest.raises(OSError, match="injected"):
            run_with(idx, k)
        run(idx)
        assert _state(idx) == want, k
        assert _folds(idx) == ["f-0003"], k
        shutil.rmtree(idx)

    # the swap landed but the previous fold was not deleted
    idx = str(tmp_path / "crash-delete")
    shutil.copytree(prep, idx)
    real_clear = checkpoint.clear_dir

    def clear(d: str) -> None:
        if os.path.basename(os.path.dirname(d)) == "folds":
            raise OSError("injected fold delete failure")
        real_clear(d)

    with monkeypatch.context() as m:
        m.setattr(checkpoint, "clear_dir", clear)
        with pytest.raises(OSError, match="injected"):
            run(idx)
    assert _folds(idx) == ["f-0002", "f-0003"]
    assert _state(idx) == want  # readers read the fold segments.json names
    up.delete_documents(idx, [])
    assert _folds(idx) == ["f-0004"]
    assert _state(idx) == want


# ---- bounded reads -----------------------------------------------------------

def test_cold_reads_bounded_by_segments(ray_session, tmp_path, monkeypatch):
    """After 10, 20 and 30 generations, a cold term_stats plus the dead
    ids open one stats file per listed segment and the fold's two files:
    the count follows the segments, not the generations."""
    opened: list[str] = []

    def recording(fn):
        def wrapped(source, *a, **kw):
            opened.append(str(source))
            return fn(source, *a, **kw)
        return wrapped

    idx = str(tmp_path / "idx")
    _build(idx, _base_rows(10))
    counts, first, base_merges = {}, ".", 0
    for g in range(1, 31):
        _update(idx, [(f"n{g}", f"alpha rev gamma new{g}"),
                      (f"u{g % 10}", f"beta rev{g} alpha")])
        segs = up.load_segments(idx)
        if segs["segments"][0] != first:
            # a merge took in the base: every dead doc was in its inputs
            first, base_merges = segs["segments"][0], base_merges + 1
            assert len(up.dead_ids(idx, segs["fold"])) == 0, g
            assert sum(pq.read_metadata(f).num_rows for f in
                       up.fold_stats_files(idx, segs["fold"])) == 0, g
        if g % 10:
            continue
        r = IndexReader(idx)
        opened.clear()
        with monkeypatch.context() as m:
            for mod, fn in ((pq, "ParquetFile"), (pq, "read_table"),
                            (pq, "read_metadata"), (pads, "dataset")):
                m.setattr(mod, fn, recording(getattr(mod, fn)))
            stats = r.term_stats(["alpha", "gamma", f"rev{g}"],
                                 prefixes=["new", "re"])
            dead = r.tombstones
        # every base url replaced by gen 10; one doc dies per generation,
        # and the fold keeps only the dead docs still on disk
        assert stats["alpha"]["termfreq"] == 10 + g
        assert dead.tolist() == sorted(_superseded(idx, segs))
        fold = os.path.join(idx, r.fold)
        assert sorted(opened) == sorted(
            [os.path.join(idx, s, "term_stats", "part-000000.parquet")
             for s in r.segments]
            + [os.path.join(fold, "term_stats", "part-000000.parquet"),
               os.path.join(fold, "dead.parquet")])
        counts[g] = (len(opened), len(r.segments))
    assert all(n == s + 2 for n, s in counts.values()), counts
    assert max(s for _, s in counts.values()) <= 4, counts
    assert base_merges >= 2
