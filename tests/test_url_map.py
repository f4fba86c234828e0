"""The url map, a run of (url, doc_id, doclen) rows sorted by (url,
doc_id): update lookups must read only the row groups whose footer url
range can hold a queried url (the one sorted-run reader that term stats
share), return exactly the tokenized table's rows, fail loudly for a
segment without a complete map, and still answer exactly over the
unsorted hash-bucket files older builds wrote."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    from markdown_query_ray.config import IndexConfig
    from markdown_query_ray.fixtures import write_pages_corpus
    from markdown_query_ray.index.build import build_index

    root = tmp_path_factory.mktemp("urlmap")
    paths = write_pages_corpus(str(root / "corpus"), n_docs=400, n_files=2)
    out = str(root / "idx")
    build_index(out, paths=paths,
                cfg=IndexConfig(num_term_parts=4, num_doc_buckets=2))
    return out


def test_url_map_written_and_complete(built):
    um = os.path.join(built, "url_map")
    assert os.path.exists(os.path.join(um, "_SUCCESS"))
    files = [f for f in os.listdir(um) if f.endswith(".parquet")]
    assert files
    total = 0
    for f in files:
        t = pq.read_table(os.path.join(um, f))
        keys = list(zip(t.column("url").to_pylist(),
                        t.column("doc_id").to_pylist()))
        assert keys == sorted(keys)
        total += len(t)
    tok_rows = sum(
        pq.ParquetFile(os.path.join(built, "tokenized", f)).metadata.num_rows
        for f in os.listdir(os.path.join(built, "tokenized"))
        if f.endswith(".parquet"))
    assert total == tok_rows


def test_lookup_matches_tokenized_scan(built):
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    from markdown_query_ray.index.build import url_map_lookup

    tok = pads.dataset(os.path.join(built, "tokenized"))
    all_urls = tok.to_table(columns=["url"]).column("url").to_pylist()
    urls = all_urls[7:29] + ["https://missing.example/x"]
    got = url_map_lookup(built, urls)
    want = tok.to_table(columns=["doc_id", "url", "doclen"],
                        filter=pc.field("url").isin(urls))
    g = sorted(zip(got.column("url").to_pylist(),
                   [int(x) for x in got.column("doc_id").to_pylist()],
                   [int(x) for x in got.column("doclen").to_pylist()]))
    w = sorted(zip(want.column("url").to_pylist(),
                   [int(x) for x in want.column("doc_id").to_pylist()],
                   [int(x) for x in want.column("doclen").to_pylist()]))
    assert g == w and len(g) == 22


def test_lookup_falls_back_when_absent(built, tmp_path):
    """A segment without a complete url map has no tokenized-scan
    fallback: the lookup raises rather than find nothing."""
    from markdown_query_ray.index.build import url_map_lookup

    with pytest.raises(FileNotFoundError, match="url map"):
        url_map_lookup(str(tmp_path), ["https://a.example/1"])


def test_update_uses_map_and_stays_exact(built, ray_session):
    """An update over a url-mapped base resolves replacements through the
    map: replaced urls tombstone exactly one old doc each."""
    import pyarrow as pa
    import ray.data

    from markdown_query_ray.fixtures import make_pages_table
    from markdown_query_ray.index.update import load_segments, update_index

    upd = make_pages_table(0, 50)  # replaces docs 0..49 (same urls)
    update_index(built, dataset=ray.data.from_arrow(upd))
    ts = pq.read_table(os.path.join(built, "tombstones",
                                    "gen-0001.parquet"))
    assert ts.num_rows == 50
    assert sorted(int(x) for x in ts.column("doc_id").to_pylist()) == \
        list(range(50))
    segs = load_segments(built)
    assert segs["next_doc_id"] == 450


def test_url_map_regenerates_on_resume(built, ray_session):
    """A lost/corrupt url_map (no _SUCCESS) is rebuilt by re-running
    build_index, while the tokenized staging and posting partitions resume
    (crash-safety of the stage marker)."""
    import shutil

    from markdown_query_ray.index.build import build_index, url_map_lookup

    shutil.rmtree(os.path.join(built, "url_map"))
    with pytest.raises(FileNotFoundError):
        url_map_lookup(built, ["u"])
    from markdown_query_ray.config import IndexConfig

    # re-run the build: tokenized staging short-circuits via _SUCCESS, so
    # any dataset arg works; only the missing url_map is regenerated
    import pyarrow.dataset as pads

    import ray.data

    tok = os.path.join(built, "tokenized")
    ds = ray.data.read_parquet(tok)  # any dataset arg; staging short-circuits
    build_index(built, dataset=ds,
                cfg=IndexConfig(num_term_parts=4, num_doc_buckets=2))
    assert os.path.exists(os.path.join(built, "url_map", "_SUCCESS"))
    t = pads.dataset(tok).to_table(columns=["url"])
    urls = t.column("url").to_pylist()[:5]
    got = url_map_lookup(built, urls)
    assert got.num_rows == 5


def _run_values(col: str) -> list[str]:
    if col == "url":
        return [f"https://site.example/p{i:03d}" for i in range(64)]
    return [f"{c}{i:02d}" for c in "abcd" for i in range(16)]


@pytest.mark.parametrize("col, keys, prefixes, want_groups", [
    # p015z sorts between row groups 1 and 2: no group can hold it
    ("url", ["https://site.example/p010", "https://site.example/p015z",
             "https://site.example/p041"], [], [1, 5]),
    ("term", ["a03"], ["c"], [0, 4, 5]),
])
def test_read_sorted_run_reads_only_groups_that_can_hold_keys(
        tmp_path, monkeypatch, col, keys, prefixes, want_groups):
    """A sorted run in row groups of 8: a lookup reads only the groups
    whose footer [min, max] can hold a key or a prefix's range, and finds
    exactly what a full scan finds. Without footer statistics every group
    is read."""
    from markdown_query_ray.index.build import read_sorted_run

    vals = _run_values(col)
    table = pa.table({col: vals, "n": pa.array(range(len(vals)),
                                                pa.int64())})
    seen = []
    orig = pq.ParquetFile.read_row_groups

    def spy(self, row_groups, *a, **kw):
        seen.append(list(row_groups))
        return orig(self, row_groups, *a, **kw)

    monkeypatch.setattr(pq.ParquetFile, "read_row_groups", spy)
    want = [r for r in table.to_pylist() if r[col] in keys
            or any(r[col].startswith(p) for p in prefixes)]
    for stats, groups in ((True, want_groups), (False, list(range(8)))):
        path = str(tmp_path / f"run-{stats}.parquet")
        pq.write_table(table, path, row_group_size=8,
                       write_statistics=stats)
        seen.clear()
        got = read_sorted_run(path, col, keys, prefixes)
        assert seen == [groups]
        assert [r for r in got.to_pylist() if r[col] in keys or any(
            r[col].startswith(p) for p in prefixes)] == want


def _to_bucket_layout(seg_dir: str) -> None:
    """Rewrite a segment's url map as older builds wrote it: one file per
    FNV-1a64(url) % 64 bucket, rows in tokenized (doc_id) order, so
    unsorted by url, here in row groups of 4 rows."""
    from markdown_query_ray.functions.hashing import fnv1a64_strings

    um = os.path.join(seg_dir, "url_map")
    for f in os.listdir(um):
        if f.endswith(".parquet"):
            os.remove(os.path.join(um, f))
    t = pq.ParquetDataset(os.path.join(seg_dir, "tokenized")).read(
        columns=["url", "doc_id", "doclen"]).sort_by("doc_id")
    b = fnv1a64_strings(t.column("url").combine_chunks()) % np.uint64(64)
    for k in np.unique(b):
        pq.write_table(t.filter(pa.array(b == k)),
                       os.path.join(um, f"umap-{int(k):04d}.parquet"),
                       row_group_size=4)


def test_bucket_layout_url_maps_still_answer_exactly(ray_session, tmp_path):
    """An index whose url map is still the old unsorted hash-bucket files
    answers ``url_map_lookup`` and an ``update_index`` exactly as one
    with the sorted run does: the footer pruning only skips row groups
    whose url range cannot hold a url, sorted or not."""
    import shutil

    from markdown_query_ray.config import IndexConfig
    from markdown_query_ray.fixtures import (
        make_pages_table,
        write_pages_corpus,
    )
    from markdown_query_ray.index.build import build_index, url_map_lookup
    from markdown_query_ray.index.reader import IndexReader
    from markdown_query_ray.index.update import load_segments, update_index

    paths = write_pages_corpus(str(tmp_path / "corpus"), n_docs=200,
                               n_files=2)
    new, old = str(tmp_path / "new"), str(tmp_path / "old")
    build_index(new, paths=paths,
                cfg=IndexConfig(num_term_parts=4, num_doc_buckets=2))
    shutil.copytree(new, old)
    _to_bucket_layout(old)
    files = sorted(f for f in os.listdir(os.path.join(old, "url_map"))
                   if f.endswith(".parquet"))
    assert len(files) > 32 and files[0].startswith("umap-")
    urls = [pq.read_table(os.path.join(old, "url_map", f)).column(
        "url").to_pylist() for f in files]
    assert any(u != sorted(u) for u in urls)

    def rows(d, us):
        return sorted(url_map_lookup(d, us).to_pylist(),
                      key=lambda r: r["doc_id"])

    probe = [u for f in urls for u in f[::7]] + ["https://missing.ex/1"]
    assert rows(old, probe) == rows(new, probe)
    assert len(rows(old, probe)) == len(probe) - 1

    upd = make_pages_table(150, 100)  # replaces docs 150..199, adds 50
    batch = str(tmp_path / "batch.parquet")
    pq.write_table(upd, batch)
    for d in (new, old):
        update_index(d, paths=[batch])
    tomb = [pq.read_table(os.path.join(d, "tombstones", "gen-0001.parquet"))
            .column("doc_id").to_pylist() for d in (new, old)]
    assert sorted(tomb[0]) == sorted(tomb[1]) == list(range(150, 200))
    segs = [load_segments(d) for d in (new, old)]
    for s in segs:
        s["global_stats"].pop("stage_metrics")
    assert segs[0] == segs[1]
    assert IndexReader(old).all_term_stats() == \
        IndexReader(new).all_term_stats()
