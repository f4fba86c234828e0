"""The hash-bucketed url map: update lookups must read only the buckets the
queried urls hash to, return exactly the tokenized table's rows, and fall
back cleanly for segments built before the map existed."""

from __future__ import annotations

import os

import numpy as np
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
    from markdown_query_ray.index.build import URL_MAP_BUCKETS

    um = os.path.join(built, "url_map")
    assert os.path.exists(os.path.join(um, "_SUCCESS"))
    files = [f for f in os.listdir(um) if f.endswith(".parquet")]
    assert 0 < len(files) <= URL_MAP_BUCKETS
    total = sum(pq.ParquetFile(os.path.join(um, f)).metadata.num_rows
                for f in files)
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
