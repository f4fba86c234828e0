"""Parquet pages source with deterministic, parallelism-invariant doc_ids.

The reference assigns docids by arrival order in a single-threaded walk
(last_docid+1 per insert; xapian-core backends/database.cc:193-208). A
distributed build reproduces "insertion order" without a serial bottleneck by
an exclusive prefix-sum over per-file row counts (SURVEY.md §1.2):

    doc_id = file_base[f] + row_offset_within_file

- file order = sorted file path (the canonical corpus order);
- row counts come from parquet footer metadata only (no data read) — at
  10^12 docs this is a metadata scan of the file listing, parallelized
  below with a thread pool (footer reads are I/O bound);
- identical ids at any parallelism level, so the BM25 tie-break
  (score desc, doc_id asc; matcher/msetcmp.cc:51-59) is stable.

The reader itself is ``ray.data.read_parquet`` per file-shard via
``map_batches`` over a tiny control dataset of (path, base) rows: each task
streams its file's row groups, attaching ``doc_id``. One task per file is the
right granularity for 100 MB-1 GB web-crawl shards; row-group-sized output
chunks keep blocks within ``target_max_block_size``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Iterator

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq


def file_row_counts(paths: list[str], max_threads: int = 16) -> list[int]:
    """Row count per file from parquet footers (metadata-only reads)."""
    if not paths:
        return []

    def count(p: str) -> int:
        return pq.ParquetFile(p).metadata.num_rows

    with ThreadPoolExecutor(max_workers=min(max_threads, len(paths))) as ex:
        return list(ex.map(count, paths))


def doc_id_bases(paths: list[str]) -> dict[str, int]:
    """Exclusive prefix-sum of row counts over sorted paths."""
    paths = sorted(paths)
    counts = file_row_counts(paths)
    bases: dict[str, int] = {}
    acc = 0
    for p, c in zip(paths, counts):
        bases[p] = acc
        acc += c
    return bases


class _ReadShard:
    """map_batches task body: (path, base) control row -> page batches with
    doc_id. Yields one output batch per row group so the streaming executor
    can split/spill instead of holding whole files."""

    def __init__(self, columns: list[str] | None = None):
        self.columns = columns

    def __call__(self, batch: pa.Table) -> Iterator[pa.Table]:
        for path, base in zip(batch.column("path").to_pylist(),
                              batch.column("base").to_pylist()):
            pf = pq.ParquetFile(path)
            offset = 0
            for rg in range(pf.metadata.num_row_groups):
                t = pf.read_row_group(rg, columns=self.columns)
                ids = pa.array(
                    np.arange(base + offset, base + offset + len(t),
                              dtype=np.uint64))
                yield t.append_column("doc_id", ids)
                offset += len(t)


def shard_control(paths: list[str], id_base: int = 0) -> list[dict]:
    """The ``_ReadShard`` control rows of ``paths``: one (path, base) row
    per file in sorted order, ``base`` its first doc_id. ``id_base``
    offsets every doc_id (delta segments of an incremental update continue
    the id space)."""
    if not paths:
        # fail loudly here: an empty control dataset has no schema and the
        # build pipeline would die later with an opaque AttributeError
        raise ValueError("read_pages: no input files (empty `paths`)")
    return [{"path": p, "base": b + id_base}
            for p, b in sorted(doc_id_bases(paths).items())]


def read_pages(paths: list[str], columns: list[str] | None = None,
               parallelism: int | None = None, id_base: int = 0):
    """Dataset of pages with deterministic ``doc_id:uint64`` attached.

    ``columns`` prunes at the read (pass only what the stage needs — e.g.
    ``["url", "html"]`` for the index build); ``id_base`` is
    :func:`shard_control`'s.
    """
    import ray.data

    control = shard_control(paths, id_base)
    ctrl_ds = ray.data.from_items(control)
    if parallelism:
        ctrl_ds = ctrl_ds.repartition(min(parallelism, len(control)))
    else:
        ctrl_ds = ctrl_ds.repartition(len(control))
    return ctrl_ds.map_batches(
        _ReadShard(columns), batch_format="pyarrow", batch_size=1)


def assign_doc_ids(dataset, id_base: int = 0):
    """Attach a deterministic ``doc_id:uint64`` to a url-keyed Dataset that
    lacks one: sort by (url, content-hash), then zip against
    ``ray.data.range`` so row rank + ``id_base`` becomes the id. Ids are
    stable for the same input SET regardless of how the caller partitioned
    it (the file-path scheme of read_pages can't apply to an arbitrary
    Dataset); the content-hash tiebreak keeps duplicate urls within one
    batch deterministic too (Ray's sort is not stable across equal keys).
    The sort is an all-to-all exchange — for the build/update inputs this
    runs on it is one shuffle of the (small) new-docs batch, not of the
    whole index."""
    import hashlib

    import pyarrow as pa
    import ray
    import ray.data

    def add_tiebreak(b: pa.Table) -> pa.Table:
        key = next((c for c in ("text", "html") if c in b.column_names),
                   None)
        if key is None:
            tb = [""] * b.num_rows
        else:
            col = b.column(key).to_pylist()
            tb = [hashlib.sha1(v if isinstance(v, bytes)
                               else str(v).encode()).hexdigest()
                  for v in col]
        return b.append_column("_id_tiebreak", pa.array(tb, pa.string()))

    # materialize once: count() on a materialized dataset is metadata-only
    # and the sort re-reads blocks instead of re-running the upstream
    # pipeline a second time
    m = dataset.map_batches(add_tiebreak, batch_format="pyarrow") \
        .materialize()
    n = m.count()
    ids = ray.data.range(n).map_batches(
        lambda b: {"doc_id": b["id"].astype("uint64") + id_base},
        batch_format="numpy")
    zipped = m.sort(["url", "_id_tiebreak"]).zip(ids) \
        .drop_columns(["_id_tiebreak"])
    # sort+zip can leave very few (even single) blocks, which starves any
    # downstream actor pool — e.g. the tokenize stage dropped to one task
    # (36k-doc update measured 125s -> 16s after this repartition)
    cpus = int(ray.cluster_resources().get("CPU", 8))
    nblocks = max(1, min(cpus * 2, -(-n // 1000)))
    return zipped.repartition(nblocks)


# ---------------------------------------------------------------------------
# JSONL source (Common-Crawl-style dumps often ship as JSON lines)
# ---------------------------------------------------------------------------

def jsonl_row_counts(paths: list[str], max_threads: int = 16) -> list[int]:
    """Line count per file (one JSON object per line). A cheap sequential
    byte scan — the price of a format without footer metadata; at scale
    prefer parquet (or cache these counts in a manifest)."""
    if not paths:
        return []

    def count(p: str) -> int:
        n = 0
        last = b"\n"
        with open(p, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                n += chunk.count(b"\n")
                last = chunk[-1:]
        # a final line without a trailing newline is still a row — missing
        # it would make the NEXT file's doc_id base overlap this file's
        # last document (two docs sharing an id corrupts dedup and every
        # doc_id-keyed join downstream)
        if last != b"\n":
            n += 1
        return n

    with ThreadPoolExecutor(max_workers=min(max_threads, len(paths))) as ex:
        return list(ex.map(count, paths))


class _ReadJsonlShard:
    """map_batches task body: (path, base) -> page batches with doc_id.
    Lines decode via pyarrow's JSON reader (C++, newline-delimited)."""

    def __init__(self, columns: list[str] | None = None):
        self.columns = columns

    def __call__(self, batch: pa.Table):
        from pyarrow import json as pajson

        for path, base in zip(batch.column("path").to_pylist(),
                              batch.column("base").to_pylist()):
            t = pajson.read_json(path)
            if self.columns:
                t = t.select([c for c in self.columns
                              if c in t.column_names])
            if "html" in t.column_names and \
                    not pa.types.is_binary(t.schema.field("html").type):
                # JSON has no binary type: html must arrive as utf-8 text
                # (a base64-encoded producer needs an explicit decode stage
                # — the cast below only reinterprets the utf-8 bytes)
                t = t.set_column(
                    t.column_names.index("html"), "html",
                    pc.cast(t.column("html"), pa.binary()))
            ids = pa.array(
                np.arange(base, base + len(t), dtype=np.uint64))
            yield t.append_column("doc_id", ids)


def read_pages_jsonl(paths: list[str], columns: list[str] | None = None):
    """Dataset of pages from JSON-lines files with the same deterministic
    prefix-sum ``doc_id`` scheme as the parquet reader (ids are identical
    for identical row streams, whatever the container format)."""
    import ray.data

    paths = sorted(paths)
    counts = jsonl_row_counts(paths)
    control, acc = [], 0
    for p, c in zip(paths, counts):
        control.append({"path": p, "base": acc})
        acc += c
    ctrl_ds = ray.data.from_items(control).repartition(len(control))
    return ctrl_ds.map_batches(_ReadJsonlShard(columns),
                               batch_format="pyarrow", batch_size=1)
