"""Index build pipeline: pages parquet -> posting-list index directory.

Ray-Data-first rebuild of the reference's ``mdq <db> update`` path
(src/main.rs:84-110 + xapian glass commit, glass_database.cc:1119-1146),
restructured for streaming execution over a multi-node cluster:

    read_pages (doc_id prefix-sum)                      [stateless tasks]
      -> extract_batch (html->text, drop html)          [stateless tasks]
      -> TokenizeStage                                  [actor pool]
      -> write tokenized/ staging parquet               [CHECKPOINT]
    tokenized/ (url, doc_id, doclen) -> url_map/        [sort by url]
    tokenized/ -> docs/ + global_stats.json             [cheap aggregate]
    tokenized/ -> PartialPostingsStage                  [map-side combine:
                    (skey, term, n, varint-packed ids/tfs/dls) per batch]
      -> groupby(skey)                                  [THE merge shuffle]
      -> encode+write postings/part-*.parquet           [per-partition commit]
      -> manifest rows (lineage + throughput metrics)
    manifest rows -> _manifest.jsonl                    [finish_segment]
    postings (term, n, sum_wdf, max_wdf) -> term_stats/ [small groupby]

Shuffle key ``skey = fnv1a64(term) % P * S + doc_bucket``: P term-hash parts
give posting-merge parallelism; S doc-range salt shards are the explicit skew
handling — a stopword-grade term (60%+ of docs) splits into S groups bounded
by its per-doc-range postings, and because posting blocks are keyed
(term, first_doc_id), the salted sub-lists are already disjoint sorted runs
that need no second-pass merge (only term_stats needs a tiny final groupby).

Each shuffle group writes its own parquet file atomically
(``write_postings_part``) and returns a manifest row; a re-run skips
groups whose output file exists — the per-partition checkpoint/resume story
(the reference's analog is idempotent upsert-by-key,
backends/database.cc:193-208). ``finish_segment`` then writes the manifest
and folds the segment's own block metadata into ``term_stats/``, as the
reference keeps a term's termfreq/collfreq in its own posting list
(glass_postlist.cc:351-382). A segment merge (index/update.py) writes its
parts and finishes its segment with the same two functions. Every write
and commit marker goes through ``markdown_query_ray/checkpoint.py``.

A segment's two dictionaries are sorted runs in row groups of
``SORTED_RUN_ROW_GROUP``: ``term_stats/`` by term and ``url_map/`` by
(url, doc_id), where an update looks up the urls it replaces (the
reference finds its upsert key ``Q<url>`` in its one term dictionary,
backends/database.cc:193-208). ``read_sorted_run`` reads either by keys,
and tokenized files by doc_id, through their footers.

One set of stage callables, two executors. The plan above is the Ray
leg. A ``paths`` build whose files hold at most ``DRIVER_BUILD_BYTES``
takes the driver leg instead: the same callables on Arrow tables in a
local loop — ``_ReadShard`` over the (path, base) control rows,
``extract_batch``, ``TokenizeStage`` per ``tokenize_batch_size`` slice
(one ``tokenized/`` file, one row group per slice),
``PartialPostingsStage`` per ``postings_batch_size`` slice, one
``encode_write_group`` per ``skey``, then the url map, doc stats and
term-stats fold. At update-batch size Ray Data's per-job
fixed costs exceed the work; both legs write the same postings and term
stats byte for byte. Dataset inputs always take the Ray leg.
"""

from __future__ import annotations

import json
import os
import time
from bisect import bisect_left

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .. import checkpoint
from ..config import RECORDED_SETTINGS, IndexConfig
from ..sources.pages import _ReadShard, file_row_counts, read_pages, \
    shard_control
from ..stages.extract import extract_batch
from ..stages.tokenize import TokenizeStage, staging_schema
from .codec import (
    blocks_schema,
    concat_segments,
    decode_partial_group,
    encode_partition,
    encode_segments,
    partial_schema,
)


def term_part(term: str, num_parts: int) -> int:
    """Stable term-hash partition (process-invariant, unlike ``hash()``).
    FNV-1a64 so the build can batch-hash terms straight out of Arrow string
    buffers (functions/hashing.py) — this scalar form is the query-side
    single-term lookup of the same function."""
    from ..functions.hashing import fnv1a_bytes

    return fnv1a_bytes(term.encode("utf-8")) % num_parts


class PartialPostingsStage:
    """tokenized doc rows -> PACKED partial posting lists with shuffle key.

    The map-side combiner of the merge shuffle (SURVEY.md §2.6 "per-task
    partial-postings dict flushed as sorted Arrow batch"): instead of one
    shuffle row per posting, each batch emits one row per (skey, term) with
    the postings packed —

        (skey, term, n, first_id, ids_enc, tfs_enc, dls_enc
         [, npos_enc, pos_enc])

    ``first_id`` carries the segment's first doc_id as a plain uint64
    column; ``ids_enc`` holds the remaining n-1 gap-1 deltas. Payloads are
    varints from ``codec.encode_segments`` — the same segment format as
    the posting blocks. This packing cuts the all-to-all payload ~10x vs
    one row per posting (term strings ship once per batch) — the
    sort-based shuffle moves bytes, not rows.

    Partition hashes run once per UNIQUE term via dictionary encoding,
    batch-hashed straight out of the Arrow string buffers (C fast path in
    functions/hashing.py — no per-term Python objects). All packing is numpy
    prefix-sum arithmetic, no Python loops over postings."""

    def __init__(self, cfg: IndexConfig, docs_per_bucket: int):
        self.cfg = cfg
        self.docs_per_bucket = max(1, docs_per_bucket)

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        terms_list = batch.column("terms")
        lens = pc.list_value_length(terms_list).to_numpy().astype(np.int64)
        flat_terms = pc.list_flatten(terms_list).combine_chunks()
        flat_tfs = pc.list_flatten(batch.column("tfs")).to_numpy() \
            .astype(np.uint64)
        doc_ids = np.repeat(
            batch.column("doc_id").to_numpy().astype(np.uint64), lens)
        doclens = np.repeat(
            batch.column("doclen").to_numpy().astype(np.uint64), lens)

        from ..functions.hashing import fnv1a64_strings

        P = cfg.num_term_parts
        denc = flat_terms.dictionary_encode()
        # hash every unique term straight out of the Arrow buffers (C path:
        # no per-term Python objects); scalar term_part() is the same hash
        uniq_parts = (fnv1a64_strings(denc.dictionary)
                      % np.uint64(P)).astype(np.uint32)
        if len(uniq_parts) == 0:
            uniq_parts = np.zeros(1, np.uint32)
        codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(codes)
        if n == 0:
            return partial_schema(cfg.positions).empty_table()
        parts = uniq_parts[codes]
        bucket = ((doc_ids // np.uint64(self.docs_per_bucket))
                  % np.uint64(cfg.num_doc_buckets)).astype(np.uint32)
        skey = parts * np.uint32(cfg.num_doc_buckets) + bucket

        # group flat postings by (skey, term): stable lexsort keeps the
        # doc-major flatten order => doc_ids ascending within each group
        order = np.lexsort((codes, skey))
        skey_s, codes_s = skey[order], codes[order]
        ids_s, tfs_s, dls_s = doc_ids[order], flat_tfs[order], doclens[order]
        change = np.ones(n, bool)
        change[1:] = (skey_s[1:] != skey_s[:-1]) | (codes_s[1:] != codes_s[:-1])
        seg_start = np.nonzero(change)[0]
        seg_n = np.diff(np.append(seg_start, n))

        is_first = np.zeros(n, bool)
        is_first[seg_start] = True
        gaps = np.zeros(n, np.uint64)
        gaps[1:] = ids_s[1:] - ids_s[:-1] - 1  # within-segment deltas
        cols = [
            pa.array(skey_s[seg_start], pa.uint32()),
            denc.dictionary.take(pa.array(codes_s[seg_start])),
            pa.array(seg_n.astype(np.uint32)),
            pa.array(ids_s[seg_start], pa.uint64()),
            # the first id rides as a column, not in the payload
            encode_segments(gaps[~is_first], seg_n - 1),
            encode_segments(tfs_s, seg_n),
            encode_segments(dls_s, seg_n),
        ]
        with_pos = "npos" in batch.column_names
        if with_pos:
            npos = pc.list_flatten(batch.column("npos")).to_numpy()[order]
            poss = pc.list_flatten(batch.column("poss")).combine_chunks()
            cols += [encode_segments(npos, seg_n),
                     concat_segments(poss.take(pa.array(order)), seg_n)]
        return pa.Table.from_arrays(cols, schema=partial_schema(with_pos))


_MANIFEST_SCHEMA = pa.schema([
    ("skey", pa.int64()), ("path", pa.string()), ("n_blocks", pa.int64()),
    ("n_postings", pa.int64()), ("bytes", pa.int64()),
    ("seconds", pa.float64()), ("resumed", pa.bool_())])
# term_stats rows (and the negative per-update deltas beside them)
TERM_STATS_SCHEMA = pa.schema([
    ("term", pa.string()), ("termfreq", pa.int64()),
    ("collfreq", pa.int64()), ("wdf_ub", pa.int64())])


def _manifest_row(skey: int, path: str, n_blocks: int, n_postings: int,
                  nbytes: int, resumed: bool, seconds: float) -> pa.Table:
    return pa.Table.from_pylist([{
        "skey": skey, "path": path, "n_blocks": n_blocks,
        "n_postings": n_postings, "bytes": nbytes, "seconds": seconds,
        "resumed": resumed}], schema=_MANIFEST_SCHEMA)


# a ``paths`` build whose files hold at most this many bytes runs its stage
# callables on Arrow tables in the driver (the driver leg); above it, and
# for every Dataset input, as the Ray Data plan. A warm 4-CPU A/B
# (refresh config, fixture pages of ~4.7 KB) puts the build-wall crossover
# near 20 MiB: the driver leg took 0.62 s against 1.00 at 300 pages
# (1.5 MB), 3.86 against 4.30 at 3,500 (16.5 MB) and 4.97 against 4.81 at
# 4,500 (21.0 MB). But a Ray session whose builds all ran here has no
# worker with the engine imported, and its first distributed search pays
# that (0.77 s against 0.10). So the leg is kept to update-batch size,
# below a typical base build
DRIVER_BUILD_BYTES = 4 << 20
# below this many rows the url map is sorted and written in one local pass
# (a Ray sort's fixed cost exceeds the work); above it, by a Ray sort
URL_MAP_DRIVER_ROWS = 100_000
# term-stat partial rows merged driver-side in one Arrow groupby; above
# this the merge runs as a distributed Ray groupby, so a trillion-doc
# term dictionary never has to fit on the driver
TERM_STATS_DRIVER_ROWS = 2_000_000
# rows per row group of every sorted run (term_stats/ and url_map/ files,
# both legs of each): ``read_sorted_run`` reads only the groups whose
# footer [min, max] key range can hold a looked-up key, so small groups
# read few rows. On a refresh-shaped index, cold term lookups took 6.7 ms
# per call at 1,024 rows against 11.0 at 4,096, for 9% more stats bytes
SORTED_RUN_ROW_GROUP = 1024
# parquet settings of every postings/part-*.parquet: small row groups so
# the reader's term filter prunes, the term column dictionary-encoded
POSTINGS_PARQUET = {"row_group_size": 4096, "use_dictionary": ["term"]}
# the greatest code point: the strings under prefix p lie in [p, p + it]
_MAXCHAR = "\U0010ffff"


def read_sorted_run(path: str, col: str, keys, prefixes=(),
                    columns: list[str] | None = None) -> pa.Table:
    """The row groups of one parquet file that can hold one of the sorted
    ``keys`` in column ``col``, or a string under one of ``prefixes``
    (``keys=None``: every group), read with ``columns``. Reads the footer,
    then only the groups whose [min, max] ``col`` range overlaps a key or
    a ``[p, p + U+10FFFF]`` range. A group without statistics is read, so
    only the pruning, never the answer, rests on the file being sorted by
    ``col``; callers filter the rows to their keys. Term stats (by term),
    url maps (by url) and tokenized files (by doc_id) are all read here."""
    pf = pq.ParquetFile(path)
    md = pf.metadata
    c = md.schema.names.index(col)
    groups = []
    for i in range(md.num_row_groups):
        st = md.row_group(i).column(c).statistics
        if keys is not None and st is not None and st.has_min_max:
            lo, hi = st.min, st.max
            j = bisect_left(keys, lo)
            if not ((j < len(keys) and keys[j] <= hi) or any(
                    p <= hi and lo <= p + _MAXCHAR for p in prefixes)):
                continue
        groups.append(i)
    return pf.read_row_groups(groups, columns=columns)


def write_url_map(out_dir: str) -> None:
    """Write ``out_dir/url_map/`` from the (url, doc_id, doclen) columns
    of ``out_dir/tokenized/``: a sorted run in (url, doc_id) order, in row
    groups of ``SORTED_RUN_ROW_GROUP`` — one file sorted on the driver up
    to URL_MAP_DRIVER_ROWS rows, else a Ray sort whose files, in name
    order, continue the run — then the done marker."""
    tok_dir = os.path.join(out_dir, "tokenized")
    um_dir = os.path.join(out_dir, "url_map")
    cols = ["url", "doc_id", "doclen"]
    checkpoint.clear_dir(um_dir)
    tok_rows = sum(pq.read_metadata(f).num_rows
                   for f in _parquet_files(tok_dir))
    if tok_rows <= URL_MAP_DRIVER_ROWS:
        t = pq.ParquetDataset(tok_dir).read(columns=cols)
        checkpoint.write_table(
            t.sort_by([("url", "ascending"), ("doc_id", "ascending")]),
            os.path.join(um_dir, "part-000000.parquet"),
            row_group_size=SORTED_RUN_ROW_GROUP)
    else:
        import ray.data

        checkpoint.write_dataset(ray.data.read_parquet(
            tok_dir, file_extensions=["parquet"], columns=cols
        ).sort(["url", "doc_id"]), um_dir,
            row_group_size=SORTED_RUN_ROW_GROUP)
    checkpoint.mark_done(um_dir, "_SUCCESS")


def url_map_lookup(seg_dir: str, urls: list[str]) -> pa.Table:
    """(doc_id, url, doclen) rows of ``urls`` from a segment's url map.
    Its cost is the footers of the map's files plus the row groups whose
    [min, max] url range can hold a queried url (``read_sorted_run``) —
    never the segment's corpus. Raises FileNotFoundError when the segment
    has no complete url map (it has no ``url`` column, or its build did
    not finish)."""
    um_dir = os.path.join(seg_dir, "url_map")
    if not checkpoint.is_done(um_dir, "_SUCCESS"):
        raise FileNotFoundError(f"{seg_dir}: no complete url map")
    keys = sorted(set(urls))
    schema = pa.schema([("doc_id", pa.uint64()), ("url", pa.string()),
                        ("doclen", pa.uint32())])
    t = pa.concat_tables([schema.empty_table()] + [
        read_sorted_run(f, "url", keys, columns=schema.names).cast(schema)
        for f in _parquet_files(um_dir)])
    return t.filter(pc.is_in(t.column("url"),
                             value_set=pa.array(keys, pa.string())))


def _parquet_files(d: str) -> list[str]:
    """The sorted ``*.parquet`` paths in ``d`` (none when it is absent)."""
    if not os.path.isdir(d):
        return []
    return [os.path.join(d, f) for f in sorted(os.listdir(d))
            if f.endswith(".parquet")]


# the block columns a segment's term stats come from
_BLOCK_STATS = ["term", "n", "sum_wdf", "max_wdf"]


def _stats_partial_from_blocks(blocks: pa.Table) -> pa.Table:
    """Exact per-term stats of posting blocks, from their metadata:
    termfreq = sum n, collfreq = sum wdf, wdf_ub = max wdf."""
    agg = pa.TableGroupBy(blocks.select(_BLOCK_STATS), "term").aggregate(
        [("n", "sum"), ("sum_wdf", "sum"), ("max_wdf", "max")])
    return pa.table({
        "term": agg.column("term"),
        "termfreq": agg.column("n_sum").cast(pa.int64()),
        "collfreq": agg.column("sum_wdf_sum").cast(pa.int64()),
        "wdf_ub": agg.column("max_wdf_max").cast(pa.int64()),
    })


def _fold_term_stats(src, ts_dir: str) -> int:
    """Sum ``TERM_STATS_SCHEMA`` rows per term into ``ts_dir`` — termfreq
    and collfreq summed, wdf_ub maxed — sorted by term, in row groups of
    ``SORTED_RUN_ROW_GROUP``; a term whose termfreq sums to 0 (every dead
    doc holding it left the fold at a merge) is dropped. ``src`` is an
    Arrow table, folded on the driver, or a Ray Dataset, folded by a Ray
    groupby. Returns the max wdf_ub — the glass version-file wdf_ubound
    analog (glass_version.h:260-262), input to the per-term xapian wdf
    bound."""
    checkpoint.clear_dir(ts_dir)  # always recomputed; drop stale output
    if isinstance(src, pa.Table):
        agg = pa.TableGroupBy(src, "term").aggregate(
            [("termfreq", "sum"), ("collfreq", "sum"), ("wdf_ub", "max")])
        merged = pa.table({
            "term": agg.column("term"),
            "termfreq": agg.column("termfreq_sum").cast(pa.int64()),
            "collfreq": agg.column("collfreq_sum").cast(pa.int64()),
            "wdf_ub": agg.column("wdf_ub_max").cast(pa.int64()),
        })
        merged = merged.filter(pc.not_equal(merged.column("termfreq"), 0))
        merged = merged.take(pc.sort_indices(
            merged, sort_keys=[("term", "ascending")]))
        checkpoint.write_table(
            merged, os.path.join(ts_dir, "part-000000.parquet"),
            row_group_size=SORTED_RUN_ROW_GROUP)
        return int(pc.max(merged.column("wdf_ub")).as_py() or 0)
    from ray.data.aggregate import Max, Sum

    checkpoint.write_dataset(
        src.groupby("term").aggregate(
            Sum("termfreq", alias_name="termfreq"),
            Sum("collfreq", alias_name="collfreq"),
            Max("wdf_ub", alias_name="wdf_ub")).filter(
            expr="termfreq != 0"), ts_dir,
        row_group_size=SORTED_RUN_ROW_GROUP)
    return int(src.aggregate(Max("wdf_ub", alias_name="m"))["m"] or 0)


def merge_term_stats(files: list[str], ts_dir: str,
                     extra: pa.Table | None = None) -> int:
    """Fold per-term stat rows (``TERM_STATS_SCHEMA`` parquet files, plus
    the in-memory ``extra`` rows) into ``ts_dir`` (``_fold_term_stats``):
    how a fold keeps its stats. Past TERM_STATS_DRIVER_ROWS rows the fold
    is a Ray groupby, so a trillion-doc term dictionary never has to fit
    on the driver. Returns the max wdf_ub."""
    rows = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
    extra = [] if extra is None else [extra.cast(TERM_STATS_SCHEMA)]
    if rows + sum(map(len, extra)) <= TERM_STATS_DRIVER_ROWS:
        tabs = [pq.ParquetDataset(files).read().cast(TERM_STATS_SCHEMA)] \
            if files else []
        return _fold_term_stats(pa.concat_tables(
            tabs + extra or [TERM_STATS_SCHEMA.empty_table()]), ts_dir)
    import ray.data

    ds = [ray.data.read_parquet(files)] if files else []
    ds += [ray.data.from_arrow(t) for t in extra]
    return _fold_term_stats(ds[0].union(*ds[1:]) if ds[1:] else ds[0],
                            ts_dir)


def finish_segment(out_dir: str, manifest: pa.Table) -> int:
    """Finish a segment whose ``postings/`` parts are written: write
    ``_manifest.jsonl`` from their ``manifest`` rows in skey order, then
    ``term_stats/`` from the segment's own blocks — their (term, n,
    sum_wdf, max_wdf) columns (``_stats_partial_from_blocks``) folded per
    term — on the driver up to TERM_STATS_DRIVER_ROWS block rows (footer
    counts), else as a Ray read and groupby. Every build, policy merge
    and ``compact`` ends here. Returns the max wdf_ub."""
    checkpoint.write_text(
        "".join(json.dumps(row) + "\n"
                for row in manifest.sort_by("skey").to_pylist()),
        os.path.join(out_dir, "_manifest.jsonl"))
    files = _parquet_files(os.path.join(out_dir, "postings"))
    ts_dir = os.path.join(out_dir, "term_stats")
    if sum(pq.ParquetFile(f).metadata.num_rows for f in files) \
            <= TERM_STATS_DRIVER_ROWS:
        blocks = pq.ParquetDataset(files).read(columns=_BLOCK_STATS) \
            if files else blocks_schema().empty_table()  # an empty segment
        return _fold_term_stats(_stats_partial_from_blocks(blocks), ts_dir)
    import ray.data

    return _fold_term_stats(ray.data.read_parquet(
        files, columns=_BLOCK_STATS).map_batches(
        _stats_partial_from_blocks, batch_format="pyarrow"), ts_dir)


def write_postings_part(out_dir: str, key: int, cfg: IndexConfig,
                        docs_per_bucket: int | None, terms, doc_ids, tfs,
                        dls, *pos) -> pa.Table | None:
    """Encode one (term-part, doc-bucket)'s postings, sorted by (term,
    doc_id) and then (npos, pos_payloads) when positional, into blocks of
    the index's block size, stripe-aligned when several doc buckets
    interleave id stripes (codec.encode_partition); write them atomically
    to ``postings/part-<key>.parquet`` and return the manifest row (None,
    and no file, when there are no postings). Every build and merge
    writes its parts here."""
    t0 = time.perf_counter()
    blocks = encode_partition(
        terms, doc_ids, tfs, dls, block_size=cfg.block_size,
        stripe_size=docs_per_bucket if cfg.num_doc_buckets > 1 else None,
        **dict(zip(("npos", "pos_payloads"), pos)))
    if not len(blocks):
        return None
    path = os.path.join(out_dir, "postings", f"part-{key:06d}.parquet")
    checkpoint.write_table(blocks, path, **POSTINGS_PARQUET)
    return _manifest_row(key, path, len(blocks), len(doc_ids),
                         os.path.getsize(path), resumed=False,
                         seconds=time.perf_counter() - t0)


def encode_write_group(group: pa.Table, out_dir: str,
                       cfg: IndexConfig,
                       docs_per_bucket: int | None = None) -> pa.Table:
    """map_groups body for one shuffle group of PACKED partial posting rows:
    decode+merge to (term, doc_id) order and write the part
    (``write_postings_part``); returns its manifest row. Skips work
    (resume) when the output file already exists."""
    skey = int(group.column("skey")[0].as_py())
    path = os.path.join(out_dir, "postings", f"part-{skey:06d}.parquet")
    if os.path.exists(path):
        return _manifest_row(skey, path,
                             pq.ParquetFile(path).metadata.num_rows,
                             int(pc.sum(group.column("n")).as_py() or 0), 0,
                             resumed=True, seconds=0.0)
    return write_postings_part(out_dir, skey, cfg, docs_per_bucket,
                               *decode_partial_group(group))


def _doclen_partial(batch: pa.Table) -> pa.Table:
    """One (n, sum, min, max doclen, max doc_id) row per tokenized file."""
    rows = {"n": [], "s": [], "lo": [], "hi": [], "max_id": []}
    for p in batch.column("path").to_pylist():
        t = pq.read_table(p, columns=["doclen", "doc_id"])
        a = t.column("doclen")
        n = len(a)
        rows["n"].append(n)
        rows["s"].append(int(pc.sum(a).as_py() or 0))
        rows["lo"].append(int(pc.min(a).as_py()) if n else None)
        rows["hi"].append(int(pc.max(a).as_py()) if n else None)
        rows["max_id"].append(
            int(pc.max(t.column("doc_id")).as_py()) if n else None)
    return pa.table({k: pa.array(v, pa.int64()) for k, v in rows.items()})


def doc_stats(tok_dir: str, local: bool = False) -> tuple[dict, int]:
    """(n_docs, total_doclen, doclen_lb/ub, avg_doclen) of the docs in
    ``tok_dir``'s files, and the next free doc_id: one partial row per
    file — a task-pool map, or with ``local`` a driver loop — folded on
    the driver. Compacted indexes keep doc_ids across tombstone holes, so
    the next free id is max(live id)+1, NOT n_docs (which may be a live
    id)."""
    files = [{"path": os.path.join(tok_dir, f)} for f in sorted(
        os.listdir(tok_dir)) if f.endswith(".parquet")]
    if local:
        partials = _doclen_partial(pa.Table.from_pylist(files)).to_pylist()
    else:
        import ray.data

        partials = ray.data.from_items(files).map_batches(
            _doclen_partial, batch_format="pyarrow").take_all()

    def fold(key: str, fn) -> int:
        vals = [r[key] for r in partials if r[key] is not None]
        return fn(vals) if vals else 0

    n, total = fold("n", sum), fold("s", sum)
    return {"n_docs": n, "total_doclen": total,
            "doclen_lb": fold("lo", min), "doclen_ub": fold("hi", max),
            "avg_doclen": (total / n) if n else 0.0,
            }, fold("max_id", lambda v: max(v) + 1)


def commit_build(out_dir: str, gstats: dict, metrics: dict,
                 next_doc_id: int, t_start: float) -> dict:
    """Finish a single-segment index: record the total time in
    ``metrics``, write ``global_stats.json`` and ``_metrics.json``, then
    ``segments.json`` — the commit point, whose stats snapshot lets a
    crashed update re-run without double-counting. Returns ``gstats``."""
    metrics["total"] = round(time.perf_counter() - t_start, 3)
    if gstats["n_docs"]:
        metrics["docs_per_sec"] = round(gstats["n_docs"] / metrics["total"], 2)
    gstats["stage_metrics"] = metrics
    checkpoint.write_text(json.dumps(gstats, indent=1),
                          os.path.join(out_dir, "global_stats.json"))
    checkpoint.write_text(json.dumps(metrics, indent=1),
                          os.path.join(out_dir, "_metrics.json"))
    checkpoint.write_text(
        json.dumps({"segments": ["."],
                    "segment_docs": {".": gstats["n_docs"]},
                    "next_doc_id": next_doc_id, "next_gen": 1,
                    "global_stats": gstats}, indent=1),
        os.path.join(out_dir, "segments.json"))
    return gstats


def _tokenize_dataset(paths: list[str] | None, dataset, cfg: IndexConfig,
                      id_base: int):
    """The Ray leg's stage 1 plan: read (or take) the input, attach ids,
    extract and tokenize on an actor pool."""
    import ray

    if dataset is None:
        ds = read_pages(paths, columns=["url", "html"], id_base=id_base)
    else:
        ds = dataset
        names = ds.schema().names
        if "doc_id" not in names and "terms" not in names:
            # url+text/html dataset without ids (the documented input
            # shape): assign deterministic ids by url rank
            from ..sources.pages import assign_doc_ids
            ds = assign_doc_ids(ds, id_base=id_base)
    if "terms" in ds.schema().names:
        return ds  # caller already tokenized (e.g. field-prefix stage)
    if "html" in ds.schema().names:
        ds = ds.map_batches(extract_batch, batch_format="pyarrow")
    # size the actor pool to exactly the cluster's CPUs rather than letting
    # the autoscaling pool ramp up from its minimum — on a short job the
    # ramp-up IS the job; max(2, ...) would oversubscribe a 1-CPU cluster
    # and skew scaling measurements
    concurrency = max(1, int(ray.cluster_resources().get("CPU", 2)))
    return ds.map_batches(
        TokenizeStage(cfg), batch_format="pyarrow",
        batch_size=cfg.tokenize_batch_size, concurrency=concurrency)


def _tokenize_local(paths: list[str], id_base: int,
                    cfg: IndexConfig) -> pa.Table:
    """The Ray plan's read, extract and tokenize callables run on the
    driver: ``_ReadShard`` over the (path, base) control rows, then
    ``extract_batch``, then ``TokenizeStage`` in ``tokenize_batch_size``
    slices. Rows come out in doc_id order."""
    stage, step = TokenizeStage(cfg), cfg.tokenize_batch_size
    tabs = [stage(t.slice(i, step))
            for t in map(extract_batch, _ReadShard(["url", "html"])(
                pa.Table.from_pylist(shard_control(paths, id_base))))
            for i in range(0, len(t), step)]
    return pa.concat_tables(tabs) if tabs \
        else staging_schema(cfg).empty_table()


def _encode_local(tok: pa.Table, out_dir: str, cfg: IndexConfig,
                  docs_per_bucket: int) -> pa.Table:
    """The Ray plan's shuffle on the driver: ``PartialPostingsStage`` in
    ``postings_batch_size`` slices, then one ``encode_write_group`` per
    ``skey``. Returns the manifest rows."""
    stage, step = PartialPostingsStage(cfg, docs_per_bucket), \
        cfg.postings_batch_size
    tabs = [stage(tok.slice(i, step)) for i in range(0, len(tok), step)]
    if not tabs:
        return _MANIFEST_SCHEMA.empty_table()
    posts = pa.concat_tables(tabs)
    posts = posts.take(pc.sort_indices(posts, [("skey", "ascending")]))
    skeys = posts.column("skey").to_numpy()
    cuts = [0, *(np.flatnonzero(np.diff(skeys)) + 1), len(skeys)]
    rows = [encode_write_group(posts.slice(a, b - a), out_dir, cfg,
                               docs_per_bucket)
            for a, b in zip(cuts[:-1], cuts[1:]) if b > a]
    return pa.concat_tables(rows) if rows \
        else _MANIFEST_SCHEMA.empty_table()


def build_index(out_dir: str,
                paths: list[str] | None = None,
                dataset=None,
                cfg: IndexConfig | None = None,
                total_docs: int | None = None,
                id_base: int = 0,
                docs_per_bucket: int | None = None) -> dict:
    """Build the full index under ``out_dir``. Input is exactly one of
    ``paths`` (pages-shaped parquet: url, warc_ts, html, text, lang) and
    ``dataset`` (a Ray Dataset carrying text or html plus either a
    ``doc_id`` column or a ``url`` to derive deterministic ids from);
    ValueError otherwise, before ``out_dir`` is created. ``id_base`` offsets
    the doc_ids of ``paths`` and the derived ids of ``dataset`` — updates
    continue the id space. ``docs_per_bucket`` is the doc-bucket stripe
    width; by default ceil(total_docs / S) (a ``paths`` build counts its
    rows), else ``cfg.docs_per_bucket``. An update passes its index's
    recorded width, so the delta's stripes match the merge's and the
    reader's.

    ``paths`` of at most ``DRIVER_BUILD_BYTES`` on disk build on the
    driver (the module docstring's two legs).

    Returns the global stats dict. Ray must already be initialised by the
    caller (the driver owns the session)."""
    if (paths is None) == (dataset is None):
        raise ValueError("build_index takes exactly one input: paths= or "
                         "dataset=")
    cfg = cfg or IndexConfig()
    os.makedirs(out_dir, exist_ok=True)
    tok_dir = os.path.join(out_dir, "tokenized")
    metrics: dict[str, float] = {}
    t_start = time.perf_counter()

    def _mark(stage: str, t0: float) -> None:
        metrics[stage] = round(time.perf_counter() - t0, 3)

    if paths is not None:
        paths = sorted(paths)
    local = dataset is None and sum(
        os.path.getsize(p) for p in paths) <= DRIVER_BUILD_BYTES
    if docs_per_bucket is None:
        if paths is not None and total_docs is None:
            total_docs = sum(file_row_counts(paths))
        docs_per_bucket = (
            max(1, -(-int(total_docs) // cfg.num_doc_buckets))
            if total_docs else cfg.docs_per_bucket)

    # ---- stage 1: extract + tokenize -> staging checkpoint -----------------
    t0 = time.perf_counter()
    tok = None
    if not checkpoint.is_done(tok_dir, "_SUCCESS"):
        # a crash mid-write leaves partial staging files with no _SUCCESS;
        # both legs clear them before rewriting
        if local:
            tok = _tokenize_local(paths, id_base, cfg)
            checkpoint.clear_dir(tok_dir)
            # row groups of one tokenize batch keep _stats_deltas_for's
            # footer pruning as fine as the Ray leg's
            checkpoint.write_table(
                tok, os.path.join(tok_dir, "part-000000.parquet"),
                row_group_size=cfg.tokenize_batch_size)
        else:
            checkpoint.write_dataset(_tokenize_dataset(
                paths, dataset, cfg, id_base), tok_dir, staging_schema(cfg))
        checkpoint.mark_done(tok_dir, "_SUCCESS")
    _mark("extract_tokenize", t0)

    # ---- stage 1b: url -> (doc_id, doclen) sorted run ----------------------
    # Updates look up replaced urls here instead of scanning every segment's
    # tokenized table (a corpus scan per update batch at 10^12 docs). The
    # (url, doc_id, doclen) rows sorted by url, like term_stats/ by term;
    # a lookup reads the row groups whose footer url range can hold a url.
    t0 = time.perf_counter()
    if "url" in pq.ParquetDataset(tok_dir).schema.names and \
            not checkpoint.is_done(os.path.join(out_dir, "url_map"),
                                   "_SUCCESS"):
        write_url_map(out_dir)
    _mark("url_map", t0)

    # ---- stage 2: global stats (per-file partials, driver reduce) ----------
    # The docs table (doc_id, url, doclen) is NOT re-written: tokenized/ IS
    # the docs table — parquet column pruning makes reading just those three
    # columns cheap. The doclen aggregate is algebraic (count/sum/min/max),
    # so ``doc_stats`` maps over files and folds on the driver — an
    # all-to-all ``Dataset.aggregate`` here would shuffle for no reason.
    t0 = time.perf_counter()
    gstats, next_doc_id = doc_stats(tok_dir, local)
    gstats.update({k: getattr(cfg, k) for k in RECORDED_SETTINGS},
                  docs_per_bucket=docs_per_bucket)
    _mark("global_stats", t0)

    # ---- stage 3: the merge shuffle -> encoded posting partitions ----------
    t0 = time.perf_counter()
    if local:
        if tok is None:  # resumed past the staging checkpoint
            tok = pq.ParquetDataset(tok_dir).read().sort_by("doc_id")
        man_table = _encode_local(tok, out_dir, cfg, docs_per_bucket)
    else:
        import ray.data
        from functools import partial

        posts = ray.data.read_parquet(
            tok_dir, file_extensions=["parquet"]).map_batches(
            PartialPostingsStage(cfg, docs_per_bucket),
            batch_format="pyarrow", batch_size=cfg.postings_batch_size)
        manifest = posts.groupby("skey").map_groups(
            partial(encode_write_group, out_dir=out_dir, cfg=cfg,
                    docs_per_bucket=docs_per_bucket),
            batch_format="pyarrow")
        # one row per shuffle group; an empty build has none
        man_table = pa.Table.from_pylist(manifest.take_all(),
                                         schema=_MANIFEST_SCHEMA)
    _mark("merge_shuffle_encode", t0)
    # skew evidence: with doc-range salting no shuffle group should be much
    # larger than the mean even though stopword-grade terms hit 60%+ of docs
    nposts = man_table.column("n_postings").to_numpy()
    if len(nposts) and nposts.sum():
        metrics["shuffle_groups"] = int(len(nposts))
        metrics["shuffle_max_group_share"] = round(
            float(nposts.max()) / float(nposts.sum()), 4)
        metrics["shuffle_balance_max_over_mean"] = round(
            float(nposts.max()) / float(nposts.mean()), 2)

    # ---- stage 4: manifest + term stats from the segment's own blocks ------
    t0 = time.perf_counter()
    gstats["wdf_ub_global"] = finish_segment(out_dir, man_table)
    _mark("term_stats", t0)
    return commit_build(out_dir, gstats, metrics, next_doc_id, t_start)
