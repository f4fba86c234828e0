"""Incremental index update: the reference's upsert-by-url re-run semantics.

``mdq <db> update`` is idempotent: re-running replaces documents whose key
term ``Q<fullpath>`` already exists (backends/database.cc:193-208). The
columnar rebuild expresses the same contract as LSM-style delta segments:

    <index>/                      base build (gen 0)
    <index>/updates/gen-0001/     each update = a complete mini-index over
                                  the new/changed docs (same P x S layout)
    <index>/merged/m-0003/        a merge of consecutive segments
    <index>/folds/f-0004/         the fold: the dead docs still on disk —
                                  term_stats/ holds their NEGATIVE per-term
                                  rows (exact, from their tokenized rows),
                                  dead.parquet their sorted doc_ids
    <index>/tombstones/*.parquet  each generation's dead doc_ids: a
                                  write-only record, never read back
    <index>/segments.json         the commit point: segment list, per-
                                  segment doc counts, the fold, next_doc_id,
                                  next_gen and the global stats snapshot

Each update's segment is a ``build_index`` of the batch with the index's
recorded settings and stripe width (``docs_per_bucket``), its doc_ids
continuing at ``next_doc_id``. A batch given as ``paths`` stays paths, so
one under ``build.DRIVER_BUILD_BYTES`` — a refresh generation — builds on
the driver leg, without a Ray Data job. The urls it replaces are looked
up in each segment's ``url_map/``, a run sorted by url (as ``term_stats/``
is by term): the lookup reads the footers and the row groups whose url
range can hold a batch url, and the replaced docs' stat deltas read the
tokenized row groups whose doc_id range can hold a replaced id, both
through ``build.read_sorted_run``.

One rule holds the stats: a segment's term stats are its own blocks'
stats, and the fold subtracts the dead docs still on disk. Queries see
exact results: the reader unions posting partitions across segments,
drops the fold's dead doc_ids at decode time, and sums term_stats over
segments + fold — termfreq/collfreq are EXACT; wdf_ub counts dead docs
until a merge drops them (still a valid WAND upper bound). Global
n_docs/avg_doclen are recomputed exactly at update time from the
replaced docs' stored doclens. Readers see committed state only: what
``segments.json`` names, so a crashed update's segment, fold and
``global_stats.json`` stay invisible. ``compact()`` merges every segment
into a single-segment index elsewhere with the same merge kernel (the
analog of xapian-compact); every dead doc is in an input, so no fold.

Each update or delete commits in three steps:

1. write the generation's record ``tombstones/gen-NNNN.parquet`` and its
   fold ``folds/f-NNNN`` = the committed fold + this generation: its
   deltas summed into the fold's per-term rows (``merge_term_stats``),
   its dead ids unioned into the fold's;
2. swap ``segments.json`` atomically — the commit point, naming the new
   fold;
3. delete the previous fold.

A reader therefore opens one stats file per segment plus the fold's two
files, however many generations ran. Every update and delete starts by
deleting the fold ``segments.json`` does not name (a crashed attempt's,
or one step 3 did not finish), so after a commit exactly one is on disk.

Merge policy (size-tiered, as in Lucene's TieredMergePolicy). After each
update commits, the segments BEFORE the newest one are scanned from the
back: the run grows by the next older segment while the run's docs are at
least 1/``MERGE_FACTOR`` of that segment's; a run of two or more merges
in one pass (the base ``"."`` may take part). A segment's size is the
number of docs its generations added, dead ones included (a merge's size
is its inputs' sum), so the tiers follow the write history alone and the
count stays about log(generations). The newest segment is never an input:
its directory is the update's own build record. The merge needs no
shuffle — every segment shares the P x S layout and doc_ids rise by
segment, so each ``part-k`` merges on its own: decode the inputs'
blocks, drop the fold's dead doc_ids and write the rest with the build's
part writer; the build's segment finisher then takes the term stats from
the merged blocks. The dropped docs leave the fold too: its stats gain
D = the inputs' term stats minus the merged segment's, per term, and its
dead ids lose those in the inputs' doc-id range (segments hold disjoint,
rising id ranges). Segments + fold keep their exact sum.

A merge commits in three steps:

1. write ``merged/m-NNNN`` (NNNN = the newest committed generation),
   cleared first, and its fold ``folds/m-NNNN``;
2. swap ``segments.json`` atomically — the commit point, naming both;
3. retire the inputs: delete their data (``_SEGMENT_DATA``; an update
   generation keeps its build record, a merge directory goes whole),
   then every other fold.

``update_index`` starts by clearing every segment's data and every fold
``segments.json`` does not list (a crashed merge's output, or inputs it
did not finish retiring), then re-runs the policy, which redoes a merge
a crash interrupted and is a no-op otherwise. A reader opened before a
swap keeps its old segment list and fold and may then hit a deleted
directory; open a new reader (or ``SearchSession``) after an update.

Replaced docs get a NEW doc_id (arrival order of the update), unlike
Xapian which keeps the old docid — a documented divergence: keeping the id
would require rewriting every posting partition the old version touched,
the one thing a 10^12-doc index must never do per update.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from .. import checkpoint
from ..config import RECORDED_SETTINGS, IndexConfig
from .build import (
    _MANIFEST_SCHEMA,
    TERM_STATS_SCHEMA,
    _parquet_files,
    build_index,
    commit_build,
    doc_stats,
    finish_segment,
    merge_term_stats,
    read_sorted_run,
    url_map_lookup,
    write_postings_part,
    write_url_map,
)
from .codec import check_codec, decode_postings

# a merge folds a trailing run of segments whose doc counts stay within
# this factor of the next older one (see the module docstring)
MERGE_FACTOR = 2
# below this many bytes of input postings + tokenized files a merge's
# groups run in a local loop (a Ray stage's fixed scheduling cost exceeds
# the work); above it, as Ray Data tasks
_MERGE_DRIVER_BYTES = 64 << 20
# a segment's data, as opposed to its build record: a merge writes these,
# retirement deletes them
_SEGMENT_DATA = ("postings", "term_stats", "tokenized", "url_map")
# the fold's sorted dead doc_ids, beside its term_stats/ directory
_FOLD_DEAD = "dead.parquet"


def _segments_path(index_dir: str) -> str:
    return os.path.join(index_dir, "segments.json")


def load_segments(index_dir: str) -> dict:
    """The committed state. Its ``global_stats`` snapshot, not
    ``global_stats.json``, is authoritative: a crash between the two
    writes must not let a re-run double-count. Every reader, update,
    delete and compaction opens an index here, so an index whose payload
    codec this engine cannot read fails here (ValueError)."""
    with open(_segments_path(index_dir)) as f:
        segs = json.load(f)
    check_codec(segs["global_stats"].get("codec", "varint"))
    return segs


def dead_ids(index_dir: str, fold: str | None) -> np.ndarray:
    """Sorted doc_ids of the dead document versions in the committed fold
    ``fold`` (``segments.json``'s ``"fold"``; None before any update)."""
    if fold is None:
        return np.empty(0, np.uint64)
    t = pq.ParquetFile(os.path.join(index_dir, fold, _FOLD_DEAD)).read()
    return t.column("doc_id").to_numpy().astype(np.uint64)


def fold_stats_files(index_dir: str, fold: str | None) -> list[str]:
    """The committed fold's per-term delta files (none before any
    update)."""
    return [] if fold is None else _parquet_files(
        os.path.join(index_dir, fold, "term_stats"))


def _live_url_ids(index_dir: str, segs: dict, urls: list[str]) -> pa.Table:
    """(doc_id, url, doclen) of LIVE docs among ``urls`` across segments,
    from each segment's url-sorted url map (``url_map_lookup``: only the
    row groups that can hold the urls — no corpus scan per update). Only
    the committed fold's dead ids count: a re-run after a crash
    mid-commit recomputes the SAME replaced set, not an empty one."""
    ts = dead_ids(index_dir, segs.get("fold"))
    out = pa.concat_tables([url_map_lookup(os.path.join(index_dir, s), urls)
                            for s in segs["segments"]])
    if len(ts):
        keep = ~np.isin(out.column("doc_id").to_numpy().astype(np.uint64), ts)
        out = out.filter(pa.array(keep))
    return out


def _file_doc_id_range(path: str) -> tuple[int, int] | None:
    """[min, max] doc_id of one tokenized parquet file from its footer
    statistics (no data read); None when a row group has none."""
    md = pq.read_metadata(path)
    c = md.schema.names.index("doc_id")
    st = [md.row_group(i).column(c).statistics
          for i in range(md.num_row_groups)]
    if not st or not all(x is not None and x.has_min_max for x in st):
        return None
    return min(x.min for x in st), max(x.max for x in st)


def _file_delta_partial(path: str, ids_sorted: np.ndarray) -> pa.Table:
    """POSITIVE per-term (count, sum) partial for one file's replaced rows:
    only the row groups whose footer doc_id range can hold a replaced id
    are read (``read_sorted_run``), with column pruning, and filtered
    vectorized."""
    t = read_sorted_run(path, "doc_id", ids_sorted,
                        columns=["doc_id", "terms", "tfs"])
    mask = np.isin(t.column("doc_id").to_numpy().astype(np.uint64),
                   ids_sorted)
    t = t.filter(pa.array(mask))
    flat_terms = pc.list_flatten(t.column("terms"))
    flat_tfs = pc.list_flatten(t.column("tfs")).cast(pa.int64())
    agg = pa.TableGroupBy(
        pa.table({"term": flat_terms, "tf": flat_tfs}), "term"
    ).aggregate([("tf", "count"), ("tf", "sum")])
    return pa.table({
        "term": agg.column("term"),
        "cnt": agg.column("tf_count").cast(pa.int64()),
        "tot": agg.column("tf_sum").cast(pa.int64()),
    })


def _delta_partials(batch: pa.Table, ids_sorted: np.ndarray) -> pa.Table:
    """map_batches body: ``_file_delta_partial`` of each ``path`` row."""
    return pa.concat_tables([_file_delta_partial(p, ids_sorted)
                             for p in batch.column("path").to_pylist()])


# below this many pruned files the per-file partials run in a local loop
# (a Ray stage's fixed scheduling cost exceeds the work)
_DELTA_DRIVER_FILES = 8


def _stats_deltas_for(index_dir: str, segs: dict,
                      doc_ids: np.ndarray) -> pa.Table:
    """Exact NEGATIVE per-term (termfreq, collfreq) rows for the given
    doc_ids, from their stored tokenized rows.

    Scale shape: tokenized files carry prefix-sum doc_ids, so each file
    covers one contiguous id range — footer statistics prune the scan to
    files (and row groups) that intersect the replaced id set, and the
    per-file partial aggregates run as a Ray task pool when the pruned set
    is large. Cost is bounded by (files hit) x (row-group size), i.e. by
    the UPDATE batch and its locality, not the corpus — a fully scattered
    replaced set over a much larger corpus still degrades to a parallel
    corpus pass (the documented limit). The output delta table is bounded
    by the replaced docs' distinct terms, never corpus-scale."""
    if len(doc_ids) == 0:
        return TERM_STATS_SCHEMA.empty_table()
    ids_sorted = np.sort(np.asarray(doc_ids, np.uint64))
    files: list[str] = []
    for seg in segs["segments"]:
        for p in _parquet_files(os.path.join(index_dir, seg, "tokenized")):
            rng = _file_doc_id_range(p)
            if rng is not None:
                j0 = np.searchsorted(ids_sorted, np.uint64(rng[0]))
                j1 = np.searchsorted(ids_sorted, np.uint64(rng[1]), "right")
                if j1 == j0:
                    continue  # file's id range holds no replaced doc
            files.append(p)
    if not files:
        return TERM_STATS_SCHEMA.empty_table()

    if len(files) <= _DELTA_DRIVER_FILES:
        partials = [_file_delta_partial(p, ids_sorted) for p in files]
    else:
        import ray
        import ray.data

        partials = ray.get(ray.data.from_items(
            [{"path": p} for p in files]).map_batches(
            _delta_partials, batch_format="pyarrow",
            fn_kwargs={"ids_sorted": ids_sorted}).to_arrow_refs())
    nonempty = [p for p in partials if len(p)]
    if not nonempty:
        return TERM_STATS_SCHEMA.empty_table()
    t = pa.concat_tables(nonempty)
    agg = pa.TableGroupBy(t, "term").aggregate(
        [("cnt", "sum"), ("tot", "sum")])
    return pa.table({
        "term": agg.column("term"),
        "termfreq": pc.multiply(agg.column("cnt_sum").cast(pa.int64()), -1),
        "collfreq": pc.multiply(agg.column("tot_sum").cast(pa.int64()), -1),
        "wdf_ub": pa.array([0] * len(agg), pa.int64()),  # bounds no wdf
    })


def _write_fold(index_dir: str, segs: dict, gen: int,
                old_ids: np.ndarray) -> str:
    """Write generation ``gen``'s record and fold (commit step 1 of the
    module docstring) over the committed state ``segs``; returns the
    fold's name. The fold's stats are the committed fold's rows plus the
    NEGATIVE per-term deltas of ``old_ids``, its dead ids the union of
    both. Atomic per file; a re-run of the same generation rewrites the
    same files."""
    checkpoint.write_table(pa.table({"doc_id": pa.array(old_ids)}),
                           os.path.join(index_dir, "tombstones",
                                        f"gen-{gen:04d}.parquet"))
    prev = segs.get("fold")
    rel = os.path.join("folds", f"f-{gen:04d}")
    _put_fold(index_dir, rel, prev,
              _stats_deltas_for(index_dir, segs, old_ids),
              np.union1d(dead_ids(index_dir, prev), old_ids))
    return rel


def _put_fold(index_dir: str, rel: str, prev: str | None, stats: pa.Table,
              dead: np.ndarray) -> None:
    """Write fold ``rel``: the committed fold ``prev``'s stat rows plus
    ``stats``, summed per term, and the sorted ``dead`` doc_ids."""
    merge_term_stats(fold_stats_files(index_dir, prev),
                     os.path.join(index_dir, rel, "term_stats"), stats)
    checkpoint.write_table(pa.table({"doc_id": pa.array(dead, pa.uint64())}),
                           os.path.join(index_dir, rel, _FOLD_DEAD))


def _commit(index_dir: str, segs: dict, g: dict, fold: str) -> None:
    """Commit steps 2 and 3 of generation ``segs["next_gen"]``: write
    ``global_stats.json``, swap ``segments.json`` naming ``fold`` with the
    stats snapshot ``g``, then delete every other fold."""
    checkpoint.write_text(json.dumps(g, indent=1),
                          os.path.join(index_dir, "global_stats.json"))
    segs.update(next_gen=segs["next_gen"] + 1, fold=fold, global_stats=g)
    checkpoint.write_text(json.dumps(segs, indent=1),
                          _segments_path(index_dir))
    _clear_folds(index_dir, segs)


def _clear_folds(index_dir: str, segs: dict) -> None:
    """Delete every fold ``segs`` does not name."""
    d = os.path.join(index_dir, "folds")
    for f in sorted(os.listdir(d)) if os.path.isdir(d) else []:
        if os.path.join("folds", f) != segs.get("fold"):
            checkpoint.clear_dir(os.path.join(d, f))


# ---- segment merging -------------------------------------------------------

def merge_run(sizes: list[int]) -> tuple[int, int] | None:
    """The size-tiered policy over the doc counts of the segments before
    the newest one: ``[lo, len(sizes))``, the trailing run to merge, or
    None. The run starts at the last segment and takes in the next older
    one while the run's docs are at least 1/``MERGE_FACTOR`` of it."""
    if len(sizes) < 2:
        return None
    lo = len(sizes) - 1
    acc = sizes[lo]
    while lo > 0 and acc * MERGE_FACTOR >= sizes[lo - 1]:
        lo -= 1
        acc += sizes[lo]
    return (lo, len(sizes)) if lo < len(sizes) - 1 else None


def _retire(index_dir: str, seg: str) -> None:
    """Delete a segment's data. An update generation (and the base) keeps
    its build record; a merge directory is nothing but data."""
    d = os.path.join(index_dir, seg)
    if seg.startswith("merged"):
        checkpoint.clear_dir(d)
        return
    for sub in _SEGMENT_DATA:
        checkpoint.clear_dir(os.path.join(d, sub))


def _clear_orphans(index_dir: str, segs: dict) -> None:
    """Delete the data of every committed-era segment ``segments.json``
    does not list (a crashed merge's output, or inputs it did not finish
    retiring) and every fold it does not name. (An uncommitted
    generation's directory is the next update's to clear.)"""
    listed = set(segs["segments"])
    found = ["."]
    for sub in ("updates", "merged"):
        d = os.path.join(index_dir, sub)
        if os.path.isdir(d):
            found += [os.path.join(sub, f) for f in sorted(os.listdir(d))]
    for seg in found:
        if seg in listed or (seg.startswith("updates")
                             and int(seg[-4:]) >= segs["next_gen"]):
            continue
        _retire(index_dir, seg)
    _clear_folds(index_dir, segs)


def _merge_group(item: dict, dead: np.ndarray, seg_dirs: list[str],
                 out_dir: str, cfg: IndexConfig, docs_per_bucket: int
                 ) -> tuple[int, dict | None]:
    """Merge one independent group (``item``: kind, key, src) of the
    input segments into ``out_dir``, dropping ``dead`` doc_ids; returns
    the rows kept and the group's manifest row (None when it wrote no
    postings).

    - ``postings``, key k: every input's ``part-k`` decoded, the dead
      postings dropped, and written by the build's part writer
      (``write_postings_part``: the index's block size and bucket stripe,
      no file when nothing survives);
    - ``tokenized``, key i: input file ``src`` minus the dead rows,
      sorted by doc_id (the footer pruning of ``_stats_deltas_for`` reads
      per-file id ranges)."""
    name = f"part-{item['key']:06d}.parquet"
    if item["kind"] == "tokenized":
        t = pq.read_table(item["src"])
        ids = t.column("doc_id").to_numpy().astype(np.uint64)
        t = t.filter(pa.array(~np.isin(ids, dead))).sort_by("doc_id")
        if len(t):
            checkpoint.write_table(t, os.path.join(out_dir, "tokenized",
                                                   name))
        return len(t), None
    tabs = [pq.read_table(p) for p in
            (os.path.join(d, "postings", name) for d in seg_dirs)
            if os.path.exists(p)]
    if not tabs:
        return 0, None
    cols = decode_postings(pa.concat_tables(tabs))
    keep = ~np.isin(cols[1], dead)
    cols = [c[keep] if isinstance(c, np.ndarray)
            else c.filter(pa.array(keep)) for c in cols]
    row = write_postings_part(out_dir, item["key"], cfg, docs_per_bucket,
                              *cols)
    return len(cols[1]), None if row is None else row.to_pylist()[0]


def _merge_batch(batch: pa.Table, **kw) -> pa.Table:
    """map_batches body: ``_merge_group`` of each item row, as (kind,
    key, kept, manifest) rows."""
    out = [_merge_group(it, **kw) for it in batch.to_pylist()]
    return pa.table({
        "kind": batch.column("kind"), "key": batch.column("key"),
        "kept": pa.array([o[0] for o in out], pa.int64()),
        "manifest": pa.array([o[1] for o in out],
                             pa.struct(list(_MANIFEST_SCHEMA)))})


def _merge_segments(index_dir: str, inputs: list[str], out_dir: str,
                    dead: np.ndarray, g: dict) -> tuple[dict, int]:
    """Write the merge of ``inputs`` (consecutive segments) into
    ``out_dir``: one independent group per posting partition and per
    tokenized file — no shuffle — run locally below
    ``_MERGE_DRIVER_BYTES`` of input and as Ray Data tasks above it (one
    batch function serves both); then the url map from the merged
    tokenized rows, and ``finish_segment``: the manifest and the term
    stats from the merged segment's own blocks, as a build takes them —
    exact, with a tight wdf_ub. Returns the merge's row counts for its
    ``_metrics.json`` and the max wdf_ub."""
    cfg = IndexConfig.from_gstats(g)
    seg_dirs = [os.path.join(index_dir, s) for s in inputs]
    tok_files = [f for d in seg_dirs
                 for f in _parquet_files(os.path.join(d, "tokenized"))]
    items = [{"kind": "postings", "key": k, "src": ""}
             for k in range(cfg.num_term_parts * cfg.num_doc_buckets)]
    items += [{"kind": "tokenized", "key": i, "src": f}
              for i, f in enumerate(tok_files)]
    kw = {"dead": dead, "seg_dirs": seg_dirs, "out_dir": out_dir,
          "cfg": cfg, "docs_per_bucket": int(g["docs_per_bucket"])}
    in_bytes = sum(os.path.getsize(f) for d in seg_dirs for f in
                   _parquet_files(os.path.join(d, "postings")) + tok_files)
    if in_bytes <= _MERGE_DRIVER_BYTES:
        res = _merge_batch(pa.Table.from_pylist(items), **kw)
    else:
        import ray
        import ray.data

        res = pa.concat_tables(ray.get(ray.data.from_items(
            items).map_batches(_merge_batch, batch_format="pyarrow",
                               fn_kwargs=kw).to_arrow_refs()))
    tok_dir = os.path.join(out_dir, "tokenized")
    schema = pq.read_schema(tok_files[0])
    if not _parquet_files(tok_dir):
        # every doc dead: a 0-row file keeps the docs table readable
        checkpoint.write_table(schema.empty_table(),
                               os.path.join(tok_dir, checkpoint.EMPTY_FILE))
    if "url" in schema.names:
        write_url_map(out_dir)
    man = res.column("manifest").drop_null().to_pylist()
    wdf_ub = finish_segment(out_dir, pa.Table.from_pylist(
        man, schema=_MANIFEST_SCHEMA))
    kept = res.select(["kind", "kept"]).to_pylist()
    return {f"{kind}_rows_out": sum(r["kept"] for r in kept
                                    if r["kind"] == kind)
            for kind in ("postings", "tokenized")}, wdf_ub


def _write_merge_fold(index_dir: str, segs: dict, inputs: list[str],
                      merged: str, fold: str) -> None:
    """Write ``fold``: the committed fold with the docs the merge of
    ``inputs`` into segment ``merged`` dropped moved out. Its stats are
    the committed fold's rows plus D = the inputs' term stats minus the
    merged segment's, per term, each read from its ``term_stats/`` (wdf_ub
    0; ``merge_term_stats`` drops the rows that sum to termfreq 0). Its
    dead ids are the committed fold's minus those in the inputs' doc-id
    range, from their tokenized footers."""
    def signed(seg: str, sign: int) -> pa.Table:
        t = pq.ParquetDataset(_parquet_files(os.path.join(
            index_dir, seg, "term_stats"))).read()
        return pa.table({"term": t.column("term"), **{
            c: pc.multiply(t.column(c), sign) for c in ("termfreq",
                                                        "collfreq")},
            "wdf_ub": pa.array(np.zeros(len(t), np.int64))})

    rng = [r for s in inputs for r in map(_file_doc_id_range, _parquet_files(
        os.path.join(index_dir, s, "tokenized"))) if r is not None]
    dead = dead_ids(index_dir, segs.get("fold"))
    if rng:
        lo, hi = min(r[0] for r in rng), max(r[1] for r in rng)
        dead = dead[(dead < lo) | (dead > hi)]
    _put_fold(index_dir, fold, segs.get("fold"), pa.concat_tables(
        [signed(s, 1) for s in inputs] + [signed(merged, -1)]), dead)


def _merge_tail(index_dir: str, segs: dict) -> dict:
    """Apply the merge policy to the committed state ``segs``: when it
    picks a run, write the merged segment and its fold, swap
    ``segments.json``, retire the inputs and delete the old fold (the
    three commit steps of the module docstring). Returns the committed
    state after it. A no-op on its own output, so a re-run only redoes a
    merge a crash interrupted."""
    cand = segs["segments"][:-1]
    # docs each segment's generations added, dead ones included
    docs = dict(segs["segment_docs"])
    run = merge_run([docs[s] for s in cand])
    if run is None:
        return segs
    lo, hi = run
    inputs = cand[lo:hi]
    name = f"m-{segs['next_gen'] - 1:04d}"
    rel, fold = os.path.join("merged", name), os.path.join("folds", name)
    t0 = time.perf_counter()
    out_dir = os.path.join(index_dir, rel)
    checkpoint.clear_dir(out_dir)
    counts, _ = _merge_segments(
        index_dir, inputs, out_dir, dead_ids(index_dir, segs.get("fold")),
        segs["global_stats"])
    _write_merge_fold(index_dir, segs, inputs, rel, fold)
    checkpoint.write_text(json.dumps({
        "merge_s": round(time.perf_counter() - t0, 3),
        "merge_inputs": len(inputs), **counts}, indent=1),
        os.path.join(out_dir, "_metrics.json"))
    docs[rel] = sum(docs.pop(s) for s in inputs)
    segs = dict(segs, segments=segs["segments"][:lo] + [rel]
                + segs["segments"][hi:], segment_docs=docs, fold=fold)
    checkpoint.write_text(json.dumps(segs, indent=1),
                          _segments_path(index_dir))
    for s in inputs:
        _retire(index_dir, s)
    _clear_folds(index_dir, segs)
    return segs


def update_index(index_dir: str,
                 paths: list[str] | None = None,
                 dataset=None,
                 dataset_fn=None) -> dict:
    """Upsert new/changed docs into an existing index. Input is exactly
    one of ``paths``, ``dataset`` and ``dataset_fn`` (ValueError
    otherwise, before anything is written); its shape matches build_index
    (pages parquet paths, or a Dataset with url + text/html, or an
    already-tokenized Dataset). ``paths`` go to ``build_index`` as paths,
    so a small batch builds on the driver. The batch always builds with
    the index's recorded settings (``IndexConfig.from_gstats``), the
    P x S layout the reader looks terms up in. Docs whose url already
    exists replace the old version (old doc_id tombstoned). Returns the
    updated global stats.

    ``dataset_fn(id_base) -> Dataset`` is the NO-SHUFFLE input path for
    file-backed batches: the callable receives the index's next free doc_id
    and must return a dataset whose ``doc_id`` column continues the id
    space deterministically (file-rank prefix-sum ids — what
    ``read_warc(paths, id_base=...)`` / ``read_jsonl`` / ``read_pages``
    produce). A plain ``dataset`` without ids instead pays
    ``assign_doc_ids``'s (url, content-hash) sort — the only all-to-all in
    the update path, now reserved for genuinely unordered in-memory input.

    The replaced docs' NEGATIVE per-term stat deltas come from their stored
    tokenized rows (``_stats_deltas_for``: a distributed, file-pruned pass
    over the files whose id range holds a replaced doc), so
    termfreq/collfreq stay exact."""
    if sum(x is not None for x in (paths, dataset, dataset_fn)) != 1:
        raise ValueError("update_index takes exactly one input: paths=, "
                         "dataset= or dataset_fn=")
    segs = load_segments(index_dir)
    g = segs["global_stats"]
    _clear_orphans(index_dir, segs)
    segs = _merge_tail(index_dir, segs)
    gen = segs["next_gen"]
    seg_rel = os.path.join("updates", f"gen-{gen:04d}")
    seg_dir = os.path.join(index_dir, seg_rel)
    # an uncommitted generation dir from a crashed attempt may hold a
    # staged build of DIFFERENT input; its checkpoints would silently
    # short-circuit this run's build (and drop this run's docs), so
    # clear it — correctness over resuming one in-flight update batch
    checkpoint.clear_dir(seg_dir)

    # ---- build the delta segment as a complete mini-index ------------------
    if dataset_fn is not None:
        # file-rank ids continuing the index's id space: no assign_doc_ids
        # sort (the update path's last all-to-all) for file-backed input
        dataset = dataset_fn(segs["next_doc_id"])
    # a paths batch stays paths: a small one builds on the driver
    gseg = build_index(seg_dir, paths=paths, dataset=dataset,
                       cfg=IndexConfig.from_gstats(g),
                       id_base=segs["next_doc_id"],
                       docs_per_bucket=int(g["docs_per_bucket"]))

    # ---- tombstone replaced urls + exact stat deltas, into the fold --------
    new_tok = pads.dataset(os.path.join(seg_dir, "tokenized"))
    new_urls = new_tok.to_table(columns=["url"]).column("url").to_pylist()
    old = _live_url_ids(index_dir, segs, new_urls)
    old_ids = old.column("doc_id").to_numpy().astype(np.uint64)
    fold = _write_fold(index_dir, segs, gen, old_ids)

    # ---- exact merged global stats -----------------------------------------
    removed_doclen = int(pc.sum(old.column("doclen")).as_py() or 0)
    n_docs = g["n_docs"] + gseg["n_docs"] - len(old_ids)
    total_doclen = (g["total_doclen"] + gseg["total_doclen"]
                    - removed_doclen)
    g.update({
        "n_docs": n_docs,
        "total_doclen": total_doclen,
        "avg_doclen": (total_doclen / n_docs) if n_docs else 0.0,
        # bounds stay conservative (lb can only be proven by compaction)
        "doclen_lb": min(g["doclen_lb"], gseg["doclen_lb"])
        if gseg["n_docs"] else g["doclen_lb"],
        "doclen_ub": max(g["doclen_ub"], gseg["doclen_ub"]),
        "wdf_ub_global": max(g["wdf_ub_global"], gseg["wdf_ub_global"]),
    })
    segs["segments"].append(seg_rel)
    segs["segment_docs"][seg_rel] = gseg["n_docs"]
    segs["next_doc_id"] += gseg["n_docs"]
    _commit(index_dir, segs, g, fold)
    _merge_tail(index_dir, segs)
    return g


def delete_documents(index_dir: str, urls: list[str]) -> dict:
    """Delete-by-url: the reference's delete-by-unique-key-term semantics
    (xapian WritableDatabase::delete_document(term) — public
    api/omdatabase.cc) as a tombstone-only generation. No segment is
    added: the LIVE (url -> doc_id) set resolves through the url-sorted
    url maps (no corpus scan), those ids tombstone, NEGATIVE per-term
    stat deltas keep termfreq/collfreq exact, and global
    n_docs/avg_doclen update exactly from the deleted docs' stored
    doclens. ``segments.json`` stays the atomic commit point:
    a crash after the fold write but before the commit re-runs the
    SAME generation and recomputes the same set (an uncommitted
    generation's fold is never read). Returns the updated
    global stats. Deleting urls that don't exist (or were already
    deleted) is a no-op that still consumes a generation.

    At trillion-doc scale callers batch the url list (the live lookup
    reads the url maps' row groups whose url range can hold a url,
    never a corpus pass)."""
    segs = load_segments(index_dir)
    g = segs["global_stats"]
    _clear_orphans(index_dir, segs)
    gen = segs["next_gen"]

    old = _live_url_ids(index_dir, segs, list(urls))
    old_ids = old.column("doc_id").to_numpy().astype(np.uint64)
    fold = _write_fold(index_dir, segs, gen, old_ids)

    removed_doclen = int(pc.sum(old.column("doclen")).as_py() or 0)
    n_docs = g["n_docs"] - len(old_ids)
    total_doclen = g["total_doclen"] - removed_doclen
    g.update({
        "n_docs": n_docs,
        "total_doclen": total_doclen,
        "avg_doclen": (total_doclen / n_docs) if n_docs else 0.0,
        # doclen/wdf bounds stay as-is: only ever conservative for WAND,
        # compaction re-proves them tight
    })
    _commit(index_dir, segs, g, fold)
    return g


def compact(index_dir: str, out_dir: str) -> dict:
    """Merge every segment of the committed index minus its dead docs into
    a single-segment index in ``out_dir`` with the policy merge's kernel
    (the xapian-compact analog; doc_ids are preserved). Every dead doc
    lies in an input, so no fold is left; the doc stats are recomputed
    from what it wrote, so the bounds are tight. Returns the global
    stats.

    ``out_dir`` must not be, hold or lie inside ``index_dir``
    (ValueError). Its ``segments.json`` is deleted first and written last,
    the commit point; of the rest only ``_SEGMENT_DATA`` is cleared."""
    src, dst = os.path.realpath(index_dir), os.path.realpath(out_dir)
    if os.path.commonpath([src, dst]) in (src, dst):
        raise ValueError(f"compact: output {out_dir!r} must not be or "
                         f"overlap the index {index_dir!r}")
    t_start = time.perf_counter()
    segs = load_segments(index_dir)
    g = segs["global_stats"]
    cfg = IndexConfig.from_gstats(g)
    if os.path.exists(_segments_path(out_dir)):
        os.remove(_segments_path(out_dir))
    for sub in _SEGMENT_DATA:
        checkpoint.clear_dir(os.path.join(out_dir, sub))
    _, wdf_ub = _merge_segments(index_dir, segs["segments"], out_dir,
                                dead_ids(index_dir, segs.get("fold")), g)
    metrics = {"merge": round(time.perf_counter() - t_start, 3)}
    gstats, next_doc_id = doc_stats(os.path.join(out_dir, "tokenized"))
    gstats.update({k: getattr(cfg, k) for k in RECORDED_SETTINGS},
                  wdf_ub_global=wdf_ub)
    return commit_build(out_dir, gstats, metrics, next_doc_id, t_start)
