"""Read-side access to a built index directory.

The analog of the reference's read-only ``Database::new_with_path``
(src/main.rs:115,130), but columnar: global stats from JSON, per-term stats
and posting blocks from parquet. Both are sorted by term, so row-group
statistics prune reads to the query's terms: a stats lookup reads each
file's footer and then only the row groups whose [min, max] term range
can hold a query term or a wildcard prefix's range; posting reads push
the term filter down.

Each segment's term stats are its own blocks' stats. An updated index's
dead-doc state is one fold (``index/update.py``): the negative per-term
stats and the sorted ids of the dead docs still on disk, named by
``segments.json``. A cold lookup opens one stats file per segment plus
the fold's, however many generations ran.

Partition pruning: a query touching terms T and doc-bucket b needs only the
files ``part-{fnv1a64(t) % P * S + b}`` — the scorer never lists, let alone
reads, unrelated partitions.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from ..functions.introselect import nth_element
from .build import _MAXCHAR, read_sorted_run, term_part
from .codec import blocks_schema, first_value
from .update import _parquet_files, dead_ids, fold_stats_files, load_segments

_STATS_COLS = ("term", "termfreq", "collfreq", "wdf_ub")


def select_wildcard(stats: dict[str, dict], prefix: str, limit: int = 0,
                    most_frequent: bool = False) -> list[str]:
    """The terms a wildcard expands to, selected from a ``term_stats``
    result that covers the prefix's range (dead terms — post-delta
    termfreq 0, every holder replaced — are already absent there).

    Without ``most_frequent``: the first ``limit`` matches in term order.
    With it: the ``limit`` highest-termfreq matches
    (WILDCARD_LIMIT_MOST_FREQUENT, what FLAG_PARTIAL uses). The subset
    kept when the cap cuts through a termfreq tie is whatever
    std::nth_element leaves in the first ``limit`` slots
    (OrContext::select_most_frequent, api/queryinternal.cc:199-206, over
    the lexicographic allterms order) — replicated bit-for-bit by
    functions/introselect.py."""
    hi = prefix + _MAXCHAR
    alive = sorted((t, s["termfreq"]) for t, s in stats.items()
                   if prefix <= t <= hi)
    if most_frequent and limit and len(alive) > limit:
        arr = [(f, t) for t, f in alive]
        nth_element(arr, limit - 1, lambda a, b: a[0] > b[0])
        return sorted(t for _, t in arr[:limit])
    terms = [t for t, _ in alive]
    return terms[:limit] if limit else terms


class IndexReader:
    """A read-only view of an index's COMMITTED state: the segments, fold
    and global-stats snapshot of ``segments.json`` (the commit point of
    every update and merge). Dead doc_ids and stat deltas come only from
    the fold it names, so a crashed update's files stay invisible. The
    view is fixed at construction: open a new reader after an update (a
    commit deletes the fold, and a merge retires the segments, an older
    reader names)."""

    def __init__(self, index_dir: str):
        self.index_dir = index_dir
        segs = load_segments(index_dir)
        self.segments = segs["segments"]
        self.fold = segs.get("fold")
        self.gstats = segs["global_stats"]
        self.P = int(self.gstats["num_term_parts"])
        self.S = int(self.gstats["num_doc_buckets"])
        self._tombstones = None

    @property
    def tombstones(self):
        """Sorted uint64 doc_ids of replaced and deleted document versions,
        the fold's (empty on a never-updated index). Loaded lazily,
        cached."""
        if self._tombstones is None:
            self._tombstones = dead_ids(self.index_dir, self.fold)
        return self._tombstones

    # -- stats ---------------------------------------------------------------
    @property
    def n_docs(self) -> int:
        return self.gstats["n_docs"]

    @property
    def avg_doclen(self) -> float:
        # exact int/int division (not the stored float mean): bit-identical
        # to the oracle SQL's sum(dl)/count(*) and stable across block orders
        n = self.gstats["n_docs"]
        return (self.gstats["total_doclen"] / n) if n else 0.0

    @property
    def doclen_lb(self) -> int:
        return self.gstats["doclen_lb"]

    @property
    def doclen_ub(self) -> int:
        return self.gstats["doclen_ub"]

    @property
    def wdf_ub_global(self) -> int:
        """Exact global max wdf (glass version-file wdf_ubound,
        glass_version.h:260-262)."""
        return self.gstats["wdf_ub_global"]

    def first_wdf(self, terms: list[str]) -> dict[str, int]:
        """wdf of each term's first (lowest-doc_id) posting, across all
        buckets/segments — the input to glass's loose per-term wdf upper
        bound (glass_postlist.cc:176-191: ``max(cf - first_wdf,
        first_wdf)``), which drives ELITE_SET selection parity. Reads only
        the terms' block_id==0 rows and decodes their first tf
        (``codec.first_value``); results are cached. On tombstoned
        (updated) indexes the first posting may be a deleted doc — a
        documented divergence (glass rewrites the chunk on delete; we'd
        need a decode pass)."""
        cache = getattr(self, "_first_wdf_cache", None)
        if cache is None:
            cache = self._first_wdf_cache = {}
        missing = [t for t in set(terms) if t not in cache]
        if missing:
            best: dict[str, tuple[int, bytes]] = {}
            for p in self.posting_paths(missing):
                t = pq.read_table(
                    p, columns=["term", "first_doc_id", "tfs_enc"],
                    filters=[("term", "in", missing), ("block_id", "=", 0)])
                for term, did, enc in zip(
                        t.column("term").to_pylist(),
                        t.column("first_doc_id").to_pylist(),
                        t.column("tfs_enc").to_pylist()):
                    cur = best.get(term)
                    if cur is None or did < cur[0]:
                        best[term] = (did, enc)
            for term in missing:
                hit = best.get(term)
                cache[term] = 0 if hit is None else first_value(hit[1])
        return {t: cache[t] for t in set(terms)}

    @property
    def has_positions(self) -> bool:
        return bool(self.gstats.get("positions", False))

    def _dictionary(self, terms: list[str] | None, prefixes: list[str]
                    ) -> dict[str, dict]:
        """Segment stats and the fold's deltas summed per term, for the
        sorted ``terms`` and ``prefixes`` as in ``read_sorted_run``
        (``terms=None``: every term); dead terms omitted."""
        files = [f for seg in self.segments for f in _parquet_files(
            os.path.join(self.index_dir, seg, "term_stats"))]
        files += fold_stats_files(self.index_dir, self.fold)
        if not files:
            return {}
        t = pa.concat_tables(read_sorted_run(
            f, "term", terms, prefixes, list(_STATS_COLS)) for f in files)
        if terms is not None:
            term = t.column("term")
            keep = pc.is_in(term, value_set=pa.array(terms, pa.string()))
            for p in prefixes:
                keep = pc.or_(keep, pc.and_(
                    pc.greater_equal(term, p),
                    pc.less_equal(term, p + _MAXCHAR)))
            t = t.filter(keep)
        out: dict[str, list[int]] = {}
        for term, tf, cf, wub in zip(
                *(t.column(c).to_pylist() for c in _STATS_COLS)):
            cur = out.setdefault(term, [0, 0, 0])
            cur[0] += int(tf)
            cur[1] += int(cf)
            cur[2] = max(cur[2], int(wub))
        return {k: {"termfreq": tf, "collfreq": cf, "wdf_ub": wub}
                for k, (tf, cf, wub) in out.items() if tf > 0}

    def term_stats(self, terms: list[str], prefixes: list[str] = ()
                   ) -> dict[str, dict]:
        """{term: {termfreq, collfreq, wdf_ub}} for the given terms and, in
        the same read, for every term under each of ``prefixes`` (absent
        and dead terms omitted). Each stats file is read only in the row
        groups its footer says can hold them; on an updated index,
        segment stats and the fold's negative stats of the dead docs still
        on disk sum to EXACT termfreq/collfreq (wdf_ub counts those dead
        docs until a merge drops them — still a valid WAND bound)."""
        if not terms and not prefixes:
            return {}
        return self._dictionary(sorted(set(terms)), sorted(set(prefixes)))

    def all_term_stats(self) -> dict[str, dict]:
        """``term_stats`` of every live term: the whole committed
        dictionary, segments plus fold."""
        return self._dictionary(None, [])

    def term_exists(self, term: str) -> bool:
        """Does the (unstemmed, lowercased) term occur in the live index?
        Drives the query-side c++/c# suffix rule
        (queryparser_internal.cc:781-810 ``db.term_exists``)."""
        return bool(self.term_stats([term]))

    def expand_wildcard(self, prefix: str, limit: int = 0,
                        most_frequent: bool = False) -> list[str]:
        """Right-truncation expansion over the term dictionary
        (OP_WILDCARD, api/queryinternal.cc:1019-1126; limit 0 = unlimited):
        one prefix-range ``term_stats`` read, then :func:`select_wildcard`.
        The class attribute is called because a ``SearchSession`` shadows
        ``term_stats`` on its reader with a cache that takes no prefixes.
        """
        stats = IndexReader.term_stats(self, [], prefixes=[prefix])
        return select_wildcard(stats, prefix, limit, most_frequent)

    # -- postings ------------------------------------------------------------
    def posting_paths(self, terms: list[str], bucket: int | None = None
                      ) -> list[str]:
        parts = sorted({term_part(t, self.P) for t in terms})
        buckets = range(self.S) if bucket is None else [bucket]
        paths = []
        for seg in self.segments:
            for p in parts:
                for b in buckets:
                    f = os.path.join(self.index_dir, seg, "postings",
                                     f"part-{p * self.S + b:06d}.parquet")
                    if os.path.exists(f):
                        paths.append(f)
        return paths

    def load_blocks(self, terms: list[str], bucket: int | None = None):
        """Posting-block rows for the given terms, in (term, doc order)."""
        import pyarrow as pa

        paths = self.posting_paths(terms, bucket)
        if not paths:
            return blocks_schema().empty_table()
        tset = list(set(terms))

        def read_one(p: str):
            return pq.read_table(p, filters=[("term", "in", tset)])

        if len(paths) > 1:
            # filtered parquet reads release the GIL; a wide multi-token
            # partial query touches every partition file of the bucket, so
            # reading them serially dominates cold-query latency
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=min(8, len(paths))) as ex:
                tabs = [t for t in ex.map(read_one, paths) if len(t)]
        else:
            tabs = [t for t in map(read_one, paths) if len(t)]
        if not tabs:
            return blocks_schema().empty_table()
        out = pa.concat_tables(tabs)
        # term, then doc order (bucket files may interleave doc ranges)
        return out.take(pc.sort_indices(
            out, sort_keys=[("term", "ascending"),
                            ("first_doc_id", "ascending")]))

    # -- docs ----------------------------------------------------------------
    def doc_ids_in_bucket(self, bucket: int | None) -> "object":
        """All live doc_ids (sorted numpy array) in one doc-bucket — the
        <alldocuments> universe for MatchAll / pure-NOT queries. A pruned
        columnar read of the staging docs table; cached per reader."""
        import numpy as np

        cache = getattr(self, "_universe_cache", None)
        if cache is None:
            cache = self._universe_cache = {}
        if bucket in cache:
            return cache[bucket]
        ids = []
        for seg in self.segments:
            d = os.path.join(self.index_dir, seg, "tokenized")
            if not os.path.isdir(d):
                continue
            t = pads.dataset(d).to_table(columns=["doc_id"])
            ids.append(t.column("doc_id").to_numpy().astype(np.uint64))
        out = np.sort(np.concatenate(ids)) if ids \
            else np.empty(0, np.uint64)
        ts = self.tombstones
        if len(ts):
            out = out[~np.isin(out, ts)]
        if bucket is not None and self.S > 1:
            dpb = int(self.gstats["docs_per_bucket"])
            keep = (out // dpb) % self.S == bucket
            out = out[keep]
        cache[bucket] = out
        return out

    def _doc_column(self, doc_ids: list[int], col: str) -> dict[int, object]:
        """doc_id -> ``col`` of those docs, from every segment's
        tokenized/ (which doubles as the docs table): a filtered read
        pruned to (doc_id, col), so the fat terms/tfs list columns are
        never touched. Segments without the column contribute nothing."""
        if not doc_ids:
            return {}
        flt = pc.field("doc_id").isin([int(d) for d in doc_ids])
        out: dict[int, object] = {}
        for seg in self.segments:
            d = os.path.join(self.index_dir, seg, "tokenized")
            if not os.path.isdir(d):
                continue
            ds = pads.dataset(d)
            if col not in ds.schema.names:
                continue
            t = ds.to_table(filter=flt, columns=["doc_id", col])
            out.update(zip(t.column("doc_id").to_pylist(),
                           t.column(col).to_pylist()))
        return out

    def payloads_for(self, doc_ids: list[int]) -> dict[int, str]:
        """doc_id -> stored payload (Document::get_data analog). Empty dict
        when the index was built without ``store_payload``."""
        return self._doc_column(doc_ids, "payload")

    def urls_for(self, doc_ids: list[int]) -> dict[int, str]:
        """doc_id -> url lookup."""
        return self._doc_column(doc_ids, "url")
