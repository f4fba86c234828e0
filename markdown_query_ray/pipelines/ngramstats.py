"""Corpus-statistics n-gram scoring: the KenLM-shape score-by-join.

Crawl pipelines score fluency/novelty against corpus-level n-gram
statistics (perplexity filters in CCNet/Gopher/FineWeb). The statistics
table at web scale is far too large to broadcast, so scoring must be a
JOIN, not a lookup: this module builds global bigram counts and scores
every document against them in two bounded exchanges —

1. counts + score-by-join in ONE exchange: map-side partial bigram
   counts (vectorized shingle-hash identities, np.unique per batch)
   and the per-doc bigram OCCURRENCES (duplicates kept — each
   occurrence contributes) co-shuffle on the bigram key's hash, with
   the count aggregate FUSED into the join's own exchange
   (``shuffle_hash_join`` ``left_combine``: the bucket co-locates
   equal keys, so the in-group sum is globally exact). The count table
   is never driver state and never shuffles a second time;
2. per-doc aggregate: map-side combine + ``groupby(doc_id)`` for
   (n_bigrams, sum_count, min_count).

Outputs are EXACT INTEGERS (occurrence totals against global counts),
not log-probabilities: float log sums round nondeterministically across
addition orders, while integer evidence lets the DuckDB oracle match
bit-for-bit (same rationale as quality_batch / repetition_batch). A
perplexity-style consumer computes its logs downstream from these
counts plus the corpus total.

Bigram identity = ``dedup.shingle_hashes(text, w=2)`` (FNV over the
token-hash window), equal-iff-equal-strings up to 64-bit collisions; the
SQL oracle joins on the string pair itself, so the check also guards the
hash's collision-freeness on the test corpora. Docs with < 2 tokens have
no bigrams: n_bigrams = 0, min_count pinned to -1.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa

# uint64 -> int64 bijection before anything Ray aggregates or sorts (Ray
# 2.49 falls back to pickled extension arrays above 2^63 — NOTES_r3)
def _as_i64(u: np.ndarray) -> np.ndarray:
    return u.view(np.int64) if u.dtype == np.uint64 else \
        u.astype(np.uint64).view(np.int64)


def _col_windows(batch: pa.Table, w: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(row_idx, window_key i64) pairs for every w-gram OCCURRENCE in
    every text with >= w tokens — ONE C sweep over the Arrow string
    buffer (dedup.shingle_hashes_column), no per-doc Python. Docs with
    0 < ntok < w emit a single whole-doc shingle in the raw kernel
    output; the ntok gate drops those rows vectorized, matching the
    former per-doc skip."""
    from .dedup import shingle_hashes_column

    keys, counts, ntok = shingle_hashes_column(batch.column("text"), w)
    keep_doc = ntok >= w
    rows = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    keep = np.repeat(keep_doc, counts)
    return rows[keep], _as_i64(keys)[keep]


def _doc_bigrams(texts: list) -> tuple[np.ndarray, np.ndarray]:
    """Per-doc fallback form of :func:`_col_windows` at w=2 — kept as the
    reference implementation for the batch-kernel parity test."""
    from .dedup import shingle_hashes

    rows, keys = [], []
    for i, t in enumerate(texts):
        toks = (t or "").split(" ")
        if sum(1 for x in toks if x) < 2:
            continue
        h = shingle_hashes(t, 2)
        rows.append(np.full(len(h), i, np.int64))
        keys.append(_as_i64(h))
    if not rows:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return np.concatenate(rows), np.concatenate(keys)


def bigram_count_partials(batch: pa.Table) -> pa.Table:
    """Map-side combine: (bkey, cnt_part) distinct within the batch."""
    _, keys = _col_windows(batch, 2)
    uk, cnt = np.unique(keys, return_counts=True)
    return pa.table({"bkey": pa.array(uk),
                     "cnt_part": pa.array(cnt.astype(np.int64))})


def bigram_occurrences_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, bkey) per bigram occurrence (duplicates kept) — the
    occurrence-row REFERENCE form: ``bigram_scores`` ships
    :func:`window_occ_batch`'s distinct (doc, bkey, occ) rows through
    the join instead (same information, strictly fewer shuffle rows);
    tests/test_ngramstats.py::test_distinct_pairs_expand_to_occurrences
    pins the equivalence."""
    ids = batch.column("doc_id").to_numpy().astype(np.int64)
    rows, keys = _col_windows(batch, 2)
    return pa.table({"doc_id": pa.array(ids[rows]),
                     "bkey": pa.array(keys)})


def dup_window_partials(batch: pa.Table, w: int) -> pa.Table:
    """Map-side document-frequency partials: (skey, df_part) where
    df_part = number of DISTINCT docs in this batch containing the
    w-gram. Each doc lives in exactly one batch row, so summing the
    partials over batches gives the exact global document frequency.
    One batch kernel sweep; per-doc dedup via a (row, key) lexsort
    run-boundary scan instead of per-doc np.unique calls."""
    rows, keys = _col_windows(batch, w)
    if not len(rows):
        return pa.table({"skey": pa.array([], pa.int64()),
                         "df_part": pa.array([], pa.int64())})
    order = np.lexsort((keys, rows))
    r, k = rows[order], keys[order]
    first = np.ones(len(r), bool)
    first[1:] = (r[1:] != r[:-1]) | (k[1:] != k[:-1])
    uk, cnt = np.unique(k[first], return_counts=True)
    return pa.table({"skey": pa.array(uk),
                     "df_part": pa.array(cnt.astype(np.int64))})


def window_occ_batch(batch: pa.Table, w: int) -> pa.Table:
    """(doc_id, skey, occ) DISTINCT per doc with within-doc occurrence
    counts — only distinct (doc, w-gram) pairs ride the join shuffle,
    never one row per window position. One batch kernel sweep; per-doc
    occurrence counts via a (row, key) lexsort run-length scan instead
    of per-doc np.unique calls."""
    ids = batch.column("doc_id").to_numpy().astype(np.int64)
    rows, keys = _col_windows(batch, w)
    if not len(rows):
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "skey": pa.array([], pa.int64()),
                         "occ": pa.array([], pa.int64())})
    order = np.lexsort((keys, rows))
    r, k = rows[order], keys[order]
    first = np.ones(len(r), bool)
    first[1:] = (r[1:] != r[:-1]) | (k[1:] != k[:-1])
    starts = np.flatnonzero(first)
    occ = np.diff(np.append(starts, len(r)))
    return pa.table({"doc_id": pa.array(ids[r[starts]]),
                     "skey": pa.array(k[starts]),
                     "occ": pa.array(occ.astype(np.int64))})


def cross_dup_scores(ds, w: int = 4, num_buckets: int = 64):
    """Per-doc cross-document duplicated-window coverage (the
    Dolma/RefinedWeb dedup *signal*, as opposed to span_dedup which
    rewrites text): for every doc with >= w tokens,

        n_windows   = number of w-gram window positions,
        dup_windows = positions whose w-gram also appears in >= 1
                      OTHER document (global doc-frequency >= 2;
                      within-doc repeats alone do not count).

    Shape = the same two bounded exchanges as ``bigram_scores``: the df
    aggregate is FUSED into the join's own shuffle (``left_combine`` —
    map-side df partials and the distinct (doc, skey, occ) pairs
    co-shuffle on the skey hash, the in-group sum is globally exact);
    then map-side combine -> ``groupby(doc_id)``. Occurrence positions
    never shuffle, only distinct pairs. Outputs are exact integers so
    the DuckDB oracle matches bit-for-bit. Callers pin docs with < w
    tokens to (0, 0) via a zero-shuffle side pass."""
    from ray.data.aggregate import Sum

    from .equijoin import shuffle_hash_join

    partials = ds.map_batches(partial(dup_window_partials, w=w),
                              batch_format="pyarrow")
    occ = ds.map_batches(partial(window_occ_batch, w=w),
                         batch_format="pyarrow")
    joined = shuffle_hash_join(
        partials, occ, "skey", "skey",
        {"df_part": pa.int64()},
        {"doc_id": pa.int64(), "occ": pa.int64()},
        key_out="skey", num_buckets=num_buckets,
        left_combine=[("df_part", "sum", "df")])

    def per_doc_partial(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy().astype(np.int64)
        occ_n = b.column("occ").to_numpy().astype(np.int64)
        dfs = b.column("df").to_numpy().astype(np.int64)
        dup = np.where(dfs >= 2, occ_n, 0)
        uid, inv = np.unique(ids, return_inverse=True)
        # integer ufunc.at, not bincount's float64 accumulation (exact
        # past 2^53)
        n_part = np.zeros(len(uid), np.int64)
        np.add.at(n_part, inv, occ_n)
        d_part = np.zeros(len(uid), np.int64)
        np.add.at(d_part, inv, dup)
        return pa.table({"doc_id": pa.array(uid),
                         "n_part": pa.array(n_part),
                         "dup_part": pa.array(d_part)})

    return joined.map_batches(per_doc_partial, batch_format="pyarrow") \
        .groupby("doc_id").aggregate(
            Sum("n_part", alias_name="n_windows"),
            Sum("dup_part", alias_name="dup_windows"))


def bigram_scores(ds, num_buckets: int = 64):
    """Dataset of (doc_id, n_bigrams, sum_count, min_count) for every
    doc that HAS bigrams (callers left-join / pin empties; the driver
    entry does). ``sum_count`` totals the global count of each bigram
    occurrence; ``min_count`` is the doc's rarest bigram's count.

    Only DISTINCT (doc, bigram) pairs ride the join exchange — each
    carries its within-doc occurrence count ``occ``, so the per-doc
    aggregate recovers the exact occurrence-weighted totals
    (n = sum(occ), sum = sum(occ * cnt)) while the shuffle moves
    distinct-pair rows instead of one row per window position
    (repetitive web text compresses severalfold here)."""
    from ray.data.aggregate import Min, Sum

    from .equijoin import shuffle_hash_join

    partials = ds.map_batches(bigram_count_partials,
                              batch_format="pyarrow")
    occ = ds.map_batches(partial(window_occ_batch, w=2),
                         batch_format="pyarrow")
    joined = shuffle_hash_join(
        partials, occ.rename_columns({"skey": "bkey"}), "bkey", "bkey",
        {"cnt_part": pa.int64()},
        {"doc_id": pa.int64(), "occ": pa.int64()},
        key_out="bkey", num_buckets=num_buckets,
        left_combine=[("cnt_part", "sum", "cnt")])

    def per_doc_partial(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy().astype(np.int64)
        cnt = b.column("cnt").to_numpy().astype(np.int64)
        occ_n = b.column("occ").to_numpy().astype(np.int64)
        uid, inv = np.unique(ids, return_inverse=True)
        # integer ufunc.at, NOT bincount(weights=...): bincount sums in
        # float64, which stops being exact past 2^53 — the whole module's
        # contract is exact integers
        n_part = np.zeros(len(uid), np.int64)
        np.add.at(n_part, inv, occ_n)
        sum_part = np.zeros(len(uid), np.int64)
        np.add.at(sum_part, inv, occ_n * cnt)
        min_part = np.full(len(uid), np.iinfo(np.int64).max)
        np.minimum.at(min_part, inv, cnt)
        return pa.table({"doc_id": pa.array(uid),
                         "n_part": pa.array(n_part),
                         "sum_part": pa.array(sum_part),
                         "min_part": pa.array(min_part)})

    return joined.map_batches(per_doc_partial, batch_format="pyarrow") \
        .groupby("doc_id").aggregate(
            Sum("n_part", alias_name="n_bigrams"),
            Sum("sum_part", alias_name="sum_count"),
            Min("min_part", alias_name="min_count"))


def ccnet_buckets(ds, scale: int = 1024, num_buckets: int = 64,
                  checkpoint_dir: str | None = None):
    """CCNet-style head/middle/tail quality bucketing (Wenzek et al.
    2020, public paper): per-document fluency metric = mean corpus
    frequency of the doc's bigrams in fixed-point (sum_count * scale //
    n_bigrams — higher = more typical text = lower perplexity), then
    per-language tertile gates from EXACT discrete quantiles: metric >=
    q_disc(2/3) -> 'head', >= q_disc(1/3) -> 'middle', else 'tail'.
    Documents without bigrams pin ('tail', metric -1) via a zero-shuffle
    side pass.

    Scale shape: the bigram score-by-join is ngramstats.bigram_scores
    (counts ride the join's own exchange); lang attaches with ONE
    doc_id-keyed shuffle join. The (doc_id, lang, metric) projection
    (~25 B/doc — at 10^11 docs ~2.5 TB) is consumed TWICE (quantile
    histogram, then bucket assignment), so instead of pinning it in the
    object store with materialize() it is CHECKPOINTED once to
    partitioned parquet (``checkpoint_dir``, default a scratch dir under
    /tmp — on a cluster pass shared storage; it is cleared first, so it
    must hold nothing else) and both consumers stream
    it back block by block: object-store residency stays bounded by the
    pipeline's working set, not the corpus, and a re-run of either
    consumer can reuse the checkpoint. Tertile thresholds come from the
    bounded value-domain histogram (quantiles.group_quantiles), never a
    per-lang sort. Returns a Dataset of (doc_id, lang, metric, bucket);
    consume it before deleting the checkpoint dir."""
    import os
    import tempfile
    import uuid
    from fractions import Fraction

    import ray.data

    from .. import checkpoint
    from .equijoin import join_output_schema, shuffle_hash_join
    from .quantiles import group_quantiles

    def to_metric(b: pa.Table) -> pa.Table:
        sc = b.column("sum_count").to_numpy().astype(np.int64)
        nb = b.column("n_bigrams").to_numpy().astype(np.int64)
        if len(sc):
            # two hard bounds, both loud: the fixed-point product must
            # fit int64 for THIS scale, and the resulting metric must fit
            # one hard bound, loud: the fixed-point product must fit
            # int64 for THIS scale (the quantile histogram itself now
            # spans the full int64 domain — round 5)
            if int(sc.max()) >= 2 ** 63 // scale:
                raise ValueError(
                    f"sum_count x scale={scale} overflows int64; "
                    "reduce scale")
        return pa.table({
            "doc_id": b.column("doc_id").cast(pa.int64()),
            "metric": pa.array(sc * scale // np.maximum(nb, 1)),
        })

    metric = bigram_scores(ds, num_buckets=num_buckets).map_batches(
        to_metric, batch_format="pyarrow")
    langs = ds.map_batches(
        lambda b: b.select(["doc_id", "lang"]), batch_format="pyarrow")
    join_ds = shuffle_hash_join(
        metric, langs, "doc_id", "doc_id",
        {"metric": pa.int64()}, {"lang": pa.string()},
        key_out="doc_id", num_buckets=num_buckets)

    # checkpoint the projection to parquet and stream it back for both
    # consumers (see docstring); the schema-pinning pass also repairs the
    # zero-column empty blocks map_groups leaves behind so every written
    # file carries the full schema
    schema = join_output_schema("doc_id", {"metric": pa.int64()},
                                {"lang": pa.string()})
    names = [f.name for f in schema]

    def pin_schema(b: pa.Table) -> pa.Table:
        if b.num_columns == 0:
            return schema.empty_table()
        return b.select(names)

    ck = checkpoint_dir or os.path.join(
        tempfile.gettempdir(), "mdq_ray_ccnet",
        f"ck-{os.getpid()}-{uuid.uuid4().hex[:8]}")
    checkpoint.write_dataset(
        join_ds.map_batches(pin_schema, batch_format="pyarrow"), ck, schema)
    joined = ray.data.read_parquet(ck, columns=names)

    thr_t = group_quantiles(joined, "lang", "metric",
                            qs=(Fraction(1, 3), Fraction(2, 3)))
    thr: dict[str, list[int]] = {}
    for lang, q, v in zip(thr_t.column("lang").to_pylist(),
                          thr_t.column("q").to_pylist(),
                          thr_t.column("quantile").to_pylist()):
        thr.setdefault(lang, [0, 0])[0 if q < 0.5 else 1] = int(v)

    def assign(b: pa.Table) -> pa.Table:
        m = b.column("metric").to_numpy().astype(np.int64)
        # dictionary-encode lang once per batch, then np.take over
        # |langs|-sized threshold arrays — no per-row Python
        d = b.column("lang").combine_chunks().dictionary_encode()
        cats = d.dictionary.to_pylist()
        idx = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        t13 = np.take(np.asarray([thr[la][0] for la in cats], np.int64),
                      idx)
        t23 = np.take(np.asarray([thr[la][1] for la in cats], np.int64),
                      idx)
        # t13 <= t23 (1/3 vs 2/3 quantile of the same group), so the
        # comparison sum is the tail/middle/head code directly
        code = (m >= t13).astype(np.int64) + (m >= t23)
        names = np.asarray(["tail", "middle", "head"], object)
        return pa.table({
            "doc_id": b.column("doc_id").cast(pa.int64()),
            "lang": b.column("lang"),
            "metric": pa.array(m),
            "bucket": pa.array(names[code].tolist(), pa.string()),
        })

    def empties(b: pa.Table) -> pa.Table:
        from .textstats import token_count_batch

        # the "has bigrams" rule must stay bit-identical to the bigram
        # side's token count — share the kernel, don't re-derive it
        n_tok = token_count_batch(b).column("n_tokens").to_numpy()
        keep = pa.array(n_tok < 2)
        ids = pa.compute.filter(
            b.column("doc_id").cast(pa.int64()), keep)
        langs_b = pa.compute.filter(b.column("lang"), keep)
        return pa.table({
            "doc_id": ids,
            "lang": langs_b,
            "metric": pa.array(np.full(len(ids), -1, np.int64)),
            "bucket": pa.array(["tail"] * len(ids), pa.string()),
        })

    assigned = joined.map_batches(assign, batch_format="pyarrow")
    pinned = ds.map_batches(empties, batch_format="pyarrow")
    return assigned.union(pinned)
