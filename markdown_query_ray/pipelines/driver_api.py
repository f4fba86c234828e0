"""Driver-contract pipelines: the callables behind ``__ray_entry__.queries()``.

Each function takes ``sf_dir`` (a /root/testdata/sf* directory) and returns a
pyarrow Table whose column names/values match the corresponding
``oracle_sql()`` entry exactly (the driver hashes values after sorting columns
by name).

The BM25 entries run the REAL engine end to end — build (or reuse) an index
over the documents table in "simple" tokenizer mode (lowercase
single-space split, no stems: exactly reproducible in SQL), then score
through the posting-list executor — so a DuckDB match validates the whole
pipeline: docids, shuffle, codec, stats, scoring, top-k.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa

from .. import __version__, checkpoint
from ..config import BM25Params, IndexConfig, QueryConfig
from ..index.build import build_index
from ..index.reader import IndexReader
from ..query import executor as qx
from ..query.ast import And, AndNot, Or, Term, Xor

_CACHE_ROOT = "/tmp/mdq_ray_cache"

# the crawl-refresh checkpoints' row shape (gated batch and survivors)
_REFRESH_DOC_SCHEMA = pa.schema([
    ("doc_id", pa.int64()), ("text", pa.string()), ("lang", pa.string()),
    ("url", pa.string())])


def _docs_dataset(sf_dir: str):
    import ray.data

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text", "lang"])

    def add_url(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ids = batch.column("doc_id").cast(pa.string())
        urls = pc.binary_join_element_wise("doc://", ids, "")
        return batch.append_column("url", urls)

    return ds.map_batches(add_url, batch_format="pyarrow")


def documents_index(sf_dir: str, positions: bool = False) -> str:
    """Build (once, cached+resumable) a simple-mode index over the documents
    table; doc_ids are the table's own doc_id column."""
    tag = "simple-pos" if positions else "simple"
    key = hashlib.md5(f"{sf_dir}|v{__version__}|{tag}".encode()).hexdigest()[:12]
    out = os.path.join(_CACHE_ROOT, f"docs-{key}")
    if not checkpoint.is_done(out, "_INDEX_DONE"):
        cfg = IndexConfig(tokenizer="simple", stem=False, num_term_parts=8,
                          num_doc_buckets=1, block_size=128,
                          positions=positions)
        build_index(out, dataset=_docs_dataset(sf_dir), cfg=cfg)
        checkpoint.mark_done(out, "_INDEX_DONE")
    return out


ROUND = 6


def _round_col(t: pa.Table, col: str, digits: int = ROUND) -> pa.Table:
    vals = [None if v is None else round(float(v), digits)
            for v in t.column(col).to_pylist()]
    i = t.column_names.index(col)
    return t.set_column(i, col, pa.array(vals, pa.float64()))


def _or_node(terms: list[str]):
    """Single-term leaf or weighted-OR tree for a term list."""
    return Term(terms[0]) if len(terms) == 1 \
        else Or(tuple(Term(t) for t in terms))


def bm25_topk(sf_dir: str, terms: list[str], k: int = 10) -> pa.Table:
    """(rank, doc_id, score) for a weighted-OR query, classic BM25 profile."""
    idx = documents_index(sf_dir)
    node = _or_node(terms)
    qcfg = QueryConfig(k=k, params=BM25Params.classic(), use_wand=True)
    out = qx.search(idx, node, qcfg)
    out = out.select(["rank", "doc_id", "score"])
    out = out.set_column(1, "doc_id",
                         out.column("doc_id").cast(pa.int64()))
    return _round_col(out, "score")


def search_snippets(sf_dir: str, terms: list[str] | None = None,
                    k: int = 10, window: int = 8) -> pa.Table:
    """(rank, doc_id, score, snippet): the data-path analog of the
    reference's interactive result preview (TUI render loop,
    /root/reference/src/interactive.rs:139-203) — for each BM25 top-k
    hit, the best `window`-token passage = the window with the most
    query-term occurrences, ties to the earliest start; the snippet
    keeps the ORIGINAL token casing while hit-matching is on the
    simple-mode lowercase terms.

    Scale shape: snippets are computed ONLY for the top-k hit set — the
    documents read is pruned to those ids (filter pushdown at the
    parquet scan), so the stage's cost is bounded by k, never corpus
    size; the in-doc window scan is one cumsum over the hit mask."""
    import pyarrow.compute as pc
    import ray.data

    from .equijoin import collect_arrow

    terms = terms or ["merge", "sort"]
    idx = documents_index(sf_dir)
    node = _or_node(terms)
    qcfg = QueryConfig(k=k, params=BM25Params.classic(), use_wand=True)
    res = qx.search(idx, node, qcfg).select(["rank", "doc_id", "score"])
    ids = res.column("doc_id").to_numpy().astype(np.int64)  # k values

    term_set = {t.lower() for t in terms}

    def snippet_batch(b: pa.Table) -> pa.Table:
        out = []
        for text in b.column("text").to_pylist():
            toks = [t for t in (text or "").split(" ") if t]
            n = len(toks)
            if n == 0:
                out.append("")
                continue
            hit = np.fromiter((t.lower() in term_set for t in toks),
                              bool, n)
            c = np.concatenate([[0], np.cumsum(hit)])
            n_st = max(n - window, 0) + 1
            wins = c[np.minimum(np.arange(n_st) + window, n)] - c[:n_st]
            st = int(np.argmax(wins))  # first max = earliest start
            out.append(" ".join(toks[st:st + window]))
        return pa.table({
            "doc_id": b.column("doc_id").cast(pa.int64()),
            "snippet": pa.array(out, pa.string()),
        })

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
        filter=pc.field("doc_id").isin(ids.tolist()))
    snip = collect_arrow(
        docs.map_batches(snippet_batch, batch_format="pyarrow"),
        pa.schema([("doc_id", pa.int64()), ("snippet", pa.string())]))
    # k-row driver-side attach of rank/score to snippets
    order = np.argsort(snip.column("doc_id").to_numpy())
    s_ids = snip.column("doc_id").to_numpy()[order]
    s_txt = np.asarray(snip.column("snippet").to_pylist(), object)[order]
    pos = np.searchsorted(s_ids, ids)
    if len(s_ids) < len(ids) or not (s_ids[np.minimum(
            pos, len(s_ids) - 1)] == ids).all():
        # a hit id absent from the documents read means the cached index
        # is stale relative to the table — fail loudly, never misattach
        raise ValueError(
            "top-k hit ids missing from the documents read; the cached "
            "index is stale — clear /tmp/mdq_ray_cache")
    t = pa.table({
        "rank": res.column("rank"),
        "doc_id": pa.array(ids, pa.int64()),
        "score": res.column("score"),
        "snippet": pa.array(s_txt[pos].tolist(), pa.string()),
    })
    return _round_col(t, "score")


def phrase_bm25(sf_dir: str, terms: list[str], k: int = 20,
                ordered: bool = True, window: int = 0) -> pa.Table:
    """(rank, doc_id, score) for a true positional PHRASE/NEAR query over a
    positions=True simple-mode index. Scored with the XAPIAN profile (the
    synthetic vocab's df ~ 0.8N makes every classic clamped idf 0); scores =
    the member terms' parts on phrase-matching docs."""
    from ..query.ast import Phrase

    idx = documents_index(sf_dir, positions=True)
    node = Phrase(tuple(terms), window=window or len(terms), ordered=ordered)
    qcfg = QueryConfig(k=k, params=BM25Params.xapian())
    out = qx.search(idx, node, qcfg).select(["rank", "doc_id", "score"])
    out = out.set_column(1, "doc_id", out.column("doc_id").cast(pa.int64()))
    return _round_col(out, "score")


def bm25_lang_filtered(sf_dir: str, terms: list[str], lang: str,
                       k: int = 20) -> pa.Table:
    """(rank, doc_id, score): weighted-OR BM25 restricted to docs of one
    language via the L<lang> boolean facet term (wdf 0 => FILTER semantics:
    restricts the match set, contributes no weight)."""
    from ..query.ast import Filter

    idx = documents_index(sf_dir)
    node = Filter(Or(tuple(Term(t) for t in terms)), Term("L" + lang))
    qcfg = QueryConfig(k=k, params=BM25Params.xapian())
    out = qx.search(idx, node, qcfg).select(["rank", "doc_id", "score"])
    out = out.set_column(1, "doc_id", out.column("doc_id").cast(pa.int64()))
    return _round_col(out, "score")


def boolean_docs(sf_dir: str, kind: str, t1: str, t2: str) -> pa.Table:
    """Full (not top-k) doc_id result of a boolean op over two terms."""
    idx = documents_index(sf_dir)
    reader = IndexReader(idx)
    ev = qx.Evaluator(reader, BM25Params.classic())
    node = {"and": And((Term(t1), Term(t2))),
            "and_not": AndNot(Term(t1), Term(t2)),
            "xor": Xor((Term(t1), Term(t2)))}[kind]
    res = ev.evaluate(node)
    ids = np.sort(res.ids.astype(np.int64))
    return pa.table({"doc_id": pa.array(ids, pa.int64())})


def bool_ops(sf_dir: str, t1: str = "merge", t2: str = "sort") -> pa.Table:
    """All three boolean operators (AND / AND_NOT / XOR) over the same
    two terms in one driver entry: the three full doc_id result sets,
    tagged with an ``op`` column. Each leg is the same executor path the
    individual ``boolean_docs`` entries exercised."""
    parts = []
    for kind in ("and", "and_not", "xor"):
        t = boolean_docs(sf_dir, kind, t1, t2)
        parts.append(pa.table({
            "op": pa.array([kind] * t.num_rows, pa.string()),
            "doc_id": t.column("doc_id"),
        }))
    return pa.concat_tables(parts).sort_by(
        [("op", "ascending"), ("doc_id", "ascending")])


def token_counts_entry(sf_dir: str) -> pa.Table:
    """Whitespace + BPE-ish per-doc token counts in ONE corpus pass
    (textstats.TokenCountsStage)."""
    import ray.data

    from .textstats import TokenCountsStage

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
    t = _collect(ds.map_batches(TokenCountsStage, batch_format="pyarrow",
                                concurrency=(1, 16)))
    return t.sort_by("doc_id")


def match_counts(sf_dir: str, terms: list[str]) -> pa.Table:
    """Exact per-term match counts plus the OR-union count (the reference's
    get_matches_estimated analog, made exact). One row per term + 'ANY'."""
    idx = documents_index(sf_dir)
    names, counts = [], []
    for t in terms:
        names.append(t)
        counts.append(qx.count_matches(idx, Term(t)))
    names.append("ANY")
    counts.append(qx.count_matches(idx, Or(tuple(Term(t) for t in terms))))
    return pa.table({"query": pa.array(names, pa.string()),
                     "n_matches": pa.array(counts, pa.int64())})


def facet_counts(sf_dir: str, terms: list[str] | None = None,
                 facet: str = "lang") -> pa.Table:
    """Faceted search (the MatchSpy analog of xapian's per-value result
    spies): per-`facet` counts over the FULL match set of a weighted-OR
    query. Match doc_ids are produced per doc-bucket INSIDE map_batches
    over a control dataset of bucket ids (unlike a top-k search, whose
    per-bucket lists are small enough to return from plain Ray tasks, the
    match set is corpus-scale for stopword-grade queries and must stay
    in the pipeline, never collected), the facet column attaches with one
    doc_id-keyed shuffle join against the pruned (doc_id, facet)
    projection, and the count is a tiny per-facet groupby."""
    import ray.data
    from ray.data.aggregate import Sum

    from .equijoin import shuffle_hash_join

    terms = terms or ["merge", "sort"]
    idx = documents_index(sf_dir)
    node = _or_node(terms)
    n_buckets = max(IndexReader(idx).S, 1)
    params = BM25Params.classic()

    def match_bucket(batch: pa.Table) -> pa.Table:
        reader = IndexReader(idx)
        out = []
        for b in batch.column("bucket").to_pylist():
            ev = qx.Evaluator(reader, params,
                              int(b) if reader.S > 1 else None)
            out.append(ev.evaluate(node).ids.astype(np.int64))
        ids = np.concatenate(out) if out else np.empty(0, np.int64)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "one": pa.array(np.ones(len(ids), np.int64))})

    ctrl = ray.data.from_items(
        [{"bucket": b} for b in range(n_buckets)])
    matches = ctrl.map_batches(match_bucket, batch_format="pyarrow")
    facets = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", facet])
    joined = shuffle_hash_join(
        matches, facets, "doc_id", "doc_id",
        {"one": pa.int64()}, {facet: pa.string()}, key_out="doc_id")
    agg = joined.groupby(facet).aggregate(
        Sum("one", alias_name="n_matches"))
    from .equijoin import collect_arrow

    t = collect_arrow(agg, pa.schema([
        (facet, pa.string()), ("n_matches", pa.int64())])).sort_by(facet)
    return pa.table({
        facet: t.column(facet),
        "n_matches": t.column("n_matches").cast(pa.int64()),
    })


def doc_token_counts(sf_dir: str) -> pa.Table:
    import ray.data

    from .textstats import token_count_batch

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
    t = _collect(ds.map_batches(token_count_batch, batch_format="pyarrow"))
    return t.sort_by("doc_id")


def bpe_token_counts(sf_dir: str) -> pa.Table:
    import ray.data

    from .textstats import BpeCountStage

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
    t = _collect(ds.map_batches(BpeCountStage, batch_format="pyarrow",
                                concurrency=(1, 16)))
    return t.sort_by("doc_id")


def bpe_word_histogram(sf_dir: str, n: int = 200) -> pa.Table:
    """Top-n of the train-side BPE word histogram — the ONE corpus-scale
    exchange of ``bpe_train`` (map-side ``value_counts`` partials ->
    ``groupby(word).sum``), which is the SQL-expressible half of the BPE
    pipeline (the merge loop itself is data-dependently iterative and
    stays oracle-less, documented in pipelines/bpe.py). Ordered
    (freq desc, word asc) so the limit boundary is deterministic."""
    import ray.data

    from .bpe import bpe_word_counts

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["text"])
    out = bpe_word_counts(ds).sort(["freq", "word"],
                                   descending=[True, False]).limit(n)
    return _collect(out).select(["word", "freq"])


def term_df_top(sf_dir: str, n: int = 50) -> pa.Table:
    import ray.data

    from .textstats import term_df

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
    t = _collect(term_df(ds, top_n=n))
    return pa.table({
        "term": t.column("term"),
        "df": t.column("df").cast(pa.int64()),
        "cf": t.column("cf").cast(pa.int64()),
    })


def lang_doc_stats(sf_dir: str) -> pa.Table:
    """Per-language corpus stats + the deterministic 90/5/5 id-hash split
    counts pivoted per split — one driver entry covers the per-lang
    aggregate AND the zero-shuffle ``split.hash_split`` assignment (the
    split is a pure function of doc_id, so the pivot is map-side)."""
    import ray.data
    from ray.data.aggregate import Sum

    from .split import hash_split

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "lang", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        split = np.asarray(batch.column("split").to_pylist(), object)
        t = pa.table({
            "lang": batch.column("lang"),
            "n": pa.array(np.ones(batch.num_rows, np.int64)),
            "chars": batch.column("n_chars").cast(pa.int64()),
            "tr": pa.array((split == "train").astype(np.int64)),
            "va": pa.array((split == "val").astype(np.int64)),
            "te": pa.array((split == "test").astype(np.int64)),
        })
        agg = pa.TableGroupBy(t, ["lang"]).aggregate(
            [("n", "sum"), ("chars", "sum"), ("tr", "sum"),
             ("va", "sum"), ("te", "sum")])
        return pa.table({"lang": agg.column("lang"),
                         "n_part": agg.column("n_sum"),
                         "chars_part": agg.column("chars_sum"),
                         "tr_part": agg.column("tr_sum"),
                         "va_part": agg.column("va_sum"),
                         "te_part": agg.column("te_sum")})

    res = hash_split(ds).map_batches(partial, batch_format="pyarrow") \
        .groupby("lang").aggregate(
            Sum("n_part", alias_name="n_docs"),
            Sum("chars_part", alias_name="sum_chars"),
            Sum("tr_part", alias_name="n_train"),
            Sum("va_part", alias_name="n_val"),
            Sum("te_part", alias_name="n_test"))
    t = _collect(res).sort_by("lang")
    return pa.table({
        "lang": t.column("lang"),
        "n_docs": t.column("n_docs").cast(pa.int64()),
        "sum_chars": t.column("sum_chars").cast(pa.int64()),
        "n_train": t.column("n_train").cast(pa.int64()),
        "n_val": t.column("n_val").cast(pa.int64()),
        "n_test": t.column("n_test").cast(pa.int64()),
    })


def quality_features(sf_dir: str) -> pa.Table:
    """Length/stopword quality features + Gopher repetition coverage +
    rolling fingerprint in one fused per-doc pass
    (textstats.quality_repetition_batch)."""
    import ray.data

    from .textstats import quality_repetition_batch

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
    return _collect(
        ds.map_batches(quality_repetition_batch,
                       batch_format="pyarrow")).sort_by("doc_id")


def quality_features_basic(sf_dir: str) -> pa.Table:
    """Length/stopword features only — the pre-round-4 entry semantics,
    kept so bench.py's `quality_features` timing stays comparable across
    rounds (the driver entry is the fused quality+repetition+fingerprint
    pass above)."""
    import ray.data

    from .textstats import quality_batch

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
    return _collect(
        ds.map_batches(quality_batch, batch_format="pyarrow")).sort_by(
        "doc_id")


def _events_side(sf_dir: str, event_type: str):
    """One event-type stream, column-pruned at the read with a parquet
    row filter."""
    import pyarrow.dataset as pads
    import ray.data

    return ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "ts", "user_id", "value", "event_type"],
        filter=pads.field("event_type") == event_type,
    ).map_batches(lambda b: b.drop_columns(["event_type"]),
                  batch_format="pyarrow")


def asof_purchase_click(sf_dir: str) -> pa.Table:
    """Every purchase matched to the user's latest click at-or-before the
    purchase instant (AS-OF LEFT join; purchases without a prior click
    keep nulls)."""
    from .joins import asof_join

    res = asof_join(_events_side(sf_dir, "purchase"),
                    _events_side(sf_dir, "click"),
                    key="user_id", ts="ts",
                    left_payload=["event_id", "value"],
                    right_payload=["event_id"])
    t = _collect(res)
    t = t.rename_columns(["user_id", "ts", "event_id", "value",
                          "click_id", "click_ts"])
    t = t.sort_by([("event_id", "ascending")])
    t = t.select(["event_id", "user_id", "ts", "value", "click_id",
                  "click_ts"])
    return _round_col(t, "value")


def range_purchase_clicks(sf_dir: str) -> pa.Table:
    """All (purchase, click) pairs of the same user with the click inside
    the 24 hours BEFORE the purchase (exclusive of the purchase instant) —
    the bounded range join."""
    from .joins import range_join

    res = range_join(_events_side(sf_dir, "purchase"),
                     _events_side(sf_dir, "click"),
                     key="user_id", ts="ts",
                     lo_us=-86_400_000_000, hi_us=0,
                     left_payload=["event_id"],
                     right_payload=["event_id"])
    t = _collect(res)
    t = t.rename_columns(["user_id", "ts", "event_id", "click_id",
                          "click_ts"])
    t = t.sort_by([("event_id", "ascending"), ("click_id", "ascending")])
    return t.select(["event_id", "user_id", "ts", "click_id", "click_ts"])


def asof_range_join(sf_dir: str) -> pa.Table:
    """AS-OF join + bounded range join fused into one driver entry: per
    purchase, the latest click at-or-before the instant (asof columns)
    PLUS the count and click-id checksum of all clicks in the 24 h
    window before it (the range join aggregated per purchase — the
    checksum pins the exact pair SET without expanding it in the
    result). Both joins are the same distributed co-partitioned passes
    the individual entries ran; only the per-purchase zip is local."""
    a = asof_purchase_click(sf_dir)
    r = range_purchase_clicks(sf_dir)
    gb = pa.TableGroupBy(r.select(["event_id", "click_id"]),
                         ["event_id"]).aggregate(
        [("click_id", "count"), ("click_id", "sum")])
    gids = gb.column("event_id").to_numpy()
    order = np.argsort(gids)
    gids = gids[order]
    n_clicks = gb.column("click_id_count").to_numpy()[order]
    id_sum = gb.column("click_id_sum").to_numpy()[order]
    aids = a.column("event_id").to_numpy()
    pos = np.searchsorted(gids, aids)
    hit = (pos < len(gids))
    hit[hit] &= gids[pos[hit]] == aids[hit]
    out_n = np.zeros(len(aids), np.int64)
    out_s = np.zeros(len(aids), np.int64)
    out_n[hit] = n_clicks[pos[hit]]
    out_s[hit] = id_sum[pos[hit]]
    return a.append_column(
        "n_clicks_24h", pa.array(out_n, pa.int64())).append_column(
        "click_id_sum", pa.array(out_s, pa.int64()))


def _domain_rows(batch: pa.Table) -> pa.Table:
    """(domain, doc_id[, n_chars]) per documents row: the PSL registered
    domain of the doc's synthesized messy url after canonicalization
    (webnorm); n_chars rides along when the batch carries it."""
    from .webnorm import (
        canonical_url_batch,
        registered_domain_batch,
        synth_messy_urls_batch,
    )

    b = registered_domain_batch(canonical_url_batch(
        synth_messy_urls_batch(batch)))
    cols = {"domain": b.column("domain"),
            "doc_id": b.column("doc_id").cast(pa.int64())}
    if "n_chars" in b.column_names:
        cols["n_chars"] = b.column("n_chars").cast(pa.int64())
    return pa.table(cols)


def domain_topk_docs(sf_dir: str, k: int = 3) -> pa.Table:
    """Per-registered-domain document cap: the top-k docs of each domain
    by (n_chars DESC, doc_id ASC) with a 1-based rank — the domain
    balancing step of a crawl pipeline, composed as a map-side top-k
    combine + per-key exact pass (``pipelines/topk.py``)."""
    import ray.data

    from .topk import groupwise_topk

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "n_chars"])
    res = groupwise_topk(
        ds.map_batches(_domain_rows, batch_format="pyarrow"),
        key="domain",
        order=[("n_chars", "descending"), ("doc_id", "ascending")], k=k)
    t = _collect(res).sort_by([("domain", "ascending"),
                               ("rank", "ascending")])
    return t.select(["domain", "rank", "doc_id", "n_chars"])


def hash_split_counts(sf_dir: str) -> pa.Table:
    """(split, lang, n_docs, sum_chars) under the deterministic 90/5/5
    id-hash split — shuffle-free assignment, tiny aggregate output."""
    import ray.data
    from ray.data.aggregate import Sum

    from .split import hash_split

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "lang", "n_chars"])

    def partial_agg(batch: pa.Table) -> pa.Table:
        t = pa.table({"split": batch.column("split"),
                      "lang": batch.column("lang"),
                      "n": pa.array(np.ones(batch.num_rows, np.int64)),
                      "chars": batch.column("n_chars").cast(pa.int64())})
        agg = pa.TableGroupBy(t, ["split", "lang"]).aggregate(
            [("n", "sum"), ("chars", "sum")])
        return pa.table({"split": agg.column("split"),
                         "lang": agg.column("lang"),
                         "n_part": agg.column("n_sum"),
                         "chars_part": agg.column("chars_sum")})

    parts = hash_split(ds).map_batches(partial_agg, batch_format="pyarrow")
    res = parts.groupby(["split", "lang"]).aggregate(
        Sum("n_part", alias_name="n_docs"),
        Sum("chars_part", alias_name="sum_chars"))
    t = _collect(res).sort_by([("split", "ascending"),
                               ("lang", "ascending")])
    return t.select(["split", "lang", "n_docs", "sum_chars"])


def repetition_signals(sf_dir: str) -> pa.Table:
    """Gopher-style word-n-gram repetition fractions per doc."""
    import ray.data

    from .textstats import repetition_batch

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
    return _collect(
        ds.map_batches(repetition_batch,
                       batch_format="pyarrow")).sort_by("doc_id")


def decontam_flags(sf_dir: str, every: int = 23) -> pa.Table:
    """Benchmark-decontamination flags over the documents table.

    The "benchmark suite" is the deterministic ``doc_id % every == 0``
    slice of the same table (no external data, reproducible at any sf);
    overlap on 3-token shingles; contaminated at >= 10% distinct-shingle
    overlap. The benchmark shingle set broadcasts via ``ray.put``; the
    corpus pass is one zero-shuffle map_batches (decontam.py)."""
    import ray.data

    from .decontam import contamination_flags

    path = os.path.join(sf_dir, "documents.parquet")
    ds = ray.data.read_parquet(path, columns=["doc_id", "text"])

    def bench_filter(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy()
        return b.filter(pa.array(ids % every == 0))

    bench = ray.data.read_parquet(path, columns=["doc_id", "text"]) \
        .map_batches(bench_filter, batch_format="pyarrow")
    return _collect(contamination_flags(ds, bench)).sort_by("doc_id")


def tpch_q3ish(sf_dir: str, segment: str = "BUILDING",
               cutoff: str = "1998-06-01") -> pa.Table:
    """TPC-H Q3 shape over both join regimes: customer (dimension,
    filtered to one segment) broadcast-semi-joins orders with zero
    shuffle; the surviving orders shuffle-hash-join lineitem on
    orderkey (only (key, rev) and (key, date, priority) projections
    ride the exchange); revenue aggregates with a map-side combine.

    Column pruning at every read; the broadcast side is the one input
    that is small by schema design (dimensions are GBs at 100 TB fact
    scale) — were it not, ``shuffle_hash_join`` is the drop-in path."""
    import pyarrow.compute as pc
    import ray.data

    from .equijoin import (
        broadcast_inner_join,
        collect_arrow,
        join_output_schema,
        shuffle_hash_join,
    )

    cut = np.datetime64(cutoff, "us")

    cust = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_mktsegment"])
    cust_small = _collect(cust.filter(
        expr=f"c_mktsegment == '{segment}'")).select(["c_custkey"])

    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate",
                 "o_orderpriority"])

    def orders_filter(b: pa.Table) -> pa.Table:
        keep = pc.less(b.column("o_orderdate"),
                       pa.scalar(cut, pa.timestamp("us")))
        b = b.filter(keep)
        return pa.table({
            "o_orderkey": b.column("o_orderkey").cast(pa.int64()),
            "o_custkey": b.column("o_custkey").cast(pa.int64()),
            "date_us": b.column("o_orderdate").cast(
                pa.timestamp("us")).cast(pa.int64()),
            "o_orderpriority": b.column("o_orderpriority"),
        })

    orders_f = broadcast_inner_join(
        orders.map_batches(orders_filter, batch_format="pyarrow"),
        cust_small, "o_custkey", "c_custkey")

    lineitem = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_extendedprice", "l_discount",
                 "l_shipdate"])

    def lineitem_filter(b: pa.Table) -> pa.Table:
        keep = pc.greater(b.column("l_shipdate"),
                          pa.scalar(cut, pa.timestamp("us")))
        b = b.filter(keep)
        rev = pc.multiply(
            b.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), b.column("l_discount")))
        t = pa.table({"l_orderkey": b.column("l_orderkey")
                      .cast(pa.int64()),
                      "rev": rev.cast(pa.float64())})
        # map-side combine before the groupby shuffle
        agg = pa.TableGroupBy(t, ["l_orderkey"]).aggregate([("rev",
                                                             "sum")])
        return agg.rename_columns(["l_orderkey", "rev_part"])

    # revenue aggregation FUSED into the join's exchange: the join
    # bucket already co-locates equal orderkeys, so the per-key sum
    # happens inside _join_group — one shuffle total instead of a
    # groupby exchange followed by a join exchange
    lc = {"rev_part": pa.float64()}
    rc = {"date_us": pa.int64(), "o_orderpriority": pa.string()}
    comb = [("rev_part", "sum", "revenue")]
    joined = shuffle_hash_join(
        lineitem.map_batches(lineitem_filter, batch_format="pyarrow"),
        orders_f,
        "l_orderkey", "o_orderkey", lc, rc,
        key_out="l_orderkey", left_combine=comb)
    t = collect_arrow(
        joined,
        join_output_schema("l_orderkey", lc, rc, comb)) \
        .sort_by("l_orderkey")
    t = pa.table({
        "l_orderkey": t.column("l_orderkey"),
        "o_orderdate": t.column("date_us").cast(pa.timestamp("us")),
        "o_orderpriority": t.column("o_orderpriority"),
        "revenue": t.column("revenue").cast(pa.float64()),
    })
    return _round_col(t, "revenue")


def seq_packing(sf_dir: str, seq_len: int = 512) -> pa.Table:
    """Concat-and-chunk sequence-packing assignment per doc (two-level
    distributed scan, packing.py; only (doc_id, n_tokens) shuffles)."""
    import ray.data

    from .packing import pack_sequences

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
    t = _collect(pack_sequences(ds, seq_len=seq_len)).sort_by("doc_id")
    return t.select(["doc_id", "n_tokens", "start_tok", "first_seq",
                     "last_seq", "n_seqs"])


def pii_redact(sf_dir: str) -> pa.Table:
    """PII counts + redacted text over deterministically-planted
    emails/IPs/phones — one zero-shuffle Arrow-RE2 pass (pii.py)."""
    import ray.data

    from .pii import redact_pii

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
    return _collect(redact_pii(ds, synth=True)).sort_by("doc_id")


# language mixture used by the weighted-repeat entry (fractions chosen to
# exercise pure-int, pure-frac, >1-with-frac and sub-1 weights)
MIX_WEIGHTS = {"en": 1.0, "de": 2.0, "es": 1.7, "fr": 0.4, "zh": 0.25}


def mixture_weighted_repeat(sf_dir: str) -> pa.Table:
    """Realized per-lang mix after deterministic weighted repetition:
    (lang, n_rows, n_docs, id_checksum) computed FROM the repeated
    dataset via map-side partial aggregates (each source row lands in
    exactly one batch, so per-batch distinct-doc counts sum exactly)."""
    import ray.data
    from ray.data.aggregate import Sum

    from .sampling import weighted_repeat

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "lang"])
    rep = weighted_repeat(ds, MIX_WEIGHTS, group_col="lang")

    def partial_agg(batch: pa.Table) -> pa.Table:
        la = np.asarray(batch.column("lang").to_pylist(), object)
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        first = batch.column("copy_idx").to_numpy() == 0
        uniq = sorted(set(la.tolist()))
        return pa.table({
            "lang": pa.array(uniq, pa.string()),
            "rows_part": pa.array([int((la == g).sum()) for g in uniq],
                                  pa.int64()),
            # distinct docs = first-copy rows; robust to re-batching
            "docs_part": pa.array(
                [int((first & (la == g)).sum()) for g in uniq],
                pa.int64()),
            "ck_part": pa.array([int(ids[la == g].sum()) for g in uniq],
                                pa.int64()),
        })

    agg = rep.map_batches(partial_agg, batch_format="pyarrow") \
        .groupby("lang").aggregate(
            Sum("rows_part", alias_name="n_rows"),
            Sum("docs_part", alias_name="n_docs"),
            Sum("ck_part", alias_name="id_checksum"))
    t = _collect(agg).sort_by("lang")
    return t.select(["lang", "n_rows", "n_docs", "id_checksum"])


def lang_length_quantiles(sf_dir: str) -> pa.Table:
    """Exact per-lang discrete quantiles of n_chars via the bounded
    value-histogram scan (quantiles.py) — quantile_disc semantics."""
    import ray.data

    from .quantiles import group_quantiles

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["lang", "n_chars"])
    t = group_quantiles(ds, "lang", "n_chars")
    t = t.rename_columns(["lang", "q", "quantile"])
    idx = pa.compute.sort_indices(
        t, sort_keys=[("lang", "ascending"), ("q", "ascending")])
    return t.take(idx)


def stratified_sample_docs(sf_dir: str, k: int = 20) -> pa.Table:
    """Deterministic k-per-lang uniform sample (hash-ranked, exact
    row_number semantics) via the group-wise top-k composition."""
    import ray.data

    from .sampling import stratified_sample

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "lang"])
    t = _collect(stratified_sample(ds, "lang", k=k)).sort_by(
        [("lang", "ascending"), ("rank", "ascending")])
    return pa.table({
        "lang": t.column("lang"),
        "rank": t.column("rank").cast(pa.int64()),
        "doc_id": t.column("doc_id").cast(pa.int64()),
        "sample_key": t.column("sample_key").cast(pa.int64()),
    })


def lang_distinct_tokens(sf_dir: str) -> pa.Table:
    """Exact per-lang COUNT(DISTINCT token) — the sharded-vocabulary
    distinct count (textstats.distinct_token_counts)."""
    import ray.data

    from .textstats import distinct_token_counts

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["lang", "text"])
    t = _collect(distinct_token_counts(ds)).sort_by("lang")
    return pa.table({"lang": t.column("lang"),
                     "n_distinct": t.column("n_distinct")
                     .cast(pa.int64())})


def bigram_novelty(sf_dir: str) -> pa.Table:
    """Corpus-bigram-statistics score per doc (ngramstats.py: counts
    groupby -> score-by-join -> per-doc aggregate; integers only).
    Docs without bigrams are pinned (0, 0, -1) by a zero-shuffle side
    pass unioned in — no driver-side doc list."""
    import ray.data

    from .ngramstats import bigram_scores

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])

    def empties(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        n_tok = pc.count_substring_regex(
            pc.fill_null(b.column("text"), ""), "[^ ]+").to_numpy()
        ids = b.column("doc_id").to_numpy().astype(np.int64)[n_tok < 2]
        z = np.zeros(len(ids), np.int64)
        return pa.table({"doc_id": pa.array(ids),
                         "n_bigrams": pa.array(z),
                         "sum_count": pa.array(z),
                         "min_count": pa.array(z - 1)})

    scores = bigram_scores(ds)
    pinned = ds.map_batches(empties, batch_format="pyarrow")
    from .equijoin import collect_arrow

    t = collect_arrow(
        scores.union(pinned),
        pa.schema([("doc_id", pa.int64()), ("n_bigrams", pa.int64()),
                   ("sum_count", pa.int64()), ("min_count", pa.int64())]))
    t = pa.table({c: t.column(c).cast(pa.int64())
                  for c in ["doc_id", "n_bigrams", "sum_count",
                            "min_count"]})
    return t.sort_by("doc_id")


def ccnet_quality_buckets(sf_dir: str) -> pa.Table:
    """CCNet-style head/middle/tail bucketing: corpus-bigram fluency
    metric per doc, per-language exact tertile gates (see
    ngramstats.ccnet_buckets). All-integer metric and quantile_disc
    thresholds so the SQL oracle replays the whole gate."""
    import ray.data

    from .equijoin import collect_arrow
    from .ngramstats import ccnet_buckets

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text", "lang"])
    t = collect_arrow(ccnet_buckets(ds), pa.schema([
        ("doc_id", pa.int64()), ("lang", pa.string()),
        ("metric", pa.int64()), ("bucket", pa.string())]))
    return t.sort_by("doc_id")


def dup_token_spans_entry(sf_dir: str, w: int = 4) -> pa.Table:
    """Maximal per-doc token spans covered by cross-doc duplicated
    w-gram windows (dedup.dup_token_spans: df groupby -> dup-key join ->
    Bloom-gated doc-hash routing -> local span merge). Exact integer
    token indices; the oracle re-derives the gaps-and-islands merge in
    SQL window functions."""
    import ray.data

    from .dedup import dup_token_spans

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
    return dup_token_spans(ds, w=w)


def dup_span_scrub_entry(sf_dir: str, w: int = 4) -> pa.Table:
    """End-to-end substring-dedup rewrite (dedup.dup_span_scrub): every
    token covered by a cross-doc duplicated w-gram window is removed;
    clean docs take the zero-shuffle Bloom-negative path. Output is one
    row per doc (doc_id, clean_text, n_removed); the rewrite is
    whitespace-normalizing by contract."""
    import ray.data

    from .dedup import dup_span_scrub

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
    return dup_span_scrub(ds, w=w)


def cross_dup_coverage(sf_dir: str, w: int = 4) -> pa.Table:
    """Cross-document duplicated-window coverage per doc
    (ngramstats.cross_dup_scores: df groupby -> score-by-join ->
    per-doc aggregate; exact integers). Docs with < w tokens are
    pinned (0, 0) by a zero-shuffle side pass unioned in."""
    import ray.data

    from .ngramstats import cross_dup_scores

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])

    def empties(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        n_tok = pc.count_substring_regex(
            pc.fill_null(b.column("text"), ""), "[^ ]+").to_numpy()
        ids = b.column("doc_id").to_numpy().astype(np.int64)[n_tok < w]
        z = np.zeros(len(ids), np.int64)
        return pa.table({"doc_id": pa.array(ids),
                         "n_windows": pa.array(z),
                         "dup_windows": pa.array(z)})

    scores = cross_dup_scores(ds, w=w)
    pinned = ds.map_batches(empties, batch_format="pyarrow")
    from .equijoin import collect_arrow

    t = collect_arrow(
        scores.union(pinned),
        pa.schema([("doc_id", pa.int64()), ("n_windows", pa.int64()),
                   ("dup_windows", pa.int64())]))
    t = pa.table({c: t.column(c).cast(pa.int64())
                  for c in ["doc_id", "n_windows", "dup_windows"]})
    return t.sort_by("doc_id")


def kmeans_embeddings(sf_dir: str, k: int = 8, iters: int = 4) -> pa.Table:
    """Quantized exact k-means over the embeddings table
    (clustering.kmeans_assign): deterministic integer Lloyd, centroids
    broadcast per iteration, per-block partial sums streamed to the
    driver (k x d per block) — zero all-to-all exchanges. The oracle
    replays the identical 4 iterations as unrolled SQL CTEs."""
    import ray.data

    from .clustering import kmeans_assign
    from .equijoin import collect_arrow

    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                               columns=["vec_id", "embedding"])
    out = kmeans_assign(ds, k=k, iters=iters)
    t = collect_arrow(out, pa.schema([("vec_id", pa.int64()),
                                      ("cluster", pa.int64())]))
    return t.sort_by("vec_id")


def semdedup_embedding_pairs(sf_dir: str) -> pa.Table:
    """SemDeDup semantic near-dup pairs (clustering.semdedup_pairs):
    exact-kmeans cluster blocking + exact integer cosine within
    clusters, one groupby(cluster) exchange. The entry runs at
    cos >= 0.3 (9/100 squared) because the synthetic embeddings carry
    no true 0.9-grade near-dups — the lower threshold exercises a
    non-trivial pair set (~300 pairs) against the oracle; 0.9 is the
    documented default for real corpora."""
    import ray.data

    from .clustering import semdedup_pairs

    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                               columns=["vec_id", "embedding"])
    return semdedup_pairs(ds, num_sq=9, den_sq=100)


def dedup_exact_ids(sf_dir: str) -> pa.Table:
    import ray.data

    from .dedup import exact_dedup

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
    t = _collect(exact_dedup(ds)).sort_by("doc_id")
    return pa.table({"doc_id": t.column("doc_id").cast(pa.int64())})


def _query_vector(sf_dir: str, vec_id: int) -> np.ndarray:
    """The query vector with ``vec_id == vec_id``, read with a parquet row
    filter + column prune (never the whole table onto the driver). Selects
    by value, not position — a vec_id space with gaps must not silently
    return a neighboring vector."""
    import pyarrow.parquet as pq

    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                      columns=["vec_id", "embedding"],
                      filters=[("vec_id", "==", vec_id)])
    if t.num_rows != 1:
        raise KeyError(f"vec_id {vec_id}: {t.num_rows} rows")
    return np.array(t.column("embedding").to_pylist()[0], np.float64)


def _query_vectors(sf_dir: str, n: int) -> np.ndarray:
    """Query matrix for vec_ids 0..n-1 (row i IS vec_id i — selected by
    value, so a vec_id space with gaps raises instead of silently shifting
    rows), read with a parquet row filter + column prune."""
    import pyarrow.parquet as pq

    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                      columns=["vec_id", "embedding"],
                      filters=[("vec_id", "<", n)])
    t = t.sort_by("vec_id")
    if t.column("vec_id").to_pylist() != list(range(n)):
        raise KeyError(f"vec_ids 0..{n - 1} not all present")
    return np.array(t.column("embedding").to_pylist(), np.float64)


def knn_cosine(sf_dir: str, query_vec_id: int = 0, k: int = 10) -> pa.Table:
    import ray.data

    from .similarity import knn_bruteforce

    q = _query_vector(sf_dir, query_vec_id)
    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                               columns=["vec_id", "embedding"])
    t = knn_bruteforce(ds, q[None, :], k=k)
    t = t.select(["rank", "vec_id", "sim"])
    return _round_col(t, "sim")


def embedding_neardup(sf_dir: str, threshold: float = 0.4) -> pa.Table:
    """Embedding-cosine near-duplicate pairs (vec_a < vec_b, sim >=
    threshold) — the embedding-space analog of minhash/simhash dedup.

    Runs the LSH-blocked SCALE path (no full-matrix broadcast, no
    ``to_pandas`` of the corpus) with recall-complete banding: 3 planes x
    32 tables gives per-pair miss probability (1-p^3)^32 ~ 1e-3 at the
    sim=0.4 boundary (p = 1-acos(0.4)/pi ~ 0.63) and far lower for the
    actual pair population; verified equal to the exhaustive baseline on
    the driver tables (tests/test_similarity_quality.py). The exhaustive
    ``cosine_neardup_pairs`` stays as the in-test oracle only."""
    import ray.data

    from .similarity import cosine_neardup_pairs_lsh

    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                               columns=["vec_id", "embedding"])
    t = cosine_neardup_pairs_lsh(ds, threshold=threshold,
                                 n_planes=3, n_tables=32)
    return _round_col(t, "sim")


def embedding_neardup_lsh(sf_dir: str, threshold: float = 0.4) -> pa.Table:
    """LSH-blocked embedding near-dup at a coarser parameterization
    (2 planes x 32 tables — bigger buckets, fewer tables' worth of
    signature work; per-pair miss (1-p^2)^32 ~ 9e-8 at the threshold).
    Same DuckDB oracle as ``embedding_neardup``: both parameterizations
    must recover the full exact pair set."""
    import ray.data

    from .similarity import cosine_neardup_pairs_lsh

    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                               columns=["vec_id", "embedding"])
    t = cosine_neardup_pairs_lsh(ds, threshold=threshold,
                                 n_planes=2, n_tables=32)
    return _round_col(t, "sim")


def events_tumbling(sf_dir: str) -> pa.Table:
    import ray.data

    from .windows import tumbling_counts

    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                               columns=["ts", "event_type", "value"])
    t = _collect(tumbling_counts(ds, minutes=60))
    t = t.sort_by([("event_type", "ascending"), ("window_start", "ascending")])
    out = pa.table({
        "event_type": t.column("event_type"),
        "window_start": t.column("window_start").cast(pa.timestamp("us")),
        "n_events": t.column("n_events").cast(pa.int64()),
        "sum_value": t.column("sum_value").cast(pa.float64()),
    })
    return _round_col(out, "sum_value")


def events_hopping(sf_dir: str) -> pa.Table:
    import ray.data

    from .windows import hopping_counts

    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                               columns=["ts", "event_type", "value"])
    t = _collect(hopping_counts(ds, size_minutes=60, hop_minutes=30))
    t = t.sort_by([("event_type", "ascending"), ("window_start", "ascending")])
    out = pa.table({
        "event_type": t.column("event_type"),
        "window_start": t.column("window_start").cast(pa.timestamp("us")),
        "n_events": t.column("n_events").cast(pa.int64()),
        "sum_value": t.column("sum_value").cast(pa.float64()),
    })
    return _round_col(out, "sum_value")


def events_windows(sf_dir: str) -> pa.Table:
    """Tumbling (1 h) + hopping (1 h / 30 min) window aggregates in one
    driver entry, tagged by a ``win`` column — both legs are the same
    distributed window pipelines the individual entries ran."""
    parts = []
    for win, t in (("hopping_1h_30m", events_hopping(sf_dir)),
                   ("tumbling_1h", events_tumbling(sf_dir))):
        parts.append(t.append_column(
            "win", pa.array([win] * t.num_rows, pa.string())))
    t = pa.concat_tables(parts).sort_by(
        [("win", "ascending"), ("event_type", "ascending"),
         ("window_start", "ascending")])
    return t.select(["win", "event_type", "window_start", "n_events",
                     "sum_value"])


def events_sessions(sf_dir: str) -> pa.Table:
    import ray.data

    from .windows import sessionize

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "ts"])
    t = _collect(sessionize(ds, gap_minutes=30)).sort_by("event_id")
    return pa.table({
        "event_id": t.column("event_id").cast(pa.int64()),
        "user_id": t.column("user_id").cast(pa.int64()),
        "session_id": t.column("session_id").cast(pa.int64()),
    })


def tpch_q1ish(sf_dir: str) -> pa.Table:
    """Pricing-summary aggregate. The key cardinality is tiny (|returnflag|
    x |linestatus| ~ 6), so a sort-based groupby shuffle of every row is
    the wrong shape — each scan task emits its ~6-row partial via a local
    Arrow hash aggregate and only the partials (6 x n_blocks rows) leave
    the tasks; the final combine is a driver-side Arrow groupby over that
    tiny table. Same map-side-combine pattern the 100-TB story needs for
    any low-cardinality global aggregate."""
    import ray.data

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice"])

    def partial(b: pa.Table) -> pa.Table:
        agg = pa.TableGroupBy(b, ["l_returnflag", "l_linestatus"]).aggregate(
            [("l_quantity", "sum"), ("l_extendedprice", "sum"),
             ([], "count_all")])
        return agg.rename_columns(["l_returnflag", "l_linestatus",
                                   "sum_qty", "sum_price", "n_rows"])

    parts = _collect(ds.map_batches(partial, batch_format="pyarrow"))
    t = pa.TableGroupBy(parts, ["l_returnflag", "l_linestatus"]).aggregate(
        [("sum_qty", "sum"), ("sum_price", "sum"), ("n_rows", "sum")])
    t = t.rename_columns(["l_returnflag", "l_linestatus", "sum_qty",
                          "sum_price", "n_rows"])
    t = t.sort_by([("l_returnflag", "ascending"),
                   ("l_linestatus", "ascending")])
    out = pa.table({
        "l_returnflag": t.column("l_returnflag"),
        "l_linestatus": t.column("l_linestatus"),
        "sum_qty": t.column("sum_qty").cast(pa.int64()),
        "sum_price": t.column("sum_price").cast(pa.float64()),
        "n_rows": t.column("n_rows").cast(pa.int64()),
    })
    return _round_col(out, "sum_price", 2)


# ---- rows-only (non-SQL-expressible) pipelines ----------------------------

def flagship_search(sf_dir: str, query: str = "the fast merge",
                    k: int = 20) -> pa.Table:
    """Full xapian-mode pipeline over pages synthesized from the documents
    table: html wrap -> extract -> tokenize+stem -> salted shuffle ->
    varint blocks -> compile query -> WAND top-k."""
    import ray.data

    from ..fixtures import pages_from_documents
    from ..query.compiler import parse_user_query

    key = hashlib.md5(
        f"{sf_dir}|v{__version__}|xapian".encode()).hexdigest()[:12]
    out = os.path.join(_CACHE_ROOT, f"pages-{key}")
    if not checkpoint.is_done(out, "_INDEX_DONE"):
        pages = pages_from_documents(sf_dir)
        ids = pages.column("url").to_pylist()
        pages = pages.append_column(
            "doc_id", pa.array(np.arange(len(ids), dtype=np.uint64)))
        ds = ray.data.from_arrow(pages).map_batches(
            lambda b: b, batch_format="pyarrow")
        cfg = IndexConfig(tokenizer="xapian", stem=True, num_term_parts=8,
                          num_doc_buckets=2, block_size=128)
        build_index(out, dataset=ds, cfg=cfg, total_docs=len(ids))
        checkpoint.mark_done(out, "_INDEX_DONE")
    node = parse_user_query(query)
    res = qx.search(out, node, QueryConfig(k=k, params=BM25Params.xapian()),
                    with_urls=True)
    res = res.set_column(res.column_names.index("doc_id"), "doc_id",
                         res.column("doc_id").cast(pa.int64()))
    return _round_col(res, "score")


def minhash_pairs(sf_dir: str) -> pa.Table:
    """Near-dup pairs by exact 3-token-shingle Jaccard >= 0.5, found via
    MinHash-LSH banding with the exact verify distributed over a pair-hash
    shuffle. bands=64 x rows=2 makes the banding recall-complete at the
    0.5 boundary (miss prob (1-j^2)^64 <= 1e-8), so the output equals the
    all-pairs exact Jaccard the DuckDB oracle computes."""
    import ray.data

    from .dedup import minhash_dedup_pairs

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
    t = minhash_dedup_pairs(ds, threshold=0.5, num_hashes=128, bands=64)
    return _round_col(t, "jaccard")


def incremental_dedup_pairs(sf_dir: str) -> pa.Table:
    """Incremental crawl dedup: new-batch docs (doc_id % 5 == 0) that
    near-duplicate the existing corpus (doc_id % 5 != 0), exact
    3-shingle Jaccard >= 0.5 via the recall-complete 64x2 banding (same
    regime as minhash_dedup_pairs, so the output equals the cross-side
    all-pairs Jaccard the DuckDB oracle computes). The base corpus stays
    a Dataset end to end — one union-tagged signature pass, cross-side
    pair scan, shared Bloom-gated semi-join verify."""
    import ray.data

    from .dedup import incremental_minhash_pairs

    def _half(keep_new: bool):
        def f(b: pa.Table) -> pa.Table:
            ids = b.column("doc_id").to_numpy()
            mask = (ids % 5 == 0) if keep_new else (ids % 5 != 0)
            return b.filter(pa.array(mask))
        return f

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
    base = ds.map_batches(_half(False), batch_format="pyarrow")
    new = ds.map_batches(_half(True), batch_format="pyarrow")
    t = incremental_minhash_pairs(base, new, threshold=0.5,
                                  num_hashes=128, bands=64)
    return _round_col(t, "jaccard")


def ngram_jaccard(sf_dir: str, threshold: float = 0.35) -> pa.Table:
    """EXACT 3-token-shingle Jaccard self-join >= threshold via the
    AllPairs/PPJoin prefix filter (no banding, no recall parameter):
    prefix shingles shuffle to df-ordered groups, candidates length-filter,
    and the shared distributed exact-Jaccard verify scores them. 0.35 is
    deliberately BELOW the recall-complete regime of the MinHash entry —
    the regime where only an exact join gives the right answer."""
    import ray.data

    from .dedup import ngram_jaccard_pairs

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
    t = ngram_jaccard_pairs(ds, threshold=threshold, w=3)
    return _round_col(t, "jaccard")


def neardup_clusters(sf_dir: str) -> pa.Table:
    """Near-dup CLUSTERS: the minhash pair graph (recall-complete 64x2
    banding at J >= 0.5, exact verify) contracted to connected components
    by alternating large-star/small-star rounds (pipelines/graph.py).
    Output (doc_id, cluster_rep) for every doc in a near-dup pair — end
    to end a Dataset pipeline: the verified pairs flow into the star
    rounds without ever collecting on the driver."""
    import ray.data

    from .dedup import minhash_dedup_pairs
    from .graph import connected_components

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
    pairs = minhash_dedup_pairs(ds, threshold=0.5, num_hashes=128, bands=64,
                                collect=False)
    return connected_components(pairs)


def neardup_dedup_docs(sf_dir: str) -> pa.Table:
    """Near-dup SURVIVOR selection — the consumer that turns cluster
    output into a deduplicated corpus: keep exactly one doc (the
    component-minimum rep) per near-dup cluster, keep every singleton.
    Composition is Dataset end to end: verified pairs -> star-round
    connected components (collect=False) -> drop-set map (members with
    doc_id != rep) -> distributed hash_anti_join against the corpus id
    projection. Nothing cluster- or corpus-scale lands on the driver;
    only this entry's final (bounded, sorted) id list collects."""
    import ray.data

    from .dedup import minhash_dedup_pairs
    from .equijoin import collect_arrow, hash_anti_join
    from .graph import connected_components

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
    pairs = minhash_dedup_pairs(ds, threshold=0.5, num_hashes=128, bands=64,
                                collect=False)
    comps = connected_components(pairs, collect=False)

    def drops(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy().astype(np.int64)
        rep = b.column("cluster_rep").to_numpy().astype(np.int64)
        return pa.table({"doc_id": pa.array(ids[ids != rep], pa.int64())})

    corpus_ids = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"])
    survivors = hash_anti_join(
        corpus_ids, comps.map_batches(drops, batch_format="pyarrow"),
        "doc_id", pa.schema([("doc_id", pa.int64())]))
    t = collect_arrow(survivors, pa.schema([("doc_id", pa.int64())]))
    return pa.table({"doc_id": t.column("doc_id").cast(pa.int64())}) \
        .sort_by("doc_id")


def simhash_near_pairs(sf_dir: str) -> pa.Table:
    import ray.data

    from .dedup import simhash_pairs

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
    return simhash_pairs(ds, max_hamming=6)


def lsh_ann_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """Multi-table hyperplane LSH ANN at recall-complete parameters
    (3 planes x 24 tables + 1-bit multiprobe): exact top-k recovery on the
    driver tables, so the brute-force cosine SQL is a true oracle. The
    realistic narrow-probe parameterizations stay recall-tested in
    tests/test_similarity_quality.py."""
    import ray.data

    from .similarity import lsh_ann

    q = _query_vectors(sf_dir, 3)
    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                               columns=["vec_id", "embedding"])
    t = lsh_ann(ds, q, k=k, n_planes=3, n_tables=24, multiprobe=1)
    return _round_col(t, "sim")


def ivf_ann_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """IVF ANN at nprobe = n_lists (full probe): probing every list must
    equal brute force — the exactness property that validates the
    quantizer/probe/rerank machinery against the brute-cosine SQL oracle.
    Selective nprobe < n_lists recall is covered in
    tests/test_similarity_quality.py."""
    import ray.data

    from .similarity import ivf_ann

    q = _query_vectors(sf_dir, 3)
    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                               columns=["vec_id", "embedding"])
    t = ivf_ann(ds, q, k=k, n_lists=16, nprobe=16)
    return _round_col(t, "sim")


def langid_preds(sf_dir: str) -> pa.Table:
    import ray.data

    from .textstats import LangIdStage

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
    return _collect(ds.map_batches(LangIdStage, batch_format="pyarrow",
                                   concurrency=(1, 16))).sort_by("doc_id")


def langid_ngram_preds(sf_dir: str) -> pa.Table:
    """Model-grade language ID: character-trigram frequency profiles
    trained distributed over the labeled corpus (map-side partial counts,
    one small groupby), broadcast once via ray.put, then a zero-shuffle
    vectorized classify pass. Fixed-point integer scoring so the DuckDB
    oracle replays train + classify bit-for-bit (see
    textstats.NgramLangIdStage)."""
    import ray
    import ray.data

    from .textstats import NgramLangIdStage, ngram_lang_profiles

    train = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["text", "lang"])
    prof_ref = ray.put(ngram_lang_profiles(train))
    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
    return _collect(ds.map_batches(
        NgramLangIdStage, fn_constructor_args=(prof_ref,),
        batch_format="pyarrow", concurrency=(1, 16))).sort_by("doc_id")


def fingerprints(sf_dir: str) -> pa.Table:
    import ray.data

    from .textstats import fingerprint_batch

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
    return _collect(ds.map_batches(
        fingerprint_batch, batch_format="pyarrow")).sort_by("doc_id")


def langid_both(sf_dir: str) -> pa.Table:
    """Both language-ID models in one driver entry: the profile-word
    heuristic (lang_word) and the trained character-trigram model
    (lang_tri + fixed-point score), zipped per doc. Each side is the
    same distributed train/classify pipeline the individual entries
    ran; only the per-doc zip of the two (doc_id-sorted) prediction
    tables is local."""
    w = langid_preds(sf_dir)
    t = langid_ngram_preds(sf_dir)
    if not w.column("doc_id").equals(t.column("doc_id")):
        raise RuntimeError("langid doc_id sets diverge between models")
    return pa.table({
        "doc_id": w.column("doc_id"),
        "lang_word": w.column("lang_pred"),
        "lang_tri": t.column("lang_pred"),
        "tri_score": t.column("score").cast(pa.int64()),
    })


def ann_topk_both(sf_dir: str, k: int = 10) -> pa.Table:
    """LSH ANN (recall-complete parameters) + IVF ANN (full probe) in one
    driver entry, tagged by a ``method`` column — both must equal the
    brute-force cosine top-k, so one oracle checks both index layouts."""
    parts = []
    for method, t in (("ivf", ivf_ann_topk(sf_dir, k)),
                      ("lsh", lsh_ann_topk(sf_dir, k))):
        parts.append(pa.table({
            "method": pa.array([method] * t.num_rows, pa.string()),
            "query_idx": t.column("query_idx"),
            "rank": t.column("rank"),
            "vec_id": t.column("vec_id"),
            "sim": t.column("sim"),
        }))
    return pa.concat_tables(parts).sort_by(
        [("method", "ascending"), ("query_idx", "ascending"),
         ("rank", "ascending")])


def lang_token_quantiles(sf_dir: str) -> pa.Table:
    """Per-lang exact COUNT(DISTINCT token) (sharded-vocabulary distinct
    count) + exact n_chars quantiles (value-histogram quantile_disc)
    pivoted wide, one row per lang — two aggregate families, one driver
    entry. Both sides are the same distributed passes the individual
    entries ran; the per-lang zip is local (|langs| rows)."""
    from fractions import Fraction

    d = lang_distinct_tokens(sf_dir)
    q = lang_length_quantiles(sf_dir)
    langs = d.column("lang").to_pylist()
    cols = {"lang": langs,
            "n_distinct": d.column("n_distinct").to_pylist()}
    qmap = {}
    for lang, qv, val in zip(q.column("lang").to_pylist(),
                             q.column("q").to_pylist(),
                             q.column("quantile").to_pylist()):
        qmap[(lang, Fraction(qv).limit_denominator(100))] = val
    for frac, name in ((Fraction(1, 4), "p25"), (Fraction(1, 2), "p50"),
                       (Fraction(3, 4), "p75"), (Fraction(9, 10), "p90"),
                       (Fraction(99, 100), "p99")):
        cols[name] = [qmap[(g, frac)] for g in langs]
    return pa.table({
        "lang": pa.array(cols["lang"], pa.string()),
        "n_distinct": pa.array(cols["n_distinct"], pa.int64()),
        **{n: pa.array(cols[n], pa.int64())
           for n in ("p25", "p50", "p75", "p90", "p99")},
    })


def ngram_scores(sf_dir: str) -> pa.Table:
    """Corpus-bigram novelty + cross-document duplicated-window coverage
    zipped per doc — the two score-by-join pipelines (ngramstats.py)
    under one driver entry. Each side is the same distributed
    count/join/aggregate chain the individual entries ran."""
    b = bigram_novelty(sf_dir)
    c = cross_dup_coverage(sf_dir)
    if not b.column("doc_id").equals(c.column("doc_id")):
        raise RuntimeError("ngram score doc_id sets diverge")
    return pa.table({
        "doc_id": b.column("doc_id"),
        "n_bigrams": b.column("n_bigrams"),
        "sum_count": b.column("sum_count"),
        "min_count": b.column("min_count"),
        "n_windows": c.column("n_windows"),
        "dup_windows": c.column("dup_windows"),
    })


def multimodal_features(sf_dir: str) -> pa.Table:
    """Scalar image features (mean/std intensity) over the deterministic
    RAW8 fixture — checked against an independently recomputed golden
    (tools/gen_goldens.py); the histogram feature vector stays covered by
    tests/test_multimodal.py."""
    import ray.data

    from .multimodal import make_media_table, media_features

    media = make_media_table(200)
    ds = ray.data.from_arrow(media)
    t = _collect(media_features(ds)).sort_by("media_id")
    t = t.select(["media_id", "mean_intensity", "std_intensity"])
    return _round_col(_round_col(t, "mean_intensity"), "std_intensity")


def jpeg_features(sf_dir: str) -> pa.Table:
    """Scalar image features over REAL baseline JPEGs decoded by the
    from-scratch islow decoder (functions/jpeg_codec) — checked against
    a golden produced by decoding the SAME bytes with Java ImageIO
    (libjpeg-6b lineage; tools/JpegGolden.java + tools/gen_goldens.py),
    the only valid oracle shape for a lossy codec. The fixture appends
    the Java-ENCODED 4:2:0 + progressive streams (ids 1000+), so this
    driver row also verifies the subsampled and multi-scan decode paths.
    Per-image pixel bit-exactness is asserted in tests/test_jpeg.py."""
    import ray.data

    from .multimodal import make_jpeg_table, media_features

    ds = ray.data.from_arrow(make_jpeg_table(150, with_golden=True))
    t = _collect(media_features(ds)).sort_by("media_id")
    t = t.select(["media_id", "mean_intensity", "std_intensity"])
    return _round_col(_round_col(t, "mean_intensity"), "std_intensity")


def video_frame_feats(sf_dir: str) -> pa.Table:
    import ray.data

    from .multimodal import make_video_table, video_frame_features

    ds = ray.data.from_arrow(make_video_table(100))
    t = _collect(video_frame_features(ds, n_samples=4)) \
        .sort_by([("media_id", "ascending"), ("frame_idx", "ascending")])
    t = pa.table({
        "media_id": t.column("media_id"),
        "frame_idx": t.column("frame_idx").cast(pa.int64()),
        "mean_intensity": t.column("mean_intensity"),
        "std_intensity": t.column("std_intensity"),
    })
    return _round_col(_round_col(t, "mean_intensity"), "std_intensity")


def mpeg1_frame_feats(sf_dir: str) -> pa.Table:
    """Per-sampled-frame features over REAL MPEG-1 I-frame elementary
    streams (from-scratch ISO 11172-2 intra decoder), through the same
    two actor-pool stages as the raw8v/MJPEG entries. The fixture
    frames are 8x8-constant mosaics, which the intra codec reproduces
    losslessly — the oracle recomputes features from the pixel spec
    alone, independent of both encoder and decoder (gen_goldens
    gen_mpeg1)."""
    import ray.data

    from .multimodal import make_mpeg1_video_table, video_frame_features

    ds = ray.data.from_arrow(make_mpeg1_video_table(60))
    t = _collect(video_frame_features(ds, n_samples=4)) \
        .sort_by([("media_id", "ascending"), ("frame_idx", "ascending")])
    t = pa.table({
        "media_id": t.column("media_id"),
        "frame_idx": t.column("frame_idx").cast(pa.int64()),
        "mean_intensity": t.column("mean_intensity"),
        "std_intensity": t.column("std_intensity"),
    })
    return _round_col(_round_col(t, "mean_intensity"), "std_intensity")


def mjpeg_frame_feats(sf_dir: str) -> pa.Table:
    """Per-sampled-frame features over REAL Motion-JPEG AVI videos: RIFF
    'movi' extraction + from-scratch JPEG decode per frame, through the
    same two actor-pool stages as the raw8v entry. Golden oracle = Java
    ImageIO decoding the identical per-frame JPEG bytes (gen_goldens
    gen_mjpeg) — it verifies container extraction and codec together."""
    import ray.data

    from .multimodal import make_mjpeg_video_table, video_frame_features

    ds = ray.data.from_arrow(make_mjpeg_video_table(60))
    t = _collect(video_frame_features(ds, n_samples=4)) \
        .sort_by([("media_id", "ascending"), ("frame_idx", "ascending")])
    t = pa.table({
        "media_id": t.column("media_id"),
        "frame_idx": t.column("frame_idx").cast(pa.int64()),
        "mean_intensity": t.column("mean_intensity"),
        "std_intensity": t.column("std_intensity"),
    })
    return _round_col(_round_col(t, "mean_intensity"), "std_intensity")


def audio_chunk_feats(sf_dir: str) -> pa.Table:
    import ray.data

    from .multimodal import AudioChunkStage, make_audio_table

    ds = ray.data.from_arrow(make_audio_table(100))
    t = _collect(ds.map_batches(AudioChunkStage, batch_format="pyarrow",
                                batch_size=32, concurrency=(1, 16)))
    t = t.sort_by([("media_id", "ascending"), ("chunk_idx", "ascending")])
    t = pa.table({
        "media_id": t.column("media_id"),
        "chunk_idx": t.column("chunk_idx").cast(pa.int64()),
        "rms": t.column("rms"),
        "zero_crossing_rate": t.column("zero_crossing_rate"),
    })
    return _round_col(_round_col(t, "rms"), "zero_crossing_rate")


def warc_extract(sf_dir: str) -> pa.Table:
    """(doc_id, url, n_chars): the documents table round-tripped through
    the crawl-native path — html pages written as gzip-member WARC files,
    parsed back by the WARC source, text re-extracted. The extract is
    byte-identical per url (the round-1 invariant), so the oracle derives
    n_chars straight from the documents table."""
    import pyarrow.compute as pc
    import ray.data

    from ..fixtures import pages_from_documents, write_warc_file
    from ..sources.warc import read_warc
    from ..stages.extract import extract_batch

    key = hashlib.md5(
        f"{sf_dir}|v{__version__}|warc".encode()).hexdigest()[:12]
    out = os.path.join(_CACHE_ROOT, f"warc-{key}")
    if not checkpoint.is_done(out, "_DONE"):
        os.makedirs(out, exist_ok=True)
        pages = pages_from_documents(sf_dir)
        per = max(1, pages.num_rows // 4)
        for f in range(0, pages.num_rows, per):
            write_warc_file(pages.slice(f, per),
                            os.path.join(out, f"crawl-{f:08d}.warc.gz"))
        checkpoint.mark_done(out, "_DONE")
    import glob

    ds = read_warc(glob.glob(os.path.join(out, "*.warc.gz")))
    ds = ds.map_batches(extract_batch, batch_format="pyarrow")

    def project(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": b.column("doc_id").cast(pa.int64()),
            "url": b.column("url"),
            "n_chars": pc.utf8_length(b.column("text")).cast(pa.int64()),
        })

    return _collect(ds.map_batches(project, batch_format="pyarrow")) \
        .sort_by("doc_id")


def composite_pipeline(sf_dir: str, min_tokens: int = 30,
                       terms: list[str] | None = None,
                       k: int = 10, fresh: bool = False) -> pa.Table:
    """The full training-data chain composed end to end — quality filter
    (n_tokens >= min_tokens) -> exact dedup (first doc_id per distinct
    text, SURVIVING ROWS flow straight into the build) -> index build ->
    BM25 top-k — with every stage SQL-expressible, so one DuckDB oracle
    validates the whole composition including the corpus-dependent BM25
    stats (N, avgdl, df are computed over the filtered+deduped corpus,
    not the raw table).

    Scale shape: the dedup stage is :func:`~.dedup.exact_dedup_rows` —
    one hash-bucketed shuffle of the filtered rows whose groups emit the
    surviving rows directly, so NOTHING corpus-sized ever lands on the
    driver (the previous survivor-id collect + ``np.isin`` broadcast was
    10^11+ uint64 of driver state at 10^12 docs)."""
    import ray.data

    from .dedup import exact_dedup_rows
    from .textstats import token_count_batch

    terms = terms or ["merge", "sort"]
    key = hashlib.md5(
        f"{sf_dir}|v{__version__}|composite-{min_tokens}".encode()
    ).hexdigest()[:12]
    out = os.path.join(_CACHE_ROOT, f"composite-{key}")
    if fresh:  # bench mode: time the actual build, not a cache hit
        checkpoint.clear_dir(out)
    if not checkpoint.is_done(out, "_INDEX_DONE"):
        ds = _docs_dataset(sf_dir)

        def quality_gate(b: pa.Table) -> pa.Table:
            n = token_count_batch(b).column("n_tokens").to_numpy()
            return b.filter(pa.array(n >= min_tokens))

        filtered = ds.map_batches(quality_gate, batch_format="pyarrow")
        survivors = exact_dedup_rows(filtered)
        cfg = IndexConfig(tokenizer="simple", stem=False, num_term_parts=8,
                          num_doc_buckets=1, block_size=128)
        build_index(out, dataset=survivors, cfg=cfg)
        checkpoint.mark_done(out, "_INDEX_DONE")
    node = _or_node(terms)
    qcfg = QueryConfig(k=k, params=BM25Params.classic(), use_wand=True)
    res = qx.search(out, node, qcfg).select(["rank", "doc_id", "score"])
    res = res.set_column(1, "doc_id", res.column("doc_id").cast(pa.int64()))
    return _round_col(res, "score")


def crawl_refresh_pipeline(sf_dir: str, min_tokens: int = 30,
                           terms: list[str] | None = None,
                           k: int = 10, fresh: bool = False) -> pa.Table:
    """Crawl-refresh composed end to end: build the base index over the
    accumulated corpus (doc_id % 5 != 0), then take the new crawl batch
    (doc_id % 5 == 0) through quality gate (n_tokens >= min_tokens) ->
    incremental near-dup vs the base (exact 3-shingle Jaccard >= 0.5 via
    the recall-complete 64x2 banding, the same regime the
    incremental_dedup_pairs oracle validates) -> distributed anti-join of
    flagged doc_ids (equijoin.hash_anti_join — flagged ids never land on
    the driver) -> update_index INSERTION of the survivors -> BM25 top-k
    over the UPDATED multi-segment index. One DuckDB oracle replays the
    whole refresh, including the updated corpus-dependent BM25 stats —
    this is the driver-contract exercise of the update path (previously
    pytest-only: update/compact rank-identity suites)."""
    import ray.data

    from ..index.update import update_index
    from .dedup import incremental_minhash_pairs
    from .equijoin import hash_anti_join
    from .textstats import token_count_batch

    terms = terms or ["merge", "sort"]
    key = hashlib.md5(
        f"{sf_dir}|v{__version__}|refresh-{min_tokens}".encode()
    ).hexdigest()[:12]
    out = os.path.join(_CACHE_ROOT, f"refresh-{key}")
    if fresh:  # bench mode: time the actual build+update, not a cache hit
        checkpoint.clear_dir(out)
    if not checkpoint.is_done(out, "_REFRESH_DONE"):
        full = _docs_dataset(sf_dir)

        def half(keep_new: bool):
            def f(b: pa.Table) -> pa.Table:
                ids = b.column("doc_id").to_numpy()
                mask = (ids % 5 == 0) if keep_new else (ids % 5 != 0)
                return b.filter(pa.array(mask))
            return f

        base = full.map_batches(half(False), batch_format="pyarrow")
        cfg = IndexConfig(tokenizer="simple", stem=False, num_term_parts=8,
                          num_doc_buckets=1, block_size=128)
        build_index(out, dataset=base, cfg=cfg)

        def quality_gate(b: pa.Table) -> pa.Table:
            n = token_count_batch(b).column("n_tokens").to_numpy()
            return b.filter(pa.array(n >= min_tokens))

        # The gated new-crawl batch feeds THREE consumers (signature pass,
        # verify-text pass, anti-join left side). Checkpoint it to
        # partitioned parquet ONCE (gate tokenization runs once; on a
        # cluster, point _CACHE_ROOT at shared storage and the checkpoint
        # doubles as the resume point) and stream each consumer from a
        # column-pruned read. The base side's dedup passes likewise read
        # only (doc_id, text) straight from the source parquet.
        ckpt = os.path.join(out, "_gated_new")
        checkpoint.write_dataset(
            _docs_dataset(sf_dir)
            .map_batches(half(True), batch_format="pyarrow")
            .map_batches(quality_gate, batch_format="pyarrow"),
            ckpt, _REFRESH_DOC_SCHEMA)
        gated = ray.data.read_parquet(ckpt)
        gated_slim = ray.data.read_parquet(
            ckpt, columns=["doc_id", "text"])
        slim = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text"])
        base_slim = slim.map_batches(half(False), batch_format="pyarrow")
        pairs = incremental_minhash_pairs(
            base_slim, gated_slim,
            threshold=0.5, num_hashes=128, bands=64, collect=False,
            base_sigs_dir=os.path.join(out, "_base_sigs"))
        flagged = pairs.map_batches(
            lambda b: pa.table(
                {"doc_id": b.column("doc_b").cast(pa.int64())}),
            batch_format="pyarrow")
        survivors = hash_anti_join(gated, flagged, "doc_id",
                                   _REFRESH_DOC_SCHEMA)
        # update_index consumes its input dataset more than once;
        # checkpoint the survivors so the verify/anti-join chain (the
        # two heaviest stages of the refresh) executes ONCE instead of
        # per consumer — same crash-safe parquet pattern as _gated_new
        surv_ck = os.path.join(out, "_survivors")
        # an all-duplicates (or all-gated-out) refresh leaves ZERO
        # survivors: the checkpoint pins the schema, and the update
        # commits an empty generation
        checkpoint.write_dataset(survivors, surv_ck, _REFRESH_DOC_SCHEMA)
        update_index(out, dataset=ray.data.read_parquet(surv_ck), cfg=cfg)
        checkpoint.mark_done(out, "_REFRESH_DONE")
    node = _or_node(terms)
    qcfg = QueryConfig(k=k, params=BM25Params.classic(), use_wand=True)
    res = qx.search(out, node, qcfg).select(["rank", "doc_id", "score"])
    res = res.set_column(1, "doc_id", res.column("doc_id").cast(pa.int64()))
    return _round_col(res, "score")


def span_dedup_survivors(sf_dir: str) -> pa.Table:
    """(doc_id, span_idx) of first occurrences of each distinct '. '-span
    — C4-style sub-document exact dedup."""
    import ray.data

    from .dedup import span_dedup

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
    t = _collect(span_dedup(ds)).sort_by(
        [("doc_id", "ascending"), ("span_idx", "ascending")])
    return pa.table({
        "doc_id": t.column("doc_id").cast(pa.int64()),
        "span_idx": t.column("span_idx").cast(pa.int64()),
    })


def url_canon(sf_dir: str) -> pa.Table:
    """(doc_id, url, canon_url): URL canonicalization over deterministic
    messy urls synthesized from doc_id (the oracle reconstructs BOTH
    columns from the rules in SQL — an independent check of the math)."""
    import ray.data

    from .webnorm import url_canonicalize

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id"])
    t = _collect(url_canonicalize(ds)).sort_by("doc_id")
    return pa.table({
        "doc_id": t.column("doc_id").cast(pa.int64()),
        "url": t.column("url"),
        "canon_url": t.column("canon_url"),
    })


def domain_doc_stats(sf_dir: str) -> pa.Table:
    """(domain, n_docs, sum_chars, top_doc_id, top_doc_chars) per
    registered domain of the canonical url — the per-domain quota/quality
    aggregate, plus each domain's largest doc via the group-wise top-k
    machinery (``topk.groupwise_topk`` at k=1), so one driver entry covers
    both the aggregate and the per-key top-k pass. The two small results
    (one row per domain each) zip driver-side. bench.py times
    ``domain_doc_stats_basic`` (the aggregate alone) for cross-round
    comparability."""
    import ray.data

    from .topk import groupwise_topk
    from .webnorm import domain_stats

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "n_chars"])
    stats = _collect(domain_stats(ds)).sort_by("domain")

    ds2 = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                                columns=["doc_id", "n_chars"])
    top1 = _collect(groupwise_topk(
        ds2.map_batches(_domain_rows, batch_format="pyarrow"),
        key="domain",
        order=[("n_chars", "descending"), ("doc_id", "ascending")],
        k=1)).sort_by("domain")
    if top1.column("domain").to_pylist() != \
            stats.column("domain").to_pylist():
        raise RuntimeError("domain sets diverge between aggregate and "
                           "top-1 passes")
    return pa.table({
        "domain": stats.column("domain"),
        "n_docs": stats.column("n_docs").cast(pa.int64()),
        "sum_chars": stats.column("sum_chars").cast(pa.int64()),
        "top_doc_id": top1.column("doc_id").cast(pa.int64()),
        "top_doc_chars": top1.column("n_chars").cast(pa.int64()),
    })


def domain_doc_stats_basic(sf_dir: str) -> pa.Table:
    """Per-domain aggregate alone — pre-round-4 entry semantics, kept for
    bench.py cross-round comparability."""
    import ray.data

    from .webnorm import domain_stats

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "n_chars"])
    t = _collect(domain_stats(ds)).sort_by("domain")
    return pa.table({
        "domain": t.column("domain"),
        "n_docs": t.column("n_docs").cast(pa.int64()),
        "sum_chars": t.column("sum_chars").cast(pa.int64()),
    })


def bpe_train_encode(sf_dir: str, n_merges: int = 1024,
                     top_words: int = 32768) -> pa.Table:
    """Train a byte-level BPE vocabulary over the documents table, then
    tokenize the whole corpus with it (pipelines/bpe.py — the trained
    complement of ``bpe_token_counts``' regex heuristic). Returns only
    corpus-level aggregates (n_docs, total trained-BPE tokens, learned
    merge count) — the token lists stay distributed. No SQL oracle (the
    merge loop is data-dependently iterative); tests/test_bpe.py pins
    the semantics against a naive-recount reference trainer, byte
    round-trip, and parallelism invariance."""
    import ray.data
    from ray.data.aggregate import Count, Sum

    from .bpe import bpe_encode, bpe_train

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
    model = bpe_train(ds, n_merges=n_merges, top_words=top_words)
    enc = bpe_encode(ds, model, concurrency=(1, 16))
    agg = enc.aggregate(Count(), Sum("n_tokens", alias_name="total"))
    return pa.table({
        "n_docs": pa.array([int(agg["count()"])], pa.int64()),
        "total_tokens": pa.array([int(agg["total"])], pa.int64()),
        "n_merges": pa.array([len(model.merges)], pa.int64()),
    })


def hll_user_registers(sf_dir: str, p: int = 12) -> pa.Table:
    """HyperLogLog distinct-user sketch over the events table: the
    (bucket, maxrho) register table, sorted — deterministic data the
    SQL oracle replays bit-for-bit (pipelines/sketches.py; the float
    estimate is the driver-side ``hll_estimate`` helper, accuracy
    pytest-asserted)."""
    import ray.data

    from .sketches import hll_registers

    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                               columns=["user_id"])
    t = _collect(hll_registers(ds, "user_id", p=p)).sort_by("bucket")
    return pa.table({
        "bucket": t.column("bucket").cast(pa.int64()),
        "maxrho": t.column("maxrho").cast(pa.int64()),
    })


def domain_capped_docs(sf_dir: str, cap: int = 25) -> pa.Table:
    """Per-registered-domain crawl quota: keep each domain's first
    ``cap`` docs by doc_id — the standard per-domain cap of web-corpus
    curation, i.e. SQL ``row_number() OVER (PARTITION BY domain ORDER BY
    doc_id) <= cap``, as the group-wise top-k (``topk.groupwise_topk``:
    map-side per-batch combine, then one small per-domain pass)."""
    import ray.data

    from .topk import groupwise_topk

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id"]) \
        .map_batches(_domain_rows, batch_format="pyarrow")
    t = _collect(groupwise_topk(ds, key="domain",
                                order=[("doc_id", "ascending")], k=cap))
    return t.select(["domain", "doc_id"]).sort_by(
        [("domain", "ascending"), ("doc_id", "ascending")])


def event_value_quantiles(sf_dir: str) -> pa.Table:
    """Exact per-event-type discrete quantiles of the FLOAT64 value
    column — the float path of the distributed quantile machinery
    (IEEE-754 order-isomorphic keys, pipelines/quantiles.py), matched
    bit-for-bit by DuckDB quantile_disc."""
    import ray.data

    from .quantiles import group_quantiles_float

    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                               columns=["event_type", "value"])
    return group_quantiles_float(ds, "event_type", "value")


def cms_token_registers(sf_dir: str, depth: int = 4,
                        width: int = 2048) -> pa.Table:
    """Count-Min frequency sketch over the documents' whitespace
    tokens: the (row, cell, cnt) counter table, sorted — deterministic
    data the SQL oracle replays bit-for-bit (pipelines/sketches.py;
    every cell is an order-independent sum, so the sketch merges by
    addition in one <= depth*width-row exchange). The point-estimate
    helper ``cms_estimate`` is accuracy-pytest-asserted against exact
    counts."""
    import ray.data

    from .sketches import cms_registers

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["text"])
    t = _collect(cms_registers(ds, "text", depth=depth, width=width)) \
        .sort_by([("row", "ascending"), ("cell", "ascending")])
    return pa.table({
        "row": t.column("row").cast(pa.int64()),
        "cell": t.column("cell").cast(pa.int64()),
        "cnt": t.column("cnt").cast(pa.int64()),
    })


def _collect(ds) -> pa.Table:
    """Materialize a (small, aggregated) Dataset result to one Table.

    Collects via the Arrow batch iterator FIRST, dropping the
    zero-column empty blocks ``groupby().map_groups`` leaves behind
    (they make ``Dataset.to_pandas`` nondeterministically promote
    int64 -> float64 when one leads the concat — see
    equijoin.collect_arrow), then round-trips through pandas so the
    type normalization matches what every oracle hash was recorded
    against."""
    batches = [b for b in ds.iter_batches(batch_size=None,
                                          batch_format="pyarrow")
               if b.num_columns > 0]
    if not batches:
        return pa.table({})
    t = pa.concat_tables(batches)
    return pa.Table.from_pandas(t.to_pandas(), preserve_index=False)
