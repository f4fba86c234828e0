"""Stateful query serving: the reference's interactive loop, Ray-style.

The reference opens a read-only database once and re-runs the full query
pipeline on EVERY keystroke (src/interactive.rs:294-432 + src/main.rs:115),
making repeat-query latency the implicit serving requirement. Xapian gets
cross-query caching for free from glass B-tree page caching; the columnar
rebuild gets it from this session object:

- ``global_stats`` / doc-bucket layout: loaded once (``IndexReader``).
- per-term stats (the idf inputs) and wildcard expansions: memoized
  across queries on the session's reader — the one term-stats cache and
  the one expansion cache, shared by every evaluator. ``topk`` resolves
  every uncached literal term and wildcard prefix of the tree with ONE
  filtered read of the term dictionary (``IndexReader.term_stats`` with
  ``prefixes=``); each expansion is then selected from that read
  (``select_wildcard``). A fully cached tree reads nothing.
- decoded posting lists: memoized per term in each evaluator — a
  keystroke that extends ``merg`` to ``merge`` re-uses every
  already-decoded list.

``SearchSession`` is also the one query driver: ``executor.search``,
``executor.search_bucket`` (each distributed bucket task) and
``executor.count_matches`` are calls into it, so the per-bucket top-k
step, the result-table build and the match count each exist once here.

Deployment shape: one ``SearchSession`` per scorer worker. For QPS serving
on a cluster, wrap it in an actor pool —

    Server = ray.remote(num_cpus=1)(SearchSession)
    pool = [Server.remote(index_dir) for _ in range(n)]
    ray.get(pool[i % n].search.remote("merge AND sort"))

(the class is deliberately plain-Python so the same object also serves
in-process; nothing here calls ``ray.init``).
"""

from __future__ import annotations

import pyarrow as pa

from ..config import QueryConfig
from ..index.reader import IndexReader, select_wildcard
from .ast import query_leaves
from .compiler import parse_user_query
# block_topk_tree is imported but never called: kept for
# perfbench/tracing.py; removed by the benchmark-only PR.
from .executor import (  # noqa: F401
    Evaluator,
    block_topk_tree,
    topk_from_scored,
)


class SearchSession:
    def __init__(self, index_dir: str, qcfg: QueryConfig | None = None):
        self.index_dir = index_dir
        self.qcfg = qcfg or QueryConfig()
        self.reader = IndexReader(index_dir)
        # one evaluator per doc-bucket, each with its own postings cache
        self._evs: dict[int | None, Evaluator] = {}
        self._stats_cache: dict[str, dict] = {}
        self._wc_cache: dict[tuple[str, int, bool], list[str]] = {}
        self._install_caches()

    def _install_caches(self) -> None:
        reader = self.reader
        self._raw_stats = reader.term_stats
        stats_cache = self._stats_cache
        wc_cache = self._wc_cache

        def cached_stats(terms: list[str]) -> dict[str, dict]:
            self._resolve(terms, ())
            return {t: stats_cache[t] for t in terms
                    if stats_cache.get(t) is not None}

        def cached_wc(prefix: str, limit: int = 0,
                      most_frequent: bool = False) -> list[str]:
            key = (prefix, limit, most_frequent)
            self._resolve((), (key,))
            return wc_cache[key]

        reader.term_stats = cached_stats
        reader.expand_wildcard = cached_wc

    def _resolve(self, terms, wildcards) -> None:
        """Fill the stats and wildcard caches for every uncached term and
        ``(prefix, limit, most_frequent)`` expansion with ONE raw
        ``term_stats`` read; a fully cached request reads nothing."""
        stats_cache = self._stats_cache
        terms = [t for t in set(terms) if t not in stats_cache]
        wildcards = [w for w in set(wildcards) if w not in self._wc_cache]
        if not terms and not wildcards:
            return
        found = self._raw_stats(terms,
                                prefixes=[p for p, _, _ in wildcards])
        for t in terms:
            stats_cache[t] = found.get(t)
        for w in wildcards:
            expansion = self._wc_cache[w] = select_wildcard(found, *w)
            for t in expansion:
                stats_cache[t] = found[t]

    def _evaluator(self, bucket: int | None) -> Evaluator:
        ev = self._evs.get(bucket)
        if ev is None:
            ev = Evaluator(self.reader, self.qcfg.params, bucket)
            self._evs[bucket] = ev
        return ev

    def search(self, query: str, k: int | None = None,
               with_urls: bool = False,
               grammar: str = "clean") -> pa.Table:
        """Compile + execute a user query string; returns
        (rank, doc_id, score[, url]) in MSet order. In-process (serving
        latency path): the whole index scores as one bucket, reusing the
        session's postings and stats caches.

        grammar: "clean" (default; boundary-guarded splitter, per-token
        chunks — field tags work everywhere), "mdq-exact" (the
        reference's literal mechanics, bug-for-bug; see
        query/freetext.parse_user_query_mdq_exact), "freetext" (one whole
        chunk through the raw QueryParser grammar) or "freetext-cjk"
        (same + FLAG_CJK_NGRAM: CJK runs compile to AND-of-ngrams — pair
        with an index built under IndexConfig.cjk_ngram)."""
        if grammar == "mdq-exact":
            from .freetext import parse_user_query_mdq_exact

            # mdq builds its QueryParser with only a stemmer — no
            # set_database (xapian_utils.rs:579-586) — so the db-dependent
            # c++/c# suffix rule always keeps the suffix there; passing
            # term_exists would diverge from the reference's behavior
            node = parse_user_query_mdq_exact(query)
        elif grammar in ("freetext", "freetext-cjk"):
            from .freetext import compile_freetext

            node = compile_freetext(query,
                                    cjk_ngram=(grammar == "freetext-cjk"),
                                    term_exists=self.reader.term_exists)
        else:
            node = parse_user_query(query)
        return self.search_node(node, k=k, with_urls=with_urls)

    def search_node(self, node, k: int | None = None,
                    with_urls: bool = False) -> pa.Table:
        """Rank a compiled query tree over the whole index, in-process."""
        return self.hits_table(self.topk(node, k), with_urls)

    def topk(self, node, k: int | None = None,
             bucket: int | None = None) -> list[tuple[float, int]]:
        """[(score, doc_id)] top-k of one doc-bucket (None = the whole
        index) in MSet order, from the exhaustive evaluation."""
        if k is None:
            k = self.qcfg.k
        elif k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        terms, wildcards = query_leaves(node)
        self._resolve(terms, [(w.prefix, w.limit, w.most_frequent)
                              for w in wildcards])
        ev = self._evaluator(bucket)
        ev.prefetch(node)  # one batched partition read for the whole tree
        return topk_from_scored(ev.evaluate(node), k)

    def hits_table(self, hits: list[tuple[float, int]],
                   with_urls: bool = False) -> pa.Table:
        """(rank, doc_id, score[, url]) table of MSet-ordered hits."""
        doc_ids = [d for _, d in hits]
        cols = {
            "rank": pa.array(range(1, len(hits) + 1), pa.int64()),
            "doc_id": pa.array(doc_ids, pa.uint64()),
            "score": pa.array([s for s, _ in hits], pa.float64()),
        }
        if with_urls:
            urls = self.reader.urls_for(doc_ids)
            cols["url"] = pa.array([urls.get(d, "") for d in doc_ids],
                                   pa.string())
        return pa.table(cols)

    def count(self, query: str) -> int:
        """Exact match count (get_matches_estimated analog)."""
        return self.count_node(parse_user_query(query))

    def count_node(self, node) -> int:
        return len(self._evaluator(None).evaluate(node).ids)

    def get_documents(self, doc_ids: list[int]) -> dict[int, str]:
        """Stored payloads of the given docs — the reference's hit-payload
        retrieval (JSON -> Document per hit, xapian_utils.rs:670-684).
        Empty when the index was built without ``store_payload``."""
        return self.reader.payloads_for(doc_ids)

    def preview(self, doc_id: int, query: str = "",
                width: int = 160) -> str | None:
        """A short text preview of one document, centered on the first
        query-term occurrence when the query matches (the TUI preview pane
        analog, src/interactive.rs:139-145)."""
        payload = self.reader.payloads_for([doc_id]).get(doc_id)
        if payload is None:
            return None
        text = payload
        if payload.startswith("{"):
            import json

            try:
                text = json.loads(payload).get("body", payload)
            except ValueError:
                pass
        lowered = text.lower()
        pos = -1
        import re

        from .compiler import _WORD_RE

        # skip boolean operator keywords ('and'/'or'/... would center the
        # preview on an irrelevant stopword) and match whole words only
        # (find() would hit 'or' inside 'word')
        ops = {"and", "or", "not", "xor", "near", "adj", "maybe",
               "filter", "phrase", "elite", "synonym"}
        for w in _WORD_RE.findall(query.lower()):
            if w in ops:
                continue
            m = re.search(r"\b" + re.escape(w), lowered)
            if m:
                pos = m.start()
                break
        if pos < 0:
            return text[:width]
        start = max(0, pos - width // 2)
        return text[start:start + width]

    def suggest_correction(self, query: str) -> str | None:
        """Spelling-corrected query string, or None if nothing to correct —
        the reference's FLAG_SPELLING_CORRECTION surface
        (xapian_utils.rs:583-591). The trigram dictionary builds lazily from
        term_stats on first call and is cached for the session."""
        from .spelling import correct_query, load_spelling

        sp = getattr(self, "_spelling", None)
        if sp is None:
            sp = self._spelling = load_spelling(self.index_dir)
        return correct_query(query, sp)

    def cache_info(self) -> dict:
        return {
            "terms_cached": sum(len(ev._postings_cache)
                                for ev in self._evs.values()),
            "stats_cached": len(self._stats_cache),
            "wildcards_cached": len(self._wc_cache),
        }


# The reference's own test queries (the "reference query set"):
# expression_tests + the boolean-splitter query_tests inputs
# (src/interactive/xapian_utils.rs:499-547, 551-576), plus the operator
# keywords its splitter recognizes, exercised over one template.
REFERENCE_QUERY_SET = [
    'title:foo  baz bar author:bob hee tag:rust "hee hee hee"',
    'title:"foo bar" author:bob tag:rust',
    'title:foo "baz bar" author:"bob alice" hee tag:rust "hee hee"',
    "eep op tag:meh fooobarr AND maybe maybe foo AND bar",
    '"eep op" tag:meh fooobarr AND maybe maybe foo AND bar',
    "foo AND bar", "foo OR bar", "foo AND NOT bar", "foo XOR bar",
    "foo AND MAYBE bar", "foo FILTER bar", "foo PHRASE bar",
    "foo NEAR bar", "foo SYNONYM bar", "foo ELITE bar",
]


_QUERY_SET_SCHEMA = pa.schema([("query", pa.string()), ("rank", pa.int64()),
                               ("doc_id", pa.uint64()),
                               ("score", pa.float64())])


class _QuerySetScorer:
    """map_batches body: one SearchSession per actor (stats/postings caches
    amortize across every query the actor serves)."""

    def __init__(self, index_dir: str, qcfg: QueryConfig | None, k: int):
        self.sess = SearchSession(index_dir, qcfg)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        qs, ranks, ids, scores = [], [], [], []
        for q in batch.column("query").to_pylist():
            t = self.sess.search(q, k=self.k)
            n = len(t)
            qs.extend([q] * n)
            ranks.extend(t.column("rank").to_pylist())
            ids.extend(t.column("doc_id").to_pylist())
            scores.extend(t.column("score").to_pylist())
        return pa.table([qs, ranks, ids, scores], schema=_QUERY_SET_SCHEMA)


def run_query_set(index_dir: str, queries: list[str] | None = None,
                  qcfg: QueryConfig | None = None, k: int = 100,
                  concurrency: int = 4) -> pa.Table:
    """Answer a whole query set as one Ray Data pipeline: the queries become
    a Dataset, an actor pool of SearchSessions scores them (caches shared
    across the queries each actor serves), and the result is one
    (query, rank, doc_id, score) table — typed and empty when no query
    matches or the set is empty. Ray must already be initialised."""
    import ray.data

    import ray

    queries = queries if queries is not None else REFERENCE_QUERY_SET
    if not queries:
        return _QUERY_SET_SCHEMA.empty_table()
    ds = ray.data.from_items([{"query": q} for q in queries])
    n = min(concurrency, len(queries))
    res = ds.repartition(n).map_batches(
        _QuerySetScorer, fn_constructor_args=(index_dir, qcfg, k),
        batch_format="pyarrow", concurrency=n)
    # stay Arrow: a pandas round-trip drops the schema when every block is
    # empty (all queries legitimately matching nothing)
    nonempty = [t for t in ray.get(res.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(nonempty) if nonempty \
        else _QUERY_SET_SCHEMA.empty_table()


def make_search_actors(index_dir: str, n: int, qcfg: QueryConfig | None = None,
                       num_cpus: float = 1.0):
    """Actor-pool deployment: n SearchSession actors (Ray must already be
    initialised by the caller). Returns the actor handles; route queries
    round-robin and ``ray.get(h.search.remote(q))``."""
    import ray

    Server = ray.remote(num_cpus=num_cpus)(SearchSession)
    return [Server.remote(index_dir, qcfg) for _ in range(n)]
