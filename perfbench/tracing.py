"""Span tracing installed from the benchmark's own files.

Timing wrappers replace engine functions where their callers look them up
(``executor.decode_blocks``, ``session.parse_user_query``, methods on
``IndexReader`` / ``Evaluator``). Each call records a span (name, start,
end, parent); spans stay in memory until the traced scope ends, and a
layer's self time is its spans' durations minus the time of the child
spans nested in them.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def parent_name(self) -> str | None:
        st = self._stack()
        return self.spans[st[-1]][0] if st else None

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        st = self._stack()
        idx = len(self.spans)
        self.spans.append((name, 0.0, 0.0, st[-1] if st else -1))
        st.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            st.pop()
            self.spans[idx] = (name, t0, t1, self.spans[idx][3])

    def wrap(self, owner, attr: str, name: str, before=None, after=None):
        """Replace ``owner.attr`` with a traced wrapper. ``before(tr, args)``
        runs ahead of the call and ``after(tr, args, result)`` after it,
        both still inside the caller's span context."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            out = tracer.call(name, original, *args, **kwargs)
            if after is not None:
                after(tracer, args, out)
            return out

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time of nested child spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for (name, t0, t1, _), c in zip(self.spans, child):
            out[name] += (t1 - t0) - c
        return dict(out)

    def totals(self) -> dict[str, float]:
        """Inclusive seconds per span name (outermost spans of a name
        only, so recursion is not counted twice)."""
        out: dict[str, float] = defaultdict(float)
        for name, t0, t1, parent in self.spans:
            if parent < 0 or self.spans[parent][0] != name:
                out[name] += t1 - t0
        return dict(out)


# Spans whose self time makes up score / top-k work.
SCORE_SPANS = ("executor.block_topk_tree", "executor.evaluate",
               "executor.evaluate_subset")


def _count_load_terms(tr: Tracer, args) -> None:
    ev, terms = args[0], args[1]
    uniq = set(terms)
    tr.counts["postings_lookups"] += len(uniq)
    tr.counts["postings_misses"] += sum(
        1 for t in uniq if t not in ev._postings_cache)


def _count_rescored_subset(tr: Tracer, args) -> None:
    if tr.parent_name() != "executor.evaluate_subset":
        tr.counts["rescored_docs"] += len(args[2])


def _count_rescored_full(tr: Tracer, args, out) -> None:
    if tr.parent_name() != "executor.evaluate":
        tr.counts["rescored_docs"] += len(out.ids)


def _count_blockmax(tr: Tracer, args, out) -> None:
    tr.counts["blockmax_attempts"] += 1
    tr.counts["blockmax_used"] += out is not None


def _count_raw_stats(tr: Tracer, args, out) -> None:
    tr.counts["stats_raw_terms"] += len(set(args[1]))


def _count_raw_wildcard(tr: Tracer, args, out) -> None:
    tr.counts["wildcard_raw_calls"] += 1
    if tr.parent_name() != "session.wildcard_lookup":
        tr.counts["wildcard_terms"] += len(out)


def _count_blocks(tr: Tracer, args, out) -> None:
    tr.counts["blocks_read"] += len(out)


def _count_decoded(tr: Tracer, args, out) -> None:
    tr.counts["postings_decoded"] += len(out[0])


def install_query_layers(tr: Tracer) -> None:
    """Wrap the read path's layers: compiler, reader, codec decode as the
    executor calls it, scoring and the session's call sites. Class-level
    ``IndexReader`` wrappers see raw calls (session cache misses), so
    they must be in place before any session is built."""
    from markdown_query_ray.index.reader import IndexReader
    from markdown_query_ray.query import executor, session

    tr.wrap(IndexReader, "term_stats", "reader.term_stats",
            after=_count_raw_stats)
    tr.wrap(IndexReader, "expand_wildcard", "reader.expand_wildcard",
            after=_count_raw_wildcard)
    tr.wrap(IndexReader, "load_blocks", "reader.load_blocks",
            after=_count_blocks)
    tr.wrap(executor, "decode_blocks", "executor.decode",
            after=_count_decoded)
    tr.wrap(executor.Evaluator, "_load_terms", "executor.load_terms",
            before=_count_load_terms)
    tr.wrap(executor.Evaluator, "evaluate", "executor.evaluate",
            after=_count_rescored_full)
    tr.wrap(executor.Evaluator, "evaluate_subset",
            "executor.evaluate_subset", before=_count_rescored_subset)
    tr.wrap(executor, "block_topk_tree", "executor.block_topk_tree",
            after=_count_blockmax)
    tr.wrap(session, "block_topk_tree", "executor.block_topk_tree",
            after=_count_blockmax)
    tr.wrap(session, "parse_user_query", "compiler.parse")

    def wrap_session_caches(tr_, args, out) -> None:
        # instance-level wrappers over the session's cached lookups count
        # every lookup; the class-level ones above count only misses
        reader = args[0].reader
        tr.wrap(reader, "term_stats", "session.stats_lookup",
                before=lambda t, a: t.counts.__setitem__(
                    "stats_lookup_terms",
                    t.counts["stats_lookup_terms"] + len(set(a[0]))))
        tr.wrap(reader, "expand_wildcard", "session.wildcard_lookup",
                after=lambda t, a, o: _count_wildcard_lookup(t, o))

    tr.wrap(session.SearchSession, "__init__", "session.init",
            after=wrap_session_caches)


def _count_wildcard_lookup(tr: Tracer, out) -> None:
    tr.counts["wildcard_lookups"] += 1
    tr.counts["wildcard_terms"] += len(out)


# ---------------------------------------------------------------------------
# session actors: wrappers installed when each actor's worker starts
# ---------------------------------------------------------------------------

META_KEY = b"perfbench"
_WORKER_TRACER: Tracer | None = None


def install_worker() -> None:
    """Ray ``worker_process_setup_hook``: install the query-layer wrappers
    in a worker process before any actor is built there, and make
    ``SearchSession.search`` return its in-actor time, span self times and
    counts in the result's schema metadata."""
    global _WORKER_TRACER
    if _WORKER_TRACER is not None:
        return
    from markdown_query_ray.query.session import SearchSession

    tr = _WORKER_TRACER = Tracer()
    install_query_layers(tr)
    original = SearchSession.search

    def search(self, *args, **kwargs):
        tr.reset()
        t0 = time.perf_counter()
        out = tr.call("session.search", original, self, *args, **kwargs)
        search_s = time.perf_counter() - t0
        payload = payload_from(tr, len(out), search_s,
                               {"search_s": search_s})
        tr.reset()
        return out.replace_schema_metadata(
            {META_KEY: json.dumps(payload).encode()})

    SearchSession.search = search


def take_payload(table) -> tuple[object, dict | None]:
    """Split an actor result into (table without trace metadata, payload)."""
    md = table.schema.metadata or {}
    raw = md.get(META_KEY)
    if raw is None:
        return table, None
    return table.replace_schema_metadata(None), json.loads(raw)


def payload_from(tr: Tracer, hits: int, traced_s: float,
                 extra: dict | None = None) -> dict:
    """The same per-query record ``install_worker`` ships, for a query
    traced in this process over ``traced_s`` seconds."""
    p = {"traced_s": traced_s, "n_spans": len(tr.spans),
         "self": tr.self_times(), "counts": dict(tr.counts), "hits": hits}
    p.update(extra or {})
    return p


def span_cost_s(n: int = 20_000) -> float:
    """Calibrated cost of one span: a traced no-op call minus a bare one."""
    tr = Tracer()

    def noop():
        return None

    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        tr.call("noop", noop)
    return max(0.0, (time.perf_counter() - t0 - bare) / n)


def span_cost_pct(payloads: list[dict]) -> float:
    """Estimated tracing overhead: spans recorded times the calibrated
    span cost, as a share of the time the traced queries took."""
    traced = sum(p["traced_s"] for p in payloads)
    spans = sum(p["n_spans"] for p in payloads)
    return 100.0 * spans * span_cost_s() / traced if traced else 0.0
