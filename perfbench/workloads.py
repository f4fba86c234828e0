"""The three workloads: ``build``, ``serve`` and ``refresh``.

Each runs its set-up several times (the median is ``setup_s``), then
loops its operation until ``--seconds`` have passed, then checks the
engine's outputs. Every workload reports every end-to-end metric:

- ``build`` follows each cold ``build_index`` with 16 one-shot searches
  over the fresh index, new queries after every build in a fixed mix of
  shapes; they check that it serves and give the query metrics of a
  just-built index. They score in-process (``distributed=False``): Ray's
  per-search task start-up would swamp the engine's work on a corpus of
  this size, and ``refresh`` times the distributed path.
- ``serve`` reports the positional build its set-up ran as ``docs_per_s``.

Per-layer metrics of a layer a workload does not reach read 0.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.parquet as pq

from markdown_query_ray.config import IndexConfig, QueryConfig
from markdown_query_ray.index.build import build_index
from markdown_query_ray.index.update import update_index
from markdown_query_ray.query import executor
from markdown_query_ray.query.compiler import parse_user_query
from markdown_query_ray.query.session import SearchSession, make_search_actors

from . import gate, inputs, layers
from .host import MemorySampler
from .stats import latency_summary, median
from .tracing import (
    Tracer,
    install_query_layers,
    payload_from,
    span_cost_pct,
    take_payload,
)

SETUP_REPEATS = 3
BUILD_SETUP_REPEATS = 5  # a build set-up is short and mostly Ray start-up
K = 100

# corpus sizes and index configs (P term parts, S doc buckets)
BUILD_DOCS = 3_000
BUILD_CFG = IndexConfig(num_term_parts=8, num_doc_buckets=2, block_size=128)
BUILD_QUERIES = 16
BUILD_CHECKED = (0, 2)  # one NL and one AND search per build
SETUP_DOCS = 256

SERVE_DOCS = 1_000
SERVE_CFG = IndexConfig(num_term_parts=8, num_doc_buckets=1, block_size=128,
                        positions=True)
# two clients, not four: with four session actors, the client threads and
# Ray's own processes on a 4-CPU host, latencies measured the scheduler
SERVE_CLIENTS = 2
SERVE_SAMPLE_EVERY = 8
SERVE_SAMPLE_MAX = 48
READY_TIMEOUT = 120

REFRESH_BASE_DOCS = 1_500
REFRESH_BATCH = 300
REFRESH_CFG = IndexConfig(num_term_parts=8, num_doc_buckets=2,
                          block_size=128)
REFRESH_QUERIES = 4

PAGE_SAMPLE = 512   # pages timed through extract / tokenize in-process


@dataclass
class Ctx:
    root: str
    work: str
    cache: str
    seed: int
    seconds: float
    trace: bool
    cpus: int
    probe: object = None  # () -> host context dict, run outside windows


@dataclass
class Outcome:
    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    context: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def config_record(cfg: IndexConfig) -> dict:
    return {"P": cfg.num_term_parts, "S": cfg.num_doc_buckets,
            "block_size": cfg.block_size, "positions": cfg.positions}


def _fresh(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    return path


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _warm() -> None:
    """Start Ray Data workers and import the engine in them, as
    ``bench.py`` does before its timed build."""
    import ray
    import ray.data

    def touch(b):
        import markdown_query_ray.index.build  # noqa: F401
        return b

    n = max(1, int(ray.cluster_resources().get("CPU", 1)))
    ray.data.range(n * 4).map_batches(touch, batch_size=1).materialize()


def _build_setup(ctx: Ctx, pages: pa.Table, i: int) -> None:
    """What a cold build needs up front: Ray Data workers that have
    imported the engine, one small build through every stage and the
    searches that follow it, in this process."""
    _warm()
    d = os.path.join(ctx.work, f"setup-{i}")
    paths = inputs.write_pages(os.path.join(d, "pages"),
                               pages.slice(0, SETUP_DOCS))
    idx = os.path.join(d, "idx")
    build_index(idx, paths=paths, cfg=BUILD_CFG)
    for q in inputs.build_queries(ctx.seed, -1 - i, len(inputs.COLD_SHAPES)):
        executor.search(idx, parse_user_query(q), QueryConfig(k=K),
                        distributed=False)
    shutil.rmtree(d)


def _cold_search(out: Outcome, tr: Tracer | None, index_dir: str, q: str,
                 qcfg: QueryConfig, latencies: list, payloads: list,
                 distributed: bool | None = None):
    """One cold one-shot ``executor.search``. Traced, a distributed
    search's per-bucket scoring is replayed in this process under the
    wrappers, since the timed call scores buckets in Ray tasks."""
    out.attempted += 1
    t0 = time.perf_counter()
    node = tr.call("compiler.parse", parse_user_query, q) if tr \
        else parse_user_query(q)
    table = executor.search(index_dir, node, qcfg, distributed=distributed)
    wall = time.perf_counter() - t0
    latencies.append(1000.0 * wall)
    if tr is not None:
        if distributed is False:
            payloads.append(payload_from(tr, len(table), wall))
        else:
            from markdown_query_ray.index.reader import IndexReader

            S = IndexReader(index_dir).S
            bucket_s = 0.0
            for b in (range(S) if S > 1 else [None]):
                _, dt = _timed(executor.search_bucket, index_dir, node,
                               qcfg, b)
                bucket_s += dt
            payloads.append(payload_from(tr, len(table), bucket_s, {
                "search_wall_s": wall, "bucket_s": bucket_s}))
        tr.reset()
    return table


def _layer_common(pages: pa.Table, cfg: IndexConfig, index_dir: str
                  ) -> dict:
    m = layers.stage_metrics(pages.slice(0, PAGE_SAMPLE), cfg)
    m.update(layers.shuffle_metrics(index_dir, cfg))
    m.update(layers.codec_metrics(index_dir, cfg.codec))
    return m


def _throughput(ops: list[tuple[int, float]]) -> float:
    """Docs per second over all operations: (docs, seconds) pairs."""
    return sum(n for n, _ in ops) / sum(t for _, t in ops)


def _zero_update() -> dict:
    return {"update.delta_build_s": 0.0, "update.commit_s": 0.0,
            "update.replaced_docs": 0.0}


def _tracer(ctx: Ctx) -> Tracer | None:
    if not ctx.trace:
        return None
    tr = Tracer()
    install_query_layers(tr)
    return tr


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def run_build(ctx: Ctx) -> Outcome:
    out = Outcome()
    start = inputs.corpus_offset(ctx.seed)
    paths, pages = inputs.cached_corpus(ctx.cache, "pages", start,
                                        BUILD_DOCS)
    in_bytes = inputs.text_bytes(pages)
    setups = [_timed(_build_setup, ctx, pages, i)[1]
              for i in range(BUILD_SETUP_REPEATS)]
    qcfg = QueryConfig(k=K)
    exhaustive = QueryConfig(k=K, use_wand=False)
    tr = _tracer(ctx)
    out.context["host"] = ctx.probe()

    rates, latencies, payloads, stored, built = [], [], [], [], []
    first = None
    checked = 0
    with MemorySampler() as mem:
        deadline = time.perf_counter() + ctx.seconds
        i = 0
        while not rates or time.perf_counter() < deadline:
            d = _fresh(os.path.join(ctx.work, f"idx-{i}"))
            out.attempted += 1
            g, wall = _timed(build_index, d, paths=paths, cfg=BUILD_CFG)
            rates.append((g["n_docs"], wall))
            out.check(g["n_docs"] == BUILD_DOCS,
                      f"build {i}: n_docs {g['n_docs']} != {BUILD_DOCS}")
            for j, q in enumerate(inputs.build_queries(ctx.seed, i,
                                                       BUILD_QUERIES)):
                hits = gate.hits_of(_cold_search(out, tr, d, q, qcfg,
                                                 latencies, payloads,
                                                 distributed=False))
                if j in BUILD_CHECKED:
                    want = gate.hits_of(executor.search(
                        d, parse_user_query(q), exhaustive,
                        distributed=False))
                    out.check(gate.same_hits(hits, want),
                              f"build {i}: {q!r} differs from the "
                              f"exhaustive path")
                    checked += 1
                    if tr is not None:  # the check's spans are not a query's
                        tr.reset()
            digest = gate.index_content_hash(d)
            stored.append(layers.dir_bytes(d) / in_bytes)
            if first is None:
                first = digest
            else:
                out.check(digest == first,
                          f"build {i}: content hash differs from build 0")
            built.append(d)
            if len(built) > 1:
                shutil.rmtree(built[-2], ignore_errors=True)
            i += 1

    out.check(_same_across_repeats(ctx, "build", first),
              "content hash differs from an earlier run of this seed")
    lat = latency_summary(latencies)
    out.e2e = {
        "setup_s": median(setups),
        "docs_per_s": _throughput(rates),
        "query_p50_ms": lat["p50_ms"],
        "query_p99_ms": lat["tail_ms"],
        "qps": len(latencies) / (sum(latencies) / 1000.0),
        "stored_bytes_per_input_byte": median(stored),
        "peak_rss_mb": mem.peak_mb,
    }
    out.context.update({"builds": len(rates), "docs": BUILD_DOCS,
                        "index": config_record(BUILD_CFG), "latency": lat,
                        "checked_against_exhaustive": checked})
    if tr is not None:
        tr.restore()
        out.layers = layers.build_metrics([built[-1]])
        out.layers.update(_layer_common(pages, BUILD_CFG, built[-1]))
        out.layers.update(layers.query_metrics(payloads, sessions=False))
        out.layers.update(_zero_update())
        out.context["span_cost_pct"] = span_cost_pct(payloads)
    return out


def _same_across_repeats(ctx: Ctx, name: str, digest: str) -> bool:
    """Compare with the digest an earlier run of the same seed, engine
    and benchmark code recorded; record it when there is none."""
    path = os.path.join(os.path.dirname(ctx.cache), "digests",
                        f"{name}-{ctx.seed}-{code_version(ctx.root)}.json")
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)["digest"] == digest
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"digest": digest}, f)
    return True


def code_version(root: str) -> str:
    """Hashes of the engine's and this benchmark's source: results of one
    version are never compared with another's."""
    return f"{_source_hash(root, 'markdown_query_ray')}-" \
        f"{_source_hash(root, 'perfbench')}"


def _source_hash(root: str, package: str) -> str:
    import hashlib

    h = hashlib.sha1()
    pkg = os.path.join(root, package)
    for dirpath, dirnames, files in os.walk(pkg):
        dirnames.sort()
        for f in sorted(files):
            if f.endswith((".py", ".c")):
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, pkg).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:12]


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------

def _serve_setup(ctx: Ctx, paths: list[str], i: int, qcfg: QueryConfig):
    """Build the positional index, start one session actor per client and
    wait until every actor is ready. Returns (index dir, actors,
    (docs built, build seconds))."""
    import ray

    d = _fresh(os.path.join(ctx.work, f"serve-idx-{i}"))
    g, wall = _timed(build_index, d, paths=paths, cfg=SERVE_CFG)
    actors = make_search_actors(d, SERVE_CLIENTS, qcfg,
                                num_cpus=ctx.cpus / SERVE_CLIENTS)
    ray.get([a.cache_info.remote() for a in actors], timeout=READY_TIMEOUT)
    return d, actors, (g["n_docs"], wall)


def _client(actor, stream, deadline: float, sink: dict, trace: bool,
            lock: threading.Lock) -> None:
    import ray

    while time.perf_counter() < deadline:
        q = next(stream)
        t0 = time.perf_counter()
        try:
            table = ray.get(actor.search.remote(q, k=K))
        except Exception as e:  # a failed request counts, the loop goes on
            with lock:
                sink["errors"].append(f"{q!r}: {type(e).__name__}: {e}")
            continue
        client_s = time.perf_counter() - t0
        payload = None
        if trace:
            table, payload = take_payload(table)
            if payload is not None:
                payload["client_s"] = client_s
        with lock:
            sink["latencies"].append(1000.0 * client_s)
            n = len(sink["latencies"])
            if payload is not None:
                sink["payloads"].append(payload)
            if n % SERVE_SAMPLE_EVERY == 0 and \
                    len(sink["sample"]) < SERVE_SAMPLE_MAX:
                sink["sample"].append((q, gate.hits_of(table)))


def run_serve(ctx: Ctx) -> Outcome:
    import ray

    out = Outcome()
    start = inputs.corpus_offset(ctx.seed)
    paths, pages = inputs.cached_corpus(ctx.cache, "pages", start,
                                        SERVE_DOCS)
    in_bytes = inputs.text_bytes(pages)
    qcfg = QueryConfig(k=K)
    setups, rates = [], []
    idx, actors = None, []
    for i in range(SETUP_REPEATS):
        if actors:
            for a in actors:
                ray.kill(a)
            shutil.rmtree(idx, ignore_errors=True)
        (idx, actors, built), dt = _timed(_serve_setup, ctx, paths, i, qcfg)
        setups.append(dt)
        rates.append(built)
    out.context["host"] = ctx.probe()

    rows = (start, SERVE_DOCS)
    sink = {"latencies": [], "payloads": [], "sample": [], "errors": []}
    lock = threading.Lock()
    with MemorySampler() as mem:
        t0 = time.perf_counter()
        deadline = t0 + ctx.seconds
        threads = [threading.Thread(
            target=_client,
            args=(a, inputs.keystroke_stream(ctx.seed, u, rows), deadline,
                  sink, ctx.trace, lock))
            for u, a in enumerate(actors)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        window = time.perf_counter() - t0
    for a in actors:
        ray.kill(a)

    out.attempted = len(sink["latencies"]) + len(sink["errors"])
    for e in sink["errors"]:
        out.check(False, e)
    exhaustive = SearchSession(idx, QueryConfig(k=K, use_wand=False))
    for q, hits in sink["sample"]:
        want = gate.hits_of(exhaustive.search(q, k=K))
        out.check(gate.same_hits(hits, want),
                  f"serve: {q!r} differs from the exhaustive path")

    lat = latency_summary(sink["latencies"])
    out.e2e = {
        "setup_s": median(setups),
        "docs_per_s": _throughput(rates),
        "query_p50_ms": lat["p50_ms"],
        "query_p99_ms": lat["tail_ms"],
        "qps": len(sink["latencies"]) / window,
        "stored_bytes_per_input_byte": layers.dir_bytes(idx) / in_bytes,
        "peak_rss_mb": mem.peak_mb,
    }
    out.context.update({
        "loop": "closed", "clients": SERVE_CLIENTS, "docs": SERVE_DOCS,
        "index": config_record(SERVE_CFG), "latency": lat,
        "checked_against_exhaustive": len(sink["sample"])})
    if ctx.trace:
        out.layers = layers.build_metrics([idx])
        out.layers.update(_layer_common(pages, SERVE_CFG, idx))
        out.layers.update(layers.query_metrics(sink["payloads"],
                                               sessions=True))
        out.layers.update(_zero_update())
        out.context["traced_queries"] = len(sink["payloads"])
        out.context["span_cost_pct"] = span_cost_pct(sink["payloads"])
    return out


# ---------------------------------------------------------------------------
# refresh
# ---------------------------------------------------------------------------

def run_refresh(ctx: Ctx) -> Outcome:
    from markdown_query_ray.index import update as update_mod

    out = Outcome()
    start = inputs.corpus_offset(ctx.seed)
    paths, pages = inputs.cached_corpus(ctx.cache, "pages", start,
                                        REFRESH_BASE_DOCS)
    plan = inputs.RefreshPlan(ctx.seed, start, REFRESH_BASE_DOCS,
                              REFRESH_BATCH)
    in_bytes = inputs.text_bytes(pages)
    idx = None
    setups = []
    for i in range(SETUP_REPEATS):
        if idx:
            shutil.rmtree(idx, ignore_errors=True)
        idx = _fresh(os.path.join(ctx.work, f"refresh-idx-{i}"))
        setups.append(_timed(build_index, idx, paths=paths,
                             cfg=REFRESH_CFG)[1])
    qcfg = QueryConfig(k=K)
    tr = _tracer(ctx)
    if tr is not None:
        tr.wrap(update_mod, "build_index", "update.delta_build")
    out.context["host"] = ctx.probe()

    rates, latencies, payloads = [], [], []
    delta_s, commit_s, replaced = [], [], []
    batch_pages = []
    with MemorySampler() as mem:
        deadline = time.perf_counter() + ctx.seconds
        g = 0
        while g < plan.max_gens and (g < 2 or
                                     time.perf_counter() < deadline):
            batch = plan.batch(g)
            batch_pages.append(batch)
            bdir = _fresh(os.path.join(ctx.work, f"batch-{g}"))
            bpaths = inputs.write_pages(bdir, batch, n_files=1)
            in_bytes += inputs.text_bytes(batch)
            out.attempted += 1
            _, wall = _timed(update_index, idx, paths=bpaths)
            rates.append((len(batch), wall))
            gen = g + 1
            n_replaced = pq.read_metadata(os.path.join(
                idx, "tombstones", f"gen-{gen:04d}.parquet")).num_rows
            replaced.append(n_replaced)
            out.check(n_replaced == REFRESH_BATCH // 2,
                      f"refresh gen {gen}: {n_replaced} docs replaced, "
                      f"expected {REFRESH_BATCH // 2}")
            if tr is not None:
                d = tr.totals().get("update.delta_build", 0.0)
                delta_s.append(d)
                commit_s.append(wall - d)
                tr.reset()
            for q in inputs.refresh_queries(ctx.seed, g, REFRESH_QUERIES):
                _cold_search(out, tr, idx, q, qcfg, latencies, payloads)
            g += 1
    stored = layers.dir_bytes(idx) / in_bytes
    if tr is not None:
        tr.restore()

    # the gate: the same queries over a from-scratch build of the
    # equivalent live corpus
    live = plan.live_table()
    ref = _fresh(os.path.join(ctx.work, "refresh-ref"))
    ref_paths = inputs.write_pages(os.path.join(ctx.work, "live"), live)
    build_index(ref, paths=ref_paths, cfg=REFRESH_CFG)
    gate_queries = inputs.refresh_queries(ctx.seed, g - 1, REFRESH_QUERIES)
    for q in gate_queries:
        node = parse_user_query(q)
        got = gate.hits_of(executor.search(idx, node, qcfg, with_urls=True),
                           "url")
        want = gate.hits_of(executor.search(ref, node, qcfg,
                                            with_urls=True), "url")
        out.check(gate.same_url_hits(got, want),
                  f"refresh: {q!r} differs from a from-scratch build")

    lat = latency_summary(latencies)
    out.e2e = {
        "setup_s": median(setups),
        "docs_per_s": _throughput(rates),
        "query_p50_ms": lat["p50_ms"],
        "query_p99_ms": lat["tail_ms"],
        "qps": len(latencies) / (sum(latencies) / 1000.0),
        "stored_bytes_per_input_byte": stored,
        "peak_rss_mb": mem.peak_mb,
    }
    out.context.update({
        "generations": g, "base_docs": REFRESH_BASE_DOCS,
        "batch_docs": REFRESH_BATCH, "index": config_record(REFRESH_CFG),
        "latency": lat, "live_docs": len(live)})
    if tr is not None:
        deltas = [os.path.join(idx, "updates", f"gen-{k + 1:04d}")
                  for k in range(g)]
        out.layers = layers.build_metrics(deltas)
        out.layers.update(_layer_common(
            pa.concat_tables(batch_pages), REFRESH_CFG, deltas[-1]))
        out.layers.update(layers.query_metrics(payloads, sessions=False))
        out.layers.update({
            "update.delta_build_s": median(delta_s),
            "update.commit_s": median(commit_s),
            "update.replaced_docs": median(replaced)})
        out.context["span_cost_pct"] = span_cost_pct(payloads)
    return out


WORKLOADS = {"build": run_build, "serve": run_serve, "refresh": run_refresh}
