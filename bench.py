#!/usr/bin/env python
"""Headline benchmark for the Ray-Data-native index+query engine.

Default mode: runs the headline pipelines over ``$GRAFT_SF_DIR`` (default
/root/testdata/sf0.1) under ``ray.init(address="local",
num_cpus=$RAY_GRAFT_CPUS)`` (default 32) and prints ONE JSON line::

    {"metric": ..., "value": total_sec, "unit": "sec",
     "queries": {name: sec, ...}, "sf": ..., "num_cpus": N, ...}

``--scaling``: runs the SAME index build twice in fresh subprocesses
(N then 4N CPUs) over an identical deterministic corpus and reports
docs/s at both plus scaling efficiency = (tput_hi/tput_lo)/4 — the
single-node evidence for the north rule's N -> 4N cluster criterion
(BASELINE.json: scaling efficiency >= 0.8). Round-5 decomposition: the
report also carries PER-STAGE efficiencies (extract_tokenize = the
pure-CPU stage; merge_shuffle_encode = the memory-bandwidth-bound
stage) and a same-window host-capacity probe (pure-register CPU and
64 MB memory-streaming ceilings at both parallelism levels), so
engine-vs-host attribution is part of the measurement rather than
prose. Numbers are recorded in BASELINE.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, REPO)

SF_DIR_DEFAULT = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
CPUS_DEFAULT = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
# Sized so per-job fixed costs (Ray stage scheduling, actor-pool spin-up,
# sort coordination, staging checkpoint barriers — ~15-30 s,
# cluster-size-independent) stay a small fraction of the low-CPU run. The
# C fast paths (tokenizer, varint codec, id reconstruction) cut per-doc CPU
# ~5x across round 1, so the corpus had to grow twice (64k -> 192k -> 512k)
# to keep the low leg >= ~5 min of real compute. A real 100 TB job runs
# hours; these fixed costs vanish there.
SCALING_DOCS = int(os.environ.get("GRAFT_SCALE_DOCS", "512000"))
SCALING_TOKEN_SCALE = int(os.environ.get("GRAFT_SCALE_TOKENS", "8"))
SCRATCH = "/tmp/mdq_ray_bench"


def _fresh(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path, exist_ok=True)
    return path


def _build_pages_index(pages_paths: list[str], out_dir: str,
                       num_doc_buckets: int = 2) -> dict:
    from markdown_query_ray.config import IndexConfig
    from markdown_query_ray.index.build import build_index

    cfg = IndexConfig(tokenizer="xapian", stem=True, num_term_parts=16,
                      num_doc_buckets=num_doc_buckets, block_size=128)
    return build_index(out_dir, paths=pages_paths, cfg=cfg)


def run_bench(sf_dir: str, num_cpus: int) -> dict:
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus,
                 include_dashboard=False)

    import pyarrow.parquet as pq

    from markdown_query_ray.config import BM25Params, QueryConfig
    from markdown_query_ray.fixtures import pages_from_documents
    from markdown_query_ray.pipelines import driver_api as d
    from markdown_query_ray.query import executor as qx
    from markdown_query_ray.query.compiler import parse_user_query

    timings: dict[str, float] = {}

    def timed(name):
        class _T:
            def __enter__(self):
                self.t0 = time.perf_counter()
                return self

            def __exit__(self, *exc):
                timings[name] = round(time.perf_counter() - self.t0, 4)
                return False
        return _T()

    # ---- headline: full xapian-mode index build (fresh, uncached) ----------
    scratch = _fresh(os.path.join(SCRATCH, "main"))
    pages_path = os.path.join(scratch, "pages.parquet")
    pages = pages_from_documents(sf_dir)
    pq.write_table(pages, pages_path, row_group_size=512)
    n_docs = len(pages)
    del pages
    # warm the cluster (worker startup, import, first-task costs) so the
    # headline timing measures the engine, not Ray session bring-up — the
    # same methodology --scaling mode already uses (_warm below)
    import ray.data as _rd
    _rd.range(1000).map_batches(lambda b: b).count()

    idx_dir = os.path.join(scratch, "index")
    with timed("index_build"):
        _build_pages_index([pages_path], idx_dir)

    # ---- queries over the built index --------------------------------------
    qc_wand = QueryConfig(k=100, params=BM25Params.xapian())
    with timed("search_nl_wand"):
        qx.search(idx_dir, parse_user_query("the fast merge sort"), qc_wand)
    with timed("search_boolean"):
        qx.search(idx_dir, parse_user_query("merge AND sort"), qc_wand)
    with timed("search_wildcard"):
        qx.search(idx_dir, parse_user_query("mer"), qc_wand)
    from markdown_query_ray.query.session import (
        REFERENCE_QUERY_SET,
        run_query_set,
    )

    with timed("query_set_actor_pool"):  # 15 queries, 4 cached sessions
        run_query_set(idx_dir, REFERENCE_QUERY_SET, qc_wand, k=100,
                      concurrency=4)

    # ---- training-data pipelines over the sf tables ------------------------
    with timed("dedup_exact"):
        d.dedup_exact_ids(sf_dir)
    with timed("dedup_minhash"):
        d.minhash_pairs(sf_dir)
    with timed("dedup_ngram_exact"):  # exact prefix-filter Jaccard join
        d.ngram_jaccard(sf_dir)
    with timed("dedup_incremental"):  # new batch vs base corpus, cross-side
        d.incremental_dedup_pairs(sf_dir)
    with timed("dup_token_spans"):  # cross-doc duplicated-substring spans
        d.dup_token_spans_entry(sf_dir)
    with timed("knn_cosine"):
        d.knn_cosine(sf_dir, 0, 10)
    with timed("clustering"):  # exact kmeans + SemDeDup pair scan
        d.kmeans_embeddings(sf_dir)
        d.semdedup_embedding_pairs(sf_dir)
    with timed("quality_features"):  # pre-r4 semantics (cross-round compare)
        d.quality_features_basic(sf_dir)
    with timed("langid_ngram"):  # train trigram profiles + classify
        d.langid_ngram_preds(sf_dir)
    with timed("events_sessions"):
        d.events_sessions(sf_dir)
    with timed("tpch_q1ish"):
        d.tpch_q1ish(sf_dir)
    with timed("tpch_q3ish"):  # broadcast + shuffle hash equi-joins
        d.tpch_q3ish(sf_dir)
    with timed("webnorm"):  # url canonicalization + per-domain aggregate
        d.url_canon(sf_dir)
        d.domain_doc_stats_basic(sf_dir)  # pre-r4 semantics (comparability)
    with timed("decontam"):  # benchmark-overlap flags, broadcast small side
        d.decontam_flags(sf_dir)
    with timed("seq_packing"):  # two-level distributed scan
        d.seq_packing(sf_dir)
    with timed("pii_redact"):  # three RE2 kernel passes, zero shuffle
        d.pii_redact(sf_dir)
    with timed("bigram_novelty"):  # corpus-stats score-by-join
        d.bigram_novelty(sf_dir)
    with timed("media_decode"):  # round 4: REAL jpeg (210 imgs incl.
        d.jpeg_features(sf_dir)  # 4:2:0+progressive) + mjpeg avi (60
        d.mjpeg_frame_feats(sf_dir)  # videos), actor-pool decode+features
        d.mpeg1_frame_feats(sf_dir)  # round 5: MPEG-1 I-frame streams
    with timed("ccnet_buckets"):  # per-lang tertile quality gates
        d.ccnet_quality_buckets(sf_dir)
    with timed("bpe_train_encode"):  # trained byte-BPE: count->merge->encode
        d.bpe_train_encode(sf_dir)
    with timed("composite_pipeline"):  # quality -> dedup -> index -> BM25
        d.composite_pipeline(sf_dir, fresh=True)  # cold: cache cleared inside
    with timed("crawl_refresh"):  # base build -> gate -> incr dedup -> update
        d.crawl_refresh_pipeline(sf_dir, fresh=True)

    total = round(sum(timings.values()), 4)
    return {
        "metric": "index_build_plus_pipelines_wall",
        "value": total,
        "unit": "sec",
        "queries": timings,
        "sf": os.path.basename(sf_dir.rstrip("/")),
        "num_cpus": num_cpus,
        "index_docs": n_docs,
        "index_docs_per_sec": round(n_docs / timings["index_build"], 2),
    }


# ---------------------------------------------------------------------------
# scaling mode
# ---------------------------------------------------------------------------

def _ensure_scaling_corpus(n_docs: int) -> str:
    """Deterministic pages corpus shared by both scaling runs (generate
    once; content is a pure function of (seed, row))."""
    corpus = os.path.join(SCRATCH,
                          f"corpus-{n_docs}x{SCALING_TOKEN_SCALE}")
    done = os.path.join(corpus, "_DONE")
    if not os.path.exists(done):
        from markdown_query_ray.fixtures import write_pages_corpus
        shutil.rmtree(corpus, ignore_errors=True)
        # token_scale makes docs web-page-sized (~5-6 KB text) so the
        # measurement is compute-bound, not Ray-fixed-cost-bound
        write_pages_corpus(corpus, n_docs, n_files=32,
                           token_scale=SCALING_TOKEN_SCALE)
        with open(done, "w") as f:
            f.write("ok")
    return corpus


def index_worker(corpus: str, num_cpus: int) -> None:
    """Subprocess body: fresh Ray session, fresh output dir, one timed
    index build. Prints one JSON line."""
    import ray

    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False)
    import glob

    import ray.data

    # warm the cluster OUTSIDE the timed window: worker processes start, the
    # datasets runtime initializes, and every worker imports the package
    # (first-task deserialization would otherwise pay the ~0.4 s import
    # inside the measurement). A real indexing cluster is long-running;
    # session bring-up is not indexing throughput.
    def _warm(b):
        import markdown_query_ray.index.build  # noqa: F401
        return b

    ray.data.range(num_cpus * 4).map_batches(
        _warm, batch_size=1).materialize()

    paths = sorted(glob.glob(os.path.join(corpus, "pages-*.parquet")))
    out = _fresh(os.path.join(SCRATCH, f"scale-idx-{num_cpus}"))
    t0 = time.perf_counter()
    gstats = _build_pages_index(paths, out, num_doc_buckets=4)
    wall = time.perf_counter() - t0
    ray.shutdown()
    # per-stage seconds from the build's own metrics file, so the
    # scaling report can attribute efficiency loss to the CPU-bound
    # stage (extract_tokenize) vs the memory-bound ones (merge/encode)
    with open(os.path.join(out, "_metrics.json")) as f:
        sm = json.load(f)
    stages = {k: sm[k] for k in ("extract_tokenize", "url_map",
                                 "global_stats", "merge_shuffle_encode",
                                 "term_stats") if k in sm}
    print(json.dumps({
        "num_cpus": num_cpus,
        "wall_sec": round(wall, 3),
        "n_docs": gstats["n_docs"],
        "docs_per_sec": round(gstats["n_docs"] / wall, 2),
        "stages": stages,
    }))


# 2 vs 8 CPUs (N and 4N). 1v4 was tried and is biased on this VM: a
# "1-CPU" Ray leg still burns ~1.2 host cores (arrow IO threads, plasma,
# raylet — measured via ps sampling), and that fixed leak inflates the low
# leg proportionally more the smaller it is. 2v8 halves the bias; the
# ARROW_IO_THREADS export below scales the IO pool with the leg so both
# legs get CPU-budget-proportional help, as real same-sized nodes would.
# Steal caveat (BASELINE.md "hardware capacity"): 8+-way concurrency sees
# 1.25-4x hypervisor contention in bad phases — interleaved best-of
# repeats damp it. On real hardware set GRAFT_SCALE_LOW/HIGH=8/32.
SCALE_LOW = int(os.environ.get("GRAFT_SCALE_LOW", "2"))
SCALE_HIGH = int(os.environ.get("GRAFT_SCALE_HIGH", "8"))


SCALE_REPEATS = int(os.environ.get("GRAFT_SCALE_REPEATS", "3"))


def run_scaling(n_docs: int, low: int = SCALE_LOW,
                high: int = SCALE_HIGH,
                repeats: int = SCALE_REPEATS) -> dict:
    """N vs 4N CPU scaling evidence. Defaults are 2 vs 8 (not 8 vs 32): a
    multiprocessing microbenchmark of this sandbox (BASELINE.md "hardware
    capacity") shows the 32-logical-CPU VM sustains only ~6.5-7 cores of
    real single-thread throughput under full load (virtualization steal),
    so 8->32 measures hypervisor contention, not the engine. 2->8 stays
    inside the machine's honest capacity; on real hardware set
    GRAFT_SCALE_LOW/HIGH=8/32."""
    corpus = _ensure_scaling_corpus(n_docs)
    results = {}
    # ALTERNATE low/high legs across repeats and keep each leg's best: this
    # VM's hypervisor steal comes in multi-minute phases that shift a run's
    # wall time up to 2x, so running all-low then all-high would compare
    # different phases; interleaving gives both legs a shot at every phase.
    for _ in range(max(1, repeats)):
        for cpus in (low, high):
            env = dict(os.environ)
            env.pop("RAY_ADDRESS", None)
            # arrow's IO pool defaults to 8 threads regardless of the Ray
            # CPU budget; scale it with the leg so a small leg doesn't get
            # disproportionate hidden IO parallelism (ray workers inherit
            # the driver env)
            env["ARROW_IO_THREADS"] = str(cpus)
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--_index-worker", "--corpus", corpus,
                 "--cpus", str(cpus)],
                capture_output=True, text=True, env=env, cwd=REPO)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                raise RuntimeError(f"scaling worker (cpus={cpus}) failed")
            r = json.loads(proc.stdout.strip().splitlines()[-1])
            if cpus not in results or r["wall_sec"] < results[cpus]["wall_sec"]:
                results[cpus] = r
    tput_lo = results[low]["docs_per_sec"]
    tput_hi = results[high]["docs_per_sec"]
    eff = (tput_hi / tput_lo) / (high / low)
    # decomposed per-stage efficiency (round-5): the engine-vs-host
    # attribution lives in the measurement itself — extract_tokenize is
    # the pure-CPU stage (tracks the host cpu probe), merge/encode is
    # the memory-bandwidth-bound stage (tracks the host mem probe)
    stage_eff = {}
    for k, lo_s in results[low].get("stages", {}).items():
        hi_s = results[high].get("stages", {}).get(k)
        if lo_s and hi_s:
            stage_eff[k] = {
                "low_sec": lo_s, "high_sec": hi_s,
                "eff": round((lo_s / hi_s) / (high / low), 4),
            }
    host = _host_probe(low, high)
    return {
        "metric": "indexing_scaling_efficiency",
        "value": round(eff, 4),
        "unit": "ratio",
        "queries": {
            f"build_{low}cpu_sec": results[low]["wall_sec"],
            f"build_{high}cpu_sec": results[high]["wall_sec"],
        },
        "sf": f"synthetic-{n_docs}docs",
        "num_cpus": high,
        "docs_per_sec_low": tput_lo,
        "docs_per_sec_high": tput_hi,
        "cpus_low": low,
        "cpus_high": high,
        "n_docs": n_docs,
        "stage_eff": stage_eff,
        "host_probe": host,
    }


def _host_probe(low: int, high: int, dur: float = 4.0) -> dict:
    """Same-window host-capacity ceilings (tools/host_capacity.py
    kernels): aggregate throughput of `low` vs `high` independent
    processes doing pure-register CPU work and 64 MB memory-streaming
    copies. A virtualized/steal-afflicted or bandwidth-saturated host
    shows up here as a sub-1.0 ceiling that bounds ANY engine's
    achievable scaling in the same window."""
    sys.path.insert(0, os.path.join(REPO, "tools"))
    from host_capacity import cpu_work, mem_work, run

    out = {}
    for name, fn in (("cpu", cpu_work), ("mem", mem_work)):
        lo = run(fn, low, dur)
        hi = run(fn, high, dur)
        out[f"{name}_eff"] = round((hi / lo) / (high / low), 4)
        out[f"{name}_low"] = lo
        out[f"{name}_high"] = hi
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scaling", action="store_true")
    ap.add_argument("--sf-dir", default=SF_DIR_DEFAULT)
    ap.add_argument("--cpus", type=int, default=CPUS_DEFAULT)
    ap.add_argument("--scale-docs", type=int, default=SCALING_DOCS)
    ap.add_argument("--_index-worker", dest="index_worker",
                    action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--corpus", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.index_worker:
        index_worker(args.corpus, args.cpus)
        return
    if args.scaling:
        print(json.dumps(run_scaling(args.scale_docs)))
        return

    import ray

    out = run_bench(args.sf_dir, args.cpus)
    print(json.dumps(out))
    if ray.is_initialized():
        ray.shutdown()


if __name__ == "__main__":
    main()
