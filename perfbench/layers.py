"""Per-layer metrics: read from a build's own files, timed from
single-process calls of a stage's public function, or summed from the
traced spans of the queries a workload ran."""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .stats import median
from .tracing import SCORE_SPANS

# Which end-to-end metric, on which workload, each layer metric should
# move: written down before any measurement, so that a change claiming a
# gain in one layer names the end-to-end figure it has to move.
MOVES = {
    "build.extract_tokenize_s": "docs_per_s @ build",
    "build.url_map_s": "docs_per_s @ build",
    "build.merge_shuffle_encode_s": "docs_per_s @ build",
    "build.global_stats_s": "docs_per_s @ refresh",
    "build.term_stats_s": "docs_per_s @ refresh",
    "build.shuffle_balance_max_over_mean": "docs_per_s @ build",
    "extract.mb_per_s": "docs_per_s @ build",
    "tokenize.docs_per_s": "docs_per_s @ build",
    "shuffle.bytes_per_doc": "docs_per_s, peak_rss_mb @ build",
    "shuffle.rows_per_doc": "docs_per_s, peak_rss_mb @ build",
    "codec.postings_bytes_per_posting": "stored_bytes_per_input_byte @ build",
    "codec.decode_mpostings_per_s": "query_p50_ms @ refresh",
    "update.delta_build_s": "docs_per_s @ refresh",
    "update.commit_s": "docs_per_s @ refresh",
    "update.replaced_docs": "docs_per_s @ refresh",
    "compiler.parse_ms": "query_p50_ms @ serve (bound on what a parser "
                         "change can win)",
    "reader.expand_wildcard_ms": "query_p99_ms @ serve",
    "reader.wildcard_terms_per_query": "query_p99_ms @ serve",
    "reader.term_stats_ms": "query_p50_ms @ refresh",
    "reader.load_blocks_ms": "query_p50_ms @ refresh",
    "reader.blocks_read_per_query": "query_p50_ms @ refresh",
    "executor.decode_ms": "query_p50_ms @ refresh, serve",
    "executor.postings_decoded_per_query": "query_p50_ms @ refresh, serve",
    "executor.score_topk_ms": "query_p50_ms, qps @ serve",
    "executor.blockmax_used_ratio": "query_p99_ms @ serve",
    "executor.rescored_per_returned": "query_p50_ms @ serve",
    "executor.remote_overhead_ms": "query_p50_ms @ refresh",
    "session.postings_hit_ratio": "query_p50_ms, qps @ serve",
    "session.stats_hit_ratio": "query_p50_ms, qps @ serve",
    "session.wildcard_hit_ratio": "query_p50_ms, qps @ serve",
    "session.actor_overhead_ms": "qps @ serve",
}

BUILD_STAGES = {
    "build.extract_tokenize_s": "extract_tokenize",
    "build.url_map_s": "url_map",
    "build.global_stats_s": "global_stats",
    "build.merge_shuffle_encode_s": "merge_shuffle_encode",
    "build.term_stats_s": "term_stats",
    "build.shuffle_balance_max_over_mean": "shuffle_balance_max_over_mean",
}


def build_metrics(index_dirs: list[str]) -> dict[str, float]:
    """Medians over builds of the stage figures in ``_metrics.json``."""
    ms = []
    for d in index_dirs:
        with open(os.path.join(d, "_metrics.json")) as f:
            ms.append(json.load(f))
    return {name: median([m.get(key, 0.0) for m in ms])
            for name, key in BUILD_STAGES.items()}


def dir_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(root, f))
    return total


def _part_files(index_dir: str) -> list[str]:
    d = os.path.join(index_dir, "postings")
    return sorted(os.path.join(d, f) for f in os.listdir(d)
                  if f.endswith(".parquet"))


def codec_metrics(index_dir: str, codec: str) -> dict[str, float]:
    """Stored bytes per posting (from ``_manifest.jsonl``) and the
    single-process ``decode_blocks`` rate over every built partition."""
    from markdown_query_ray.index.codec import decode_blocks

    nbytes = npost = 0
    with open(os.path.join(index_dir, "_manifest.jsonl")) as f:
        for line in f:
            row = json.loads(line)
            nbytes += row["bytes"]
            npost += row["n_postings"]
    decoded = 0
    busy = 0.0
    for p in _part_files(index_dir):
        blocks = pq.read_table(p)
        t0 = time.perf_counter()
        ids = decode_blocks(blocks, codec=codec)[0]
        busy += time.perf_counter() - t0
        decoded += len(ids)
    return {
        "codec.postings_bytes_per_posting": nbytes / max(1, npost),
        "codec.decode_mpostings_per_s": decoded / 1e6 / max(busy, 1e-9),
    }


def shuffle_metrics(index_dir: str, cfg) -> dict[str, float]:
    """What the merge shuffle exchanges: ``PartialPostingsStage`` over the
    build's ``tokenized/`` rows in the build's own batch size."""
    from markdown_query_ray.index.build import PartialPostingsStage

    with open(os.path.join(index_dir, "global_stats.json")) as f:
        g = json.load(f)
    tok = pq.ParquetDataset(os.path.join(index_dir, "tokenized")).read()
    stage = PartialPostingsStage(cfg, g["docs_per_bucket"])
    nbytes = rows = 0
    step = cfg.postings_batch_size
    for i in range(0, len(tok), step):
        out = stage(tok.slice(i, step))
        nbytes += out.nbytes
        rows += len(out)
    n = max(1, len(tok))
    return {"shuffle.bytes_per_doc": nbytes / n,
            "shuffle.rows_per_doc": rows / n}


def stage_metrics(pages: pa.Table, cfg, batch_rows: int = 256
                  ) -> dict[str, float]:
    """Single-process ``extract_batch`` (html MB/s) and
    ``TokenizeStage(cfg)`` (docs/s) over the workload's own pages."""
    from markdown_query_ray.stages.extract import extract_batch
    from markdown_query_ray.stages.tokenize import TokenizeStage

    tok = TokenizeStage(cfg)
    ex_s = tok_s = 0.0
    html_bytes = 0
    for i in range(0, len(pages), batch_rows):
        b = pages.slice(i, batch_rows).select(["url", "html"])
        b = b.append_column("doc_id", pa.array(
            np.arange(i, i + len(b), dtype=np.uint64)))
        html_bytes += b.column("html").nbytes
        t0 = time.perf_counter()
        ext = extract_batch(b)
        t1 = time.perf_counter()
        tok(ext)
        t2 = time.perf_counter()
        ex_s += t1 - t0
        tok_s += t2 - t1
    return {"extract.mb_per_s": html_bytes / 1e6 / max(ex_s, 1e-9),
            "tokenize.docs_per_s": len(pages) / max(tok_s, 1e-9)}


def query_metrics(payloads: list[dict], sessions: bool
                  ) -> dict[str, float]:
    """Read-path layer metrics from per-query trace records: times are
    milliseconds per query, counts per query, ratios over attempts.
    ``session.*`` figures read 0 unless the queries ran on sessions."""
    n = max(1, len(payloads))
    self_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    hits = 0
    overhead = []
    remote = []
    for p in payloads:
        for k, v in p["self"].items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, v in p["counts"].items():
            counts[k] = counts.get(k, 0.0) + v
        hits += p["hits"]
        if "client_s" in p:
            overhead.append(p["client_s"] - p["search_s"])
        if "search_wall_s" in p:
            remote.append(p["search_wall_s"] - p["bucket_s"])

    def ms(*names: str) -> float:
        return 1000.0 * sum(self_s.get(x, 0.0) for x in names) / n

    def ratio(a: str, b: str) -> float:
        return counts.get(a, 0.0) / counts[b] if counts.get(b) else 0.0

    def hit_ratio(miss: str, lookups: str) -> float:
        return 1.0 - ratio(miss, lookups) if counts.get(lookups) else 0.0

    out = {
        "compiler.parse_ms": ms("compiler.parse"),
        "reader.expand_wildcard_ms": ms("reader.expand_wildcard"),
        "reader.wildcard_terms_per_query": counts.get("wildcard_terms", 0)
        / n,
        "reader.term_stats_ms": ms("reader.term_stats"),
        "reader.load_blocks_ms": ms("reader.load_blocks"),
        "reader.blocks_read_per_query": counts.get("blocks_read", 0) / n,
        "executor.decode_ms": ms("executor.decode"),
        "executor.postings_decoded_per_query":
            counts.get("postings_decoded", 0) / n,
        "executor.score_topk_ms": ms(*SCORE_SPANS),
        "executor.blockmax_used_ratio": ratio("blockmax_used",
                                              "blockmax_attempts"),
        "executor.rescored_per_returned":
            counts.get("rescored_docs", 0) / max(1, hits),
        "executor.remote_overhead_ms":
            1000.0 * median(remote) if remote else 0.0,
        "session.postings_hit_ratio": hit_ratio("postings_misses",
                                                "postings_lookups"),
        "session.stats_hit_ratio": hit_ratio("stats_raw_terms",
                                             "stats_lookup_terms"),
        "session.wildcard_hit_ratio": hit_ratio("wildcard_raw_calls",
                                                "wildcard_lookups"),
        "session.actor_overhead_ms":
            1000.0 * median(overhead) if overhead else 0.0,
    }
    if not sessions:
        out.update({k: 0.0 for k in out if k.startswith("session.")})
    return out
