"""Driver-memory stress for the composite quality->dedup->index->BM25 chain
(VERDICT r2 item 1 "Done =" evidence).

Synthesizes a >= 1M-doc corpus OFF-DRIVER (ray.data.range -> map_batches;
the driver never holds a corpus-sized table), runs the same chain as
``driver_api.composite_pipeline`` — token-count quality gate ->
``exact_dedup_rows`` (hash-bucketed shuffle emitting surviving rows) ->
``build_index`` -> BM25 top-k — and reports wall time plus driver
maxRSS. The point: with the round-2 survivor-id collect+broadcast removed,
driver RSS stays flat (Bloom/bucket state only) while a corpus-sized keep
set would have added ~8 MB per 1M docs and hundreds of GB at 10^12.

Usage:  python tools/stress_composite.py [--docs 1000000] [--dup-share 0.2]
"""

from __future__ import annotations

import argparse
import os
import resource
import shutil
import time

import numpy as np
import pyarrow as pa


def synth_batch(batch: pa.Table, dup_share: float) -> pa.Table:
    """Deterministic per-id synthetic web-ish docs: ~60-token bodies from a
    5k vocab; ``dup_share`` of ids collapse onto 1/64th of the text space
    (exact dups); 2% of docs are short (< 30 tokens) so the quality gate
    has work to do."""
    ids = batch.column("id").to_numpy().astype(np.int64)
    texts = []
    for i in ids.tolist():
        rng = np.random.Generator(np.random.PCG64(i))
        if rng.random() < dup_share:
            # duplicate cluster: text depends only on the cluster seed
            seed = int(i) % 64
            crng = np.random.Generator(np.random.PCG64(10_000_000 + seed))
            words = crng.integers(0, 5000, size=60)
        elif rng.random() < 0.02:
            words = rng.integers(0, 5000, size=10)  # fails the gate
        else:
            words = rng.integers(0, 5000, size=60)
        texts.append(" ".join(f"w{w}" for w in words.tolist()))
    return pa.table({
        "doc_id": pa.array(ids),
        "url": pa.array([f"https://ex.com/{i}" for i in ids.tolist()]),
        "text": pa.array(texts, pa.string()),
    })


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--docs", type=int, default=1_000_000)
    ap.add_argument("--dup-share", type=float, default=0.2)
    ap.add_argument("--out", default="/tmp/stress_composite_idx")
    args = ap.parse_args()

    import ray
    import ray.data

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=32, include_dashboard=False)

    from functools import partial

    from markdown_query_ray.config import BM25Params, IndexConfig, QueryConfig
    from markdown_query_ray.index.build import build_index
    from markdown_query_ray.pipelines.dedup import exact_dedup_rows
    from markdown_query_ray.pipelines.textstats import token_count_batch
    from markdown_query_ray.query import executor as qx
    from markdown_query_ray.query.ast import Or, Term

    shutil.rmtree(args.out, ignore_errors=True)

    def quality_gate(b: pa.Table) -> pa.Table:
        n = token_count_batch(b).column("n_tokens").to_numpy()
        return b.filter(pa.array(n >= 30))

    # size blocks like production, not like a toy: ~25k docs (~10 MB) per
    # block. With hundreds of KB-scale blocks, the groupby shuffle's
    # sub-blocks drop under Ray's ~100 KB inline threshold and get stored
    # in the DRIVER-owned memory instead of plasma — measured 1.37 GB
    # driver RSS at 1M docs x 256 blocks vs 0.21 GB at 32 blocks for the
    # identical pipeline. At real block sizes sub-blocks always exceed the
    # threshold, so the flat-RSS evidence must use realistic blocks.
    blocks = max(32, args.docs // 25_000)
    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e6
    t0 = time.time()
    ds = ray.data.range(args.docs, override_num_blocks=blocks).map_batches(
        lambda b: synth_batch(b, args.dup_share), batch_format="pyarrow")
    filtered = ds.map_batches(quality_gate, batch_format="pyarrow")
    survivors = exact_dedup_rows(filtered)
    cfg = IndexConfig(tokenizer="simple", stem=False, num_term_parts=16,
                      num_doc_buckets=2, block_size=128)
    gstats = build_index(args.out, dataset=survivors, cfg=cfg,
                         total_docs=args.docs)
    t_build = time.time() - t0
    node = Or((Term("w1"), Term("w2")))
    qcfg = QueryConfig(k=10, params=BM25Params.classic())
    res = qx.search(args.out, node, qcfg)
    wall = time.time() - t0
    rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e6

    print(f"docs={args.docs} indexed={gstats['n_docs']} "
          f"(gate+dedup removed {args.docs - gstats['n_docs']})")
    print(f"build+dedup wall={t_build:.1f}s total wall={wall:.1f}s "
          f"docs/s={gstats['n_docs'] / t_build:.0f}")
    print(f"top-k rows={res.num_rows}")
    print(f"driver maxRSS before={rss0:.2f} GB after={rss1:.2f} GB "
          f"delta={rss1 - rss0:.2f} GB")
    ray.shutdown()


if __name__ == "__main__":
    main()
