"""Build-scale stress harness for the merge shuffle (VERDICT r2 item 3).

Round 2 measured the 4M-doc build's merge shuffle spilling out of the
object store (224.8 s vs 64.5 s at 2M). This tool reruns the corpus-sweep
build at a given size for repeated legs of one config and reports each
leg's per-stage metrics plus Ray's spill counters, then the best merge
shuffle time and every leg's wall time.

Corpus files are cached per (docs, token_scale) under /tmp and reused.

Usage:
  python tools/stress_build.py --docs 2000000 --legs 2
  python tools/stress_build.py --docs 4000000
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import time


def corpus(n_docs: int) -> list[str]:
    import glob

    out = f"/tmp/stress_build_corpus_{n_docs}"
    done = os.path.join(out, "_DONE")
    if not os.path.exists(done):
        shutil.rmtree(out, ignore_errors=True)
        from markdown_query_ray.fixtures import write_pages_corpus_parallel

        t0 = time.time()
        write_pages_corpus_parallel(out, n_docs, n_files=max(64, n_docs
                                                             // 62500))
        with open(done, "w") as f:
            f.write("ok")
        print(f"corpus {n_docs}: wrote in {time.time() - t0:.0f}s")
    return sorted(glob.glob(os.path.join(out, "pages-*.parquet")))


def spill_bytes() -> int:
    """Total object-spill bytes from Ray's internal metrics (0 if none)."""
    try:
        import ray._private.internal_api as internal

        msg = internal.memory_summary(stats_only=True)
        for line in msg.splitlines():
            if "Spilled" in line and "MiB" in line:
                return int(float(line.split("Spilled")[1].split("MiB")[0]
                                 .strip()) * (1 << 20))
    except Exception:
        pass
    return 0


def one_leg(paths: list[str], cfg, out: str) -> dict:
    from markdown_query_ray.index.build import build_index

    shutil.rmtree(out, ignore_errors=True)
    s0 = spill_bytes()
    t0 = time.time()
    g = build_index(out, paths=paths, cfg=cfg)
    wall = time.time() - t0
    m = g["stage_metrics"]
    return {
        "wall": round(wall, 1),
        "docs_per_sec": m.get("docs_per_sec"),
        "merge_shuffle_encode": m.get("merge_shuffle_encode"),
        "extract_tokenize": m.get("extract_tokenize"),
        "balance": m.get("shuffle_balance_max_over_mean"),
        "spilled_mb": round((spill_bytes() - s0) / (1 << 20)),
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--docs", type=int, default=2_000_000)
    ap.add_argument("--legs", type=int, default=2,
                    help="repeated builds of the same config")
    ap.add_argument("--parts", type=int, default=16)
    ap.add_argument("--buckets", type=int, default=2)
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=32, include_dashboard=False)

    from markdown_query_ray.config import IndexConfig

    paths = corpus(args.docs)
    cfg = IndexConfig(num_term_parts=args.parts,
                      num_doc_buckets=args.buckets)
    results = []
    for leg in range(args.legs):
        r = one_leg(paths, cfg, "/tmp/stress_build_idx")
        results.append(r)
        print(f"[leg {leg}] {json.dumps(r)}", flush=True)
        gc.collect()
    best = min(r["merge_shuffle_encode"] or 1e9 for r in results)
    print(f"best merge_shuffle_encode {best}s  "
          f"walls {[r['wall'] for r in results]}")
    ray.shutdown()


if __name__ == "__main__":
    main()
