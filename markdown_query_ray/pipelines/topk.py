"""Group-wise top-k: the per-domain / per-source document-cap operator.

A 100 TB crawl pipeline caps how many documents any one registered
domain contributes (boilerplate-heavy hosts would otherwise dominate the
training mix). SQL expresses it as ``row_number() OVER (PARTITION BY key
ORDER BY ...) <= k``; Ray Data has no window functions, so this composes
it from two passes of the SAME vectorized kernel:

1. map-side combine: each batch keeps at most k rows per key — the
   shuffle then carries <= k rows per (batch, key), never the full
   corpus (top-k per key is a semilattice: topk(topk(A) ∪ topk(B)) =
   topk(A ∪ B));
2. ``groupby(key).map_groups`` runs the identical kernel once per key
   for the exact global answer.

The kernel sorts with ``pyarrow.compute.sort_indices`` (any column
types, per-column asc/desc) and ranks within key runs via one numpy
segment pass.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _topk_kernel(batch: pa.Table, key: str,
                 order: list[tuple[str, str]], k: int,
                 with_rank: bool = False) -> pa.Table:
    """Top-k rows per distinct ``key`` value under ``order`` (pyarrow
    sort spec [(col, 'ascending'|'descending'), ...])."""
    if batch.num_rows == 0:
        return batch.append_column("rank", pa.array([], pa.int64())) \
            if with_rank else batch
    idx = pc.sort_indices(batch,
                          sort_keys=[(key, "ascending")] + list(order))
    t = batch.take(idx)
    kc = t.column(key)
    if isinstance(kc, pa.ChunkedArray):
        kc = kc.combine_chunks()
    codes = pc.dictionary_encode(kc).indices.to_numpy(zero_copy_only=False)
    n = len(codes)
    seg = np.ones(n, bool)
    seg[1:] = codes[1:] != codes[:-1]
    starts = np.nonzero(seg)[0]
    lens = np.diff(np.append(starts, n))
    rank = np.arange(n) - np.repeat(starts, lens)
    keep = rank < k
    out = t.filter(pa.array(keep))
    if with_rank:
        out = out.append_column(
            "rank", pa.array(rank[keep] + 1, pa.int64()))
    return out


def groupwise_topk(ds, key: str, order: list[tuple[str, str]], k: int):
    """Per-key top-k rows of ``ds`` (all columns ride along), plus a
    1-based ``rank`` column. Two-phase: map-side per-batch combine, then
    the per-key exact pass."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    part = ds.map_batches(
        partial(_topk_kernel, key=key, order=order, k=k),
        batch_format="pyarrow")
    return part.groupby(key).map_groups(
        partial(_topk_kernel, key=key, order=order, k=k, with_rank=True),
        batch_format="pyarrow")
