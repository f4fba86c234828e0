"""Exact per-group discrete quantiles of int64 / float64 columns, by
histogram.

Percentile gates (drop the shortest 5% of docs per language, cap at the
99th length percentile, report p50/p90 dashboards) need quantiles over
corpus-scale groups. Sorting each group (``map_groups`` over a whole
language) would pull a corpus-scale group into one worker; instead,
columns with countable value sets (lengths, token counts, fixed-point
metrics — and float64 via the IEEE-754 order isomorphism below) admit
an EXACT quantile via value histograms whose size is bounded by the
number of DISTINCT VALUES, not the corpus:

1. map-side combine: each batch emits (group, value, count) partials —
   one lexicographic sort pass, already deduplicated within the batch;
2. one ``groupby(group, value).sum`` shuffle (at most
   |groups| x |distinct values| rows total, independent of row count);
3. rank selection. Below ``SMALL_HIST_ROWS`` distinct (group, value)
   pairs the histogram is a driver-trivial table and is collected
   directly (one bounded collect beats two more distributed passes —
   the explicit, logged resolution threshold); above it, DISTRIBUTED
   rank selection keeps the histogram in the object store and the
   driver never sees the (group, value) rows themselves:

   a RADIX DESCENT: each level folds every outstanding target's value
   window into <= 2^12 sub-buckets (one filtered pass over the
   materialized histogram + a tiny groupby), the driver locates the
   sub-bucket holding the rank and narrows the window by that fixed
   2^12 factor — <= 6 levels over the full 64-bit domain, IMMUNE to
   outliers (a one-shot global-span bucketing would let one extreme
   value collapse all dense values into a single bucket). Driver state
   per level is <= |groups| x |qs| x 2^12 sub-bucket totals; no worker
   ever sees more than one window's slice of the histogram.

   The discrete quantile is ``q_disc(q) = smallest v with cum_count >=
   max(1, ceil(q * n))`` — bit-identical to DuckDB's ``quantile_disc``
   (verified: n=10 gives q.25->3rd, q.5->5th, q.75->8th, q.9->9th
   element; q=0 -> 1st, q=1 -> nth).

Value domain: the FULL int64 range (negatives included — arithmetic
order is preserved through an XOR-2^63 unsigned view for the bucket
math). ``group_quantiles_float`` extends the same machinery to float64
EXACTLY: finite IEEE-754 doubles map to int64 keys that preserve
ordering (positive floats are their own bit patterns; negative floats
flip the magnitude bits), -0.0 normalizes to +0.0 so SQL comparison
semantics match, and NaNs raise (DuckDB's quantile ignores NULLs but
orders NaN last — callers filter them explicitly).

At 100 TB the only driver state is the coarse-bucket table plus the
|groups| x |qs| answers — independent of both corpus size and
distinct-value count (the round-4 watch item: a high-resolution metric
at 10^12 docs could push the distinct-value histogram toward ~10^8
rows, which now stays in the object store).
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

import numpy as np
import pyarrow as pa

DEFAULT_QS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4),
              Fraction(9, 10), Fraction(99, 100))

LEVEL_BITS = 12  # sub-buckets per descent level (<= 6 levels over 64 bits)
SMALL_HIST_ROWS = 200_000  # driver-collect threshold (~5 MB table)

_SIGN = np.uint64(1 << 63)


def _to_u(v: np.ndarray) -> np.ndarray:
    """Order-preserving int64 -> uint64 view (x + 2^63 mod 2^64)."""
    return v.astype(np.uint64) + _SIGN


def _from_u(u: int) -> int:
    """Inverse of ``_to_u`` for a scalar key (exact Python-int
    arithmetic: ``u`` is in [0, 2^64), so no wrap is involved)."""
    return int(u) - (1 << 63)


def _hist_partials(batch: pa.Table, group_col: str,
                   value_col: str) -> pa.Table:
    g = batch.column(group_col).to_pylist()
    v = batch.column(value_col).to_numpy().astype(np.int64)
    codes, ginv = np.unique(np.asarray(g, object), return_inverse=True)
    order = np.lexsort((v, ginv))
    gs, vs = ginv[order], v[order]
    new = np.empty(len(vs), bool)
    if len(vs):
        new[0] = True
        new[1:] = (gs[1:] != gs[:-1]) | (vs[1:] != vs[:-1])
    starts = np.flatnonzero(new)
    cnt = np.diff(np.append(starts, len(vs)))
    return pa.table({
        group_col: pa.array(codes[gs[starts]].tolist(), pa.string()),
        value_col: pa.array(vs[starts]),
        "cnt_part": pa.array(cnt),
    })


def _ranks_for(n: int, qs) -> list:
    """[(label, 1-based rank)] to select for a group of size n: the
    quantile_disc ranks of ``qs``."""
    return [(float(q), max(1, -((-q.numerator * n) // q.denominator)))
            for q in qs]


def group_quantiles(ds, group_col: str, value_col: str,
                    qs=DEFAULT_QS) -> pa.Table:
    """pa.Table of (group, q, quantile) — exact ``quantile_disc``
    semantics per group over an int64 column (full range). ``qs`` are
    Fractions so the rank computation ``max(1, ceil(q*n))`` is exact
    integer arithmetic."""
    import ray
    from ray.data.aggregate import Max, Min, Sum

    qs = list(qs)
    hist = ds.map_batches(
        partial(_hist_partials, group_col=group_col, value_col=value_col),
        batch_format="pyarrow") \
        .groupby([group_col, value_col]) \
        .aggregate(Sum("cnt_part", alias_name="cnt")) \
        .materialize()  # bounded by distinct values; consumed below

    # explicit small-histogram fast path: below SMALL_HIST_ROWS the
    # whole (group, value) histogram is a driver-trivial table and one
    # collect beats two more distributed passes (count() on the
    # materialized histogram is metadata-only). The bound is what makes
    # this scale-safe: above it, the distributed selection keeps driver
    # state at the coarse-bucket table regardless of distinct values.
    if hist.count() <= SMALL_HIST_ROWS:
        t = hist.sort([group_col, value_col]).to_pandas()
        rows = []
        for grp, sub in t.groupby(group_col, sort=True):
            vals = sub[value_col].to_numpy(np.int64)
            cum = np.cumsum(sub["cnt"].to_numpy(np.int64))
            n = int(cum[-1])
            for lbl, rank in _ranks_for(n, qs):
                i = int(np.searchsorted(cum, rank, side="left"))
                rows.append((str(grp), lbl, int(vals[i])))
        return pa.table({
            group_col: pa.array([r[0] for r in rows], pa.string()),
            "q": pa.array([r[1] for r in rows], pa.float64()),
            "quantile": pa.array([r[2] for r in rows], pa.int64()),
        })

    # RADIX DESCENT (round-5 review fix): narrow every target's value
    # window level by level, <= 2^LEVEL_BITS sub-buckets per level. The
    # earlier one-shot coarse bucketing derived its granularity from
    # the GLOBAL [min, max] span, so a single extreme outlier collapsed
    # all dense values into one bucket and the final pick had to sort a
    # group's whole distinct-value histogram on one worker; the descent
    # narrows by a fixed 2^LEVEL_BITS factor per level REGARDLESS of
    # value distribution — <= ceil(64/LEVEL_BITS) = 6 bounded passes
    # over the materialized histogram, never a corpus-scale or
    # histogram-scale group on any single worker. Driver state per
    # level: <= |groups| x |qs| x 2^LEVEL_BITS sub-bucket totals.
    # Window bounds are exact Python ints in the unsigned view: [lo, hi)
    # with hi up to 2^64, which no numpy integer holds — workers compare
    # against the inclusive hi - 1 instead.
    mm = hist.aggregate(Min(value_col), Max(value_col))
    ulo0 = int(mm[f"min({value_col})"]) + (1 << 63)
    uhi0 = int(mm[f"max({value_col})"]) + (1 << 63) + 1

    # per-group totals (|groups| rows) -> initial ranks
    gt = hist.groupby(group_col) \
        .aggregate(Sum("cnt", alias_name="n")).take_all()
    live = []  # (tid, grp, label, lo_u, hi_u, rank)
    answers = {}
    tid = 0
    for r in sorted(gt, key=lambda r: r[group_col]):
        grp, n = str(r[group_col]), int(r["n"])
        for lbl, rank in _ranks_for(n, qs):
            live.append([tid, grp, lbl, ulo0, uhi0, rank])
            tid += 1

    while live:
        # windows of width 1 resolve directly
        still = []
        for t in live:
            if t[4] - t[3] == 1:
                answers[(t[1], t[2])] = _from_u(t[3])
            else:
                still.append(t)
        live = still
        if not live:
            break
        shifts = {t[0]: max(0, (t[4] - t[3] - 1).bit_length()
                            - LEVEL_BITS) for t in live}
        by_grp = {}
        for t in live:
            by_grp.setdefault(t[1], []).append(
                (t[0], t[3], t[4], shifts[t[0]]))
        win_ref = ray.put(by_grp)

        def level_part(b: pa.Table) -> pa.Table:
            wins = ray.get(win_ref)
            g = np.asarray(b.column(group_col).to_pylist(), object)
            u = _to_u(b.column(value_col).to_numpy().astype(np.int64))
            c = b.column("cnt").to_numpy().astype(np.int64)
            tids, subs, cnts = [], [], []
            codes, inv = np.unique(g, return_inverse=True)
            for ci, gg in enumerate(codes):
                ws = wins.get(gg)
                if not ws:
                    continue
                sel = inv == ci
                uu, cc = u[sel], c[sel]
                for wtid, lo, hi, sh in ws:
                    m = (uu >= np.uint64(lo)) & (uu <= np.uint64(hi - 1))
                    if not m.any():
                        continue
                    sub = ((uu[m] - np.uint64(lo))
                           >> np.uint64(sh)).astype(np.int64)
                    us, si = np.unique(sub, return_inverse=True)
                    sc = np.zeros(len(us), np.int64)
                    np.add.at(sc, si, cc[m])
                    tids.append(np.full(len(us), wtid, np.int64))
                    subs.append(us)
                    cnts.append(sc)
            if not tids:
                return pa.table({"tid": pa.array([], pa.int64()),
                                 "sub": pa.array([], pa.int64()),
                                 "cnt_part": pa.array([], pa.int64())})
            return pa.table({"tid": pa.array(np.concatenate(tids)),
                             "sub": pa.array(np.concatenate(subs)),
                             "cnt_part": pa.array(np.concatenate(cnts))})

        lvl = hist.map_batches(level_part, batch_format="pyarrow") \
            .groupby(["tid", "sub"]) \
            .aggregate(Sum("cnt_part", alias_name="cnt")).take_all()
        per_tid: dict[int, list] = {}
        for r in lvl:
            per_tid.setdefault(int(r["tid"]), []).append(
                (int(r["sub"]), int(r["cnt"])))
        nxt = []
        for t in live:
            wtid, grp, lbl, lo, hi, rank = t
            rows_t = sorted(per_tid.get(wtid, []))
            if not rows_t:
                raise RuntimeError(
                    f"quantile descent lost target {grp}/{lbl}")
            subs_a = np.asarray([s for s, _ in rows_t], np.int64)
            cum = np.cumsum([c for _, c in rows_t])
            i = int(np.searchsorted(cum, rank, side="left"))
            sub = int(subs_a[i])
            below = int(cum[i - 1]) if i else 0
            sh = shifts[wtid]
            nlo = lo + (sub << sh)
            nhi = min(hi, nlo + (1 << sh))
            if sh == 0:  # sub IS the value offset: resolved
                answers[(grp, lbl)] = _from_u(nlo)
            else:
                nxt.append([wtid, grp, lbl, nlo, nhi, rank - below])
        live = nxt

    # deterministic output order: groups sorted, labels in caller order
    labels = [float(q) for q in qs]
    lpos = {}
    for i, lb in enumerate(labels):
        lpos.setdefault(lb, i)
    rows = sorted(answers.items(),
                  key=lambda kv: (kv[0][0], lpos.get(kv[0][1],
                                                     len(labels)),
                                  kv[0][1]))
    return pa.table({
        group_col: pa.array([g for (g, _), _ in rows], pa.string()),
        "q": pa.array([lb for (_, lb), _ in rows], pa.float64()),
        "quantile": pa.array([v for _, v in rows], pa.int64()),
    })


# ---------------------------------------------------------------------------
# float64 quantiles via the IEEE-754 order isomorphism
# ---------------------------------------------------------------------------

_MAG = np.int64(0x7FFFFFFFFFFFFFFF)


def float_order_key(x: np.ndarray) -> np.ndarray:
    """Finite float64 -> int64 key, strictly order-preserving: positive
    floats (and +0.0) keep their bit pattern; negative floats flip the
    magnitude bits so larger-magnitude negatives sort lower. -0.0
    normalizes to +0.0 first (SQL comparison treats them equal). NaNs
    raise — filter them before asking for quantiles."""
    x = np.asarray(x, np.float64)
    if np.isnan(x).any():
        raise ValueError("NaN values have no quantile order; filter "
                         "them first")
    x = x + 0.0  # -0.0 -> +0.0
    b = x.view(np.int64)
    return np.where(b >= 0, b, b ^ _MAG)


def float_from_key(k: np.ndarray) -> np.ndarray:
    """Inverse of ``float_order_key``."""
    k = np.asarray(k, np.int64)
    b = np.where(k >= 0, k, k ^ _MAG)
    return b.view(np.float64)


def group_quantiles_float(ds, group_col: str, value_col: str,
                          qs=DEFAULT_QS) -> pa.Table:
    """Exact per-group ``quantile_disc`` over a float64 column: maps
    values to order-isomorphic int64 keys, runs the integer machinery,
    and maps the answers back — bit-exact vs DuckDB on finite inputs
    (every returned quantile is an element of the input)."""

    def to_key(b: pa.Table) -> pa.Table:
        v = b.column(value_col).to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        return pa.table({
            group_col: b.column(group_col),
            "__qkey": pa.array(float_order_key(v)),
        })

    keyed = ds.map_batches(to_key, batch_format="pyarrow")
    t = group_quantiles(keyed, group_col, "__qkey", qs=qs)
    return pa.table({
        group_col: t.column(group_col),
        "q": t.column("q"),
        "quantile": pa.array(float_from_key(
            t.column("quantile").to_numpy().astype(np.int64))),
    })
