"""BM25 term weighting, matching the reference's math to the float.

Implements BM25Weight exactly as the reference computes it
(xapian-core-1.4.17/weight/bm25weight.cc:46-174, profile
``BM25Params.xapian()``: k1=1, b=0.5, min_normlen=0.5, the negative-idf floor
``tw < 2 -> tw*0.5 + 1``, the (k1+1) factor and the k3/wqf factor), and the
classic textbook profile (``BM25Params.classic()``: k1=1.2, b=0.75, raw
``ln((N - df + 0.5)/(df + 0.5))`` idf) named by the north star and mirrored
by the DuckDB oracle SQL.

``math.log`` (libm) is used for the scalar per-term weight — the same call
DuckDB makes — so oracle comparisons agree to the last ulp in practice; the
vectorized per-document part is plain IEEE +,*,/ with a fixed evaluation
order, bit-stable across partitionings.
"""

from __future__ import annotations

import math

import numpy as np

from ..config import BM25Params


class TermWeight:
    """Per-(query,term) weight: scalar init once, vectorized per-doc part."""

    __slots__ = ("params", "termweight", "len_factor")

    def __init__(self, params: BM25Params, n_docs: int, avg_doclen: float,
                 termfreq: int, wqf: int = 1):
        self.params = params
        if termfreq <= 0 or n_docs <= 0:
            self.termweight = 0.0
            self.len_factor = 0.0
            return
        tw = (n_docs - termfreq + 0.5) / (termfreq + 0.5)
        if params.idf_floor and tw < 2.0:
            tw = tw * 0.5 + 1.0  # xapian negative-idf floor (bm25weight.cc:106)
        w = math.log(tw)
        if not params.idf_floor and w < 0.0:
            w = 0.0  # classic profile: clamp negative idf (standard practice,
            #          keeps maxpart bounds nonnegative; mirrored in oracle SQL)
        if params.wqf_factor and params.k3 != 0:
            w *= (params.k3 + 1.0) * wqf / (params.k3 + wqf)
        if params.k1_plus_1_factor:
            w *= params.k1 + 1.0
        self.termweight = w
        # bm25weight.cc:118-128: doclen does not matter if k2==0 and
        # (b==0 or k1==0); we always have k2=0.
        if params.b == 0.0 or params.k1 == 0.0 or avg_doclen == 0.0:
            self.len_factor = 0.0
        else:
            self.len_factor = 1.0 / avg_doclen

    def sumpart(self, wdf, doclen):
        """Per-document score contribution (bm25weight.cc:163-174).
        Vectorized: wdf/doclen may be numpy arrays."""
        p = self.params
        wdf = np.asarray(wdf, dtype=np.float64)
        doclen = np.asarray(doclen, dtype=np.float64)
        normlen = np.maximum(doclen * self.len_factor, p.min_normlen)
        denom = p.k1 * (normlen * p.b + (1.0 - p.b)) + wdf
        return self.termweight * (wdf / denom)

    def maxpart_global(self, wdf_ub: int, doclen_lb: int) -> float:
        """BM25Weight::get_maxpart (bm25weight.cc:176-201): the per-doc part
        at the wdf upper bound and at doclen >= wdf_ub (a doc's length is at
        least the wdf of any of its terms); 0 when the bound is 0."""
        if wdf_ub == 0:
            return 0.0
        return float(self.sumpart(wdf_ub, max(doclen_lb, wdf_ub)))


def synonym_termfreq_estimate(freqs: list[int], n_docs: int) -> int:
    """Termfreq estimate for OP_SYNONYM subtrees, reproduced EXACTLY as
    xapian computes it: the multi-way OR is a Huffman-style binary tree
    built from a min-termfreq heap (api/queryinternal.cc:219-251), and each
    OrPostList node rounds its independence estimate
    ``l + r - l*r/N`` to integer with +0.5 (matcher/orpostlist.cc:290-301).
    The per-node integer rounding and combine order are observable in the
    pseudo-term idf, so they must be copied, not improved (SURVEY.md §7.3
    item 3; verified to the float against the real library in
    tests/test_xapian_parity.py)."""
    if n_docs <= 0 or not freqs:
        return 0
    import heapq

    h = [int(f) for f in freqs]
    heapq.heapify(h)
    while len(h) > 1:
        r = heapq.heappop(h)
        l = heapq.heappop(h)
        heapq.heappush(h, int(l + r - (l * r) / n_docs + 0.5))
    return h[0]
