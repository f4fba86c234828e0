"""HyperLogLog registers + estimate (pipelines/sketches.py). The
register-table oracle itself runs in tests/test_driver_contract.py
(hll_user_registers is an oracle-backed extra entry); here: merge
semantics, estimate accuracy, and the exactness claims."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from markdown_query_ray.pipelines.sketches import (
    _rho_trailing,
    hll_estimate,
    hll_hash_u64,
    hll_partial_batch,
    hll_registers,
)

# exact arithmetic: a RuntimeWarning here is an engine bug, not noise
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _ds(keys, parts=4):
    t = pa.table({"k": pa.array(np.asarray(keys, np.int64))})
    return ray.data.from_arrow(t).repartition(parts)


def test_rho_trailing_exact():
    w = np.array([0, 1, 2, 3, 4, 8, 6, (1 << 51), (1 << 52) - 1],
                 np.uint64)
    # 1 + trailing zeros; 0 -> width+1
    assert _rho_trailing(w, 52).tolist() == [53, 1, 2, 1, 3, 4, 2, 52, 1]


def test_partials_merge_to_single_pass(ray_session):
    rng = np.random.Generator(np.random.PCG64(7))
    keys = rng.integers(0, 5000, size=40_000)
    one = hll_partial_batch(pa.table({"k": pa.array(keys)}), "k", 12)
    multi = hll_registers(_ds(keys, parts=9), "k", p=12).to_pandas() \
        .sort_values("bucket").reset_index(drop=True)
    assert multi["bucket"].tolist() == one.column("bucket").to_pylist()
    assert multi["maxrho"].tolist() == one.column("rho_part").to_pylist()


def test_parallelism_invariant(ray_session):
    keys = np.arange(100_000) % 31_337
    a = hll_registers(_ds(keys, 3), "k").to_pandas().sort_values("bucket")
    b = hll_registers(_ds(keys, 17), "k").to_pandas().sort_values("bucket")
    assert a.reset_index(drop=True).equals(b.reset_index(drop=True))


def test_estimate_accuracy(ray_session):
    for n, tol in [(150, 0.08), (5_000, 0.05), (200_000, 0.05)]:
        keys = np.arange(n, dtype=np.int64) * 2_654_435_761 % (1 << 40)
        regs = hll_registers(_ds(np.repeat(keys, 2), 6), "k") \
            .to_pandas()
        t = pa.table({"bucket": pa.array(regs["bucket"], pa.int64()),
                      "maxrho": pa.array(regs["maxrho"], pa.int64())})
        est = hll_estimate(t)
        n_exact = len(np.unique(keys))
        assert abs(est - n_exact) / n_exact < tol, (n, est)


def test_hash_matches_bytes_reference():
    from markdown_query_ray.functions.hashing import fnv1a_bytes

    keys = np.array([0, 1, -1, 123456789, -987654321], np.int64)
    got = hll_hash_u64(keys)
    want = [fnv1a_bytes(int(np.uint64(k)).to_bytes(8, "little"))
            for k in keys.view(np.uint64)]
    assert got.tolist() == want


def test_empty_input(ray_session):
    regs = hll_registers(_ds([], 2), "k").to_pandas()
    assert len(regs) == 0
    assert hll_estimate(pa.table({"bucket": pa.array([], pa.int64()),
                                  "maxrho": pa.array([], pa.int64())})) \
        >= 0.0


# ---------------------------------------------------------------------------
# Count-Min sketch
# ---------------------------------------------------------------------------

def _text_ds(texts, parts=4):
    import ray.data

    return ray.data.from_arrow(pa.table({
        "text": pa.array(texts, pa.string())})).repartition(parts)


def _exact_counts(texts):
    from collections import Counter

    c = Counter()
    for t in texts:
        c.update(w for w in t.split(" ") if w)
    return c


def test_cms_registers_match_direct_counting(ray_session):
    """The distributed register table equals a single-pass direct
    count into the same (row, cell) matrix — merge by addition is
    exact, independent of partitioning."""
    from markdown_query_ray.pipelines.sketches import (
        cms_hash_cells,
        cms_registers,
    )

    rng = np.random.default_rng(5)
    vocab = [f"w{i}" for i in range(300)]
    texts = [" ".join(rng.choice(vocab, rng.integers(3, 30)))
             for _ in range(400)]
    depth, width = 4, 256
    got = {}
    for parts in (2, 9):
        t = cms_registers(_text_ds(texts, parts), "text", depth=depth,
                          width=width).to_pandas()
        got[parts] = sorted(zip(t["row"], t["cell"], t["cnt"]))
    assert got[2] == got[9]  # parallelism-invariant

    exact = _exact_counts(texts)
    toks = pa.array(list(exact.keys()), pa.string())
    cells = cms_hash_cells(toks, depth, width)
    regs = np.zeros((depth, width), np.int64)
    cnts = np.asarray(list(exact.values()), np.int64)
    for r in range(depth):
        np.add.at(regs[r], cells[r], cnts)
    rr, cc = np.nonzero(regs)
    want = sorted(zip(rr.tolist(), cc.tolist(), regs[rr, cc].tolist()))
    assert got[2] == want


def test_cms_estimate_guarantees(ray_session):
    """Point estimates never undercount, and the overestimate obeys
    the epsilon*N bound with a comfortable margin at depth 4."""
    from markdown_query_ray.pipelines.sketches import (
        cms_estimate,
        cms_registers,
    )

    rng = np.random.default_rng(11)
    # zipf-ish: heavy head + long tail, small width to force collisions
    vocab = [f"t{i}" for i in range(2000)]
    weights = 1.0 / np.arange(1, len(vocab) + 1)
    weights /= weights.sum()
    texts = [" ".join(rng.choice(vocab, 40, p=weights))
             for _ in range(300)]
    exact = _exact_counts(texts)
    n_total = sum(exact.values())
    depth, width = 4, 128
    regs = cms_registers(_text_ds(texts), "text", depth=depth,
                         width=width).to_pandas()
    t = pa.table({"row": pa.array(regs["row"], pa.int64()),
                  "cell": pa.array(regs["cell"], pa.int64()),
                  "cnt": pa.array(regs["cnt"], pa.int64())})
    words = list(exact.keys())[:200]
    est = cms_estimate(t, words, depth=depth, width=width)
    over = []
    for w in words:
        assert est[w] >= exact[w], (w, est[w], exact[w])  # one-sided
        over.append(est[w] - exact[w])
    # CMS bound: err <= e/width * N w.p. 1 - e^-depth; allow the bound
    import math

    assert max(over) <= math.e / width * n_total * 2


def test_cms_empty_and_null(ray_session):
    from markdown_query_ray.pipelines.sketches import cms_registers

    t = pa.table({"text": pa.array(["", None, "   ", "a a"],
                                   pa.string())})
    import ray.data

    regs = cms_registers(ray.data.from_arrow(t), "text",
                         depth=2, width=16).to_pandas()
    # only the two 'a' occurrences count
    assert sorted(regs["cnt"].tolist()) == [2, 2]
