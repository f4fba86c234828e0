"""Cross-feature integration fuzz: random corpora through random
(tokenizer, stem, P, S, block_size, positions) configs, then a
random update and a compact, comparing WAND and exhaustive top-k, in-process
and on the default (per-bucket Ray task) path, against the dict-based oracle
at every step.

Per-feature suites cover each axis in isolation; this test exercises the
INTERACTIONS (positions x tombstones x salted stripes x WAND bounds x stem
doclen accounting) that no single-feature test composes. Seeded, so a
failure reproduces exactly.
"""

from __future__ import annotations

import os
import random

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from markdown_query_ray.config import BM25Params, IndexConfig, QueryConfig
from markdown_query_ray.functions.snowball import CachingStemmer
from markdown_query_ray.functions.xapian_tokenizer import (
    simple_tokenize,
    term_counts,
    tokenize,
)
from markdown_query_ray.index.build import build_index
from markdown_query_ray.index.update import compact, update_index
from markdown_query_ray.query import executor as qx
from markdown_query_ray.query.ast import Or, Term

from .oracle import OracleIndex

# stopword-grade head + mid + planted-rare tail + tokenizer corner tokens
VOCAB = (["the", "and", "of"] * 8
         + ["merge", "sort", "query", "index", "shard", "block", "score",
            "posting", "stream", "batch", "actor", "table", "column"] * 2
         + ["zebra", "quartz", "fjord", "glyph", "vexing", "jackdaw",
            "sphinx", "oblong", "kumquat", "parsnip"]
         + ["at&t", "c++", "1,000", "u.n.c.l.e.", "it's", "naïve"])


class DictOracle(OracleIndex):
    """OracleIndex with explicit doc_ids and upsert/remove mutations (the
    parquet-walking constructor is bypassed)."""

    def __init__(self, tokenizer: str, stem: bool):
        self.postings = {}
        self.doclen = {}
        self.urls = {}
        self._stemmer = CachingStemmer() if stem else None
        self._tok = tokenize if tokenizer == "xapian" else simple_tokenize
        self._refresh()

    def _refresh(self):
        self.n_docs = len(self.doclen)
        self.avg_doclen = (sum(self.doclen.values()) / self.n_docs
                           if self.n_docs else 0)

    def upsert(self, doc_id: int, url: str, text: str):
        # replace-by-url: the old doc version is tombstoned
        for old_id, u in list(self.urls.items()):
            if u == url:
                self.remove(old_id)
        counts = term_counts(self._tok(text), stemmer=self._stemmer)
        for term, tf in counts.items():
            self.postings.setdefault(term, {})[doc_id] = tf
        self.doclen[doc_id] = sum(counts.values())
        self.urls[doc_id] = url
        self._refresh()

    def remove(self, doc_id: int):
        for term in list(self.postings):
            self.postings[term].pop(doc_id, None)
            if not self.postings[term]:
                del self.postings[term]
        del self.doclen[doc_id]
        del self.urls[doc_id]
        self._refresh()


def _rows_table(rows: list[tuple[int, str, str]]) -> pa.Table:
    return pa.table({
        "doc_id": pa.array([i for i, _, _ in rows], pa.uint64()),
        "url": pa.array([u for _, u, _ in rows], pa.string()),
        "text": pa.array([t for _, _, t in rows], pa.string()),
    })


def _rand_text(rng: random.Random) -> str:
    return " ".join(rng.choices(VOCAB, k=rng.randint(0, 50)))


def _check_queries(rng: random.Random, idx: str, oracle: DictOracle,
                   label: str):
    params = BM25Params.xapian()
    live_terms = [t for t in oracle.postings if not t.startswith("Z")]
    for _ in range(6):
        nterms = rng.randint(1, 3)
        terms = (rng.sample(live_terms, min(nterms, len(live_terms)))
                 if live_terms else ["the"])
        node = Or([Term(t) for t in terms]) if len(terms) > 1 \
            else Term(terms[0])
        expect = oracle.topk(oracle.score_or(terms, params), 10)
        # in-process, then the default path (one Ray task per bucket when
        # the index has several)
        qc = QueryConfig(k=10, params=params)
        for distributed in (False, None):
            got = qx.search(idx, node, qc, distributed=distributed)
            gids = got.column("doc_id").to_pylist()
            gscores = got.column("score").to_pylist()
            ctx = f"{label} distributed={distributed} terms={terms}"
            assert gids == [d for _, d in expect], ctx
            assert gscores == pytest.approx(
                [s for s, _ in expect], rel=1e-9), ctx


@pytest.mark.parametrize("seed", [11, 23, 37, 59])
def test_build_update_compact_fuzz(ray_session, tmp_path, seed):
    import ray.data

    rng = random.Random(seed)
    tokenizer = rng.choice(["simple", "xapian"])
    stem = tokenizer == "xapian" and rng.random() < 0.7
    # the dropped codec axis: its draw stays so each seed keeps the rest
    rng.choice((0, 1))
    cfg = IndexConfig(
        tokenizer=tokenizer, stem=stem,
        positions=rng.random() < 0.3,
        num_term_parts=rng.choice([1, 2, 4]),
        num_doc_buckets=rng.choice([1, 2, 3]),
        block_size=rng.choice([4, 16, 64]))
    oracle = DictOracle(tokenizer, stem)

    n0 = rng.randint(30, 60)
    rows = [(i, f"u{i}", _rand_text(rng)) for i in range(n0)]
    for i, u, t in rows:
        oracle.upsert(i, u, t)
    base = str(tmp_path / "base.parquet")
    pq.write_table(_rows_table(rows), base)
    idx = str(tmp_path / "idx")
    build_index(idx, dataset=ray.data.read_parquet(base), cfg=cfg,
                total_docs=n0)
    _check_queries(rng, idx, oracle, f"seed={seed} build cfg={cfg}")

    # one random update: replace a few urls, add a few new docs
    next_id = n0
    n_rep = rng.randint(1, 5)
    n_new = rng.randint(1, 5)
    upd = []
    for u in rng.sample([f"u{i}" for i in range(n0)], n_rep):
        upd.append((next_id, u, _rand_text(rng)))
        next_id += 1
    for j in range(n_new):
        upd.append((next_id, f"new{j}", _rand_text(rng)))
        next_id += 1
    for i, u, t in upd:
        oracle.upsert(i, u, t)
    up = str(tmp_path / "upd.parquet")
    pq.write_table(_rows_table(upd), up)
    g = update_index(idx, dataset=ray.data.read_parquet(up))
    assert g["n_docs"] == oracle.n_docs
    assert g["total_doclen"] == sum(oracle.doclen.values())
    _check_queries(rng, idx, oracle, f"seed={seed} updated cfg={cfg}")

    # compact folds segments minus tombstones; results must be unchanged
    cidx = str(tmp_path / "cidx")
    g2 = compact(idx, cidx)
    assert g2["n_docs"] == oracle.n_docs
    _check_queries(rng, idx if rng.random() < 0.3 else cidx, oracle,
                   f"seed={seed} compacted cfg={cfg}")
    assert os.path.exists(os.path.join(cidx, "_manifest.jsonl"))
