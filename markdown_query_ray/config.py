"""Engine configuration dataclasses.

The reference hardcodes its knobs (BM25 params at
xapian-core-1.4.17/include/xapian/weight.h:585-593, flag set at
src/interactive/xapian_utils.rs:583-591); here they are explicit config so the
same engine scales from the 4-CPU test session to a multi-node cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class BM25Params:
    """BM25 parameters.

    Two profiles ship:

    - ``xapian()``: what the reference actually scores with — Enquire's default
      ``BM25Weight`` (k1=1, k2=0, k3=1, b=0.5, min_normlen=0.5, and the
      negative-idf floor ``tw < 2 -> tw*0.5 + 1``; see
      xapian-core-1.4.17/weight/bm25weight.cc:74-116). Used for the
      rank-identity tests against the sequential oracle.
    - ``classic()``: the textbook k1=1.2 / b=0.75 named by the north star,
      with the standard idf ``ln((N - df + 0.5) / (df + 0.5))`` (no floor,
      no (k1+1)/k3 factors) — also what the DuckDB oracle SQL reproduces.
    """

    k1: float = 1.2
    b: float = 0.75
    k3: float = 1.0
    min_normlen: float = 0.0
    idf_floor: bool = False        # xapian: if tw < 2: tw = tw*0.5 + 1
    k1_plus_1_factor: bool = False  # xapian multiplies termweight by (k1+1)
    wqf_factor: bool = False       # xapian k3 factor: (k3+1)*wqf/(k3+wqf)

    @staticmethod
    def xapian() -> "BM25Params":
        return BM25Params(k1=1.0, b=0.5, k3=1.0, min_normlen=0.5,
                          idf_floor=True, k1_plus_1_factor=True,
                          wqf_factor=True)

    @staticmethod
    def classic() -> "BM25Params":
        return BM25Params(k1=1.2, b=0.75, min_normlen=0.0, idf_floor=False,
                          k1_plus_1_factor=False, wqf_factor=False)


@dataclass(frozen=True)
class IndexConfig:
    """Index build configuration.

    num_term_parts (P) and num_doc_buckets (S) define the merge-shuffle key
    ``skey = hash(term) % P * S + doc_bucket``. Doc-range salting (S) is the
    explicit skew handling required by the north rule: a stopword-grade term
    appearing in 60%+ of documents is split across S groups by doc_id range,
    bounding any single shuffle group to ~|rows|/(P*S) regardless of term
    skew. Posting blocks are keyed (term, first_doc_id) so the salted
    sub-lists concatenate into one sorted posting list with no second merge
    pass; only the tiny per-term stats need a final groupby(term) over
    P*S partial rows per term.
    """

    block_size: int = 128            # docs per posting block (Xapian glass uses
                                     # ~2KB chunks; 128 matches block-max WAND lit.)
    num_term_parts: int = 8          # P: term-hash partitions
    num_doc_buckets: int = 1         # S: doc-range salt shards
    max_term_bytes: int = 64         # reference drops terms >64 UTF-8 bytes
                                     # (termgenerator_internal.h:48-49)
    stem: bool = True                # add Z-prefixed Snowball-English stems
                                     # (STEM_SOME; src/main.rs:81)
    tokenizer: str = "xapian"        # "xapian" | "simple" (lowercase whitespace)
    positions: bool = False          # index term positions (enables true
                                     # OP_PHRASE/OP_NEAR; unstemmed terms only,
                                     # as in STEM_SOME — Z-stems are wdf-only,
                                     # termgenerator_internal.cc:284-312)
    cjk_ngram: bool = False          # xapian's optional CJK n-gram mode
                                     # (XAPIAN_CJK_NGRAM / FLAG_CJK_NGRAM):
                                     # CJK runs index as positional unigrams
                                     # + wdf-only bigrams; parity-tested vs
                                     # the real library (xapian mode only)
    store_payload: bool = False      # keep a per-doc payload column in
                                     # tokenized/ for retrieval — the analog
                                     # of Xapian's Document::set_data blob
                                     # (src/document.rs:183); costs storage,
                                     # so off by default at web scale
    docs_per_bucket: int = 1 << 32   # doc_id -> doc_bucket divisor; at 10^12
                                     # docs set so S buckets cover the id space

    # Not settable: the one posting payload coding (LEB128 varint, the glass
    # pack.h analog, for postings and positions alike) and the build's batch
    # sizes. Class constants, not fields; perfbench reads ``codec`` and
    # ``postings_batch_size``.
    codec = "varint"
    tokenize_batch_size = 256  # docs per tokenize batch (web pages are fat)
    # docs per map-side-combine batch in the merge shuffle: bigger batches
    # combine more postings per (skey, term) row, directly shrinking the
    # all-to-all (200k-doc stress: 256 -> 4.4M shuffle rows / 5.9s sort,
    # 4096 -> 1.4M rows / 0.7s). Tokenized rows are term lists (~2-4 KB/doc),
    # so 4096 docs is ~10-20 MB in flight per task — safe per-worker memory.
    postings_batch_size = 4096

    @classmethod
    def from_gstats(cls, g: dict) -> "IndexConfig":
        """The config an index was built with, from its global stats (the
        settings ``build_index`` records there); a setting an older index
        did not record takes its default."""
        return cls(**{k: g[k] for k in RECORDED_SETTINGS if k in g})

    def doc_bucket_of(self, doc_id):
        if self.num_doc_buckets <= 1:
            return doc_id * 0
        return (doc_id // self.docs_per_bucket) % self.num_doc_buckets


# the IndexConfig fields global_stats.json records: every setting that
# changes what a build writes, so updates and compaction rebuild alike
# (``docs_per_bucket`` is recorded as the build's computed value)
RECORDED_SETTINGS = (
    "num_term_parts", "num_doc_buckets", "docs_per_bucket", "block_size",
    "tokenizer", "stem", "positions", "max_term_bytes", "cjk_ngram",
    "store_payload")


@dataclass(frozen=True)
class QueryConfig:
    """Query execution configuration. k=100 matches the reference's
    ``get_mset(0, 100)`` (src/interactive/xapian_utils.rs:664)."""

    k: int = 100
    params: BM25Params = field(default_factory=BM25Params.xapian)
    # Ignored: the exhaustive evaluation is the only top-k path. Kept for
    # perfbench/workloads.py, which passes use_wand=False; removed by the
    # benchmark-only PR.
    use_wand: bool = True

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"QueryConfig.k must be >= 1, got {self.k}")
