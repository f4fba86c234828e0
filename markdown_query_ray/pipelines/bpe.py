"""Trained byte-level BPE: distributed word counting, driver-bounded
merge learning, distributed actor-pool encoding.

The trained-tokenizer complement of ``textstats.BPE_PATTERN``'s
regex-only token counting (the same heuristic -> trained split as
``langid`` -> ``langid_ngram``): train a byte-level BPE vocabulary over
a corpus Dataset, then tokenize the corpus with it — the standard
front half of an LLM training-data pipeline (Sennrich, Haddow & Birch
2016, ACL — "Neural Machine Translation of Rare Words with Subword
Units"; byte-level variant per GPT-2, Radford et al. 2019).

Scale shape (what goes where at 10^12 docs):

1. **Word counting is the only corpus-scale pass** — one map-side
   ``value_counts`` partial per batch, then ONE ``groupby(word)``
   exchange. Pre-tokenization is the GPT-2-shape regex evaluated
   entirely inside Arrow's RE2 kernel (match-tiling rewrite + split —
   no Python per row).
2. **Training state is vocabulary-bounded, never corpus-bounded**: the
   aggregated (word, freq) table is materialized (narrow, ~vocab-sized
   — the standard design: GPT-2-class tokenizers train from the word
   histogram, not the corpus), the top ``top_words`` rows by
   (freq DESC, word ASC) are collected, and the merge loop runs
   single-node over that bounded table with incremental pair-count
   maintenance. The dropped tail's mass is logged, never silent.
3. **Encoding is an actor pool**: merge ranks ship once per actor via
   the object store; per batch the RE2 pre-tokenizer runs vectorized
   and the merge loop runs once per DISTINCT pre-token (Arrow
   dictionary-encode + a cross-batch cache — Zipf makes the distinct
   set tiny relative to occurrences), with per-row token lists
   assembled by numpy gather.

Determinism: merge selection is (count DESC, pair ASC) — a total
order, so training is parallelism-invariant (the word histogram is
exact regardless of partitioning). Encoding applies merges greedily
left-to-right, all occurrences per step, in rank order — identical to
the training rewrite, so training-set words re-encode to their
training end-state (property-tested).

No SQL oracle: the merge loop is data-dependently iterative (each
merge changes the pair statistics the next merge is chosen from),
outside DuckDB's recursion-with-aggregation envelope — correctness is
pinned by a from-scratch naive-recount reference trainer (parity on
random corpora), a known-by-hand fixture, round-trip byte identity,
and parallelism-invariance tests instead (tests/test_bpe.py).

NUL guard: the vectorized pre-tokenizer tiles matches with a '\\x00'
separator, so NUL bytes are stripped from the text first (documented
loss; NUL is not meaningful web text).
"""

from __future__ import annotations

import os
from functools import partial

import numpy as np
import pyarrow as pa

from .textstats import BPE_PATTERN


def _ragged_gather(values: np.ndarray, starts: np.ndarray,
                   lens: np.ndarray) -> np.ndarray:
    """Concatenate values[starts[k] : starts[k]+lens[k]] for all k —
    vectorized (no per-row Python; zero-length rows fine)."""
    cum = np.cumsum(lens)
    total = int(cum[-1]) if len(cum) else 0
    if not total:
        return values[:0]
    out_idx = np.arange(total, dtype=np.int64)
    row = np.searchsorted(cum, out_idx, side="right")
    return values[starts[row] + out_idx - (cum[row] - lens[row])]

_SEP = "\x00"


# ---------------------------------------------------------------------------
# vectorized pre-tokenization (GPT-2-shape regex, RE2 kernels only)
# ---------------------------------------------------------------------------

def pretoken_lists(col) -> pa.ChunkedArray:
    """list<string> of BPE_PATTERN pre-tokens per row, fully inside
    Arrow: the pattern's alternation tiles every string (\\s+ plus the
    catch-all class cover all codepoints), so rewriting each match to
    itself + separator and splitting on the separator yields exactly
    the match sequence (plus one trailing "" residue per row, which
    every consumer drops / encodes to nothing)."""
    import pyarrow.compute as pc

    col = pc.fill_null(col, "")
    col = pc.replace_substring(col, _SEP, "")
    tagged = pc.replace_substring_regex(
        col, BPE_PATTERN, replacement="\\0" + _SEP)
    return pc.split_pattern(tagged, _SEP)


def word_count_partials(batch: pa.Table, text_col: str = "text"
                        ) -> pa.Table:
    """Map-side combine: (word, freq) distinct within the batch."""
    import pyarrow.compute as pc

    flat = pc.list_flatten(pretoken_lists(batch.column(text_col)))
    flat = flat.filter(pc.not_equal(flat, ""))
    vc = pc.value_counts(flat)
    return pa.table({"word": vc.field("values"),
                     "freq": vc.field("counts").cast(pa.int64())})


def bpe_word_counts(ds, text_col: str = "text"):
    """Exact global (word, freq) Dataset — map-side partials, one
    groupby exchange."""
    from functools import partial

    from ray.data.aggregate import Sum

    return ds.map_batches(
        partial(word_count_partials, text_col=text_col),
        batch_format="pyarrow",
    ).groupby("word").aggregate(Sum("freq", alias_name="freq"))


# ---------------------------------------------------------------------------
# merge learning (single-node over the bounded word histogram)
# ---------------------------------------------------------------------------

def _pairs(seq: list) -> zip:
    return zip(seq, seq[1:])


def _rewrite(seq: list, a: int, b: int, new: int) -> list:
    """Greedy left-to-right replacement of every (a, b) with ``new`` —
    THE rewrite semantics shared by training and encoding."""
    out = []
    j = 0
    n = len(seq)
    while j < n:
        if j + 1 < n and seq[j] == a and seq[j + 1] == b:
            out.append(new)
            j += 2
        else:
            out.append(seq[j])
            j += 1
    return out


def train_merges(words: list[bytes], freqs: list[int], n_merges: int,
                 min_freq: int = 2) -> list[tuple[int, int]]:
    """Byte-level BPE merge learning with incremental pair-count
    maintenance: each chosen merge touches only the words that contain
    the pair (tracked per pair), removing their old pair contributions
    and re-adding the rewritten ones — O(affected words) per merge
    instead of a full histogram recount. Selection = (count DESC,
    pair ASC); stops early when the best count falls below
    ``min_freq``. Symbol ids: 0..255 = bytes, 256+i = merge i."""
    from collections import defaultdict

    seqs = [list(w) for w in words]
    pair_cnt: dict[tuple[int, int], int] = defaultdict(int)
    pair_words: dict[tuple[int, int], set] = defaultdict(set)
    for i, s in enumerate(seqs):
        f = freqs[i]
        for p in _pairs(s):
            pair_cnt[p] += f
            pair_words[p].add(i)
    merges: list[tuple[int, int]] = []
    for step in range(n_merges):
        best = None
        best_cnt = min_freq - 1
        for p, c in pair_cnt.items():
            if c > best_cnt or (c == best_cnt and best is not None
                                and p < best):
                best, best_cnt = p, c
        if best is None:
            break
        a, b = best
        new = 256 + len(merges)
        merges.append(best)
        # pair_words can hold stale members (word rewritten since) —
        # harmless: removing then re-adding an unchanged word's pairs
        # is a net zero
        for i in pair_words.pop(best, ()):
            s = seqs[i]
            f = freqs[i]
            for p in _pairs(s):
                pair_cnt[p] -= f
            t = _rewrite(s, a, b, new)
            seqs[i] = t
            for p in _pairs(t):
                pair_cnt[p] += f
                pair_words[p].add(i)
        for p in [p for p, c in pair_cnt.items() if c <= 0]:
            del pair_cnt[p]
    return merges


def train_merges_reference(words: list[bytes], freqs: list[int],
                           n_merges: int, min_freq: int = 2
                           ) -> list[tuple[int, int]]:
    """Naive full-recount trainer — the parity reference for
    :func:`train_merges` (recomputes the whole pair histogram every
    step; shares only the rewrite helper)."""
    from collections import defaultdict

    seqs = [list(w) for w in words]
    merges: list[tuple[int, int]] = []
    for step in range(n_merges):
        cnt: dict[tuple[int, int], int] = defaultdict(int)
        for s, f in zip(seqs, freqs):
            for p in _pairs(s):
                cnt[p] += f
        if not cnt:
            break
        best = min(cnt.items(), key=lambda kv: (-kv[1], kv[0]))
        if best[1] < min_freq:
            break
        a, b = best[0]
        merges.append(best[0])
        seqs = [_rewrite(s, a, b, 256 + step) for s in seqs]
    return merges


class BpeModel:
    """Trained model: ``merges[i]`` is the pair merged into symbol
    256+i; ``vocab[sym]`` is the byte sequence a symbol expands to."""

    def __init__(self, merges: list[tuple[int, int]]):
        self.merges = list(merges)
        self.ranks = {p: r for r, p in enumerate(self.merges)}
        vocab = [bytes([i]) for i in range(256)]
        for a, b in self.merges:
            vocab.append(vocab[a] + vocab[b])
        self.vocab = vocab

    # -- persistence (parquet-checkpointable) --
    def to_table(self) -> pa.Table:
        a = [p[0] for p in self.merges]
        b = [p[1] for p in self.merges]
        return pa.table({"rank": pa.array(range(len(a)), pa.int32()),
                         "a": pa.array(a, pa.int32()),
                         "b": pa.array(b, pa.int32())})

    @classmethod
    def from_table(cls, t: pa.Table) -> "BpeModel":
        t = t.sort_by("rank")
        return cls(list(zip(t.column("a").to_pylist(),
                            t.column("b").to_pylist())))

    # -- encode / decode --
    def encode_word(self, w: bytes) -> list[int]:
        s = list(w)
        ranks = self.ranks
        while len(s) >= 2:
            best_r = None
            for p in _pairs(s):
                r = ranks.get(p)
                if r is not None and (best_r is None or r < best_r):
                    best_r = r
            if best_r is None:
                break
            a, b = self.merges[best_r]
            s = _rewrite(s, a, b, 256 + best_r)
        return s

    def encode(self, text: str) -> list[int]:
        """Driver-side convenience (tests / small strings); the corpus
        path is :class:`BpeEncodeStage`."""
        parts = pretoken_lists(pa.chunked_array([pa.array([text or ""])]))
        out: list[int] = []
        for tok in parts.combine_chunks().to_pylist()[0]:
            if tok:
                out.extend(self.encode_word(tok.encode("utf-8")))
        return out

    def decode(self, ids) -> str:
        return b"".join(self.vocab[int(i)] for i in ids).decode(
            "utf-8", errors="replace")


def _log_tail_drop(kept_rows: int, total_rows: int,
                   kept_mass: int, total_mass: int) -> None:
    import logging

    logging.getLogger(__name__).warning(
        "bpe_train: word histogram capped to top %d of %d distinct "
        "pre-tokens (%.4f%% of occurrence mass kept; the dropped tail "
        "still encodes through byte fallback, it just casts no vote on "
        "merge selection)",
        kept_rows, total_rows,
        100.0 * kept_mass / max(total_mass, 1))


def bpe_train(ds, n_merges: int = 4096, top_words: int = 65536,
              min_freq: int = 2, text_col: str = "text") -> BpeModel:
    """Train over a Dataset: one corpus-scale counting pass, then the
    bounded-histogram merge loop on the driver. The word table is
    materialized (vocab-sized, narrow) so total-mass accounting and the
    top-``top_words`` cut reuse one execution."""
    from .equijoin import collect_arrow

    wc = bpe_word_counts(ds, text_col=text_col).materialize()
    top = wc.sort(["freq", "word"], descending=[True, False]) \
            .limit(top_words)
    t = collect_arrow(top, pa.schema([("word", pa.string()),
                                      ("freq", pa.int64())]))
    total = wc.sum("freq") or 0
    n_rows = wc.count()
    freqs = t.column("freq").to_pylist()
    if n_rows > t.num_rows:
        _log_tail_drop(t.num_rows, n_rows, sum(freqs), int(total))
    words = [w.encode("utf-8") for w in t.column("word").to_pylist()]
    return BpeModel(train_merges(words, freqs, n_merges,
                                 min_freq=min_freq))


# ---------------------------------------------------------------------------
# distributed encode (actor pool)
# ---------------------------------------------------------------------------

class BpeEncodeStage:
    """Actor-pool tokenizer: ranks arrive once per actor (pass a
    ``ray.put`` ref of ``model.to_table()``); per batch one vectorized
    pre-tokenize, one dictionary-encode, and the merge loop only over
    distinct pre-tokens (cross-batch cache, capped)."""

    _CACHE_CAP = 1 << 20

    def __init__(self, model_ref, text_col: str = "text",
                 id_col: str = "doc_id"):
        import ray

        t = ray.get(model_ref) if isinstance(model_ref, ray.ObjectRef) \
            else model_ref
        self.model = BpeModel.from_table(t) if isinstance(t, pa.Table) \
            else t
        self.text_col = text_col
        self.id_col = id_col
        self._cache: dict[str, np.ndarray] = {}

    def _encode_distinct(self, tok: str) -> np.ndarray:
        got = self._cache.get(tok)
        if got is None:
            got = np.asarray(
                self.model.encode_word(tok.encode("utf-8")), np.int32)
            if len(self._cache) >= self._CACHE_CAP:
                self._cache.clear()
            self._cache[tok] = got
        return got

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        parts = pretoken_lists(batch.column(self.text_col)) \
            .combine_chunks()
        values = parts.values
        dict_arr = pc.dictionary_encode(values)
        indices = dict_arr.indices.to_numpy(zero_copy_only=False)
        dictionary = dict_arr.dictionary.to_pylist()
        enc = [self._encode_distinct(tok) for tok in dictionary]
        lens = np.asarray([len(e) for e in enc], np.int64)
        # per-occurrence encoded ids via a vectorized ragged gather over
        # the distinct-token encodings (Python ran only over DISTINCTs)
        if len(indices):
            flat = (np.concatenate(enc).astype(np.int32) if enc
                    else np.empty(0, np.int32))
            starts = np.concatenate(([0], np.cumsum(lens)))[:-1]
            tok_lens = lens[indices]
            ids = _ragged_gather(flat, starts[indices], tok_lens)
        else:
            ids = np.empty(0, np.int32)
            tok_lens = np.empty(0, np.int64)
        row_off = parts.offsets.to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        pre_cum = np.concatenate(([0], np.cumsum(tok_lens)))
        row_tok_off = pre_cum[row_off]
        out_ids = pa.LargeListArray.from_arrays(
            pa.array(row_tok_off, pa.int64()),
            pa.array(ids, pa.int32()))
        n_tok = np.diff(row_tok_off)
        return pa.table({
            self.id_col: batch.column(self.id_col),
            "token_ids": out_ids,
            "n_tokens": pa.array(n_tok, pa.int64()),
        })


def bpe_pack_shards(ds, model: BpeModel, out_dir: str,
                    seq_len: int = 512, seqs_per_shard: int = 4096,
                    range_size: int = 1 << 18,
                    text_col: str = "text", id_col: str = "doc_id",
                    concurrency=(1, 8)) -> pa.Table:
    """Corpus -> packed fixed-length training shards: the tokenize step
    of an LLM data pipeline end to end. Documents are BPE-encoded
    (actor pool), concatenated in doc_id order, sliced every
    ``seq_len`` tokens (GPT-2/3-style concat-and-chunk; the final
    partial sequence is dropped, standard practice), and written as
    one parquet file per ``seqs_per_shard`` sequences. Returns the
    shard manifest (shard_id, n_seqs, n_tokens, path), sorted.

    Scale shape — the token stream shuffles exactly twice, both times
    as contiguous ranges:

    1. a 16-byte/doc (doc_id, n_tokens) projection feeds the same
       two-level exclusive prefix scan as ``packing.pack_sequences``
       (driver holds one int64 per ``range_size``-doc bucket);
    2. ``groupby(doc_id // range_size)`` co-locates each bucket's
       encoded docs WITH its scan base: inside the group the docs
       sort by doc_id, their flattened tokens get global positions
       base + arange, and the group emits (seq_id, start_in_seq,
       ids-chunk) rows split at sequence boundaries — all numpy, no
       per-token Python;
    3. ``groupby(seq_id // seqs_per_shard)`` assembles each shard's
       contiguous token range, re-slices every ``seq_len``, and writes
       the shard parquet ATOMICALLY (``checkpoint.write_table`` —
       deterministic content, so crash re-runs are idempotent and a
       finished shard is never half-visible).

    ``range_size`` bounds a bucket group's token payload in worker
    heap (~0.5 GB at 2^18 docs x 500 tokens) while keeping the driver's
    base array small (8 B/bucket). Offsets are a pure function of
    (doc_id, n_tokens): output is invariant to partitioning, cluster
    size, and resume."""
    import ray
    import ray.data
    from ray.data.aggregate import Sum

    from .packing import _bucket_partials

    os.makedirs(out_dir, exist_ok=True)
    enc = bpe_encode(ds, model, text_col=text_col, id_col=id_col,
                     concurrency=concurrency).materialize()

    counts = enc.map_batches(
        lambda b: b.select([id_col, "n_tokens"]),
        batch_format="pyarrow")
    totals = counts.map_batches(
        partial(_bucket_partials, range_size=range_size, id_col=id_col),
        batch_format="pyarrow") \
        .groupby("bucket").aggregate(Sum("tok_part", alias_name="toks"))
    tt = totals.sort("bucket").to_pandas()
    toks = tt["toks"].to_numpy(np.int64)
    buckets = tt["bucket"].to_numpy(np.int64)
    excl = np.concatenate(([0], np.cumsum(toks)[:-1]))
    total_tokens = int(toks.sum())
    n_seqs_total = total_tokens // seq_len
    # dict keyed by PRESENT bucket ids (same scheme as
    # packing.pack_sequences): size tracks occupied buckets, not
    # max(doc_id) — a sparse/hashed 64-bit id space stays ~16 B per
    # occupied bucket instead of a max(id)//range_size dense array,
    # and negative ids floor-divide to valid (negative) keys
    bases = {int(b): int(e) for b, e in zip(buckets, excl)}
    base_ref = ray.put(bases)

    def add_bucket(b: pa.Table) -> pa.Table:
        bk = b.column(id_col).to_numpy().astype(np.int64) // range_size
        return b.append_column("bucket", pa.array(bk))

    def slice_group(group: pa.Table) -> pa.Table:
        ids = group.column(id_col).to_numpy().astype(np.int64)
        order = np.argsort(ids, kind="stable")
        la = group.column("token_ids").combine_chunks()
        v = la.values.to_numpy(zero_copy_only=False).astype(np.int32)
        off = la.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        # flatten in doc_id order: global position = base + arange
        flat = _ragged_gather(v, off[:-1][order], np.diff(off)[order])
        if not len(flat):
            return pa.table({
                "seq_id": pa.array([], pa.int64()),
                "start_in_seq": pa.array([], pa.int64()),
                "ids": pa.array([], pa.large_list(pa.int32())),
            })
        base = int(ray.get(base_ref).get(int(ids[0] // range_size), 0))
        pos = base + np.arange(len(flat), dtype=np.int64)
        seq = pos // seq_len
        cut = np.flatnonzero(seq[1:] != seq[:-1]) + 1
        offs = np.concatenate(([0], cut, [len(flat)]))
        heads = offs[:-1]
        return pa.table({
            "seq_id": pa.array(seq[heads]),
            "start_in_seq": pa.array(pos[heads] % seq_len),
            "ids": pa.LargeListArray.from_arrays(
                pa.array(offs, pa.int64()), pa.array(flat, pa.int32())),
        })

    chunks = enc.map_batches(add_bucket, batch_format="pyarrow") \
        .groupby("bucket").map_groups(slice_group, batch_format="pyarrow")

    def add_shard(b: pa.Table) -> pa.Table:
        sh = b.column("seq_id").to_numpy().astype(np.int64) \
            // seqs_per_shard
        return b.append_column("shard", pa.array(sh))

    def write_shard(group: pa.Table) -> pa.Table:
        from .. import checkpoint

        if group.num_rows == 0:
            return pa.table({"shard_id": pa.array([], pa.int64()),
                             "n_seqs": pa.array([], pa.int64()),
                             "n_tokens": pa.array([], pa.int64()),
                             "path": pa.array([], pa.string())})
        sid = group.column("seq_id").to_numpy().astype(np.int64)
        start = group.column("start_in_seq").to_numpy().astype(np.int64)
        order = np.lexsort((start, sid))
        la = group.column("ids").combine_chunks()
        v = la.values.to_numpy(zero_copy_only=False).astype(np.int32)
        off = la.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        flat = _ragged_gather(v, off[:-1][order], np.diff(off)[order])
        shard = int(sid[0] // seqs_per_shard)
        first_seq = shard * seqs_per_shard
        n_full = len(flat) // seq_len  # chunks are cut at seq
        # boundaries so a shard's range is contiguous; only the
        # corpus-final partial sequence can leave a (dropped) tail here
        body = flat[:n_full * seq_len].reshape(n_full, seq_len)
        path = os.path.join(out_dir, f"shard-{shard:06d}.parquet")
        t = pa.table({
            "seq_id": pa.array(first_seq
                               + np.arange(n_full, dtype=np.int64)),
            "token_ids": pa.FixedSizeListArray.from_arrays(
                pa.array(body.reshape(-1), pa.int32()), seq_len),
        })
        checkpoint.write_table(t, path)
        return pa.table({"shard_id": pa.array([shard], pa.int64()),
                         "n_seqs": pa.array([n_full], pa.int64()),
                         "n_tokens": pa.array([n_full * seq_len],
                                              pa.int64()),
                         "path": pa.array([path], pa.string())})

    from .equijoin import collect_arrow

    manifest = chunks.map_batches(add_shard, batch_format="pyarrow") \
        .groupby("shard").map_groups(write_shard, batch_format="pyarrow")
    t = collect_arrow(manifest, pa.schema([
        ("shard_id", pa.int64()), ("n_seqs", pa.int64()),
        ("n_tokens", pa.int64()), ("path", pa.string())]))
    t = t.sort_by("shard_id")
    import pyarrow.compute as pc

    got = int(pc.sum(t.column("n_seqs")).as_py() or 0)
    if got != n_seqs_total:
        raise AssertionError(
            f"shard assembly lost sequences: {got} != {n_seqs_total}")
    return t


def bpe_encode(ds, model: BpeModel, text_col: str = "text",
               id_col: str = "doc_id", concurrency=(1, 8),
               batch_size: int | None = None):
    """(id, token_ids list<int32>, n_tokens) Dataset — the corpus-scale
    tokenize pass. ``concurrency`` defaults to an autoscaling
    (1, 8) actor pool so the stage never deadlocks a small cluster by
    reserving every CPU.

    The merges table rides the actor constructor directly — it is
    rank-count-sized (12 B/merge, <1 MB at a 64k vocab), far below the
    broadcast-vs-inline threshold, and inlining avoids pinning an
    object-store ref across actor restarts (ray#53727)."""
    return ds.map_batches(
        BpeEncodeStage,
        fn_constructor_kwargs={"model_ref": model.to_table(),
                               "text_col": text_col, "id_col": id_col},
        batch_format="pyarrow", concurrency=concurrency,
        batch_size=batch_size)
