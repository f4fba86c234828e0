"""Tokenize stage: text -> per-document term/wdf postings (actor pool).

The rebuild of the reference's TermGenerator walk (src/document.rs:162-190 +
termgenerator_internal.cc): a stateful ``map_batches`` CLASS so the compiled
regex, Unicode tables and the term->stem cache are built ONCE per actor
(``__init__``) and amortized over every batch (``__call__``) — the pattern the
reference gets for free from its single process (Stem::new("en") once,
src/main.rs:80-82).

Output: one row per document (:func:`staging_schema`) —
``(doc_id:uint64, url, doclen:uint32, terms:list<string>, tfs:list<uint32>)``
plus position and payload columns when configured, with
``doclen = sum(tfs)`` under the Xapian definition (Z-stems double-count;
glass_database.cc:1121-1131). One-row-per-doc keeps the stage's output
~10x smaller than exploded postings and makes the staging checkpoint (the
resumable boundary) cheap; the explode to flat (term, doc_id, tf) rows
happens inside the shuffle stage.
"""

from __future__ import annotations

import pyarrow as pa

from ..config import IndexConfig
from ..functions.snowball import CachingStemmer
from ..functions.xapian_tokenizer import (
    fast_positional_counts,
    fast_term_counts,
    fast_tokenize,
    position_payloads,
    position_payloads_flagged,
    simple_tokenize,
    term_counts,
    tokenize_ngram,
)


class TokenizeStage:
    def __init__(self, cfg: IndexConfig):
        self.cfg = cfg
        self.stemmer = CachingStemmer() if cfg.stem else None
        # xapian mode rides the C fast path for ASCII docs (identical output,
        # fuzz-verified); positions mode needs the full token stream so it
        # uses fast_tokenize + term_counts instead of the fused C counter
        self.xapian_mode = cfg.tokenizer == "xapian"
        self.tokenize = fast_tokenize if self.xapian_mode else simple_tokenize
        # CJK n-gram mode only affects texts containing CJK-range chars;
        # ASCII docs still ride the C fast path (tokenize_ngram defers)
        self.cjk = cfg.cjk_ngram and self.xapian_mode

    def __call__(self, batch: pa.Table) -> pa.Table:
        # the Document::set_data analog: with store_payload the raw text
        # rides the staging checkpoint (columnar, compressed) for
        # retrieval-time preview
        return staging_table(self.cfg, batch.column("doc_id"),
                             batch.column("url"), self._doc_maps(batch),
                             payloads=batch.column("text"))

    def _doc_maps(self, batch: pa.Table):
        """Each document's (term -> wdf, term -> (npos, payload)) maps,
        one at a time."""
        max_bytes = self.cfg.max_term_bytes
        with_pos = self.cfg.positions
        # boolean (wdf-0) terms: the add_boolean_term analog — the Q<url> id
        # term (upsert/lookup key, src/document.rs:185-187) plus an L<lang>
        # facet term when the column exists. wdf 0 => they score 0, never
        # enter doclen, and serve FILTER / lookup semantics exactly like
        # Xapian boolean terms.
        urls = batch.column("url").to_pylist()
        langs = batch.column("lang").to_pylist() \
            if "lang" in batch.column_names else None
        texts = batch.column("text").to_pylist()
        for row_i, text in enumerate(texts):
            text = text or ""
            pos_of = {}
            if self.cjk and not text.isascii():
                toks_f = tokenize_ngram(text, max_bytes)
                counts = term_counts([t for t, _ in toks_f],
                                     stemmer=self.stemmer)
                if with_pos:
                    pos_of = position_payloads_flagged(toks_f)
            elif with_pos:
                if self.xapian_mode:
                    counts, pos_of = fast_positional_counts(
                        text, stemmer=self.stemmer, max_term_bytes=max_bytes)
                else:
                    toks = self.tokenize(text, max_bytes)
                    counts = term_counts(toks, stemmer=self.stemmer)
                    pos_of = position_payloads(toks)
            elif not self.xapian_mode:
                counts = term_counts(self.tokenize(text, max_bytes),
                                     stemmer=self.stemmer)
            else:
                counts = fast_term_counts(
                    text, stemmer=self.stemmer, max_term_bytes=max_bytes)
            boolean_terms = [f"Q{urls[row_i]}"]
            if langs is not None and langs[row_i]:
                boolean_terms.append(f"L{langs[row_i]}")
            for bt in boolean_terms:
                if len(bt.encode("utf-8")) <= 245:  # Xapian key-length cap
                    counts.setdefault(bt, 0)
            yield counts, pos_of


def staging_schema(cfg: IndexConfig) -> pa.Schema:
    """The tokenized staging table (``tokenized/``): what
    :class:`TokenizeStage` and the markdown field stage write, and what an
    empty build pins."""
    fields = [("doc_id", pa.uint64()), ("url", pa.string()),
              ("doclen", pa.uint32()), ("terms", pa.list_(pa.string())),
              ("tfs", pa.list_(pa.uint32()))]
    if cfg.positions:
        fields += [("npos", pa.list_(pa.uint32())),
                   ("poss", pa.list_(pa.binary()))]
    if cfg.store_payload:
        fields.append(("payload", pa.large_string()))
    return pa.schema(fields)


def staging_table(cfg: IndexConfig, doc_ids, urls, docs,
                  payloads=None) -> pa.Table:
    """One batch of staging rows. ``docs`` yields each document's
    (term -> wdf, term -> (npos, position payload)) maps (an iterator, so
    a document's maps are freed once its row is built); terms are
    written in sorted order, and doclen is the sum of wdfs (Xapian's
    definition: Z-stems count, wdf-0 boolean terms do not).
    ``payloads`` is only written when ``cfg.store_payload``."""
    terms_col, tfs_col, doclens, npos_col, poss_col = [], [], [], [], []
    for counts, pos_of in docs:
        items = sorted(counts.items())
        terms_col.append([t for t, _ in items])
        tfs_col.append([c for _, c in items])
        doclens.append(sum(counts.values()))
        if cfg.positions:
            npos_col.append([pos_of[t][0] if t in pos_of else 0
                             for t, _ in items])
            poss_col.append([pos_of[t][1] if t in pos_of else b""
                             for t, _ in items])
    cols = [doc_ids, urls, doclens, terms_col, tfs_col]
    if cfg.positions:
        cols += [npos_col, poss_col]
    if cfg.store_payload:
        cols.append(payloads)
    schema = staging_schema(cfg)
    return pa.Table.from_arrays(
        [c.cast(f.type) if isinstance(c, (pa.Array, pa.ChunkedArray))
         else pa.array(c, f.type) for c, f in zip(cols, schema)],
        schema=schema)
