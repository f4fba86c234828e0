"""markdown_query_ray — a Ray-Data-native inverted-index + BM25 engine.

A from-scratch rebuild of the capabilities of ``ssosik/markdown_query``
(reference: a Rust CLI over xapian-core 1.4.17) re-expressed Ray-Data-first:

- index build: ``ray.data.read_parquet`` over Common-Crawl-style web pages
  ``(url, warc_ts, html, text, lang)`` -> actor-pool ``map_batches`` stages for
  HTML->text extraction and Unicode tokenization -> a term-hash x doc-range
  salted ``groupby`` shuffle that merges partial postings into delta-encoded
  varint block posting lists with per-block max-score metadata.
- query: BM25 top-k (Xapian-exact profile k1=1,b=0.5 and classic k1=1.2,b=0.75)
  with block-max WAND pruning, plus the reference's boolean query algebra
  (AND / OR / AND_NOT / XOR / FILTER / AND_MAYBE).

Nothing here calls ``ray.init`` — the caller owns the Ray session.
"""

__version__ = "0.8.0"
