"""Markdown + YAML-frontmatter source (SURVEY.md §2.1 S1/S2).

The reference's native input path: walk directories for ``*.md`` files
(skipping dot-files, src/main.rs:84-97), split each file into YAML
frontmatter + markdown body, and deserialize into the fixed Document schema
with lenient coercions (src/document.rs:123-160, 194-232; src/date.rs).

Ray-Data-first shape: file discovery is ``ray.data.read_binary_files`` (its
reader parallelizes listing + IO); the parse is a stateless ``map_batches``
over (path, bytes) rows producing the columnar document schema:

    fullpath:string, id:string, title:string, subtitle:string,
    authors:list<string>, tags:list<string>, date:int64 (epoch s),
    weight:int32, writes:int32, views:int32, body:large_string

A file without frontmatter or without the required ``title``/``date`` is
dropped and counted (the reference logs the error and continues,
src/main.rs:101-106).
"""

from __future__ import annotations

import hashlib
import os

import pyarrow as pa

from ..stages.normalize import parse_date

_DELIM = "---"


def split_frontmatter(text: str) -> tuple[str, str] | None:
    """Split ``---\\nyaml\\n---\\nbody`` -> (yaml, body); None when the file
    has no frontmatter (an error in the reference, src/document.rs:155-158)."""
    if not text.startswith(_DELIM):
        return None
    rest = text[len(_DELIM):]
    if rest[:1] == "\n":
        rest = rest[1:]
    elif rest[:2] == "\r\n":
        rest = rest[2:]
    else:
        return None
    for sep in ("\n---\n", "\n---\r\n", "\r\n---\r\n", "\r\n---\n"):
        i = rest.find(sep)
        if i != -1:
            return rest[:i], rest[i + len(sep):]
    # frontmatter closed at EOF
    stripped = rest.rstrip()
    if stripped.endswith("\n---") or stripped.endswith("\r\n---"):
        return stripped[: stripped.rfind("---")].rstrip("\r\n"), ""
    return None


def _as_list(meta: dict, singular: str, plural: str) -> list[str]:
    """Scalar-or-list coercion (src/document.rs:194-232): plural list wins,
    scalar singular wraps, both absent -> []."""
    v = meta.get(plural)
    if v is not None:
        if isinstance(v, (list, tuple)):
            return [str(x) for x in v]
        return [str(v)]
    v = meta.get(singular)
    if v is None:
        return []
    if isinstance(v, (list, tuple)):
        return [str(x) for x in v]
    return [str(v)]


def parse_markdown_doc(path: str, raw: bytes | str) -> dict | None:
    """One file -> document row dict, or None when invalid (logged+skipped
    by the caller, mirroring src/main.rs:101-106)."""
    import yaml

    if isinstance(raw, (bytes, memoryview)):
        try:
            raw = bytes(raw).decode("utf-8")
        except UnicodeDecodeError:
            return None
    split = split_frontmatter(raw)
    if split is None:
        return None
    fm, body = split
    try:
        meta = yaml.safe_load(fm) or {}
    except yaml.YAMLError:
        return None
    if not isinstance(meta, dict):
        return None
    title = meta.get("title")
    date = parse_date(meta.get("date"))
    if title is None or date is None:
        # title and date are the two required fields (src/document.rs:95-104)
        return None
    doc_id = meta.get("id")
    if doc_id is None:
        # deterministic surrogate for the reference's random UUID
        doc_id = hashlib.sha1(path.encode("utf-8")).hexdigest()
    try:
        # non-numeric counters are an invalid-file condition like bad yaml
        # or a bad date — drop the one file, never fail the whole batch
        # task; ``or 0`` covers present-but-null keys
        weight = int(meta.get("weight", 0) or 0)
        writes = int(meta.get("writes", 0) or 0)
        views = int(meta.get("views", 0) or 0)
    except (TypeError, ValueError):
        return None
    return {
        "fullpath": path,
        "id": str(doc_id),
        "title": str(title),
        # present-but-null subtitle must stay empty, not the string "None"
        "subtitle": str(meta.get("subtitle") or ""),
        "authors": _as_list(meta, "author", "authors"),
        "tags": _as_list(meta, "tag", "tags"),
        "date": date,
        "weight": weight,
        "writes": writes,
        "views": views,
        "body": body,
    }


DOC_SCHEMA = pa.schema([
    ("fullpath", pa.string()),
    ("id", pa.string()),
    ("title", pa.string()),
    ("subtitle", pa.string()),
    ("authors", pa.list_(pa.string())),
    ("tags", pa.list_(pa.string())),
    ("date", pa.int64()),
    ("weight", pa.int32()),
    ("writes", pa.int32()),
    ("views", pa.int32()),
    ("body", pa.large_string()),
])


def parse_markdown_batch(batch: pa.Table) -> pa.Table:
    """map_batches body: (path, bytes) -> document rows; invalid files are
    dropped (reference: error log + continue)."""
    rows = []
    for path, raw in zip(batch.column("path").to_pylist(),
                         batch.column("bytes").to_pylist()):
        doc = parse_markdown_doc(path, raw)
        if doc is not None:
            rows.append(doc)
    if not rows:
        return DOC_SCHEMA.empty_table()
    return pa.Table.from_pylist(rows, schema=DOC_SCHEMA)


def read_markdown(paths: list[str]):
    """Directory/file paths -> Dataset of parsed document rows.

    ``read_binary_files`` handles discovery + IO sharding; dot-files and
    non-.md entries are excluded at listing time (M1/M2 pushed into the
    read, src/main.rs:86-97)."""
    import ray.data

    ds = ray.data.read_binary_files(
        paths, include_paths=True, file_extensions=["md"])

    def drop_hidden(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        base = pc.replace_substring_regex(batch.column("path"), r"^.*/", "")
        return batch.filter(pc.invert(pc.starts_with(base, ".")))

    return ds.map_batches(drop_hidden, batch_format="pyarrow") \
             .map_batches(parse_markdown_batch, batch_format="pyarrow")


def index_dataset_from_markdown(paths: list[str]):
    """Parsed markdown rows -> the index build's expected input shape
    (doc_id, url, text): url=fullpath, text = title+subtitle+body in the
    reference's cross-field position order (src/document.rs:171-180 indexes
    fields into one position stream; body unprefixed)."""
    ds = read_markdown(paths)

    def shape(batch: pa.Table) -> pa.Table:
        texts = [
            " ".join(x for x in (t, s, b) if x)
            for t, s, b in zip(batch.column("title").to_pylist(),
                               batch.column("subtitle").to_pylist(),
                               batch.column("body").to_pylist())
        ]
        return pa.table({
            "url": batch.column("fullpath"),
            "text": pa.array(texts, pa.large_string()),
        })

    return ds.map_batches(shape, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# field-prefixed indexing (the reference's full update_index semantics)
# ---------------------------------------------------------------------------

# field -> (prefix, indexing order); src/document.rs:171-180: authors, date,
# fullpath, title, subtitle, tags (one by one), then body unprefixed — ONE
# position counter across all fields (mdq never calls increase_termpos).
FIELD_PREFIXES = [("authors", "A"), ("date", "D"), ("fullpath", "U"),
                  ("title", "S"), ("subtitle", "XS"), ("tags", "K"),
                  ("body", "")]


def date_index_string(epoch: int) -> str:
    """The exact string mdq indexes under the D prefix: the epoch rendered
    as RFC3339 in the local timezone (Date::to_string, src/date.rs:23-34 —
    chrono ``to_rfc3339``). This container runs UTC, so the rendering is
    ``YYYY-MM-DDTHH:MM:SS+00:00``; the tokenizer then splits it into date
    terms (D2024, D03, D01t00, ...)."""
    from datetime import datetime, timezone

    return datetime.fromtimestamp(int(epoch), timezone.utc).isoformat()


class FieldTokenizeStage:
    """Parsed markdown rows (+ doc_id) -> tokenized rows with the
    reference's field-prefix terms: each field's tokens are indexed as
    ``<prefix><token>`` with a position from the shared cross-field counter,
    plus a wdf-only ``Z<prefix><stem>`` when stemming
    (termgenerator_internal.cc:284-312 via index_text_with_prefix). It
    writes ``stages.tokenize.staging_table`` rows, as TokenizeStage does,
    so the rest of the build (staging checkpoint, merge shuffle, codec) is
    unchanged."""

    def __init__(self, cfg):
        from ..functions.snowball import CachingStemmer
        from ..functions.xapian_tokenizer import (
            fast_tokenize,
            should_stem,
            simple_tokenize,
        )

        self.cfg = cfg
        self.stemmer = CachingStemmer() if cfg.stem else None
        self.tokenize = fast_tokenize if cfg.tokenizer == "xapian" \
            else simple_tokenize
        self.should_stem = should_stem

    def _doc_terms(self, row: dict):
        counts: dict[str, int] = {}
        pos_map: dict[str, list[int]] = {}
        pos = 0
        stemmer = self.stemmer
        for field, prefix in FIELD_PREFIXES:
            v = row.get(field)
            if v is None:
                continue
            if field == "authors":
                # one comma-joined index_text_with_prefix call
                # (VecString::to_string, src/document.rs:39-43)
                chunks = [",".join(v)] if isinstance(v, list) else [v]
            elif field == "date":
                chunks = [date_index_string(v)]
            else:
                chunks = v if isinstance(v, list) else [v]
            for chunk in chunks:  # tags indexed one by one
                for tok in self.tokenize(str(chunk),
                                         self.cfg.max_term_bytes):
                    pos += 1
                    pt = prefix + tok
                    counts[pt] = counts.get(pt, 0) + 1
                    pos_map.setdefault(pt, []).append(pos)
                    if stemmer is not None and self.should_stem(tok):
                        zt = "Z" + prefix + stemmer(tok)
                        counts[zt] = counts.get(zt, 0) + 1
        # the Q<fullpath> boolean id term (wdf 0: upsert/lookup key,
        # src/document.rs:185-187) — scores 0, not in doclen
        qid = "Q" + str(row.get("fullpath", ""))
        if len(qid.encode("utf-8")) <= 245:
            counts.setdefault(qid, 0)
        return counts, pos_map

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..index.codec import pack_positions
        from ..stages.tokenize import staging_table

        rows = batch.to_pylist()
        docs = ((counts, pack_positions(pos_map) if self.cfg.positions
                 else {})
                for counts, pos_map in map(self._doc_terms, rows))
        payloads = None
        if self.cfg.store_payload:
            import json

            # Storage-mode serialization of the document — the exact shape
            # mdq stores via set_data (src/document.rs:248-284: fullpath,
            # id, authors, epoch date, tags, numerics, title, subtitle, body)
            payloads = [json.dumps({
                "fullpath": r["fullpath"], "id": r["id"],
                "authors": r["authors"], "date": r["date"],
                "tags": r["tags"], "weight": r["weight"],
                "writes": r["writes"], "views": r["views"],
                "title": r["title"], "subtitle": r["subtitle"],
                "body": r["body"],
            }, sort_keys=True) for r in rows]
        return staging_table(self.cfg, batch.column("doc_id"),
                             batch.column("fullpath"), docs, payloads)


def build_markdown_index(out_dir: str, paths: list[str], cfg=None) -> dict:
    """Full reference-semantics index over markdown files: parse (frontmatter
    coercions), field-prefix tokenize, then the standard merge-shuffle build.
    doc_id = rank of the file path in sorted order — deterministic and
    parallelism-invariant (one .md file is one document, as in the
    reference's WalkDir loop). Ray must already be initialised."""
    from ..config import IndexConfig
    from ..index.build import build_index

    cfg = cfg or IndexConfig()
    # expand directories driver-side with read_markdown's own listing rules
    # (.md extension; hidden files dropped later by basename) so id_of
    # covers every path the read will actually emit — building it from the
    # raw args would KeyError on the first discovered file under a dir
    files: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            for root, _dirs, names in os.walk(p):
                files.extend(os.path.join(root, f) for f in names
                             if f.endswith(".md"))
        else:
            files.append(p)
    files = sorted(files)
    id_of = {os.path.abspath(p): i for i, p in enumerate(files)}

    def add_doc_id(batch: pa.Table) -> pa.Table:
        ids = []
        for p in batch.column("fullpath").to_pylist():
            i = id_of.get(p, id_of.get(os.path.abspath(p)))
            if i is None:
                raise KeyError(
                    f"discovered file {p!r} not in the driver's sorted "
                    f"path list — directory listing drifted between "
                    f"id assignment and the read")
            ids.append(i)
        return batch.append_column("doc_id", pa.array(ids, pa.uint64()))

    tokenized = read_markdown(files) \
        .map_batches(add_doc_id, batch_format="pyarrow") \
        .map_batches(FieldTokenizeStage(cfg), batch_format="pyarrow",
                     batch_size=cfg.tokenize_batch_size)
    return build_index(out_dir, dataset=tokenized, cfg=cfg,
                       total_docs=len(files))
