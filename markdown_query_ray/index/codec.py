"""Delta-encoded varint block posting-list codec, numpy-vectorized.

The reference's glass backend stores posting lists as B-tree chunks keyed
(term, first_did_of_chunk) with docids delta-encoded as LEB128-style varints
(gap-1; xapian-core-1.4.17/common/pack.h:380-391, chunk headers at
backends/glass/glass_postlist.cc:131-147). This codec reproduces that shape
columnar: fixed-size blocks (default 128 docs) of

    (term, block_id, first_doc_id, last_doc_id, n,
     ids_enc, tfs_enc, dls_enc,            # varint payloads
     max_wdf, min_doclen, sum_wdf)

- ``ids_enc``: varint(gap-1) for docs 1..n-1 (the first docid lives in the
  column, so salted sub-lists concatenate without re-encoding).
- ``tfs_enc`` / ``dls_enc``: varint wdf and doclen per doc. Storing doclen in
  the posting block makes scoring self-contained (no doc-table join in the
  scorer).
- ``max_wdf`` feeds each term's ``wdf_ub`` in the term stats.
  ``min_doclen`` is still written, but no query path reads it: the
  exhaustive evaluator needs no per-block score bound. Dropping the column
  changes the on-disk format and needs its own format-version change.

Everything encodes/decodes in whole-partition numpy passes: per-value byte
lengths -> exclusive prefix sum -> one byte buffer, then per-block binary
slices come from offset arithmetic (an Arrow BinaryArray over the same
buffer). No per-row Python in either direction.

This module is the only one that knows how posting payloads are laid out:
the block rows written to disk, the merge shuffle's partial rows (same
segment format), the position payloads, and both tables' schemas. Build,
update, reader and executor call into it, and ``check_codec`` refuses an
index that records any other payload coding.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

BLOCK_SIZE_DEFAULT = 128


def _ctok():
    from ..functions.ctok import load

    return load()


def encode_varints(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LEB128-encode a uint64 array. Returns (bytes:uint8[], end_offsets) where
    end_offsets[i] is the exclusive end of value i's bytes.

    Dispatches to the C kernel (functions/_ctok.c varint_encode64) when
    available; the numpy implementation below is the fallback and the parity
    baseline (tests/test_codec.py fuzzes the two against each other)."""
    vals = np.ascontiguousarray(vals, dtype=np.uint64)
    n = len(vals)
    if n == 0:
        return np.empty(0, np.uint8), np.empty(0, np.int64)
    m = _ctok()
    if m is not None and hasattr(m, "varint_encode64"):
        payload, ends = m.varint_encode64(vals)
        return (np.frombuffer(payload, np.uint8),
                np.frombuffer(ends, np.int64))
    return _encode_varints_np(vals)


def _encode_varints_np(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = len(vals)
    nbytes = np.ones(n, np.int64)
    v = vals >> np.uint64(7)
    while v.any():
        nbytes += v > 0
        v >>= np.uint64(7)
    ends = np.cumsum(nbytes)
    out = np.zeros(ends[-1], np.uint8)
    starts = ends - nbytes
    v = vals.copy()
    remaining = nbytes.copy()
    layer = 0
    while True:
        mask = remaining > 0
        if not mask.any():
            break
        b = (v[mask] & np.uint64(0x7F)).astype(np.uint8)
        b |= (remaining[mask] > 1).astype(np.uint8) << 7
        out[starts[mask] + layer] = b
        v >>= np.uint64(7)
        remaining -= 1
        layer += 1
    return out, ends


def decode_varints(buf: np.ndarray | bytes) -> np.ndarray:
    """Decode a packed LEB128 stream into a uint64 array.

    C kernel when available (varint_decode64); numpy fallback below is the
    parity baseline."""
    data = np.frombuffer(buf, np.uint8) if not isinstance(buf, np.ndarray) \
        else buf
    if len(data) == 0:
        return np.empty(0, np.uint64)
    m = _ctok()
    if m is not None and hasattr(m, "varint_decode64"):
        return np.frombuffer(m.varint_decode64(data), np.uint64)
    return _decode_varints_np(data)


def _decode_varints_np(data: np.ndarray) -> np.ndarray:
    ends = np.nonzero((data & 0x80) == 0)[0]
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    vals = np.zeros(len(ends), np.uint64)
    span = ends - starts + 1
    for k in range(int(span.max())):
        mask = span > k
        vals[mask] |= (data[starts[mask] + k].astype(np.uint64)
                       & np.uint64(0x7F)) << np.uint64(7 * k)
    return vals


_INT32_MAX = (1 << 31) - 1


def _check_binary_size(total_bytes: int) -> None:
    """Arrow ``binary`` carries int32 offsets; a partition payload past
    2 GiB would silently wrap into negative offsets. Web-scale partitions
    are sized by num_term_parts x num_doc_buckets — fail loudly and point
    at the knob instead of corrupting the index."""
    if total_bytes > _INT32_MAX:
        raise ValueError(
            f"posting partition payload {total_bytes} bytes exceeds the "
            f"2 GiB Arrow binary-offset limit; raise "
            f"IndexConfig.num_term_parts / num_doc_buckets so each "
            f"shuffle partition stays under 2 GiB")


def _group_ends(value_ends: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Exclusive byte end of each group of ``counts[i]`` consecutive
    values whose own byte ends are ``value_ends``; an empty group ends
    where the previous one did."""
    cum = np.cumsum(counts)
    ends = np.zeros(len(counts), np.int64)
    nz = cum > 0
    ends[nz] = value_ends[cum[nz] - 1]
    np.maximum.accumulate(ends, out=ends)
    return ends


def _binary_from_seg_ends(payload, seg_byte_ends: np.ndarray
                          ) -> pa.BinaryArray:
    """BinaryArray whose value i is payload[seg_byte_ends[i-1]:
    seg_byte_ends[i]] (zero-copy over the payload buffer)."""
    if len(seg_byte_ends):
        _check_binary_size(int(seg_byte_ends[-1]))
    offs = np.zeros(len(seg_byte_ends) + 1, np.int32)
    offs[1:] = seg_byte_ends
    return pa.BinaryArray.from_buffers(
        pa.binary(), len(seg_byte_ends),
        [None, pa.py_buffer(offs.tobytes()), pa.py_buffer(payload)])


# --- the payload codec -----------------------------------------------------
# Every ``*_enc`` column is a run of segments (a posting block, or one
# (skey, term) row of the merge shuffle), one binary value per segment:
# the segment's LEB128 varints, so any run of segments decodes as one
# stream. Positions use the same coding.

def check_codec(codec: str) -> None:
    """Raise ValueError unless ``codec`` names the one payload coding,
    "varint" (an index that records no codec is varint)."""
    if codec != "varint":
        raise ValueError(f"unknown posting codec {codec!r}: postings are "
                         f"read and written only as 'varint'")


def encode_segments(vals: np.ndarray, seg_counts: np.ndarray
                    ) -> pa.BinaryArray:
    """One binary value per segment, segment i holding seg_counts[i]
    consecutive ``vals`` as varints (zero-copy over the encoded
    buffer)."""
    payload, ends = encode_varints(vals)
    return _binary_from_seg_ends(payload, _group_ends(ends, seg_counts))


def decode_segments(col) -> np.ndarray:
    """Inverse of :func:`encode_segments` over a binary column (any row
    subset): the values, concatenated."""
    return decode_varints(np.frombuffer(_cat_binary(col), np.uint8))


def first_value(enc: bytes) -> int:
    """The first value of one segment's payload (0 for an empty one)."""
    if not enc:
        return 0
    return int(decode_varints(np.frombuffer(enc, np.uint8))[0])


def concat_segments(payloads, seg_counts: np.ndarray) -> pa.BinaryArray:
    """One binary value per segment: the per-posting payloads (a binary
    column, or a numpy object array of bytes) of its seg_counts[i]
    postings, concatenated in order (a block's or a shuffle row's
    ``pos_enc``)."""
    if not isinstance(payloads, (pa.Array, pa.ChunkedArray)):
        payloads = pa.array(payloads, pa.binary())
    offs, buf = _binary_parts(payloads)
    return _binary_from_seg_ends(buf, _group_ends(offs[1:], seg_counts))


def position_ranges(tbl: pa.Table
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(npos, pos_bytes, post_ends) of a positional table's rows: the
    per-posting position counts, the concatenated ``pos_enc`` bytes and
    the per-posting byte boundaries into them (``post_ends[i]:
    post_ends[i+1]`` is posting i's payload) — found from the varint
    terminators, without decoding any position. Raises KeyError on a
    table without positions."""
    npos = decode_segments(tbl.column("npos_enc")).astype(np.int64)
    pos_bytes = np.frombuffer(_cat_binary(tbl.column("pos_enc")), np.uint8)
    val_ends = np.nonzero((pos_bytes & 0x80) == 0)[0] + 1
    post_ends = np.zeros(len(npos) + 1, np.int64)
    post_ends[1:] = _group_ends(val_ends, npos)
    return npos, pos_bytes, post_ends


def decode_position_slices(pos_bytes: np.ndarray, starts: np.ndarray,
                           ends: np.ndarray, counts: np.ndarray
                           ) -> np.ndarray:
    """Absolute positions of the postings whose payloads are
    ``pos_bytes[starts[i]:ends[i]]`` (ranges from :func:`position_ranges`,
    ``counts[i]`` positions each), concatenated: one byte gather, one
    varint decode, one segmented prefix sum."""
    blens = (ends - starts).astype(np.int64)
    brep = np.repeat(np.arange(len(blens), dtype=np.int64), blens)
    bbase = np.repeat(np.cumsum(blens) - blens, blens)
    src = starts[brep] + (np.arange(int(blens.sum()), dtype=np.int64)
                          - bbase)
    return _seg_positions(decode_varints(pos_bytes[src]), counts)


def pack_positions(pos_map: dict[str, list[int]]
                   ) -> dict[str, tuple[int, bytes]]:
    """term -> (npos, payload) for one document's ascending position lists:
    each payload is the varint stream [first, gap, gap, ...] that
    ``pos_enc`` concatenates. One varint encode per document."""
    terms = list(pos_map)
    counts = np.fromiter((len(pos_map[t]) for t in terms), np.int64,
                         len(terms))
    flat = np.fromiter((p for t in terms for p in pos_map[t]), np.uint64,
                       int(counts.sum()))
    deltas = np.diff(flat, prepend=np.uint64(0))
    firsts = (np.cumsum(counts) - counts)[counts > 0]
    deltas[firsts] = flat[firsts]
    payload, ends = encode_varints(deltas)
    buf = payload.tobytes()
    bends = _group_ends(ends, counts)
    out = {}
    lo = 0
    for t, c, hi in zip(terms, counts.tolist(), bends.tolist()):
        out[t] = (c, buf[lo:hi])
        lo = hi
    return out


# --- table schemas ----------------------------------------------------------
_POSITION_FIELDS = [("npos_enc", pa.binary()), ("pos_enc", pa.binary())]
_PAYLOAD_FIELDS = [("ids_enc", pa.binary()), ("tfs_enc", pa.binary()),
                   ("dls_enc", pa.binary())]


def blocks_schema(positions: bool = False) -> pa.Schema:
    """Posting-block rows, as written to ``postings/part-*.parquet``."""
    return pa.schema(
        [("term", pa.string()), ("block_id", pa.uint32()),
         ("first_doc_id", pa.uint64()), ("last_doc_id", pa.uint64()),
         ("n", pa.uint32())] + _PAYLOAD_FIELDS
        + [("max_wdf", pa.uint32()), ("min_doclen", pa.uint32()),
           ("sum_wdf", pa.uint64())]
        + (_POSITION_FIELDS if positions else []))


def partial_schema(positions: bool = False) -> pa.Schema:
    """Packed partial posting rows, the merge shuffle's exchange format."""
    return pa.schema(
        [("skey", pa.uint32()), ("term", pa.string()), ("n", pa.uint32()),
         ("first_id", pa.uint64())] + _PAYLOAD_FIELDS
        + (_POSITION_FIELDS if positions else []))


def encode_partition(terms: np.ndarray, doc_ids: np.ndarray,
                     tfs: np.ndarray, doclens: np.ndarray,
                     block_size: int = BLOCK_SIZE_DEFAULT,
                     npos: np.ndarray | None = None,
                     pos_payloads: np.ndarray | None = None,
                     stripe_size: int | None = None) -> pa.Table:
    """Encode one shuffle partition — rows sorted by (term, doc_id) — into
    posting-block rows. ``terms`` is an object/str numpy array aligned with
    the numeric columns.

    Positional mode (``npos``/``pos_payloads`` given): each posting row
    carries its in-document position list, already varint-encoded as
    [first_pos, gap, gap, ...] bytes (``pos_payloads``, object array of
    bytes) with ``npos`` the per-posting position count. Two extra block
    columns are emitted: ``npos_enc`` (varint count per posting) and
    ``pos_enc`` (the block's payload bytes concatenated) — the positional
    analog of glass's ``position.`` B-tree (backends/glass/glass_positionlist.cc),
    kept alongside the posting block so phrase evaluation reads no extra file.

    ``stripe_size`` (the index's docs_per_bucket) forces an extra block
    split wherever consecutive postings cross a doc-bucket stripe boundary
    (doc_id // stripe_size changes). With S>1 buckets each bucket owns the
    id stripes {b*dpb + k*S*dpb}; once updates push ids past dpb*S a
    bucket's id set is two-plus disjoint intervals, and a block spanning
    the wrap would have a [first,last] range overlapping ANOTHER bucket's
    blocks — the whole-index reader sorts blocks by first_doc_id and would
    silently emit non-monotone doc_ids into the searchsorted-based AND /
    WAND paths. Stripe-aligned blocks keep every block inside one disjoint
    interval, so block order == global doc order by construction."""
    n = len(doc_ids)
    if n == 0:
        return blocks_schema(positions=npos is not None).empty_table()
    doc_ids = np.ascontiguousarray(doc_ids, np.uint64)
    tfs = np.ascontiguousarray(tfs, np.uint64)
    doclens = np.ascontiguousarray(doclens, np.uint64)

    term_change = np.ones(n, bool)
    if isinstance(terms, pa.ChunkedArray):
        terms = terms.combine_chunks()
    if isinstance(terms, pa.Array):
        # Arrow-native path: no per-row Python string conversion (the term
        # column of a big shuffle group is hundreds of thousands of rows)
        term_change[1:] = pc.not_equal(
            terms.slice(1), terms.slice(0, n - 1)).to_numpy(
            zero_copy_only=False)
    else:
        term_change[1:] = terms[1:] != terms[:-1]
    term_start_idx = np.nonzero(term_change)[0]
    # index of each row within its term's posting list
    within = np.arange(n) - np.repeat(
        term_start_idx, np.diff(np.append(term_start_idx, n)))
    block_start = within % block_size == 0
    if stripe_size and stripe_size > 0:
        stripe = doc_ids // np.uint64(stripe_size)
        block_start[1:] |= stripe[1:] != stripe[:-1]
    # per-term running block number (with stripe splits the natural
    # ``within // block_size`` numbering no longer holds)
    starts_cum = np.cumsum(block_start)
    term_counts = np.diff(np.append(term_start_idx, n))
    block_id = starts_cum - np.repeat(starts_cum[term_start_idx],
                                      term_counts)
    bstart_idx = np.nonzero(block_start)[0]
    bcounts = np.diff(np.append(bstart_idx, n))

    # doc-id gaps (gap-1) for non-first entries of each block
    gaps = np.empty(n, np.uint64)
    gaps[0] = 0
    gaps[1:] = doc_ids[1:] - doc_ids[:-1] - 1
    ids_enc = encode_segments(gaps[~block_start], bcounts - 1)
    tfs_enc = encode_segments(tfs, bcounts)
    dls_enc = encode_segments(doclens, bcounts)

    bend_idx = np.append(bstart_idx[1:], n) - 1
    max_wdf = np.maximum.reduceat(tfs, bstart_idx)
    min_dl = np.minimum.reduceat(doclens, bstart_idx)
    sum_wdf = np.add.reduceat(tfs, bstart_idx)

    cols = [
        terms.take(pa.array(bstart_idx)) if isinstance(terms, pa.Array)
        else pa.array(terms[bstart_idx].tolist(), pa.string()),
        pa.array(block_id[bstart_idx].astype(np.uint32)),
        pa.array(doc_ids[bstart_idx]),
        pa.array(doc_ids[bend_idx]),
        pa.array(bcounts.astype(np.uint32)),
        ids_enc, tfs_enc, dls_enc,
        pa.array(max_wdf.astype(np.uint32)),
        pa.array(min_dl.astype(np.uint32)),
        pa.array(sum_wdf.astype(np.uint64)),
    ]
    if npos is not None:
        cols += [encode_segments(npos, bcounts),
                 concat_segments(pos_payloads, bcounts)]
    return pa.Table.from_arrays(
        cols, schema=blocks_schema(positions=npos is not None))


def decode_blocks(blocks: pa.Table, codec: str = "varint"
                  ) -> tuple[np.ndarray, np.ndarray,
                             np.ndarray, np.ndarray]:
    """Decode posting-block rows (any subset, in (term, block_id) order) into
    flat (doc_ids, tfs, doclens, block_row_index) arrays. ``codec`` is
    accepted for callers that name it and must be "varint"."""
    check_codec(codec)
    nb = len(blocks)
    if nb == 0:
        e = np.empty(0, np.uint64)
        return e, e.copy(), e.copy(), np.empty(0, np.int64)
    ns = blocks.column("n").to_numpy().astype(np.int64)
    firsts = blocks.column("first_doc_id").to_numpy().astype(np.uint64)

    gaps = decode_segments(blocks.column("ids_enc"))
    tfs = decode_segments(blocks.column("tfs_enc"))
    dls = decode_segments(blocks.column("dls_enc"))

    m = _ctok()
    doc_ids = _ids_from_gaps(gaps, firsts, ns)

    if m is not None and hasattr(m, "repeat_arange64"):
        block_of = np.frombuffer(
            m.repeat_arange64(np.ascontiguousarray(ns, np.int64)), np.int64)
    else:
        block_of = np.repeat(np.arange(nb, dtype=np.int64), ns)
    return doc_ids, tfs, dls, block_of


def decode_postings(blocks: pa.Table) -> tuple:
    """Posting-block rows of one (term-part, doc-bucket) — possibly read
    from several segments' files, whose doc ranges never overlap — back to
    flat postings sorted by (term, doc_id), ready for
    :func:`encode_partition`: the block-table counterpart of
    :func:`decode_partial_group`, with the same output

        (terms:pa.Array, doc_ids, tfs, dls[, npos, pos_payloads])"""
    blocks = blocks.take(pc.sort_indices(
        blocks, sort_keys=[("term", "ascending"),
                           ("first_doc_id", "ascending")]))
    ids, tfs, dls, block_of = decode_blocks(blocks)
    out = [blocks.column("term").take(pa.array(block_of)), ids, tfs, dls]
    if "npos_enc" in blocks.column_names:
        npos, pos_bytes, post_ends = position_ranges(blocks)
        out.append(npos.astype(np.uint64))
        out.append(_binary_from_seg_ends(pos_bytes, post_ends[1:]))
    return tuple(out)


def _binary_parts(col) -> tuple[np.ndarray, memoryview]:
    """(value_byte_offsets, data) of a Binary column without copying: a
    BinaryArray's values are stored contiguously in index order, so the
    concatenation of all values IS the data buffer between the first and
    last offset."""
    arr = col.combine_chunks() if hasattr(col, "combine_chunks") else col
    if len(arr) == 0:
        return np.zeros(1, np.int64), memoryview(b"")
    offs = np.frombuffer(arr.buffers()[1], np.int32)[
        arr.offset:arr.offset + len(arr) + 1].astype(np.int64)
    data = memoryview(arr.buffers()[2])[offs[0]:offs[-1]]
    return offs - offs[0], data


def _cat_binary(col):
    """Concatenated bytes of a Binary column (zero-copy buffer slice)."""
    return _binary_parts(col)[1]


def _ids_from_gaps(gaps: np.ndarray, firsts: np.ndarray,
                   ns: np.ndarray) -> np.ndarray:
    """Absolute doc_ids from per-segment (first id, n-1 gap-1 deltas):
    segment i contributes firsts[i] then firsts[i] + cumsum(gap+1). C
    kernel when available; shared by block decode and partial-row decode."""
    m = _ctok()
    if m is not None and hasattr(m, "seg_ids64"):
        return np.frombuffer(
            m.seg_ids64(np.ascontiguousarray(gaps, np.uint64),
                        np.ascontiguousarray(firsts, np.uint64),
                        np.ascontiguousarray(ns, np.int64)), np.uint64)
    nb = len(ns)
    total = int(ns.sum())
    starts = np.zeros(nb, np.int64)
    starts[1:] = np.cumsum(ns)[:-1]
    mask = np.ones(total, bool)
    mask[starts] = False
    # segmented cumsum: within-block running sum of gap+1, zero at starts
    x = np.zeros(total, np.uint64)
    x[mask] = gaps + np.uint64(1)
    cs = np.cumsum(x, dtype=np.uint64)
    within = cs - np.repeat(cs[starts], ns)
    return np.repeat(np.ascontiguousarray(firsts, np.uint64), ns) + within


def decode_partial_group(group: pa.Table) -> tuple:
    """Decode one shuffle group of PACKED partial posting rows
    (skey, term, n, first_id, ids_enc, tfs_enc, dls_enc
    [, npos_enc, pos_enc]) into flat arrays sorted by (term, doc_id),
    ready for :func:`encode_partition`:

        (terms:pa.Array, doc_ids, tfs, dls[, npos, pos_payloads])

    The merge is pure numpy: rows sort by term (Arrow), payloads decode in
    one pass, the (term, doc_id) order comes from an integer lexsort over
    (dense term rank, doc_id) — no Python string comparisons."""
    order_rows = pc.sort_indices(group, sort_keys=[("term", "ascending")])
    g = group.take(order_rows)
    seg_n = g.column("n").to_numpy().astype(np.int64)
    nrows = len(seg_n)
    firsts = g.column("first_id").to_numpy().astype(np.uint64)
    gaps = decode_segments(g.column("ids_enc"))
    tfs = decode_segments(g.column("tfs_enc"))
    dls = decode_segments(g.column("dls_enc"))
    ids = _ids_from_gaps(gaps, firsts, seg_n)

    terms_col = g.column("term").combine_chunks()
    tchange = np.ones(nrows, bool)
    if nrows > 1:
        tchange[1:] = pc.not_equal(
            terms_col.slice(1), terms_col.slice(0, nrows - 1)).to_numpy(
            zero_copy_only=False)
    term_rank = np.cumsum(tchange) - 1
    term_ord = np.repeat(term_rank, seg_n)
    order = np.lexsort((ids, term_ord))

    flat_terms = terms_col.take(
        pa.array(np.repeat(np.arange(nrows), seg_n))).take(pa.array(order))
    out = [flat_terms, ids[order], tfs[order], dls[order]]

    if "npos_enc" in g.column_names:
        npos, pos_bytes, post_ends = position_ranges(g)
        payloads = _binary_from_seg_ends(
            pos_bytes, post_ends[1:]).take(pa.array(order))
        out.append(npos[order].astype(np.uint64))
        out.append(payloads)
    return tuple(out)


def decode_positions(blocks: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """Decode the positional payload of posting-block rows (same row subset /
    order as :func:`decode_blocks`). Returns ``(offsets, positions)`` where
    posting i's absolute in-document positions are
    ``positions[offsets[i]:offsets[i+1]]`` (ascending). Raises KeyError if
    the index was built without positions."""
    nb = len(blocks)
    if nb == 0:
        return np.zeros(1, np.int64), np.empty(0, np.uint64)

    counts = decode_segments(blocks.column("npos_enc")).astype(np.int64)
    vals = decode_segments(blocks.column("pos_enc"))
    offsets = np.zeros(len(counts) + 1, np.int64)
    np.cumsum(counts, out=offsets[1:])
    if len(vals) == 0:
        return offsets, np.empty(0, np.uint64)
    return offsets, _seg_positions(vals, counts)


def _seg_positions(vals: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Absolute positions from decoded per-posting payloads: segment i holds
    counts[i] values [first_pos, gap, gap, ...] — a segmented running sum
    (C kernel when available)."""
    if len(vals) == 0:
        return np.empty(0, np.uint64)
    from ..functions.ctok import load as _load_ctok

    ct = _load_ctok()
    seg = getattr(ct, "seg_prefix_sum64", None) if ct else None
    if seg is not None:
        return np.frombuffer(
            seg(np.ascontiguousarray(vals).data,
                np.ascontiguousarray(counts, np.int64).data), np.uint64)
    offsets = np.zeros(len(counts) + 1, np.int64)
    np.cumsum(counts, out=offsets[1:])
    cs = np.cumsum(vals, dtype=np.uint64)
    starts = offsets[:-1][counts > 0]
    base = cs[starts] - vals[starts]
    return cs - np.repeat(base, counts[counts > 0])
