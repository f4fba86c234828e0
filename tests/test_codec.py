"""Property-based round-trip tests for the varint/delta block codec."""

import ast
import pathlib

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markdown_query_ray.index.codec import (
    decode_blocks,
    decode_varints,
    encode_partition,
    encode_varints,
)

# exact arithmetic: a RuntimeWarning here is an engine bug, not noise
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=200))
@settings(max_examples=200, deadline=None)
def test_varint_roundtrip(vals):
    arr = np.array(vals, dtype=np.uint64)
    payload, ends = encode_varints(arr)
    out = decode_varints(payload)
    assert out.tolist() == vals
    if vals:
        assert ends[-1] == len(payload)


def test_varint_known_bytes():
    payload, _ = encode_varints(np.array([0, 1, 127, 128, 300], np.uint64))
    assert payload.tobytes() == bytes([0x00, 0x01, 0x7F, 0x80, 0x01,
                                       0xAC, 0x02])


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=300))
@settings(max_examples=150, deadline=None)
def test_varint_c_numpy_parity(vals):
    """The C kernel (functions/_ctok.c varint_{en,de}code64) and the numpy
    implementation must agree byte-for-byte; skips silently to a self-check
    when the C module is unavailable (both paths then run the numpy code)."""
    from markdown_query_ray.index.codec import (
        _decode_varints_np,
        _encode_varints_np,
    )

    arr = np.array(vals, dtype=np.uint64)
    payload, ends = encode_varints(arr)  # C path when available
    if len(arr):
        p_np, e_np = _encode_varints_np(arr)
        assert np.array_equal(payload, p_np)
        assert np.array_equal(ends, e_np)
        assert np.array_equal(
            decode_varints(payload),
            _decode_varints_np(np.frombuffer(payload.tobytes(), np.uint8)))
    assert decode_varints(payload).tolist() == vals


def _roundtrip(terms, ids, tfs, dls, block_size):
    t = np.array(terms, dtype=object)
    blocks = encode_partition(t, np.array(ids, np.uint64),
                              np.array(tfs, np.uint64),
                              np.array(dls, np.uint64),
                              block_size=block_size)
    d_ids, d_tfs, d_dls, block_of = decode_blocks(blocks)
    assert d_ids.tolist() == list(ids)
    assert d_tfs.tolist() == list(tfs)
    assert d_dls.tolist() == list(dls)
    # block-level metadata
    bt = blocks.to_pydict()
    for b in range(len(blocks)):
        sel = block_of == b
        assert bt["first_doc_id"][b] == d_ids[sel][0]
        assert bt["last_doc_id"][b] == d_ids[sel][-1]
        assert bt["n"][b] == sel.sum()
        assert bt["max_wdf"][b] == d_tfs[sel].max()
        assert bt["min_doclen"][b] == d_dls[sel].min()
        assert bt["sum_wdf"][b] == d_tfs[sel].sum()
    return blocks


def test_single_term_multi_block():
    n = 300
    ids = np.cumsum(np.arange(n) % 7 + 1)
    blocks = _roundtrip(["t"] * n, ids, (np.arange(n) % 5 + 1),
                        (np.arange(n) % 90 + 10), block_size=128)
    assert blocks.column("term").to_pylist() == ["t", "t", "t"]
    assert blocks.column("block_id").to_pylist() == [0, 1, 2]
    assert blocks.column("n").to_pylist() == [128, 128, 44]


def test_multi_term_partition():
    terms = ["alpha"] * 5 + ["beta"] * 1 + ["gamma"] * 130
    ids = list(range(10, 15)) + [3] + list(range(1000, 1130))
    tfs = [1, 2, 3, 4, 5] + [9] + [1] * 130
    dls = [50] * 5 + [20] + [70] * 130
    blocks = _roundtrip(terms, ids, tfs, dls, block_size=128)
    assert blocks.column("term").to_pylist() == ["alpha", "beta", "gamma",
                                                "gamma"]


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_random_partitions(data):
    n_terms = data.draw(st.integers(1, 5))
    terms, ids, tfs, dls = [], [], [], []
    for ti in range(n_terms):
        n_docs = data.draw(st.integers(1, 40))
        docs = sorted(data.draw(st.sets(
            st.integers(0, 10**12), min_size=n_docs, max_size=n_docs)))
        for d in docs:
            terms.append(f"term{ti:03d}")
            ids.append(d)
            tfs.append(data.draw(st.integers(1, 1000)))
            dls.append(data.draw(st.integers(1, 10**6)))
    _roundtrip(terms, ids, tfs, dls,
               block_size=data.draw(st.sampled_from([4, 16, 128])))


def test_empty_partition():
    blocks = encode_partition(np.array([], dtype=object),
                              np.array([], np.uint64),
                              np.array([], np.uint64),
                              np.array([], np.uint64))
    assert len(blocks) == 0
    d_ids, d_tfs, d_dls, block_of = decode_blocks(blocks)
    assert len(d_ids) == 0


def test_blocks_table_schema_stable():
    blocks = _roundtrip(["x"], [7], [3], [11], 128)
    assert blocks.schema.names == [
        "term", "block_id", "first_doc_id", "last_doc_id", "n",
        "ids_enc", "tfs_enc", "dls_enc", "max_wdf", "min_doclen", "sum_wdf"]


def test_seg_prefix_sum_kernel_matches_numpy():
    """The fused C positional reconstruction must equal the numpy segmented
    cumsum for random segment layouts (incl. empty segments)."""
    import numpy as np

    from markdown_query_ray.functions.ctok import load as load_ctok

    ct = load_ctok()
    if ct is None or not hasattr(ct, "seg_prefix_sum64"):
        import pytest

        pytest.skip("C kernels unavailable")
    rng = np.random.Generator(np.random.PCG64(21))
    for _ in range(50):
        nseg = int(rng.integers(0, 40))
        counts = rng.integers(0, 7, size=nseg).astype(np.int64)
        vals = rng.integers(0, 1 << 40, size=int(counts.sum())).astype(
            np.uint64)
        got = np.frombuffer(
            ct.seg_prefix_sum64(np.ascontiguousarray(vals).data,
                                np.ascontiguousarray(counts).data),
            np.uint64)
        # numpy reference
        offsets = np.zeros(len(counts) + 1, np.int64)
        np.cumsum(counts, out=offsets[1:])
        if len(vals) == 0:
            assert len(got) == 0
            continue
        cs = np.cumsum(vals, dtype=np.uint64)
        starts = offsets[:-1][counts > 0]
        base = cs[starts] - vals[starts]
        want = cs - np.repeat(base, counts[counts > 0])
        assert np.array_equal(got, want)


@pytest.mark.parametrize("positions", [False, True],
                         ids=["varint-False", "varint-True"])
def test_partial_rows_roundtrip(positions):
    """The merge shuffle's partial rows (PartialPostingsStage) decode
    back, per shuffle group, to exactly the postings the staging rows
    hold, in (term, doc_id) order."""
    from markdown_query_ray.config import IndexConfig
    from markdown_query_ray.index.build import PartialPostingsStage, term_part
    from markdown_query_ray.index.codec import (
        decode_partial_group,
        pack_positions,
        partial_schema,
    )
    from markdown_query_ray.stages.tokenize import staging_table

    rng = np.random.default_rng(5)
    cfg = IndexConfig(num_term_parts=3, num_doc_buckets=2,
                      positions=positions)
    dpb = 1000
    vocab = [f"w{i}" for i in range(25)]
    doc_ids = np.sort(rng.choice(4 * dpb, 60, replace=False))
    docs, want = [], []
    for d in doc_ids.tolist():
        terms = rng.choice(vocab, int(rng.integers(1, 10)), replace=False)
        counts, pos_map = {}, {}
        for t in terms.tolist():
            counts[t] = int(rng.integers(1, 6))
            pos_map[t] = sorted((rng.choice(10**5, counts[t], replace=False)
                                 + 1).tolist())
        counts["Zbig"] = int(rng.integers(0, 1 << 20))  # wide, no positions
        pos_of = pack_positions(pos_map)
        docs.append((counts, pos_of if positions else {}))
        dl = sum(counts.values())
        for t, tf in counts.items():
            skey = term_part(t, 3) * 2 + (d // dpb) % 2
            npos, payload = pos_of.get(t, (0, b""))
            want.append((skey, t, d, tf, dl, npos, payload))
    batch = staging_table(cfg, pa.array(doc_ids, pa.uint64()),
                          pa.array([f"u{d}" for d in doc_ids.tolist()]),
                          docs)
    stage = PartialPostingsStage(cfg, dpb)
    rows = pa.concat_tables([stage(batch.slice(0, 25)),
                             stage(batch.slice(25))])
    assert rows.schema == partial_schema(positions)
    skeys = rows.column("skey").to_numpy()
    assert sorted(set(skeys.tolist())) == sorted({w[0] for w in want})
    for k in set(skeys.tolist()):
        got = decode_partial_group(rows.filter(pa.array(skeys == k)))
        exp = sorted(w[1:] for w in want if w[0] == k)
        cols = [got[0].to_pylist()] + [c.tolist() for c in got[1:4]]
        if positions:
            cols += [got[4].tolist(), got[5].to_pylist()]
        else:
            assert len(got) == 4
            exp = [e[:4] for e in exp]
        assert list(zip(*cols)) == exp


def test_unknown_codec_raises():
    blocks = _roundtrip(["x"], [7], [3], [11], 128)
    with pytest.raises(ValueError, match="unknown posting codec"):
        decode_blocks(blocks, codec="zstd")


# ---------------------------------------------------------------------------
# source scan: the payload format is known to index/codec.py only
# ---------------------------------------------------------------------------

_PKG = pathlib.Path(__file__).resolve().parents[1] / "markdown_query_ray"
_CODEC_NAMES = {"varint", "bitpack"}
_VARINT_MASKS = {0x80, 0x7F}


def _constants(node):
    if isinstance(node, ast.Constant):
        yield node.value
    elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        for e in node.elts:
            yield from _constants(e)


def _format_knowledge(source: str):
    """(line, what) of each comparison against a codec name and each
    varint bit mask (``& 0x80`` / ``& 0x7F``) in one module's source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            for operand in [node.left, *node.comparators]:
                for v in _constants(operand):
                    if isinstance(v, str) and v in _CODEC_NAMES:
                        yield node.lineno, f"compares against {v!r}"
        elif isinstance(node, ast.BinOp) and \
                isinstance(node.op, (ast.BitAnd, ast.BitOr)):
            for v in _constants(node.left):
                if isinstance(v, int) and v in _VARINT_MASKS:
                    yield node.lineno, f"masks varint bits {v:#x}"
            for v in _constants(node.right):
                if isinstance(v, int) and v in _VARINT_MASKS:
                    yield node.lineno, f"masks varint bits {v:#x}"


def test_payload_format_owned_by_codec_module():
    """Outside index/codec.py, no index or query module branches on a
    codec name or parses varint bytes: a format change is a change to
    one module."""
    found = []
    for sub in ("index", "query"):
        for path in sorted((_PKG / sub).rglob("*.py")):
            if path.name == "codec.py" and sub == "index":
                continue
            for line, what in _format_knowledge(path.read_text()):
                found.append(f"{path.relative_to(_PKG)}:{line} {what}")
    assert not found, "\n".join(found)


def test_format_scan_sees_what_it_forbids():
    src = ("if g.get('codec') == 'bitpack':\n    pass\n"
           "v |= (b & 0x7F) << s\nif codec in ('varint', 'x'):\n    pass\n")
    assert sorted(line for line, _ in _format_knowledge(src)) == [1, 3, 4]
    codec_src = (_PKG / "index" / "codec.py").read_text()
    assert any("0x80" in w for _, w in _format_knowledge(codec_src))
