"""MPEG-1 intra codec: spec-level hand-built bitstreams, lossless
mosaics, PSNR bounds, honest-boundary errors (see mpeg1_codec docstring
for the oracle situation — no second MPEG implementation exists in this
container, so the decoder is pinned by hand-assembled spec bitstreams
plus constructions where the codec is exact)."""

import numpy as np
import pytest

from markdown_query_ray.functions.mpeg1_codec import (
    decode_mpeg1_iframes,
    encode_mpeg1_iframes,
)


def _bits_to_bytes(bits: str) -> bytes:
    bits = bits + "0" * ((-len(bits)) % 8)
    return bytes(int(bits[i:i + 8], 2) for i in range(0, len(bits), 8))


def _hand_stream_16x16_const100() -> bytes:
    """A complete 16x16 single-I-picture stream written bit by bit from
    ISO 11172-2 directly (no module tables): all four Y blocks constant
    100 (DC-only), neutral chroma. Decoding it validates the sequence/
    picture/slice grammar, B.1/B.2a/B.5a/B.5b codes, the DC prediction
    chain and the DC reconstruction path against the spec, independent
    of our encoder."""
    seq = (format(16, "012b") + format(16, "012b")   # h_size, v_size
           + "0001"            # pel_aspect 1:1
           + "0011"            # picture_rate 25
           + "1" * 18          # bit_rate: variable
           + "1"               # marker
           + "0" * 10          # vbv_buffer_size
           + "0"               # constrained
           + "0" + "0")        # no custom matrices
    pic = ("0" * 10            # temporal_reference
           + "001"             # picture_coding_type I
           + "1" * 16          # vbv_delay
           + "0")              # extra_bit_picture
    # slice: quantizer_scale 8, one intra MB.
    # Y DC: value 100 (=round(8*100/8)); pred 128 -> diff -28:
    #   size 5 (B.5a '1110'), code = -28 + 2^5 - 1 = 3 -> '00011'
    # Y blocks 2-4: diff 0 -> size 0 ('100'); chroma: diff 0 -> '00'
    mb = ("1"                  # macroblock_address_increment 1
          + "1"                # macroblock_type: intra
          + "1110" + "00011" + "10"   # Y0: DC size5, -28, EOB
          + "100" + "10"              # Y1
          + "100" + "10"              # Y2
          + "100" + "10"              # Y3
          + "00" + "10"               # Cb: DC size 0, EOB
          + "00" + "10")              # Cr
    sl = format(8, "05b") + "0" + mb  # qscale, extra_bit_slice, MBs
    return (b"\x00\x00\x01\xb3" + _bits_to_bytes(seq)
            + b"\x00\x00\x01\x00" + _bits_to_bytes(pic)
            + b"\x00\x00\x01\x01" + _bits_to_bytes(sl)
            + b"\x00\x00\x01\xb7")


def test_hand_assembled_stream_decodes_to_spec():
    out = decode_mpeg1_iframes(_hand_stream_16x16_const100())
    assert out.shape == (1, 16, 16)
    assert np.all(out[0] == 100)


def test_mosaic_roundtrip_lossless():
    """8x8-constant mosaics are DC-only: quantization is exact, so the
    full encode->decode loop must reproduce them bit for bit (this is
    what makes the driver fixture spec-recomputable)."""
    rng = np.random.default_rng(3)
    for shape, q in (((2, 2), 8), ((3, 5), 8), ((1, 1), 16), ((4, 2), 1)):
        mos = np.repeat(np.repeat(
            rng.integers(0, 256, shape, dtype=np.uint8), 8, 0), 8, 1)
        frames = [mos, mos[::-1].copy(), np.full_like(mos, 7)]
        out = decode_mpeg1_iframes(encode_mpeg1_iframes(frames, qscale=q))
        assert out.shape == (3,) + mos.shape
        for f, o in zip(frames, out):
            assert np.array_equal(o, f), (shape, q)


def test_random_frames_psnr_and_crop():
    """Non-multiple-of-16 sizes pad at encode and crop at decode; PSNR
    of the lossy roundtrip stays high at low qscale."""
    rng = np.random.default_rng(11)
    for h, w, q, floor in ((33, 47, 1, 40.0), (24, 24, 2, 36.0),
                           (17, 50, 4, 30.0)):
        f = rng.integers(0, 256, (h, w), dtype=np.uint8)
        o = decode_mpeg1_iframes(encode_mpeg1_iframes([f], qscale=q))[0]
        assert o.shape == (h, w)
        mse = np.mean((o.astype(float) - f.astype(float)) ** 2)
        psnr = 10 * np.log10(255 ** 2 / mse)
        assert psnr >= floor, (h, w, q, psnr)


def test_smooth_frames_near_lossless():
    """Low-frequency content at qscale 1 should be visually lossless
    (max pixel error tiny)."""
    g = np.add.outer(np.arange(32), np.arange(48)) * 2 % 256
    f = g.astype(np.uint8)
    o = decode_mpeg1_iframes(encode_mpeg1_iframes([f], qscale=1))[0]
    assert int(np.abs(o.astype(int) - f.astype(int)).max()) <= 4


def test_escape_coding_roundtrip():
    """High-contrast content forces (run, level) pairs outside the
    implemented B.5c table -> the encoder escapes; decode must stay in
    sync and reconstruct well."""
    f = np.zeros((16, 16), np.uint8)
    f[::2, ::2] = 255  # maximal checkerboard energy
    o = decode_mpeg1_iframes(encode_mpeg1_iframes([f], qscale=1))[0]
    mse = np.mean((o.astype(float) - f.astype(float)) ** 2)
    assert 10 * np.log10(255 ** 2 / mse) >= 30.0


def test_custom_quant_matrix_roundtrip():
    """A flat custom intra matrix rides the sequence header (zigzag
    transmission order) and must be used by the decoder."""
    rng = np.random.default_rng(7)
    f = rng.integers(0, 256, (16, 32), dtype=np.uint8)
    flat = np.full((8, 8), 16, np.int64)
    bs = encode_mpeg1_iframes([f], qscale=2, qmat=flat)
    o = decode_mpeg1_iframes(bs)[0]
    mse = np.mean((o.astype(float) - f.astype(float)) ** 2)
    assert 10 * np.log10(255 ** 2 / mse) >= 35.0
    # and the stream differs from the default-matrix one
    assert bs != encode_mpeg1_iframes([f], qscale=2)


def test_encoder_deterministic():
    rng = np.random.default_rng(13)
    f = rng.integers(0, 256, (32, 32), dtype=np.uint8)
    assert encode_mpeg1_iframes([f, f]) == encode_mpeg1_iframes([f, f])


def test_p_picture_raises():
    data = bytearray(encode_mpeg1_iframes(
        [np.zeros((16, 16), np.uint8)]))
    # flip picture_coding_type (bits 10-12 after the picture start
    # code) from 001 (I) to 010 (P): byte layout is tttttttt tt TTT x,
    # so the second byte holds the low 2 temporal bits + the 3 type bits
    i = bytes(data).find(b"\x00\x00\x01\x00") + 4
    data[i + 1] = (data[i + 1] & 0b11000011) | 0b00010000
    with pytest.raises(NotImplementedError, match="motion"):
        decode_mpeg1_iframes(bytes(data))


def test_malformed_raises():
    with pytest.raises(ValueError):
        decode_mpeg1_iframes(b"RIFFnot-mpeg")
    with pytest.raises(ValueError):
        decode_mpeg1_iframes(b"\x00\x00\x01\xb7" + b"\x00" * 16)


def test_mpeg1_fixture_lossless_and_pipeline(ray_session):
    """The driver fixture's mosaic frames decode to EXACTLY the
    spec-derived pixels, and the table flows through the sampling +
    feature actor-pool stages."""
    import ray.data

    from markdown_query_ray.pipelines.multimodal import (
        make_mpeg1_video_table,
        video_frame_features,
    )

    t = make_mpeg1_video_table(6)
    for mid, data, nf in zip(t.column("media_id").to_pylist(),
                             t.column("media").to_pylist(),
                             t.column("n_frames").to_pylist()):
        rng = np.random.Generator(np.random.PCG64(47 * 100003 + mid))
        nf2 = int(rng.integers(3, 9))
        mw, mh = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        want = [np.repeat(np.repeat(
            rng.integers(0, 256, (mh * 2, mw * 2), dtype=np.uint8),
            8, axis=0), 8, axis=1) for _ in range(nf2)]
        got = decode_mpeg1_iframes(data)
        assert nf2 == nf and len(got) == nf
        for w_, g in zip(want, got):
            assert np.array_equal(w_, g)

    out = video_frame_features(ray.data.from_arrow(t), n_samples=4)
    assert out.count() > 0


def test_sequence_header_without_matrix_resets_custom_matrix():
    """A second sequence header that loads no intra matrix must decode
    with the default matrix, not the first sequence's custom one."""
    rng = np.random.default_rng(11)
    a = rng.integers(0, 256, (16, 16), dtype=np.uint8)
    b = rng.integers(0, 256, (16, 16), dtype=np.uint8)
    custom = encode_mpeg1_iframes([a], qscale=2,
                                  qmat=np.full((8, 8), 40, np.int64))
    end = b"\x00\x00\x01\xb7"
    assert custom.endswith(end)
    default = encode_mpeg1_iframes([b, b[::-1]], qscale=2)
    both = decode_mpeg1_iframes(custom[:-len(end)] + default)
    assert len(both) == 3
    assert np.array_equal(both[0], decode_mpeg1_iframes(custom)[0])
    alone = decode_mpeg1_iframes(default)
    assert np.array_equal(np.stack(list(both[1:])), alone)
