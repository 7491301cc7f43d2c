import os
import struct
import time
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridens.errors import DataError
from hybridens.imageio import bilinear_resize, read_image, write_file, write_pgm, write_ppm
from oracle_utils import make_png


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.random((17, 23))
    path = tmp_path / "x.pgm"
    write_pgm(path, img)
    back = read_image(path)
    assert back.shape == img.shape
    assert np.max(np.abs(back - img)) <= 1.0 / 255.0


def test_pgm_full_scale_pixel_reads_as_one(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5\n2 1\n255\n" + bytes([255, 0]))
    img = read_image(path)
    assert img[0, 0] == 1.0
    assert img[0, 1] == 0.0


def test_pgm_header_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# made by hand\n2 2\n255\n" + bytes([0, 64, 128, 255]))
    img = read_image(path)
    assert img.shape == (2, 2)
    assert img[1, 1] == 1.0


@pytest.mark.parametrize("maxval", [1000, 65535])
def test_pgm_16_bit_round_trip(tmp_path, maxval):
    # A maxval above 255 makes each sample two big-endian bytes.
    samples = np.array([[0, 1, 255], [256, maxval - 1, maxval]])
    path = tmp_path / "x.pgm"
    path.write_bytes(f"P5\n3 2\n{maxval}\n".encode() + samples.astype(">u2").tobytes())
    assert np.array_equal(read_image(path), samples / maxval)


@pytest.mark.parametrize("header", [
    b"P5# by hand\n2 1 255\n",  # a comment right after the magic number
    b"P5 #w\n2 #h\n1\n#maxval\n255\n",  # a comment before every field
    b"P52 1 255\n",  # no whitespace after the magic number
])
def test_pgm_header_grammar_accepts(tmp_path, header):
    path = tmp_path / "x.pgm"
    path.write_bytes(header + bytes([0, 255]))
    assert np.array_equal(read_image(path), [[0.0, 1.0]])


@pytest.mark.parametrize("raw, message", [
    (b"P5 2# w\n1 255\n\x00\xff", "malformed PGM header"),  # '#' right after a field
    (b"P5 2 1 # no newline", "malformed PGM header"),  # an unterminated comment
    (b"P5 2 1 255", "truncated PGM raster"),  # the file ends right after maxval
])
def test_pgm_header_grammar_rejects(tmp_path, raw, message):
    path = tmp_path / "x.pgm"
    path.write_bytes(raw)
    with pytest.raises(DataError, match=message):
        read_image(path)


def test_pgm_header_of_hashes_is_rejected_quickly(tmp_path):
    # A run of '#' with no newline must not make the header grammar backtrack
    # exponentially.
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5 " + b"#" * 65536)
    start = time.perf_counter()
    with pytest.raises(DataError, match="malformed PGM header"):
        read_image(path)
    assert time.perf_counter() - start < 1.0


WHITESPACE = b" \t\n\r\x0b\x0c"
GAPS = st.lists(st.sampled_from([bytes([c]) for c in WHITESPACE] + [b"#\n", b"# a #\n"]))
SPACED_GAP = st.tuples(st.sampled_from(WHITESPACE), GAPS)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 5), st.integers(1, 5), st.integers(1, 65535), GAPS, SPACED_GAP, SPACED_GAP,
    st.sampled_from(WHITESPACE), st.integers(0, 2**32 - 1),
)
def test_pgm_header_encodings_read_back(
    tmp_path_factory, w, h, maxval, gap0, gap1, gap2, end, seed
):
    """Any header the grammar allows reads back the image it encodes: gaps
    of whitespace and comments before each field (one whitespace byte first
    after width and height), and one whitespace byte before the raster."""
    samples = np.random.default_rng(seed).integers(0, maxval + 1, size=(h, w))
    header = b"P5" + b"".join(gap0) + str(w).encode()
    for (space, gap), field in ((gap1, h), (gap2, maxval)):
        header += bytes([space]) + b"".join(gap) + str(field).encode()
    raster = samples.astype(np.uint8 if maxval < 256 else ">u2").tobytes()
    path = tmp_path_factory.mktemp("pgm") / "x.pgm"
    path.write_bytes(header + bytes([end]) + raster)
    assert np.array_equal(read_image(path), samples / maxval)


def test_pgm_truncated_raster_rejected(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
    with pytest.raises(DataError, match="bad.pgm"):
        read_image(path)


ZERO_SIZE_IMAGES = {
    "pgm-0x0": b"P5\n0 0\n255\n",
    "pgm-0x5": b"P5\n0 5\n255\n",
    "pgm-5x0": b"P5\n5 0\n255\n" + bytes(5),
    "png-0x5": make_png(np.zeros((5, 0))),
    "png-5x0": make_png(np.zeros((0, 5))),
}


@pytest.mark.parametrize("name", sorted(ZERO_SIZE_IMAGES))
def test_zero_size_image_rejected(tmp_path, name):
    path = tmp_path / f"{name}.{name[:3]}"
    path.write_bytes(ZERO_SIZE_IMAGES[name])
    with pytest.raises(DataError, match="not at least 1x1"):
        read_image(path)


def test_unreadable_file_named_in_error(tmp_path):
    with pytest.raises(DataError, match="missing.pgm"):
        read_image(tmp_path / "missing.pgm")


@pytest.mark.parametrize("filter_type, depth", [
    pytest.param(f, d, id=str(f) if d == 8 else f"{f}-16bit") for d in (8, 16) for f in range(5)
])
def test_png_round_trip(tmp_path, filter_type, depth):
    top = 2**depth - 1
    rng = np.random.default_rng(1)
    raw = rng.integers(0, top + 1, size=(9, 13))
    raw[0, :3] = (0, top, top)  # a flat run and both extremes
    path = tmp_path / "x.png"
    path.write_bytes(make_png(raw, filter_type, depth))
    assert np.array_equal(read_image(path), raw / top)


def test_png_unknown_filter_type_rejected(tmp_path):
    path = tmp_path / "x.png"
    path.write_bytes(make_png(np.zeros((2, 3)), filter_type=5))
    with pytest.raises(DataError, match="unknown PNG filter type 5"):
        read_image(path)


def test_png_rgb_rejected(tmp_path):
    body = struct.pack(">IIBBBBB", 2, 2, 8, 2, 0, 0, 0)
    chunk = struct.pack(">I", len(body)) + b"IHDR" + body
    chunk += struct.pack(">I", zlib.crc32(b"IHDR" + body) & 0xFFFFFFFF)
    path = tmp_path / "rgb.png"
    path.write_bytes(b"\x89PNG\r\n\x1a\n" + chunk)
    with pytest.raises(DataError, match="color type"):
        read_image(path)


def test_ppm_writer_shape_and_header(tmp_path):
    img = np.zeros((2, 3, 3), dtype=np.uint8)
    img[0, 0] = (255, 0, 0)
    path = tmp_path / "x.ppm"
    write_ppm(path, img)
    raw = path.read_bytes()
    assert raw.startswith(b"P6\n3 2\n255\n")
    assert raw[len(b"P6\n3 2\n255\n") :] == img.tobytes()


def test_write_file_encodes_text_and_makes_the_parent(tmp_path):
    path = tmp_path / "a" / "b" / "note.txt"
    write_file(path, "gr\u00fc\u00dfe\n")
    assert path.read_bytes() == "gr\u00fc\u00dfe\n".encode("utf-8")
    write_file(path, b"\x00\xff")
    assert path.read_bytes() == b"\x00\xff"
    assert os.listdir(path.parent) == ["note.txt"]


def test_write_file_leaves_old_bytes_and_no_temporary_file_when_replace_fails(
    tmp_path, monkeypatch
):
    old = tmp_path / "old.ckpt"
    write_file(old, b"old bytes")

    def fail(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", fail)
    for path in (old, tmp_path / "new" / "fresh.json"):
        with pytest.raises(OSError, match="replace failed"):
            write_file(path, b"new bytes" * 1000)
    assert old.read_bytes() == b"old bytes"
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == [
        "new", "old.ckpt"
    ]


def test_bilinear_matches_linear_ramp_oracle():
    # Bilinear interpolation reproduces any affine ramp exactly; the oracle
    # evaluates the ramp at the corner-aligned source coordinates.
    h, w, oh, ow = 16, 16, 32, 32
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    ramp = 0.1 + 0.02 * yy + 0.01 * xx
    out = bilinear_resize(ramp, oh, ow)
    ys = np.linspace(0, h - 1, oh)[:, None]
    xs = np.linspace(0, w - 1, ow)[None, :]
    expected = 0.1 + 0.02 * ys + 0.01 * xs
    assert np.allclose(out, expected, atol=1e-12)


def test_bilinear_preserves_corners():
    rng = np.random.default_rng(2)
    img = rng.random((16, 16))
    out = bilinear_resize(img, 32, 32)
    assert out[0, 0] == img[0, 0]
    assert out[0, -1] == img[0, -1]
    assert out[-1, 0] == img[-1, 0]
    assert out[-1, -1] == img[-1, -1]


def test_bilinear_constant_stays_constant():
    out = bilinear_resize(np.full((5, 7), 0.37), 13, 3)
    assert np.allclose(out, 0.37, atol=0)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 12), st.integers(2, 12), st.integers(1, 24), st.integers(1, 24),
    st.integers(0, 2**32 - 1),
)
def test_bilinear_stays_within_input_range(h, w, oh, ow, seed):
    img = np.random.default_rng(seed).random((h, w))
    out = bilinear_resize(img, oh, ow)
    assert out.shape == (oh, ow)
    assert out.min() >= img.min() - 1e-12
    assert out.max() <= img.max() + 1e-12


CLEAN_IMAGES = {
    "pgm": b"P5\n7 6\n255\n" + bytes(range(0, 252, 6)),
    "png": make_png(np.arange(42).reshape(6, 7) * 6),
}


@pytest.mark.parametrize("fmt", sorted(CLEAN_IMAGES))
@settings(max_examples=300, deadline=None)
@given(cut=st.integers(0, 2**16), pos=st.integers(0, 2**16), flip=st.integers(0, 255))
@example(cut=20, pos=0, flip=0)  # a PNG cut inside its IHDR body
@example(cut=53, pos=3, flip=0x07)  # the PGM with its width flipped from 7 to 0
@example(cut=53, pos=7, flip=0x03)  # the PGM with its maxval cut from 255 to 155
def test_damaged_image_reads_or_raises_data_error(tmp_path_factory, fmt, cut, pos, flip):
    clean = CLEAN_IMAGES[fmt]
    raw = bytearray(clean[: cut % (len(clean) + 1)])
    if raw:
        raw[pos % len(raw)] ^= flip
    path = tmp_path_factory.mktemp("fuzz") / f"damaged.{fmt}"
    path.write_bytes(bytes(raw))
    try:
        image = read_image(path)
    except DataError:
        return
    assert image.ndim == 2 and min(image.shape) >= 1
    assert np.all((image >= 0.0) & (image <= 1.0))
