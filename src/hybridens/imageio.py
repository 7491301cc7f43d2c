"""Grayscale image I/O (binary PGM/PPM, minimal PNG), bilinear resizing, and
the one atomic file writer every artifact goes through.

Images travel through the pipeline as float64 arrays of shape (H, W) with
intensities in [0, 1].  One bilinear routine serves both dataset ingestion
and heatmap upsampling so it is tested once.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import DataError

_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def write_file(path: str | Path, data: bytes | str) -> None:
    """Write `data` (a str as UTF-8) to `path` whole or not at all: the bytes
    go to a hidden temporary sibling that `os.replace` then moves onto `path`.
    The parent directory is created; on failure the old `path` is untouched."""
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_image(path: str | Path) -> np.ndarray:
    """Read a grayscale image (PGM P5 or grayscale PNG) into [0, 1] floats."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise DataError(f"unreadable image file: {path}") from exc
    if raw[:2] == b"P5":
        return _decode_pgm(raw, path)
    if raw[: len(_PNG_SIGNATURE)] == _PNG_SIGNATURE:
        return _decode_png(raw, path)
    raise DataError(f"unsupported image format (want P5 PGM or grayscale PNG): {path}")


def write_pgm(path: str | Path, image: np.ndarray) -> None:
    """Write a [0, 1] float image as binary 8-bit PGM (P5)."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"expected 2-D grayscale image, got shape {img.shape}")
    data = np.rint(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = data.shape
    write_file(path, f"P5\n{w} {h}\n255\n".encode("ascii") + data.tobytes())


def write_ppm(path: str | Path, image: np.ndarray) -> None:
    """Write an (H, W, 3) uint8 image as binary PPM (P6)."""
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
        raise ValueError(f"expected (H, W, 3) uint8 image, got {img.shape} {img.dtype}")
    h, w, _ = img.shape
    write_file(path, f"P6\n{w} {h}\n255\n".encode("ascii") + img.tobytes())


def _decode_pgm(raw: bytes, path: Path) -> np.ndarray:
    # Header: "P5" <ws> width <ws> height <ws> maxval <single ws> pixel data.
    # '#' comments may appear inside the whitespace runs.
    pos = 2
    fields: list[int] = []
    while len(fields) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        token = raw[start:pos]
        if not token.isdigit():
            raise DataError(f"malformed PGM header: {path}")
        fields.append(int(token))
    pos += 1  # single whitespace byte before the raster
    width, height, maxval = fields
    if width == 0 or height == 0:
        raise DataError(f"PGM image is {width}x{height}, not at least 1x1: {path}")
    if maxval <= 0 or maxval > 65535:
        raise DataError(f"unsupported PGM maxval {maxval}: {path}")
    dtype = np.uint8 if maxval < 256 else ">u2"
    count = width * height
    try:
        pixels = np.frombuffer(raw, dtype=dtype, count=count, offset=pos)
    except ValueError as exc:
        raise DataError(f"truncated PGM raster: {path}") from exc
    if pixels.max() > maxval:
        raise DataError(f"PGM pixel {pixels.max()} above maxval {maxval}: {path}")
    return pixels.reshape(height, width).astype(np.float64) / float(maxval)


def _decode_png(raw: bytes, path: Path) -> np.ndarray:
    pos = len(_PNG_SIGNATURE)
    width = height = bitdepth = None
    idat = bytearray()
    while pos + 8 <= len(raw):
        length, ctype = struct.unpack(">I4s", raw[pos : pos + 8])
        body = raw[pos + 8 : pos + 8 + length]
        pos += 12 + length  # length + type + body + crc
        if ctype == b"IHDR":
            if len(body) != 13:
                raise DataError(f"PNG IHDR chunk is {len(body)} bytes, not 13: {path}")
            width, height, bitdepth, color, _comp, _filt, interlace = struct.unpack(
                ">IIBBBBB", body
            )
            if width == 0 or height == 0:
                raise DataError(f"PNG image is {width}x{height}, not at least 1x1: {path}")
            if color != 0:
                raise DataError(f"PNG color type {color} not supported (grayscale only): {path}")
            if bitdepth not in (8, 16):
                raise DataError(f"PNG bit depth {bitdepth} not supported: {path}")
            if interlace != 0:
                raise DataError(f"interlaced PNG not supported: {path}")
        elif ctype == b"IDAT":
            idat.extend(body)
        elif ctype == b"IEND":
            break
    if width is None or not idat:
        raise DataError(f"malformed PNG (missing IHDR or IDAT): {path}")
    try:
        stream = zlib.decompress(bytes(idat))
    except zlib.error as exc:
        raise DataError(f"corrupt PNG pixel stream: {path}") from exc
    bpp = bitdepth // 8
    stride = width * bpp
    if len(stream) != height * (stride + 1):
        raise DataError(f"PNG pixel stream has wrong length: {path}")
    out = np.empty((height, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    for row in range(height):
        offset = row * (stride + 1)
        ftype = stream[offset]
        line = np.frombuffer(stream, dtype=np.uint8, count=stride, offset=offset + 1)
        out[row] = _unfilter_row(ftype, line, prev, bpp, path)
        prev = out[row]
    if bitdepth == 8:
        pixels = out.astype(np.float64) / 255.0
    else:
        pixels = out.reshape(height, width, 2).astype(np.float64)
        pixels = (pixels[..., 0] * 256.0 + pixels[..., 1]) / 65535.0
        return pixels
    return pixels.reshape(height, width)


def _unfilter_row(
    ftype: int, line: np.ndarray, prev: np.ndarray, bpp: int, path: Path
) -> np.ndarray:
    out = line.astype(np.int32)
    up = prev.astype(np.int32)
    if ftype == 0:
        pass
    elif ftype == 1:  # Sub
        for i in range(bpp, out.size):
            out[i] = (out[i] + out[i - bpp]) & 0xFF
    elif ftype == 2:  # Up
        out = (out + up) & 0xFF
    elif ftype == 3:  # Average
        for i in range(out.size):
            left = out[i - bpp] if i >= bpp else 0
            out[i] = (out[i] + (left + up[i]) // 2) & 0xFF
    elif ftype == 4:  # Paeth
        for i in range(out.size):
            left = out[i - bpp] if i >= bpp else 0
            ul = up[i - bpp] if i >= bpp else 0
            p = left + up[i] - ul
            pa, pb, pc = abs(p - left), abs(p - up[i]), abs(p - ul)
            if pa <= pb and pa <= pc:
                pred = left
            elif pb <= pc:
                pred = up[i]
            else:
                pred = ul
            out[i] = (out[i] + pred) & 0xFF
    else:
        raise DataError(f"unknown PNG filter type {ftype}: {path}")
    return out.astype(np.uint8)


def bilinear_resize(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize a 2-D array with corner-aligned bilinear interpolation.

    Corners map to corners exactly, constants are preserved exactly, and the
    output never leaves the input's [min, max] range.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"expected 2-D array, got shape {img.shape}")
    if out_h < 1 or out_w < 1:
        raise ValueError("target size must be positive")
    h, w = img.shape
    if (h, w) == (out_h, out_w):
        return img.copy()
    ys = np.linspace(0.0, h - 1.0, out_h) if out_h > 1 else np.zeros(1)
    xs = np.linspace(0.0, w - 1.0, out_w) if out_w > 1 else np.zeros(1)
    y0 = np.minimum(np.floor(ys).astype(int), h - 1)
    x0 = np.minimum(np.floor(xs).astype(int), w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    top = img[np.ix_(y0, x0)] * (1.0 - wx) + img[np.ix_(y0, x1)] * wx
    bot = img[np.ix_(y1, x0)] * (1.0 - wx) + img[np.ix_(y1, x1)] * wx
    return top * (1.0 - wy) + bot * wy
