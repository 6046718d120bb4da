"""The "TSR1" binary array format and 8-bit PGM export.

A TSR1 file holds one finite float32 array of rank 1..4, row-major, in the
layout batch x channels x height x width: the magic ``TSR1``, a u32 rank, one
u32 per dim, then the little-endian float32 payload. The model format (SFM1)
embeds TSR1 records through ``_encode_array`` and ``_decode_array``.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import FormatError, NumericError, ShapeError

MAGIC = b"TSR1"
MAX_RANK = 4
_MAX_ELEMENTS = 2 ** 31  # keeps every dim and offset within u32


def _validate_dims(dims: Sequence[int]) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if not 1 <= len(dims) <= MAX_RANK:
        raise ShapeError(f"rank must be 1..{MAX_RANK}, got {len(dims)}")
    if any(d < 1 for d in dims):
        raise ShapeError(f"all dims must be >= 1, got {dims}")
    count = 1
    for d in dims:
        count *= d
    if count > _MAX_ELEMENTS:
        raise ShapeError(f"element count {count} exceeds limit {_MAX_ELEMENTS}")
    return dims


def write_array(path, arr: np.ndarray) -> None:
    """Serialize an array in TSR1 form: magic, u32 rank, u32 dims, f32 payload."""
    arr = np.ascontiguousarray(arr, dtype=np.float32)
    dims = _validate_dims(arr.shape)
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"refusing to write non-finite values to {path}")
    with open(path, "wb") as fh:
        fh.write(_encode_array(arr, dims))


def _encode_array(arr: np.ndarray, dims: tuple[int, ...]) -> bytes:
    header = MAGIC + struct.pack("<I", len(dims))
    header += struct.pack(f"<{len(dims)}I", *dims)
    return header + arr.astype("<f4", copy=False).tobytes()


def read_array(path) -> np.ndarray:
    """Read a TSR1 file back into a float32 array, bit-exactly."""
    blob = Path(path).read_bytes()
    arr, used = _decode_array(blob, path)
    if used != len(blob):
        raise FormatError(f"{path}: {len(blob) - used} trailing bytes after payload")
    return arr


def _decode_array(blob: bytes, label, offset: int = 0) -> tuple[np.ndarray, int]:
    """Decode the TSR1 record at ``offset``; returns it and the offset past it."""
    if len(blob) < offset + 8:
        raise FormatError(f"{label}: truncated header")
    if blob[offset:offset + 4] != MAGIC:
        raise FormatError(f"{label}: bad magic {blob[offset:offset + 4]!r}")
    (rank,) = struct.unpack_from("<I", blob, offset + 4)
    if not 1 <= rank <= MAX_RANK:
        raise FormatError(f"{label}: rank {rank} outside 1..{MAX_RANK}")
    need = offset + 8 + 4 * rank
    if len(blob) < need:
        raise FormatError(f"{label}: truncated dim list")
    dims = struct.unpack_from(f"<{rank}I", blob, offset + 8)
    try:
        dims = _validate_dims(dims)
    except ShapeError as exc:
        raise FormatError(f"{label}: {exc}") from exc
    count = int(np.prod(dims))
    end = need + 4 * count
    if len(blob) < end:
        raise FormatError(f"{label}: truncated payload ({len(blob) - need} of {4 * count} bytes)")
    arr = np.frombuffer(blob, dtype="<f4", count=count, offset=need)
    return arr.reshape(dims).copy(), end


def read_header(path) -> tuple[int, ...]:
    """Dims of a TSR1 file without loading the payload."""
    with open(path, "rb") as fh:
        head = fh.read(8)
        if len(head) < 8:
            raise FormatError(f"{path}: truncated header")
        if head[:4] != MAGIC:
            raise FormatError(f"{path}: bad magic {head[:4]!r}")
        (rank,) = struct.unpack("<I", head[4:])
        if not 1 <= rank <= MAX_RANK:
            raise FormatError(f"{path}: rank {rank} outside 1..{MAX_RANK}")
        raw = fh.read(4 * rank)
        if len(raw) < 4 * rank:
            raise FormatError(f"{path}: truncated dim list")
        return struct.unpack(f"<{rank}I", raw)


def write_pgm(path, image: np.ndarray) -> None:
    """Export a 2-D array as an 8-bit binary PGM (P5), min-max scaled."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ShapeError(f"PGM export needs a 2-D array, got shape {image.shape}")
    lo, hi = float(image.min()), float(image.max())
    if hi > lo:
        scaled = (image - lo) / (hi - lo)
    else:
        scaled = np.zeros_like(image)
    pixels = np.round(scaled * 255.0).astype(np.uint8)
    h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h))
        fh.write(pixels.tobytes())
