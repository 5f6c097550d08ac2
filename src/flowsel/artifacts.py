"""One checked container for every cached stage output, and atomic writes.

A container is the magic, the header length and a crc32 of everything
after it (``<II``), then a JSON header and the raw bytes of the arrays it
lists.  The header holds ``kind``, ``version``, one ``[name, dtype,
shape]`` entry per array and whatever fields the writer adds.  Arrays are
little-endian float64, int64 or uint8.  ``save`` pads the header with
spaces, and each array with zero bytes, to a multiple of 8, so every array
starts 8-byte aligned and loads as an aligned view.

Every file under ``--out`` is written through ``write_atomic``, so a
killed writer leaves the old file or none, never half of one.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib

import numpy as np

from .errors import DataError

MAGIC = b"FLOWSEL1"
# Part of every stage key and run record, so a cache of another layout or
# keying is never looked up.  Version 3 has version 2's layout; its stage
# keys hash what each stage reads and the bytes of the inputs.
VERSION = 3
DTYPES = ("<f8", "<i8", "|u1")
_LENGTHS = struct.Struct("<II")
_START = len(MAGIC) + _LENGTHS.size
_ALIGN = 8


def write_atomic(path: str, data) -> None:
    """Write ``data`` (text as UTF-8, bytes, or a list of bytes-like chunks)
    to a temporary file beside ``path``, then rename it over ``path``.  No
    fsync: this guards against a killed writer, not a power loss."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    if isinstance(data, bytes):
        data = [data]
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def container_for(path: str) -> str:
    """The container kept beside the readable export at ``path``."""
    return os.path.splitext(path)[0] + ".bin"


def save(path: str, kind: str, arrays: dict, **fields) -> None:
    """Write a container of ``kind`` holding the named arrays and header
    fields."""
    arrays = {name: np.asarray(a, dtype=np.dtype(a.dtype).newbyteorder("<"))
              for name, a in arrays.items()}
    for name, a in arrays.items():
        if a.dtype.str not in DTYPES:
            raise TypeError(f"array {name!r} is {a.dtype.str}, not one of {DTYPES}")
    header = {**fields, "kind": kind, "version": VERSION,
              "arrays": [[name, a.dtype.str, list(a.shape)] for name, a in arrays.items()]}
    blob = json.dumps(header).encode("utf-8")
    # _START is a multiple of 8, so padding the header and every array
    # to one puts each array at an aligned offset
    blob += b" " * _padding(len(blob))
    body = []
    for a in arrays.values():
        body.append(np.ascontiguousarray(a))
        body.append(bytes(_padding(a.nbytes)))
    write_atomic(path, _framed(blob, body))


def _padding(size: int) -> int:
    return -size % _ALIGN


def frame(header: dict, body: list) -> list:
    """Magic, lengths and checksum, the header, then the array buffers,
    as chunks to write without joining them; nothing is padded."""
    return _framed(json.dumps(header).encode("utf-8"), body)


def _framed(blob: bytes, body: list) -> list:
    crc = zlib.crc32(blob)
    for chunk in body:
        crc = zlib.crc32(chunk, crc)
    return [MAGIC + _LENGTHS.pack(len(blob), crc), blob, *body]


def _unpack(raw: bytearray, kind: str) -> tuple[dict, dict]:
    """The header and arrays of a container; ValueError when anything in
    it does not fit the bytes present."""
    if raw[:len(MAGIC)] != MAGIC:
        raise ValueError("bad magic")
    if len(raw) < _START:
        raise ValueError("no header length")
    hlen, crc = _LENGTHS.unpack_from(raw, len(MAGIC))
    if len(raw) < _START + hlen:
        raise ValueError(f"header of {hlen} bytes but {len(raw) - _START} present")
    if zlib.crc32(memoryview(raw)[_START:]) != crc:
        raise ValueError("checksum mismatch")
    header = json.loads(raw[_START:_START + hlen].decode("utf-8"))
    if not isinstance(header, dict) or header.get("kind") != kind:
        raise ValueError(f"not a {kind} file")
    if header.get("version") != VERSION:
        raise ValueError(f"unsupported version {header.get('version')}")
    off = _START + hlen
    arrays = {}
    for name, dtype, shape in header["arrays"]:
        if dtype not in DTYPES or not all(type(d) is int and d >= 0 for d in shape):
            raise ValueError(f"array {name!r} declares {dtype} {shape}")
        count = math.prod(shape)
        size = count * np.dtype(dtype).itemsize
        padded = size + _padding(size)
        if len(raw) < off + padded:
            raise ValueError(f"array {name!r} needs {padded} bytes, {len(raw) - off} present")
        arrays[name] = np.frombuffer(raw, dtype=dtype, count=count, offset=off).reshape(shape)
        off += padded
    if off != len(raw):
        raise ValueError(f"{len(raw) - off} bytes after the last array")
    return header, arrays


def load(path: str, kind: str, decode):
    """``decode(header, arrays)`` of the container at ``path``.

    Arrays are writable views of one buffer, aligned when ``save`` wrote
    it.  Any failure, of the container or of ``decode``, is one DataError
    naming the file."""
    try:
        with open(path, "rb") as fh:
            # readinto a sized buffer: copying read() into a bytearray
            # took ten times as long on a 1.5 MB dataset
            raw = bytearray(os.fstat(fh.fileno()).st_size)
            del raw[fh.readinto(raw):]
    except OSError as exc:
        raise DataError(f"cannot open {kind} file {path}: {exc}") from exc
    try:
        return decode(*_unpack(raw, kind))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise DataError(
            f"{path}: unreadable {kind} file ({exc}); delete it or rerun with --force"
        ) from None
