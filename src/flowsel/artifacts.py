"""One checked container for every cached stage output, and atomic writes.

A container is the magic, the header length and a crc32 of the header
(``<II``), then a JSON header and the raw bytes of the arrays it lists.
The header holds ``kind``, ``version``, one ``[name, dtype, shape]`` entry
per array, ``body_crc``, a crc32 of every byte after the header, and
whatever fields the writer adds.  Arrays are little-endian float64, int64
or uint8.  ``save`` pads the header with spaces, and each array with zero
bytes, to a multiple of 8, so every array starts 8-byte aligned and loads
as an aligned view.

The two checksums let ``load_header`` check a header, and the file's size
against the arrays it declares, without reading the arrays; ``load``
checks both.

``save`` also takes an array as ``Blocks``, a source of its rows a block
at a time, and writes the bytes the whole array would give while holding
one block.

Every file under ``--out`` is written through ``write_atomic``, so a
killed writer leaves the old file or none, never half of one.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
import zlib
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import DataError

MAGIC = b"FLOWSEL1"
# Part of every stage key and run record, so a cache of another layout or
# keying is never looked up.  Version 4 checks the header and the arrays
# apart (version 3 had one checksum over both); version 5 keys and stores
# only the forest, bat and aquila settings that an option sets.
VERSION = 5
DTYPES = ("<f8", "<i8", "|u1")
_LENGTHS = struct.Struct("<II")  # header length, header crc32
_START = len(MAGIC) + _LENGTHS.size
_ALIGN = 8


def write_atomic(path: str, data) -> None:
    """Write ``data`` (text as UTF-8, bytes, or an iterable of bytes-like
    chunks) to a temporary file beside ``path``, then rename it over
    ``path``.  No fsync: this guards against a killed writer, not a power
    loss."""
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


@dataclass(frozen=True)
class Blocks:
    """An array that ``save`` writes without holding it: its ``np.dtype``,
    its shape, and ``blocks()``, which yields its rows in order as consecutive
    C-ordered arrays, afresh each time it is called."""

    dtype: np.dtype
    shape: tuple
    blocks: Callable[[], Iterable[np.ndarray]]


def save(path: str, kind: str, arrays: dict, **fields) -> None:
    """Write a container of ``kind`` holding the named arrays and header
    fields.

    An array given as ``Blocks`` is read through twice, once for the body
    checksum, which the header before it holds, and once to write it; the
    file is byte for byte the one its whole array gives, and no more than
    one of its blocks is held at a time."""
    arrays = {name: a if isinstance(a, Blocks)
              else np.asarray(a, dtype=np.dtype(a.dtype).newbyteorder("<"))
              for name, a in arrays.items()}
    for name, a in arrays.items():
        if a.dtype.str not in DTYPES:
            raise TypeError(f"array {name!r} is {a.dtype.str}, not one of {DTYPES}")
    header = {**fields, "kind": kind, "version": VERSION,
              "arrays": [[name, a.dtype.str, list(a.shape)] for name, a in arrays.items()]}

    def body():
        for name, a in arrays.items():
            size = math.prod(a.shape) * a.dtype.itemsize
            if isinstance(a, Blocks):
                written = 0
                for block in a.blocks():
                    block = np.ascontiguousarray(block, dtype=a.dtype)
                    written += block.nbytes
                    yield block
                if written != size:
                    raise ValueError(f"array {name!r} gave {written} bytes for "
                                     f"{list(a.shape)}")
            else:
                yield np.ascontiguousarray(a)
            yield bytes(_padding(size))

    crc = 0
    for chunk in body():
        crc = zlib.crc32(chunk, crc)
    blob = json.dumps({**header, "body_crc": crc}).encode("utf-8")
    # _START is a multiple of 8, so padding the header and every array to
    # one puts each array at an aligned offset
    blob += b" " * _padding(len(blob))
    write_atomic(path, itertools.chain(
        (MAGIC + _LENGTHS.pack(len(blob), zlib.crc32(blob)), blob), body()))


def _padding(size: int) -> int:
    return -size % _ALIGN


def _read_header(fh, size: int, kind: str) -> tuple[dict, int, list]:
    """The header of the ``size``-byte container open on ``fh``, the offset
    of its body, and where each array it lists lies in the file (name,
    dtype, shape, count, offset).  ValueError unless the header passes its
    checksum, kind and version and its arrays fill the rest of the file
    exactly.  Reads nothing after the header."""
    head = fh.read(_START)
    if head[:len(MAGIC)] != MAGIC:
        raise ValueError("bad magic")
    if len(head) < _START:
        raise ValueError("no header length")
    hlen, crc = _LENGTHS.unpack_from(head, len(MAGIC))
    if size < _START + hlen:
        raise ValueError(f"header of {hlen} bytes but {size - _START} present")
    blob = fh.read(hlen)
    if zlib.crc32(blob) != crc:
        raise ValueError("header checksum mismatch")
    header = json.loads(blob.decode("utf-8"))
    if not isinstance(header, dict) or header.get("kind") != kind:
        raise ValueError(f"not a {kind} file")
    if header.get("version") != VERSION:
        raise ValueError(f"unsupported version {header.get('version')}")
    start = off = _START + hlen
    layout = []
    for name, dtype, shape in header["arrays"]:
        if dtype not in DTYPES or not all(type(d) is int and d >= 0 for d in shape):
            raise ValueError(f"array {name!r} declares {dtype} {shape}")
        count = math.prod(shape)
        nbytes = count * np.dtype(dtype).itemsize
        padded = nbytes + _padding(nbytes)
        if size < off + padded:
            raise ValueError(f"array {name!r} needs {padded} bytes, {size - off} present")
        layout.append((name, dtype, shape, count, off))
        off += padded
    if off != size:
        raise ValueError(f"{size - off} bytes after the last array")
    return header, start, layout


def _reading(path: str, kind: str, read):
    """``read(fh, size)`` of the container at ``path``; any failure, of the
    file, the container or its decoding, is one DataError naming it."""
    try:
        with open(path, "rb") as fh:
            return read(fh, os.fstat(fh.fileno()).st_size)
    except OSError as exc:
        raise DataError(f"cannot open {kind} file {path}: {exc}") from exc
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise DataError(
            f"{path}: unreadable {kind} file ({exc}); delete it or rerun with --force"
        ) from None


def load_header(path: str, kind: str, decode):
    """``decode(header)`` of the container at ``path``, reading only its
    header.  Everything ``load`` checks is checked but the arrays' checksum,
    so a cut file is refused here; failures are as ``load`` gives them."""
    return _reading(path, kind, lambda fh, size: decode(_read_header(fh, size, kind)[0]))


def load(path: str, kind: str, decode):
    """``decode(header, arrays)`` of the container at ``path``, once both of
    its checksums match.

    Arrays are writable views of one buffer, aligned when ``save`` wrote
    it.  Any failure, of the container or of ``decode``, is one DataError
    naming the file."""
    def read(fh, size):
        header, start, layout = _read_header(fh, size, kind)
        fh.seek(0)
        # readinto a sized buffer: copying read() into a bytearray took ten
        # times as long on a 1.5 MB dataset
        raw = bytearray(size)
        del raw[fh.readinto(raw):]
        if zlib.crc32(memoryview(raw)[start:]) != header["body_crc"]:
            raise ValueError("body checksum mismatch")
        return decode(header, {
            name: np.frombuffer(raw, dtype=dtype, count=count, offset=off).reshape(shape)
            for name, dtype, shape, count, off in layout})

    return _reading(path, kind, read)
