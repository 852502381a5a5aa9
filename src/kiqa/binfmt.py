"""The checksummed binary container of every kiqa artifact (KIIX, KENC, KFUS).

An artifact file is one little-endian frame::

    magic (4 bytes)  version <u4  payload length <u8  payload  sha256 (32 bytes)

The sha256 covers every byte before it.  :func:`load` checks the magic,
the version (a file of another version must be rebuilt with the command
its :class:`Kind` names), the length (truncated or trailing bytes) and the
checksum, in that order.  Every error names the file and has the kind's
own error class.

The payload is a sequence of untagged fields, read in the order written:
``u32`` and ``f64`` scalars; ``array(dtype, n)``; ``strings``, a column of
the ``<u4`` count, each string's ``<u4`` UTF-8 byte length and the
concatenated UTF-8 bytes; and ``tensors``, a set of named float64 arrays:
the string column of the sorted names, then each array's ``<u4`` rank,
``<u4`` shape and ``<f8`` data.  A reader is told the names and shapes
of a tensor set and rejects non-finite values.  :meth:`Reader.done`
rejects payload bytes after the last field.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .textio import replacing

_HEADER = struct.Struct("<4sIQ")
_DIGEST = 32
_U4 = np.dtype("<u4")
_F8 = np.dtype("<f8")


@dataclass(frozen=True)
class Kind:
    magic: bytes
    version: int
    noun: str  # as in "rebuild the index with index-build"
    command: str  # the kiqa command that writes this kind
    error: type[Exception]


class Writer:
    def __init__(self):
        self.parts: list[bytes] = []

    def u32(self, value: int) -> None:
        self.parts.append(struct.pack("<I", value))

    def f64(self, value: float) -> None:
        self.parts.append(struct.pack("<d", value))

    def array(self, values, dtype) -> None:
        self.parts.append(np.asarray(values, dtype=dtype).tobytes())

    def strings(self, strings: Sequence[str]) -> None:
        raw = [s.encode("utf-8", "surrogatepass") for s in strings]
        self.u32(len(raw))
        self.array(list(map(len, raw)), _U4)
        self.parts.append(b"".join(raw))

    def tensors(self, tensors: dict[str, np.ndarray]) -> None:
        """Refuses a non-finite value, as :meth:`Reader.tensors` would."""
        for name in sorted(tensors):
            if not np.isfinite(tensors[name]).all():
                raise ValueError(f"tensor {name} holds a NaN or inf; it is not written")
        self.strings(sorted(tensors))
        for name in sorted(tensors):
            self.u32(tensors[name].ndim)
            self.array(tensors[name].shape, _U4)
            self.array(tensors[name], _F8)


class Reader:
    def __init__(self, payload: memoryview, path: Path, kind: Kind):
        self.payload, self.offset, self.path, self.kind = payload, 0, path, kind

    def error(self, message: str) -> Exception:
        return self.kind.error(f"{self.path}: {message}")

    def _take(self, n: int) -> memoryview:
        if self.offset + n > len(self.payload):
            raise self.error(f"a field runs past the end of the {self.kind.noun} payload")
        self.offset += n
        return self.payload[self.offset - n : self.offset]

    def u32(self) -> int:
        return int.from_bytes(self._take(4), "little")

    def f64(self) -> float:
        return struct.unpack("<d", self._take(8))[0]

    def array(self, dtype, n: int) -> np.ndarray:
        """``n`` items, a read-only view of the payload."""
        dtype = np.dtype(dtype)
        return np.frombuffer(self._take(n * dtype.itemsize), dtype)

    def strings(self) -> list[str]:
        ends = np.cumsum(self.array(_U4, self.u32()), dtype=np.int64).tolist()
        blob = self._take(ends[-1] if ends else 0)
        starts = [0, *ends[:-1]]
        try:
            text = str(blob, "utf-8", "surrogatepass")
            if len(text) == len(blob):  # all ASCII: byte offsets are character offsets
                return list(map(text.__getitem__, map(slice, starts, ends)))
            return [str(blob[lo:hi], "utf-8", "surrogatepass") for lo, hi in zip(starts, ends)]
        except UnicodeDecodeError:
            raise self.error("a string column is not valid UTF-8") from None

    def tensors(self, shapes: dict[str, tuple[int, ...]], what: str) -> dict[str, np.ndarray]:
        """Writable copies of a named-tensor set that must have exactly these shapes,
        finite values throughout; ``what`` names a tensor in the errors."""
        names = self.strings()
        if names != sorted(shapes):
            raise self.error(f"unexpected {what} set {names}")
        out = {}
        for name in names:
            shape = tuple(self.array(_U4, self.u32()).tolist())
            if shape != shapes[name]:
                raise self.error(f"{what} {name} has shape {shape}, expected {shapes[name]}")
            out[name] = self.array(_F8, math.prod(shape)).reshape(shape).copy()
            if not np.isfinite(out[name]).all():
                raise self.error(f"{what} {name} holds a NaN or inf")
        return out

    def done(self) -> None:
        if self.offset != len(self.payload):
            raise self.error(f"trailing bytes after the last field of the {self.kind.noun} payload")


def save(path: str | Path, kind: Kind, writer: Writer) -> None:
    payload = b"".join(writer.parts)
    header = _HEADER.pack(kind.magic, kind.version, len(payload))
    digest = hashlib.sha256(header)
    digest.update(payload)
    with replacing(path, binary=True) as fh:
        fh.write(header)
        fh.write(payload)
        fh.write(digest.digest())


def load(path: str | Path, kind: Kind) -> Reader:
    """A reader over the payload of a checked frame."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise kind.error(f"cannot read {path}: {exc}") from exc
    if data[:4] != kind.magic:
        raise kind.error(f"{path}: not a {kind.magic.decode()} file (bad magic)")
    version = int.from_bytes(data[4:8], "little")
    if len(data) >= 8 and version != kind.version:
        raise kind.error(f"{path}: unsupported {kind.noun} version {version} (this version reads "
                         f"{kind.version}); rebuild the {kind.noun} with {kind.command}")
    end = _HEADER.size + int.from_bytes(data[8:16], "little")  # a cut header reads short too
    if len(data) < end + _DIGEST:
        raise kind.error(f"{path}: truncated {kind.noun} file")
    if len(data) > end + _DIGEST:
        raise kind.error(f"{path}: trailing bytes after the {kind.noun} file's checksum")
    if hashlib.sha256(memoryview(data)[:end]).digest() != data[end:]:
        raise kind.error(f"{path}: checksum mismatch, the {kind.noun} file is corrupt")
    return Reader(memoryview(data)[_HEADER.size : end], path, kind)
