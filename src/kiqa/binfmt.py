"""The checksummed binary container of every kiqa artifact (KIIX, KENC, KFUS).

An artifact file is one little-endian frame::

    magic (4 bytes)  version <u4  payload length <u8  payload  sha256 (32 bytes)

The sha256 covers every byte before it.  :func:`load` checks the magic,
the version (a file of another version must be rebuilt with the command
its :class:`Kind` names), the length (truncated or trailing bytes) and the
checksum, in that order.  Every error is a :class:`kiqa.textio.InputError`
that names the file.

The payload is a sequence of untagged fields, read in the order written:
``u32`` and ``f64`` scalars; ``array(dtype, n)``; ``strings``, a column of
the ``<u4`` count, each string's ``<u4`` UTF-8 byte length and the
concatenated UTF-8 bytes, written from and read as a list or a
:class:`StringColumn`, which makes a string only when it is read; and
``tensors``, a set of named float64 arrays:
the string column of the sorted names, then each array's ``<u4`` rank,
``<u4`` shape and ``<f8`` data.  A reader is told the names and shapes
of a tensor set and rejects non-finite values.  :meth:`Reader.done`
rejects payload bytes after the last field.
"""

from __future__ import annotations

import hashlib
import math
import operator
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .textio import InputError, read_bytes, replacing

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


def _utf8(strings: Sequence[str]) -> tuple[bytes, np.ndarray]:
    """The strings' UTF-8 bytes (surrogates allowed), joined, and each one's length."""
    raw = [s.encode("utf-8", "surrogatepass") for s in strings]
    return b"".join(raw), np.fromiter(map(len, raw), np.int64, len(raw))


class StringColumn(Sequence):
    """A read-only sequence of strings kept as one text and each string's
    bounds in it; a string is sliced out when it is read.

    ``blob`` and ``lengths`` are the column as a file holds it: the UTF-8
    bytes and each string's byte length.  :meth:`take` reads many strings
    in one call.
    """

    def __init__(self, blob: bytes | memoryview, lengths: np.ndarray):
        """Raises ValueError unless ``blob`` is UTF-8 (surrogates allowed) and
        every string starts at a character: then each string is UTF-8 too."""
        self.blob, self.lengths = blob, np.asarray(lengths)
        self.text = str(blob, "utf-8", "surrogatepass")
        bounds = np.zeros(len(self.lengths) + 1, dtype=np.int64)
        np.cumsum(self.lengths, out=bounds[1:])
        self.ascii = len(self.text) == len(blob)
        if not self.ascii:  # count the characters before each byte bound
            lead = (np.frombuffer(blob, np.uint8) & 0xC0) != 0x80
            if not lead[bounds[bounds < len(lead)]].all():
                raise ValueError("a string boundary splits a character")
            chars = np.zeros(len(lead) + 1, dtype=np.int64)
            np.cumsum(lead, out=chars[1:])
            bounds = chars[bounds]
        bounds = bounds.tolist()
        # two lists, so a read is plain list indexing (negative or out of range too)
        self.starts, self.ends = bounds[:-1], bounds[1:]

    @classmethod
    def encode(cls, strings: Sequence[str]) -> StringColumn:
        return cls(*_utf8(strings))

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, i: int) -> str:
        return self.text[self.starts[i] : self.ends[i]]

    def __iter__(self):
        return map(self.text.__getitem__, map(slice, self.starts, self.ends))

    def take(self, positions: list[int]) -> list[str]:
        """The strings at ``positions``, each in ``range(len(self))``."""
        text, starts, ends = self.text, self.starts, self.ends
        return [text[starts[p] : ends[p]] for p in positions]

    def ascending(self) -> bool:
        """Whether each string is ``<=`` the next, as ``str`` compares them.

        Non-empty ASCII strings of one width are compared as a numpy bytes
        array, whose order is theirs; any other column is decoded and compared.
        """
        width = int(self.lengths[0]) if len(self) else 0
        if self.ascii and width and (self.lengths == width).all():
            fixed = np.frombuffer(self.blob, f"S{width}")
            return bool((fixed[:-1] <= fixed[1:]).all())
        strings = list(self)
        return all(map(operator.le, strings, strings[1:]))


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
        self._string_bytes(*_utf8(strings))

    def string_column(self, column: StringColumn) -> None:
        self._string_bytes(column.blob, column.lengths)

    def _string_bytes(self, blob: bytes | memoryview, lengths) -> None:
        self.u32(len(lengths))
        self.array(lengths, _U4)
        self.parts.append(blob)

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

    def error(self, message: str) -> InputError:
        return InputError(f"{self.path}: {message}")

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
        return list(self.string_column())

    def string_column(self) -> StringColumn:
        lengths = self.array(_U4, self.u32())
        blob = self._take(int(lengths.sum(dtype=np.int64)))
        try:
            return StringColumn(blob, lengths)
        except ValueError:
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
    data = read_bytes(path)
    if data[:4] != kind.magic:
        raise InputError(f"{path}: not a {kind.magic.decode()} file (bad magic)")
    version = int.from_bytes(data[4:8], "little")
    if len(data) >= 8 and version != kind.version:
        raise InputError(f"{path}: unsupported {kind.noun} version {version} (this version reads "
                         f"{kind.version}); rebuild the {kind.noun} with {kind.command}")
    end = _HEADER.size + int.from_bytes(data[8:16], "little")  # a cut header reads short too
    if len(data) < end + _DIGEST:
        raise InputError(f"{path}: truncated {kind.noun} file")
    if len(data) > end + _DIGEST:
        raise InputError(f"{path}: trailing bytes after the {kind.noun} file's checksum")
    if hashlib.sha256(memoryview(data)[:end]).digest() != data[end:]:
        raise InputError(f"{path}: checksum mismatch, the {kind.noun} file is corrupt")
    return Reader(memoryview(data)[_HEADER.size : end], path, kind)
