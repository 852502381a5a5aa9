"""The kiqa.binfmt frame, written out apart from the package.

Tests that hand-pack or patch a payload wrap it in a valid frame (the
right length and sha256), so the loader's own payload check is the one
that fires, not the checksum.
"""

import hashlib
import struct

HEADER = struct.Struct("<4sIQ")  # magic, version, payload length
MARK = 1234.5678  # a finite value no saved parameter holds by chance


def frame(magic: bytes, version: int, payload: bytes) -> bytes:
    header = HEADER.pack(magic, version, len(payload))
    return header + payload + hashlib.sha256(header + payload).digest()


def unframe(data: bytes) -> tuple[bytes, int, bytes]:
    """(magic, version, payload) of a valid frame."""
    magic, version, n = HEADER.unpack_from(data)
    assert len(data) == HEADER.size + n + 32
    assert hashlib.sha256(data[:-32]).digest() == data[-32:]
    return magic, version, data[HEADER.size : HEADER.size + n]


def patched(data: bytes, at: int, new: bytes) -> bytes:
    """A valid frame whose payload has ``new`` written at offset ``at``."""
    magic, version, payload = unframe(data)
    return frame(magic, version, payload[:at] + new + payload[at + len(new) :])


def replace_f8(path, old: float, new: float) -> None:
    """Rewrite the frame at ``path`` with each ``<f8`` ``old`` of its payload as ``new``.

    The writer refuses a NaN or inf, so a test saves a finite marker
    value and swaps it for the non-finite one here.
    """
    magic, version, payload = unframe(path.read_bytes())
    old_bytes = struct.pack("<d", old)
    assert old_bytes in payload
    path.write_bytes(frame(magic, version, payload.replace(old_bytes, struct.pack("<d", new))))
