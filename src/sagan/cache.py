"""SGND digit cache files.

Layout: magic "SGND", version byte 0x01, 2-byte little-endian base,
1 length byte + UTF-8 constant identifier, 8-byte little-endian digit
count, one byte per digit, 4-byte little-endian CRC-32 of everything
preceding. One file per (constant, base); files are rewritten whole so
the CRC always covers the full payload.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path

from .errors import CacheError

MAGIC = b"SGND"
VERSION = 1


def encode(base: int, identifier: str, digits) -> bytes:
    ident = identifier.encode("utf-8")
    if len(ident) > 255:
        raise CacheError(f"identifier too long for cache header: {identifier!r}")
    if not 2 <= base <= 256:
        raise CacheError(f"base {base} not cacheable")
    body = bytearray()
    body += MAGIC
    body.append(VERSION)
    body += struct.pack("<H", base)
    body.append(len(ident))
    body += ident
    body += struct.pack("<Q", len(digits))
    payload = bytes(digits)
    bad = payload.translate(None, bytes(range(base)))
    if bad:
        raise CacheError(f"digit {max(bad)} >= base {base}")
    body += payload
    body += struct.pack("<I", zlib.crc32(bytes(body)))
    return bytes(body)


def decode(blob: bytes) -> tuple[int, str, list[int]]:
    if len(blob) < 20:
        raise CacheError("cache file truncated")
    if blob[:4] != MAGIC:
        raise CacheError("bad magic bytes")
    if blob[4] != VERSION:
        raise CacheError(f"unsupported cache version {blob[4]}")
    (base,) = struct.unpack_from("<H", blob, 5)
    if not 2 <= base <= 256:
        raise CacheError(f"bad base {base} in cache header")
    ident_len = blob[7]
    pos = 8 + ident_len
    if len(blob) < pos + 8:
        raise CacheError("cache file truncated")
    (count,) = struct.unpack_from("<Q", blob, pos)
    pos += 8
    if len(blob) != pos + count + 4:
        raise CacheError("cache length does not match digit count")
    (crc,) = struct.unpack_from("<I", blob, pos + count)
    if zlib.crc32(blob[:pos + count]) != crc:
        raise CacheError("CRC mismatch")
    try:  # only once the CRC holds
        identifier = blob[8:8 + ident_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CacheError(f"identifier is not UTF-8: {exc}") from exc
    payload = blob[pos:pos + count]
    bad = payload.translate(None, bytes(range(base)))
    if bad:
        raise CacheError(f"digit {max(bad)} >= base {base}")
    return base, identifier, list(payload)


def cache_path(cache_dir: str | os.PathLike, identifier: str, base: int) -> Path:
    safe = identifier.replace("/", "_").replace(":", "_")
    return Path(cache_dir) / f"{safe}.b{base}.sgnd"


def write_cache(path: str | os.PathLike, base: int, identifier: str, digits) -> None:
    """Atomic whole-file write (temp file, fsync, then rename); CacheError if it fails."""
    path = Path(path)
    blob = encode(base, identifier, digits)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        if tmp.exists():
            tmp.unlink()
        raise CacheError(f"cannot write cache file {path}: {exc}") from exc


def read_cache(path: str | os.PathLike) -> tuple[int, str, list[int]]:
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise CacheError(f"cannot read cache file {path}: {exc}") from exc
    return decode(blob)
