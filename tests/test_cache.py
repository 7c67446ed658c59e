"""SGND cache file format tests."""

import os
import struct
import zlib

import pytest

from sagan.cache import cache_path, decode, encode, read_cache, write_cache
from sagan.errors import CacheError


def sample_blob(base=11, ident="pi", digits=(1, 6, 1, 5, 0, 7)):
    return encode(base, ident, digits)


class TestEncodeDecode:
    def test_roundtrip(self):
        blob = sample_blob()
        base, ident, digits = decode(blob)
        assert (base, ident, digits) == (11, "pi", [1, 6, 1, 5, 0, 7])

    def test_layout(self):
        blob = sample_blob(base=10, ident="pi", digits=(1, 4, 1))
        assert blob[:4] == b"SGND"
        assert blob[4] == 1
        assert struct.unpack_from("<H", blob, 5)[0] == 10
        assert blob[7] == 2  # identifier length
        assert blob[8:10] == b"pi"
        assert struct.unpack_from("<Q", blob, 10)[0] == 3
        assert list(blob[18:21]) == [1, 4, 1]
        crc = struct.unpack_from("<I", blob, 21)[0]
        assert crc == zlib.crc32(blob[:-4])

    def test_reject_bad_magic(self):
        blob = bytearray(sample_blob())
        blob[0] = ord("X")
        with pytest.raises(CacheError):
            decode(bytes(blob))

    def test_reject_bad_version(self):
        blob = bytearray(sample_blob())
        blob[4] = 2
        with pytest.raises(CacheError):
            decode(bytes(blob))

    def test_reject_crc_mismatch(self):
        blob = bytearray(sample_blob())
        blob[-1] ^= 0xFF
        with pytest.raises(CacheError):
            decode(bytes(blob))

    def test_reject_digit_flip_via_crc(self):
        blob = bytearray(sample_blob())
        blob[18] ^= 0x01  # flip a digit byte, CRC no longer matches
        with pytest.raises(CacheError):
            decode(bytes(blob))

    def test_reject_identifier_flip_via_crc(self):
        blob = bytearray(sample_blob())
        blob[8] ^= 0xFF  # first identifier byte, no longer valid UTF-8
        with pytest.raises(CacheError):
            decode(bytes(blob))

    def test_reject_invalid_identifier_bytes_with_valid_crc(self):
        blob = bytearray(sample_blob())
        blob[8] = 0xFF  # not valid UTF-8; the CRC is recomputed to match
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
        with pytest.raises(CacheError, match="UTF-8"):
            decode(bytes(blob))

    def test_reject_digit_out_of_base(self):
        # craft a CRC-valid file whose digit exceeds the base
        body = bytearray()
        body += b"SGND"
        body.append(1)
        body += struct.pack("<H", 2)
        body.append(1)
        body += b"x"
        body += struct.pack("<Q", 1)
        body.append(7)  # digit 7 in base 2
        body += struct.pack("<I", zlib.crc32(bytes(body)))
        with pytest.raises(CacheError):
            decode(bytes(body))

    def test_encode_rejects_digit_out_of_base(self):
        with pytest.raises(CacheError):
            encode(2, "x", [1, 7])
        with pytest.raises(CacheError):
            encode(10, "pi", b"\x01\x0a")

    def test_messages_name_the_largest_rejected_digit(self):
        with pytest.raises(CacheError, match="^digit 12 >= base 10$"):
            encode(10, "pi", bytes([1, 12, 9, 11]))
        # a CRC-valid file of base-16 digits relabelled as base 10
        blob = bytearray(encode(16, "pi", bytes([1, 12, 9, 11])))
        struct.pack_into("<H", blob, 5, 10)
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
        with pytest.raises(CacheError, match="^digit 12 >= base 10$"):
            decode(bytes(blob))

    def test_reject_truncation(self):
        blob = sample_blob()
        with pytest.raises(CacheError):
            decode(blob[:-6])

    def test_reject_long_identifier(self):
        with pytest.raises(CacheError):
            encode(10, "x" * 256, [1])

    def test_base_256_digits(self):
        base, ident, digits = decode(encode(256, "pi", [0, 255, 128]))
        assert base == 256 and digits == [0, 255, 128]


class TestFileRoundTrip:
    def test_write_then_read(self, tmp_path):
        path = cache_path(tmp_path, "sqrt2", 10)
        write_cache(path, 10, "sqrt2", [4, 1, 4, 2])
        assert read_cache(path) == (10, "sqrt2", [4, 1, 4, 2])
        assert path.name == "sqrt2.b10.sgnd"

    def test_identifier_with_separators(self, tmp_path):
        path = cache_path(tmp_path, "rational:22/7", 10)
        assert "/" not in path.name and ":" not in path.name
        write_cache(path, 10, "rational:22/7", [1, 4, 2])
        assert read_cache(path)[1] == "rational:22/7"

    def test_missing_file(self, tmp_path):
        with pytest.raises(CacheError):
            read_cache(tmp_path / "absent.sgnd")

    def test_no_temp_file_left(self, tmp_path):
        path = cache_path(tmp_path, "pi", 10)
        write_cache(path, 10, "pi", [1, 4])
        leftovers = [p for p in tmp_path.iterdir() if p.name != path.name]
        assert leftovers == []

    def test_failed_write_raises_cache_error_and_removes_temp_file(self, tmp_path):
        path = cache_path(tmp_path, "pi", 10)
        path.mkdir()  # the rename onto a directory fails after the temp file is written
        with pytest.raises(CacheError, match="cannot write cache file"):
            write_cache(path, 10, "pi", [1, 4])
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_fsync_before_replace(self, tmp_path, monkeypatch):
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            calls.append("fsync")
            real_fsync(fd)

        def replace(src, dst):
            calls.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        path = cache_path(tmp_path, "pi", 10)
        write_cache(path, 10, "pi", [1, 4])
        assert calls == ["fsync", "replace"]
        assert read_cache(path) == (10, "pi", [1, 4])
