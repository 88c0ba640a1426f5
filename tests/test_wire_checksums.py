"""Checksum algorithms against published test vectors, basic laws, and
per-byte reference implementations kept here as the oracle."""

import random
import zlib

import pytest
from hypothesis import given, strategies as st

from repro.wire.checksums import (
    CHECKSUM_ALGORITHMS,
    adler32,
    crc16_ccitt,
    crc32,
    fletcher16,
    internet_checksum,
    register_algorithm,
    xor8,
)

# --- per-byte reference implementations ---


def ref_xor8(data):
    value = 0
    for byte in data:
        value ^= byte
    return value


def ref_fletcher16(data):
    c0 = c1 = 0
    for byte in data:
        c0 = (c0 + byte) % 255
        c1 = (c1 + c0) % 255
    return (c1 << 8) | c0


def ref_internet_checksum(data):
    if len(data) % 2:
        data = bytes(data) + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def ref_adler32(data):
    a, b = 1, 0
    for byte in data:
        a = (a + byte) % 65521
        b = (b + a) % 65521
    return (b << 16) | a


def _crc16_table():
    table = []
    for byte in range(256):
        crc = byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ 0x1021) & 0xFFFF if crc & 0x8000 else (crc << 1) & 0xFFFF
        table.append(crc)
    return table


def _crc32_table():
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ 0xEDB88320 if crc & 1 else crc >> 1
        table.append(crc)
    return table


_CRC16_TABLE = _crc16_table()
_CRC32_TABLE = _crc32_table()


def ref_crc16_ccitt(data, initial=0xFFFF):
    crc = initial
    for byte in data:
        crc = ((crc << 8) & 0xFFFF) ^ _CRC16_TABLE[((crc >> 8) ^ byte) & 0xFF]
    return crc


def ref_crc32(data):
    crc = 0xFFFFFFFF
    for byte in data:
        crc = (crc >> 8) ^ _CRC32_TABLE[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF


REFERENCES = [
    (xor8, ref_xor8),
    (fletcher16, ref_fletcher16),
    (internet_checksum, ref_internet_checksum),
    (adler32, ref_adler32),
    (crc16_ccitt, ref_crc16_ccitt),
    (crc32, ref_crc32),
]

_RNG = random.Random(1071)
_INPUTS = [bytes(_RNG.randrange(256) for _ in range(n)) for n in range(301)]


@pytest.mark.parametrize(
    "function,reference", REFERENCES, ids=[f.__name__ for f, _ in REFERENCES]
)
@pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
def test_matches_reference_at_every_length(function, reference, kind):
    for data in _INPUTS:
        assert function(kind(data)) == reference(data), len(data)


@pytest.mark.parametrize("initial", [0x0000, 0x1D0F, 0xFFFF])
def test_crc16_non_default_initial_matches_reference(initial):
    for data in _INPUTS:
        assert crc16_ccitt(data, initial) == ref_crc16_ccitt(data, initial)


class TestXor8:
    def test_empty_is_zero(self):
        assert xor8(b"") == 0

    def test_single_byte_is_itself(self):
        assert xor8(b"\x5a") == 0x5A

    def test_self_inverse(self):
        assert xor8(b"\x12\x34\x12\x34") == 0

    @given(st.binary(max_size=64))
    def test_order_independent(self, data):
        assert xor8(data) == xor8(bytes(reversed(data)))


class TestInternetChecksum:
    def test_rfc1071_style_example(self):
        # Sum of 0x0001 and 0xf203 and 0xf4f5 and 0xf6f7 per RFC 1071 §3.
        data = bytes.fromhex("0001f203f4f5f6f7")
        total = (0x0001 + 0xF203 + 0xF4F5 + 0xF6F7)
        total = (total & 0xFFFF) + (total >> 16)
        assert internet_checksum(data) == (~total & 0xFFFF)

    def test_ipv4_wikipedia_example(self):
        # The widely used example header: checksum field zeroed.
        header = bytes.fromhex("45000073000040004011" + "0000" + "c0a80001c0a800c7")
        assert internet_checksum(header) == 0xB861

    def test_odd_length_padding(self):
        assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")

    def test_verification_property(self):
        # A packet with its correct checksum inserted sums to zero.
        data = b"hello protocol"
        checksum = internet_checksum(data)
        total = internet_checksum(data + checksum.to_bytes(2, "big"))
        assert total == 0


class TestFletcher16:
    def test_known_vector_abcde(self):
        # Classic test vector: "abcde" -> 0xC8F0.
        assert fletcher16(b"abcde") == 0xC8F0

    def test_known_vector_abcdef(self):
        assert fletcher16(b"abcdef") == 0x2057

    def test_detects_transposition(self):
        assert fletcher16(b"ab") != fletcher16(b"ba")


class TestCrc:
    def test_crc16_ccitt_check_value(self):
        # The standard check input "123456789" -> 0x29B1 for CCITT-FALSE.
        assert crc16_ccitt(b"123456789") == 0x29B1

    def test_crc32_matches_zlib(self):
        for data in (b"", b"a", b"123456789", b"the quick brown fox"):
            assert crc32(data) == zlib.crc32(data) & 0xFFFFFFFF

    def test_crc32_check_value(self):
        assert crc32(b"123456789") == 0xCBF43926


class TestAdler32:
    def test_matches_zlib(self):
        for data in (b"", b"Wikipedia", b"123456789", bytes(range(256))):
            assert adler32(data) == zlib.adler32(data) & 0xFFFFFFFF


class TestRegistry:
    def test_all_algorithms_present(self):
        assert {
            "xor8",
            "internet",
            "fletcher16",
            "crc16-ccitt",
            "crc32",
            "adler32",
        } <= set(CHECKSUM_ALGORITHMS)

    def test_declared_widths_bound_outputs(self):
        data = b"width check payload"
        for algorithm in CHECKSUM_ALGORITHMS.values():
            assert 0 <= algorithm.compute(data) < (1 << algorithm.bits)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_algorithm("xor8", 8, xor8)

    def test_custom_registration(self):
        name = "test-sum8"
        if name not in CHECKSUM_ALGORITHMS:
            register_algorithm(name, 8, lambda data: sum(data) & 0xFF)
        assert CHECKSUM_ALGORITHMS[name].compute(b"\x01\x02") == 3
