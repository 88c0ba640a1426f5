"""Checksum and integrity algorithms used by packet specifications.

Every algorithm maps ``bytes -> int`` and declares its output width so the
packet DSL can tie a checksum field's bit width to the algorithm computing
it (the dependent-typing move of the paper's ``check : Byte -> List Byte ->
Byte`` function).

This module is the only implementation of each algorithm.  Where the
standard library has one, it does the work: ``binascii.crc_hqx`` for
CRC-16/CCITT, ``zlib`` for CRC-32 and Adler-32, and an ``array('H')``
word sum for the Internet checksum.  XOR-8 and Fletcher-16 stay pure
Python: the standard library has neither, and their covers are a few
bytes.  The code generator (:mod:`repro.core.compile`) copies these
functions' source verbatim into every generated codec, so each function
uses only its arguments and the standard-library modules imported here.
Each is tested against published test vectors and against a per-byte
reference implementation kept in the tests.
"""

from __future__ import annotations

import array
import binascii
import sys
import zlib
from typing import Callable, Dict, NamedTuple


def xor8(data: bytes) -> int:
    """8-bit XOR (longitudinal redundancy) checksum.

    This is the simple ``check`` function of the paper's ARQ example: a
    one-byte digest of the sequence number and payload.
    """
    value = 0
    for byte in data:
        value ^= byte
    return value


def internet_checksum(data: bytes) -> int:
    """RFC 1071 Internet checksum (ones' complement of ones'-complement sum).

    Used by IPv4, ICMP, UDP and TCP.  Odd-length input is virtually padded
    with a zero byte, per the RFC.
    """
    if len(data) % 2:
        data = bytes(data) + b"\x00"
    words = array.array("H")
    words.frombytes(data)
    if sys.byteorder == "little":
        words.byteswap()  # the words are big-endian on the wire
    total = sum(words)
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def fletcher16(data: bytes) -> int:
    """Fletcher-16 checksum (RFC 1146 style), returned as ``(c1 << 8) | c0``."""
    c0 = 0
    c1 = 0
    for byte in data:
        c0 = (c0 + byte) % 255
        c1 = (c1 + c0) % 255
    return (c1 << 8) | c0


def adler32(data: bytes) -> int:
    """Adler-32 checksum (RFC 1950), as used by zlib."""
    return zlib.adler32(data)


def crc16_ccitt(data: bytes, initial: int = 0xFFFF) -> int:
    """CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF, no reflection)."""
    return binascii.crc_hqx(data, initial)


def crc32(data: bytes) -> int:
    """CRC-32 (IEEE 802.3, as used by Ethernet, gzip and PNG)."""
    return zlib.crc32(data)


class ChecksumAlgorithm(NamedTuple):
    """A named checksum algorithm with a declared output width.

    The packet DSL consults ``bits`` to validate that a checksum field is
    wide enough to hold the algorithm's output — a shape mismatch is a
    definition-time error, not a runtime surprise.
    """

    name: str
    bits: int
    compute: Callable[[bytes], int]


CHECKSUM_ALGORITHMS: Dict[str, ChecksumAlgorithm] = {
    "xor8": ChecksumAlgorithm("xor8", 8, xor8),
    "internet": ChecksumAlgorithm("internet", 16, internet_checksum),
    "fletcher16": ChecksumAlgorithm("fletcher16", 16, fletcher16),
    "crc16-ccitt": ChecksumAlgorithm("crc16-ccitt", 16, crc16_ccitt),
    "crc32": ChecksumAlgorithm("crc32", 32, crc32),
    "adler32": ChecksumAlgorithm("adler32", 32, adler32),
}
"""Registry keyed by algorithm name; extend via :func:`register_algorithm`."""


def register_algorithm(name: str, bits: int, compute: Callable[[bytes], int]) -> ChecksumAlgorithm:
    """Register a custom checksum algorithm for use in packet specs.

    Raises ``ValueError`` if the name is already taken, so a spec can never
    silently change meaning because two modules fought over a name.
    """
    if name in CHECKSUM_ALGORITHMS:
        raise ValueError(f"checksum algorithm {name!r} is already registered")
    algorithm = ChecksumAlgorithm(name, bits, compute)
    CHECKSUM_ALGORITHMS[name] = algorithm
    return algorithm
