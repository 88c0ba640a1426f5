"""Workload inputs shared by the load generator and the counting pass.

Everything here is a pure function of the seed.  Frames are encoded by
small ``struct``/``binascii`` encoders so that building a whole run's
frames takes well under a second; :func:`check_encoders` proves on a
seeded sample that they produce the same bytes as the packet specs'
``make``/``encode``, and the server verifies every frame it receives
anyway.
"""

from __future__ import annotations

import binascii
import hashlib
import random
import struct
from typing import Dict, Iterable, List, Optional, Tuple

# -- workload shapes ------------------------------------------------------

SLIDING_WINDOW = 16
SLIDING_PAYLOAD = 255
SLIDING_LOSS = 0.02
#: One lap of the 16-bit sequence space; payloads repeat per lap.
SLIDING_RING = 1 << 16
#: A frame dropped on its first transmission is resent after this many
#: acks for later frames, so the impairment does not depend on timing.
RETRANSMIT_AFTER_ACKS = 3

ARQ_PAYLOAD = 4
ARQ_SOCKETS = 2
#: Payload ring per ARQ stream, a multiple of the 8-bit sequence space.
ARQ_RING = 256 * 64
#: Frames acked before the timed window.
ARQ_WARM_FRAMES = 10_000

HANDSHAKE_MAX_SESSIONS = 4096
HANDSHAKE_PORT_BASE = 20000
#: Larger than ``HANDSHAKE_MAX_SESSIONS``, so a port comes round again
#: only after its old session has been shed.
HANDSHAKE_PORTS = 5000
HANDSHAKE_IN_FLIGHT = 2

MEGASIM_MACHINES = 200_000

MSG_SYN, MSG_SYN_ACK, MSG_ACK = 1, 2, 3
KIND_SELECTIVE = 1


# -- encoders ---------------------------------------------------------------


def _xor8(data: bytes) -> int:
    value = 0
    for byte in data:
        value ^= byte
    return value


def arq_frame(seq: int, payload: bytes) -> bytes:
    """``ArqData``: seq, xor8 over (seq, length, payload), length, payload."""
    seq &= 0xFF
    check = _xor8(bytes((seq, len(payload)))) ^ _xor8(payload)
    return bytes((seq, check, len(payload))) + payload


def arq_ack(seq: int) -> bytes:
    """``ArqAck``: seq and its xor8."""
    seq &= 0xFF
    return bytes((seq, seq))


def sliding_frame(seq: int, payload: bytes) -> bytes:
    """``SlidingData``: seq, CRC-16 over (seq, length, payload), length, payload."""
    seq &= 0xFFFF
    crc = binascii.crc_hqx(struct.pack(">HB", seq, len(payload)) + payload, 0xFFFF)
    return struct.pack(">HHB", seq, crc, len(payload)) + payload


def sliding_ack(seq: int) -> bytes:
    """``SlidingAck``: kind, seq, CRC-16 over (kind, seq)."""
    head = struct.pack(">BH", KIND_SELECTIVE, seq & 0xFFFF)
    return head + struct.pack(">H", binascii.crc_hqx(head, 0xFFFF))


def handshake_frame(msg_type: int, initiator: int, responder: int) -> bytes:
    """``Handshake``: type, two 16-bit nonces, CRC-16 over the three."""
    head = struct.pack(">BHH", msg_type, initiator, responder)
    return head + struct.pack(">H", binascii.crc_hqx(head, 0xFFFF))


def check_encoders(seed: int, samples: int = 24) -> None:
    """Raise ``AssertionError`` unless every encoder matches its spec."""
    from repro.protocols.arq import ACK_PACKET, ARQ_PACKET
    from repro.protocols.handshake import HANDSHAKE_PACKET
    from repro.protocols.sliding import SLIDING_ACK, SLIDING_PACKET

    rng = random.Random(f"encoders:{seed}")
    for _ in range(samples):
        seq8, seq16 = rng.randrange(256), rng.randrange(1 << 16)
        small = rng.randbytes(ARQ_PAYLOAD)
        big = rng.randbytes(SLIDING_PAYLOAD)
        nonce_a, nonce_b = rng.randrange(1, 1 << 16), rng.randrange(1, 1 << 16)
        pairs = [
            (arq_frame(seq8, small),
             ARQ_PACKET.make(seq=seq8, length=len(small), payload=small)),
            (arq_ack(seq8), ACK_PACKET.make(seq=seq8)),
            (sliding_frame(seq16, big),
             SLIDING_PACKET.make(seq=seq16, length=len(big), payload=big)),
            (sliding_ack(seq16),
             SLIDING_ACK.make(kind=KIND_SELECTIVE, seq=seq16)),
            (handshake_frame(MSG_ACK, nonce_a, nonce_b),
             HANDSHAKE_PACKET.make(
                 msg_type=MSG_ACK, initiator_nonce=nonce_a, responder_nonce=nonce_b
             )),
        ]
        for ours, packet in pairs:
            theirs = packet.spec.encode(packet)
            if ours != theirs:
                raise AssertionError(
                    f"{packet.spec.name} encoder mismatch: {ours.hex()} != {theirs.hex()}"
                )


# -- payloads and frames -----------------------------------------------------


def payload_ring(seed: int, stream: str, count: int, size: int) -> List[bytes]:
    """``count`` seeded payloads of ``size`` bytes for one stream."""
    blob = random.Random(f"{stream}:{seed}").randbytes(count * size)
    return [blob[i * size:(i + 1) * size] for i in range(count)]


def stream_digest(ring: List[bytes], count: int) -> str:
    """SHA-256 of the first ``count`` payloads of a cycled ring, in order."""
    digest = hashlib.sha256()
    size = len(ring)
    for index in range(count):
        digest.update(ring[index % size])
    return digest.hexdigest()


def sliding_frames(seed: int) -> Tuple[List[bytes], List[bytes]]:
    """(payload ring, encoded frame ring) for the sliding-bulk stream."""
    ring = payload_ring(seed, "sliding", SLIDING_RING, SLIDING_PAYLOAD)
    return ring, [sliding_frame(index, p) for index, p in enumerate(ring)]


def arq_frames(seed: int, stream: int) -> Tuple[List[bytes], List[bytes]]:
    """(payload ring, encoded frame ring) for one arq-small stream."""
    ring = payload_ring(seed, f"arq{stream}", ARQ_RING, ARQ_PAYLOAD)
    return ring, [arq_frame(index, p) for index, p in enumerate(ring)]


def handshake_syns(seed: int) -> List[Tuple[int, bytes]]:
    """One (initiator nonce, SYN frame) per port of the cycled range."""
    rng = random.Random(f"handshake:{seed}")
    out = []
    for _ in range(HANDSHAKE_PORTS):
        nonce = rng.randrange(1, 1 << 16)
        out.append((nonce, handshake_frame(MSG_SYN, nonce, 0)))
    return out


# -- the selective-repeat sender ----------------------------------------------


class SlidingStream:
    """Sender side of sliding-bulk as pure logic, no sockets or clocks.

    Frame ``i`` of the stream carries ``seq = i mod 2**16``.  Its first
    transmission is dropped with probability ``loss`` (decided in stream
    order from the seeded RNG); a dropped frame is resent once
    ``RETRANSMIT_AFTER_ACKS`` acks for later frames have arrived.
    """

    def __init__(self, frames: List[bytes], seed: int,
                 window: int = SLIDING_WINDOW, loss: float = SLIDING_LOSS) -> None:
        self.frames = frames
        self.window = window
        self.loss = loss
        self._rng = random.Random(f"loss:{seed}")
        self.base = 0
        self.next = 0
        self.acked: set = set()
        self.lost: Dict[int, int] = {}  # index -> later acks seen
        self.resend: List[int] = []
        self.dropped = 0
        self.retransmitted = 0

    def take(self, open_new: bool = True) -> Tuple[List[int], List[int]]:
        """(indices to put on the wire now, indices opened now).

        New frames are opened only while ``open_new`` and the window has
        room.  An opened frame whose first send is dropped is in the
        second list but not the first; the caller stamps send times for
        every opened frame, so a loss counts against its latency.
        """
        out = self.resend
        self.resend = []
        self.retransmitted += len(out)
        opened: List[int] = []
        while open_new and self.next - self.base < self.window:
            index = self.next
            self.next += 1
            opened.append(index)
            if self._rng.random() < self.loss:
                self.lost[index] = 0
                self.dropped += 1
            else:
                out.append(index)
        return out, opened

    def on_ack(self, seq: int) -> Optional[int]:
        """Apply one selective ack; returns the newly acked index, if any."""
        offset = (seq - self.base) & 0xFFFF
        index = self.base + offset
        if index >= self.next or index in self.acked:
            return None  # stale or duplicate ack
        self.acked.add(index)
        self.lost.pop(index, None)
        if self.lost:
            for lost_index in list(self.lost):
                if lost_index < index:
                    seen = self.lost[lost_index] + 1
                    if seen >= RETRANSMIT_AFTER_ACKS:
                        del self.lost[lost_index]
                        self.resend.append(lost_index)
                    else:
                        self.lost[lost_index] = seen
        while self.base in self.acked:
            self.acked.discard(self.base)
            self.base += 1
        return index

    def unacked(self) -> Iterable[int]:
        """Indices opened but not yet acknowledged (for a timeout resend)."""
        return [i for i in range(self.base, self.next) if i not in self.acked]

    def frame(self, index: int) -> bytes:
        return self.frames[index % len(self.frames)]
