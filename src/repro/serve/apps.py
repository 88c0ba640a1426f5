"""Session apps: protocol behaviours hosted by either plane.

A *session app* is the server-side role of a registry protocol (the ARQ
receiver, the handshake responder, the sliding-window receiver) written
against the narrowest possible host surface: a ``send(bytes)`` callable
and an ``on_frame(bytes)`` entry point.  Nothing else — no sockets, no
simulator, no clocks.  That narrowness is the load-bearing design move
of the serving plane: the **same app instance type** runs

* live, under :class:`~repro.serve.manager.SessionManager` on a real
  UDP/TCP socket, and
* replayed, under :class:`~repro.netsim.replay.ScriptedHost` with the
  simulator as the delivery substrate,

so the loopback differential compares two hostings of one behaviour,
not two implementations of one protocol.

Every free choice an app makes (the responder's nonce) comes from a
seeded RNG so a replay with the recorded seed makes the same choices.
The DSL machines do the protocol reasoning; apps use the runtime's
:meth:`~repro.core.machine.Machine.try_exec` driver hook to probe which
transition a verified frame feeds, and never touch an unverified byte
beyond handing it to ``try_parse`` — the paper's §3.4 guarantee, kept
on a real socket.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro.core.machine import Machine
from repro.protocols.arq import ACK_PACKET, ARQ_PACKET, build_receiver_spec
from repro.protocols.handshake import (
    HANDSHAKE_PACKET,
    MSG_ACK,
    MSG_SYN,
    MSG_SYN_ACK,
    build_responder_spec,
)
from repro.protocols.sliding import (
    KIND_SELECTIVE,
    SEQ_MASK,
    SLIDING_ACK,
    SLIDING_PACKET,
    build_window_receiver_spec,
)

Send = Callable[[bytes], None]


# Machine specs are immutable once built, and both compiled caches —
# ``dispatch.staged_table`` (the sealed per-transition closures) and
# ``fastpath.active_state`` (the codec tier) — key off the spec *object*.
# Building a fresh spec per session therefore recompiles everything per
# accept; these cached builders make the spec (and so its compiled
# artifacts) a per-protocol constant shared by every session, the same
# move megasim uses to host a million machines on one sealed spec.
# Profiling PR 7's accept path showed per-session spec builds were ~75%
# of accept cost.

_receiver_spec = lru_cache(maxsize=None)(build_receiver_spec)
_responder_spec = lru_cache(maxsize=None)(build_responder_spec)
_window_receiver_spec = lru_cache(maxsize=None)(build_window_receiver_spec)


class SessionApp:
    """Base class: the host surface every plane can provide."""

    #: Registry key; the wire name used in exchange records and the CLI.
    protocol: str = ""
    #: Packet specs this app speaks — warmed through the fastpath at
    #: accept time and used to render transcripts.
    specs: Tuple[Any, ...] = ()

    def __init__(self, send: Send, seed: int = 0, **params: Any) -> None:
        self._send = send
        self.seed = seed
        self.params: Dict[str, Any] = dict(params)
        self.frames_in = 0
        self.frames_out = 0
        self.rejected = 0

    # -- host entry points -------------------------------------------------

    def on_frame(self, data: bytes) -> None:
        """One inbound frame; may call ``self.send`` any number of times."""
        raise NotImplementedError

    def on_timer(self) -> None:
        """The host's protocol timer fired (reset/housekeeping); optional."""

    # -- shared plumbing ---------------------------------------------------

    def send(self, data: bytes) -> None:
        self.frames_out += 1
        self._send(data)

    @property
    def machine(self) -> Machine:
        raise NotImplementedError

    @property
    def finished(self) -> bool:
        """True when the protocol reached a final state (if it has one)."""
        return self.machine.is_finished

    def summary(self) -> Dict[str, Any]:
        """Operator-facing counters for dashboards and reports."""
        return {
            "protocol": self.protocol,
            "state": repr(self.machine.current),
            "frames_in": self.frames_in,
            "frames_out": self.frames_out,
            "rejected": self.rejected,
        }


class ArqResponderApp(SessionApp):
    """Stop-and-wait receiver: deliver in order, acknowledge, re-ack dups."""

    protocol = "arq"
    specs = (ARQ_PACKET, ACK_PACKET)

    def __init__(self, send: Send, seed: int = 0, **params: Any) -> None:
        super().__init__(send, seed, **params)
        self._machine = Machine(_receiver_spec())
        self.delivered: List[bytes] = []
        self.acks_sent = 0

    @property
    def machine(self) -> Machine:
        return self._machine

    def on_frame(self, data: bytes) -> None:
        self.frames_in += 1
        verified = ARQ_PACKET.try_parse(data)
        if verified is None:
            self.rejected += 1  # unverifiable bytes never reach the machine
            return
        # Probe the machine: RECV consumes the expected packet, DUP_ACK a
        # duplicate of the previous one; the guards decide, not the driver.
        if self._machine.try_exec("RECV", verified) is not None:
            self.delivered.append(verified.value.payload)
            self._ack(verified.value.seq)
        elif self._machine.try_exec("DUP_ACK", verified) is not None:
            self._ack(verified.value.seq)
        else:
            self.rejected += 1  # verified but outside the window discipline

    def _ack(self, seq: int) -> None:
        ack = ACK_PACKET.make(seq=seq)
        self.send(ACK_PACKET.encode(ack))
        self.acks_sent += 1

    def summary(self) -> Dict[str, Any]:
        base = super().summary()
        base["delivered"] = len(self.delivered)
        return base


class HandshakeResponderApp(SessionApp):
    """Three-way handshake responder; nonces flow from the session seed."""

    protocol = "handshake"
    specs = (HANDSHAKE_PACKET,)

    def __init__(self, send: Send, seed: int = 0, **params: Any) -> None:
        super().__init__(send, seed, **params)
        self._machine = Machine(_responder_spec())
        self._rng = random.Random(seed)
        self._synack_frame = b""
        self._synack_for = -1  # initiator nonce the cached SYN-ACK answers

    @property
    def machine(self) -> Machine:
        return self._machine

    def on_frame(self, data: bytes) -> None:
        self.frames_in += 1
        verified = HANDSHAKE_PACKET.try_parse(data)
        if verified is None:
            self.rejected += 1
            return
        message = verified.value
        if message.msg_type == MSG_SYN:
            nonce = self._rng.randrange(1, 1 << 16)
            if self._machine.try_exec("SYN", verified, nonce=nonce) is None:
                # The machine refuses a SYN outside Listen.  A *retransmit*
                # of the SYN we already answered means our SYN-ACK was
                # probably lost: resend the cached frame (driver policy —
                # the machine's nonce state must not fork).  Any other SYN
                # is noise.
                if (
                    self._machine.in_state("SynReceived")
                    and message.initiator_nonce == self._synack_for
                ):
                    self.send(self._synack_frame)
                else:
                    self.rejected += 1
                return
            reply = HANDSHAKE_PACKET.make(
                msg_type=MSG_SYN_ACK,
                initiator_nonce=message.initiator_nonce,
                responder_nonce=nonce,
            )
            self._synack_frame = HANDSHAKE_PACKET.encode(reply)
            self._synack_for = message.initiator_nonce
            self.send(self._synack_frame)
        elif message.msg_type == MSG_ACK:
            if self._machine.try_exec("ACK", verified) is None:
                self.rejected += 1
        else:
            self.rejected += 1  # a SYN-ACK aimed at a responder is noise

    def on_timer(self) -> None:
        # Half-open handshake expired: return to Listen (the machine's
        # RESET transition), so the slot can serve a fresh attempt.
        self._machine.try_exec("RESET")

    @property
    def established(self) -> bool:
        return self._machine.in_state("Established")


class SlidingResponderApp(SessionApp):
    """Selective-repeat receiver: buffer verified out-of-order, ack each.

    Window decisions use the serial distance ``(seq - expected)`` modulo
    the 16-bit sequence space, so the receiver keeps delivering past seq
    65535; the buffer is keyed by the 16-bit wire sequence number.
    """

    protocol = "sliding"
    specs = (SLIDING_PACKET, SLIDING_ACK)

    def __init__(
        self, send: Send, seed: int = 0, window: int = 8, **params: Any
    ) -> None:
        super().__init__(send, seed, window=window, **params)
        self.window = int(window)
        self._machine = Machine(_window_receiver_spec("SrReceiver"))
        self.buffer: Dict[int, Any] = {}  # wire seq -> Verified[SlidingData]
        self.delivered: List[bytes] = []
        self.acks_sent = 0

    @property
    def machine(self) -> Machine:
        return self._machine

    @property
    def expected(self) -> int:
        return self._machine.current.values[0]

    def on_frame(self, data: bytes) -> None:
        self.frames_in += 1
        verified = SLIDING_PACKET.try_parse(data)
        if verified is None:
            self.rejected += 1
            return
        seq = verified.value.seq
        if self._machine.try_exec("RECV", verified) is not None:
            self.delivered.append(verified.value.payload)
            self._ack(seq)
            self._drain_buffer()
            return
        # Not the expected packet; OUT_OF_ORDER admits any other verified
        # frame without advancing — buffering/ack policy lives here.
        if self._machine.try_exec("OUT_OF_ORDER", verified) is None:
            self.rejected += 1
            return
        distance = (seq - self.expected) & SEQ_MASK
        if distance < self.window:
            self.buffer[seq] = verified
            self._ack(seq)
        elif distance > SEQ_MASK >> 1:
            self._ack(seq)  # behind: the earlier ack was probably lost, re-ack
        else:
            self.rejected += 1  # beyond the advertised window

    def _drain_buffer(self) -> None:
        while (self.expected & SEQ_MASK) in self.buffer:
            verified = self.buffer.pop(self.expected & SEQ_MASK)
            self._machine.exec_trans("RECV", verified)
            self.delivered.append(verified.value.payload)

    def _ack(self, seq: int) -> None:
        ack = SLIDING_ACK.make(kind=KIND_SELECTIVE, seq=seq)
        self.send(SLIDING_ACK.encode(ack))
        self.acks_sent += 1

    def summary(self) -> Dict[str, Any]:
        base = super().summary()
        base["delivered"] = len(self.delivered)
        base["buffered"] = len(self.buffer)
        return base


#: The serving plane's protocol registry.
APPS: Dict[str, Type[SessionApp]] = {
    ArqResponderApp.protocol: ArqResponderApp,
    HandshakeResponderApp.protocol: HandshakeResponderApp,
    SlidingResponderApp.protocol: SlidingResponderApp,
}


def app_class(protocol: str) -> Type[SessionApp]:
    """Look up a session app by protocol name."""
    try:
        return APPS[protocol]
    except KeyError:
        raise ValueError(
            f"unknown serve protocol {protocol!r}; known: {sorted(APPS)}"
        ) from None


def build_app(
    protocol: str, send: Send, seed: int = 0, params: Optional[Dict[str, Any]] = None
) -> SessionApp:
    """Instantiate a session app for either plane."""
    return app_class(protocol)(send, seed=seed, **(params or {}))
