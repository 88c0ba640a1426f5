"""Deterministic per-layer counts for one workload, in a fresh process.

Drives the workload's code in this process with no sockets and a fake
clock, so that every count repeats exactly from run to run:

* ``<layer>.calls_per_frame`` — Python and C calls per frame, counted by
  a ``sys.setprofile`` hook.  A call is charged to the layer of the
  called function's source file; a call into code outside the layers
  (the standard library, C functions) is charged to the nearest calling
  layer on the stack.
* ``<layer>.allocs_per_frame`` — net memory blocks per frame still held
  at the end of a second window, grouped by the source file that
  allocated them (``tracemalloc``, tracing from before the warm-up, so
  a block freed in the window cancels the one that replaced it).  The
  sliding pre-roll runs untraced: traced it takes minutes, and past the
  wrap no frame is delivered, so the windows free little of what it
  left (tracing from process start moved no count by more than 0.04).

For the socket workloads a frame is one datagram handed to
``UdpServeProtocol.datagram_received``; the sliding stream first runs
past its 16-bit sequence wrap, as every timed run's does; the deferred
drains run after each datagram as ``call_soon`` would run them, and the
timer wheel advances every 50 datagrams on a clock that moves 100 us per
datagram.
For megasim a frame is one fired event.  The input schedule is fixed
(seed 0 for the sliding losses), so the counts describe the code, not
the seed.  ``time.perf_counter`` is replaced by a clock that advances
1 us per read, so durations the program records (obs histograms) are
the same every run; each read still counts as one call of the layer
that made it.  Prints one JSON line.

Usage (normally started by ``run.py``)::

    python3 perfbench/counting.py --workload arq-small
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import tracemalloc
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import benchframes as bf  # noqa: E402
from benchtrace import LAYERS, layer_of_file  # noqa: E402

#: Frames per counting window, and frames run before the first window.
WINDOW = {"sliding-bulk": 600, "arq-small": 1000, "handshake-churn": 800}
WARM = 200
#: The small population used for megasim's counts, and its epochs.
MEGASIM_COUNT_MACHINES = 20_000
MEGASIM_COUNT_EPOCHS = 2
WHEEL_EVERY = 50
CLOCK_STEP = 1e-4
_HARNESS = os.path.abspath(__file__)
_now = [0.0]


def fake_perf_counter() -> float:
    """Deterministic stand-in for ``time.perf_counter``."""
    _now[0] += 1e-6
    return _now[0]


_CLOCK_CODE = fake_perf_counter.__code__


class Harness:
    """A session manager behind a socket-free UDP listener."""

    def __init__(self, workload: str) -> None:
        from repro.obs.instrument import enable
        from repro.serve.manager import SessionManager
        from repro.serve.transport import UdpServeProtocol
        from repro.serve.wheel import TimerWheel
        from server import PROFILES

        profile = PROFILES[workload]
        if profile["obs"]:
            enable()
        self.now = 0.0
        self.ticks = 0
        self.deferred: List[Callable[[], None]] = []
        self.replies: List[Tuple[Any, bytes]] = []
        self.wheel = TimerWheel(tick=0.005, slots=512, now=0.0)
        self.manager = SessionManager(
            profile["protocol"], wheel=self.wheel, clock=lambda: self.now,
            max_sessions=profile["max_sessions"], idle_timeout=3600.0,
            app_params=profile["params"], seed=0, defer=self.deferred.append,
        )
        self.protocol = UdpServeProtocol(self.manager)
        self.protocol.connection_made(self)  # this object is the transport
        self.frames = 0

    def sendto(self, data: bytes, addr: Any) -> None:
        self.replies.append((addr, data))

    def deliver(self, peer: Any, data: bytes) -> List[bytes]:
        """One datagram in; the replies it caused out."""
        self.frames += 1
        self.now += CLOCK_STEP
        self.protocol.datagram_received(data, peer)
        while self.deferred:
            self.deferred.pop(0)()
        self.ticks += 1
        if self.ticks % WHEEL_EVERY == 0:
            self.wheel.advance(self.now)
        replies = [data for _, data in self.replies]
        self.replies.clear()
        return replies


def arq_driver(harness: Harness) -> Callable[[int], None]:
    peers = [("127.0.0.1", 41000 + n) for n in range(bf.ARQ_SOCKETS)]
    rings = [bf.arq_frames(0, n)[1] for n in range(bf.ARQ_SOCKETS)]
    cursor = [0]

    def frames(count: int) -> None:
        target = harness.frames + count
        while harness.frames < target:
            index = cursor[0]
            for peer, ring in zip(peers, rings):
                harness.deliver(peer, ring[index % len(ring)])
            cursor[0] += 1

    return frames


def sliding_driver(harness: Harness) -> Callable[[int], None]:
    from repro.protocols.sliding import SLIDING_ACK

    stream = bf.SlidingStream(bf.sliding_frames(0)[1], seed=0)
    peer = ("127.0.0.1", 41000)

    def frames(count: int) -> None:
        target = harness.frames + count
        while harness.frames < target:
            out, _ = stream.take()
            for index in out:
                for reply in harness.deliver(peer, stream.frame(index)):
                    stream.on_ack(SLIDING_ACK.parse(reply).value.seq)

    # Past the 16-bit sequence wrap first, where every timed frame runs.
    while stream.base < bf.SLIDING_RING + bf.SLIDING_WINDOW:
        frames(bf.SLIDING_WINDOW)
    return frames


def handshake_driver(harness: Harness) -> Callable[[int], None]:
    from repro.protocols.handshake import HANDSHAKE_PACKET

    syns = bf.handshake_syns(0)
    cursor = [0]

    def frames(count: int) -> None:
        target = harness.frames + count
        while harness.frames < target:
            slot = cursor[0] % bf.HANDSHAKE_PORTS
            cursor[0] += 1
            peer = ("127.0.0.1", bf.HANDSHAKE_PORT_BASE + slot)
            nonce, syn = syns[slot]
            (reply,) = harness.deliver(peer, syn)
            responder = HANDSHAKE_PACKET.parse(reply).value.responder_nonce
            harness.deliver(peer, bf.handshake_frame(bf.MSG_ACK, nonce, responder))

    return frames


DRIVERS = {"arq-small": arq_driver, "sliding-bulk": sliding_driver,
           "handshake-churn": handshake_driver}


class CallCounter:
    """``sys.setprofile`` hook charging each call to a layer."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self._layers: Dict[str, Optional[str]] = {}

    def _layer(self, filename: str) -> Optional[str]:
        layer = self._layers.get(filename, "")
        if layer == "":
            if os.path.abspath(filename) == _HARNESS:
                layer = "harness"
            else:
                layer = layer_of_file(filename)
            self._layers[filename] = layer
        return layer

    def _charge(self, frame: Any) -> Optional[str]:
        while frame is not None:
            layer = self._layer(frame.f_code.co_filename)
            if layer is not None:
                return None if layer == "harness" else layer
            frame = frame.f_back
        return None

    def __call__(self, frame: Any, event: str, arg: Any) -> None:
        if event == "call":
            if frame.f_code is _CLOCK_CODE:
                layer = self._charge(frame.f_back)  # a clock read, as in C
            else:
                layer = self._layer(frame.f_code.co_filename)
            if layer is None:
                layer = self._charge(frame.f_back)
            elif layer == "harness":
                layer = None
        elif event == "c_call":
            layer = self._charge(frame)
        else:
            return
        if layer is not None:
            self.calls[layer] += 1


def count_serve(workload: str, run: Callable[[int], None], frames_done: Callable[[], int]
                ) -> Dict[str, float]:
    window = WINDOW[workload]
    counter = CallCounter()
    start = frames_done()
    sys.setprofile(counter)
    try:
        run(window)
    finally:
        sys.setprofile(None)
    calls_frames = frames_done() - start

    before = tracemalloc.take_snapshot()
    start = frames_done()
    run(window)
    alloc_frames = frames_done() - start
    after = tracemalloc.take_snapshot()
    return per_frame(counter.calls, calls_frames, retained(before, after), alloc_frames)


def retained(before: Any, after: Any) -> Counter:
    blocks: Counter = Counter()
    for stat in after.compare_to(before, "filename"):
        layer = layer_of_file(stat.traceback[0].filename)
        if layer is not None:
            blocks[layer] += stat.count_diff
    return blocks


def per_frame(calls: Counter, calls_frames: int, blocks: Counter, alloc_frames: int
           ) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls_per_frame"] = calls[layer] / calls_frames
        out[f"{layer}.allocs_per_frame"] = blocks[layer] / alloc_frames
    return out


def count_megasim() -> Dict[str, float]:
    from repro.megasim import RunConfig, ShardEngine, route

    machines = MEGASIM_COUNT_MACHINES
    engine = ShardEngine(RunConfig("olsr", machines, 1 << 30, 0), 0, machines)
    inbox: List[Any] = []
    epoch = [0]

    def step() -> int:
        result = engine.step(epoch[0], inbox)
        inbox[:] = route(result.outbox, [(0, machines)])[0]
        epoch[0] += 1
        return result.fired

    step()  # warm: kernels built, inbox primed
    counter = CallCounter()
    sys.setprofile(counter)
    try:
        calls_events = sum(step() for _ in range(MEGASIM_COUNT_EPOCHS))
    finally:
        sys.setprofile(None)
    before = tracemalloc.take_snapshot()
    alloc_events = sum(step() for _ in range(MEGASIM_COUNT_EPOCHS))
    after = tracemalloc.take_snapshot()
    return per_frame(counter.calls, calls_events, retained(before, after), alloc_events)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted([*DRIVERS, "megasim-olsr"]))
    args = parser.parse_args()
    time.perf_counter = fake_perf_counter  # before the program is imported
    if args.workload == "megasim-olsr":
        tracemalloc.start(1)
        counts = count_megasim()
    else:
        harness = Harness(args.workload)
        run = DRIVERS[args.workload](harness)
        # After sliding's pre-roll, before the handshake fill, whose
        # sessions the windows shed.
        tracemalloc.start(1)
        if args.workload == "handshake-churn":
            run(2 * bf.HANDSHAKE_MAX_SESSIONS)  # fill the table: every accept sheds
        run(WARM)
        counts = count_serve(args.workload, run, lambda: harness.frames)
    print(json.dumps(counts))


if __name__ == "__main__":
    main()
