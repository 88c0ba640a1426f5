"""The repository benchmark: the served path and megasim, end to end.

One command runs one workload and prints every metric by name and unit,
then, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``::

    python3 perfbench/run.py --workload sliding-bulk --seed 1 --seconds 15 --trace 0

Workloads (all closed loops: every caller waits for its ack):

``sliding-bulk``
    One selective-repeat stream, window 16, 255-byte payloads, seeded 2%
    loss of first transmissions on the client->server leg; a lost frame
    is resent after three later acks.  The stream crosses the 16-bit
    sequence wrap before the timed window, so every timed frame runs
    past it.
``arq-small``
    Two stop-and-wait sessions, one per socket, 4-byte payloads, with
    ``repro.obs`` armed in the server.
``handshake-churn``
    Fresh-peer three-way handshakes, at most two in flight, source ports
    cycling through a range larger than the server's 4096 sessions, so
    every timed handshake is an accept plus an oldest-idle shed.
``megasim-olsr``
    200k OLSR beacon machines stepped epoch by epoch through one
    ``ShardEngine``, in a worker process.

The server (``server.py``) and the megasim worker (``simworker.py``) run
in their own processes; this process is the load generator.  Frames are
encoded after set-up is timed and before the timed window, so neither
``setup_s`` nor the window includes them.

The host this runs on is shared, and its speed drifts by half or more
within minutes.  So the timed window is cut into slices (``SLICE``
seconds of load, or one megasim epoch), and after each slice, with no
load running, every process that does measured work takes a reading of
the host's speed (``hostspeed.py``).  The rate is scaled to a reference
host on which a reading takes ``hostspeed.REF_MS``; the measured rate is
printed beside it.  While socket load runs, no CPU is let idle
(:func:`cpus_awake`), so the time the host takes to wake a halted CPU
stays out of the figures.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s`` — the median of ``SETUP_REPEATS`` set-ups, each scaled
  to the reference host by the mean of a reading taken just before it
  and one just after: server spawn to the first answered probe frame
  (imports, spec sealing, fastpath compiles included); for megasim,
  population and engine construction.  The host's slow spells last
  seconds, as long as all of a run's set-ups, so neither their median
  nor their fastest is steady unscaled;
* ``norm_ops_per_s`` — the workload's operations per second on the
  reference host: the rate over the slices (acked data frames for
  sliding-bulk and arq-small, completed handshakes, fired megasim events
  in the epochs after the first), times the slices' mean reading over
  ``REF_MS``.  That mean is printed as the run's host calibration; it is
  reported, not gated.  The measured rate is printed under the
  workload's own name (``frames_per_s``, ``handshakes_per_s``,
  ``events_per_s``), and sliding-bulk prints ``goodput_MBps``, the
  payload the server delivered;
* ``peak_rss_MB`` — high-water memory of the server once the fixed
  warm-up is done (10k arq frames, the sliding pre-roll, the
  4096-session table fill), so the reading does not depend on how many
  frames the window fits; for megasim, of the worker after the run.
  Both less the readings' buffer.

Printed beside them, not in the JSON: ``latency_p50_us`` and
``latency_p99_us`` with their sample count (frame send to its ack, SYN
to SYN-ACK, or one megasim epoch).  Every workload is a closed loop with
a fixed number of operations in flight, so median latency is that
number over the rate and carries no further information.

``--trace 1`` reports the per-layer metrics instead: a counting pass in
a fresh process (``counting.py``: calls and retained allocations per
frame, exact), then half the run untraced and half with span wrappers
installed (``benchtrace.py``); the difference between the halves is the
tracing overhead.  A frame is one datagram the server received; for
megasim it is one fired event.  ``<x>_us`` is self time per frame,
except these, which are per call: ``serve.manager.frame_from_us`` (self,
frames that opened no session), ``serve.manager.open_us`` and
``close_us`` (whole call), ``serve.wheel.advance_us`` (whole call),
``obs.span_us`` (one obs span, open plus close) and the ``megasim.*_us``
(self, per epoch).  Counts named ``shed``, ``queue_drops`` and
``*_calls`` are per frame too.  A traced run takes a host reading after
each half and prints their mean as its calibration.  Sliding-bulk's
timed window, traced run and counting pass all run past the 16-bit
sequence wrap, so the counts, the spans and the end-to-end figures
describe the same code path.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import select
import socket
import statistics
import subprocess
import sys
import time
from array import array
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import benchframes as bf
import benchtrace
import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("sliding-bulk", "arq-small", "handshake-churn", "megasim-olsr")
#: Set-ups per run (server spawns, or megasim engine builds).
SETUP_REPEATS = 9
#: Seconds without any reply before the generator resends.
RESEND_AFTER = 0.2
#: Seconds of load between two host-speed readings in the timed window.
SLICE = 0.5
#: Limit on any single wait for a child process.
CHILD_TIMEOUT = 120.0
#: The CPUs this process may use.  With two or more, the generator keeps
#: the first and the server gets the last, so neither waits for the other
#: to be scheduled.
CPUS = sorted(os.sched_getaffinity(0))

#: Per-layer metric name -> unit, in the order they are printed.
PER_LAYER: Dict[str, str] = dict((
    ("serve.transport.self_us", "us"),
    ("serve.manager.frame_from_us", "us"),
    ("serve.manager.queue_wait_us", "us"),
    ("serve.manager.open_us", "us"),
    ("serve.manager.close_us", "us"),
    ("serve.manager.shed", "count"),
    ("serve.manager.queue_drops", "count"),
    ("serve.apps.on_frame_us", "us"),
    ("core.packet.decode_us", "us"),
    ("core.packet.verify_us", "us"),
    ("core.packet.make_us", "us"),
    ("core.packet.encode_us", "us"),
    ("core.packet.parse_reject_frac", "frac"),
    ("wire.checksums.compute_us", "us"),
    ("wire.checksums.bytes_per_frame", "B"),
    ("core.machine.try_exec_us", "us"),
    ("core.machine.exec_trans_us", "us"),
    ("core.machine.probes_per_frame", "count"),
    ("core.machine.probe_hit_ratio", "frac"),
    ("fastpath.compiles", "count"),
    ("fastpath.demotions", "count"),
    ("fastpath.interpreted_frac", "frac"),
    ("serve.wheel.schedule_calls", "count"),
    ("serve.wheel.cancel_calls", "count"),
    ("serve.wheel.advance_us", "us"),
    ("obs.spans_per_frame", "count"),
    ("obs.span_us", "us"),
    ("obs.metric_updates_per_frame", "count"),
    ("megasim.step_us", "us"),
    ("megasim.plan_us", "us"),
    ("megasim.route_us", "us"),
    ("megasim.events_per_epoch", "count"),
    *((f"{layer}.self_us", "us") for layer in benchtrace.LAYERS),
    *((f"{layer}.calls_per_frame", "count") for layer in benchtrace.LAYERS),
    *((f"{layer}.allocs_per_frame", "count") for layer in benchtrace.LAYERS),
    ("unattributed_frac", "frac"),
    ("trace.overhead_us", "us"),
    ("trace.overhead_frac", "frac"),
    ("generator.busy_frac", "frac"),
    ("generator.skipped_ports", "count"),
))


# -- small helpers -----------------------------------------------------------


def percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


def child_env() -> Dict[str, str]:
    """The environment for child processes: no obs export, fixed hashing."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(script: str, args: List[str]) -> Dict[str, Any]:
    """Run a helper script to completion; its last stdout line is JSON."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, script), *args],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        timeout=CHILD_TIMEOUT, check=True,
    )
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


class Phase:
    """Completed operations and their latencies over one interval."""

    def __init__(self) -> None:
        self.ops = 0
        self.latency_ns = array("q")
        #: Stream indices acknowledged (sliding-bulk only).
        self.indices = array("q")
        self.started = time.perf_counter()
        self.cpu_started = time.process_time()
        self.seconds = 0.0
        self.busy = 0.0

    @classmethod
    def of(cls, ops: int, seconds: float) -> "Phase":
        """A phase timed in another process (the megasim worker)."""
        phase = cls()
        phase.ops, phase.seconds = ops, seconds
        return phase

    def done(self, sent_ns: int) -> None:
        """One operation completed; ``sent_ns`` is when it was sent."""
        self.latency_ns.append(time.perf_counter_ns() - sent_ns)
        self.ops += 1

    def finish(self) -> "Phase":
        self.seconds = time.perf_counter() - self.started
        self.busy = (time.process_time() - self.cpu_started) / self.seconds
        return self


class Window:
    """The timed window: slices of load, each followed by a host-speed
    reading (:mod:`hostspeed`) while no load runs."""

    def __init__(self) -> None:
        self.slices: List[Phase] = []
        self.host_ms: List[float] = []

    def add(self, phase: Phase, host_ms: float) -> None:
        self.slices.append(phase)
        self.host_ms.append(host_ms)

    @property
    def ops(self) -> int:
        return sum(phase.ops for phase in self.slices)

    @property
    def seconds(self) -> float:
        """Time under load, the readings left out."""
        return sum(phase.seconds for phase in self.slices)

    @property
    def busy(self) -> float:
        return sum(phase.busy * phase.seconds for phase in self.slices) / self.seconds

    @property
    def indices(self) -> List[int]:
        return [index for phase in self.slices for index in phase.indices]

    def rate(self) -> float:
        """Operations per second under load."""
        return self.ops / self.seconds

    def norm_rate(self) -> float:
        """:meth:`rate` on the reference host: times the mean reading
        over ``hostspeed.REF_MS``."""
        return self.rate() * statistics.mean(self.host_ms) / hostspeed.REF_MS

    def latency_us(self) -> Tuple[float, float, int]:
        """(p50, p99, samples) in microseconds."""
        values = sorted(v for phase in self.slices for v in phase.latency_ns)
        return (statistics.median(values) / 1000.0,
                percentile(values, 0.99) / 1000.0, len(values))


# -- the server process --------------------------------------------------------


class ServerProcess:
    """``server.py`` in a child process, driven over its stdin/stdout."""

    def __init__(self, workload: str, seed: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server.py"),
             "--workload", workload, "--seed", str(seed), "--cpu", str(CPUS[-1])],
            cwd=ROOT, env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        try:
            self.port = int(self.read()["port"])
        except BaseException:
            self.stop()
            raise

    def read(self) -> Dict[str, Any]:
        ready, _, _ = select.select([self.proc.stdout], [], [], CHILD_TIMEOUT)
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            raise RuntimeError("server process did not answer")
        return json.loads(line)

    def send(self, cmd: str, **fields: Any) -> None:
        self.proc.stdin.write((json.dumps({"cmd": cmd, **fields}) + "\n").encode())
        self.proc.stdin.flush()

    def call(self, cmd: str, **fields: Any) -> Dict[str, Any]:
        self.send(cmd, **fields)
        return self.read()

    def stop(self) -> None:
        """Ask the server to quit; kill it if it has not within 30 s."""
        try:
            self.proc.stdin.write(b'{"cmd": "quit"}\n')
            self.proc.stdin.flush()
        except OSError:
            pass  # already gone
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


#: Spins on one CPU at the lowest scheduling class; exits at once where
#: that class does not exist, rather than compete with the load.
_SPINNER = """
import os, sys
try:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    sys.exit(0)
print(flush=True)
while True:
    pass
"""


@contextlib.contextmanager
def cpus_awake() -> Iterator[None]:
    """Keep every CPU of the run busy while the load runs.

    On a virtual machine an idle CPU halts, and waking it waits for the
    host to schedule it, a delay that comes and goes with the host's
    other tenants; a closed loop of frames between two processes pays it
    twice per frame.  A ``SCHED_IDLE`` spinner on each CPU runs only when
    nothing else wants that CPU, so the CPUs never halt, as under a
    kernel's ``idle=poll``.
    """
    spinners = [
        subprocess.Popen([sys.executable, "-c", _SPINNER, str(cpu)], stdout=subprocess.PIPE)
        for cpu in CPUS
    ]
    try:
        for spinner in spinners:
            spinner.stdout.readline()  # running at the idle class, or gone
        yield
    finally:
        for spinner in spinners:
            spinner.kill()
        for spinner in spinners:
            spinner.wait()
            spinner.stdout.close()


def udp_socket(port: int, bind_port: int = 0) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        sock.bind(("127.0.0.1", bind_port))
        sock.connect(("127.0.0.1", port))
    except OSError:
        sock.close()
        raise
    return sock


def probe(port: int, frame: bytes, accept: Callable[[bytes], bool]) -> None:
    """Send ``frame`` from a fresh socket until an accepted reply arrives."""
    sock = udp_socket(port)
    try:
        sock.settimeout(RESEND_AFTER)
        deadline = time.perf_counter() + CHILD_TIMEOUT
        while time.perf_counter() < deadline:
            sock.send(frame)
            try:
                if accept(sock.recv(256)):
                    return
            except socket.timeout:
                continue
        raise RuntimeError("probe frame never answered")
    finally:
        sock.close()


def start_server(workload: str, seed: int, repeats: int, probe_once: Callable[[int], None]
                 ) -> Tuple[ServerProcess, List[Tuple[float, float]]]:
    """Spawn the server ``repeats`` times, timing spawn -> answered probe.

    Returns the last server, still running, and per spawn its seconds
    and the mean host reading (ms) around it: one reading here before
    the spawn, one in both processes after the probe.  The others are
    stopped.
    """
    setups: List[Tuple[float, float]] = []
    for attempt in range(repeats):
        before = hostspeed.reading()
        started = time.perf_counter()
        server = ServerProcess(workload, seed)
        try:
            probe_once(server.port)
            seconds = time.perf_counter() - started
            setups.append((seconds, (before + host_speed(server)) / 2.0))
        except BaseException:
            server.stop()
            raise
        if attempt < repeats - 1:
            server.stop()
    return server, setups


# -- load generators -------------------------------------------------------------


class SlidingLoad:
    """The sliding-bulk stream over one socket."""

    def __init__(self, port: int, seed: int) -> None:
        from repro.protocols.sliding import SLIDING_ACK

        self.payloads, frames = bf.sliding_frames(seed)
        self.stream = bf.SlidingStream(frames, seed)
        self.parse = SLIDING_ACK.try_parse
        self.sock = udp_socket(port)
        self.sock.settimeout(RESEND_AFTER)
        self.sent_at: Dict[int, int] = {}
        #: Frames acked in the pre-roll: checked, not counted as operations.
        self.warm = 0
        self.bad_acks = 0
        self.resends = 0

    def run(self, seconds: float) -> Phase:
        """Run for ``seconds``; ``seconds=0`` drains what is in flight."""
        phase = Phase()
        drain = seconds <= 0
        deadline = phase.started + seconds
        stream, sent_at, parse = self.stream, self.sent_at, self.parse
        send, recv = self.sock.send, self.sock.recv
        clock, clock_ns = time.perf_counter, time.perf_counter_ns
        indices = phase.indices
        while True:
            if drain:
                if stream.base == stream.next:
                    break
            elif clock() >= deadline:
                break
            out, opened = stream.take(not drain)
            if opened:
                now_ns = clock_ns()
                for index in opened:
                    sent_at[index] = now_ns
            for index in out:
                send(stream.frame(index))
            try:
                data = recv(64)
            except socket.timeout:
                self.resends += 1
                for index in stream.unacked():
                    send(stream.frame(index))
                continue
            verified = parse(data)
            if verified is None:
                self.bad_acks += 1
                continue
            index = stream.on_ack(verified.value.seq)
            if index is None:
                continue
            phase.done(sent_at.pop(index))
            indices.append(index)
        return phase.finish()

    def close(self) -> None:
        self.sock.close()


class ArqLoad:
    """Two stop-and-wait streams, one per socket."""

    def __init__(self, port: int, seed: int) -> None:
        from repro.protocols.arq import ACK_PACKET

        self.parse = ACK_PACKET.try_parse
        self.streams = []
        for number in range(bf.ARQ_SOCKETS):
            payloads, frames = bf.arq_frames(seed, number)
            self.streams.append({
                "payloads": payloads, "frames": frames, "sock": udp_socket(port),
                "next": 0, "sent_at": 0, "in_flight": False,
            })
        self.by_fd = {s["sock"].fileno(): s for s in self.streams}
        self.bad_acks = 0
        self.resends = 0

    def _send(self, stream: Dict[str, Any]) -> None:
        frames = stream["frames"]
        stream["sent_at"] = time.perf_counter_ns()
        stream["in_flight"] = True
        stream["sock"].send(frames[stream["next"] % len(frames)])

    def run(self, seconds: float) -> Phase:
        phase = Phase()
        drain = seconds <= 0
        deadline = phase.started + seconds
        if not drain:
            for stream in self.streams:
                if not stream["in_flight"]:
                    self._send(stream)
        parse, by_fd, clock = self.parse, self.by_fd, time.perf_counter
        while True:
            busy = [s["sock"] for s in self.streams if s["in_flight"]]
            if not busy:
                break
            ready, _, _ = select.select(busy, [], [], RESEND_AFTER)
            if not ready:
                self.resends += 1
                for stream in self.streams:
                    if stream["in_flight"]:
                        frames = stream["frames"]
                        stream["sock"].send(frames[stream["next"] % len(frames)])
                continue
            open_new = not drain and clock() < deadline
            for sock in ready:
                stream = by_fd[sock.fileno()]
                verified = parse(sock.recv(64))
                if verified is None:
                    self.bad_acks += 1
                    continue
                if verified.value.seq != stream["next"] & 0xFF or not stream["in_flight"]:
                    continue  # an ack for an earlier resend
                phase.done(stream["sent_at"])
                stream["next"] += 1
                stream["in_flight"] = False
                if open_new:
                    self._send(stream)
        return phase.finish()

    def close(self) -> None:
        for stream in self.streams:
            stream["sock"].close()


class HandshakeLoad:
    """Fresh-peer handshakes from a cycled source-port range."""

    def __init__(self, port: int, seed: int) -> None:
        from repro.protocols.handshake import HANDSHAKE_PACKET

        self.port = port
        self.syns = bf.handshake_syns(seed)
        self.parse = HANDSHAKE_PACKET.try_parse
        self.cursor = 0
        self.attempted = 0
        self.completed = 0
        self.skipped_ports = 0
        self.bad_replies = 0
        self.resends = 0
        #: fd -> [socket, initiator nonce, SYN frame, sent_at ns]
        self.open: Dict[int, List[Any]] = {}

    def _start(self) -> None:
        for _ in range(bf.HANDSHAKE_PORTS):
            slot = self.cursor % bf.HANDSHAKE_PORTS
            self.cursor += 1
            try:
                sock = udp_socket(self.port, bf.HANDSHAKE_PORT_BASE + slot)
            except OSError:
                self.skipped_ports += 1  # the OS refused this source port
                continue
            nonce, syn = self.syns[slot]
            self.open[sock.fileno()] = [sock, nonce, syn, time.perf_counter_ns()]
            self.attempted += 1
            sock.send(syn)
            return
        raise RuntimeError("the OS refused every source port of the range")

    def run(self, seconds: float, count: int = 0) -> Phase:
        """Start handshakes for ``seconds``, or ``count`` of them; with
        neither, only finish the ones in flight."""
        phase = Phase()
        deadline = phase.started + seconds
        started = 0
        clock = time.perf_counter

        def more() -> bool:
            if count:
                return started < count
            return seconds > 0 and clock() < deadline

        while len(self.open) < bf.HANDSHAKE_IN_FLIGHT and more():
            self._start()
            started += 1
        parse = self.parse
        while self.open:
            ready, _, _ = select.select(
                [entry[0] for entry in self.open.values()], [], [], RESEND_AFTER
            )
            if not ready:
                self.resends += 1
                for entry in self.open.values():
                    entry[0].send(entry[2])
                continue
            for sock in ready:
                entry = self.open[sock.fileno()]
                verified = parse(sock.recv(64))
                if verified is None:
                    self.bad_replies += 1
                    continue
                reply = verified.value
                if reply.msg_type != bf.MSG_SYN_ACK or reply.initiator_nonce != entry[1]:
                    self.bad_replies += 1
                    continue
                sock.send(bf.handshake_frame(bf.MSG_ACK, entry[1], reply.responder_nonce))
                phase.done(entry[3])
                del self.open[sock.fileno()]
                sock.close()
                self.completed += 1
                if more():
                    self._start()
                    started += 1
        return phase.finish()

    def close(self) -> None:
        for entry in self.open.values():
            entry[0].close()
        self.open.clear()


# -- workloads ----------------------------------------------------------------


class Outcome:
    """What one run measured and checked."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.lines: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def note(self, line: str) -> None:
        self.lines.append(line)

    def fail(self, count: int, why: str, explained: bool = False) -> None:
        """Count ``count`` failed operations; unexplained ones make the
        run incorrect."""
        if count:
            self.failed += count
            if not explained:
                self.correct = False
            self.note(f"FAILED {count}: {why}")


def host_speed(server: ServerProcess) -> float:
    """One reading of the host's speed, taken in the server and in this
    process at once (ms, their mean)."""
    server.send("calibrate")
    here = hostspeed.reading()
    return (here + server.read()["ms"]) / 2.0


def timed_window(load: Any, server: ServerProcess, seconds: float) -> Window:
    """``seconds`` of load in ``SLICE`` slices, a host reading after each."""
    window = Window()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        window.add(load.run(SLICE), host_speed(server))
    return window


def calibration_note(out: Outcome, host_ms: List[float]) -> None:
    out.note(f"host calibration: reading mean = {statistics.mean(host_ms):.3f} ms over"
             f" {len(host_ms)} readings (reference {hostspeed.REF_MS:g} ms; reported,"
             f" not gated)")


def end_to_end(out: Outcome, setup: List[Tuple[float, float]], window: Window,
               rss_kb: int, rate_name: str) -> None:
    """``setup`` holds (seconds, mean host reading in ms) per set-up."""
    p50, p99, samples = window.latency_us()
    rate, norm = window.rate(), window.norm_rate()
    scaled = [seconds * hostspeed.REF_MS / host_ms for seconds, host_ms in setup]
    out.metric("setup_s", statistics.median(scaled), "s")
    out.metric("norm_ops_per_s", norm, "1/s")
    out.metric("peak_rss_MB", rss_kb / 1024.0, "MB")
    out.note(f"setup_s = median of samples={len(setup)} scaled set-ups "
             + ",".join(f"{v:.4f}" for v in scaled) + "; measured s "
             + ",".join(f"{seconds:.4f}" for seconds, _ in setup) + "; readings ms "
             + ",".join(f"{host_ms:.2f}" for _, host_ms in setup))
    out.note(f"{rate_name} = {rate:.6g} 1/s  ({window.ops} over {window.seconds:.3f} s"
             f" under load, in {len(window.slices)} slices)")
    calibration_note(out, window.host_ms)
    out.note(f"norm_ops_per_s = {rate_name} x reading mean / reference = {norm:.6g} 1/s")
    out.note(f"latency_p50_us = {p50:.2f} us  latency_p99_us = {p99:.2f} us"
             f"  (samples={samples})")


def serve_workload(workload: str, args: argparse.Namespace, out: Outcome,
                   load_cls: Any, probe_once: Callable[[int], None],
                   check: Callable[..., None], warm: Callable[[Any, bool], None],
                   rate_name: str) -> None:
    """Shared shape of the three socket workloads."""
    trace = bool(args.trace)
    counts: Dict[str, float] = {}
    if trace:
        counts = run_child("counting.py", ["--workload", workload])
    server, setup = start_server(
        workload, args.seed, 1 if trace else SETUP_REPEATS, probe_once
    )
    load = None
    try:
        load = load_cls(server.port, args.seed)
        warm(load, trace)
        if not trace:
            # Memory after a fixed amount of work: later growth depends on
            # how many frames the window fits, i.e. on speed.
            rss_kb = settle(server)["peak_rss_kb"]
            with cpus_awake():
                timed = timed_window(load, server, args.seconds)
            load.run(0)
            report = settle(server)
            end_to_end(out, setup, timed, rss_kb, rate_name)
            out.note(f"generator busy_frac = {timed.busy:.3f}")
            if workload == "sliding-bulk":
                goodput(out, load, timed, report)
        else:
            half = args.seconds / 2.0
            path = os.path.join(OUT, f"spans-{workload}.json")
            with cpus_awake():
                untraced = load.run(half)
                host_ms = [host_speed(server)]
                server.call("trace", path=path)
                traced = load.run(half)
                host_ms.append(host_speed(server))
            load.run(0)
            report = settle(server)
            per_layer_serve(out, report, counts, untraced, traced, load)
            calibration_note(out, host_ms)
        check(load, report, out)
    finally:
        if load is not None:
            load.close()
        server.stop()


def per_layer_serve(out: Outcome, report: Dict[str, Any], counts: Dict[str, float],
                    untraced: Phase, traced: Phase, load: Any) -> None:
    header, columns = benchtrace.load(report["trace_path"])
    summary = benchtrace.analyze(header, columns)
    per, tally = summary["per"], header["tally"]
    frames = max(1, header["datagrams"])

    def calls(name: str) -> float:
        return per.get(name, [0, 0.0, 0.0])[0]

    def self_us(name: str) -> float:
        return per.get(name, [0, 0.0, 0.0])[2] * 1e6 / frames

    def per_call_us(name: str, column: int) -> float:
        entry = per.get(name)
        return entry[column] * 1e6 / entry[0] if entry and entry[0] else 0.0

    values: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    for name in per:
        layer = name.rsplit(".", 1)[0]
        values[f"{layer}.self_us"] += self_us(name)
    values.update({
        "serve.manager.frame_from_us": per_call_us("serve.manager.frame_from", 2),
        "serve.manager.queue_wait_us": (
            tally.get("serve.manager.queue_wait_s", 0.0) * 1e6
            / max(1, tally.get("serve.manager.queue_waits", 0))),
        "serve.manager.open_us": per_call_us("serve.manager.open", 1),
        "serve.manager.close_us": per_call_us("serve.manager.close", 1),
        "serve.manager.shed": header["shed"] / frames,
        "serve.manager.queue_drops": header["queue_drops"] / frames,
        "serve.apps.on_frame_us": self_us("serve.apps.on_frame"),
        "core.packet.decode_us": self_us("core.packet.decode"),
        "core.packet.verify_us": self_us("core.packet.verify"),
        "core.packet.make_us": self_us("core.packet.make"),
        "core.packet.encode_us": self_us("core.packet.encode"),
        "core.packet.parse_reject_frac": (
            tally.get("core.packet.rejects", 0) / max(1, tally.get("core.packet.parses", 0))),
        "wire.checksums.compute_us": self_us("wire.checksums.compute"),
        "wire.checksums.bytes_per_frame": tally.get("wire.checksums.bytes", 0) / frames,
        "core.machine.try_exec_us": self_us("core.machine.try_exec"),
        "core.machine.exec_trans_us": self_us("core.machine.exec_trans"),
        "core.machine.probes_per_frame": tally.get("core.machine.probes", 0) / frames,
        "core.machine.probe_hit_ratio": (
            tally.get("core.machine.hits", 0) / max(1, tally.get("core.machine.probes", 0))),
        "fastpath.compiles": report["fastpath"]["compiles"],
        "fastpath.demotions": report["fastpath"]["demotions"],
        "fastpath.interpreted_frac": report["interpreted_specs"] / report["served_specs"],
        "serve.wheel.schedule_calls": calls("serve.wheel.schedule") / frames,
        "serve.wheel.cancel_calls": calls("serve.wheel.cancel") / frames,
        "serve.wheel.advance_us": per_call_us("serve.wheel.advance", 1),
        "obs.spans_per_frame": calls("obs.span") / frames,
        "obs.span_us": (
            (per.get("obs.span", [0, 0, 0])[2] + per.get("obs.span_close", [0, 0, 0])[2])
            * 1e6 / max(1, calls("obs.span"))),
        "obs.metric_updates_per_frame": calls("obs.metric") / frames,
        "unattributed_frac": unattributed(header, summary),
        "generator.busy_frac": untraced.busy,
        "generator.skipped_ports": float(getattr(load, "skipped_ports", 0)),
    })
    values.update(counts)
    overhead(values, untraced, traced)
    for name, value in values.items():
        out.metric(name, value, PER_LAYER[name])
    out.note(f"traced frames = {header['datagrams']}, spans = {header['count']}")


def unattributed(header: Dict[str, Any], summary: Dict[str, Any]) -> float:
    """Share of the server loop's busy time (wall time outside its idle
    ``select``) that no span covers."""
    busy = header["wall_s"] - header["tally"].get("idle_s", 0.0)
    return max(0.0, busy - summary["root_s"]) / max(1e-9, busy)


def overhead(values: Dict[str, float], untraced: Phase, traced: Phase) -> None:
    base = untraced.seconds / max(1, untraced.ops)
    with_spans = traced.seconds / max(1, traced.ops)
    values["trace.overhead_us"] = (with_spans - base) * 1e6
    values["trace.overhead_frac"] = (with_spans - base) / base


# -- sliding-bulk ----------------------------------------------------------------


def sliding_probe(port: int) -> None:
    from repro.protocols.sliding import SLIDING_ACK

    def accept(reply: bytes) -> bool:
        verified = SLIDING_ACK.try_parse(reply)
        return verified is not None and verified.value.seq == 0

    probe(port, bf.sliding_frame(0, b"probe"), accept)


def sliding_preroll(load: SlidingLoad, trace: bool) -> None:
    """Advance the stream past its sequence wrap before timing.

    Every frame after the pre-roll then takes the same path: on this
    receiver, the re-ack of an old duplicate that is never delivered.
    So the share of failed frames is the same in every run (all of them,
    until the receiver wraps), whatever the host's speed, and the timed
    window, both traced halves and the counting pass describe one path.
    """
    while load.stream.base < bf.SLIDING_RING + bf.SLIDING_WINDOW:
        load.run(0.25)
    load.warm = load.stream.base


def goodput(out: Outcome, load: SlidingLoad, timed: Window, report: Dict[str, Any]) -> None:
    """Payload the server delivered from frames acked in the window."""
    session = own_session(load.sock, report)
    delivered = session["delivered"] if session else 0
    indices = timed.indices
    in_window = sum(1 for index in indices if index < delivered)
    past_wrap = sum(1 for index in indices if index >= bf.SLIDING_RING)
    out.note(f"goodput_MBps = {in_window * bf.SLIDING_PAYLOAD / timed.seconds / 1e6:.6g}"
             f" MB/s  (delivered payload only, over {timed.seconds:.3f} s)")
    out.note(f"past the sequence wrap: {past_wrap} of the window's {len(indices)} acked"
             f" frames ({past_wrap / max(1, len(indices)):.3f})")


def own_session(sock: socket.socket, report: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    port = sock.getsockname()[1]
    for session in report["sessions"]:
        if session["port"] == port:
            return session
    return None


def check_stream(out: Outcome, label: str, payloads: List[bytes], acked: int,
                 session: Optional[Dict[str, Any]], wrap: int = 0, warm: int = 0
                 ) -> None:
    """Compare the server's delivered digest with the generator's stream.

    Every acked frame must have been delivered in order.  The first
    ``warm`` acked frames are warm-up: checked, but not counted as
    operations.  When ``wrap`` is set, frames past the sequence wrap
    that the server never delivered are counted as failed and named,
    but are explained.
    """
    counted = acked - warm
    out.attempted += counted
    if session is None:
        out.fail(counted, f"{label}: server has no session for the stream")
        return
    delivered = session["delivered"]
    if session["rejected"]:
        out.fail(session["rejected"], f"{label}: server rejected frames")
    if delivered > acked or session["digest"] != bf.stream_digest(payloads, delivered):
        out.fail(counted, f"{label}: delivered payloads differ from the stream sent")
        return
    if delivered < min(warm, wrap or warm):
        out.fail(counted, f"{label}: warm-up frames never delivered")
        return
    missing = acked - max(delivered, warm)
    if missing and wrap and delivered == wrap:
        out.fail(missing, f"{label}: sequence-wrap, frames {warm}..{acked - 1} were "
                 f"acked as old duplicates and never delivered (receiver does not "
                 f"wrap its 16-bit sequence space)", explained=True)
    else:
        out.fail(missing, f"{label}: acked frames never delivered")
    out.note(f"{label}: acked={acked} (warm-up {warm}, not counted) "
             f"delivered={delivered} digest-prefix=ok")


def sliding_check(load: SlidingLoad, report: Dict[str, Any], out: Outcome) -> None:
    stream = load.stream
    check_stream(out, "sliding-bulk", load.payloads, stream.base,
                 own_session(load.sock, report), wrap=bf.SLIDING_RING, warm=load.warm)
    out.fail(load.bad_acks, "acks failing SlidingAck.try_parse")
    out.note(f"generator: first sends dropped={stream.dropped} "
             f"retransmitted={stream.retransmitted} timeout resends={load.resends}")
    if stream.base <= bf.SLIDING_RING:
        out.note("WARNING: the stream did not cross the 16-bit sequence wrap")


# -- arq-small -----------------------------------------------------------------------


def arq_probe(port: int) -> None:
    from repro.protocols.arq import ACK_PACKET

    def accept(reply: bytes) -> bool:
        verified = ACK_PACKET.try_parse(reply)
        return verified is not None and verified.value.seq == 0

    probe(port, bf.arq_frame(0, b"prob"), accept)


def arq_check(load: ArqLoad, report: Dict[str, Any], out: Outcome) -> None:
    for number, stream in enumerate(load.streams):
        check_stream(out, f"arq-small stream {number}", stream["payloads"],
                     stream["next"], own_session(stream["sock"], report))
    out.fail(load.bad_acks, "acks failing ArqAck.try_parse")
    out.note(f"generator: timeout resends={load.resends}")


# -- handshake-churn ---------------------------------------------------------------


def handshake_probe(port: int) -> None:
    from repro.protocols.handshake import HANDSHAKE_PACKET

    nonce = 0xBEEF
    sock = udp_socket(port)
    try:
        sock.settimeout(RESEND_AFTER)
        for _ in range(int(CHILD_TIMEOUT / RESEND_AFTER)):
            sock.send(bf.handshake_frame(bf.MSG_SYN, nonce, 0))
            try:
                verified = HANDSHAKE_PACKET.try_parse(sock.recv(64))
            except socket.timeout:
                continue
            if verified is not None and verified.value.initiator_nonce == nonce:
                sock.send(bf.handshake_frame(
                    bf.MSG_ACK, nonce, verified.value.responder_nonce))
                return
        raise RuntimeError("handshake probe never answered")
    finally:
        sock.close()


def arq_warm(load: ArqLoad, trace: bool) -> None:
    """A fixed number of frames before timing: caches filled, and the
    memory reading taken after the same work on every run."""
    while sum(stream["next"] for stream in load.streams) < bf.ARQ_WARM_FRAMES:
        load.run(0.25)
    load.run(0)


def handshake_warm(load: HandshakeLoad, trace: bool) -> None:
    """Fill the table to capacity, so every timed accept sheds one."""
    load.run(0, count=bf.HANDSHAKE_MAX_SESSIONS - 1)  # the probe holds one


def handshake_check(load: HandshakeLoad, report: Dict[str, Any], out: Outcome) -> None:
    attempted = load.attempted + 1  # the setup probe
    out.attempted += attempted
    stats = report["stats"]
    out.fail(load.attempted - load.completed, "handshakes without a valid SYN-ACK")
    out.fail(load.bad_replies, "replies failing Handshake.try_parse or not a SYN-ACK")
    out.fail(abs(stats["opened"] - attempted), f"opened {stats['opened']} != attempted {attempted}")
    expected_shed = stats["opened"] - bf.HANDSHAKE_MAX_SESSIONS
    out.fail(abs(stats["shed"] - expected_shed),
             f"shed {stats['shed']} != opened - {bf.HANDSHAKE_MAX_SESSIONS}")
    live = sum(report["states"].values())
    established = report["states"].get("Established", 0)
    out.fail(live - established, f"live sessions not Established: {report['states']}")
    out.note(f"handshake-churn: attempted={attempted} opened={stats['opened']} "
             f"shed={stats['shed']} live={live} established={established} "
             f"skipped ports={load.skipped_ports} timeout resends={load.resends}")


def settle(server: ServerProcess) -> Dict[str, Any]:
    """The server's report once it has applied every final handshake ACK
    (bounded wait; other workloads have no handshake states)."""
    deadline = time.perf_counter() + 5.0
    while True:
        report = server.call("report")
        states = report["states"]
        if states.get("Established", 0) == sum(states.values()) or \
                time.perf_counter() > deadline:
            return report
        time.sleep(0.02)


# -- megasim-olsr ---------------------------------------------------------------------


def megasim_workload(args: argparse.Namespace, out: Outcome) -> None:
    counts: Dict[str, float] = {}
    if args.trace:
        counts = run_child("counting.py", ["--workload", "megasim-olsr"])
    result = run_child("simworker.py", [
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--setups", str(1 if args.trace else SETUP_REPEATS),
    ])
    out.attempted += result["epochs"]
    out.fail(result["mismatched_epochs"], "epoch transcript lines differ from run_serial")
    out.note(f"megasim-olsr: machines={result['machines']} epochs={result['epochs']} "
             f"transcript matches run_serial: {result['mismatched_epochs'] == 0}")
    if not args.trace:
        timed = result["timed"]
        # Every epoch after the first (which has no inbox) does the same
        # work; each is a slice of the window, its latency the epoch's.
        window = Window()
        for us, fired, host_ms in list(zip(
                timed["epoch_us"], timed["epoch_events"], timed["host_ms"]))[1:]:
            epoch = Phase.of(fired, us / 1e6)
            epoch.latency_ns.append(round(us * 1000))
            window.add(epoch, host_ms)
        end_to_end(out, result["setups"], window, result["peak_rss_kb"], "events_per_s")
        return
    calibration_note(out, result["host_ms"])
    values: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    values.update(result["per_layer"])
    values.update(counts)
    untraced, traced = (Phase.of(result[key]["events"], result[key]["seconds"])
                        for key in ("untraced", "traced"))
    overhead(values, untraced, traced)
    for name, value in values.items():
        out.metric(name, value, PER_LAYER[name])


# -- entry point ---------------------------------------------------------------------------


def run_workload(args: argparse.Namespace, out: Outcome) -> None:

    if args.workload == "megasim-olsr":
        megasim_workload(args, out)
        return
    bf.check_encoders(args.seed)
    if args.workload == "sliding-bulk":
        serve_workload("sliding-bulk", args, out, SlidingLoad, sliding_probe,
                       sliding_check, sliding_preroll, "frames_per_s")
    elif args.workload == "arq-small":
        serve_workload("arq-small", args, out, ArqLoad, arq_probe, arq_check,
                       arq_warm, "frames_per_s")
    else:
        serve_workload("handshake-churn", args, out, HandshakeLoad, handshake_probe,
                       handshake_check, handshake_warm, "handshakes_per_s")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program's sources are missing ({SRC}/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    os.sched_setaffinity(0, CPUS[:1])

    out = Outcome()
    run_workload(args, out)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for line in out.lines:
        print(line)
    for name, (value, unit) in out.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"attempted = {out.attempted}  failed = {out.failed}  correct = {out.correct}")
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
