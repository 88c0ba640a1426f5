"""Span recording around the program's layers, from outside the program.

A traced run replaces the public functions named in :data:`LAYERS`
with wrappers that record one span per call: its name, start, end,
parent span and the id of the datagram being served.  Spans live in
flat arrays in memory and are written out once, at the end of the run;
:func:`analyze` turns them into per-name call counts, total time and
*self* time (a span's duration minus the part its child spans cover).

Nothing here edits the program's files: wrappers are installed by
assigning to class and module attributes in the process that runs the
layer (the server process for socket workloads, the megasim worker for
megasim).
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter as Tally
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The layer vocabulary, in a served frame's order.  A span name is
#: ``<layer>.<function>``.
LAYERS = (
    "serve.transport",
    "serve.manager",
    "serve.apps",
    "core.packet",
    "wire.checksums",
    "core.machine",
    "fastpath",
    "serve.wheel",
    "obs",
    "megasim",
)

#: Source file (relative to the ``repro`` package) -> layer, used by the
#: counting pass.  Modules a layer runs beneath belong to that layer:
#: codec and compile run beneath ``core.packet``, dispatch and the
#: protocol guards beneath ``core.machine``.
_FILE_LAYERS = (
    ("serve/transport.py", "serve.transport"),
    ("serve/apps.py", "serve.apps"),
    ("serve/wheel.py", "serve.wheel"),
    ("serve/", "serve.manager"),
    ("wire/checksums.py", "wire.checksums"),
    ("wire/", "core.packet"),
    ("core/machine.py", "core.machine"),
    ("core/dispatch.py", "core.machine"),
    ("core/statemachine.py", "core.machine"),
    ("core/symbolic.py", "core.machine"),
    ("core/ops.py", "core.machine"),
    ("protocols/", "core.machine"),
    ("core/", "core.packet"),
    ("fastpath/", "fastpath"),
    ("obs/", "obs"),
    ("megasim/", "megasim"),
)


def layer_of_file(filename: str) -> Optional[str]:
    """The layer a code object's file belongs to, or None."""
    if filename.startswith("repro_generated_"):
        return "core.packet"  # generated codec modules
    if filename.startswith("<staged-"):
        return "core.machine"  # generated dispatch tables and cohorts
    marker = filename.replace("\\", "/").rfind("/repro/")
    if marker < 0:
        return None
    rel = filename[marker + len("/repro/"):].replace("\\", "/")
    for prefix, layer in _FILE_LAYERS:
        if rel.startswith(prefix):
            return layer
    return None


class SpanLog:
    """Spans in flat arrays; one instance per traced process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.dgram = array("i")
        self.stack: List[int] = []
        #: Id of the datagram being served (0: background work).
        self.current = 0
        self.datagrams = 0
        #: Named tallies recorded beside the spans.
        self.tally: Tally = Tally()
        #: ``id(frame bytes) -> (datagram id, frame_from end)`` for
        #: frames queued between demux and the app.
        self.pending: Dict[int, Tuple[int, float]] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        index = len(self.start)
        stack = self.stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.dgram.append(self.current)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn: Callable, name: str) -> Callable:
        nid = self.name_id(name)
        open_, close = self.open, self.close

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

        return traced

    # -- persistence ----------------------------------------------------------

    def save(self, path: str, extra: Dict[str, Any]) -> None:
        """Write ``path`` (JSON header) and ``path + '.bin'`` (arrays)."""
        count = len(self.start)
        header = {
            "names": self.names,
            "count": count,
            "datagrams": self.datagrams,
            "tally": dict(self.tally),
            **extra,
        }
        with open(path + ".bin", "wb") as handle:
            for column in (self.name, self.start, self.end, self.parent, self.dgram):
                column[:count].tofile(handle)
        with open(path, "w") as handle:
            json.dump(header, handle)


def load(path: str) -> Tuple[Dict[str, Any], Dict[str, array]]:
    """Read what :meth:`SpanLog.save` wrote."""
    with open(path) as handle:
        header = json.load(handle)
    count = header["count"]
    columns: Dict[str, array] = {}
    with open(path + ".bin", "rb") as handle:
        for key, code in (("name", "i"), ("start", "d"), ("end", "d"),
                          ("parent", "i"), ("dgram", "i")):
            column = array(code)
            column.fromfile(handle, count)
            columns[key] = column
    return header, columns


def analyze(header: Dict[str, Any], columns: Dict[str, array]) -> Dict[str, Any]:
    """Per span name: calls, total and self seconds; plus root time."""
    name, start, end, parent = (
        columns["name"], columns["start"], columns["end"], columns["parent"]
    )
    count = len(start)
    covered = [0.0] * count
    for index in range(count):
        up = parent[index]
        if up >= 0 and end[index] >= start[index]:
            covered[up] += end[index] - start[index]
    per: Dict[str, List[float]] = {}
    root = 0.0
    names = header["names"]
    for index in range(count):
        duration = end[index] - start[index]
        if duration < 0:
            continue  # still open when the log was written
        entry = per.setdefault(names[name[index]], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - covered[index]
        if parent[index] < 0:
            root += duration
    return {"per": per, "root_s": root}


# -- installers ---------------------------------------------------------------


def install_serve(log: SpanLog, managers: List[Any], selector: Any) -> None:
    """Wrap the serve datapath's layers in this (server) process.

    ``managers`` are the live session managers; sessions already open
    get their per-peer send wrapped here, later ones at accept.  The
    event loop's ``selector`` is timed too: its ``select`` is the loop's
    idle wait, so loop time outside it and outside every span is
    unattributed.
    """
    from repro.core.fields import ChecksumField
    from repro.core.machine import Machine
    from repro.core.packet import PacketSpec
    from repro.obs.metrics import Counter, Gauge, Histogram
    from repro.obs.trace import Tracer
    from repro.serve import manager as manager_mod
    from repro.serve.apps import APPS
    from repro.serve.manager import SessionManager
    from repro.serve.transport import UdpServeProtocol
    from repro.serve.wheel import TimerWheel

    tally = log.tally
    open_, close = log.open, log.close
    wait = selector.select

    def select(timeout: Any = None) -> Any:
        began = time.perf_counter()
        try:
            return wait(timeout)
        finally:
            tally["idle_s"] += time.perf_counter() - began

    selector.select = select

    def wrap_send(app: Any) -> None:
        if not getattr(app, "_perfbench_traced", False):
            app._send = log.wrap(app._send, "serve.transport.send")
            app._perfbench_traced = True

    # serve.transport: one datagram id per received datagram.
    received = log.wrap(
        UdpServeProtocol.datagram_received, "serve.transport.datagram_received"
    )

    def datagram_received(self: Any, data: bytes, addr: Any) -> None:
        log.datagrams += 1
        log.current = log.datagrams
        try:
            received(self, data, addr)
        finally:
            log.current = 0

    UdpServeProtocol.datagram_received = datagram_received  # type: ignore[assignment]

    # serve.manager: frame_from, renamed to "open" when it accepted.
    frame_from_orig = SessionManager.frame_from
    frame_from_id = log.name_id("serve.manager.frame_from")
    open_id = log.name_id("serve.manager.open")
    end = log.end

    def frame_from(self: Any, peer: Any, data: bytes, send: Any) -> Any:
        opened = self.opened_total
        index = open_(frame_from_id)
        try:
            admission = frame_from_orig(self, peer, data, send)
        finally:
            close(index)
        if self.opened_total != opened:
            log.name[index] = open_id
            wrap_send(admission.session.app)
        if admission.accepted:
            log.pending[id(data)] = (log.current, end[index])
        return admission

    SessionManager.frame_from = frame_from  # type: ignore[assignment]
    SessionManager.close = log.wrap(SessionManager.close, "serve.manager.close")

    # serve.apps: on_frame, carrying the datagram id across the queue.
    on_frame_id = log.name_id("serve.apps.on_frame")
    start = log.start

    def traced_on_frame(orig: Callable) -> Callable:
        def on_frame(self: Any, data: bytes) -> None:
            entry = log.pending.pop(id(data), None)
            if entry is not None:
                log.current = entry[0]
            index = open_(on_frame_id)
            if entry is not None:
                tally["serve.manager.queue_wait_s"] += start[index] - entry[1]
                tally["serve.manager.queue_waits"] += 1
            try:
                orig(self, data)
            finally:
                close(index)
                log.current = 0

        return on_frame

    specs = []
    for app_cls in APPS.values():
        app_cls.on_frame = traced_on_frame(app_cls.__dict__["on_frame"])
        specs.extend(app_cls.specs)
    for manager in managers:
        for session in manager.sessions.values():
            wrap_send(session.app)

    # core.packet, with the reject tally on try_parse.
    try_parse_orig = log.wrap(PacketSpec.try_parse, "core.packet.try_parse")

    def try_parse(self: Any, data: bytes) -> Any:
        result = try_parse_orig(self, data)
        tally["core.packet.parses"] += 1
        if result is None:
            tally["core.packet.rejects"] += 1
        return result

    PacketSpec.try_parse = try_parse  # type: ignore[assignment]
    for method in ("decode", "verify", "make", "encode"):
        setattr(PacketSpec, method,
                log.wrap(getattr(PacketSpec, method), f"core.packet.{method}"))

    # wire.checksums: the algorithm each served spec's checksum field holds.
    for spec in {id(s): s for s in specs}.values():
        for field in spec.fields:
            if isinstance(field, ChecksumField):
                compute = log.wrap(field.algorithm.compute, "wire.checksums.compute")

                def counted(data: bytes, _compute: Callable = compute) -> int:
                    tally["wire.checksums.bytes"] += len(data)
                    return _compute(data)

                field.algorithm = field.algorithm._replace(compute=counted)

    # core.machine, with the hit tally on try_exec.
    try_exec_orig = log.wrap(Machine.try_exec, "core.machine.try_exec")

    def try_exec(self: Any, *args: Any, **kwargs: Any) -> Any:
        result = try_exec_orig(self, *args, **kwargs)
        tally["core.machine.probes"] += 1
        if result is not None:
            tally["core.machine.hits"] += 1
        return result

    Machine.try_exec = try_exec  # type: ignore[assignment]
    Machine.exec_trans = log.wrap(Machine.exec_trans, "core.machine.exec_trans")

    # fastpath: the accept-time warm-up the manager calls by name.
    manager_mod.active_state = log.wrap(
        manager_mod.active_state, "fastpath.active_state"
    )

    for method in ("schedule", "cancel", "advance"):
        setattr(TimerWheel, method,
                log.wrap(getattr(TimerWheel, method), f"serve.wheel.{method}"))

    # obs: span open/close and every metric update.
    Tracer.span = log.wrap(Tracer.span, "obs.span")
    Tracer._close = log.wrap(Tracer._close, "obs.span_close")
    Counter.inc = log.wrap(Counter.inc, "obs.metric")
    Gauge.set = log.wrap(Gauge.set, "obs.metric")
    Gauge.inc = log.wrap(Gauge.inc, "obs.metric")
    Histogram.observe = log.wrap(Histogram.observe, "obs.metric")


def install_megasim(log: SpanLog, engine: Any) -> None:
    """Wrap ``ShardEngine.step``, ``Workload.plan`` and ``engine.route``."""
    from repro.megasim import engine as engine_mod

    engine_mod.ShardEngine.step = log.wrap(
        engine_mod.ShardEngine.step, "megasim.step"
    )
    workload_cls = type(engine.workload)
    workload_cls.plan = log.wrap(workload_cls.plan, "megasim.plan")
    engine_mod.route = log.wrap(engine_mod.route, "megasim.route")
