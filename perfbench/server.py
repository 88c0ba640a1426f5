"""The served side of a socket workload, in its own process.

Starts ``repro.serve``'s UDP :class:`~repro.serve.transport.Server` for
one workload, prints ``{"port": N}`` on stdout once bound, then takes
one JSON command per line on stdin and answers each with one JSON line:

* ``{"cmd": "trace", "path": P}`` — install the span wrappers of
  :mod:`benchtrace`; spans are written to ``P`` at the next report;
* ``{"cmd": "calibrate"}`` — take one :func:`hostspeed.reading` of the
  host's speed and answer it in ms;
* ``{"cmd": "report"}`` — session digests, manager counters, fastpath
  counters, CPU time and peak RSS of this process;
* ``{"cmd": "quit"}`` — close the server and exit.

Usage (normally started by ``run.py``)::

    python3 perfbench/server.py --workload arq-small --seed 1
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import benchtrace  # noqa: E402
import hostspeed  # noqa: E402
from benchframes import HANDSHAKE_MAX_SESSIONS, SLIDING_WINDOW  # noqa: E402

#: Per workload: the served protocol, its app parameters, whether obs is
#: armed (as an operator runs it) and the session bound.
PROFILES: Dict[str, Dict[str, Any]] = {
    "sliding-bulk": {"protocol": "sliding", "params": {"window": SLIDING_WINDOW},
                     "obs": False, "max_sessions": 1024},
    "arq-small": {"protocol": "arq", "params": {}, "obs": True,
                  "max_sessions": 1024},
    "handshake-churn": {"protocol": "handshake", "params": {}, "obs": False,
                        "max_sessions": HANDSHAKE_MAX_SESSIONS},
}


class Control:
    """Line-oriented JSON commands on stdin, answers on stdout."""

    def __init__(self, server: Any, profile: Dict[str, Any]) -> None:
        self.server = server
        self.profile = profile
        self.done = asyncio.get_running_loop().create_future()
        self.log: Optional[benchtrace.SpanLog] = None
        self.trace_path = ""
        self.trace_stats: Dict[str, int] = {}
        self.trace_started = 0.0
        self._buffer = b""

    def readable(self) -> None:
        chunk = os.read(sys.stdin.fileno(), 65536)
        if not chunk:  # the generator went away
            if not self.done.done():
                self.done.set_result(None)
            return
        self._buffer += chunk
        while b"\n" in self._buffer:
            line, self._buffer = self._buffer.split(b"\n", 1)
            self.handle(json.loads(line))

    def answer(self, message: Dict[str, Any]) -> None:
        sys.stdout.write(json.dumps(message) + "\n")
        sys.stdout.flush()

    def handle(self, command: Dict[str, Any]) -> None:
        cmd = command["cmd"]
        if cmd == "trace":
            self.log = benchtrace.SpanLog()
            self.trace_path = command["path"]
            self.trace_stats = dict(self.server.manager.stats())
            self.trace_started = time.perf_counter()
            benchtrace.install_serve(
                self.log, self.server.managers, self.server.loop._selector
            )
            self.answer({"ok": True})
        elif cmd == "calibrate":
            self.answer({"ms": hostspeed.reading()})
        elif cmd == "report":
            self.answer(self.report())
        elif cmd == "quit":
            self.answer({"ok": True})
            if not self.done.done():
                self.done.set_result(None)
        else:
            self.answer({"error": f"unknown command {cmd!r}"})

    def report(self) -> Dict[str, Any]:
        from repro.fastpath import cache
        from repro.fastpath.cache import active_state

        manager = self.server.manager
        sessions: List[Dict[str, Any]] = []
        states: Dict[str, int] = {}
        for peer, session in manager.sessions.items():
            app = session.app
            if self.profile["protocol"] == "handshake":
                state = "Established" if app.established else repr(app.machine.current)
                states[state] = states.get(state, 0) + 1
                continue
            digest = hashlib.sha256()
            for payload in app.delivered:
                digest.update(payload)
            sessions.append({
                "port": peer[1],
                "delivered": len(app.delivered),
                "digest": digest.hexdigest(),
                "rejected": app.rejected,
                "frames_in": app.frames_in,
            })
        specs = manager.app_cls.specs
        interpreted = sum(1 for spec in specs if active_state(spec) is None)
        report = {
            "stats": manager.stats(),
            "sessions": sessions,
            "states": states,
            "fastpath": cache.stats(),
            "interpreted_specs": interpreted,
            "served_specs": len(specs),
            "peak_rss_kb": hostspeed.peak_rss_kb(),
        }
        if self.log is not None:
            before = self.trace_stats
            after = manager.stats()
            self.log.save(self.trace_path, {
                "wall_s": time.perf_counter() - self.trace_started,
                "shed": after["shed"] - before["shed"],
                "queue_drops": after["queue_drops"] - before["queue_drops"],
            })
            report["trace_path"] = self.trace_path
        return report


async def serve(workload: str, seed: int) -> None:
    from repro.obs.instrument import enable
    from repro.serve.transport import ServeConfig, Server

    profile = PROFILES[workload]
    if profile["obs"]:
        enable()
    server = await Server.start(ServeConfig(
        protocol=profile["protocol"],
        host="127.0.0.1",
        port=0,
        kind="udp",
        max_sessions=profile["max_sessions"],
        idle_timeout=3600.0,  # no idle reaping inside a run
        seed=seed,
        app_params=profile["params"],
    ))
    loop = asyncio.get_running_loop()
    control = Control(server, profile)
    loop.add_reader(sys.stdin.fileno(), control.readable)
    control.answer({"port": server.udp_port})
    try:
        await control.done
    finally:
        loop.remove_reader(sys.stdin.fileno())
        await server.close()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PROFILES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cpu", type=int, default=None,
                        help="pin this process to one CPU")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    asyncio.run(serve(args.workload, args.seed))


if __name__ == "__main__":
    main()
