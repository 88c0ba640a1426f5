"""The megasim-olsr workload, in its own process.

Builds one :class:`~repro.megasim.engine.ShardEngine` over every machine
(``--setups`` times, each timed between two host readings), steps it
epoch by epoch with ``engine.route`` as the barrier for ``--seconds``
(untraced, with a :mod:`hostspeed` reading after each epoch), and checks
the per-epoch transcript lines against ``run_serial`` at the same seed.
With ``--trace 1`` the first half runs untraced and the second half
with span wrappers on ``ShardEngine.step``, ``Workload.plan`` and
``engine.route``, and a reading is taken after each half.  Prints one
JSON line.

Usage (normally started by ``run.py``)::

    python3 perfbench/simworker.py --seed 1 --seconds 10
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import benchtrace  # noqa: E402
import hostspeed  # noqa: E402
from benchframes import MEGASIM_MACHINES  # noqa: E402

#: Epoch bound in the run's config; a run stops on time long before it.
EPOCH_CAP = 1 << 30


class Stepper:
    """One engine over the whole population, advanced epoch by epoch."""

    def __init__(self, engine: Any, machines: int) -> None:
        from repro.megasim import engine as engine_mod

        self.engine_mod = engine_mod
        self.engine = engine
        self.bounds = [(0, machines)]
        self.inbox: List[Any] = []
        self.epoch = 0
        self.lines: List[str] = []

    def run(self, seconds: float, readings: bool = False) -> Dict[str, Any]:
        """Step for ``seconds``; with ``readings``, read the host's speed
        after every epoch, outside the epoch's time."""
        started = time.perf_counter()
        deadline = started + seconds
        events = 0
        epoch_us: List[float] = []
        epoch_events: List[int] = []
        host_ms: List[float] = []
        while not epoch_us or time.perf_counter() < deadline:
            began = time.perf_counter()
            result = self.engine.step(self.epoch, self.inbox)
            self.inbox = self.engine_mod.route(result.outbox, self.bounds)[0]
            epoch_us.append((time.perf_counter() - began) * 1e6)
            self.lines.append(
                f"epoch={self.epoch} fired={result.fired} "
                f"msgs={result.emitted} digest={result.digest:016x}"
            )
            events += result.fired
            epoch_events.append(result.fired)
            self.epoch += 1
            if readings:
                host_ms.append(hostspeed.reading())
        return {"events": events, "seconds": time.perf_counter() - started,
                "epoch_us": epoch_us, "epoch_events": epoch_events, "host_ms": host_ms}


def per_layer(log: benchtrace.SpanLog, traced: Dict[str, Any], path: str) -> Dict[str, float]:
    log.save(path, {})
    header, columns = benchtrace.load(path)
    summary = benchtrace.analyze(header, columns)
    per = summary["per"]
    epochs = len(traced["epoch_us"])
    events = max(1, traced["events"])

    def self_s(name: str) -> float:
        return per.get(name, [0, 0.0, 0.0])[2]

    layer_self = sum(self_s(n) for n in ("megasim.step", "megasim.plan", "megasim.route"))
    return {
        "megasim.step_us": self_s("megasim.step") * 1e6 / epochs,
        "megasim.plan_us": self_s("megasim.plan") * 1e6 / epochs,
        "megasim.route_us": self_s("megasim.route") * 1e6 / epochs,
        "megasim.events_per_epoch": traced["events"] / epochs,
        "megasim.self_us": layer_self * 1e6 / events,
        "unattributed_frac": max(0.0, traced["seconds"] - summary["root_s"])
        / traced["seconds"],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setups", type=int, default=3)
    args = parser.parse_args()

    from repro.megasim import RunConfig, ShardEngine, run_serial

    machines = MEGASIM_MACHINES
    config = RunConfig("olsr", machines, EPOCH_CAP, args.seed)
    setups: List[Tuple[float, float]] = []  # (seconds, mean host reading ms)
    engine = None
    for _ in range(args.setups):
        engine = None
        gc.collect()
        before = hostspeed.reading()
        started = time.perf_counter()
        engine = ShardEngine(config, 0, machines)
        seconds = time.perf_counter() - started
        setups.append((seconds, (before + hostspeed.reading()) / 2.0))
    stepper = Stepper(engine, machines)
    out: Dict[str, Any] = {"machines": machines, "setups": setups}
    if args.trace:
        out["untraced"] = stepper.run(args.seconds / 2.0)
        out["host_ms"] = [hostspeed.reading()]
        log = benchtrace.SpanLog()
        benchtrace.install_megasim(log, engine)
        out["traced"] = stepper.run(args.seconds / 2.0)
        out["host_ms"].append(hostspeed.reading())
        path = os.path.join(os.path.dirname(HERE), ".perfbench_out",
                            "spans-megasim-olsr.json")
        out["per_layer"] = per_layer(log, out["traced"], path)
    else:
        out["timed"] = stepper.run(args.seconds, readings=True)
    out["peak_rss_kb"] = hostspeed.peak_rss_kb()
    out["epochs"] = stepper.epoch

    lines = stepper.lines
    del engine, stepper
    gc.collect()
    oracle = run_serial(RunConfig("olsr", machines, len(lines), args.seed))
    expected = oracle.lines[1:]  # line 0 is the header
    out["mismatched_epochs"] = sum(1 for a, b in zip(lines, expected) if a != b) + abs(
        len(lines) - len(expected))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
