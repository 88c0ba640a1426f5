"""A reading of the host's speed: two fixed pure-Python loops.

On a shared host the CPU's speed drifts by half or more over seconds to
minutes, and a pure-Python program slows down with it.  The benchmark
takes a reading between the slices of its timed window, in every process
that does the measured work, and scales the measured rate by it: the
result is the rate on a host where a reading takes ``REF_MS``.  Each
set-up is scaled the same way, by readings just before and after it.

A reading is the time of an arithmetic loop plus the time of random byte
reads over a buffer larger than the per-core caches.  Neighbours on the
host slow the two by different amounts, and the measured code does both
kinds of work, so one loop alone under- or over-corrects.

Also here, for the two child processes: their high-water memory.
"""

from __future__ import annotations

import random
import resource
import time
from typing import List, Optional, Tuple

#: Iterations of the arithmetic loop.
LOOP = 100_000
#: Random reads per reading, and the buffer they read from.
WALK = 20_000
BUFFER = 64 << 20
#: A reading's time, in ms, on the reference host.
REF_MS = 15.0

_walk: Optional[Tuple[bytes, List[int]]] = None


def spin() -> float:
    """Milliseconds for ``LOOP`` iterations of a fixed arithmetic loop."""
    started = time.perf_counter()
    total = 0
    for value in range(LOOP):
        total += value * value
    return (time.perf_counter() - started) * 1000.0


def walk() -> float:
    """Milliseconds for ``WALK`` fixed random reads over ``BUFFER`` bytes
    (allocated on the first call)."""
    global _walk
    if _walk is None:
        rng = random.Random(0)
        _walk = (b"\x01" * BUFFER, [rng.randrange(BUFFER) for _ in range(WALK)])
    buffer, offsets = _walk
    started = time.perf_counter()
    total = 0
    for offset in offsets:
        total += buffer[offset]
    return (time.perf_counter() - started) * 1000.0


def reading() -> float:
    """One reading of the host's speed, in ms."""
    return spin() + walk()


def peak_rss_kb() -> int:
    """High-water resident memory of this process, in KiB, less the
    readings' buffer once :func:`walk` holds it (to exit).

    ``VmHWM`` where Linux has it: ``ru_maxrss`` survives ``exec`` and so
    can report the memory of the process that spawned this one.
    """
    held = 0 if _walk is None else BUFFER // 1024
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) - held
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - held
