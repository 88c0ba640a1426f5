"""``repro.parallel`` — a forked-worker pool for coarse work units.

A :class:`~repro.parallel.pool.ShardedPool` runs deterministic
``(target, kwargs)`` call units — a dotted function name plus picklable
arguments — across forked workers and returns their results in input
order.  Two callers use it, each opening its own pool and closing it
when done: parallel conformance (:mod:`repro.parallel.confrun`, one
fuzz/differential/machine unit per call) and megasim shards
(:mod:`repro.megasim.shard`).  Both produce output byte-identical to
their serial runs.

Nothing else forks: the codec tiers, batch APIs included, always run
in-process.  Sharding per-packet codec work lost to the in-process
batch loop on every spec measured, because pickling and queue hops cost
more than the work they carried (EXPERIMENTS.md E16).  See DESIGN.md.
"""

from __future__ import annotations

from repro.parallel.pool import CallError, ParallelFallback, ShardedPool

__all__ = ["CallError", "ParallelFallback", "ShardedPool"]
