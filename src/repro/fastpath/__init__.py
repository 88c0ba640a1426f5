"""repro.fastpath — the transparent compiled codec tier.

The paper's §5 position is that implementations *generated from* the DSL
spec are correct by construction; ``core.compile`` builds those
generated codecs, and this package makes the runtime actually use them.
Every ``encode_verbatim``/``decode_packet``/``compute_checksums`` call
consults a process-wide :class:`FastPath` policy: specs warm up
interpreted, compile once (shared by structural fingerprint), and run at
generated-code speed — with the interpreter retained as the semantic
oracle.  A compiled closure that errors where the interpreter succeeds,
or (under ``verify=True``) produces different bytes, *demotes* its spec
back to the interpreter and counts a ``fastpath.divergences`` metric.

Layout
------
``policy``
    The :class:`FastPath` dataclass and the process-wide current policy
    (``REPRO_FASTPATH`` env var, ``configure``/``use`` helpers).
``fingerprint``
    Structural spec fingerprints — the compiled-cache key.
``cache``
    Per-spec tier state, the fingerprint-keyed codec cache, demotion.
``batch``
    ``encode_many``/``decode_many`` — per-call overhead amortized over a
    batch, always in the calling process (imported lazily: it pulls in
    the full ``repro.core``).
"""

from __future__ import annotations

from typing import Any

from repro.fastpath.cache import (
    SpecState,
    active_state,
    demote,
    reset,
    state_of,
    stats,
)
from repro.fastpath.policy import (
    FastPath,
    configure,
    get_policy,
    set_policy,
    use,
)

__all__ = [
    "FastPath",
    "get_policy",
    "set_policy",
    "configure",
    "use",
    "SpecState",
    "active_state",
    "state_of",
    "demote",
    "stats",
    "reset",
    "encode_many",
    "decode_many",
]


def __getattr__(name: str) -> Any:
    # ``batch`` imports repro.core; defer it so importing this package
    # stays cheap and cycle-free from within core.codec.  import_module
    # (not ``from ... import``) — the latter re-enters this __getattr__
    # while the submodule is still absent and recurses.
    if name in ("encode_many", "decode_many", "batch"):
        import importlib

        batch = importlib.import_module("repro.fastpath.batch")
        return batch if name == "batch" else getattr(batch, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
