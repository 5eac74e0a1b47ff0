"""Opt-in accounting of the library's large array allocations.

The out-of-core code path promises that no single dense buffer it creates
exceeds one row block or the sketch's one n x l basis. Allocation sites of
block-scale buffers call `note(nbytes)` before allocating; inside a
`session(...)` context those sizes are recorded (largest wins) and, when a
cap is set, oversized requests raise MemoryCapExceeded instead of
allocating. Outside a session `note` is free.

The guard covers buffers this library allocates deliberately, not numpy's
internal temporaries; the blocked routines are written so those stay at or
below block scale as well. Each method's one n-row basis is charged in
full, although it lives in a map of its own (`blocked.empty_basis`) that
the mode lift hands back chunk by chunk as it writes the modes: the modes
replace the basis, so a run's resident set is the imports, one chunk of at
most 32 MiB, the basis and the m x l blocks at any width, and no single
buffer outgrows the larger of basis and modes.

The open session is context-local (a `contextvars.ContextVar`): a session
opened in one thread or asyncio task is not seen by `note` in another, and
nested sessions restore the outer one on exit.

`stage` is the one wall-clock timer of the library and the CLI.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar

from .errors import MemoryCapExceeded


class Session:
    def __init__(self, cap_bytes: int | None):
        self.cap_bytes = cap_bytes
        self.largest_bytes = 0

    def note(self, nbytes: int) -> None:
        if nbytes > self.largest_bytes:
            self.largest_bytes = nbytes
        if self.cap_bytes is not None and nbytes > self.cap_bytes:
            raise MemoryCapExceeded(
                f"allocation of {nbytes} bytes exceeds the {self.cap_bytes}-byte cap"
            )


_session: ContextVar[Session | None] = ContextVar("rdmd_memguard_session", default=None)


def note(nbytes: int) -> None:
    current = _session.get()
    if current is not None:
        current.note(int(nbytes))


@contextmanager
def session(cap_bytes: int | None = None):
    """Track (and optionally cap) the library's buffer allocations."""
    current = Session(cap_bytes)
    token = _session.set(current)
    try:
        yield current
    finally:
        _session.reset(token)


@contextmanager
def stage(timings: dict, name: str):
    """Record the wall time of the `with` body in timings[name] (seconds)."""
    start = time.perf_counter()
    yield
    timings[name] = time.perf_counter() - start
