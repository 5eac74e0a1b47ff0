"""Opt-in accounting of the library's large array allocations.

The out-of-core code path promises that no single dense buffer it creates
exceeds one row block plus the stacked sketch. Allocation sites of
block-scale buffers call `note(nbytes)` before allocating; inside a
`session(...)` context those sizes are recorded (largest wins) and, when a
cap is set, oversized requests raise MemoryCapExceeded instead of
allocating. Outside a session `note` is free.

The guard covers buffers this library allocates deliberately, not numpy's
internal temporaries; the blocked routines are written so those stay at or
below block scale as well.

`stage` is the one wall-clock timer of the library and the CLI.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from .errors import MemoryCapExceeded

_session = None


class Session:
    def __init__(self, cap_bytes: int | None):
        self.cap_bytes = cap_bytes
        self.largest_bytes = 0
        self.count = 0

    def note(self, nbytes: int) -> None:
        self.count += 1
        if nbytes > self.largest_bytes:
            self.largest_bytes = nbytes
        if self.cap_bytes is not None and nbytes > self.cap_bytes:
            raise MemoryCapExceeded(
                f"allocation of {nbytes} bytes exceeds the {self.cap_bytes}-byte cap"
            )


def note(nbytes: int) -> None:
    if _session is not None:
        _session.note(int(nbytes))


@contextmanager
def session(cap_bytes: int | None = None):
    """Track (and optionally cap) the library's buffer allocations."""
    global _session
    previous = _session
    current = Session(cap_bytes)
    _session = current
    try:
        yield current
    finally:
        _session = previous


@contextmanager
def stage(timings: dict, name: str):
    """Record the wall time of the `with` body in timings[name] (seconds)."""
    start = time.perf_counter()
    yield
    timings[name] = time.perf_counter() - start
