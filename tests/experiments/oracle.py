"""The event-accurate reference simulator, as a test fixture.

The simulator has one mode.  Each fast site in the data plane (DESIGN.md
§11) is guarded by its own eligibility predicate and takes a
per-operation fallback when the predicate fails: a queued
``Resource.request`` (grant-and-hold where the hold is known), a
``ConnectionPool.acquire`` event, separate CPU bursts instead of a
segmented hold, one TCP segment per MSS fragment.

:func:`forced_fallback` makes every predicate fail for the duration of a
``with`` block, so a run inside it takes every fallback -- the
event-by-event path.  The equivalence tests run a scenario plainly and
again under the fixture and compare the simulated observables byte for
byte.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

from repro.core import ConnectionPool
from repro.net import TcpSocket
from repro.sim import Resource, Simulator


def _send_per_fragment(self: TcpSocket, payload, nbytes: int,
                       mss: int = 1460) -> int:
    """``TcpSocket.send_data`` one segment per MSS fragment.

    Only the final segment carries ``payload``, as in the aggregated
    form; returns the segment count.
    """
    if mss <= 0:
        raise ValueError("mss must be positive")
    if nbytes <= 0:
        raise ValueError("nbytes must be positive")
    full, rest = divmod(nbytes, mss)
    sizes = [mss] * full + ([rest] if rest else [])
    for size in sizes[:-1]:
        self.send(None, size)
    self.send(payload, sizes[-1])
    return len(sizes)


#: (owner, attribute, replacement) for every fast-site predicate
_PATCHES = (
    (Resource, "try_acquire", lambda self: None),
    (Resource, "can_acquire", property(lambda self: False)),
    (ConnectionPool, "try_acquire", lambda self: None),
    (Simulator, "fits_horizon", lambda self, delay: False),
    (TcpSocket, "send_data", _send_per_fragment),
)


@contextlib.contextmanager
def forced_fallback() -> Iterator[None]:
    """Run the enclosed block on every fast site's fallback path."""
    saved = [(owner, name, owner.__dict__[name])
             for owner, name, _ in _PATCHES]
    for owner, name, replacement in _PATCHES:
        setattr(owner, name, replacement)
    try:
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)
