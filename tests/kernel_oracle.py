"""Reference event kernel: every delivery goes through one heap.

The kernel puts a zero-delay delivery on a FIFO of same-instant events and
takes the heap's top first while it is at the current instant. This oracle
keeps the kernel it had before that: each delivery, zero-delay or not, is
pushed on one heap of (at, seq, payload) tuples and popped from it, so (at,
seq) order holds by construction. Its interface is the kernel's: it records
each delivered event and hands the payload to the handler of the receiver
its type declares. A run on ``Kernel`` must deliver the same payloads in the
same order as a run on ``HeapKernel``, record the same events, and return
the same time.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from mobsig.simkernel import ConfigurationError, SimEvent, SimTime, TraceRecorder


class _Call:
    def __init__(self, fn: Callable[[], None], owner: str) -> None:
        self.fn = fn
        self._ends = (owner, owner)


class HeapKernel:
    """The kernel's public interface, on one heap."""

    def __init__(self, recorder: TraceRecorder) -> None:
        self.now: SimTime = 0
        self._seq = 0
        self._queue: list[SimEvent] = []
        self._handlers: dict[str, Callable[[Any], None]] = {}
        self.recorder = recorder

    def register(self, fe_id: str, handler: Callable[[Any], None]) -> None:
        self._handlers[fe_id] = handler

    def schedule(self, delay_us: int, payload: Any) -> None:
        if delay_us < 0:
            raise ConfigurationError(f"negative delay: {delay_us}")
        receiver = payload._ends[1]
        if receiver not in self._handlers:
            raise ConfigurationError(f"unknown receiver FE: {receiver!r}")
        self._seq += 1
        heapq.heappush(self._queue, (self.now + delay_us, self._seq, payload))

    def call_later(self, delay_us: int, fn: Callable[[], None], owner: str) -> None:
        self.schedule(delay_us, _Call(fn, owner))

    def run_until_quiescent(self) -> SimTime:
        last: SimTime = 0
        while self._queue:
            event = heapq.heappop(self._queue)
            self.now = last = event[0]
            payload = event[2]
            if isinstance(payload, _Call):
                payload.fn()
            else:
                self.recorder.on_delivery(event)
                self._handlers[payload._ends[1]](payload)
        return last
