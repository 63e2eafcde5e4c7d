"""Deterministic discrete-event kernel: clock, queue, handler registry, trace recording.

A delivery is its payload: an event is an ``(at, seq, payload)`` tuple, the
payload's type holds its ends (``core.ENDS``), and a handler takes the
payload. Time is an integer microsecond count. Events are processed in (at,
seq) order where seq is a global insertion counter, so same-instant
deliveries happen in scheduling order and a run is fully reproducible.

Most deliveries are same-instant hops between the entities of one node, so a
zero-delay event skips the heap: it goes on a FIFO of events at the current
instant. An event on the heap at that instant was scheduled at an earlier
one, so its seq is lower than any on the FIFO, and the loop takes the heap's
top first while it is at the current instant; the (at, seq) order is the
same as with one heap.
"""

from __future__ import annotations

import gc
import heapq
import json
from collections import deque
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Any, Callable

from .core import Payload, text_renderer

SimTime = int  # microseconds

TRACE_FIELDS = ("t", "from", "to", "msg", "params")
_TRACE_KEYS = frozenset(TRACE_FIELDS)

# Records that TraceRecorder.write renders and writes at a time.
_WRITE_CHUNK_RECORDS = 4096


@contextmanager
def without_cyclic_gc() -> Iterator[None]:
    """Hold CPython's cyclic garbage collector off for the block, then restore it.

    The code that makes trace-sized data runs under it: a run's loop, the
    trace reader and ``trace_records``. Each makes tens of thousands of containers
    that hold no reference cycle, so reference counting frees them, and every
    collection their allocations would trigger walks them all and finds
    nothing. A collector that was off before the block stays off after it,
    and one that was on is on again, also when the block raises. Its
    allocation count is not reset, so the first container allocated after
    the block starts one young-generation pass over what the block kept.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class ConfigurationError(RuntimeError):
    """Raised when the simulation is wired incorrectly (e.g. unknown receiver)."""


class SimulationError(RuntimeError):
    """Raised when an event handler fails; names the offending delivery."""


# One scheduled delivery or recorded annotation: (at, seq, payload). The queue
# orders events as tuples; seq is unique, so two never compare their payloads.
SimEvent = tuple[SimTime, int, Any]


@dataclass(slots=True)
class TraceRecord:
    """One timestamped message occurrence: a row of a ``Trace``, built when the
    row is read, or a line read by ``from_json``.

    ``params`` may be shared with other records and is read-only: a recorded
    one with the records of the same payload, a parsed
    one with every record of the trace whose params tail, the text after
    ``,"params":`` to the line end, is equal (see ``conformance.parse_trace``),
    so equal params texts before different trailing whitespace give equal,
    distinct dicts. A parsed record also shares its ``sender``,
    ``receiver`` and ``name`` strings with every record of equal head, and
    each params key string with every equal key of the trace.
    """

    at: SimTime
    sender: str
    receiver: str
    name: str
    params: dict[str, Any]
    line: int | None = None  # 1-based source line when parsed from a file

    @classmethod
    def from_json(cls, line: str, lineno: int | None = None) -> "TraceRecord":
        try:
            obj = json.loads(line)
        except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
            raise ValueError(f"line {lineno}: not valid JSON: {exc}") from None
        except RecursionError:
            raise ValueError(f"line {lineno}: params nested too deeply") from None
        if not isinstance(obj, dict) or obj.keys() != _TRACE_KEYS:
            raise ValueError(f"line {lineno}: trace records need exactly fields {TRACE_FIELDS}")
        # json.loads yields exact built-in types, so `type(...) is` also rejects
        # a boolean `t`, which isinstance(..., int) would let through.
        if type(obj["t"]) is not int:
            raise ValueError(f"line {lineno}: field 't' must be an integer")
        for field in ("from", "to", "msg"):
            if type(obj[field]) is not str:
                raise ValueError(f"line {lineno}: field '{field}' must be a string")
        if not isinstance(obj["params"], dict):
            raise ValueError(f"line {lineno}: field 'params' must be an object")
        return cls(obj["t"], obj["from"], obj["to"], obj["msg"], obj["params"], lineno)


# A record's head: its (sender, receiver, name).
Head = tuple[str, str, str]


class Trace(Sequence[TraceRecord]):
    """A trace in memory, one list per field: each record's ``t``, its head,
    its params dict and its line number (None for a recorded one).

    The lists hold what readers and ``trace_records`` share, so a record adds
    a pointer to each and no object of its own: one head tuple per distinct
    head, the params dicts ``TraceRecord`` describes, and for a parsed trace
    with no blank line a ``range`` for its line numbers. ``len``, indexing
    and iteration give ``TraceRecord`` rows, each built when it is read, and
    ``rows`` gives every record's (t, head, params) without building one.
    """

    __slots__ = ("_at", "_heads", "_params", "_lines")

    def __init__(self, at: list[SimTime], heads: list[Head], params: list[dict[str, Any]],
                 lines: Sequence[int | None]) -> None:
        self._at, self._heads, self._params, self._lines = at, heads, params, lines

    def __len__(self) -> int:
        return len(self._at)

    def __getitem__(self, index: int) -> TraceRecord:
        sender, receiver, name = self._heads[index]
        return TraceRecord(self._at[index], sender, receiver, name, self._params[index],
                           self._lines[index])

    def rows(self) -> Iterator[tuple[SimTime, Head, dict[str, Any]]]:
        """Each record's (t, head, params), in trace order."""
        return zip(self._at, self._heads, self._params)


def trace_records(events: list[SimEvent]) -> Trace:
    """The trace of the recorded events, with each payload's params dict.

    Each distinct payload renders its params once, here or before, and its
    records share them; the records of one payload type share its head.
    """
    at_column, heads, params_column = [], [], []
    heads_by_kind: dict[type, Head] = {}
    with without_cyclic_gc():
        for at, _seq, payload in events:
            # A payload's params memo; params() is called only to render them.
            params = payload._params
            if params is None:
                params = payload.params()
            kind = type(payload)
            head = heads_by_kind.get(kind)
            if head is None:
                head = heads_by_kind[kind] = (*kind._ends, kind.__name__)
            at_column.append(at)
            heads.append(head)
            params_column.append(params)
    return Trace(at_column, heads, params_column, [None] * len(at_column))


class TraceRecorder:
    """Keeps the delivered events and the annotations in trace order, and
    writes them as JSON lines.

    A delivery is recorded as the event the kernel loop holds, and an
    annotation (``Kernel.annotate``) as one with seq 0, so nothing is
    rendered while the simulation runs. Entities send a recurring answer (one
    answer to the flows of a scan tick, or one flow's unchanged request on
    later ticks) as the same payload, and ``lines`` renders each distinct
    payload once, from its type (see ``core.text_renderer``). ``write``
    streams: it holds the lines of one chunk of events at a time, and keeps
    the rendered texts across its chunks.
    """

    def __init__(self) -> None:
        self.events: list[SimEvent] = []

    def on_delivery(self, event: SimEvent) -> None:
        self.events.append(event)

    def lines(self, start: int, stop: int, rendered: _Rendered) -> list[str]:
        """One JSON line per event of ``events[start:stop]``; each distinct
        payload is rendered once.

        ``rendered`` holds what is rendered and is filled as it goes; ``write``
        passes the same one to its calls for one trace, to render each payload
        once across them. It keys each payload's text, from its head on, by
        the payload's id, which is valid only while the events keep every
        payload alive, so it must not outlive the calls it was made for. A
        line's head (from, to and msg) is its payload type's.
        """
        texts, kinds = rendered.texts, rendered.kinds
        lines = []
        append = lines.append
        last_at = None
        for at, _seq, payload in self.events[start:stop]:
            text = texts.get(id(payload))
            if text is None:
                kind = type(payload)
                entry = kinds.get(kind)
                if entry is None:
                    sender, receiver = kind._ends
                    entry = kinds[kind] = (
                        f'"from":{_encode_str(sender)},"to":{_encode_str(receiver)},'
                        f'"msg":{_encode_str(kind.__name__)},"params":',
                        text_renderer(kind),
                    )
                head, render = entry
                text = texts[id(payload)] = f"{head}{render(payload)}}}"
            # The events of one instant mostly share its int (see Kernel.schedule).
            if at is not last_at:
                last_at = at
                start_text = f'{{"t":{at},'
            append(start_text + text)
        return lines

    def write(self, path: str) -> None:
        """Write one line per event, each ending in LF on every platform.

        The events are rendered and written _WRITE_CHUNK_RECORDS at a time, one
        write call per chunk, with one set of rendered texts across the chunks,
        so the text of the whole file is never held.
        """
        rendered = _Rendered()
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for start in range(0, len(self.events), _WRITE_CHUNK_RECORDS):
                fh.write("\n".join(self.lines(start, start + _WRITE_CHUNK_RECORDS, rendered)) + "\n")


class _Rendered:
    """What the ``lines`` calls for one trace share: each payload's text from
    its head on, by the payload's id, and each payload type's head and params
    renderer."""

    def __init__(self) -> None:
        self.texts: dict[int, str] = {}
        self.kinds: dict[type, tuple[str, Callable[[Any], str]]] = {}


@dataclass(eq=False, repr=False)
class _Call:
    """Internal deferred function call; executes at delivery, never traced."""

    fn: Callable[[], None]
    _ends: tuple[str, str]  # (owner, owner)


class Kernel:
    """Event queue plus the FE registry; owns the clock.

    ``now`` is the current instant, a plain attribute that the loop updates
    and everyone else only reads; it is a delivery's time when its handler runs.
    """

    def __init__(self, recorder: TraceRecorder) -> None:
        self.now: SimTime = 0
        self._seq = 0
        self._queue: list[SimEvent] = []  # a heap of later deliveries
        self._ready: deque[SimEvent] = deque()  # zero-delay deliveries, at now
        self._handlers: dict[str, Callable[[Any], None]] = {}
        self.recorder = recorder

    def register(self, fe_id: str, handler: Callable[[Any], None]) -> None:
        self._handlers[fe_id] = handler

    def drop_handlers(self) -> None:
        """Forget every registered handler; the entities behind them hold this kernel."""
        self._handlers.clear()

    def schedule(self, delay_us: int, payload: Any) -> None:
        """Queue a delivery at now + delay_us between the ends ``core.ENDS``
        declares for the payload's type (a call's owner, twice); same-time
        events keep FIFO order."""
        if delay_us < 0:
            raise ConfigurationError(f"negative delay: {delay_us}")
        receiver = payload._ends[1]
        if receiver not in self._handlers:
            raise ConfigurationError(f"unknown receiver FE: {receiver!r}")
        self._seq = seq = self._seq + 1
        if delay_us:
            heapq.heappush(self._queue, (self.now + delay_us, seq, payload))
        else:
            # The clock's own int, not now + 0: one instant's records share it.
            self._ready.append((self.now, seq, payload))

    def annotate(self, payload: Payload) -> None:
        """Record an annotation (a set snapshot or a link state) now. It is
        recorded, not scheduled, so its seq is 0."""
        self.recorder.events.append((self.now, 0, payload))

    def call_later(self, delay_us: int, fn: Callable[[], None], owner: str) -> None:
        """Schedule an internal (untraced) call attributed to an FE."""
        self.schedule(delay_us, _Call(fn, (owner, owner)))

    def run_until_quiescent(self) -> SimTime:
        """Process events in (at, seq) order until the queue drains.

        Returns the time of the last processed event (0 if none).
        """
        last: SimTime = 0
        now = self.now
        queue, ready, handlers = self._queue, self._ready, self._handlers
        record = self.recorder.on_delivery
        with without_cyclic_gc():
            while True:
                if ready and not (queue and queue[0][0] == now):
                    event = ready.popleft()
                elif queue:
                    event = heapq.heappop(queue)
                    self.now = now = event[0]
                else:
                    return last
                last = now
                payload = event[2]
                try:
                    if type(payload) is _Call:
                        payload.fn()
                    else:
                        record(event)
                        handlers[payload._ends[1]](payload)
                except Exception as exc:
                    raise SimulationError(
                        f"handler failed at t={now} for "
                        f"{'->'.join(payload._ends)} {type(payload).__name__}: {exc}"
                    ) from exc
