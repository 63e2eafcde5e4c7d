"""Deterministic discrete-event kernel: clock, queue, handler registry, trace recording.

Time is an integer microsecond count. Events are processed in (at, seq) order
where seq is a global insertion counter, so same-instant deliveries happen in
scheduling order and a run is fully reproducible.

Most deliveries are same-instant hops between the entities of one node, so a
zero-delay event skips the heap: it goes on a FIFO of events at the current
instant. An event on the heap at that instant was scheduled at an earlier
one, so its seq is lower than any on the FIFO, and the loop takes the heap's
top first while it is at the current instant; the (at, seq) order is the
same as with one heap.
"""

from __future__ import annotations

import heapq
import json
from collections import deque
from dataclasses import dataclass
from json.encoder import c_make_encoder
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Any, Callable, NamedTuple

from .core import ENDS

SimTime = int  # microseconds

TRACE_FIELDS = ("t", "from", "to", "msg", "params")
_TRACE_KEYS = frozenset(TRACE_FIELDS)

_raise_unserializable = json.JSONEncoder().default

# Records that TraceRecorder.write encodes and writes at a time.
_WRITE_CHUNK_RECORDS = 4096


def _params_encoder() -> Callable[[Any, int], Any]:
    """A C encoder for json.dumps(..., sort_keys=True, separators=(",", ":")).

    json.dumps builds an encoder and then a C encoder per call; this builds the
    C encoder alone, to be used for as many values as its caller likes. Its
    markers dict keeps the circular-reference check (an encoding that ends
    removes its own marks), and the stock `default` raises the same TypeError
    for a value JSON cannot hold.
    """
    return c_make_encoder({}, _raise_unserializable, _encode_str, None, ":", ",",
                          True, False, True)


def _encode_params(params: dict[str, Any], encode: Callable[[Any, int], Any]) -> str:
    """json.dumps(params, sort_keys=True, separators=(",", ":")), with an
    encoder from _params_encoder."""
    return "".join(encode(params, 0))


class ConfigurationError(RuntimeError):
    """Raised when the simulation is wired incorrectly (e.g. unknown receiver)."""


class SimulationError(RuntimeError):
    """Raised when an event handler fails; names the offending delivery."""


class SimEvent(NamedTuple):
    """One scheduled delivery; the queue orders deliveries as tuples by (at, seq).

    seq is unique, so two events never compare their later fields.
    """

    at: SimTime
    seq: int
    sender: str
    receiver: str
    payload: Any


@dataclass(slots=True)
class TraceRecord:
    """One timestamped message occurrence, as written to the JSON-Lines trace.

    ``params`` may be shared with other records and is read-only: a recorded
    one with the records of the same answer (see ``TraceRecorder``), a parsed
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

    def to_json(self, params_json: str, head_json: str) -> str:
        """The same bytes as json.dumps(separators=(",", ":")) of the head, with
        params key-sorted; params_json is params already encoded that way, and
        head_json is ``head_json()`` of a record with an equal head.
        conformance.parse_trace reads lines in exactly this layout on a fast path."""
        return f'{{"t":{self.at},{head_json},"params":{params_json}}}'

    def head_json(self) -> str:
        """The from, to and msg fields of this record's line, as to_json lays them out."""
        return (
            f'"from":{_encode_str(self.sender)},"to":{_encode_str(self.receiver)},'
            f'"msg":{_encode_str(self.name)}'
        )

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


class TraceRecorder:
    """Collects TraceRecords in delivery order and serializes them.

    Entities send a recurring answer (one answer to the flows of a scan tick,
    or one flow's unchanged request on later ticks) as the same primitive, and
    a primitive renders its params once, so every record of that answer shares
    one params dict; ``lines`` encodes each shared dict once, and each distinct
    head (from, to and msg) once, with one C encoder. ``write`` streams: it
    holds the lines of one chunk of records at a time, and keeps those
    encodings and that encoder across its chunks.
    """

    def __init__(self) -> None:
        self.records: list[TraceRecord] = []

    def on_delivery(self, event: SimEvent) -> None:
        at, _seq, sender, receiver, payload = event
        # A primitive's params memo; params() is called only to render them.
        params = payload._params
        if params is None:
            params = payload.params()
        self.records.append(TraceRecord(at, sender, receiver, type(payload).__name__, params))

    def annotate(self, at: SimTime, name: str, params: dict[str, Any]) -> None:
        """Append a non-primitive annotation record (set snapshots, link state)
        between the ends ``core.ENDS`` declares for its name."""
        sender, receiver = ENDS[name]
        self.records.append(TraceRecord(at, sender, receiver, name, params))

    def lines(self, start: int, stop: int, encoded: _Encodings) -> list[str]:
        """One JSON line per record of ``records[start:stop]``; each distinct
        params object and each distinct head is encoded once.

        ``encoded`` holds the encodings and is filled as it goes; ``write``
        passes the same one to its calls for one trace, to encode each params
        object and head once across them. It keys params by their ids, which
        are valid only while the records keep every params object alive, so it
        must not outlive the calls it was made for.
        """
        encode, params_by_id, heads = encoded.encode, encoded.params, encoded.heads
        lines = []
        for record in self.records[start:stop]:
            params = record.params
            params_json = params_by_id.get(id(params))
            if params_json is None:
                params_json = params_by_id[id(params)] = _encode_params(params, encode)
            head = (record.sender, record.receiver, record.name)
            head_json = heads.get(head)
            if head_json is None:
                head_json = heads[head] = record.head_json()
            lines.append(record.to_json(params_json, head_json))
        return lines

    def write(self, path: str) -> None:
        """Write one line per record, each ending in LF on every platform.

        The records are encoded and written _WRITE_CHUNK_RECORDS at a time, one
        write call per chunk, with one set of encodings across the chunks, so
        the text of the whole file is never held.
        """
        encoded = _Encodings()
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for start in range(0, len(self.records), _WRITE_CHUNK_RECORDS):
                fh.write("\n".join(self.lines(start, start + _WRITE_CHUNK_RECORDS, encoded)) + "\n")


class _Encodings:
    """What the ``lines`` calls for one trace share: one params encoder, each
    params object's encoding by its id, and each head's encoding."""

    def __init__(self) -> None:
        self.encode = _params_encoder()
        self.params: dict[int, str] = {}
        self.heads: dict[tuple[str, str, str], str] = {}


@dataclass(eq=False, repr=False)
class _Call:
    """Internal deferred function call; executes at delivery, never traced."""

    fn: Callable[[], None]
    _ends: tuple[str, str]  # (owner, owner)


_new_event = tuple.__new__  # SimEvent's own __new__ is a Python-level call


class Kernel:
    """Event queue plus the FE registry; owns the clock.

    ``now`` is the current instant, a plain attribute that the loop updates
    and everyone else only reads.
    """

    def __init__(self, recorder: TraceRecorder) -> None:
        self.now: SimTime = 0
        self._seq = 0
        self._queue: list[SimEvent] = []  # a heap of later deliveries
        self._ready: deque[SimEvent] = deque()  # zero-delay deliveries, at now
        self._handlers: dict[str, Callable[[SimEvent], None]] = {}
        self.recorder = recorder

    def register(self, fe_id: str, handler: Callable[[SimEvent], None]) -> None:
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
        sender, receiver = payload._ends
        if receiver not in self._handlers:
            raise ConfigurationError(f"unknown receiver FE: {receiver!r}")
        self._seq = seq = self._seq + 1
        if delay_us:
            event = _new_event(SimEvent, (self.now + delay_us, seq, sender, receiver, payload))
            heapq.heappush(self._queue, event)
        else:
            # The clock's own int, not now + 0: one instant's records share it.
            self._ready.append(_new_event(SimEvent, (self.now, seq, sender, receiver, payload)))

    def call_later(self, delay_us: int, fn: Callable[[], None], owner: str) -> None:
        """Schedule an internal (untraced) call attributed to an FE."""
        self.schedule(delay_us, _Call(fn, (owner, owner)))

    def run_until_quiescent(self) -> SimTime:
        """Process events in (at, seq) order until the queue drains.

        Returns the time of the last processed event (0 if none).
        """
        last: SimTime = 0
        now = self.now
        queue, ready, handlers, recorder = self._queue, self._ready, self._handlers, self.recorder
        while True:
            if ready and not (queue and queue[0].at == now):
                event = ready.popleft()
            elif queue:
                event = heapq.heappop(queue)
                self.now = now = event.at
            else:
                return last
            last = now
            payload = event.payload
            try:
                if type(payload) is _Call:
                    payload.fn()
                else:
                    recorder.on_delivery(event)
                    handlers[event.receiver](event)
            except Exception as exc:
                raise SimulationError(
                    f"handler failed at t={event.at} for "
                    f"{event.sender}->{event.receiver} {type(event.payload).__name__}: {exc}"
                ) from exc
