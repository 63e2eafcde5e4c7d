"""Sequence conformance checking for recorded signaling traces.

A trace is split into handover contexts, one per HOExecutionRequest, each
running until the next request for the same flow (or the end of the trace).
Each context is then checked by one walk along the chain of one row of HOLM's
step table: the messages that row's steps exchange (`holm.STEPS` and
`holm.STEP_MESSAGES`), then HOComplete, then the post-handover notification
exchange (an establishment, a first attachment, has none to notify).

A context conforms when the names after its request are a prefix of that
chain. A failed HOComplete may end the steps early, and nothing may follow
it; a successful one needs every step message before it. The first
divergence is the verdict:

* a name outside the chain is `forbidden:<name>`;
* a successful HOComplete that comes early is `missing:<expected>`;
* any other name out of place takes the LABELS label of the (expected, got)
  pair, or `unexpected:<got>` where none fits;
* a handover request whose current access is its target is `same-access`, at
  the request;
* a chain message whose `current` or `target` is not its request's field of
  that name is `access-mismatch:<name>.<field>`, at that message.

Accesses compare by network_id and cell_id.

A request with a null current access runs the establishment row, as HOLM
decides, under "auto" and under a named template alike. Any other context
runs the named row, or under "auto" the row that infer_variant reads from the
step table. A context of no row ("unclassified") has an empty chain, so it
conforms as its request alone or followed by a failed HOComplete.

Messages that are not part of the handover signaling vocabulary (scan
snapshots, rating queries, flow-setup traffic) are ignored by the checker.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from typing import Any

from .core import PRIMITIVE_TYPES
from .holm import STEP_MESSAGES, STEPS
from .simkernel import Head, Trace, TraceRecord, without_cyclic_gc

# The post-handover notification exchange that follows every HOComplete but an
# establishment's.
_NOTIFICATION = ("HandoverOccurred", "HandoverOccurredResponse")


def _messages(steps: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(name for step in steps for name in STEP_MESSAGES[step])


# Names that make up handover signaling sequences; used both for conformance
# and for per-handover message counting in the metrics report.
SEQUENCE_NAMES = frozenset({"HOExecutionRequest", "HOComplete"}).union(*STEP_MESSAGES.values())

# The checker additionally tracks the post-handover notification exchange.
CHECKED_NAMES = SEQUENCE_NAMES | set(_NOTIFICATION)

# The rule of a name found out of place, keyed by (expected, got): the chain's
# name where the walk stands and the later chain name found there instead.
LABELS: dict[tuple[str, str], str] = {
    ("PathSelect", "PathSelected"): "path-query-before-answer",
    ("PathSelected", "BindingUpdate"): "locator-before-binding-update",
    ("BindingUpdate", "BindingAck"): "binding-update-before-ack",
    ("HOComplete", "HandoverOccurred"): "completion-before-indication",
    ("HandoverOccurred", "HandoverOccurredResponse"): "indication-before-its-ack",
    ("LinkAttachRequest", "LinkAttachResponse"): "attach-request-before-response",
    ("LinkDetachRequest", "LinkDetachResponse"): "detach-request-before-response",
    ("LinkAttachRequest", "LinkDetachRequest"): "attach-before-detach",
    ("LinkAttachResponse", "PathSelect"): "attach-before-path-query",
    ("BindingAck", "LinkDetachRequest"): "rebind-before-old-link-teardown",
    ("LinkDetachRequest", "LinkAttachRequest"): "detach-before-attach",
    ("LinkDetachResponse", "LinkAttachRequest"): "teardown-done-before-attach",
    ("ProxyRouterAdvertisement", "FastBindingUpdate"): "advertisement-before-fast-binding",
    ("FastBindingUpdate", "FastBindingAck"): "fast-binding-before-ack",
    ("FastBindingAck", "PathSelect"): "preparation-before-path-query",
    ("FastBindingAck", "LinkSwitchRequest"): "preparation-before-switch",
    ("PathSelected", "LinkSwitchRequest"): "locator-before-switch",
    ("LinkSwitchRequest", "LinkSwitchResponse"): "switch-request-before-response",
    ("LinkSwitchResponse", "TunnelStart"): "switch-before-tunnel",
    ("TunnelStart", "BindingUpdate"): "tunnel-before-binding-update",
    ("BindingAck", "TunnelStop"): "binding-ack-before-tunnel-stop",
}


# The parts of a line as TraceRecorder.lines writes it, split at its two fixed
# separators: `t` (short enough that int() reads it as json.loads does), the
# head of three strings that need no unescaping and hold no '"', and the params
# tail. So on such a line the first ',"from":' follows `t` and the first
# ',"params":' follows `msg`.
_WRITER_T = re.compile(r'\{"t":-?(?:0|[1-9][0-9]{0,17})')
_WRITER_STR = r'[^"\\\x00-\x1f]*'
_WRITER_HEAD = re.compile(
    '"' + _WRITER_STR + '","to":"' + _WRITER_STR + '","msg":"' + _WRITER_STR + '"'
)


# What parse_trace's memos give for a text they have not read yet.
_UNREAD = object()

# What errors="surrogateescape" makes of a byte that is not valid UTF-8.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


class AmbiguousTraceError(ValueError):
    """A record without a flow id could belong to more than one open context."""

    def __init__(self, record: TraceRecord, index: int) -> None:
        self.detail = f"{record.name} carries no flow id while several handovers are open"
        super().__init__(f"line {record.line}: {self.detail}")
        self.record = record
        self.index = index


@dataclass(frozen=True, eq=False, repr=False)
class SequenceTemplate:
    """The chain of one step row: the names a conformant context bears after
    its request, in order, of which the first `steps` are step messages."""

    name: str
    chain: tuple[str, ...]
    steps: int


@dataclass(frozen=True)
class Verdict:
    """A check's outcome: ok, or the first violation with its record and rule."""

    ok: bool
    template: str | None = None
    record: TraceRecord | None = None
    index: int | None = None
    rule: str | None = None
    detail: str | None = None

    def describe(self) -> str:
        """A violation, at the trace line of the record that breaks it."""
        return f"line {self.record.line}: {self.detail} [template={self.template} rule={self.rule}]"


@dataclass(eq=False, repr=False)
class SequenceContext:
    """One handover execution span inside a trace."""

    entries: list[tuple[int, TraceRecord]]

    @property
    def records(self) -> list[TraceRecord]:
        return [record for _, record in self.entries]


def _template(name: str, steps: tuple[str, ...]) -> SequenceTemplate:
    """The template of one step row; see the module docstring."""
    messages = _messages(steps)
    chain = messages + ("HOComplete",)
    if name != "establishment":  # a first attachment is no handover to notify
        chain += _NOTIFICATION
    return SequenceTemplate(name, chain, len(messages))


TEMPLATES: dict[str, SequenceTemplate] = {
    row: _template(row, steps) for row, steps in STEPS.items()
}

# The template of a context that runs no row.
_UNCLASSIFIED = SequenceTemplate("unclassified", (), 0)

# The handover rows (all but establishment) by their opener, the first name
# of their chain, shortest chain first.
_BY_OPENER: dict[str, list[SequenceTemplate]] = {}
for _row in sorted(STEPS, key=lambda row: len(TEMPLATES[row].chain)):
    if _row != "establishment":
        _BY_OPENER.setdefault(TEMPLATES[_row].chain[0], []).append(TEMPLATES[_row])

# The names a chain may hold: every checked name but the request that opens a context.
_CHAINED = CHECKED_NAMES - {"HOExecutionRequest"}

assert CHECKED_NAMES <= set(PRIMITIVE_TYPES), "checker vocabulary drifted from primitives"


def parse_trace(lines) -> Trace:
    """Parse JSON-Lines trace text into a ``Trace``; blank lines are skipped.

    No object is made per line: each line adds its ``t``, its head and its
    params dict to the trace's lists, and a ``TraceRecord`` is built only
    when a record is read. A line in the layout ``TraceRecorder.lines``
    writes takes a fast path: two splits, at ``,"from":`` and at
    ``,"params":``, cut it into its ``t`` text, its head (``from``, ``to``
    and ``msg``) and its params tail, and each distinct head and params tail
    is read once per call. Records whose heads are equal share one
    (sender, receiver, name) tuple, records whose params tails are equal
    share one read-only dict, and a run of records with equal ``t`` shares
    one int. The writer ends every line alike, so its records share a dict
    exactly when their params texts are equal; params that differ only in
    the whitespace after them read to equal, distinct dicts. Equal keys of
    the params dicts, at any depth, are one string per call; values are not
    shared. Any other line goes to ``TraceRecord.from_json``, which accepts,
    rejects and words its errors as it always has. A record's line number
    counts the blank lines before it. The lists are built with the cyclic
    collector held off (``simkernel.without_cyclic_gc``).
    """
    at_column: list[int] = []
    heads: list[Head] = []
    params_column: list[dict[str, Any]] = []
    blank: set[int] = set()  # the line numbers of skipped blank lines
    heads_by_text: dict[str, Head | None] = {}
    params_by_tail: dict[str, dict[str, Any] | None] = {}
    share_key = {}.setdefault  # one string per distinct key, for this call alone

    def with_shared_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
        # A loop, as a dict comprehension costs a frame per call on 3.11 (PEP 709
        # inlines comprehensions from 3.12 on).
        params = {}
        for key, value in pairs:
            params[share_key(key, key)] = value
        return params

    decode = json.JSONDecoder(object_pairs_hook=with_shared_keys).raw_decode

    def read_params(tail: str) -> dict[str, Any] | None:
        """The dict that fills the tail up to its closing brace, or None."""
        text = tail.rstrip(" \t\r\n")
        if text[-1:] != "}":
            return None
        text = text[:-1]
        try:
            params, end = decode(text)
        except (ValueError, RecursionError):
            return None
        return params if end == len(text) and type(params) is dict else None

    add_at, add_head, add_params = at_column.append, heads.append, params_column.append
    # Records come in time order, so a record mostly shares the last one's `t`.
    last_at_text = at = None
    with without_cyclic_gc():
        for lineno, line in enumerate(lines, start=1):
            at_text, _, rest = line.partition(',"from":')
            head_text, _, tail = rest.partition(',"params":')
            # About one line in three misses a memo, too often to pay for a raised KeyError.
            params = params_by_tail.get(tail, _UNREAD)
            if params is _UNREAD:
                params = params_by_tail[tail] = read_params(tail)
            if params is not None:
                head = heads_by_text.get(head_text, _UNREAD)
                if head is _UNREAD:
                    head = heads_by_text[head_text] = (
                        tuple(head_text.split('"')[1::4])
                        if _WRITER_HEAD.fullmatch(head_text) else None
                    )
                if at_text != last_at_text:
                    last_at_text = at_text
                    at = int(at_text[5:]) if _WRITER_T.fullmatch(at_text) else None
                if head is not None and at is not None:
                    add_at(at)
                    add_head(head)
                    add_params(params)
                    continue
            if not line.strip():
                blank.add(lineno)
                continue
            record = TraceRecord.from_json(line, lineno)
            add_at(record.at)
            add_head((record.sender, record.receiver, record.name))
            add_params(record.params)
    count = len(at_column)
    line_numbers = range(1, count + 1)
    if blank:
        line_numbers = [n for n in range(1, count + len(blank) + 1) if n not in blank]
    return Trace(at_column, heads, params_column, line_numbers)


def load_trace(path: str) -> Trace:
    """Read the trace file at ``path`` into a ``Trace``, with ``parse_trace``.

    Lines end at "\\n" alone: a raw "\\r" is JSON whitespace inside a record,
    and one before the "\\n" is trailing whitespace of its line. A malformed
    line raises ValueError naming its line number, as does the first line
    that is not valid UTF-8, unless a malformed line comes before it.
    """
    with open(path, "r", encoding="utf-8", newline="\n") as handle:
        try:
            return parse_trace(handle)
        except UnicodeDecodeError:
            pass
    # Read again with each undecodable byte kept as a lone surrogate, so the
    # first line holding one is named; an earlier bad line still wins.
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="\n") as handle:
        return parse_trace(_utf8_lines(handle))


def _utf8_lines(lines):
    for lineno, line in enumerate(lines, start=1):
        if _ESCAPED_BYTE.search(line):
            raise ValueError(f"line {lineno}: not valid UTF-8")
        yield line


# The access fields segment_contexts holds to access objects, by message, each
# with whether it may be null: the request's, which infer_variant and check
# read, and those of the chain messages, which check compares with the
# request's fields of the same names.
_ACCESS_FIELDS = {
    "HOExecutionRequest": (("current", True), ("target", False)),
    "LinkAttachRequest": (("target", False),),
    "LinkSwitchRequest": (("current", False), ("target", False)),
    "LinkDetachRequest": (("current", False),),
    "PathSelect": (("target", False),),
    "ProxyRouterAdvertisement": (("target", False),),
    "FastBindingUpdate": (("current", False), ("target", False)),
    "TunnelStart": (("current", False), ("target", False)),
}


def _malformed(record: TraceRecord, problem: str) -> ValueError:
    """The error for a params field the checker reads, naming the record's line."""
    return ValueError(f"line {record.line}: {record.name}{problem}")


def _check_access_fields(record: TraceRecord, fields: tuple[tuple[str, bool], ...]) -> None:
    """Raise ValueError, naming the line, for an access field the checker reads
    that is missing or is not an object with string network_id and cell_id."""
    params = record.params
    for field, nullable in fields:
        if field not in params:
            raise _malformed(record, f" has no '{field}'")
        value = params[field]
        if value is None and nullable:
            continue
        if not (type(value) is dict and type(value.get("network_id")) is str
                and type(value.get("cell_id")) is str):
            raise _malformed(record, f"'s '{field}' needs an access object "
                                     "with string network_id and cell_id")


def segment_contexts(trace: Trace) -> list[SequenceContext]:
    """Split a trace into handover contexts.

    It reads each record's name from the trace's heads, and builds a
    ``TraceRecord`` only for a record whose name is checked.
    Raises AmbiguousTraceError, and ValueError naming the line of a record
    whose flow, access fields or HOComplete result is missing or malformed.
    """
    contexts: list[SequenceContext] = []
    open_contexts: dict[int, SequenceContext] = {}
    for index, (_at, head, _params) in enumerate(trace.rows()):
        name = head[2]
        if name not in CHECKED_NAMES:
            continue
        record = trace[index]
        # A request needs an integer flow id, and any other record's flow id
        # must be one; json.loads gives exact types, so a bool is not one.
        flow = record.params.get("flow")
        if type(flow) is not int and (flow is not None or name == "HOExecutionRequest"):
            raise _malformed(record,
                             " has no 'flow'" if flow is None else " needs an integer 'flow'")
        fields = _ACCESS_FIELDS.get(name)
        if name == "HOExecutionRequest":
            _check_access_fields(record, fields)
            open_contexts.pop(flow, None)
            context = SequenceContext(entries=[(index, record)])
            open_contexts[flow] = context
            contexts.append(context)
            continue
        if flow is not None:
            context = open_contexts.get(flow)
        elif len(open_contexts) == 1:
            context = next(iter(open_contexts.values()))
        elif len(open_contexts) > 1:
            raise AmbiguousTraceError(record, index)
        else:
            context = None  # no open context: pre-handover traffic, nothing to attribute
        if context is not None:
            if fields is not None:
                _check_access_fields(record, fields)
            elif name == "HOComplete":
                result = record.params.get("result")
                if result != "success" and result != "failure":
                    raise _malformed(record, " has no 'result'" if result is None
                                     else "'s 'result' must be \"success\" or \"failure\"")
            context.entries.append((index, record))
    return contexts


def infer_variant(records: list[TraceRecord]) -> str:
    """The STEPS row a context slice runs: establishment if its request, the
    first record, has no current access (as in HOLM), else the row of the
    first opener in it, where rows that share an opener go to the shortest
    chain that holds every other name of the context, then to the shortest."""
    if records[0].params["current"] is None:
        return "establishment"
    names = _CHAINED.intersection([record.name for record in records])
    for record in records:
        rows = _BY_OPENER.get(record.name)
        if rows is not None:
            return next((row.name for row in rows if names.issubset(row.chain)), rows[0].name)
    return "unclassified"


def _access(value: dict[str, Any] | None) -> tuple[str, str] | None:
    """What an access field compares by: its (network_id, cell_id), or None."""
    return None if value is None else (value["network_id"], value["cell_id"])


def check(records: list[TraceRecord], template: SequenceTemplate) -> Verdict:
    """Walk one context slice, as segment_contexts makes it, along one
    template's chain; the first divergence is the verdict (module docstring)."""
    request = records[0]
    accesses = {"current": _access(request.params["current"]),
                "target": _access(request.params["target"])}
    if accesses["current"] == accesses["target"]:
        access = "/".join(accesses["target"])
        return Verdict(False, template.name, request, 0, "same-access",
                       f"{request.name} targets its current access {access}")
    chain, steps = template.chain, template.steps
    position, ended = 0, False
    for index in range(1, len(records)):
        record = records[index]
        name = record.name
        if (name == "HOComplete" and not ended and position <= steps
                and record.params["result"] == "failure"):
            ended = True  # the steps end here, and nothing may follow
            continue
        expected = None if ended or position == len(chain) else chain[position]
        if name == expected:
            for field, _nullable in _ACCESS_FIELDS.get(name, ()):
                access = _access(record.params[field])
                if access != accesses[field]:
                    return Verdict(False, template.name, record, index,
                                   f"access-mismatch:{name}.{field}",
                                   f"{name}'s {field} {'/'.join(access)} is not its request's")
            position += 1
            continue
        if name not in chain and name != "HOComplete":
            rule, detail = f"forbidden:{name}", f"{name} must not occur here"
        elif expected is None:
            rule = f"unexpected:{name}"
            detail = f"{name} comes after the {template.name} sequence ends"
        elif name == "HOComplete" and position < steps:
            rule, detail = f"missing:{expected}", f"HOComplete reports success before {expected}"
        else:
            rule = LABELS.get((expected, name), f"unexpected:{name}")
            detail = f"{name} precedes {expected}"
        return Verdict(False, template.name, record, index, rule, detail)
    return Verdict(True, template.name)


def check_trace(trace: Trace, template: str = "auto") -> Verdict:
    """Check a trace against one named template, or per-variant with "auto";
    an establishment runs its own row under either.

    Raises ValueError, naming the line, for a record whose flow, access
    fields or HOComplete result the checker reads but cannot (see
    segment_contexts).
    """
    try:
        contexts = segment_contexts(trace)
    except AmbiguousTraceError as exc:
        return Verdict(
            ok=False,
            template=template,
            record=exc.record,
            index=exc.index,
            rule="ambiguous-attribution",
            detail=exc.detail,
        )
    for context in contexts:
        slice_records = context.records
        row = template
        if template == "auto" or slice_records[0].params["current"] is None:
            row = infer_variant(slice_records)
        verdict = check(slice_records, _UNCLASSIFIED if row == "unclassified" else TEMPLATES[row])
        if not verdict.ok:
            # Rewrite the slice-local failure index as a full-trace index.
            return replace(verdict, index=context.entries[verdict.index][0])
    return Verdict(ok=True, template=template)
