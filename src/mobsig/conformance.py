"""Sequence conformance checking for recorded signaling traces.

A trace is split into handover contexts, one per HOExecutionRequest, each
running until the next request for the same flow (or the end of the trace).
Every context is then checked against sequence templates:

* precedence rules - "if A and B both occur in the context, every A occurs
  before every B", each with a stable human-readable label;
* forbidden names - messages that must not appear for that handover variant;
* link alternation - attach and detach events on one access must alternate,
  starting with an attach, for every access that is brought up inside the
  context (accesses attached before the context started are exempt).

The templates are not written out: each is derived from one row of HOLM's
step table. A row's chain is the messages its steps exchange (`holm.STEPS`
and `holm.STEP_MESSAGES`), then HOComplete, then the post-handover
notification exchange. The template's rules are the LABELS pairs that occur
in that order in the chain, and it forbids every other message of the
vocabulary. A rule can only point forward along its chain, so no template can
hold a cycle.

Under "auto" each context is checked against "generic", then against the
template of its STEPS row, which infer_variant reads from the step table alone.

The forbidden names and the precedence rules read only a context's message
names and the template, so they run once per distinct (template, name
sequence) pair: _order_violations keeps the last _ORDER_MEMO results, keyed by
the template object, so templates built apart that share a name do not share
results. A long walk's hundreds of contexts repeat a handful of sequences.
Link alternation reads the accesses, so it runs for every context.

Messages that are not part of the handover signaling vocabulary (scan
snapshots, rating queries, flow-setup traffic) are ignored by the checker.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Any

from .core import PRIMITIVE_TYPES
from .holm import STEP_MESSAGES, STEPS
from .simkernel import TraceRecord

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

# The label of each ordering rule, keyed by (before, after). When two rules
# are broken at the same record, the one listed first here is reported.
LABELS: dict[tuple[str, str], str] = {
    ("PathSelect", "PathSelected"): "path-query-before-answer",
    ("PathSelected", "BindingUpdate"): "locator-before-binding-update",
    ("BindingUpdate", "BindingAck"): "binding-update-before-ack",
    ("BindingAck", "HOComplete"): "binding-ack-before-completion",
    ("HOComplete", "HandoverOccurred"): "completion-before-indication",
    ("HandoverOccurred", "HandoverOccurredResponse"): "indication-before-its-ack",
    ("LinkAttachRequest", "LinkAttachResponse"): "attach-request-before-response",
    ("LinkDetachRequest", "LinkDetachResponse"): "detach-request-before-response",
    ("LinkAttachRequest", "LinkDetachRequest"): "attach-before-detach",
    ("LinkAttachResponse", "PathSelect"): "attach-before-path-query",
    ("BindingAck", "LinkDetachRequest"): "rebind-before-old-link-teardown",
    ("LinkDetachResponse", "HOComplete"): "teardown-before-completion",
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
    ("TunnelStop", "HOComplete"): "tunnel-stop-before-completion",
}


# The parts of a line as TraceRecord.to_json writes it, split at its two fixed
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
class Precedence:
    """Conditional ordering: when both occur, `before` must precede `after`."""

    before: str
    after: str
    label: str


@dataclass(frozen=True, eq=False, repr=False)
class SequenceTemplate:
    """The precedence rules and forbidden messages of one handover variant."""

    name: str
    rules: tuple[Precedence, ...]
    forbidden: frozenset[str]


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
    chain = _messages(steps) + ("HOComplete",)
    if name != "establishment":  # a first attachment is no handover to notify
        chain += _NOTIFICATION
    at = {message: index for index, message in enumerate(chain)}
    rules = tuple(
        Precedence(before, after, label)
        for (before, after), label in LABELS.items()
        if before in at and after in at and at[before] < at[after]
    )
    forbidden = CHECKED_NAMES - {"HOExecutionRequest"} - set(chain)
    return SequenceTemplate(name, rules, forbidden)


TEMPLATES: dict[str, SequenceTemplate] = {
    # Only what every variant shares: the path query and the binding.
    "generic": replace(_template("generic", ("path", "bind")), forbidden=frozenset()),
    **{variant: _template(variant, steps) for variant, steps in STEPS.items()},
}

# The handover rows (all but establishment) by their opener, the message that
# opens their first step. A shared opener lists the smallest vocabulary first
# and goes to the first row whose vocabulary covers the context.
_BY_OPENER: dict[str, list[SequenceTemplate]] = {}
for _row in sorted(STEPS, key=lambda row: -len(TEMPLATES[row].forbidden)):
    if _row != "establishment":
        _BY_OPENER.setdefault(STEP_MESSAGES[STEPS[_row][0]][0], []).append(TEMPLATES[_row])

assert CHECKED_NAMES <= set(PRIMITIVE_TYPES), "checker vocabulary drifted from primitives"


def parse_trace(lines) -> list[TraceRecord]:
    """Parse JSON-Lines trace text into records; blank lines are skipped.

    A line in the layout ``TraceRecord.to_json`` writes takes a fast path: two
    splits, at ``,"from":`` and at ``,"params":``, cut it into its ``t`` text,
    its head (``from``, ``to`` and ``msg``) and its params tail, and each
    distinct head and params tail is read once per call. Records whose heads
    are equal share their three strings, records whose params tails are equal
    share one read-only dict, and a run of records with equal ``t`` shares one
    int. The writer ends every line alike, so its records share a dict exactly
    when their params texts are equal; params that differ only in the
    whitespace after them read to equal, distinct dicts. Equal keys of the
    params dicts, at any depth, are one string per call; values are not
    shared. Any other line goes to ``TraceRecord.from_json``, which accepts,
    rejects and words its errors as it always has.
    """
    records = []
    heads_by_text: dict[str, tuple[str, str, str] | None] = {}
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

    # Records come in time order, so a record mostly shares the last one's `t`.
    last_at_text = at = None
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
                    tuple(head_text.split('"')[1::4]) if _WRITER_HEAD.fullmatch(head_text) else None
                )
            if at_text != last_at_text:
                last_at_text = at_text
                at = int(at_text[5:]) if _WRITER_T.fullmatch(at_text) else None
            if head is not None and at is not None:
                records.append(TraceRecord(at, head[0], head[1], head[2], params, lineno))
                continue
        if not line.strip():
            continue
        records.append(TraceRecord.from_json(line, lineno))
    return records


def load_trace(path: str) -> list[TraceRecord]:
    # Lines end at "\n" alone: a raw "\r" is JSON whitespace inside a record,
    # and one before the "\n" is trailing whitespace of its line.
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


# The access fields that infer_variant and _link_events read, by message, each
# with whether it may be null.
_ACCESS_FIELDS = {
    "HOExecutionRequest": (("current", True),),
    "LinkAttachRequest": (("target", False),),
    "LinkSwitchRequest": (("current", False), ("target", False)),
    "LinkDetachRequest": (("current", False),),
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


def segment_contexts(records: list[TraceRecord]) -> list[SequenceContext]:
    """Split a trace into handover contexts.

    Raises AmbiguousTraceError, and ValueError naming the line of a record
    whose flow, current or target the checker reads but cannot.
    """
    contexts: list[SequenceContext] = []
    open_contexts: dict[int, SequenceContext] = {}
    for index, record in enumerate(records):
        name = record.name
        if name not in CHECKED_NAMES:
            continue
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
            context.entries.append((index, record))
    return contexts


def infer_variant(records: list[TraceRecord]) -> str:
    """The STEPS row a context slice runs: establishment if its request, the
    first record, has no current access (as in HOLM), else the first opener's."""
    if records[0].params["current"] is None:
        return "establishment"
    names = [record.name for record in records]
    for name in names:
        rows = _BY_OPENER.get(name)
        if rows is not None:
            return next((row.name for row in rows if row.forbidden.isdisjoint(names)), rows[0].name)
    return "unclassified"


def _access_key(rendered: dict) -> str:
    return f"{rendered['network_id']}/{rendered['cell_id']}"


def _link_events(records: list[TraceRecord]) -> dict[str, list[tuple[int, str]]]:
    events: dict[str, list[tuple[int, str]]] = {}
    for index, record in enumerate(records):
        if record.name in ("LinkAttachRequest", "LinkSwitchRequest"):
            key = _access_key(record.params["target"])
            events.setdefault(key, []).append((index, "up"))
        if record.name in ("LinkDetachRequest", "LinkSwitchRequest"):
            key = _access_key(record.params["current"])
            events.setdefault(key, []).append((index, "down"))
    return events


# At most this many (template, name sequence) pairs keep their order
# violations. The seed-1 bench traces and both slow-signalling ones hold 24
# such pairs under auto and every template.
_ORDER_MEMO = 1024


@lru_cache(maxsize=_ORDER_MEMO)
def _order_violations(
    template: SequenceTemplate, names: tuple[str, ...]
) -> tuple[tuple[int, str, str], ...]:
    """The forbidden-name and precedence violations of a context whose
    records bear `names`, as (slice index, rule, detail) in the order check
    lists them; one result holds for every such context (module docstring)."""
    violations = []
    for index, name in enumerate(names):
        if name in template.forbidden:
            violations.append((index, f"forbidden:{name}", f"{name} must not occur here"))
            break  # later forbidden hits cannot be the first violation

    positions: dict[str, list[int]] = {}
    for index, name in enumerate(names):
        positions.setdefault(name, []).append(index)
    for rule in template.rules:
        before = positions.get(rule.before)
        after = positions.get(rule.after)
        if not before or not after:
            continue
        if max(before) > min(after):
            violations.append((min(after), rule.label, f"{rule.after} precedes {rule.before}"))
    return tuple(violations)


@lru_cache(maxsize=64)
def _passed(template: str) -> Verdict:
    """The one passing verdict of a template name, shared by every check it passes."""
    return Verdict(ok=True, template=template)


def check(records: list[TraceRecord], template: SequenceTemplate) -> Verdict:
    """Check one context slice against one template.

    The forbidden names and the precedence rules are checked once per distinct
    (template, name sequence) pair (see _order_violations, which keeps the
    last _ORDER_MEMO pairs); link alternation reads the records' accesses, so
    it runs for every context.

    Every name the check reacts to (a forbidden name, a rule's end, a link
    request) is in CHECKED_NAMES, so records of any other name, which
    segment_contexts keeps out of a context, change no verdict.
    """
    names = tuple([record.name for record in records])
    violations = list(_order_violations(template, names))  # the memo's tuple stays as it is

    for key, events in sorted(_link_events(records).items()):
        if not any(kind == "up" for _, kind in events):
            continue  # access was attached before this context started
        expected = "up"
        for index, kind in events:
            if kind != expected:
                violations.append((index, "link-alternation", f"unexpected link-{kind} on {key}"))
                break
            expected = "down" if expected == "up" else "up"

    if not violations:
        return _passed(template.name)
    index, rule, detail = min(violations, key=lambda v: v[0])
    return Verdict(
        ok=False,
        template=template.name,
        record=records[index],
        index=index,
        rule=rule,
        detail=detail,
    )


def check_trace(records: list[TraceRecord], template: str = "auto") -> Verdict:
    """Check a trace against one named template, or per-variant with "auto".

    Raises ValueError, naming the line, for a record whose flow, current or
    target the checker reads but cannot (see segment_contexts).
    """
    try:
        contexts = segment_contexts(records)
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
        if template == "auto":
            variant = infer_variant(slice_records)
            chosen = [TEMPLATES["generic"]] + ([TEMPLATES[variant]] if variant in STEPS else [])
        else:
            chosen = [TEMPLATES[template]]
        for candidate in chosen:
            verdict = check(slice_records, candidate)
            if not verdict.ok:
                # Rewrite the slice-local failure index as a full-trace index.
                return replace(verdict, index=context.entries[verdict.index][0])
    return Verdict(ok=True, template=template)
