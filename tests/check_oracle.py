"""Reference checker: the precedence-rule checker that the chain walk replaced.

Each template holds conditional precedence rules ("if A and B both occur,
every A precedes every B"), the names it forbids, and link alternation
(attach and detach events on one access alternate, starting with an attach,
for every access brought up inside the context). Under "auto" each context
is checked against "generic", the path query and the binding alone, then
against the template of its row; a named template is applied to every
context, an establishment too. The templates, the classifier and link
alternation are kept here as they were, so the tests can hold
`conformance.check_trace` to them: the walk rejects every context this
checker rejects under auto, and gives its verdicts on simulated traces.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from mobsig.conformance import (
    CHECKED_NAMES,
    AmbiguousTraceError,
    Verdict,
    segment_contexts,
)
from mobsig.holm import STEP_MESSAGES, STEPS
from mobsig.simkernel import TraceRecord

_NOTIFICATION = ("HandoverOccurred", "HandoverOccurredResponse")

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


def _messages(steps: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(name for step in steps for name in STEP_MESSAGES[step])


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


def check(records: list[TraceRecord], template: SequenceTemplate) -> Verdict:
    """Check one context slice against one template.

    Every name the check reacts to (a forbidden name, a rule's end, a link
    request) is in CHECKED_NAMES, so records of any other name, which
    segment_contexts keeps out of a context, change no verdict.
    """
    violations: list[tuple[int, str, str]] = []  # (slice index, rule, detail)

    for index, record in enumerate(records):
        if record.name in template.forbidden:
            violations.append(
                (index, f"forbidden:{record.name}", f"{record.name} must not occur here")
            )
            break  # later forbidden hits cannot be the first violation

    positions: dict[str, list[int]] = {}
    for index, record in enumerate(records):
        positions.setdefault(record.name, []).append(index)
    for rule in template.rules:
        before = positions.get(rule.before)
        after = positions.get(rule.after)
        if not before or not after:
            continue
        if max(before) > min(after):
            violations.append(
                (min(after), rule.label, f"{rule.after} precedes {rule.before}")
            )

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
        return Verdict(ok=True, template=template.name)
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
