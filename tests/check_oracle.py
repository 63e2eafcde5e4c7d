"""Reference checker: `check` and `check_trace` as they were before the
order rules were memoized.

Each check rebuilds the name positions, scans for a forbidden name, tests
every precedence rule and follows link alternation, for every context and
template; nothing is kept between calls. `conformance.check` keeps the
forbidden-name and precedence results per (template, name sequence) pair, and
the tests hold the two to equal verdicts.
"""

from __future__ import annotations

from dataclasses import replace

from mobsig.conformance import (
    TEMPLATES,
    AmbiguousTraceError,
    SequenceTemplate,
    Verdict,
    _link_events,
    infer_variant,
    segment_contexts,
)
from mobsig.holm import STEPS
from mobsig.simkernel import TraceRecord


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
