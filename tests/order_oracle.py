"""Brute-force acceptor for the mutation soundness tests.

The checker walks a context along its row's chain and names the first
divergence. This oracle takes the opposite route: it lists, from HOLM's step
table alone, every sequence a row accepts after the request, each message as
its name and, for an HOComplete, its result, and asks whether a context's
sequence is one of them. A row accepts each prefix of its chain in which an
HOComplete is a success, and each run of its step messages from the first
one followed by a failed HOComplete; a context of no row accepts only the
empty sequence and a lone failed HOComplete. A handover request whose target
is its current access accepts nothing.
"""

from __future__ import annotations

from mobsig.holm import STEP_MESSAGES, STEPS
from mobsig.simkernel import TraceRecord

NOTIFICATION = ("HandoverOccurred", "HandoverOccurredResponse")
FAILED = ("HOComplete", "failure")


def accepted(row: str) -> set[tuple[tuple[str, str | None], ...]]:
    """Every sequence of (name, HOComplete result or None) that `row` accepts."""
    steps = [(name, None) for step in STEPS.get(row, ()) for name in STEP_MESSAGES[step]]
    sequences = {tuple(steps[:length]) + (FAILED,) for length in range(len(steps) + 1)}
    if row not in STEPS:
        return sequences | {()}
    chain = steps + [("HOComplete", "success")]
    if row != "establishment":
        chain += [(name, None) for name in NOTIFICATION]
    return sequences | {tuple(chain[:length]) for length in range(len(chain) + 1)}


def _access(rendered: dict) -> tuple[str, str]:
    return rendered["network_id"], rendered["cell_id"]


def accepts(records: list[TraceRecord], row: str) -> bool:
    """True iff `row` accepts the context slice `records`, its request first."""
    request = records[0].params
    if request["current"] is not None and _access(request["current"]) == _access(request["target"]):
        return False
    sequence = tuple((record.name, record.params["result"] if record.name == "HOComplete"
                      else None) for record in records[1:])
    return sequence in accepted(row)
