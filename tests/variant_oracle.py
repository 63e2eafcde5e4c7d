"""Reference variant classifier: the hand-written rules the checker once used.

It tells the four handover variants apart by hand: any message only fmip
exchanges makes fmip, then a request without a current access makes
establishment, then a detach before any attach makes bbm and an attach makes
mbb. `conformance.infer_variant` reads the same answer from HOLM's step table;
the tests hold the two to agreement on simulated traces.
"""

from __future__ import annotations

from mobsig.holm import STEP_MESSAGES, STEPS
from mobsig.simkernel import TraceRecord


def _messages(steps: tuple[str, ...]) -> set[str]:
    return {name for step in steps for name in STEP_MESSAGES[step]}


# The messages only an fmip handover exchanges.
FMIP_ONLY = _messages(STEPS["fmip"]).difference(
    *(_messages(steps) for variant, steps in STEPS.items() if variant != "fmip")
)


def reference_variant(records: list[TraceRecord]) -> str:
    """Classify a context slice by its signaling vocabulary and link order."""
    names = [r.name for r in records]
    if any(name in FMIP_ONLY for name in names):
        return "fmip"
    for record in records:
        if record.name == "HOExecutionRequest":
            if record.params.get("current") is None:
                return "establishment"
            break
    attach = names.index("LinkAttachRequest") if "LinkAttachRequest" in names else None
    detach = names.index("LinkDetachRequest") if "LinkDetachRequest" in names else None
    if detach is not None and (attach is None or detach < attach):
        return "bbm"
    if attach is not None:
        return "mbb"
    return "unclassified"
