"""Reference MRRM decision cycle: every cycle derives its sets anew.

MRRM keeps what a radio view derives on that view, across cycles and ticks:
each flow's request; per ConstraintResponse, the CAS, the weighted path scores
and the last selection, so the cycles of a tick that got one response select
once; per winner, the AccessSets and each flow's snapshot params. This oracle
keeps the derivation the entity had before that reuse: per cycle, build the
DAS from the cycle's own scan, then ``select_cas_aas``, then
``decide_handover``, with nothing kept from one cycle to the next. It records
its snapshots as MRRM does, through ``Kernel.annotate``. A simulation whose
MRRM is a ``ReferenceMrrm`` must write the same snapshots and execution
requests.
"""

from __future__ import annotations

from typing import Mapping

from mobsig.core import (
    AccessId,
    AccessSets,
    AccessSetsSnapshot,
    ConstraintResponse,
    Rating,
    access_sort_key,
)
from mobsig.mrrm import Mrrm, MrrmPolicy, build_das


def select_cas_aas(
    policy: MrrmPolicy,
    das_sets: AccessSets,
    radio: Mapping[AccessId, float],
    ratings: tuple[Rating, ...],
) -> tuple[AccessSets, dict[AccessId, float]]:
    """Derive CAS (usable paths) and AAS (best combined score) from the ratings.

    The combined score weighs the radio score (0 for an access the scan did
    not see) against the path score. Ties on the combined score go to the
    lexicographically smallest (network_id, cell_id). Ratings must cover only
    DAS members.
    """
    for rating in ratings:
        if rating.access not in das_sets.das:
            raise ValueError(f"rating for access outside das: {rating.access.key}")
    combined = {
        r.access: policy.weight_radio * radio.get(r.access, 0.0)
        + policy.weight_path * r.path_score
        for r in ratings
    }
    cas = frozenset(r.access for r in ratings if r.path_score > 0.0)
    aas: frozenset[AccessId] = frozenset()
    if cas:
        best = min(cas, key=lambda a: (-combined[a],) + access_sort_key(a))
        aas = frozenset({best})
    return (
        AccessSets(scanned=das_sets.scanned, das=das_sets.das, cas=cas, aas=aas),
        combined,
    )


def decide_handover(
    policy: MrrmPolicy,
    incumbent: AccessId | None,
    new_aas: AccessSets,
    combined: Mapping[AccessId, float],
) -> AccessId | None:
    """The handover target, if any: a challenger must beat the incumbent by
    more than the hysteresis, unless the incumbent left the DAS."""
    winner = new_aas.active
    if winner is None or winner == incumbent:
        return None
    if incumbent is None:
        return winner
    if incumbent not in new_aas.das:
        return winner
    if combined.get(winner, 0.0) > combined.get(incumbent, 0.0) + policy.hysteresis:
        return winner
    return None


class ReferenceMrrm(Mrrm):
    """MRRM whose cycles derive everything from their own scan and response."""

    def _on_constraints(self, response: ConstraintResponse) -> None:
        flow, establishing, _view, radio = self._cycles.popleft()
        das_sets = build_das(self.policy, list(radio.items()))
        sets, combined = select_cas_aas(self.policy, das_sets, radio, response.ratings)
        self._kernel.annotate(AccessSetsSnapshot(
            aas=sorted(a.key for a in sets.aas),
            cas=sorted(a.key for a in sets.cas),
            das=sorted(a.key for a in sets.das),
            flow=flow,
            scanned=sorted(a.key for a in sets.scanned),
        ))
        record = self._table.get(flow)
        if establishing:
            self._finish_establishment_cycle(record, sets)
            return
        if self._inflight is not None or record is None or record.state != "active":
            return
        target = decide_handover(self.policy, record.current_access, sets, combined)
        if target is not None:
            self._emit_request(record, current=record.current_access, target=target,
                               establishing=False)
