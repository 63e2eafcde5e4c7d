"""Multi-radio resource management: scanning, access selection, handover trigger.

Each decision cycle starts from a radio view: one environment scan narrowed to
the detected access set (DAS) by policy. The cycle asks path selection for
ratings, derives the candidate and active sets (CAS / AAS) and decides whether
to request a handover. The radio environment belongs to the terminal, not to a
flow, so a periodic tick scans once and shares that view with every active
flow's cycle; an establishment cycle scans at its own time. The detected set
changes only at cell borders, so while a scan finds the same accesses with the
same DAS membership the new view keeps the last view's sets, candidate tuple
and key lists and takes only the radio scores anew.

Answers that recur are kept and sent again as the same object, so each renders
and encodes once in the trace:

* a flow's ConstraintRequest, while the view's candidate tuple is the same
  object; path selection then answers flows that request equal QoS with the
  same ConstraintResponse, on this tick and on later ones;
* the outcome of one view and one ConstraintResponse (CAS/AAS, combined
  scores and the sorted keys of the snapshot), for every response of the
  current view; only the per-flow handover decision differs;
* a flow's snapshot params, while its four key lists are equal.

No two flows share a request or a snapshot, since both carry the flow id.
Link commands arriving from the handover orchestrator are relayed to the
environment, since only MRRM touches radio resources.

Handovers are serialized node-globally: completion primitives carry no flow id,
so at most one execution request is in flight at a time and flow setups that
arrive meanwhile queue up.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping

from .core import (
    FE_FLOW_MANAGEMENT,
    FE_HOLM,
    FE_MRRM,
    FE_PATH_SELECTION,
    AccessFlowSetup,
    AccessFlowSetupResponse,
    AccessId,
    AccessSets,
    ConstraintRequest,
    ConstraintResponse,
    HandoverOccurred,
    HandoverOccurredResponse,
    HOComplete,
    HOExecutionRequest,
    LinkAttachRequest,
    LinkAttachResponse,
    LinkDetachRequest,
    LinkDetachResponse,
    LinkSwitchRequest,
    LinkSwitchResponse,
    QosSpec,
    Rating,
    Result,
    access_sort_key,
)
from .environment import Environment
from .simkernel import Kernel, SimEvent, TraceRecorder

ANNOTATION_ACCESS_SETS = "AccessSetsSnapshot"


@dataclass(frozen=True)
class MrrmPolicy:
    """Per-node access selection policy."""

    forbidden_networks: frozenset[str] = frozenset()
    min_radio_score: float = 0.0
    hysteresis: float = 0.1
    weight_radio: float = 0.5
    weight_path: float = 0.5
    mbb_capable: bool = True


def build_das(policy: MrrmPolicy, scan: list[tuple[AccessId, float]]) -> AccessSets:
    """Filter the scan into the detected access set by network ban and radio floor."""
    scanned = frozenset(access for access, _score in scan)
    das = frozenset(
        access
        for access, score in scan
        if access.network_id not in policy.forbidden_networks
        and score >= policy.min_radio_score
    )
    return AccessSets(scanned=scanned, das=das)


def select_cas_aas(
    policy: MrrmPolicy,
    das_sets: AccessSets,
    radio: Mapping[AccessId, float],
    ratings: tuple[Rating, ...],
) -> tuple[AccessSets, dict[AccessId, float]]:
    """Derive CAS (usable paths) and AAS (best combined score) from the ratings.

    The combined score weighs MRRM's own radio score from its scan (0 for an
    access the scan did not see) against the path score in the rating. Ties on
    the combined score go to the lexicographically smallest (network_id,
    cell_id). Ratings must cover only DAS members.
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
    """Return the handover target, if any.

    incumbent is the flow's current access, None before its first attachment.
    A challenger wins only by beating the incumbent's combined score by more
    than the hysteresis margin, or when the incumbent dropped out of the DAS.
    """
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


def notify_flow_management(
    flow: int, previous: QosSpec | None, provided: QosSpec
) -> HandoverOccurred | None:
    """QoS-change indication; suppressed when the grant did not change."""
    if previous == provided:
        return None
    return HandoverOccurred(flow=flow, provided_qos=provided)


@dataclass(frozen=True)
class _RadioView:
    """One scan as the decision cycles see it; shared read-only by the flows of a tick.

    All but ``radio`` derive from the scanned accesses and their DAS membership
    alone, and are shared with the views of later ticks while those hold. The
    sorted key lists go into every snapshot taken on this view as they are.
    """

    sets: AccessSets
    radio: dict[AccessId, float]
    candidates: tuple[AccessId, ...]
    das_keys: list[str]
    scanned_keys: list[str]


@dataclass(frozen=True)
class _Outcome:
    """CAS/AAS derived from one view and one ConstraintResponse; shared read-only."""

    sets: AccessSets
    combined: dict[AccessId, float]
    aas_keys: list[str]
    cas_keys: list[str]


@dataclass
class _CycleState:
    flow: int
    establishing: bool
    view: _RadioView


@dataclass
class _PendingHandover:
    flow: int
    establishing: bool
    target: AccessId
    granted: QosSpec | None = None


class Mrrm:
    """The MRRM functional entity."""

    def __init__(
        self,
        kernel: Kernel,
        recorder: TraceRecorder,
        env: Environment,
        policy: MrrmPolicy,
        flow_table,
    ) -> None:
        self._kernel = kernel
        self._recorder = recorder
        self._env = env
        self.policy = policy
        self._table = flow_table
        self._cycles: deque[_CycleState] = deque()
        self._inflight: _PendingHandover | None = None
        self._deferred_setups: deque[AccessFlowSetup] = deque()
        # The last view built and the scanned accesses with their DAS
        # membership that it was built from.
        self._view: _RadioView | None = None
        self._view_membership: list[tuple[AccessId, bool]] | None = None
        # The outcomes of _outcome_view, by the id of their response; the
        # entry holds the response, so its id stays its own.
        self._outcome_view: _RadioView | None = None
        self._outcomes: dict[int, tuple[ConstraintResponse, _Outcome]] = {}
        # Each flow's last request and last snapshot params.
        self._requests: dict[int, ConstraintRequest] = {}
        self._snapshots: dict[int, dict] = {}

    # -- event handling -----------------------------------------------------------

    def handle(self, event: SimEvent) -> None:
        payload = event.payload
        match payload:
            case AccessFlowSetup():
                self._on_flow_setup(payload)
            case ConstraintResponse():
                self._on_constraints(payload)
            case HOComplete():
                self._on_ho_complete(payload)
            case LinkAttachRequest():
                self._relay_attach(payload)
            case LinkSwitchRequest():
                self._relay_switch(payload)
            case LinkDetachRequest():
                self._relay_detach(payload)
            case HandoverOccurredResponse():
                pass

    def tick(self) -> None:
        """Run one periodic decision cycle for every active flow, all on one scan."""
        records = self._table.active_records()
        if not records:
            return
        view = self._radio_view()
        for record in records:
            self._start_cycle(record.flow, establishing=False, view=view)

    # -- decision cycle -------------------------------------------------------------

    def _radio_view(self) -> _RadioView:
        scan = self._env.scan(self._kernel.now)
        forbidden, floor = self.policy.forbidden_networks, self.policy.min_radio_score
        membership = [
            (access, access.network_id not in forbidden and score >= floor)
            for access, score in scan
        ]
        if membership == self._view_membership:
            last = self._view
            self._view = _RadioView(
                sets=last.sets,
                radio=dict(scan),
                candidates=last.candidates,
                das_keys=last.das_keys,
                scanned_keys=last.scanned_keys,
            )
            return self._view
        sets = build_das(self.policy, scan)
        self._view = _RadioView(
            sets=sets,
            radio=dict(scan),
            candidates=tuple(sorted(sets.das, key=access_sort_key)),
            das_keys=sorted(a.key for a in sets.das),
            scanned_keys=sorted(a.key for a in sets.scanned),
        )
        self._view_membership = membership
        return self._view

    def _start_cycle(self, flow: int, establishing: bool, view: _RadioView) -> None:
        self._cycles.append(_CycleState(flow=flow, establishing=establishing, view=view))
        request = self._requests.get(flow)
        if request is None or request.candidates is not view.candidates:
            request = ConstraintRequest(flow=flow, candidates=view.candidates)
            self._requests[flow] = request
        self._send(FE_PATH_SELECTION, request)

    def _on_flow_setup(self, setup: AccessFlowSetup) -> None:
        if self._inflight is not None:
            self._deferred_setups.append(setup)
            return
        self._start_cycle(setup.flow, establishing=True, view=self._radio_view())

    def _on_constraints(self, response: ConstraintResponse) -> None:
        cycle = self._cycles.popleft()
        view = cycle.view
        if view is not self._outcome_view:
            self._outcomes.clear()
            self._outcome_view = view
        entry = self._outcomes.get(id(response))
        if entry is None:
            sets, combined = select_cas_aas(self.policy, view.sets, view.radio, response.ratings)
            entry = self._outcomes[id(response)] = (response, _Outcome(
                sets=sets,
                combined=combined,
                aas_keys=sorted(a.key for a in sets.aas),
                cas_keys=sorted(a.key for a in sets.cas),
            ))
        outcome = entry[1]
        self._snapshot(cycle.flow, view, outcome)
        sets, combined = outcome.sets, outcome.combined
        record = self._table.get(cycle.flow)
        if cycle.establishing:
            self._finish_establishment_cycle(record, sets)
            return
        if self._inflight is not None or record is None or record.state != "active":
            return
        target = decide_handover(self.policy, record.current_access, sets, combined)
        if target is not None:
            self._emit_request(record, current=record.current_access, target=target,
                               establishing=False)

    def _finish_establishment_cycle(self, record, sets: AccessSets) -> None:
        if self._inflight is not None:
            # A handover started while this cycle was in flight; try again after it.
            self._deferred_setups.append(
                AccessFlowSetup(flow=record.flow, requested_qos=record.requested)
            )
            return
        target = sets.active
        if target is None:
            self._send(
                FE_FLOW_MANAGEMENT,
                AccessFlowSetupResponse(result=Result.failure("no_access"), granted_qos=None),
            )
            self._drain_deferred()
            return
        self._emit_request(record, current=None, target=target, establishing=True)

    def _emit_request(
        self, record, current: AccessId | None, target: AccessId, establishing: bool
    ) -> None:
        self._inflight = _PendingHandover(
            flow=record.flow, establishing=establishing, target=target
        )
        self._send(
            FE_HOLM,
            HOExecutionRequest(
                flow=record.flow,
                current=current,
                target=target,
                mbb_flag=self.policy.mbb_capable,
            ),
        )

    def _on_ho_complete(self, complete: HOComplete) -> None:
        pending = self._inflight
        if pending is None:
            return  # completion for a request this entity never issued
        self._inflight = None
        record = self._table.get(pending.flow)
        succeeded = complete.result.ok and pending.granted is not None
        if pending.establishing:
            if succeeded:
                record.current_access = pending.target
                record.granted_qos = pending.granted
                response = AccessFlowSetupResponse(
                    result=Result.success(), granted_qos=pending.granted
                )
            else:
                reason = complete.result.reason or "setup_failed"
                response = AccessFlowSetupResponse(
                    result=Result.failure(reason), granted_qos=None
                )
            self._send(FE_FLOW_MANAGEMENT, response)
        elif succeeded:
            previous = record.granted_qos
            record.current_access = pending.target
            record.granted_qos = pending.granted
            indication = notify_flow_management(pending.flow, previous, pending.granted)
            if indication is not None:
                self._send(FE_FLOW_MANAGEMENT, indication)
        self._drain_deferred()

    def _drain_deferred(self) -> None:
        if self._inflight is None and self._deferred_setups:
            setup = self._deferred_setups.popleft()
            self._start_cycle(setup.flow, establishing=True, view=self._radio_view())

    # -- link command relay ------------------------------------------------------------

    def _relay_attach(self, request: LinkAttachRequest) -> None:
        def done(result: Result, granted: QosSpec | None) -> None:
            self._capture_grant(request.flow, result, granted)
            self._send(FE_HOLM, LinkAttachResponse(result=result, granted_qos=granted))

        self._env.link_attach(request.flow, request.target, request.requested_qos, done)

    def _relay_switch(self, request: LinkSwitchRequest) -> None:
        def attached(result: Result, granted: QosSpec | None) -> None:
            self._capture_grant(request.flow, result, granted)
            self._send(FE_HOLM, LinkSwitchResponse(result=result, granted_qos=granted))

        def detached(result: Result) -> None:
            if not result.ok:
                self._send(FE_HOLM, LinkSwitchResponse(result=result, granted_qos=None))
                return
            self._env.link_attach(request.flow, request.target, request.requested_qos, attached)

        self._env.link_detach(request.flow, request.current, detached)

    def _relay_detach(self, request: LinkDetachRequest) -> None:
        self._env.link_detach(
            request.flow,
            request.current,
            lambda result: self._send(FE_HOLM, LinkDetachResponse(result=result)),
        )

    def _capture_grant(self, flow: int, result: Result, granted: QosSpec | None) -> None:
        if result.ok and self._inflight is not None and self._inflight.flow == flow:
            self._inflight.granted = granted

    # -- helpers ---------------------------------------------------------------------

    def _snapshot(self, flow: int, view: _RadioView, outcome: _Outcome) -> None:
        # The key lists are shared by every snapshot of the same view and
        # outcome; the flow's last params are recorded again while they hold.
        params = self._snapshots.get(flow)
        if (
            params is None
            or params["aas"] != outcome.aas_keys
            or params["cas"] != outcome.cas_keys
            or params["das"] != view.das_keys
            or params["scanned"] != view.scanned_keys
        ):
            params = self._snapshots[flow] = {
                "aas": outcome.aas_keys,
                "cas": outcome.cas_keys,
                "das": view.das_keys,
                "flow": flow,
                "scanned": view.scanned_keys,
            }
        self._recorder.annotate(
            self._kernel.now, FE_MRRM, FE_MRRM, ANNOTATION_ACCESS_SETS, params
        )

    def _send(self, receiver: str, payload) -> None:
        self._kernel.schedule(0, FE_MRRM, receiver, payload)
