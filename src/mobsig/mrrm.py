"""Multi-radio resource management: scanning, access selection, handover trigger.

Each decision cycle starts from a radio view: one environment scan narrowed to
the detected access set (DAS) by policy. The cycle asks path selection for
ratings, derives the candidate and active sets (CAS / AAS) and decides whether
to request a handover. The radio environment belongs to the terminal, not to a
flow, so a periodic tick scans once and shares that view with every active
flow's cycle; an establishment cycle scans at its own time. The detected set
changes only at cell borders, so MRRM keeps the last view as it is, across
ticks, while a scan finds the same accesses in the same order, each in or out
of the DAS as before; each cycle carries its own scan's radio scores. The scan
lists its hits in cell_id rank order, so that check holds exactly when
`build_das` would give equal sets, and `build_das` runs only on a new view.

What a view derives lives on that view, and goes with it: each flow's
ConstraintRequest; for each ConstraintResponse, the CAS, its sorted keys, the
weighted path scores and the last selection; for each winning access, the
AccessSets, the sorted AAS keys and each flow's snapshot. Path selection
answers flows that request equal QoS on one view with the same
ConstraintResponse, so the cycles of one tick that got it select once, on
that tick's radio scores. A cycle, on any tick, sends or records again the
objects derived before, so the trace writer renders each of them once. No two
flows share a request or a snapshot, since both carry the flow id.
Link commands arriving from the handover orchestrator are relayed to the
environment, since only MRRM touches radio resources.

Handovers are serialized node-globally: completion primitives carry no flow id,
so at most one execution request is in flight at a time and flow setups that
arrive meanwhile queue up.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Mapping

from .core import (
    AccessFlowSetup,
    AccessFlowSetupResponse,
    AccessId,
    AccessSets,
    AccessSetsSnapshot,
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
from .simkernel import Kernel


@dataclass(frozen=True, eq=False, repr=False)
class MrrmPolicy:
    """Per-node access selection policy."""

    forbidden_networks: frozenset[str]
    min_radio_score: float
    hysteresis: float
    weight_radio: float
    weight_path: float
    mbb_capable: bool


def build_das(policy: MrrmPolicy, scan: list[tuple[AccessId, float]]) -> AccessSets:
    """Filter the scan into the detected access set by network ban and radio floor."""
    scanned = frozenset(access for access, _score in scan)
    das = frozenset(
        access
        for access, score in scan
        if access.network_id not in policy.forbidden_networks
        and score >= policy.min_radio_score
    )
    return AccessSets(scanned, das)


def derive_cas(
    policy: MrrmPolicy, ratings: tuple[Rating, ...]
) -> tuple[frozenset[AccessId], dict[AccessId, float]]:
    """Derive CAS (usable paths) and each rated access's weighted path score.

    Path selection rates exactly the request's candidates, the DAS. Neither
    result depends on the radio scores, so both hold for every cycle on the
    same ratings.
    """
    cas = frozenset(r.access for r in ratings if r.path_score > 0.0)
    path = {r.access: policy.weight_path * r.path_score for r in ratings}
    return cas, path


def select_aas(
    policy: MrrmPolicy,
    cas_order: tuple[AccessId, ...],
    radio: Mapping[AccessId, float],
    path: Mapping[AccessId, float],
) -> tuple[AccessId | None, dict[AccessId, float]]:
    """Return the AAS member (the CAS access with the best combined score) and
    the combined scores of every rated access.

    The combined score weighs MRRM's own radio score from its scan (0 for an
    access the scan did not see) against the weighted path score. cas_order is
    the CAS sorted by access_sort_key, so ties on the combined score go to the
    lexicographically smallest (network_id, cell_id).
    """
    weight_radio = policy.weight_radio
    combined = {}
    for access, score in path.items():
        combined[access] = weight_radio * radio.get(access, 0.0) + score
    best = None
    for access in cas_order:
        if best is None or combined[access] > combined[best]:
            best = access
    return best, combined


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
    return HandoverOccurred(flow, provided)


@dataclass(frozen=True, eq=False, repr=False)
class _RadioView:
    """A scan's accesses and DAS membership as the decision cycles see them.

    Shared by the cycles of a tick, and by the ticks after it while their
    scans give an equal `held`: each scanned access, in scan order, with
    whether it is in the DAS. The radio scores belong to one scan and travel
    in each cycle. The sorted key lists go into every snapshot taken on this
    view as they are.
    """

    held: list[tuple[AccessId, bool]]
    sets: AccessSets
    candidates: tuple[AccessId, ...]
    das_keys: list[str]
    scanned_keys: list[str]
    # Each flow's request on this view.
    requests: dict[int, ConstraintRequest] = field(default_factory=dict)
    # What each response fixes, by the id of the response; the entry holds
    # the response, so its id stays its own.
    rated: dict[int, tuple[ConstraintResponse, _Rated]] = field(default_factory=dict)


_Outcome = tuple[AccessSets, list[str], dict[int, AccessSetsSnapshot]]


@dataclass(eq=False, repr=False)
class _Rated:
    """What one view and one ConstraintResponse fix for every cycle on them."""

    cas: frozenset[AccessId]
    path: dict[AccessId, float]
    cas_order: tuple[AccessId, ...]
    cas_keys: list[str]
    # The AccessSets, sorted AAS keys and each flow's snapshot of each
    # winning access seen so far.
    outcomes: dict[AccessId | None, _Outcome]
    # The last selection: its radio scores, the combined scores and the
    # winner's outcome. The cycles of a tick share the radio scores, so those
    # that got this response select once.
    last: tuple[dict[AccessId, float], dict[AccessId, float], _Outcome] | None = None


@dataclass(eq=False, repr=False)
class _PendingHandover:
    """The one handover in flight: its flow, kind, target and granted QoS."""

    flow: int
    establishing: bool
    target: AccessId
    granted: QosSpec | None = None


class Mrrm:
    """The MRRM functional entity."""

    def __init__(
        self,
        kernel: Kernel,
        env: Environment,
        policy: MrrmPolicy,
        flow_table,
    ) -> None:
        self._kernel = kernel
        self._env = env
        self.policy = policy
        self._table = flow_table
        # Each cycle in flight: (flow, establishing, view, radio scores).
        self._cycles: deque[tuple[int, bool, _RadioView, dict[AccessId, float]]] = deque()
        self._inflight: _PendingHandover | None = None
        self._deferred_setups: deque[AccessFlowSetup] = deque()
        # The last view built; kept while the scans give an equal `held`.
        self._view: _RadioView | None = None

    # -- event handling -----------------------------------------------------------

    def handle(self, payload) -> None:
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
        view = None
        for record in self._table.values():
            if record.state == "active":
                if view is None:
                    view, radio = self._radio_view()
                self._start_cycle(record.flow, view, radio, establishing=False)

    # -- decision cycle -------------------------------------------------------------

    def _radio_view(self) -> tuple[_RadioView, dict[AccessId, float]]:
        """Scan now: the view, the last one while it holds, and the radio scores."""
        scan = self._env.scan(self._kernel.now)
        policy = self.policy
        floor, forbidden = policy.min_radio_score, policy.forbidden_networks
        held = []
        for access, score in scan:
            held.append((access, score >= floor and access.network_id not in forbidden))
        view = self._view
        if view is None or held != view.held:
            sets = build_das(policy, scan)
            view = self._view = _RadioView(
                held=held,
                sets=sets,
                candidates=tuple(sorted(sets.das, key=access_sort_key)),
                das_keys=sorted(map(attrgetter("key"), sets.das)),
                scanned_keys=sorted(map(attrgetter("key"), sets.scanned)),
            )
        return view, dict(scan)

    def _start_cycle(
        self, flow: int, view: _RadioView, radio: dict[AccessId, float], establishing: bool
    ) -> None:
        self._cycles.append((flow, establishing, view, radio))
        request = view.requests.get(flow)
        if request is None:
            request = view.requests[flow] = ConstraintRequest(flow, view.candidates)
        self._kernel.schedule(0, request)

    def _on_flow_setup(self, setup: AccessFlowSetup) -> None:
        if self._inflight is not None:
            self._deferred_setups.append(setup)
            return
        self._start_cycle(setup.flow, *self._radio_view(), establishing=True)

    def _on_constraints(self, response: ConstraintResponse) -> None:
        flow, establishing, view, radio = self._cycles.popleft()
        rated = self._rate(view, response)
        last = rated.last
        if last is None or last[0] is not radio:
            winner, combined = select_aas(self.policy, rated.cas_order, radio, rated.path)
            outcome = rated.outcomes.get(winner)
            if outcome is None:
                aas = frozenset() if winner is None else frozenset({winner})
                sets = AccessSets(view.sets.scanned, view.sets.das, rated.cas, aas)
                outcome = rated.outcomes[winner] = (sets, sorted(map(attrgetter("key"), aas)), {})
            last = rated.last = (radio, combined, outcome)
        _radio, combined, (sets, aas_keys, snapshots) = last
        snapshot = snapshots.get(flow)
        if snapshot is None:
            snapshot = snapshots[flow] = AccessSetsSnapshot(
                aas_keys, rated.cas_keys, view.das_keys, flow, view.scanned_keys
            )
        self._kernel.annotate(snapshot)
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

    def _rate(self, view: _RadioView, response: ConstraintResponse) -> _Rated:
        """What view and response fix for a cycle, derived at their first cycle."""
        entry = view.rated.get(id(response))
        if entry is None:
            cas, path = derive_cas(self.policy, response.ratings)
            entry = view.rated[id(response)] = (response, _Rated(
                cas=cas,
                path=path,
                cas_order=tuple(sorted(cas, key=access_sort_key)),
                cas_keys=sorted(map(attrgetter("key"), cas)),
                outcomes={},
            ))
        return entry[1]

    def _finish_establishment_cycle(self, record, sets: AccessSets) -> None:
        if self._inflight is not None:
            # A handover started while this cycle was in flight; try again after it.
            self._deferred_setups.append(AccessFlowSetup(record.flow, record.requested))
            return
        target = sets.active
        if target is None:
            self._kernel.schedule(0, AccessFlowSetupResponse(Result.failure("no_access"), None))
            self._drain_deferred()
            return
        self._emit_request(record, current=None, target=target, establishing=True)

    def _emit_request(
        self, record, current: AccessId | None, target: AccessId, establishing: bool
    ) -> None:
        self._inflight = _PendingHandover(
            flow=record.flow, establishing=establishing, target=target
        )
        self._kernel.schedule(
            0, HOExecutionRequest(record.flow, current, target, self.policy.mbb_capable)
        )

    def _on_ho_complete(self, complete: HOComplete) -> None:
        pending = self._inflight
        assert pending is not None, "a completion for a request never issued"
        self._inflight = None
        record = self._table.get(pending.flow)
        # A success ran an attach or switch step, and each captured its grant.
        succeeded = complete.result.ok
        assert not succeeded or pending.granted is not None
        if pending.establishing:
            if succeeded:
                record.current_access = pending.target
                record.granted_qos = pending.granted
                response = AccessFlowSetupResponse(Result.success(), pending.granted)
            else:
                response = AccessFlowSetupResponse(Result.failure(complete.result.reason), None)
            self._kernel.schedule(0, response)
        elif succeeded:
            previous = record.granted_qos
            record.current_access = pending.target
            record.granted_qos = pending.granted
            indication = notify_flow_management(pending.flow, previous, pending.granted)
            if indication is not None:
                self._kernel.schedule(0, indication)
        self._drain_deferred()

    def _drain_deferred(self) -> None:
        if self._inflight is None and self._deferred_setups:
            setup = self._deferred_setups.popleft()
            self._start_cycle(setup.flow, *self._radio_view(), establishing=True)

    # -- link command relay ------------------------------------------------------------

    def _relay_attach(self, request: LinkAttachRequest) -> None:
        def done(result: Result, granted: QosSpec | None) -> None:
            self._capture_grant(request.flow, result, granted)
            self._kernel.schedule(0, LinkAttachResponse(result, granted))

        self._env.link_attach(request.flow, request.target, request.requested_qos, done)

    def _relay_switch(self, request: LinkSwitchRequest) -> None:
        def attached(result: Result, granted: QosSpec | None) -> None:
            self._capture_grant(request.flow, result, granted)
            self._kernel.schedule(0, LinkSwitchResponse(result, granted))

        def detached(result: Result) -> None:
            if not result.ok:
                self._kernel.schedule(0, LinkSwitchResponse(result, None))
                return
            self._env.link_attach(request.flow, request.target, request.requested_qos, attached)

        self._env.link_detach(request.flow, request.current, detached)

    def _relay_detach(self, request: LinkDetachRequest) -> None:
        self._env.link_detach(
            request.flow,
            request.current,
            lambda result: self._kernel.schedule(0, LinkDetachResponse(result)),
        )

    def _capture_grant(self, flow: int, result: Result, granted: QosSpec | None) -> None:
        if result.ok and self._inflight is not None and self._inflight.flow == flow:
            self._inflight.granted = granted
