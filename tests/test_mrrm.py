"""Access selection policy, handover decisions, and the MRRM entity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mrrm_oracle
from mobsig import mrrm, simulation
from mobsig.core import (
    ANNOTATION_ACCESS_SETS,
    FE_FLOW_MANAGEMENT,
    FE_HOLM,
    FE_MRRM,
    FE_PATH_SELECTION,
    AccessId,
    AccessSets,
    ConstraintRequest,
    HOComplete,
    LinkAttachRequest,
    LinkSwitchRequest,
    QosSpec,
    Rating,
    Result,
    access_sort_key,
)
from mobsig.environment import Trajectory
from mobsig.flowmgmt import FlowRecord
from mobsig.mrrm import (
    build_das,
    decide_handover,
    derive_cas,
    notify_flow_management,
    select_aas,
)
from mobsig.path_selection import PathModel
from mobsig.scenario import parse_scenario
from mobsig.simkernel import Kernel, SimulationError, TraceRecorder

from support import REQUESTED, Node, is_nested, make_cell, make_policy

A = AccessId(cell_id="cell-a", network_id="net-1", rat="wlan")
B = AccessId(cell_id="cell-b", network_id="net-2", rat="cellular")
POOL = tuple(AccessId(cell_id=f"cell-{i}", network_id=f"net-{i % 2}", rat="wlan") for i in range(4))


class TestBuildDas:
    def test_filters_forbidden_networks_and_weak_radio(self):
        policy = make_policy(forbidden_networks=frozenset({"net-2"}), min_radio_score=0.3)
        scan = [(A, 0.9), (B, 0.9), (AccessId("cell-c", "net-3", "wlan"), 0.1)]
        sets = build_das(policy, scan)
        assert sets.scanned == frozenset(a for a, _ in scan)
        assert sets.das == frozenset({A})

    def test_radio_floor_is_inclusive(self):
        sets = build_das(make_policy(min_radio_score=0.5), [(A, 0.5)])
        assert sets.das == frozenset({A})


def select_cas_aas(policy, das_sets, radio, ratings):
    """derive_cas, then select_aas, composed as one MRRM cycle composes them."""
    cas, path = derive_cas(policy, ratings)
    winner, combined = select_aas(policy, tuple(sorted(cas, key=access_sort_key)), radio, path)
    aas = frozenset() if winner is None else frozenset({winner})
    return AccessSets(scanned=das_sets.scanned, das=das_sets.das, cas=cas, aas=aas), combined


class TestSelectCasAas:
    def test_unscanned_access_has_radio_score_zero(self):
        sets = AccessSets(scanned=frozenset({A, B}), das=frozenset({A, B}))
        _, combined = select_cas_aas(
            make_policy(), sets, {A: 0.8}, (Rating(A, 0.5), Rating(B, 0.4))
        )
        assert combined == {A: 0.5 * 0.8 + 0.5 * 0.5, B: 0.5 * 0.0 + 0.5 * 0.4}

    def test_weighted_combination_picks_the_best(self):
        sets = AccessSets(scanned=frozenset({A, B}), das=frozenset({A, B}))
        radio = {A: 0.9, B: 0.2}
        ratings = (Rating(A, 0.2), Rating(B, 1.0))
        # combined: A = 0.55, B = 0.60
        selected, combined = select_cas_aas(make_policy(), sets, radio, ratings)
        assert selected.aas == frozenset({B})
        assert combined[A] == pytest.approx(0.55)
        assert combined[B] == pytest.approx(0.60)

    def test_zero_path_score_is_not_a_candidate(self):
        sets = AccessSets(scanned=frozenset({A, B}), das=frozenset({A, B}))
        selected, _ = select_cas_aas(
            make_policy(), sets, {A: 1.0, B: 0.0}, (Rating(A, 0.0), Rating(B, 0.5))
        )
        assert selected.cas == frozenset({B})
        assert selected.aas == frozenset({B})

    def test_ties_break_lexicographically(self):
        sets = AccessSets(scanned=frozenset({A, B}), das=frozenset({A, B}))
        selected, _ = select_cas_aas(
            make_policy(), sets, {A: 0.5, B: 0.5}, (Rating(B, 0.5), Rating(A, 0.5))
        )
        assert selected.active == A  # net-1 sorts before net-2

    def test_no_candidates_no_active(self):
        sets = AccessSets(scanned=frozenset({A}), das=frozenset({A}))
        selected, _ = select_cas_aas(make_policy(), sets, {A: 1.0}, (Rating(A, 0.0),))
        assert selected.cas == frozenset() and selected.active is None

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(min_value=0.0, max_value=1.0),
            ),
            max_size=4,
            unique_by=lambda t: t[0],
        )
    )
    def test_selection_keeps_the_sets_nested(self, rated):
        das = frozenset(POOL)
        radio = {POOL[i]: score for i, _, score in rated}
        ratings = tuple(Rating(POOL[i], path) for i, path, _ in rated)
        selected, _ = select_cas_aas(
            make_policy(), AccessSets(scanned=das, das=das), radio, ratings
        )
        assert is_nested(selected)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.sampled_from((0.0, 0.25, 0.5, 1.0)),
                st.sampled_from((0.0, 0.25, 0.5, 1.0)),
            ),
            max_size=4,
            unique_by=lambda t: t[0],
        ),
        st.sampled_from((0.0, 0.25, 0.5, 1.0)),
    )
    def test_derive_then_select_equals_the_reference(self, rated, weight_radio):
        # Scores from a few values make ties on the combined score common.
        policy = make_policy(weight_radio=weight_radio, weight_path=1.0 - weight_radio)
        das = frozenset(POOL)
        radio = {POOL[i]: score for i, _, score in rated}
        ratings = tuple(Rating(POOL[i], path) for i, path, _ in rated)
        sets = AccessSets(scanned=das, das=das)
        assert select_cas_aas(policy, sets, radio, ratings) == mrrm_oracle.select_cas_aas(
            policy, sets, radio, ratings
        )


class TestDecideHandover:
    # powers of two keep the comparisons exact
    POLICY = make_policy(hysteresis=0.125)

    @staticmethod
    def sets(das, active):
        return AccessSets(
            scanned=frozenset(das),
            das=frozenset(das),
            cas=frozenset(das),
            aas=frozenset({active} if active else ()),
        )

    def test_needs_strictly_more_than_hysteresis(self):
        new = self.sets({A, B}, B)
        exactly_at_margin = {A: 0.5, B: 0.625}
        assert decide_handover(self.POLICY, A, new, exactly_at_margin) is None
        above_margin = {A: 0.5, B: 0.75}
        assert decide_handover(self.POLICY, A, new, above_margin) == B

    def test_no_winner_or_same_winner_means_stay(self):
        assert decide_handover(self.POLICY, A, self.sets({A}, None), {A: 1.0}) is None
        assert decide_handover(self.POLICY, A, self.sets({A}, A), {A: 1.0}) is None
        assert decide_handover(self.POLICY, None, self.sets(set(), None), {}) is None

    def test_first_attachment_has_no_incumbent(self):
        assert decide_handover(self.POLICY, None, self.sets({B}, B), {B: 0.1}) == B

    def test_incumbent_dropping_out_of_das_forces_the_move(self):
        new = self.sets({B}, B)
        # B scores far worse than A did; it still wins because A is gone
        assert decide_handover(self.POLICY, A, new, {B: 0.05}) == B


class TestNotifyFlowManagement:
    def test_suppressed_when_qos_unchanged(self):
        qos = QosSpec(800, 90)
        assert notify_flow_management(1, qos, qos) is None

    def test_emitted_on_change_or_first_grant(self):
        indication = notify_flow_management(1, QosSpec(1000, 80), QosSpec(800, 90))
        assert indication is not None and indication.provided_qos == QosSpec(800, 90)
        assert notify_flow_management(1, None, QosSpec(800, 90)) is not None


def moving_node(**kwargs) -> Node:
    """Two separated cells and a west-to-east crossing, as a wired node."""
    cells = (
        make_cell(),
        make_cell(
            cell_id="cell-b",
            network_id="net-2",
            rat="cellular",
            center=(800.0, 0.0),
            capacity=kwargs.pop("capacity_b", (800, 90)),
        ),
    )
    trajectory = Trajectory(waypoints=((0, (0.0, 0.0)), (10_000_000, (1000.0, 0.0))))
    return Node(cells=cells, trajectory=trajectory, **kwargs)


class TestMrrmEntity:
    def test_establishment_answers_flow_setup(self):
        node = moving_node()
        node.flow_management.start_flow(1)
        node.run()
        record = node.table.get(1)
        assert record.state == "active"
        assert record.current_access == A
        assert record.granted_qos == REQUESTED  # cell-a capacity is ample
        responses = [r for r in node.records() if r.name == "AccessFlowSetupResponse"]
        assert len(responses) == 1 and responses[0].params["result"] == "success"

    def test_snapshot_annotation_lists_sorted_keys(self):
        node = moving_node()
        node.flow_management.start_flow(1)
        node.run()
        snapshots = [r for r in node.records() if r.name == ANNOTATION_ACCESS_SETS]
        assert snapshots, "every decision cycle leaves a snapshot"
        params = snapshots[0].params
        assert set(params) == {"aas", "cas", "das", "flow", "scanned"}
        assert params["flow"] == 1
        assert params["aas"] == ["net-1/cell-a"]
        assert params["scanned"] == ["net-1/cell-a"]  # cell-b out of range at t=0

    def test_tick_triggers_handover_and_qos_indication(self):
        node = moving_node()
        node.flow_management.start_flow(1)
        node.run()
        node.kernel.call_later(6_000_000, node.mrrm.tick, FE_MRRM)
        node.run()
        requests = [r for r in node.records() if r.name == "HOExecutionRequest"]
        assert len(requests) == 2  # establishment plus one handover
        handover = requests[1].params
        assert handover["current"]["cell_id"] == "cell-a"
        assert handover["target"]["cell_id"] == "cell-b"
        assert handover["mbb_flag"] is True
        assert node.table.get(1).current_access == B
        occurred = [r for r in node.records() if r.name == "HandoverOccurred"]
        assert len(occurred) == 1
        assert occurred[0].params["provided_qos"] == {"bandwidth_kbps": 800, "max_latency_ms": 90}
        acks = [r for r in node.records() if r.name == "HandoverOccurredResponse"]
        assert len(acks) == 1

    def test_indication_suppressed_when_grant_is_unchanged(self):
        node = moving_node(capacity_b=(2000, 40))
        node.flow_management.start_flow(1)
        node.run()
        node.kernel.call_later(6_000_000, node.mrrm.tick, FE_MRRM)
        node.run()
        assert node.table.get(1).current_access == B
        assert not any(r.name == "HandoverOccurred" for r in node.records())

    def test_concurrent_setups_are_serialized(self):
        node = moving_node(
            flows=(FlowRecord(flow=1, requested=REQUESTED), FlowRecord(flow=2, requested=REQUESTED))
        )
        node.flow_management.start_flow(1)
        node.flow_management.start_flow(2)
        node.run()
        assert node.table.get(1).state == "active"
        assert node.table.get(2).state == "active"
        names = [r.name for r in node.records() if r.name in ("HOExecutionRequest", "HOComplete")]
        assert names == ["HOExecutionRequest", "HOComplete", "HOExecutionRequest", "HOComplete"]

    def test_stray_completion_is_an_error(self):
        node = moving_node()
        node.kernel.schedule(0, HOComplete(result=Result.success()))
        with pytest.raises(SimulationError, match="a completion for a request never issued"):
            node.run()
        assert not any(
            r.name in ("AccessFlowSetupResponse", "HandoverOccurred")
            for r in node.records()
        )

    def test_attach_relay_reports_coverage_failures(self):
        node = moving_node()
        node.kernel.register(FE_HOLM, lambda payload: None)  # it sent no request
        node.kernel.schedule(0, LinkAttachRequest(flow=1, target=B, requested_qos=REQUESTED))
        node.run()
        responses = [r for r in node.records() if r.name == "LinkAttachResponse"]
        assert responses[0].params == {
            "granted_qos": None,
            "reason": "out_of_coverage",
            "result": "failure",
        }

    def test_switch_relay_short_circuits_on_detach_failure(self):
        node = moving_node()
        node.kernel.register(FE_HOLM, lambda payload: None)  # it sent no request
        node.kernel.schedule(
            0,
            LinkSwitchRequest(flow=1, current=A, target=B, requested_qos=REQUESTED),
        )
        node.run()
        responses = [r for r in node.records() if r.name == "LinkSwitchResponse"]
        assert responses[0].params["result"] == "failure"
        assert responses[0].params["reason"] == "not_attached"


class TestScanPerTick:
    """The radio environment belongs to the terminal: a tick scans once for all flows."""

    DELAY_US = 1_000_000

    def node_with_active_flows(self):
        cells = (
            make_cell(),
            make_cell(cell_id="cell-b", network_id="net-2", rat="cellular", center=(300.0, 0.0)),
        )
        flows = tuple(FlowRecord(flow=flow, requested=REQUESTED) for flow in (1, 2, 3, 4))
        node = Node(cells=cells, flows=flows)
        for flow in (1, 2, 3):
            node.flow_management.start_flow(flow)
        node.run()
        assert [r.flow for r in node.table.values() if r.state == "active"] == [1, 2, 3]
        scans = []
        scan = node.env.scan

        def counted(at_us):
            scans.append(at_us)
            return scan(at_us)

        node.env.scan = counted
        return node, scans, node.kernel.now + self.DELAY_US

    def requests_at(self, node, at_us):
        return [
            r.params
            for r in node.records()
            if r.name == "ConstraintRequest" and r.at == at_us
        ]

    def test_one_scan_shared_by_every_active_flow(self):
        node, scans, tick_at = self.node_with_active_flows()
        node.kernel.call_later(self.DELAY_US, node.mrrm.tick, FE_MRRM)
        node.run()
        assert scans == [tick_at]
        requests = self.requests_at(node, tick_at)
        assert [params["flow"] for params in requests] == [1, 2, 3]
        assert len({id(params) for params in requests}) == 3  # each flow its own
        assert len(requests[0]["candidates"]) == 2
        assert all(params["candidates"] == requests[0]["candidates"] for params in requests)

    def test_setup_in_the_same_instant_scans_for_itself(self):
        node, scans, tick_at = self.node_with_active_flows()
        node.kernel.call_later(self.DELAY_US, node.mrrm.tick, FE_MRRM)
        node.kernel.call_later(
            self.DELAY_US, lambda: node.flow_management.start_flow(4), FE_FLOW_MANAGEMENT
        )
        node.run()
        assert scans == [tick_at, tick_at]  # the tick's scan, then the setup's
        assert [params["flow"] for params in self.requests_at(node, tick_at)] == [1, 2, 3, 4]
        assert node.table.get(4).state == "active"

    def test_a_flow_that_is_not_active_gets_no_cycle(self):
        node, scans, tick_at = self.node_with_active_flows()
        node.table.get(2).state = "failed"
        node.kernel.call_later(self.DELAY_US, node.mrrm.tick, FE_MRRM)
        node.run()
        assert scans == [tick_at]
        # Flow 4 was never started, and flow 2 is no longer active.
        assert [params["flow"] for params in self.requests_at(node, tick_at)] == [1, 3]
        snapshots = [r for r in node.records()
                     if r.name == ANNOTATION_ACCESS_SETS and r.at == tick_at]
        assert [r.params["flow"] for r in snapshots] == [1, 3]

    def test_tick_without_active_flows_scans_nothing(self):
        node = moving_node()
        scans = []
        node.env.scan = lambda at_us: scans.append(at_us) or []
        node.mrrm.tick()
        node.run()
        assert scans == []
        assert not any(r.name == "ConstraintRequest" for r in node.records())


class TestSharedOutcomes:
    """Flows of one tick share an outcome only when they asked the same question."""

    # cell-b's path is 60 ms long: TIGHT excludes it, REQUESTED does not.
    TIGHT = QosSpec(bandwidth_kbps=1000, max_latency_ms=50)

    def established_node(self, qos_by_flow):
        """A still node whose flows, one per entry, are all set up."""
        cells = (
            make_cell(),
            make_cell(cell_id="cell-b", network_id="net-2", rat="cellular", center=(300.0, 0.0)),
        )
        models = {
            cells[0].access: PathModel(2000, 40, True),
            cells[1].access: PathModel(2000, 60, True),
        }
        flows = tuple(FlowRecord(flow=flow, requested=qos) for flow, qos in qos_by_flow.items())
        node = Node(cells=cells, flows=flows, path_models=models)
        for flow in qos_by_flow:
            node.flow_management.start_flow(flow)
        node.run()
        return node

    def tick_snapshots(self, qos_by_flow, ticks=1, node=None):
        """The snapshots of each tick, one list per tick."""
        node = node or self.established_node(qos_by_flow)
        tick_times = []
        for _ in range(ticks):
            tick_times.append(node.kernel.now + 1_000_000)
            node.kernel.call_later(1_000_000, node.mrrm.tick, FE_MRRM)
            node.run()
        return [[r for r in node.records()
                 if r.name == ANNOTATION_ACCESS_SETS and r.at == tick_at]
                for tick_at in tick_times]

    def test_each_qos_gets_its_own_sets_in_turn(self):
        [snapshots] = self.tick_snapshots(
            {1: REQUESTED, 2: self.TIGHT, 3: REQUESTED, 4: QosSpec(1000, 80)}
        )
        both, near = ["net-1/cell-a", "net-2/cell-b"], ["net-1/cell-a"]
        assert [(s.params["flow"], s.params["cas"]) for s in snapshots] == [
            (1, both), (2, near), (3, both), (4, both)
        ]
        assert all(s.params["das"] == both for s in snapshots)

    def test_one_derivation_per_qos_class_and_view(self, monkeypatch):
        qos_by_flow = {1: REQUESTED, 2: self.TIGHT, 3: REQUESTED, 4: QosSpec(1000, 90),
                       5: self.TIGHT}
        derived, selected = [], []
        derive, select = mrrm.derive_cas, mrrm.select_aas
        monkeypatch.setattr(mrrm, "derive_cas",
                            lambda *args: derived.append(args) or derive(*args))
        monkeypatch.setattr(mrrm, "select_aas",
                            lambda *args: selected.append(args) or select(*args))
        node = self.established_node(qos_by_flow)
        # The node stands still, so every scan keeps the setups' view: its
        # three QoS classes are derived once each, during the setups.
        assert len(derived) == 3 and len({id(ratings) for _p, ratings in derived}) == 3
        setup_cycles = len(selected)
        ticks = self.tick_snapshots(qos_by_flow, ticks=2, node=node)
        assert [[s.params["flow"] for s in snapshots] for snapshots in ticks] == [[1, 2, 3, 4, 5]] * 2
        assert len(derived) == 3
        # A tick selects once per response, on its own radio scores: the five
        # flows got three responses, one per QoS class, on each of two ticks.
        on_ticks = selected[setup_cycles:]
        assert len(on_ticks) == 6
        radios = [radio for _policy, _order, radio, _path in on_ticks]
        assert all(radio is radios[0] for radio in radios[:3])
        assert all(radio is radios[3] for radio in radios[3:]) and radios[3] is not radios[0]
        paths = [path for _policy, _order, _radio, path in on_ticks]
        assert len({id(path) for path in paths}) == 3

    def test_a_shared_outcome_keeps_each_flows_own_id(self):
        ticks = self.tick_snapshots({flow: REQUESTED for flow in (1, 2, 3)}, ticks=2)
        for snapshots in ticks:
            assert [s.params["flow"] for s in snapshots] == [1, 2, 3]
            first, *rest = snapshots
            for snapshot in rest:
                assert snapshot.params is not first.params
                assert {k: v for k, v in snapshot.params.items() if k != "flow"} == {
                    k: v for k, v in first.params.items() if k != "flow"
                }
        # The key lists hold from one tick to the next, so each flow records
        # its own params object again.
        earlier, later = ticks
        assert [s.params for s in later] == [s.params for s in earlier]
        assert all(b.params is a.params for a, b in zip(earlier, later))


class TestViewReuse:
    """A tick reuses the last view's sets while the scanned accesses and their DAS
    membership hold; only the radio scores are taken anew."""

    def run_ticks(self, cells, policy, end_xy, tick_times):
        trajectory = Trajectory(waypoints=((0, (0.0, 0.0)), (10_000_000, end_xy)))
        node = Node(cells=cells, policy=policy, trajectory=trajectory)
        requests = []
        rate = node.path_selection.handle

        def captured(payload):
            if isinstance(payload, ConstraintRequest):
                requests.append(payload)
            rate(payload)

        node.kernel.register(FE_PATH_SELECTION, captured)
        node.flow_management.start_flow(1)
        node.run()
        for at_us in tick_times:
            node.kernel.call_later(at_us - node.kernel.now, node.mrrm.tick, FE_MRRM)
            node.run()
        snapshots = {r.at: r.params for r in node.records()
                     if r.name == ANNOTATION_ACCESS_SETS}
        return requests, snapshots

    def test_a_score_crossing_the_radio_floor_changes_the_view(self):
        # Walking west from (0, 0), cell-b stays scanned while its score falls
        # from 0.5 through the 0.3 floor to 1 - 500 / 600.
        cells = (make_cell(), make_cell(cell_id="cell-b", network_id="net-2",
                                        rat="cellular", center=(300.0, 0.0)))
        requests, snapshots = self.run_ticks(
            cells, make_policy(min_radio_score=0.3), (-200.0, 0.0), (1_000_000, 10_000_000)
        )
        setup, held, crossed = requests
        assert setup.candidates == (A, B)
        assert held.candidates is setup.candidates
        assert crossed.candidates == (A,)
        both = ["net-1/cell-a", "net-2/cell-b"]
        assert [(s["scanned"], s["das"]) for s in snapshots.values()] == [
            (both, both), (both, both), (both, ["net-1/cell-a"])
        ]

    def test_a_held_view_is_derived_once_and_a_new_one_anew(self, monkeypatch):
        derived = []
        derive = mrrm.derive_cas
        monkeypatch.setattr(mrrm, "derive_cas", lambda *args: derived.append(args) or derive(*args))
        cells = (make_cell(), make_cell(cell_id="cell-b", network_id="net-2",
                                        rat="cellular", center=(300.0, 0.0)))
        self.run_ticks(cells, make_policy(min_radio_score=0.3), (-200.0, 0.0),
                       (1_000_000, 2_000_000, 10_000_000, 10_500_000))
        # The setup's view holds for two ticks; cell-b then leaves the DAS,
        # which path selection rates whole.
        rated = [frozenset(r.access for r in ratings) for _policy, ratings in derived]
        assert rated == [frozenset({A, B}), frozenset({A})]

    def test_a_flows_request_is_sent_again_while_the_candidates_hold(self):
        cells = (make_cell(), make_cell(cell_id="cell-b", network_id="net-2",
                                        rat="cellular", center=(300.0, 0.0)))
        requests, _snapshots = self.run_ticks(
            cells, make_policy(min_radio_score=0.3), (-200.0, 0.0),
            (1_000_000, 2_000_000, 10_000_000, 10_500_000),
        )
        setup, held, held_again, crossed, crossed_again = requests
        assert held is setup and held_again is setup
        assert crossed is not setup and crossed.candidates == (A,)
        assert crossed_again is crossed

    def test_a_banned_cell_coming_into_range_changes_the_scanned_set(self):
        banned = make_cell(cell_id="cell-c", network_id="net-9", center=(900.0, 0.0))
        requests, snapshots = self.run_ticks(
            (make_cell(), banned),
            make_policy(forbidden_networks=frozenset({"net-9"})),
            (400.0, 0.0),
            (1_000_000, 10_000_000),
        )
        assert [request.candidates for request in requests] == [(A,), (A,), (A,)]
        assert [(s["scanned"], s["das"]) for s in snapshots.values()] == [
            (["net-1/cell-a"], ["net-1/cell-a"]),
            (["net-1/cell-a"], ["net-1/cell-a"]),
            (["net-1/cell-a", "net-9/cell-c"], ["net-1/cell-a"]),
        ]

    def test_a_tick_on_a_held_view_builds_no_das(self, monkeypatch):
        built = []
        build = mrrm.build_das
        monkeypatch.setattr(mrrm, "build_das", lambda *args: built.append(args) or build(*args))
        cells = (make_cell(), make_cell(cell_id="cell-b", network_id="net-2",
                                        rat="cellular", center=(300.0, 0.0)))
        _requests, snapshots = self.run_ticks(
            cells, make_policy(min_radio_score=0.3), (-200.0, 0.0),
            (1_000_000, 2_000_000, 10_000_000, 10_500_000),
        )
        # The setup builds the first view and the tick at 10 s, where cell-b
        # has left the DAS, the second; the other three ticks hold a view.
        assert len(snapshots) == 5
        assert [[access for access, _score in scan] for _policy, scan in built] == [[A, B], [A, B]]
        assert [score >= 0.3 for _access, score in built[1][1]] == [True, False]


class _Scans:
    """An environment whose scans are the given lists, in turn."""

    def __init__(self, *scans):
        self._scans = iter(scans)

    def scan(self, at_us):
        return next(self._scans)


@st.composite
def policies_and_scan_pairs(draw):
    """A policy and two scans in rank order (POOL's order), often of the same
    accesses, with scores that often sit exactly on the radio floor."""
    floor = draw(st.sampled_from((0.0, 0.3, 0.5)) | st.floats(min_value=0.0, max_value=0.5))
    forbidden = draw(st.frozensets(st.sampled_from(("net-0", "net-1", "net-9"))))
    scores = st.just(floor) | st.floats(min_value=0.0, max_value=1.0)
    first = [access for access in POOL if draw(st.booleans())]
    second = first if draw(st.booleans()) else [access for access in POOL if draw(st.booleans())]
    policy = make_policy(forbidden_networks=forbidden, min_radio_score=floor)
    return (policy, [(access, draw(scores)) for access in first],
            [(access, draw(scores)) for access in second])


@settings(max_examples=300, deadline=None)
@given(case=policies_and_scan_pairs())
def test_a_view_is_kept_exactly_when_build_das_gives_equal_sets(case):
    policy, first, second = case
    entity = mrrm.Mrrm(Kernel(TraceRecorder()), _Scans(first, second), policy, {})
    view, radio = entity._radio_view()
    again, radio_again = entity._radio_view()
    assert (again is view) == (build_das(policy, second) == build_das(policy, first))
    assert again.sets == build_das(policy, second)
    assert radio == dict(first) and radio_again == dict(second)


@st.composite
def scenario_documents(draw, min_flows=1):
    """Small scenarios on a coarse grid, so that scans often tie: three networks
    of which some may be forbidden, a radio floor, path models that rule cells
    out, min_flows to four flows over a few QoS classes, with or without jitter, and
    a binding round trip of 40 ms or of 4 s, which makes handovers fail."""
    networks = ("net-1", "net-2", "net-3")
    spots = st.tuples(st.sampled_from((0.0, 400.0, 800.0, 1200.0)), st.sampled_from((-200.0, 0.0, 200.0)))
    cells, models = [], {}
    for i in range(draw(st.integers(min_value=2, max_value=5))):
        cell = {
            "cell_id": f"cell-{i}", "network_id": draw(st.sampled_from(networks)),
            "rat": draw(st.sampled_from(("wlan", "cellular"))),
            "center": list(draw(spots)), "radius_m": draw(st.sampled_from((400.0, 600.0))),
            "link_setup_us": 50_000, "link_teardown_us": 10_000, "locator_config_us": 100_000,
            "supports_fmip": draw(st.booleans()),
            "capacity": dict(zip(("bandwidth_kbps", "max_latency_ms"),
                                 draw(st.sampled_from(((2000, 40), (800, 90)))))),
        }
        cells.append(cell)
        bandwidth, latency, allowed = draw(st.sampled_from(
            ((2000, 40, True), (1000, 40, True), (500, 40, True), (2000, 60, True), (2000, 40, False))
        ))
        models[f"{cell['network_id']}/{cell['cell_id']}"] = {
            "bottleneck_bandwidth_kbps": bandwidth, "path_latency_ms": latency,
            "policy_allowed": allowed,
        }
    times = draw(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4))
    trajectory = [{"t_us": 0, "xy": list(draw(spots))}]
    for step in times:
        trajectory.append({"t_us": trajectory[-1]["t_us"] + step * 1_000_000, "xy": list(draw(spots))})
    weight_radio = draw(st.sampled_from((0.0, 0.25, 0.5, 1.0)))
    qos = st.sampled_from(((1000, 80), (1000, 50), (2000, 80)))
    flows = [{"id": flow, "start_us": draw(st.sampled_from((0, 500_000, 2_000_000))),
              "requested_qos": dict(zip(("bandwidth_kbps", "max_latency_ms"), draw(qos)))}
             for flow in range(1, draw(st.integers(min_value=min_flows, max_value=4)) + 1)]
    return {
        "seed": draw(st.integers(min_value=0, max_value=3)),
        "scan_period_us": draw(st.sampled_from((250_000, 500_000, 1_000_000))),
        "jitter_us": draw(st.sampled_from((0, 20_000))),
        "cells": cells,
        "trajectory": trajectory,
        "policy": {
            "forbidden_networks": draw(st.lists(st.sampled_from(networks), max_size=2, unique=True)),
            "min_radio_score": draw(st.sampled_from((0.0, 0.05, 0.3, 0.5))),
            "hysteresis": draw(st.sampled_from((0.0, 0.05, 0.1))),
            "weight_radio": weight_radio,
            "weight_path": 1.0 - weight_radio,
            "mbb_capable": draw(st.booleans()),
        },
        "path_models": models,
        "latencies": {"binding_rtt_us": draw(st.sampled_from((40_000, 4_000_000))),
                      "fmip_oneway_us": 5_000},
        "flows": flows,
    }


class TestReuseOracle:
    """MRRM's reuse across cycles and ticks decides as a cycle that derives
    everything anew (tests/mrrm_oracle.py) does."""

    DECISIONS = (ANNOTATION_ACCESS_SETS, "HOExecutionRequest")

    @staticmethod
    def decisions(config, entity=None):
        """(t, name, params) of every snapshot and execution request of a run,
        with entity in place of Mrrm if given."""
        with pytest.MonkeyPatch.context() as patch:
            if entity is not None:
                patch.setattr(simulation, "Mrrm", entity)
            result = simulation.Simulation(config).run()
        return [(r.at, r.name, r.params) for r in result.records
                if r.name in TestReuseOracle.DECISIONS]

    @settings(max_examples=150, deadline=None)
    @given(document=scenario_documents())
    def test_snapshots_and_requests_equal_the_reference(self, document):
        config = parse_scenario(document)
        decisions = self.decisions(config)
        assert decisions == self.decisions(config, entity=mrrm_oracle.ReferenceMrrm)
        assert any(name == ANNOTATION_ACCESS_SETS for _at, name, _params in decisions)

    @settings(max_examples=100, deadline=None)
    @given(document=scenario_documents(min_flows=3))
    def test_multi_flow_decisions_equal_the_reference(self, document):
        # The flows of a tick that get one response share its selection.
        config = parse_scenario(document)
        assert self.decisions(config) == self.decisions(config, entity=mrrm_oracle.ReferenceMrrm)

    def test_a_walk_with_flows_sharing_responses_decides_as_the_reference(self, monkeypatch):
        # Four flows in two QoS classes walk across three cells; cell-1's
        # 60 ms path is usable for the 80 ms class only.
        def cell(index, network):
            return {"cell_id": f"cell-{index}", "network_id": network, "rat": "wlan",
                    "center": [index * 500.0, 0.0], "radius_m": 600.0, "link_setup_us": 50_000,
                    "link_teardown_us": 10_000, "locator_config_us": 100_000,
                    "supports_fmip": index == 2,
                    "capacity": {"bandwidth_kbps": 2000, "max_latency_ms": 40}}

        def model(latency_ms):
            return {"bottleneck_bandwidth_kbps": 2000, "path_latency_ms": latency_ms,
                    "policy_allowed": True}

        config = parse_scenario({
            "seed": 0, "scan_period_us": 500_000, "jitter_us": 0,
            "cells": [cell(0, "net-1"), cell(1, "net-2"), cell(2, "net-3")],
            "trajectory": [{"t_us": 0, "xy": [0.0, 0.0]}, {"t_us": 10_000_000, "xy": [1000.0, 0.0]}],
            "policy": {"forbidden_networks": [], "min_radio_score": 0.0, "hysteresis": 0.05,
                       "weight_radio": 0.5, "weight_path": 0.5, "mbb_capable": False},
            "path_models": {"net-1/cell-0": model(40), "net-2/cell-1": model(60),
                            "net-3/cell-2": model(40)},
            "latencies": {"binding_rtt_us": 40_000, "fmip_oneway_us": 5_000},
            "flows": [{"id": flow, "start_us": 0,
                       "requested_qos": {"bandwidth_kbps": 1000, "max_latency_ms": latency}}
                      for flow, latency in ((1, 80), (2, 50), (3, 80), (4, 50))],
        })
        selected = []
        select = mrrm.select_aas
        monkeypatch.setattr(mrrm, "select_aas",
                            lambda *args: selected.append(args) or select(*args))
        decisions = self.decisions(config)
        cycles = sum(name == ANNOTATION_ACCESS_SETS for _at, name, _params in decisions)
        assert 0 < len(selected) < cycles
        assert any(name == "HOExecutionRequest" and params["current"] is not None
                   for _at, name, params in decisions)
        assert decisions == self.decisions(config, entity=mrrm_oracle.ReferenceMrrm)

    def test_a_winner_back_on_the_same_view_records_its_first_params(self):
        # The walk goes from cell-0's centre to cell-1's and back, each tick
        # one leg, so both cells stay in the DAS and every cycle is on one
        # view while the winner goes cell-0, cell-1, cell-0.
        def cell(index, x, network):
            return {"cell_id": f"cell-{index}", "network_id": network, "rat": "wlan",
                    "center": [x, 0.0], "radius_m": 600.0, "link_setup_us": 50_000,
                    "link_teardown_us": 10_000, "locator_config_us": 100_000,
                    "supports_fmip": False,
                    "capacity": {"bandwidth_kbps": 2000, "max_latency_ms": 40}}

        model = {"bottleneck_bandwidth_kbps": 2000, "path_latency_ms": 40, "policy_allowed": True}
        config = parse_scenario({
            "seed": 0, "scan_period_us": 5_000_000, "jitter_us": 0,
            "cells": [cell(0, 0.0, "net-1"), cell(1, 300.0, "net-2")],
            "trajectory": [{"t_us": t_us, "xy": [x, 0.0]}
                           for t_us, x in ((0, 0.0), (5_000_000, 300.0), (10_000_000, 0.0))],
            "policy": {"forbidden_networks": [], "min_radio_score": 0.0, "hysteresis": 0.1,
                       "weight_radio": 0.5, "weight_path": 0.5, "mbb_capable": True},
            "path_models": {"net-1/cell-0": model, "net-2/cell-1": model},
            "latencies": {"binding_rtt_us": 40_000, "fmip_oneway_us": 5_000},
            "flows": [{"id": 1, "start_us": 0,
                       "requested_qos": {"bandwidth_kbps": 1000, "max_latency_ms": 80}}],
        })
        decisions = self.decisions(config)
        assert decisions == self.decisions(config, entity=mrrm_oracle.ReferenceMrrm)
        snapshots = [params for _at, name, params in decisions if name == ANNOTATION_ACCESS_SETS]
        assert [params["aas"] for params in snapshots] == [
            ["net-1/cell-0"], ["net-2/cell-1"], ["net-1/cell-0"]
        ]
        assert all(params["das"] == snapshots[0]["das"] for params in snapshots)
        first, _other, again = snapshots
        assert again is first
