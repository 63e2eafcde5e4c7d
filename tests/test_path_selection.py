"""Path rating and locator selection on behalf of the orchestrator."""

import random

import pytest

from mobsig.core import (
    FE_ENVIRONMENT,
    FE_HOLM,
    FE_MRRM,
    FE_PATH_SELECTION,
    ConstraintRequest,
    PathSelect,
    PathSelected,
    QosSpec,
)
from mobsig.environment import Environment, Trajectory
from mobsig.flowmgmt import FlowRecord
from mobsig.path_selection import PathModel, PathSelection, rate_access
from mobsig import path_selection
from mobsig.simkernel import Kernel, TraceRecorder

from support import REQUESTED, default_model, make_cell


def build_entity(cells, models=None, flows=None):
    """PathSelection wired to a real env, with probes for HOLM/MRRM.

    flows maps flow id to requested QoS; by default flows 1 and 4 request REQUESTED.
    """
    recorder = TraceRecorder()
    kernel = Kernel(recorder=recorder)
    env = Environment(
        kernel,
        cells,
        Trajectory(waypoints=((0, (0.0, 0.0)),)),
        rng=random.Random(0),
        jitter_us=0,
    )
    if models is None:
        models = {cell.access: default_model() for cell in cells}
    if flows is None:
        flows = {1: REQUESTED, 4: REQUESTED}
    table = {flow: FlowRecord(flow=flow, requested=qos) for flow, qos in sorted(flows.items())}
    entity = PathSelection(kernel, env, models, table)
    holm_in, mrrm_in = [], []
    kernel.register(FE_PATH_SELECTION, entity.handle)
    kernel.register(FE_HOLM, holm_in.append)
    kernel.register(FE_MRRM, mrrm_in.append)
    kernel.register(FE_ENVIRONMENT, env.handle)
    return kernel, recorder, env, entity, holm_in, mrrm_in


class TestRateAccess:
    def test_unknown_or_disallowed_paths_are_unusable(self):
        banned = PathModel(2000, 40, policy_allowed=False)
        assert rate_access(banned, REQUESTED) == 0.0

    def test_latency_budget_is_a_hard_gate(self):
        slow = PathModel(bottleneck_bandwidth_kbps=9999, path_latency_ms=81, policy_allowed=True)
        assert rate_access(slow, REQUESTED) == 0.0
        exactly = PathModel(bottleneck_bandwidth_kbps=1000, path_latency_ms=80, policy_allowed=True)
        assert rate_access(exactly, REQUESTED) == 1.0

    def test_zero_bandwidth_request_rates_full(self):
        model = PathModel(bottleneck_bandwidth_kbps=0, path_latency_ms=0, policy_allowed=True)
        assert rate_access(model, QosSpec(bandwidth_kbps=0, max_latency_ms=100)) == 1.0

    def test_bandwidth_ratio_capped_at_one(self):
        half = PathModel(bottleneck_bandwidth_kbps=500, path_latency_ms=40, policy_allowed=True)
        assert rate_access(half, REQUESTED) == 0.5
        double = PathModel(bottleneck_bandwidth_kbps=2000, path_latency_ms=40, policy_allowed=True)
        assert rate_access(double, REQUESTED) == 1.0


class TestRateAccesses:
    def test_preserves_request_order(self):
        cells = (make_cell(), make_cell(cell_id="cell-b", network_id="net-2"))
        a, b = (cell.access for cell in cells)
        models = {a: default_model(), b: PathModel(500, 40, True)}
        kernel, _, _, entity, _, mrrm_in = build_entity(cells, models)
        kernel.schedule(0, ConstraintRequest(flow=1, candidates=(b, a)))
        kernel.run_until_quiescent()
        ratings = mrrm_in[0].ratings
        assert [r.access for r in ratings] == [b, a]
        assert [r.path_score for r in ratings] == [0.5, 1.0]


class TestSharedAnswers:
    """Flows asking the same question share the answer, and only then."""

    WIDE = QosSpec(bandwidth_kbps=2000, max_latency_ms=80)  # a 1000 kbps path rates 0.5

    def entity_with_flows(self, flows, models=None):
        cells = (make_cell(), make_cell(cell_id="cell-b", network_id="net-2"))
        a, b = (cell.access for cell in cells)
        if models is None:
            models = {a: PathModel(1000, 40, True), b: PathModel(2000, 40, True)}
        built = build_entity(cells, models, flows)
        return built, (a, b)

    def test_each_qos_gets_its_own_ratings_in_turn(self):
        built, candidates = self.entity_with_flows({1: REQUESTED, 2: self.WIDE, 3: REQUESTED})
        entity = built[3]
        scores = {
            flow: [r.path_score for r in entity.rate_accesses(
                ConstraintRequest(flow=flow, candidates=candidates)).ratings]
            for flow in (1, 2, 3)
        }
        assert scores == {1: [1.0, 1.0], 2: [0.5, 1.0], 3: [1.0, 1.0]}

    @pytest.fixture
    def ratings_made(self, monkeypatch):
        """The requested QoS of every single-access rating, in call order."""
        calls = []
        rate = path_selection.rate_access
        monkeypatch.setattr(path_selection, "rate_access",
                            lambda model, requested: calls.append(requested) or rate(model, requested))
        return calls

    def test_same_tuple_and_equal_qos_share_one_response(self, ratings_made):
        # Flow 4's QoS is equal to flow 1's but a separate object.
        built, candidates = self.entity_with_flows({1: REQUESTED, 4: QosSpec(1000, 80)})
        entity = built[3]
        first = entity.rate_accesses(ConstraintRequest(flow=1, candidates=candidates))
        again = entity.rate_accesses(ConstraintRequest(flow=4, candidates=candidates))
        assert again is first
        assert len(ratings_made) == 2  # one per candidate, for the first request only

    def test_interleaved_qos_classes_each_keep_their_answer(self, ratings_made):
        built, candidates = self.entity_with_flows({1: REQUESTED, 2: self.WIDE, 3: REQUESTED})
        entity = built[3]
        answers = [entity.rate_accesses(ConstraintRequest(flow=flow, candidates=candidates))
                   for flow in (1, 2, 3, 2, 1)]
        assert answers[2] is answers[0] and answers[4] is answers[0]
        assert answers[3] is answers[1] and answers[1] is not answers[0]
        assert len(ratings_made) == 4  # two candidates for each of the two classes
        # Another candidate tuple drops every kept answer.
        entity.rate_accesses(ConstraintRequest(flow=1, candidates=tuple(list(candidates))))
        again = entity.rate_accesses(ConstraintRequest(flow=2, candidates=candidates))
        assert again is not answers[1] and again.ratings == answers[1].ratings

    def test_equal_candidate_tuple_in_a_new_object_is_rated_afresh(self, ratings_made):
        built, (a, b) = self.entity_with_flows(None)
        entity = built[3]
        first = entity.rate_accesses(ConstraintRequest(flow=1, candidates=(a, b)))
        fresh = entity.rate_accesses(ConstraintRequest(flow=4, candidates=tuple([a, b])))
        assert fresh is not first and fresh.ratings == first.ratings
        assert len(ratings_made) == 4


class TestSelectPath:
    def run_select(self, kernel, holm_in, flow, target, fmip_flag):
        kernel.schedule(0, PathSelect(flow=flow, target=target, fmip_flag=fmip_flag))
        kernel.run_until_quiescent()
        answer = holm_in[-1]
        assert isinstance(answer, PathSelected)
        return answer

    def test_ordinary_selection_needs_an_attached_link(self):
        cells = (make_cell(),)
        kernel, _, _, _, holm_in, _ = build_entity(cells)
        answer = self.run_select(kernel, holm_in, 1, cells[0].access, fmip_flag=False)
        assert not answer.result.ok and answer.result.reason == "not_attached"

    def test_ordinary_selection_allocates_on_the_target(self):
        cells = (make_cell(),)
        kernel, _, env, _, holm_in, _ = build_entity(cells)
        env.link_attach(1, cells[0].access, REQUESTED, lambda r, q: None)
        kernel.run_until_quiescent()
        answer = self.run_select(kernel, holm_in, 1, cells[0].access, fmip_flag=False)
        assert answer.result.ok
        assert answer.new_locator.access == cells[0].access
        assert answer.new_locator.kind == "care_of"

    def test_proactive_selection_requires_fmip_support(self):
        cells = (make_cell(supports_fmip=False),)
        kernel, _, _, _, holm_in, _ = build_entity(cells)
        answer = self.run_select(kernel, holm_in, 1, cells[0].access, fmip_flag=True)
        assert answer.result.reason == "fmip_unsupported"

    def test_proactive_selection_is_instant(self):
        cells = (make_cell(supports_fmip=True),)
        kernel, _, env, _, holm_in, _ = build_entity(cells)
        target = cells[0].access
        answer = self.run_select(kernel, holm_in, 1, target, fmip_flag=True)
        assert answer.result.ok
        assert kernel.now == 0  # no locator configuration latency on the new link
        assert env.locator_valid(answer.new_locator)
