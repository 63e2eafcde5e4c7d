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
from mobsig.flowmgmt import FlowRecord, FlowTable
from mobsig.path_selection import (
    ANNOTATION_UNKNOWN_ACCESS,
    PathModel,
    PathSelection,
    rate_access,
)
from mobsig.protocols import DaemonHost
from mobsig.simkernel import Kernel, TraceRecorder

from support import REQUESTED, default_model, make_cell


def build_entity(cells, models=None):
    """PathSelection wired to real env and daemons, with probes for HOLM/MRRM."""
    recorder = TraceRecorder()
    kernel = Kernel(recorder=recorder)
    env = Environment(
        kernel,
        recorder,
        cells,
        Trajectory(waypoints=((0, (0.0, 0.0)),)),
        rng=random.Random(0),
        jitter_us=0,
    )
    daemons = DaemonHost(kernel, env, binding_rtt_us=40_000, fmip_oneway_us=5_000)
    if models is None:
        models = {cell.access: default_model() for cell in cells}
    flows = FlowTable([FlowRecord(flow=flow, requested=REQUESTED) for flow in (1, 4)])
    entity = PathSelection(kernel, recorder, env, models, flows, daemons)
    holm_in, mrrm_in = [], []
    kernel.register(FE_PATH_SELECTION, entity.handle)
    kernel.register(FE_HOLM, lambda e: holm_in.append(e.payload))
    kernel.register(FE_MRRM, lambda e: mrrm_in.append(e.payload))
    kernel.register(FE_ENVIRONMENT, env.handle)
    return kernel, recorder, env, daemons, entity, holm_in, mrrm_in


class TestPathModel:
    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            PathModel(bottleneck_bandwidth_kbps=-1, path_latency_ms=10, policy_allowed=True)
        with pytest.raises(ValueError):
            PathModel(bottleneck_bandwidth_kbps=10, path_latency_ms=-1, policy_allowed=True)


class TestRateAccess:
    def test_unknown_or_disallowed_paths_are_unusable(self):
        assert rate_access(None, REQUESTED) == 0.0
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
        kernel, _, _, _, entity, _, mrrm_in = build_entity(cells, models)
        kernel.schedule(0, FE_MRRM, FE_PATH_SELECTION, ConstraintRequest(flow=1, candidates=(b, a)))
        kernel.run_until_quiescent()
        ratings = mrrm_in[0].ratings
        assert [r.access for r in ratings] == [b, a]
        assert [r.path_score for r in ratings] == [0.5, 1.0]

    def test_unmodeled_access_rates_zero_and_is_annotated(self):
        cells = (make_cell(), make_cell(cell_id="cell-b", network_id="net-2"))
        a, b = (cell.access for cell in cells)
        kernel, recorder, _, _, entity, _, mrrm_in = build_entity(cells, {a: default_model()})
        kernel.schedule(0, FE_MRRM, FE_PATH_SELECTION, ConstraintRequest(flow=4, candidates=(a, b)))
        kernel.run_until_quiescent()
        assert [r.path_score for r in mrrm_in[0].ratings] == [1.0, 0.0]
        notes = [r for r in recorder.records if r.name == ANNOTATION_UNKNOWN_ACCESS]
        assert len(notes) == 1
        assert notes[0].params == {"accesses": ["net-2/cell-b"], "flow": 4}


class TestSelectPath:
    def run_select(self, kernel, holm_in, flow, target, fmip_flag):
        kernel.schedule(
            0, FE_HOLM, FE_PATH_SELECTION, PathSelect(flow=flow, target=target, fmip_flag=fmip_flag)
        )
        kernel.run_until_quiescent()
        answer = holm_in[-1]
        assert isinstance(answer, PathSelected)
        return answer

    def test_ordinary_selection_needs_an_attached_link(self):
        cells = (make_cell(),)
        kernel, _, _, _, _, holm_in, _ = build_entity(cells)
        answer = self.run_select(kernel, holm_in, 1, cells[0].access, fmip_flag=False)
        assert not answer.result.ok and answer.result.reason == "not_attached"

    def test_ordinary_selection_allocates_on_the_target(self):
        cells = (make_cell(),)
        kernel, _, env, _, _, holm_in, _ = build_entity(cells)
        env.link_attach(1, cells[0].access, REQUESTED, lambda r, q: None)
        kernel.run_until_quiescent()
        answer = self.run_select(kernel, holm_in, 1, cells[0].access, fmip_flag=False)
        assert answer.result.ok
        assert answer.new_locator.access == cells[0].access
        assert answer.new_locator.kind == "care_of"

    def test_proactive_selection_requires_fmip_support(self):
        cells = (make_cell(supports_fmip=False),)
        kernel, _, _, _, _, holm_in, _ = build_entity(cells)
        answer = self.run_select(kernel, holm_in, 1, cells[0].access, fmip_flag=True)
        assert answer.result.reason == "fmip_unsupported"

    def test_proactive_selection_requires_preparation(self):
        cells = (make_cell(supports_fmip=True),)
        kernel, _, _, _, _, holm_in, _ = build_entity(cells)
        answer = self.run_select(kernel, holm_in, 1, cells[0].access, fmip_flag=True)
        assert answer.result.reason == "not_prepared"

    def test_proactive_selection_after_preparation_is_instant(self):
        cells = (make_cell(supports_fmip=True),)
        kernel, _, env, daemons, _, holm_in, _ = build_entity(cells)
        target = cells[0].access
        daemons.state(1).prepared_for = target
        answer = self.run_select(kernel, holm_in, 1, target, fmip_flag=True)
        assert answer.result.ok
        assert kernel.now == 0  # no locator configuration latency on the new link
        assert env.locator_valid(answer.new_locator)
