"""Flow registry and the flow-management service boundary."""

import pytest

from mobsig.core import (
    FE_FLOW_MANAGEMENT,
    FE_MRRM,
    AccessFlowSetupResponse,
    HandoverOccurred,
    QosSpec,
    Result,
)
from mobsig.flowmgmt import FlowManagement, FlowRecord
from mobsig.simkernel import Kernel, SimulationError, TraceRecorder

from support import REQUESTED


def build_entity(*flows):
    kernel = Kernel(recorder=TraceRecorder())
    table = {f: FlowRecord(flow=f, requested=REQUESTED) for f in sorted(flows)}
    entity = FlowManagement(kernel, table)
    mrrm_in = []
    kernel.register(FE_FLOW_MANAGEMENT, entity.handle)
    kernel.register(FE_MRRM, mrrm_in.append)
    return kernel, table, entity, mrrm_in


class TestStartFlow:
    def test_unknown_flow_is_a_key_error(self):
        """A flow the table lacks is never started: the run would end (exit 3)."""
        kernel, _, entity, _ = build_entity(1)
        kernel.call_later(0, lambda: entity.start_flow(99), FE_FLOW_MANAGEMENT)
        with pytest.raises(SimulationError):
            kernel.run_until_quiescent()

    def test_start_requests_access(self):
        kernel, table, entity, mrrm_in = build_entity(1)
        entity.start_flow(1)
        kernel.run_until_quiescent()
        assert table.get(1).state == "pending"
        assert len(mrrm_in) == 1
        assert mrrm_in[0].flow == 1 and mrrm_in[0].requested_qos == REQUESTED


class TestSetupResponse:
    def test_success_activates_with_the_grant(self):
        kernel, table, entity, _ = build_entity(1)
        entity.start_flow(1)
        granted = QosSpec(800, 90)
        kernel.schedule(0, AccessFlowSetupResponse(result=Result.success(), granted_qos=granted))
        kernel.run_until_quiescent()
        record = table.get(1)
        assert record.state == "active"
        assert record.granted_qos == granted
        assert record.provided_qos == granted

    def test_failure_marks_the_flow_failed(self):
        kernel, table, entity, _ = build_entity(1)
        entity.start_flow(1)
        kernel.schedule(
            0,
            AccessFlowSetupResponse(result=Result.failure("no_access"), granted_qos=None),
        )
        kernel.run_until_quiescent()
        assert table.get(1).state == "failed"

    def test_answers_match_questions_in_order(self):
        kernel, table, entity, _ = build_entity(1, 2)
        entity.start_flow(1)
        entity.start_flow(2)
        kernel.schedule(
            0,
            AccessFlowSetupResponse(result=Result.failure("no_access"), granted_qos=None),
        )
        kernel.schedule(0, AccessFlowSetupResponse(result=Result.success(), granted_qos=REQUESTED))
        kernel.run_until_quiescent()
        assert table.get(1).state == "failed"
        assert table.get(2).state == "active"

    def test_unsolicited_response_is_ignored(self):
        """MRRM answers only the setups it was sent; any other answer ends the run."""
        kernel, table, _, _ = build_entity(1)
        kernel.schedule(0, AccessFlowSetupResponse(result=Result.success(), granted_qos=REQUESTED))
        with pytest.raises(SimulationError, match="AccessFlowSetupResponse"):
            kernel.run_until_quiescent()
        assert table.get(1).state == "new"


class TestHandoverOccurred:
    def test_updates_provided_qos_and_acknowledges(self):
        kernel, table, entity, mrrm_in = build_entity(1)
        provided = QosSpec(800, 90)
        kernel.schedule(0, HandoverOccurred(flow=1, provided_qos=provided))
        kernel.run_until_quiescent()
        assert table.get(1).provided_qos == provided
        assert len(mrrm_in) == 1 and mrrm_in[0].result.ok

    def test_unknown_flow_is_reported_back(self):
        """MRRM indicates only its own flows; an unknown one ends the run."""
        kernel, _, entity, mrrm_in = build_entity(1)
        kernel.schedule(0, HandoverOccurred(flow=42, provided_qos=REQUESTED))
        with pytest.raises(SimulationError, match="HandoverOccurred"):
            kernel.run_until_quiescent()
        assert not mrrm_in


def test_flow_management_sees_only_its_service_boundary(bundled_results):
    """In a full run, nothing below the setup/indication level reaches FlowMng."""
    for result in bundled_results.values():
        inbound = {r.name for r in result.records if r.receiver == FE_FLOW_MANAGEMENT}
        assert inbound <= {"AccessFlowSetupResponse", "HandoverOccurred"}
