"""Handover orchestration: tool choice, signaling order, and the interruption
the metrics read from its messages."""

import pytest

from mobsig.core import (
    FE_MRRM,
    HOComplete,
    HOExecutionRequest,
    LinkAttachResponse,
    Locator,
    PathSelected,
    QosSpec,
    Result,
)
from mobsig.flowmgmt import FlowRecord
from mobsig.holm import select_tool
from mobsig.simkernel import SimulationError
from mobsig.simulation import build_metrics

from support import REQUESTED, Node, make_cell

MBB_HANDOVER_SEQUENCE = [
    "HOExecutionRequest",
    "LinkAttachRequest",
    "LinkAttachResponse",
    "PathSelect",
    "PathSelected",
    "BindingUpdate",
    "BindingAck",
    "LinkDetachRequest",
    "LinkDetachResponse",
    "HOComplete",
]

BBM_HANDOVER_SEQUENCE = [
    "HOExecutionRequest",
    "LinkDetachRequest",
    "LinkDetachResponse",
    "LinkAttachRequest",
    "LinkAttachResponse",
    "PathSelect",
    "PathSelected",
    "BindingUpdate",
    "BindingAck",
    "HOComplete",
]

FMIP_HANDOVER_SEQUENCE = [
    "HOExecutionRequest",
    "ProxyRouterAdvertisement",
    "FastBindingUpdate",
    "FastBindingAck",
    "PathSelect",
    "PathSelected",
    "LinkSwitchRequest",
    "LinkSwitchResponse",
    "TunnelStart",
    "BindingUpdate",
    "BindingAck",
    "TunnelStop",
    "HOComplete",
]

ESTABLISHMENT_SEQUENCE = [
    "HOExecutionRequest",
    "LinkAttachRequest",
    "LinkAttachResponse",
    "PathSelect",
    "PathSelected",
    "BindingUpdate",
    "BindingAck",
    "HOComplete",
]

def colocated_node(fmip_target=False, target_center=(0.0, 0.0), flows=(1,)):
    """Two overlapping cells so link changes never fail on coverage."""
    cells = (
        make_cell(),
        make_cell(
            cell_id="cell-b",
            network_id="net-2",
            rat="cellular",
            center=target_center,
            supports_fmip=fmip_target,
            capacity=(800, 90),
        ),
    )
    node = Node(cells=cells, flows=tuple(FlowRecord(flow=f, requested=REQUESTED) for f in flows))
    # The tests, not MRRM, send the requests, so MRRM never sees a completion.
    relay = node.mrrm.handle
    node.kernel.register(
        FE_MRRM, lambda payload: None if isinstance(payload, HOComplete) else relay(payload)
    )
    return node, cells[0].access, cells[1].access


def request_handover(node, flow, current, target, mbb_flag):
    node.kernel.schedule(
        0,
        HOExecutionRequest(flow=flow, current=current, target=target, mbb_flag=mbb_flag),
    )
    return node.run()


def times_of(node, name):
    """The times of the node's records named name."""
    return [record.at for record in node.records() if record.name == name]


class TestSelectTool:
    CURRENT = make_cell(cell_id="cell-b").access

    def test_mbb_capable_always_wins(self):
        request = HOExecutionRequest(flow=1, current=self.CURRENT, target=make_cell().access,
                                     mbb_flag=True)
        assert select_tool(request, make_cell(supports_fmip=True)) == "mbb"

    def test_fmip_when_target_supports_it(self):
        request = HOExecutionRequest(flow=1, current=self.CURRENT, target=make_cell().access,
                                     mbb_flag=False)
        assert select_tool(request, make_cell(supports_fmip=True)) == "fmip"

    def test_plain_bbm_as_the_fallback(self):
        request = HOExecutionRequest(flow=1, current=self.CURRENT, target=make_cell().access,
                                     mbb_flag=False)
        assert select_tool(request, make_cell(supports_fmip=False)) == "bbm"

    @pytest.mark.parametrize("mbb_flag", [True, False])
    def test_no_current_access_establishes_whatever_the_tool(self, mbb_flag):
        request = HOExecutionRequest(flow=1, current=None, target=make_cell().access,
                                     mbb_flag=mbb_flag)
        assert select_tool(request, make_cell(supports_fmip=True)) == "establishment"


class TestHandoverContext:
    def test_variant_names(self):
        """A request without a current access establishes, whatever the tool would be."""
        node, a, b = colocated_node(fmip_target=True)
        request_handover(node, 1, current=None, target=b, mbb_flag=True)
        request_handover(node, 1, current=b, target=a, mbb_flag=True)
        request_handover(node, 1, current=a, target=b, mbb_flag=False)
        handovers = node.metrics()["handovers"]
        assert [h["variant"] for h in handovers] == ["establishment", "mbb", "fmip"]
        assert [h["result"] for h in handovers] == ["success"] * 3
        assert node.names().count("HOExecutionRequest") == 3

    def test_interruption_undefined_until_done(self):
        """A handover is reported once it completes, and one that broke service
        and then failed has no interruption."""
        node, a, b = colocated_node(fmip_target=False, target_center=(5000.0, 0.0))
        node.attach_now(1, a)
        request_handover(node, 1, current=a, target=b, mbb_flag=False)
        events = node.recorder.events
        done = [type(payload) for _at, _seq, payload in events].index(HOComplete)
        assert build_metrics(events[:done], node.env.cell)["handovers"] == []
        [entry] = build_metrics(events, node.env.cell)["handovers"]
        assert (entry["result"], entry["reason"]) == ("failure", "out_of_coverage")
        assert entry["interruption_us"] is None


class TestEstablishment:
    def test_sequence_and_zero_interruption(self):
        node, a, _ = colocated_node()
        final = request_handover(node, 1, current=None, target=a, mbb_flag=False)
        assert node.names(sequence_only=True) == ESTABLISHMENT_SEQUENCE
        assert final == 190_000  # attach 50 ms, locator 100 ms, binding 40 ms
        [entry] = node.metrics()["handovers"]
        assert entry["variant"] == "establishment"
        assert entry["result"] == "success"
        assert entry["interruption_us"] == 0
        assert times_of(node, "BindingAck") == [190_000]  # both marks fall on the ack
        assert not times_of(node, "LinkDetachRequest") + times_of(node, "TunnelStart")

    def test_locator_registered_with_the_daemon(self):
        node, a, _ = colocated_node()
        request_handover(node, 1, current=None, target=a, mbb_flag=True)
        records = node.records()
        [locator] = [r.params["new_locator"] for r in records if r.name == "PathSelected"]
        assert locator["access"] == a._wire
        bound = [r.params["locator"] for r in records if r.name == "BindingUpdate"]
        assert bound == [locator]


class TestMakeBeforeBreak:
    def test_attach_comes_before_detach(self):
        node, a, b = colocated_node()
        node.attach_now(1, a)
        final = request_handover(node, 1, current=a, target=b, mbb_flag=True)
        assert node.names(sequence_only=True) == MBB_HANDOVER_SEQUENCE
        assert final == 50_000 + 200_000
        [entry] = node.metrics()["handovers"]
        assert entry["variant"] == "mbb"
        assert entry["interruption_us"] == 0
        # the hand-off happens at the binding ack; the detach follows it
        assert times_of(node, "BindingAck") == times_of(node, "LinkDetachRequest") == [240_000]
        assert entry["result"] == "success"

    def test_old_link_is_released(self):
        node, a, b = colocated_node()
        node.attach_now(1, a)
        request_handover(node, 1, current=a, target=b, mbb_flag=True)
        assert not node.env.attached(1, a)
        assert node.env.attached(1, b)


class TestBreakBeforeMake:
    def test_detach_comes_first_and_the_gap_is_the_whole_tail(self):
        node, a, b = colocated_node(fmip_target=False)
        node.attach_now(1, a)
        request_handover(node, 1, current=a, target=b, mbb_flag=False)
        assert node.names(sequence_only=True) == BBM_HANDOVER_SEQUENCE
        [entry] = node.metrics()["handovers"]
        assert entry["variant"] == "bbm"
        assert times_of(node, "LinkDetachRequest") == [50_000]  # the moment the request was accepted
        # teardown 10 + setup 50 + locator 100 + binding rtt 40 (ms)
        assert times_of(node, "BindingAck") == [50_000 + 200_000]
        assert entry["interruption_us"] == 200_000
        assert entry["result"] == "success"

    def test_attach_failure_leaves_the_flow_unconnected(self):
        node, a, b = colocated_node(fmip_target=False, target_center=(5000.0, 0.0))
        node.attach_now(1, a)
        request_handover(node, 1, current=a, target=b, mbb_flag=False)
        [entry] = node.metrics()["handovers"]
        assert (entry["result"], entry["reason"]) == ("failure", "out_of_coverage")
        assert entry["interruption_us"] is None
        # the attach, after the detach, failed
        assert node.names(sequence_only=True) == BBM_HANDOVER_SEQUENCE[:5] + ["HOComplete"]
        assert times_of(node, "LinkDetachRequest") == [50_000] and not times_of(node, "BindingAck")
        # the old link was already torn down and no rollback is attempted
        assert not node.env.attached(1, a)
        assert not node.env.attached(1, b)
        names = node.names(sequence_only=True)
        assert names.count("LinkAttachRequest") == 1
        assert "PathSelect" not in names
        assert names[-1] == "HOComplete"


class TestFmip:
    def test_prepared_sequence_with_tunnel(self):
        node, a, b = colocated_node(fmip_target=True)
        node.attach_now(1, a)
        final = request_handover(node, 1, current=a, target=b, mbb_flag=False)
        assert node.names(sequence_only=True) == FMIP_HANDOVER_SEQUENCE
        [entry] = node.metrics()["handovers"]
        assert entry["variant"] == "fmip"
        # the gap is only the radio switch: teardown 10 ms + setup 50 ms
        assert entry["interruption_us"] == 60_000
        t_break = 50_000 + 15_000  # after the three preparation hops
        assert times_of(node, "LinkSwitchRequest") == [t_break]
        assert times_of(node, "TunnelStart") == [t_break + 60_000]  # at attach time
        assert times_of(node, "BindingAck") == [t_break + 60_000 + 40_000]
        assert entry["result"] == "success"
        assert final == 50_000 + 15_000 + 60_000 + 40_000

    def test_failure_when_preparation_is_impossible(self):
        node, a, b = colocated_node(fmip_target=True)
        # never attached to a: preparation runs over the old link and fails
        request_handover(node, 1, current=a, target=b, mbb_flag=False)
        [entry] = node.metrics()["handovers"]
        assert (entry["result"], entry["reason"]) == ("failure", "link_lost")
        # the preparation failed before it sent anything; the variant is still fmip's
        assert node.names(sequence_only=True) == ["HOExecutionRequest", "HOComplete"]
        assert entry["variant"] == "fmip"
        assert entry["interruption_us"] is None


class TestSerialization:
    @pytest.mark.parametrize("second_flow", [1, 2], ids=["same-flow", "another-flow"])
    def test_second_request_while_one_runs_is_busy(self, second_flow):
        """MRRM never sends a second request while one runs; one that does ends the run."""
        node, a, b = colocated_node(flows=(1, 2))
        node.attach_now(1, a)
        node.attach_now(2, a)
        for flow in (1, second_flow):
            payload = HOExecutionRequest(flow=flow, current=a, target=b, mbb_flag=True)
            node.kernel.schedule(0, payload)
        with pytest.raises(SimulationError, match="a handover request while another runs"):
            node.run()
        assert not node.metrics()["handovers"]
        assert "HOComplete" not in node.names()

    def test_mbb_and_fmip_interruption_ranking(self):
        """The seamless tool beats FMIP, which beats plain break-before-make."""
        gaps = {}
        for variant, mbb_flag, fmip in (("mbb", True, False), ("fmip", False, True), ("bbm", False, False)):
            node, a, b = colocated_node(fmip_target=fmip)
            node.attach_now(1, a)
            request_handover(node, 1, current=a, target=b, mbb_flag=mbb_flag)
            [entry] = node.metrics()["handovers"]
            assert entry["variant"] == variant
            gaps[variant] = entry["interruption_us"]
        assert gaps["mbb"] == 0
        assert gaps["mbb"] < gaps["fmip"] < gaps["bbm"]


class TestUnexpectedResponses:
    """Every response answers the request of the step under way; any other ends the run."""

    def test_response_of_another_kind_is_ignored(self):
        """A response of a kind the step does not await ends the run."""
        node, a, _ = colocated_node()
        stray = Locator(address="stray", access=a, kind="care_of")
        # arrives while the 50 ms attach is outstanding
        node.kernel.schedule(10_000, PathSelected(result=Result.success(), new_locator=stray))
        with pytest.raises(SimulationError, match="a response HOLM never asked for"):
            request_handover(node, 1, current=None, target=a, mbb_flag=False)
        assert node.names(sequence_only=True) == ESTABLISHMENT_SEQUENCE[:2] + ["PathSelected"]
        assert not node.metrics()["handovers"]

    def test_response_after_its_context_failed_is_ignored(self):
        """A response after its handover ended answers nothing: the run ends."""
        node, a, b = colocated_node(fmip_target=False, target_center=(5000.0, 0.0))
        node.attach_now(1, a)
        request_handover(node, 1, current=a, target=b, mbb_flag=False)
        [entry] = node.metrics()["handovers"]
        assert entry["result"] == "failure"
        before = len(node.recorder.events)
        late = (
            LinkAttachResponse(result=Result.success(), granted_qos=QosSpec(800, 90)),
            PathSelected(result=Result.success(), new_locator=Locator("late", b, "care_of")),
        )
        for payload in late:
            node.kernel.schedule(0, payload)
        with pytest.raises(SimulationError, match="LinkAttachResponse"):
            node.run()
        names = node.names()[before:]
        assert names == ["LinkAttachResponse"]
        # no second handover completes, and the late response falls in the span
        [after] = node.metrics()["handovers"]
        assert (after["result"], after["reason"]) == ("failure", "out_of_coverage")
        assert after["message_count"] == entry["message_count"] + 1
