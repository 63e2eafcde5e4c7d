"""Flow management: the application-facing registry of data flows.

Flow management asks for access on behalf of each flow and is told, after the
fact, when a handover changed the QoS actually provided. It never sees link or
binding messages; everything below the flow setup service boundary is handled
by the resource-management entity.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import (
    AccessFlowSetup,
    AccessFlowSetupResponse,
    AccessId,
    HandoverOccurred,
    HandoverOccurredResponse,
    QosSpec,
    Result,
)
from .simkernel import Kernel


@dataclass(eq=False, repr=False)
class FlowRecord:
    """Mutable bookkeeping for one data flow."""

    flow: int
    requested: QosSpec
    state: str = "new"  # then "pending", and "active" or "failed"
    current_access: AccessId | None = None
    granted_qos: QosSpec | None = None


class FlowManagement:
    """The flow-management functional entity."""

    def __init__(self, kernel: Kernel, flow_table: dict[int, FlowRecord]) -> None:
        self._kernel = kernel
        self._table = flow_table
        # Setup responses carry no flow id; requests are answered in order.
        self._pending_setups: deque[int] = deque()

    def start_flow(self, flow: int) -> None:
        record = self._table.get(flow)
        record.state = "pending"
        self._pending_setups.append(flow)
        self._kernel.schedule(0, AccessFlowSetup(flow, record.requested))

    def handle(self, payload) -> None:
        match payload:
            case AccessFlowSetupResponse():
                self._on_setup_response(payload)
            case HandoverOccurred():
                self._on_handover_occurred(payload)

    def _on_setup_response(self, response: AccessFlowSetupResponse) -> None:
        record = self._table.get(self._pending_setups.popleft())
        if response.result.ok:
            record.state = "active"
        else:
            record.state = "failed"

    def _on_handover_occurred(self, indication: HandoverOccurred) -> None:
        assert indication.flow in self._table, "a handover of a flow FlowMng does not know"
        self._kernel.schedule(0, HandoverOccurredResponse(Result.success()))
