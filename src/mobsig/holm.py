"""Handover orchestration: tool selection and the step table every variant runs.

One HandoverContext tracks each execution request from arrival to its single
HOComplete. The signaling exchange is generic: STEPS maps each variant to its
ordered steps, and one step loop runs every row. STEP_MESSAGES names the trace
messages each step exchanges; the conformance checker builds its templates
from the two tables and its own rule labels, so a new variant is one STEPS
row (plus the messages of any new step).

* establishment - attach the first link, configure a locator and bind; there
                  is no previous access or binding to tear down.
* mbb   - attach the new link first, rebind, then free the old link
          (needs simultaneous radio transmissions); service never breaks.
* bbm   - free the old link first, then attach, configure a locator and
          rebind; service is down for the whole tail of the sequence.
* fmip  - prepare the target over the old link, pick the locator before
          attaching, switch radios and tunnel until the binding completes.

Every step ends in one completion. A failed step aborts the rest of the row
and reports the failure; no rollback or reattach is attempted. A successful
step records its outcome on the context and starts the next step.

MRRM serializes handovers node-wide, so at most one request step is ever
outstanding; HOLM keeps it in a single slot together with the response type
that resumes it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from .core import (
    FE_HOLM,
    FE_MRRM,
    FE_PATH_SELECTION,
    AccessId,
    HOComplete,
    HOExecutionRequest,
    LinkAttachRequest,
    LinkAttachResponse,
    LinkDetachRequest,
    LinkDetachResponse,
    LinkSwitchRequest,
    LinkSwitchResponse,
    Locator,
    PathSelect,
    PathSelected,
    Primitive,
    Result,
)
from .environment import Cell, Environment
from .protocols import DaemonHost
from .simkernel import Kernel, SimEvent, SimTime


class Tool(Enum):
    MIP_MBB = "mbb"
    MIP_BBM = "bbm"
    FMIP = "fmip"


class Phase(Enum):
    TOOL_SELECTED = auto()
    PREPARING = auto()
    PREPARED = auto()
    PATH_PENDING = auto()
    PATH_DONE = auto()
    LINK_CHANGING = auto()
    BINDING_UPDATING = auto()
    DONE = auto()
    FAILED = auto()


@dataclass
class HandoverContext:
    """Mutable per-handover state machine record."""

    flow: int
    current: AccessId | None
    target: AccessId
    tool: Tool
    t_start: SimTime
    phase: Phase = Phase.TOOL_SELECTED
    t_break: SimTime | None = None
    t_restore: SimTime | None = None
    new_locator: Locator | None = None
    failure_reason: str | None = None
    history: list[Phase] = field(default_factory=list)
    step: int = 0  # index into STEPS[variant] of the step under way

    def __post_init__(self) -> None:
        self.history.append(self.phase)

    def advance(self, phase: Phase) -> None:
        if phase in self.history:
            raise ValueError(f"phase {phase.name} repeated for flow {self.flow}")
        self.phase = phase
        self.history.append(phase)

    @property
    def variant(self) -> str:
        if self.current is None:
            return "establishment"
        return self.tool.value


# The ordered steps of each variant. Holm._begin starts a step; Holm._step_done
# ends it and starts the next.
STEPS: dict[str, tuple[str, ...]] = {
    "establishment": ("attach", "path", "bind"),
    "mbb": ("attach", "path", "bind", "detach"),
    "bbm": ("detach", "attach", "path", "bind"),
    "fmip": ("prepare", "path", "switch", "tunnel_start", "bind", "tunnel_stop"),
}

# The trace messages each step exchanges, in order. The conformance checker
# derives its vocabulary and sequence templates from these rows and STEPS.
STEP_MESSAGES: dict[str, tuple[str, ...]] = {
    "attach": ("LinkAttachRequest", "LinkAttachResponse"),
    "detach": ("LinkDetachRequest", "LinkDetachResponse"),
    "switch": ("LinkSwitchRequest", "LinkSwitchResponse"),
    "path": ("PathSelect", "PathSelected"),
    "prepare": ("ProxyRouterAdvertisement", "FastBindingUpdate", "FastBindingAck"),
    "bind": ("BindingUpdate", "BindingAck"),
    "tunnel_start": ("TunnelStart",),
    "tunnel_stop": ("TunnelStop",),
}


def select_tool(request: HOExecutionRequest, target_cell: Cell) -> Tool:
    """Cheapest capable tool: seamless if the device can, else FMIP, else plain."""
    if request.mbb_flag:
        return Tool.MIP_MBB
    if target_cell.supports_fmip:
        return Tool.FMIP
    return Tool.MIP_BBM


def interruption_time(ctx: HandoverContext) -> int:
    """Connectivity gap of a completed handover in microseconds."""
    if ctx.phase is not Phase.DONE:
        raise ValueError("interruption is undefined before the handover completes")
    if ctx.tool is Tool.MIP_MBB:
        return 0
    assert ctx.t_break is not None and ctx.t_restore is not None
    return ctx.t_restore - ctx.t_break


class Holm:
    """The HOLM functional entity."""

    def __init__(
        self, kernel: Kernel, env: Environment, daemons: DaemonHost, flow_table
    ) -> None:
        self._kernel = kernel
        self._env = env
        self._daemons = daemons
        self._table = flow_table
        self._contexts: dict[int, HandoverContext] = {}
        self.completed: list[HandoverContext] = []
        # (response type, context) of the outstanding request
        self._waiting: tuple[type, HandoverContext] | None = None

    def handle(self, event: SimEvent) -> None:
        payload = event.payload
        if isinstance(payload, HOExecutionRequest):
            self._start(payload, event.at)
            return
        # A response nothing waits for is dropped: a stray one, or a late one
        # for a context that has already ended.
        waiting = self._waiting
        if waiting is None or not isinstance(payload, waiting[0]):
            return
        self._waiting = None
        self._step_done(waiting[1], payload.result, payload)

    def _start(self, request: HOExecutionRequest, at: SimTime) -> None:
        if request.flow in self._contexts:
            self._send(FE_MRRM, HOComplete(result=Result.failure("busy")))
            return
        if request.current is None:
            tool = Tool.MIP_MBB  # establishment binds via plain Mobile IP
        else:
            tool = select_tool(request, self._env.cell(request.target))
        ctx = HandoverContext(
            flow=request.flow,
            current=request.current,
            target=request.target,
            tool=tool,
            t_start=at,
        )
        self._contexts[request.flow] = ctx
        self._begin(ctx)

    def _begin(self, ctx: HandoverContext) -> None:
        """Start the context's next step, or complete it after its last one."""
        steps = STEPS[ctx.variant]
        if ctx.step == len(steps):
            self._finish(ctx, Result.success())
            return
        step = steps[ctx.step]
        if step in ("attach", "detach", "switch") and Phase.LINK_CHANGING not in ctx.history:
            ctx.advance(Phase.LINK_CHANGING)
        if step in ("detach", "switch") and ctx.t_break is None:
            ctx.t_break = self._kernel.now
        match step:
            case "attach":
                requested = self._table.get(ctx.flow).requested
                self._request(
                    ctx,
                    LinkAttachResponse,
                    FE_MRRM,
                    LinkAttachRequest(flow=ctx.flow, target=ctx.target, requested_qos=requested),
                )
            case "detach":
                assert ctx.current is not None
                self._request(
                    ctx,
                    LinkDetachResponse,
                    FE_MRRM,
                    LinkDetachRequest(flow=ctx.flow, current=ctx.current),
                )
            case "switch":
                assert ctx.current is not None
                requested = self._table.get(ctx.flow).requested
                self._request(
                    ctx,
                    LinkSwitchResponse,
                    FE_MRRM,
                    LinkSwitchRequest(
                        flow=ctx.flow,
                        current=ctx.current,
                        target=ctx.target,
                        requested_qos=requested,
                    ),
                )
            case "path":
                ctx.advance(Phase.PATH_PENDING)
                fmip = ctx.tool is Tool.FMIP
                self._request(
                    ctx,
                    PathSelected,
                    FE_PATH_SELECTION,
                    PathSelect(flow=ctx.flow, target=ctx.target, fmip_flag=fmip),
                )
            case "prepare":
                ctx.advance(Phase.PREPARING)
                self._daemons.prepare(ctx, lambda result: self._step_done(ctx, result))
            case "bind":
                ctx.advance(Phase.BINDING_UPDATING)
                assert ctx.new_locator is not None
                self._daemons.update_binding(
                    ctx, ctx.new_locator, lambda result: self._step_done(ctx, result)
                )
            case "tunnel_start":
                self._step_done(ctx, self._daemons.tunnel_start(ctx))
            case "tunnel_stop":
                self._step_done(ctx, self._daemons.tunnel_stop(ctx))

    def _step_done(
        self, ctx: HandoverContext, result: Result, reply: Primitive | None = None
    ) -> None:
        """Fail the handover on a failed step; else record the outcome and go on."""
        if not result.ok:
            ctx.failure_reason = result.reason or "failed"
            self._finish(ctx, Result.failure(ctx.failure_reason))
            return
        now = self._kernel.now
        match STEPS[ctx.variant][ctx.step]:
            case "prepare":
                ctx.advance(Phase.PREPARED)
            case "path":
                assert isinstance(reply, PathSelected)
                ctx.new_locator = reply.new_locator
                ctx.advance(Phase.PATH_DONE)
            case "tunnel_start":
                # Forwarding over the tunnel restores service at attach time.
                ctx.t_restore = now
            case "bind":
                # Without an earlier break or tunnel, the locator switch is the
                # service hand-off instant: the old link is still up, so no gap.
                if ctx.t_break is None:
                    ctx.t_break = now
                if ctx.t_restore is None:
                    ctx.t_restore = now
        ctx.step += 1
        self._begin(ctx)

    def _finish(self, ctx: HandoverContext, result: Result) -> None:
        ctx.advance(Phase.DONE if result.ok else Phase.FAILED)
        del self._contexts[ctx.flow]
        self.completed.append(ctx)
        self._send(FE_MRRM, HOComplete(result=result))

    def _request(self, ctx: HandoverContext, reply: type, receiver: str, message) -> None:
        self._waiting = (reply, ctx)
        self._send(receiver, message)

    def _send(self, receiver: str, payload) -> None:
        self._kernel.schedule(0, FE_HOLM, receiver, payload)
