"""Handover orchestration: tool selection and the step table every variant runs.

One HandoverContext tracks each execution request from arrival to its single
HOComplete: the STEPS row it runs, the index of the step under way, the break
and restore instants, and the final Result. The signaling exchange is
generic: STEPS maps each variant to its ordered steps, and one step loop runs
every row. STEP_MESSAGES names the trace messages each step exchanges; the
conformance checker walks each handover context along the chain the two
tables give its row, so a new variant is one STEPS row (plus the messages of
any new step).

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

HOLM runs one handover at a time, so one slot holds the active context and
one the response type that resumes it. MRRM serializes handovers node-wide;
a request that arrives while one is under way, for any flow, breaks that
invariant and ends the run with a SimulationError, and so does a response
that the step under way does not await.

Interruption is restore minus break. The break is the first detach or switch
step, else the binding ack; the restore is the tunnel start, else the binding
ack. So make-before-break and establishment have no gap.
"""
from __future__ import annotations

from dataclasses import dataclass
from .core import (
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
from .simkernel import Kernel, SimTime


@dataclass(eq=False, repr=False)
class HandoverContext:
    """One handover, from its execution request to its HOComplete."""

    flow: int
    current: AccessId | None
    target: AccessId
    variant: str  # the STEPS row it runs
    t_start: SimTime
    t_break: SimTime | None = None
    t_restore: SimTime | None = None
    new_locator: Locator | None = None
    step: int = 0  # index into STEPS[variant] of the step under way
    result: Result | None = None  # set when the handover completes


# The ordered steps of each variant. Holm._begin starts a step; Holm._step_done
# ends it and starts the next.
STEPS: dict[str, tuple[str, ...]] = {
    "establishment": ("attach", "path", "bind"),
    "mbb": ("attach", "path", "bind", "detach"),
    "bbm": ("detach", "attach", "path", "bind"),
    "fmip": ("prepare", "path", "switch", "tunnel_start", "bind", "tunnel_stop"),
}

# The trace messages each step exchanges, in order. The conformance checker
# derives its vocabulary and each row's chain from these rows and STEPS.
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


def select_tool(request: HOExecutionRequest, target_cell: Cell) -> str:
    """Cheapest capable tool: seamless if the device can, else FMIP, else plain."""
    if request.mbb_flag:
        return "mbb"
    if target_cell.supports_fmip:
        return "fmip"
    return "bbm"


def interruption_time(ctx: HandoverContext) -> int:
    """Connectivity gap of a successful handover in microseconds."""
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
        self.completed: list[HandoverContext] = []
        # The handover under way, and the response type that resumes it.
        self._active: HandoverContext | None = None
        self._awaiting: type | None = None

    def handle(self, payload) -> None:
        if isinstance(payload, HOExecutionRequest):
            self._start(payload)
            return
        # Every response answers the one request of the step under way.
        assert type(payload) is self._awaiting, "a response HOLM never asked for"
        self._awaiting = None
        assert self._active is not None
        self._step_done(self._active, payload.result, payload)

    def _start(self, request: HOExecutionRequest) -> None:
        assert self._active is None, "a handover request while another runs"
        if request.current is None:
            variant = "establishment"
        else:
            variant = select_tool(request, self._env.cell(request.target))
        ctx = HandoverContext(
            flow=request.flow,
            current=request.current,
            target=request.target,
            variant=variant,
            t_start=self._kernel.now,
        )
        self._active = ctx
        self._begin(ctx)

    def _begin(self, ctx: HandoverContext) -> None:
        """Start the context's next step, or complete it after its last one."""
        steps = STEPS[ctx.variant]
        if ctx.step == len(steps):
            self._finish(ctx, Result.success())
            return
        step = steps[ctx.step]
        if step in ("detach", "switch") and ctx.t_break is None:
            ctx.t_break = self._kernel.now
        match step:
            case "attach":
                requested = self._table.get(ctx.flow).requested
                self._request(
                    LinkAttachResponse,
                    LinkAttachRequest(ctx.flow, ctx.target, requested),
                )
            case "detach":
                assert ctx.current is not None
                self._request(
                    LinkDetachResponse,
                    LinkDetachRequest(ctx.flow, ctx.current),
                )
            case "switch":
                assert ctx.current is not None
                requested = self._table.get(ctx.flow).requested
                self._request(
                    LinkSwitchResponse,
                    LinkSwitchRequest(ctx.flow, ctx.current, ctx.target, requested),
                )
            case "path":
                fmip = ctx.variant == "fmip"
                self._request(
                    PathSelected,
                    PathSelect(ctx.flow, ctx.target, fmip),
                )
            case "prepare":
                self._daemons.prepare(ctx, lambda result: self._step_done(ctx, result))
            case "bind":
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
            self._finish(ctx, result)
            return
        now = self._kernel.now
        match STEPS[ctx.variant][ctx.step]:
            case "path":
                assert isinstance(reply, PathSelected)
                ctx.new_locator = reply.new_locator
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
        ctx.result = result
        self._active = None
        self.completed.append(ctx)
        self._kernel.schedule(0, HOComplete(result))

    def _request(self, reply: type, message) -> None:
        self._awaiting = reply
        self._kernel.schedule(0, message)
