"""Handover orchestration: tool selection and the per-tool signaling sequences.

One HandoverContext tracks each execution request from arrival to its single
HOComplete. Three tools are orchestrated:

* mbb   - attach the new link first, rebind, then free the old link
          (needs simultaneous radio transmissions); service never breaks.
* bbm   - free the old link first, then attach, configure a locator and
          rebind; service is down for the whole tail of the sequence.
* fmip  - prepare the target over the old link, pick the locator before
          attaching, switch radios and tunnel until the binding completes.

Flow establishment reuses the attach-first sequence without the final detach,
since there is no previous access or binding to tear down.

A failed step aborts the remaining sequence and reports the failure; no
rollback or reattach is attempted.

MRRM serializes handovers node-wide, so at most one request step is ever
outstanding; HOLM keeps it in a single slot together with the response type
that resumes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Callable

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
    old_locator: Locator | None = None
    new_locator: Locator | None = None
    failure_reason: str | None = None
    history: list[Phase] = field(default_factory=list)

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
        # (response type, context, continuation) of the outstanding request
        self._waiting: tuple[type, HandoverContext, Callable] | None = None

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
        _, ctx, cont = waiting
        cont(self, ctx, payload)

    # -- sequence entry ---------------------------------------------------------

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
            old_locator=self._daemons.flow_locators.get(request.flow),
        )
        self._contexts[request.flow] = ctx
        if request.current is None or tool is Tool.MIP_MBB:
            self._begin_attach_first(ctx)
        elif tool is Tool.MIP_BBM:
            self._begin_detach_first(ctx)
        else:
            self._begin_fmip(ctx)

    # -- attach-first (establishment and make-before-break) ----------------------

    def _begin_attach_first(self, ctx: HandoverContext) -> None:
        ctx.advance(Phase.LINK_CHANGING)
        self._link_attach(ctx, Holm._attach_first_attached)

    def _attach_first_attached(self, ctx: HandoverContext, resp: LinkAttachResponse) -> None:
        if not resp.result.ok:
            self._fail(ctx, resp.result.reason)
            return
        self._path_select(ctx, fmip=False, cont=Holm._attach_first_path_done)

    def _attach_first_path_done(self, ctx: HandoverContext, resp: PathSelected) -> None:
        if not resp.result.ok:
            self._fail(ctx, resp.result.reason)
            return
        ctx.new_locator = resp.new_locator
        ctx.advance(Phase.PATH_DONE)
        self._bind(ctx, lambda result: self._attach_first_bound(ctx, result))

    def _attach_first_bound(self, ctx: HandoverContext, result: Result) -> None:
        if not result.ok:
            self._fail(ctx, result.reason)
            return
        # The locator switch is the service hand-off instant; the old link is
        # still up, so there is no gap.
        ctx.t_break = self._kernel.now
        ctx.t_restore = self._kernel.now
        if ctx.current is None:
            self._complete(ctx)
            return
        self._link_detach(ctx, Holm._attach_first_detached)

    def _attach_first_detached(self, ctx: HandoverContext, resp: LinkDetachResponse) -> None:
        if not resp.result.ok:
            self._fail(ctx, resp.result.reason)
            return
        self._complete(ctx)

    # -- detach-first (break-before-make) -----------------------------------------

    def _begin_detach_first(self, ctx: HandoverContext) -> None:
        ctx.advance(Phase.LINK_CHANGING)
        ctx.t_break = self._kernel.now
        self._link_detach(ctx, Holm._detach_first_detached)

    def _detach_first_detached(self, ctx: HandoverContext, resp: LinkDetachResponse) -> None:
        if not resp.result.ok:
            self._fail(ctx, resp.result.reason)
            return
        self._link_attach(ctx, Holm._detach_first_attached)

    def _detach_first_attached(self, ctx: HandoverContext, resp: LinkAttachResponse) -> None:
        if not resp.result.ok:
            # The old link is already gone; end failed without reattaching.
            self._fail(ctx, resp.result.reason)
            return
        self._path_select(ctx, fmip=False, cont=Holm._detach_first_path_done)

    def _detach_first_path_done(self, ctx: HandoverContext, resp: PathSelected) -> None:
        if not resp.result.ok:
            self._fail(ctx, resp.result.reason)
            return
        ctx.new_locator = resp.new_locator
        ctx.advance(Phase.PATH_DONE)
        self._bind(ctx, lambda result: self._detach_first_bound(ctx, result))

    def _detach_first_bound(self, ctx: HandoverContext, result: Result) -> None:
        if not result.ok:
            self._fail(ctx, result.reason)
            return
        ctx.t_restore = self._kernel.now
        self._complete(ctx)

    # -- fmip ---------------------------------------------------------------------

    def _begin_fmip(self, ctx: HandoverContext) -> None:
        ctx.advance(Phase.PREPARING)
        self._daemons.fmip.prepare(ctx, lambda result: self._fmip_prepared(ctx, result))

    def _fmip_prepared(self, ctx: HandoverContext, result: Result) -> None:
        if not result.ok:
            self._fail(ctx, result.reason)
            return
        ctx.advance(Phase.PREPARED)
        self._path_select(ctx, fmip=True, cont=Holm._fmip_path_done)

    def _fmip_path_done(self, ctx: HandoverContext, resp: PathSelected) -> None:
        if not resp.result.ok:
            self._fail(ctx, resp.result.reason)
            return
        ctx.new_locator = resp.new_locator
        ctx.advance(Phase.PATH_DONE)
        ctx.advance(Phase.LINK_CHANGING)
        ctx.t_break = self._kernel.now
        self._link_switch(ctx, Holm._fmip_switched)

    def _fmip_switched(self, ctx: HandoverContext, resp: LinkSwitchResponse) -> None:
        if not resp.result.ok:
            self._fail(ctx, resp.result.reason)
            return
        started = self._daemons.fmip.tunnel(ctx, "start")
        if not started.ok:
            self._fail(ctx, started.reason)
            return
        # Forwarding over the tunnel restores service at attach time.
        ctx.t_restore = self._kernel.now
        self._bind(ctx, lambda result: self._fmip_bound(ctx, result))

    def _fmip_bound(self, ctx: HandoverContext, result: Result) -> None:
        if not result.ok:
            self._fail(ctx, result.reason)
            return
        stopped = self._daemons.fmip.tunnel(ctx, "stop")
        if not stopped.ok:
            self._fail(ctx, stopped.reason)
            return
        self._complete(ctx)

    # -- step helpers ----------------------------------------------------------------

    def _link_attach(self, ctx: HandoverContext, cont: Callable) -> None:
        self._waiting = (LinkAttachResponse, ctx, cont)
        self._send(
            FE_MRRM,
            LinkAttachRequest(
                flow=ctx.flow, target=ctx.target, requested_qos=self._requested(ctx)
            ),
        )

    def _link_switch(self, ctx: HandoverContext, cont: Callable) -> None:
        assert ctx.current is not None
        self._waiting = (LinkSwitchResponse, ctx, cont)
        self._send(
            FE_MRRM,
            LinkSwitchRequest(
                flow=ctx.flow,
                current=ctx.current,
                target=ctx.target,
                requested_qos=self._requested(ctx),
            ),
        )

    def _link_detach(self, ctx: HandoverContext, cont: Callable) -> None:
        assert ctx.current is not None
        self._waiting = (LinkDetachResponse, ctx, cont)
        self._send(FE_MRRM, LinkDetachRequest(flow=ctx.flow, current=ctx.current))

    def _path_select(self, ctx: HandoverContext, fmip: bool, cont: Callable) -> None:
        ctx.advance(Phase.PATH_PENDING)
        self._waiting = (PathSelected, ctx, cont)
        self._send(
            FE_PATH_SELECTION,
            PathSelect(flow=ctx.flow, target=ctx.target, fmip_flag=fmip),
        )

    def _bind(self, ctx: HandoverContext, done: Callable[[Result], None]) -> None:
        ctx.advance(Phase.BINDING_UPDATING)
        assert ctx.new_locator is not None
        daemon = self._daemons.fmip if ctx.tool is Tool.FMIP else self._daemons.mip
        daemon.update_binding(ctx, ctx.new_locator, done)

    def _complete(self, ctx: HandoverContext) -> None:
        ctx.advance(Phase.DONE)
        self._retire(ctx)
        self._send(FE_MRRM, HOComplete(result=Result.success()))

    def _fail(self, ctx: HandoverContext, reason: str | None) -> None:
        ctx.failure_reason = reason or "failed"
        ctx.advance(Phase.FAILED)
        self._retire(ctx)
        self._send(FE_MRRM, HOComplete(result=Result.failure(ctx.failure_reason)))

    def _retire(self, ctx: HandoverContext) -> None:
        del self._contexts[ctx.flow]
        self.completed.append(ctx)

    def _requested(self, ctx: HandoverContext):
        return self._table.get(ctx.flow).requested

    def _send(self, receiver: str, payload) -> None:
        self._kernel.schedule(0, FE_HOLM, receiver, payload)
