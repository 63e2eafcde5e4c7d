"""The Daemon entity: Mobile IP binding updates and the FMIP extensions.

HOLM invokes the daemon node-internally (plain method calls; the slow calls
finish through a completion callback). The messages it exchanges with the
network side travel through the event kernel between the Daemon and Env
entities and therefore show up in the trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

from .core import (
    FE_DAEMON,
    FE_ENVIRONMENT,
    AccessId,
    BindingAck,
    BindingUpdate,
    FastBindingAck,
    FastBindingUpdate,
    Locator,
    ProxyRouterAdvertisement,
    Result,
    TunnelStart,
    TunnelStop,
)
from .environment import Environment
from .simkernel import Kernel, SimEvent


class HandoverState(Protocol):
    """What the daemon needs to know about the handover it serves."""

    flow: int
    current: AccessId | None
    target: AccessId


@dataclass
class FmipState:
    """Per-flow FMIP bookkeeping."""

    prepared_for: AccessId | None = None
    tunnel_active: bool = False
    binding_acked: bool = False


class DaemonHost:
    """The Daemon functional entity.

    Mobile IP binding is one BindingUpdate/BindingAck pair per handover. FMIP
    prepares the target over the old link and tunnels across the switch.
    """

    def __init__(
        self, kernel: Kernel, env: Environment, binding_rtt_us: int, fmip_oneway_us: int
    ) -> None:
        self._kernel = kernel
        self._env = env
        self._binding_rtt_us = binding_rtt_us
        self._fmip_oneway_us = fmip_oneway_us
        self._states: dict[int, FmipState] = {}
        # flow -> completion of the binding update in flight
        self._binding_waiters: dict[int, Callable[[Result], None]] = {}
        # flow -> (handover, completion) of the preparation in flight
        self._preparations: dict[int, tuple[HandoverState, Callable[[Result], None]]] = {}

    def state(self, flow: int) -> FmipState:
        return self._states.setdefault(flow, FmipState())

    def update_binding(
        self, ctx: HandoverState, new_locator: Locator, done: Callable[[Result], None]
    ) -> None:
        if not self._env.locator_valid(new_locator):
            self._kernel.call_later(0, lambda: done(Result.failure("stale_locator")), FE_DAEMON)
            return
        self._kernel.schedule(
            0, FE_DAEMON, FE_ENVIRONMENT, BindingUpdate(flow=ctx.flow, locator=new_locator)
        )
        self._binding_waiters[ctx.flow] = done
        self._kernel.schedule(
            self._env.latency(self._binding_rtt_us),
            FE_ENVIRONMENT,
            FE_DAEMON,
            BindingAck(flow=ctx.flow, result=Result.success()),
        )

    def prepare(self, ctx: HandoverState, done: Callable[[Result], None]) -> None:
        """Run PrRtAdv -> FBU -> FBAck over the current link, one-way latency each."""
        if not self._on_old_link(ctx):
            self._kernel.call_later(0, lambda: done(Result.failure("link_lost")), FE_DAEMON)
            return
        if not self._env.cell(ctx.target).supports_fmip:
            self._kernel.call_later(
                0, lambda: done(Result.failure("fmip_unsupported")), FE_DAEMON
            )
            return
        self._preparations[ctx.flow] = (ctx, done)
        self.state(ctx.flow).binding_acked = False
        self._kernel.schedule(
            self._env.latency(self._fmip_oneway_us),
            FE_ENVIRONMENT,
            FE_DAEMON,
            ProxyRouterAdvertisement(flow=ctx.flow, target=ctx.target),
        )

    def tunnel_start(self, ctx: HandoverState) -> Result:
        """Start forwarding once the prepared target is attached."""
        state = self.state(ctx.flow)
        if state.prepared_for != ctx.target:
            return Result.failure("not_prepared")
        if not self._env.attached(ctx.flow, ctx.target):
            return Result.failure("not_attached")
        state.tunnel_active = True
        assert ctx.current is not None
        self._kernel.schedule(
            0,
            FE_DAEMON,
            FE_ENVIRONMENT,
            TunnelStart(flow=ctx.flow, current=ctx.current, target=ctx.target),
        )
        return Result.success()

    def tunnel_stop(self, ctx: HandoverState) -> Result:
        """Stop forwarding, but only after the new binding is acked."""
        state = self.state(ctx.flow)
        if not state.tunnel_active:
            return Result.failure("no_tunnel")
        if not state.binding_acked:
            return Result.failure("binding_pending")
        state.tunnel_active = False
        state.prepared_for = None
        self._kernel.schedule(0, FE_DAEMON, FE_ENVIRONMENT, TunnelStop(flow=ctx.flow))
        return Result.success()

    def handle(self, event: SimEvent) -> None:
        """Network replies; one for a flow with nothing in flight is dropped."""
        payload = event.payload
        if isinstance(payload, ProxyRouterAdvertisement):
            preparation = self._preparations.get(payload.flow)
            if preparation is None:
                return
            ctx = preparation[0]
            if not self._on_old_link(ctx):
                del self._preparations[ctx.flow]
                preparation[1](Result.failure("link_lost"))
                return
            to_router = self._env.latency(self._fmip_oneway_us)
            self._kernel.schedule(
                to_router,
                FE_DAEMON,
                FE_ENVIRONMENT,
                FastBindingUpdate(flow=ctx.flow, current=ctx.current, target=ctx.target),
            )
            self._kernel.schedule(
                to_router + self._env.latency(self._fmip_oneway_us),
                FE_ENVIRONMENT,
                FE_DAEMON,
                FastBindingAck(flow=ctx.flow, result=Result.success()),
            )
        elif isinstance(payload, FastBindingAck):
            preparation = self._preparations.pop(payload.flow, None)
            if preparation is None:
                return
            ctx, done = preparation
            result = payload.result
            if result.ok and not self._on_old_link(ctx):
                result = Result.failure("link_lost")
            if result.ok:
                self.state(ctx.flow).prepared_for = ctx.target
            done(result)
        elif isinstance(payload, BindingAck):
            done = self._binding_waiters.pop(payload.flow, None)
            if done is None:
                return
            if payload.result.ok:
                state = self._states.get(payload.flow)
                if state is not None:
                    state.binding_acked = True
            done(payload.result)

    def _on_old_link(self, ctx: HandoverState) -> bool:
        return ctx.current is not None and self._env.attached(ctx.flow, ctx.current)
