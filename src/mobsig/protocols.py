"""The Daemon entity: Mobile IP binding updates and the FMIP extensions.

HOLM invokes the daemon node-internally (plain method calls; the slow calls
finish through a completion callback). The messages it exchanges with the
network side travel through the event kernel between the Daemon and Env
entities and therefore show up in the trace.

The daemon serves the one handover HOLM runs, so at most one network reply is
awaited at a time: one slot holds its type, the handover and the completion.
The order of the steps is HOLM's; the daemon checks only what the environment
answers: whether the old link still holds, whether a locator is still valid,
and whether the target is attached when the tunnel starts.
"""

from __future__ import annotations

from typing import Callable, Protocol

from .core import (
    FE_DAEMON,
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
from .simkernel import Kernel


class HandoverState(Protocol):
    """What the daemon needs to know about the handover it serves."""

    flow: int
    current: AccessId | None
    target: AccessId


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
        # The awaited reply's type, the handover it serves and its completion.
        self._waiting: tuple[type, HandoverState, Callable[[Result], None]] | None = None

    def update_binding(
        self, ctx: HandoverState, new_locator: Locator, done: Callable[[Result], None]
    ) -> None:
        if not self._env.locator_valid(new_locator):
            self._kernel.call_later(0, lambda: done(Result.failure("stale_locator")), FE_DAEMON)
            return
        self._kernel.schedule(0, BindingUpdate(ctx.flow, new_locator))
        self._waiting = (BindingAck, ctx, done)
        self._kernel.schedule(
            self._env.latency(self._binding_rtt_us),
            BindingAck(ctx.flow, Result.success()),
        )

    def prepare(self, ctx: HandoverState, done: Callable[[Result], None]) -> None:
        """Run PrRtAdv -> FBU -> FBAck over the current link, one-way latency each."""
        if not self._on_old_link(ctx):
            self._kernel.call_later(0, lambda: done(Result.failure("link_lost")), FE_DAEMON)
            return
        self._waiting = (ProxyRouterAdvertisement, ctx, done)
        self._kernel.schedule(
            self._env.latency(self._fmip_oneway_us),
            ProxyRouterAdvertisement(ctx.flow, ctx.target),
        )

    def tunnel_start(self, ctx: HandoverState) -> Result:
        """Start forwarding once the prepared target is attached."""
        if not self._env.attached(ctx.flow, ctx.target):
            return Result.failure("not_attached")
        assert ctx.current is not None
        self._kernel.schedule(0, TunnelStart(ctx.flow, ctx.current, ctx.target))
        return Result.success()

    def tunnel_stop(self, ctx: HandoverState) -> Result:
        """Stop forwarding; HOLM calls this once the new binding is acked."""
        self._kernel.schedule(0, TunnelStop(ctx.flow))
        return Result.success()

    def handle(self, payload) -> None:
        """Network replies; each is the one the daemon scheduled and awaits."""
        reply, ctx, done = self._waiting
        assert type(payload) is reply and payload.flow == ctx.flow, "a reply never awaited"
        self._waiting = None
        if isinstance(payload, ProxyRouterAdvertisement):
            if not self._on_old_link(ctx):
                done(Result.failure("link_lost"))
                return
            self._waiting = (FastBindingAck, ctx, done)
            to_router = self._env.latency(self._fmip_oneway_us)
            self._kernel.schedule(
                to_router,
                FastBindingUpdate(ctx.flow, ctx.current, ctx.target),
            )
            self._kernel.schedule(
                to_router + self._env.latency(self._fmip_oneway_us),
                FastBindingAck(ctx.flow, Result.success()),
            )
            return
        result = payload.result
        if isinstance(payload, FastBindingAck) and result.ok and not self._on_old_link(ctx):
            result = Result.failure("link_lost")
        done(result)

    def _on_old_link(self, ctx: HandoverState) -> bool:
        return ctx.current is not None and self._env.attached(ctx.flow, ctx.current)
