"""Mobility protocol daemons: Mobile IP binding updates and FMIP extensions.

Daemons are invoked node-internally (plain method calls with completion
callbacks); the messages they exchange with the network side travel through the
event kernel between the Daemon and Env entities and therefore show up in the
trace.
"""

from __future__ import annotations

import random
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
    """What a daemon needs to know about the handover it serves."""

    flow: int
    current: AccessId | None
    target: AccessId


@dataclass
class FmipState:
    """Per-flow FMIP bookkeeping."""

    prepared_for: AccessId | None = None
    tunnel_active: bool = False
    binding_acked: bool = False


class MipDaemon:
    """Mobile IP locator binding: one BindingUpdate/BindingAck pair per handover."""

    def __init__(self, host: "DaemonHost") -> None:
        self._host = host

    def update_binding(
        self, ctx: HandoverState, new_locator: Locator, done: Callable[[Result], None]
    ) -> None:
        host = self._host
        if not host.env.locator_valid(new_locator):
            host.later(0, lambda: done(Result.failure("stale_locator")))
            return
        host.send(FE_DAEMON, FE_ENVIRONMENT, BindingUpdate(flow=ctx.flow, locator=new_locator))

        def acked(result: Result) -> None:
            if result.ok:
                host.flow_locators[ctx.flow] = new_locator
            done(result)

        host.expect_binding_ack(ctx.flow, acked)
        host.send_delayed(
            host.latency(host.binding_rtt_us),
            FE_ENVIRONMENT,
            FE_DAEMON,
            BindingAck(flow=ctx.flow, result=Result.success()),
        )


class FmipDaemon(MipDaemon):
    """FMIP: prepares the target over the old link and tunnels across the switch."""

    def __init__(self, host: "DaemonHost") -> None:
        super().__init__(host)
        self._states: dict[int, FmipState] = {}
        self._prepare_done: dict[int, Callable[[Result], None]] = {}

    def state(self, flow: int) -> FmipState:
        return self._states.setdefault(flow, FmipState())

    def prepare(self, ctx: HandoverState, done: Callable[[Result], None]) -> None:
        """Run PrRtAdv -> FBU -> FBAck over the current link, one-way latency each."""
        host = self._host
        if ctx.current is None or not host.env.attached(ctx.flow, ctx.current):
            host.later(0, lambda: done(Result.failure("link_lost")))
            return
        if not host.env.cell(ctx.target).supports_fmip:
            host.later(0, lambda: done(Result.failure("fmip_unsupported")))
            return
        host.track_fmip(ctx)
        self._prepare_done[ctx.flow] = done
        self.state(ctx.flow).binding_acked = False
        host.send_delayed(
            host.latency(host.fmip_oneway_us),
            FE_ENVIRONMENT,
            FE_DAEMON,
            ProxyRouterAdvertisement(flow=ctx.flow, target=ctx.target),
        )

    def on_advertisement(self, ctx: HandoverState) -> None:
        host = self._host
        if ctx.current is None or not host.env.attached(ctx.flow, ctx.current):
            self._finish_prepare(ctx.flow, Result.failure("link_lost"))
            return
        to_router = host.latency(host.fmip_oneway_us)
        host.send_delayed(
            to_router,
            FE_DAEMON,
            FE_ENVIRONMENT,
            FastBindingUpdate(flow=ctx.flow, current=ctx.current, target=ctx.target),
        )
        host.send_delayed(
            to_router + host.latency(host.fmip_oneway_us),
            FE_ENVIRONMENT,
            FE_DAEMON,
            FastBindingAck(flow=ctx.flow, result=Result.success()),
        )

    def on_fast_binding_ack(self, ctx: HandoverState, result: Result) -> None:
        host = self._host
        if result.ok and (ctx.current is None or not host.env.attached(ctx.flow, ctx.current)):
            result = Result.failure("link_lost")
        if result.ok:
            self.state(ctx.flow).prepared_for = ctx.target
        self._finish_prepare(ctx.flow, result)

    def _finish_prepare(self, flow: int, result: Result) -> None:
        done = self._prepare_done.pop(flow, None)
        if done is not None:
            done(result)

    def tunnel(self, ctx: HandoverState, action: str) -> Result:
        """Start forwarding at attach time; stop only after the binding is acked."""
        host = self._host
        state = self.state(ctx.flow)
        if action == "start":
            if state.prepared_for != ctx.target:
                return Result.failure("not_prepared")
            if not host.env.attached(ctx.flow, ctx.target):
                return Result.failure("not_attached")
            state.tunnel_active = True
            assert ctx.current is not None
            host.send(
                FE_DAEMON,
                FE_ENVIRONMENT,
                TunnelStart(flow=ctx.flow, current=ctx.current, target=ctx.target),
            )
            return Result.success()
        if action == "stop":
            if not state.tunnel_active:
                return Result.failure("no_tunnel")
            if not state.binding_acked:
                return Result.failure("binding_pending")
            state.tunnel_active = False
            state.prepared_for = None
            host.send(FE_DAEMON, FE_ENVIRONMENT, TunnelStop(flow=ctx.flow))
            return Result.success()
        raise ValueError(f"unknown tunnel action: {action!r}")

    def update_binding(
        self, ctx: HandoverState, new_locator: Locator, done: Callable[[Result], None]
    ) -> None:
        def mark_acked(result: Result) -> None:
            if result.ok:
                self.state(ctx.flow).binding_acked = True
            done(result)

        super().update_binding(ctx, new_locator, mark_acked)


class DaemonHost:
    """The Daemon functional entity: routes network replies to the owning daemon."""

    def __init__(
        self,
        kernel: Kernel,
        env: Environment,
        binding_rtt_us: int,
        fmip_oneway_us: int,
        rng: random.Random | None = None,
        jitter_us: int = 0,
    ) -> None:
        self._kernel = kernel
        self.env = env
        self.binding_rtt_us = binding_rtt_us
        self.fmip_oneway_us = fmip_oneway_us
        self._rng = rng
        self._jitter_us = jitter_us
        self.flow_locators: dict[int, Locator] = {}
        self._binding_waiters: dict[int, Callable[[Result], None]] = {}
        self._fmip_contexts: dict[int, HandoverState] = {}
        self.mip = MipDaemon(self)
        self.fmip = FmipDaemon(self)

    # -- plumbing shared by the daemons -----------------------------------------

    def latency(self, base_us: int) -> int:
        if self._jitter_us and self._rng is not None:
            return base_us + self._rng.randint(0, self._jitter_us)
        return base_us

    def send(self, sender: str, receiver: str, payload) -> None:
        self._kernel.schedule(0, sender, receiver, payload)

    def send_delayed(self, delay_us: int, sender: str, receiver: str, payload) -> None:
        self._kernel.schedule(delay_us, sender, receiver, payload)

    def later(self, delay_us: int, fn: Callable[[], None]) -> None:
        self._kernel.call_later(delay_us, fn, owner=FE_DAEMON)

    def expect_binding_ack(self, flow: int, done: Callable[[Result], None]) -> None:
        self._binding_waiters[flow] = done

    def track_fmip(self, ctx: HandoverState) -> None:
        self._fmip_contexts[ctx.flow] = ctx

    # -- event handling -----------------------------------------------------------

    def handle(self, event: SimEvent) -> None:
        payload = event.payload
        if isinstance(payload, ProxyRouterAdvertisement):
            self.fmip.on_advertisement(self._fmip_contexts[payload.flow])
        elif isinstance(payload, FastBindingAck):
            self.fmip.on_fast_binding_ack(self._fmip_contexts[payload.flow], payload.result)
        elif isinstance(payload, BindingAck):
            done = self._binding_waiters.pop(payload.flow, None)
            if done is not None:
                done(payload.result)
