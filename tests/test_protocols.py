"""Mobility daemons: binding updates, FMIP preparation, tunnel control."""

import random
from dataclasses import dataclass

import pytest

from mobsig.core import (
    FE_DAEMON,
    FE_ENVIRONMENT,
    AccessId,
    BindingAck,
    FastBindingAck,
    Locator,
    ProxyRouterAdvertisement,
    Result,
)
from mobsig.environment import Environment
from mobsig.protocols import DaemonHost
from mobsig.simkernel import Kernel, SimulationError, TraceRecorder, trace_records

from support import REQUESTED, make_cell, still_trajectory


@dataclass
class Ctx:
    """Minimal handover state as the daemons see it."""

    flow: int
    current: AccessId | None
    target: AccessId


def build_host():
    recorder = TraceRecorder()
    kernel = Kernel(recorder=recorder)
    cells = (
        make_cell(),  # cell-a, no FMIP
        make_cell(cell_id="cell-b", network_id="net-2", rat="cellular", supports_fmip=True),
    )
    env = Environment(kernel, cells, still_trajectory(), rng=random.Random(0), jitter_us=0)
    daemons = DaemonHost(kernel, env, binding_rtt_us=40_000, fmip_oneway_us=5_000)
    kernel.register(FE_ENVIRONMENT, env.handle)
    kernel.register(FE_DAEMON, daemons.handle)
    return kernel, recorder, env, daemons, cells[0].access, cells[1].access


def attach(kernel, env, flow, access):
    env.link_attach(flow, access, REQUESTED, lambda r, q: None)
    kernel.run_until_quiescent()


def allocate(kernel, env, flow, access):
    out = []
    env.allocate_locator(flow, access, False, lambda r, loc: out.append(loc))
    kernel.run_until_quiescent()
    return out[0]


def names_at(recorder):
    return [(r.name, r.at, r.sender, r.receiver) for r in trace_records(recorder.events)]


class TestUpdateBinding:
    def test_binding_round_trip_takes_one_rtt(self):
        kernel, recorder, env, daemons, a, _ = build_host()
        attach(kernel, env, 1, a)
        locator = allocate(kernel, env, 1, a)
        t0 = kernel.now
        done = []
        daemons.update_binding(Ctx(1, None, a), locator, lambda r: done.append((r, kernel.now)))
        kernel.run_until_quiescent()
        result, at = done[0]
        assert result.ok and at == t0 + 40_000
        assert trace_records(recorder.events)[-2].params["locator"]["address"] == locator.address
        tail = names_at(recorder)[-2:]
        assert tail[0][:2] == ("BindingUpdate", t0)
        assert tail[0][2:] == (FE_DAEMON, FE_ENVIRONMENT)
        assert tail[1][:2] == ("BindingAck", t0 + 40_000)
        assert tail[1][2:] == (FE_ENVIRONMENT, FE_DAEMON)

    def test_stale_locator_fails_without_signaling(self):
        kernel, recorder, env, daemons, a, _ = build_host()
        phantom = Locator(address="net-1/cell-a/99", access=a, kind="care_of")
        done = []
        daemons.update_binding(Ctx(1, None, a), phantom, lambda r: done.append(r))
        kernel.run_until_quiescent()
        assert done[0].reason == "stale_locator"
        assert not any(r.name == "BindingUpdate" for r in trace_records(recorder.events))

    def test_rebinding_replaces_the_flow_locator(self):
        kernel, recorder, env, daemons, a, b = build_host()
        attach(kernel, env, 1, a)
        attach(kernel, env, 1, b)
        first = allocate(kernel, env, 1, a)
        second = allocate(kernel, env, 1, b)
        done = []
        for locator in (first, second):
            daemons.update_binding(Ctx(1, None, a), locator, lambda r: done.append(r))
            kernel.run_until_quiescent()
        assert [r.ok for r in done] == [True, True]
        updates = [r.params["locator"]["address"] for r in trace_records(recorder.events)
                   if r.name == "BindingUpdate"]
        assert updates == [first.address, second.address]

    @pytest.mark.parametrize(
        "reply",
        [
            BindingAck(flow=9, result=Result.success()),
            FastBindingAck(flow=9, result=Result.success()),
            ProxyRouterAdvertisement(flow=9, target=AccessId("cell-b", "net-2", "cellular")),
        ],
        ids=lambda reply: type(reply).__name__,
    )
    def test_stray_binding_ack_is_ignored(self, reply):
        """A reply while nothing is awaited ends the run."""
        kernel, recorder, _, daemons, _, _ = build_host()
        kernel.schedule(0, reply)
        with pytest.raises(SimulationError):  # nothing waits for a reply
            kernel.run_until_quiescent()
        assert names_at(recorder) == [(type(reply).__name__, 0, FE_ENVIRONMENT, FE_DAEMON)]


class TestFmipPrepare:
    def test_three_one_way_hops_over_the_old_link(self):
        kernel, recorder, env, daemons, a, b = build_host()
        attach(kernel, env, 1, a)
        t0 = kernel.now
        done = []
        daemons.prepare(Ctx(1, a, b), lambda r: done.append((r, kernel.now)))
        kernel.run_until_quiescent()
        result, at = done[0]
        assert result.ok and at == t0 + 3 * 5_000
        hops = [(r.name, r.at - t0) for r in trace_records(recorder.events) if r.at > t0]
        assert hops == [
            ("ProxyRouterAdvertisement", 5_000),
            ("FastBindingUpdate", 10_000),
            ("FastBindingAck", 15_000),
        ]

    def test_requires_a_live_current_link(self):
        kernel, _, _, daemons, a, b = build_host()
        done = []
        daemons.prepare(Ctx(1, a, b), lambda r: done.append(r))
        kernel.run_until_quiescent()
        assert done[0].reason == "link_lost"


class TestTunnel:
    def prepared_host(self):
        kernel, recorder, env, daemons, a, b = build_host()
        attach(kernel, env, 1, a)
        daemons.prepare(Ctx(1, a, b), lambda r: None)
        kernel.run_until_quiescent()
        return kernel, recorder, env, daemons, a, b

    def test_start_needs_the_target_attached(self):
        kernel, recorder, env, daemons, a, b = self.prepared_host()
        ctx = Ctx(1, a, b)
        assert daemons.tunnel_start(ctx).reason == "not_attached"
        attach(kernel, env, 1, b)
        assert daemons.tunnel_start(ctx).ok

    def test_full_tunnel_lifecycle(self):
        kernel, recorder, env, daemons, a, b = self.prepared_host()
        ctx = Ctx(1, a, b)
        attach(kernel, env, 1, b)
        assert daemons.tunnel_start(ctx).ok
        kernel.run_until_quiescent()
        locator = allocate(kernel, env, 1, b)
        daemons.update_binding(ctx, locator, lambda r: None)
        kernel.run_until_quiescent()
        assert daemons.tunnel_stop(ctx).ok
        kernel.run_until_quiescent()
        tunnel = [(r.name, r.sender, r.receiver) for r in trace_records(recorder.events)
                  if r.name in ("TunnelStart", "BindingAck", "TunnelStop")]
        assert tunnel == [
            ("TunnelStart", FE_DAEMON, FE_ENVIRONMENT),
            ("BindingAck", FE_ENVIRONMENT, FE_DAEMON),
            ("TunnelStop", FE_DAEMON, FE_ENVIRONMENT),
        ]


class TestOneAwaitedReply:
    """While a reply is awaited, one of its type for another flow ends the run."""

    @pytest.mark.parametrize(
        "stray, at",
        [
            (ProxyRouterAdvertisement(flow=9, target=AccessId("cell-b", "net-2", "cellular")), 0),
            (FastBindingAck(flow=9, result=Result.failure("stray")), 7_500),
        ],
        ids=lambda value: type(value).__name__ if not isinstance(value, int) else str(value),
    )
    def test_preparation_ignores_another_flows_reply(self, stray, at):
        """Another flow's reply during a preparation ends the run."""
        kernel, recorder, env, daemons, a, b = build_host()
        attach(kernel, env, 1, a)
        done = []
        daemons.prepare(Ctx(1, a, b), lambda r: done.append((r, kernel.now)))
        kernel.schedule(at, stray)
        with pytest.raises(SimulationError, match="a reply never awaited"):
            kernel.run_until_quiescent()
        assert not done
        assert trace_records(recorder.events)[-1].params["flow"] == 9

    def test_binding_ignores_another_flows_ack(self):
        """Another flow's ack during a binding ends the run."""
        kernel, _, env, daemons, a, _ = build_host()
        attach(kernel, env, 1, a)
        locator = allocate(kernel, env, 1, a)
        done = []
        daemons.update_binding(Ctx(1, None, a), locator, lambda r: done.append((r, kernel.now)))
        stray = BindingAck(flow=9, result=Result.failure("stray"))
        kernel.schedule(0, stray)
        with pytest.raises(SimulationError, match="a reply never awaited"):
            kernel.run_until_quiescent()
        assert not done
