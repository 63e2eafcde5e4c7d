"""Scenario execution: entity wiring, the periodic scan cycle, and metrics.

`Simulation` connects the six functional entities to one event kernel, drives
the resource manager's decision cycle at the configured scan period, starts
each flow at its configured time, and runs the kernel until no work remains.
The result bundles the recorded events and a JSON-ready metrics report read
from those events; its trace (a `simkernel.Trace`) is built from the events
on first read.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import compress
from operator import itemgetter
from typing import Callable

from .conformance import SEQUENCE_NAMES
from .core import (
    FE_DAEMON,
    FE_ENVIRONMENT,
    FE_FLOW_MANAGEMENT,
    FE_HOLM,
    FE_MRRM,
    FE_PATH_SELECTION,
    PAYLOAD_TYPES,
    AccessId,
    BindingAck,
    HOComplete,
    HOExecutionRequest,
    LinkDetachRequest,
    LinkSwitchRequest,
    TunnelStart,
)
from .environment import Cell, Environment
from .flowmgmt import FlowManagement, FlowRecord
from .holm import Holm, select_tool
from .mrrm import Mrrm
from .path_selection import PathSelection
from .protocols import DaemonHost
from .scenario import ScenarioConfig
from .simkernel import Kernel, SimEvent, SimTime, Trace, TraceRecorder, trace_records

# The payload types of the records a handover's message count covers.
_SEQUENCE_TYPES = frozenset(PAYLOAD_TYPES[name] for name in SEQUENCE_NAMES)


@dataclass(eq=False, repr=False)
class SimulationResult:
    """A finished run: its recorded events, its metrics and its end time."""

    events: list[SimEvent]
    metrics: dict
    final_time_us: SimTime

    @cached_property
    def records(self) -> Trace:
        """The trace of the events, built on first read."""
        return trace_records(self.events)


class Simulation:
    """One fully wired scenario run."""

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        self.recorder = TraceRecorder()
        self.kernel = Kernel(recorder=self.recorder)
        self.environment = Environment(
            self.kernel,
            config.cells,
            config.trajectory,
            rng=random.Random(config.seed),
            jitter_us=config.jitter_us,
        )
        # In flow-id order, the order in which a tick runs the flows' cycles.
        self.flow_table = {
            spec.flow: FlowRecord(flow=spec.flow, requested=spec.requested)
            for spec in sorted(config.flows, key=lambda spec: spec.flow)
        }
        self.daemons = DaemonHost(
            self.kernel,
            self.environment,
            config.binding_rtt_us,
            config.fmip_oneway_us,
        )
        self.holm = Holm(self.kernel, self.environment, self.daemons, self.flow_table)
        self.path_selection = PathSelection(
            self.kernel, self.environment, config.path_models, self.flow_table
        )
        self.flow_management = FlowManagement(self.kernel, self.flow_table)
        self.mrrm = Mrrm(self.kernel, self.environment, config.policy, self.flow_table)

        self.kernel.register(FE_MRRM, self.mrrm.handle)
        self.kernel.register(FE_HOLM, self.holm.handle)
        self.kernel.register(FE_PATH_SELECTION, self.path_selection.handle)
        self.kernel.register(FE_FLOW_MANAGEMENT, self.flow_management.handle)
        self.kernel.register(FE_ENVIRONMENT, self.environment.handle)
        self.kernel.register(FE_DAEMON, self.daemons.handle)

        self._horizon = config.trajectory.end_time_us
        for spec in config.flows:
            self._horizon = max(self._horizon, spec.start_us)
        self.kernel.call_later(0, self._tick, FE_MRRM)
        for spec in config.flows:
            self.kernel.call_later(
                spec.start_us, partial(self.flow_management.start_flow, spec.flow),
                FE_FLOW_MANAGEMENT,
            )

    def _tick(self) -> None:
        self.mrrm.tick()
        if self.kernel.now + self.config.scan_period_us <= self._horizon:
            self.kernel.call_later(self.config.scan_period_us, self._tick, FE_MRRM)

    def run(self) -> SimulationResult:
        final = self.kernel.run_until_quiescent()
        # The handlers are bound methods of entities that hold the kernel;
        # dropping them breaks that cycle, so a finished run is freed by
        # reference counting rather than by a later cyclic collection.
        self.kernel.drop_handlers()
        events = self.recorder.events
        return SimulationResult(
            events=events,
            metrics=build_metrics(events, self.environment.cell),
            final_time_us=final,
        )


def build_metrics(events: list[SimEvent], cell: Callable[[AccessId], Cell]) -> dict:
    """Summarize the completed handovers of a run from its recorded events.

    Each handover spans its HOExecutionRequest up to the next request in the
    trace (handovers on one node never overlap); the message count covers the
    signaling-sequence records inside that span, and its HOComplete gives the
    result. A request without its HOComplete is not reported. The variant is
    the STEPS row HOLM runs for the request: ``select_tool`` on it and on its
    target's cell, which ``cell`` looks up, so a handover that failed before
    its first step message names it too.

    Interruption is restore minus break. The break is the handover's first
    detach request, switch request or binding ack, and the restore its first
    tunnel start or binding ack. So make-before-break, whose detach follows
    the ack, and establishment have no gap.
    """
    handovers = []
    gaps = []
    # The sequence records before the first request count toward no handover.
    entry: dict = {"message_count": 0}
    t_break = t_restore = None
    kinds = map(type, map(itemgetter(2), events))
    for at, _seq, payload in compress(events, map(_SEQUENCE_TYPES.__contains__, kinds)):
        kind = type(payload)
        if kind is HOExecutionRequest:
            entry = {
                "flow": payload.flow,
                "variant": select_tool(payload, cell(payload.target)),
                "t_request_us": at,
                "interruption_us": None,
                "message_count": 0,
            }
            t_break = t_restore = None
        elif kind is LinkDetachRequest or kind is LinkSwitchRequest:
            if t_break is None:
                t_break = at
        elif kind is BindingAck:
            if t_break is None:
                t_break = at
            if t_restore is None:
                t_restore = at
        elif kind is TunnelStart:
            t_restore = at
        elif kind is HOComplete:
            result = payload.result
            if result.ok:
                entry["interruption_us"] = t_restore - t_break
                entry["result"] = "success"
                gaps.append(entry["interruption_us"])
            else:
                entry["result"] = "failure"
                entry["reason"] = result.reason
            handovers.append(entry)
        entry["message_count"] += 1

    by_variant = Counter(entry["variant"] for entry in handovers)
    return {
        "handovers": handovers,
        "totals": {
            "count": len(handovers),
            "succeeded": len(gaps),
            "failed": len(handovers) - len(gaps),
            "by_variant": dict(sorted(by_variant.items())),
            "total_interruption_us": sum(gaps),
            "max_interruption_us": max(gaps, default=0),
        },
    }
