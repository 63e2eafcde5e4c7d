"""Scenario execution: entity wiring, the periodic scan cycle, and metrics.

`Simulation` connects the six functional entities to one event kernel, drives
the resource manager's decision cycle at the configured scan period, starts
each flow at its configured time, and runs the kernel until no work remains.
The result bundles the recorded events and a JSON-ready metrics report built
from the completed handover contexts; its trace (a `simkernel.Trace`) is
built from the events on first read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, partial
from operator import itemgetter

from .conformance import SEQUENCE_NAMES
from .core import (
    FE_DAEMON,
    FE_ENVIRONMENT,
    FE_FLOW_MANAGEMENT,
    FE_HOLM,
    FE_MRRM,
    FE_PATH_SELECTION,
    PAYLOAD_TYPES,
    HOExecutionRequest,
)
from .environment import Environment
from .flowmgmt import FlowManagement, FlowRecord
from .holm import HandoverContext, Holm, interruption_time
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
            metrics=build_metrics(events, self.holm.completed),
            final_time_us=final,
        )


def build_metrics(events: list[SimEvent], contexts: list[HandoverContext]) -> dict:
    """Summarize completed handovers from the recorded events and orchestration records.

    Each handover spans its HOExecutionRequest up to the next request in the
    trace (handovers on one node never overlap); the message count covers the
    signaling-sequence records inside that span. HOLM completes its requests
    one at a time, in trace order, so the i-th context owns the i-th span.
    """
    # The first count is of the sequence records before any request.
    counts = [0]
    for kind in map(type, map(itemgetter(2), events)):
        if kind in _SEQUENCE_TYPES:
            if kind is HOExecutionRequest:
                counts.append(0)
            counts[-1] += 1
    del counts[0]
    handovers = []
    totals_by_variant: dict[str, int] = {}
    succeeded = failed = 0
    total_interruption = 0
    max_interruption = 0

    for ctx, message_count in zip(contexts, counts, strict=True):
        entry = {
            "flow": ctx.flow,
            "variant": ctx.variant,
            "t_request_us": ctx.t_start,
            "interruption_us": None,
            "message_count": message_count,
            "result": "success" if ctx.result.ok else "failure",
        }
        if ctx.result.ok:
            gap = interruption_time(ctx)
            entry["interruption_us"] = gap
            succeeded += 1
            total_interruption += gap
            max_interruption = max(max_interruption, gap)
        else:
            entry["reason"] = ctx.result.reason
            failed += 1
        totals_by_variant[ctx.variant] = totals_by_variant.get(ctx.variant, 0) + 1
        handovers.append(entry)

    return {
        "handovers": handovers,
        "totals": {
            "count": len(handovers),
            "succeeded": succeeded,
            "failed": failed,
            "by_variant": dict(sorted(totals_by_variant.items())),
            "total_interruption_us": total_interruption,
            "max_interruption_us": max_interruption,
        },
    }
