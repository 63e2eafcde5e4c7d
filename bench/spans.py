"""In-memory spans for the traced benchmark run.

`Tracer.wrap` returns a function that records one span per call: its name,
start and end (`perf_counter_ns`) and the index of the span that was open when
it began. Spans stay in a flat list until the run ends; `aggregate` then turns
them into per-name call counts, inclusive time and self time, where self time
is a span's duration minus the durations of its direct children. Calls are
synchronous on one thread, so children never overlap and that difference is
exactly the time the span spent in its own code.

`install` patches a freshly imported copy of mobsig so that every layer
boundary the benchmark cares about records a span. It touches only public
names: the handlers given to `Kernel.register`, the callbacks given to
`Kernel.call_later` (named by owner), the kernel loop, the recorder, `scan`,
`position`, `Primitive.params`, scenario validation, simulation wiring and
metrics, trace parsing, segmentation, checking and diagram rendering.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

ROOT = -1

# Owner FE of a `call_later` callback -> module that owns the FE.
FE_MODULES = {
    "MRRM": "mrrm",
    "HOLM": "holm",
    "PathSelect": "path_selection",
    "FlowMng": "flowmgmt",
    "Env": "environment",
    "Daemon": "protocols",
}


@dataclass
class SpanTotals:
    count: int = 0
    total_ns: int = 0
    self_ns: int = 0


class Tracer:
    """Collects spans as (name id, start ns, end ns, parent index) tuples."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int] | None] = []
        self._stack = [ROOT]
        self.contexts = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        name_id = self.name_id(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)

        return traced

    def aggregate(self) -> dict[str, SpanTotals]:
        return aggregate(self.names, self.spans)

    def dump(self, path: Path) -> None:
        """Write the recorded spans as JSON: a name table and one row per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"], "names": self.names,
                       "spans": self.spans}, handle, separators=(",", ":"))


def aggregate(names: list[str], spans: list) -> dict[str, SpanTotals]:
    """Per-name count, inclusive time and self time of a span list."""
    child_ns = [0] * len(spans)
    for _name, start, end, parent in spans:
        if parent != ROOT:
            child_ns[parent] += end - start
    totals = {name: SpanTotals() for name in names}
    for index, (name_id, start, end, _parent) in enumerate(spans):
        entry = totals[names[name_id]]
        entry.count += 1
        entry.total_ns += end - start
        entry.self_ns += end - start - child_ns[index]
    return totals


def install(tracer: Tracer, m: SimpleNamespace) -> None:
    """Patch the mobsig modules in `m` (a fresh import) to record spans into tracer."""
    kernel_cls = m.simkernel.Kernel
    register = kernel_cls.register
    call_later = kernel_cls.call_later
    owner_spans = {
        fe: ("mrrm.tick" if module == "mrrm" else f"{module}.callback")
        for fe, module in FE_MODULES.items()
    }

    def traced_register(self, fe_id, handler):
        module = handler.__module__.rsplit(".", 1)[-1]
        register(self, fe_id, tracer.wrap(f"{module}.handle", handler))

    def traced_call_later(self, delay_us, fn, owner):
        call_later(self, delay_us, tracer.wrap(owner_spans[owner], fn), owner)

    kernel_cls.register = traced_register
    kernel_cls.call_later = traced_call_later
    kernel_cls.run_until_quiescent = tracer.wrap("simkernel.dispatch", kernel_cls.run_until_quiescent)

    recorder_cls = m.simkernel.TraceRecorder
    recorder_cls.on_delivery = tracer.wrap("simkernel.record", recorder_cls.on_delivery)
    recorder_cls.lines = tracer.wrap("simkernel.serialize", recorder_cls.lines)
    recorder_cls.write = tracer.wrap("simkernel.write", recorder_cls.write)

    m.environment.Environment.scan = tracer.wrap("environment.scan", m.environment.Environment.scan)
    m.environment.Trajectory.position = tracer.wrap(
        "environment.position", m.environment.Trajectory.position
    )
    m.core.Primitive.params = tracer.wrap("core.params", m.core.Primitive.params)

    m.scenario.parse_scenario = tracer.wrap("scenario.validate", m.scenario.parse_scenario)
    simulation_cls = m.simulation.Simulation
    simulation_cls.__init__ = tracer.wrap("simulation.wire", simulation_cls.__init__)
    simulation_cls.run = tracer.wrap("simulation.run", simulation_cls.run)
    m.simulation.build_metrics = tracer.wrap("simulation.metrics", m.simulation.build_metrics)

    segment = m.conformance.segment_contexts

    def counted_segment(records):
        contexts = segment(records)
        tracer.contexts += len(contexts)
        return contexts

    m.conformance.parse_trace = tracer.wrap("conformance.parse", m.conformance.parse_trace)
    m.conformance.segment_contexts = tracer.wrap("conformance.segment", counted_segment)
    m.conformance.check = tracer.wrap("conformance.check", m.conformance.check)
    m.cli.render_diagram = tracer.wrap("cli.diagram", m.cli.render_diagram)
