"""Shared builders for the unit tests: cells, trajectories, a wired node, and oracles."""

from __future__ import annotations

import functools
import importlib.util
import json
import math
import random
import typing
from pathlib import Path

from hypothesis import assume
from hypothesis import strategies as st

from mobsig import core
from mobsig.core import (
    FE_DAEMON,
    FE_ENVIRONMENT,
    FE_FLOW_MANAGEMENT,
    FE_HOLM,
    FE_MRRM,
    FE_PATH_SELECTION,
    AccessId,
    AccessSets,
    Locator,
    QosSpec,
    Rating,
    Result,
)
from mobsig.environment import Cell, Environment, Trajectory
from mobsig.flowmgmt import FlowManagement, FlowRecord
from mobsig.holm import Holm
from mobsig.mrrm import Mrrm, MrrmPolicy
from mobsig.path_selection import PathModel, PathSelection
from mobsig.protocols import DaemonHost
from mobsig.simkernel import Kernel, Trace, TraceRecord, TraceRecorder, _Rendered, trace_records

REQUESTED = QosSpec(bandwidth_kbps=1000, max_latency_ms=80)

# Any value json.loads can return, kept small.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)


# A value of each declared field type of the payloads: any text, non-ASCII
# included, any int, and path scores in [0, 1]; results fail half the time.
_texts = st.text(max_size=6)
_access_ids = st.builds(AccessId, _texts, _texts, _texts)
_FIELD_VALUES = {
    int: st.integers(),
    bool: st.booleans(),
    str: _texts,
    AccessId: _access_ids,
    QosSpec: st.builds(QosSpec, st.integers(), st.integers()),
    Locator: st.builds(Locator, st.text(min_size=1, max_size=6), _access_ids, _texts),
    Rating: st.builds(Rating, _access_ids, st.floats(min_value=0.0, max_value=1.0)),
    Result: st.just(Result.success()) | st.builds(Result.failure, st.text(min_size=1, max_size=6)),
}


def field_values(tp) -> st.SearchStrategy:
    """Values of the declared field type tp: ``None`` for an optional half
    the time, and empty tuples and lists among the others."""
    args = typing.get_args(tp)
    if type(None) in args:
        return st.none() | field_values(next(arg for arg in args if arg is not type(None)))
    origin = typing.get_origin(tp)
    if origin is tuple:
        return st.lists(field_values(args[0]), max_size=3).map(tuple)
    if origin is list:
        return st.lists(field_values(args[0]), max_size=3)
    return _FIELD_VALUES[tp]


@st.composite
def payloads(draw, cls: type) -> core.Payload:
    """A payload of class cls, built by position from values of its field types."""
    values = [draw(field_values(tp)) for _name, tp in core._field_types(cls)]
    try:
        return cls(*values)
    except ValueError:  # an invariant of the class, as PathSelected's
        assume(False)


# A payload of any trace name's type.
any_payload = st.sampled_from(list(core.PAYLOAD_TYPES.values())).flatmap(payloads)


@functools.cache
def load_generator():
    """bench/gen.py, the benchmark's scenario generator, imported read-only."""
    path = Path(__file__).resolve().parent.parent / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def qos_satisfies(granted: QosSpec, requested: QosSpec) -> bool:
    """True iff the grant meets the request in both dimensions."""
    return (
        granted.bandwidth_kbps >= requested.bandwidth_kbps
        and granted.max_latency_ms <= requested.max_latency_ms
    )


def linear_scan(cells, xy: tuple[float, float]) -> list[tuple[AccessId, float]]:
    """Reference scan: test every cell in cell_id order, as the first scan did."""
    x, y = xy
    found = []
    for cell in sorted(cells, key=lambda c: c.access.cell_id):
        distance = math.hypot(x - cell.center_xy[0], y - cell.center_xy[1])
        if distance <= cell.radius_m:
            found.append((cell.access, 1.0 - distance / cell.radius_m))
    return found


def is_nested(sets: AccessSets) -> bool:
    """True iff aas <= cas <= das <= scanned."""
    return sets.aas <= sets.cas <= sets.das <= sets.scanned


def make_cell(
    cell_id: str = "cell-a",
    network_id: str = "net-1",
    rat: str = "wlan",
    center: tuple[float, float] = (0.0, 0.0),
    radius_m: float = 600.0,
    setup_us: int = 50_000,
    teardown_us: int = 10_000,
    locator_us: int = 100_000,
    supports_fmip: bool = False,
    capacity: tuple[int, int] = (2000, 40),
) -> Cell:
    return Cell(
        access=AccessId(cell_id=cell_id, network_id=network_id, rat=rat),
        center_xy=center,
        radius_m=radius_m,
        link_setup_us=setup_us,
        link_teardown_us=teardown_us,
        locator_config_us=locator_us,
        supports_fmip=supports_fmip,
        capacity_qos=QosSpec(*capacity),
    )


def still_trajectory(xy: tuple[float, float] = (0.0, 0.0)) -> Trajectory:
    return Trajectory(waypoints=((0, xy),))


def make_policy(**fields) -> MrrmPolicy:
    """A policy with no ban, no radio floor, a 0.1 hysteresis, equal weights
    and make-before-break, but for the given fields."""
    return MrrmPolicy(**{
        "forbidden_networks": frozenset(),
        "min_radio_score": 0.0,
        "hysteresis": 0.1,
        "weight_radio": 0.5,
        "weight_path": 0.5,
        "mbb_capable": True,
        **fields,
    })


def trace_line(record: TraceRecord) -> str:
    """The canonical line of one record, as the trace writer lays out its
    payloads' lines: the head fields in order, then params with sorted keys,
    all with compact separators."""
    head = json.dumps(
        {"t": record.at, "from": record.sender, "to": record.receiver, "msg": record.name},
        separators=(",", ":"),
    )
    params = json.dumps(record.params, sort_keys=True, separators=(",", ":"))
    return f'{head[:-1]},"params":{params}}}'


def as_trace(records) -> Trace:
    """A Trace whose rows equal the given records, line numbers included, for
    the readers of a trace (``check_trace``, ``segment_contexts`` and
    ``render_diagram``) to take a list of records built by hand."""
    records = list(records)
    return Trace([record.at for record in records],
                 [(record.sender, record.receiver, record.name) for record in records],
                 [record.params for record in records],
                 [record.line for record in records])


def annotate(recorder: TraceRecorder, at: int, payload) -> None:
    """Record an annotation into ``recorder`` as ``Kernel.annotate`` does, at
    time ``at``."""
    kernel = Kernel(recorder)
    kernel.now = at
    kernel.annotate(payload)


def trace_lines(recorder: TraceRecorder) -> list[str]:
    """The lines the trace writer writes for all of a recorder's events."""
    return recorder.lines(0, len(recorder.events), _Rendered())


def default_model() -> PathModel:
    return PathModel(bottleneck_bandwidth_kbps=2000, path_latency_ms=40, policy_allowed=True)


class Node:
    """A fully wired single node, without the periodic scan cycle.

    Tests drive it by scheduling primitives or calling entity methods, then
    running the kernel; latencies follow the defaults in make_cell plus a
    40 ms binding RTT and 5 ms FMIP one-way delay.
    """

    def __init__(
        self,
        cells: tuple[Cell, ...] | None = None,
        policy: MrrmPolicy | None = None,
        flows: tuple[FlowRecord, ...] | None = None,
        trajectory: Trajectory | None = None,
        path_models: dict[AccessId, PathModel] | None = None,
        binding_rtt_us: int = 40_000,
        fmip_oneway_us: int = 5_000,
        rng: random.Random | None = None,
        jitter_us: int = 0,
    ) -> None:
        if cells is None:
            cells = (make_cell(), make_cell(cell_id="cell-b", network_id="net-2", rat="cellular"))
        if flows is None:
            flows = (FlowRecord(flow=1, requested=REQUESTED),)
        if path_models is None:
            path_models = {cell.access: default_model() for cell in cells}
        self.recorder = TraceRecorder()
        self.kernel = Kernel(recorder=self.recorder)
        self.env = Environment(
            self.kernel,
            cells,
            trajectory or still_trajectory(),
            rng=rng or random.Random(0),
            jitter_us=jitter_us,
        )
        # In flow-id order, as Simulation builds it.
        self.table = {record.flow: record for record in sorted(flows, key=lambda r: r.flow)}
        self.daemons = DaemonHost(self.kernel, self.env, binding_rtt_us, fmip_oneway_us)
        self.holm = Holm(self.kernel, self.env, self.daemons, self.table)
        self.path_selection = PathSelection(self.kernel, self.env, path_models, self.table)
        self.flow_management = FlowManagement(self.kernel, self.table)
        self.mrrm = Mrrm(self.kernel, self.env, policy or make_policy(), self.table)
        self.kernel.register(FE_MRRM, self.mrrm.handle)
        self.kernel.register(FE_HOLM, self.holm.handle)
        self.kernel.register(FE_PATH_SELECTION, self.path_selection.handle)
        self.kernel.register(FE_FLOW_MANAGEMENT, self.flow_management.handle)
        self.kernel.register(FE_ENVIRONMENT, self.env.handle)
        self.kernel.register(FE_DAEMON, self.daemons.handle)

    def run(self) -> int:
        return self.kernel.run_until_quiescent()

    def attach_now(self, flow: int, access: AccessId) -> None:
        """Bring a link up synchronously (runs the kernel)."""
        outcome: list = []
        self.env.link_attach(
            flow, access, self.table.get(flow).requested, lambda r, q: outcome.append(r)
        )
        self.run()
        assert outcome and outcome[0].ok, f"attach failed: {outcome}"

    def records(self) -> list[TraceRecord]:
        return trace_records(self.recorder.events)

    def names(self, sequence_only: bool = False) -> list[str]:
        names = [record.name for record in self.records()]
        if sequence_only:
            from mobsig.conformance import SEQUENCE_NAMES

            names = [n for n in names if n in SEQUENCE_NAMES]
        return names
