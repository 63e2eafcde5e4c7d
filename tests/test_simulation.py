"""Full scenario runs and the metrics report."""

import contextlib
import dataclasses
import gc
import io
import json
import weakref

import pytest

from mobsig import cli
from mobsig.cli import render_diagram
from mobsig.conformance import check_trace, load_trace
from mobsig.core import (
    ENDS,
    FE_HOLM,
    AccessId,
    AccessSetsSnapshot,
    BindingAck,
    BindingUpdate,
    HandoverOccurred,
    HOComplete,
    HOExecutionRequest,
    LinkDetachRequest,
    LinkSwitchRequest,
    Locator,
    QosSpec,
    Result,
    TunnelStart,
)
from mobsig.scenario import load_scenario, parse_scenario
from mobsig.simkernel import Kernel, SimulationError, TraceRecorder
from mobsig.simulation import Simulation, build_metrics

from support import generated_scenarios, make_cell, trace_line

A = AccessId(cell_id="cell-a", network_id="net-1", rat="wlan")
B = AccessId(cell_id="cell-b", network_id="net-2", rat="cellular")


class TestBundledRuns:
    def test_mbb_scenario_timeline(self, bundled_results):
        result = bundled_results["mbb"]
        assert result.final_time_us == 10_000_000
        handovers = result.metrics["handovers"]
        assert [h["variant"] for h in handovers] == ["establishment", "mbb"]
        assert handovers[0] == {
            "flow": 1,
            "variant": "establishment",
            "t_request_us": 0,
            "interruption_us": 0,
            "message_count": 8,
            "result": "success",
        }
        # first scan cycle past the decision boundary: x > 460 m at t = 5 s
        assert handovers[1]["t_request_us"] == 5_000_000
        assert handovers[1]["interruption_us"] == 0
        assert handovers[1]["message_count"] == 10

    def test_bbm_scenario_gap(self, bundled_results):
        handovers = bundled_results["bbm"].metrics["handovers"]
        assert handovers[1]["variant"] == "bbm"
        assert handovers[1]["interruption_us"] == 200_000
        assert handovers[1]["message_count"] == 10

    def test_fmip_scenario_gap(self, bundled_results):
        handovers = bundled_results["fmip"].metrics["handovers"]
        assert handovers[1]["variant"] == "fmip"
        assert handovers[1]["interruption_us"] == 60_000
        assert handovers[1]["message_count"] == 13

    def test_multi_scenario_walks_all_four_cells(self, bundled_results):
        result = bundled_results["multi"]
        totals = result.metrics["totals"]
        assert totals == {
            "count": 4,
            "succeeded": 4,
            "failed": 0,
            "by_variant": {"establishment": 1, "mbb": 3},
            "total_interruption_us": 0,
            "max_interruption_us": 0,
        }
        requests = [h["t_request_us"] for h in result.metrics["handovers"] if h["variant"] == "mbb"]
        assert requests == [5_000_000, 13_000_000, 21_000_000]

    def test_params_share_each_access_wire_dict_and_leave_it_whole(
        self, bundled_configs, bundled_results
    ):
        # Every params object that names an access holds that access's own
        # wire dict, so a write into any params of the run would show here.
        accesses = {cell.access.key: cell.access for cell in bundled_configs["multi"].cells}
        for access in accesses.values():
            assert access._wire == {
                "cell_id": access.cell_id, "network_id": access.network_id, "rat": access.rat
            }
        result = bundled_results["multi"]
        named = set()
        snapshot_lists: dict[int, set[int]] = {}
        for event, record in zip(result.events, result.records):
            payload = event[2]
            if type(payload) is AccessSetsSnapshot:
                # A snapshot's key lists are its radio view's, shared by every
                # snapshot of that view.
                assert record.params["das"] is payload.das
                assert record.params["scanned"] is payload.scanned
                snapshot_lists.setdefault(id(payload.das), set()).add(id(payload))
            for field in dataclasses.fields(payload):
                value, param = getattr(payload, field.name), record.params[field.name]
                if type(value) is Locator:
                    value, param = value.access, param["access"]
                for access, wire in zip(value, param) if type(value) is tuple else [(value, param)]:
                    if type(access) is AccessId:
                        named.add(f"{record.name}.{field.name}")
                        assert wire is accesses[access.key]._wire
        assert named >= {
            "ConstraintRequest.candidates", "HOExecutionRequest.current",
            "HOExecutionRequest.target", "LinkAttachRequest.target", "LinkDetachRequest.current",
            "PathSelect.target", "PathSelected.new_locator", "BindingUpdate.locator",
        }
        assert max(map(len, snapshot_lists.values())) > 1

    def test_totals_are_consistent_with_entries(self, bundled_results):
        for result in bundled_results.values():
            totals = result.metrics["totals"]
            entries = result.metrics["handovers"]
            assert totals["count"] == len(entries)
            assert totals["succeeded"] == sum(1 for e in entries if e["result"] == "success")
            assert totals["failed"] == totals["count"] - totals["succeeded"]
            gaps = [e["interruption_us"] for e in entries if e["interruption_us"] is not None]
            assert totals["total_interruption_us"] == sum(gaps)
            assert totals["max_interruption_us"] == (max(gaps) if gaps else 0)


def _contents(record):
    return record.at, record.sender, record.receiver, record.name, record.params


def test_records_in_memory_equal_the_written_trace_read_back(bundled_results, tmp_path):
    # The records' params come from a walk of the payloads' values, and the
    # trace's text from renderers compiled from their declared types.
    results = [*bundled_results.values(),
               *(Simulation(load_scenario(str(scenario))).run()
                 for workload in ("long-walk", "multiflow-dense")
                 for scenario in generated_scenarios(workload, tmp_path / workload, slow=True))]
    path = tmp_path / "trace.jsonl"
    names, failures = set(), 0
    for result in results:
        recorder = TraceRecorder()
        recorder.events = result.events
        recorder.write(path)
        read = load_trace(path)
        assert list(map(_contents, result.records)) == list(map(_contents, read))
        names.update(record.name for record in read)
        failures += sum(record.params.get("result") == "failure" and bool(record.params["reason"])
                        for record in read)
    assert names == set(ENDS)
    assert failures


class TestRunControls:
    def test_same_config_same_trace(self, bundled_configs):
        first = Simulation(bundled_configs["fmip"]).run()
        second = Simulation(bundled_configs["fmip"]).run()
        assert [trace_line(r) for r in first.records] == [trace_line(r) for r in second.records]

    def test_finished_run_is_freed_without_the_cyclic_collector(self, bundled_configs):
        gc.disable()
        try:
            sim = Simulation(bundled_configs["multi"])
            result = sim.run()
            assert not gc.isenabled()  # the run's own hold left the caller's setting
            recorder = weakref.ref(sim.recorder)
            del sim
            assert recorder() is None
        finally:
            gc.enable()
        assert result.records

    def test_late_flow_extends_the_horizon(self):
        doc = {
            "seed": 1,
            "scan_period_us": 500_000,
            "cells": [
                {
                    "cell_id": "cell-a",
                    "network_id": "net-1",
                    "rat": "wlan",
                    "center": [0.0, 0.0],
                    "radius_m": 600.0,
                    "link_setup_us": 50_000,
                    "link_teardown_us": 10_000,
                    "locator_config_us": 100_000,
                    "supports_fmip": False,
                    "capacity": {"bandwidth_kbps": 2000, "max_latency_ms": 40},
                }
            ],
            "trajectory": [{"t_us": 0, "xy": [0.0, 0.0]}],
            "policy": {
                "min_radio_score": 0.0,
                "hysteresis": 0.1,
                "weight_radio": 0.5,
                "weight_path": 0.5,
                "mbb_capable": True,
            },
            "path_models": {
                "net-1/cell-a": {
                    "bottleneck_bandwidth_kbps": 2000,
                    "path_latency_ms": 40,
                    "policy_allowed": True,
                }
            },
            "latencies": {"binding_rtt_us": 40_000, "fmip_oneway_us": 5_000},
            "flows": [
                {
                    "id": 1,
                    "requested_qos": {"bandwidth_kbps": 1000, "max_latency_ms": 80},
                    "start_us": 0,
                },
                {
                    "id": 2,
                    "requested_qos": {"bandwidth_kbps": 1000, "max_latency_ms": 80},
                    "start_us": 2_000_000,
                },
            ],
        }
        result = Simulation(parse_scenario(doc)).run()
        assert result.final_time_us >= 2_000_000
        handovers = result.metrics["handovers"]
        assert [h["variant"] for h in handovers] == ["establishment", "establishment"]
        assert [h["flow"] for h in handovers] == [1, 2]

    def test_a_tick_runs_the_flows_cycles_in_flow_id_order(self, scenario_path):
        """The scenario lists flow 5 before flow 2; each tick still asks for 2 first."""
        document = json.loads(scenario_path("multi").read_text(encoding="utf-8"))
        [spec] = document["flows"]
        document["flows"] = [dict(spec, id=5, start_us=0), dict(spec, id=2, start_us=100_000)]
        result = Simulation(parse_scenario(document)).run()
        flows_at: dict[int, list[int]] = {}
        for record in result.records:
            if record.name == "ConstraintRequest":
                flows_at.setdefault(record.at, []).append(record.params["flow"])
        ticks = [flows for flows in flows_at.values() if len(flows) > 1]
        assert len(ticks) > 10
        assert all(flows == [2, 5] for flows in ticks)


def _cycles(objects: list) -> list[list]:
    """The objects the collector found, joined into cycles: a union-find over
    their references to each other."""
    found = {id(obj): obj for obj in objects}
    parent = {key: key for key in found}

    def root(key):
        while parent[key] != key:
            parent[key] = key = parent[parent[key]]
        return key

    for key, obj in found.items():
        for ref in gc.get_referents(obj):
            if id(ref) in found:
                parent[root(id(ref))] = root(key)
    cycles: dict[int, list] = {}
    for key, obj in found.items():
        cycles.setdefault(root(key), []).append(obj)
    return list(cycles.values())


def _of_argparse_or_json(obj) -> bool:
    function = callable(obj) and not isinstance(obj, type)
    module = getattr(obj, "__module__", None) if function else type(obj).__module__
    return module in ("argparse", "json.encoder")


# The generated scenarios of TestCyclicCollector: (workload, seed, slowed).
CYCLE_SCENARIOS = {"multiflow-dense": ("multiflow-dense", 1, False),
                   "long-walk-slow": ("long-walk", 1, True),
                   "long-walk-seed3": ("long-walk", 3, False),
                   "multiflow-dense-seed3": ("multiflow-dense", 3, False)}
# Those whose `run`, `check` and `diagram` also go through the command line.
THROUGH_THE_CLI = ("long-walk-seed3", "multiflow-dense-seed3")


class TestCyclicCollector:
    """The code that makes trace-sized data runs with the cyclic collector
    held off (``simkernel.without_cyclic_gc``), which is safe only while
    mobsig makes no reference cycle: reference counting must free all it
    drops."""

    @pytest.mark.parametrize("name", ["mbb", "bbm", "fmip", "multi", *CYCLE_SCENARIOS])
    def test_no_call_leaves_a_reference_cycle(self, name, scenario_path, tmp_path):
        """Each call leaves no garbage. Then, on THROUGH_THE_CLI, every object
        the collector finds through one `run`, `check` and `diagram` of the
        command line is kept (gc.DEBUG_SAVEALL), and each cycle found must
        hold an object of argparse's parser or of json's indenting encoder,
        which writes the metrics file: both make cycles of their own on every
        call. The commands exit 0, but `check` exits with check_trace's
        verdict."""
        scenario = scenario_path(name)
        if name in CYCLE_SCENARIOS:
            workload, seed, slow = CYCLE_SCENARIOS[name]
            [scenario] = generated_scenarios(workload, tmp_path / "scenarios", seed, slow)
        path = tmp_path / "trace.jsonl"
        garbage = {}
        gc.collect()
        gc.disable()
        try:
            sim = Simulation(load_scenario(str(scenario)))
            recorder = sim.recorder
            result = sim.run()
            del sim
            garbage["Simulation.run"] = gc.collect()
            recorder.write(path)
            garbage["TraceRecorder.write"] = gc.collect()
            records = result.records
            garbage["SimulationResult.records"] = gc.collect()
            read = load_trace(path)
            garbage["load_trace"] = gc.collect()
            verdict = check_trace(read, "auto")
            garbage["check_trace"] = gc.collect()
            render_diagram(read)
            garbage["render_diagram"] = gc.collect()
        finally:
            gc.enable()
        assert len(records) == len(read)
        assert garbage == dict.fromkeys(garbage, 0)
        if name not in THROUGH_THE_CLI:
            return

        trace = str(tmp_path / "cli.jsonl")
        commands = (["run", "--scenario", str(scenario), "--trace", trace,
                     "--metrics", str(tmp_path / "metrics.json")],
                    ["check", "--trace", trace], ["diagram", "--trace", trace])
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [cli.main(argv) for argv in commands]
            gc.collect()
            foreign = [sorted({type(obj).__qualname__ for obj in cycle})
                       for cycle in _cycles(gc.garbage)
                       if not any(map(_of_argparse_or_json, cycle))]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert codes == [0, 0 if verdict.ok else 1, 0]
        assert not foreign, f"cycles of neither argparse nor json: {foreign}"

    @pytest.mark.parametrize("enabled", [True, False])
    def test_every_call_leaves_the_collector_as_it_found_it(
            self, enabled, bundled_configs, tmp_path):
        """Returned or raised: an enabled collector is enabled again, and a
        caller's own gc.disable() stands."""
        valid = tmp_path / "valid.jsonl"
        malformed = tmp_path / "malformed.jsonl"
        undecodable = tmp_path / "undecodable.jsonl"
        malformed.write_bytes(b'{"t":0}\n')
        # A good line, then one that is not UTF-8: load_trace reads the file again.
        undecodable.write_bytes(b'{"t":0,"from":"MRRM","to":"HOLM","msg":"M","params":{}}\n'
                                b'{"t":1,"from":"MRRM","to":"HOLM","msg":"\xff","params":{}}\n')
        kernel = Kernel(recorder=TraceRecorder())
        kernel.register(FE_HOLM, lambda payload: 1 / 0)
        kernel.schedule(0, HOExecutionRequest(1, None, A, False))
        if not enabled:
            gc.disable()
        try:
            sim = Simulation(bundled_configs["mbb"])
            result = sim.run()
            assert gc.isenabled() is enabled
            sim.recorder.write(valid)
            assert result.records and gc.isenabled() is enabled
            assert load_trace(valid) and gc.isenabled() is enabled
            with pytest.raises(SimulationError):
                kernel.run_until_quiescent()
            assert gc.isenabled() is enabled
            with pytest.raises(ValueError, match="line 1: trace records need exactly"):
                load_trace(malformed)
            assert gc.isenabled() is enabled
            with pytest.raises(ValueError, match="line 2: not valid UTF-8"):
                load_trace(undecodable)
            assert gc.isenabled() is enabled
        finally:
            gc.enable()


def _event(at, payload):
    return (at, 0, payload)


def _request(at, flow, current=None, target=A, mbb_flag=False):
    return _event(at, HOExecutionRequest(flow, current, target, mbb_flag))


def _complete(at, result=Result.success()):
    return _event(at, HOComplete(result))


def _bound(at):
    """The binding ack that a successful handover holds, as its restore."""
    return _event(at, BindingAck(1, Result.success()))


# A's cell, and B's, which supports FMIP.
CELLS = {cell.access: cell for cell in (
    make_cell(), make_cell(cell_id="cell-b", network_id="net-2", rat="cellular",
                           supports_fmip=True))}


def _metrics(events):
    return build_metrics(events, CELLS.__getitem__)


class TestBuildMetrics:
    def test_spans_end_at_the_next_request(self):
        events = [
            _request(0, flow=1),
            _event(1, BindingUpdate(1, Locator("net-1/cell-a/1", A, "care_of"))),
            _bound(2),
            _complete(2),
            _event(3, HandoverOccurred(1, QosSpec(800, 90))),  # no sequence record
            _event(4, BindingUpdate(1, Locator("net-1/cell-a/1", A, "care_of"))),
            _request(10, flow=2),
            _bound(11),
            _complete(11),
        ]
        metrics = _metrics(events)
        assert [h["message_count"] for h in metrics["handovers"]] == [5, 3]
        assert [(h["flow"], h["t_request_us"]) for h in metrics["handovers"]] == [(1, 0), (2, 10)]

    def test_records_before_the_first_request_count_toward_none(self):
        events = [_event(0, BindingUpdate(1, Locator("net-1/cell-a/1", A, "care_of"))),
                  _request(1, flow=1), _bound(2), _complete(2)]
        assert [h["message_count"] for h in _metrics(events)["handovers"]] == [3]

    def test_failed_context_reports_reason_and_no_gap(self):
        events = [
            _request(5, flow=1, current=A, target=B),
            _event(5, LinkDetachRequest(1, A)),
            _complete(60, Result.failure("out_of_coverage")),
        ]
        metrics = _metrics(events)
        entry = metrics["handovers"][0]
        assert entry["result"] == "failure"
        assert entry["reason"] == "out_of_coverage"
        assert entry["interruption_us"] is None
        assert metrics["totals"]["failed"] == 1
        assert metrics["totals"]["total_interruption_us"] == 0

    def test_fmip_failed_at_prepare_keeps_its_variant(self):
        """The prepare step failed before it sent a message: the variant is
        still what HOLM chose for the request and the target's cell."""
        events = [_request(0, flow=1, current=A, target=B),
                  _complete(0, Result.failure("link_lost"))]
        [entry] = _metrics(events)["handovers"]
        assert (entry["variant"], entry["result"], entry["reason"]) == ("fmip", "failure", "link_lost")
        assert entry["message_count"] == 2

    @pytest.mark.parametrize("marks, gap", [
        # break before make: the detach breaks service, the binding ack restores it
        ([(50, LinkDetachRequest(1, A)), (250, BindingAck(1, Result.success()))], 200),
        # fast handover: the switch breaks service, the tunnel restores it
        ([(65, LinkSwitchRequest(1, A, B, QosSpec(800, 90))), (125, TunnelStart(1, A, B)),
          (165, BindingAck(1, Result.success()))], 60),
        # make before break: the hand-off is the ack; the detach follows it
        ([(240, BindingAck(1, Result.success())), (240, LinkDetachRequest(1, A))], 0),
    ], ids=["bbm", "fmip", "mbb"])
    def test_interruption_is_read_from_the_event_times(self, marks, gap):
        events = [_request(0, flow=1, current=A, target=B, mbb_flag=True),
                  *(_event(at, payload) for at, payload in marks), _complete(300)]
        metrics = _metrics(events)
        assert metrics["handovers"][0]["interruption_us"] == gap
        assert metrics["totals"]["max_interruption_us"] == gap

    def test_a_request_without_its_completion_is_not_reported(self):
        metrics = _metrics([_request(0, flow=1), _bound(1), _complete(1), _request(2, flow=1)])
        assert metrics["totals"]["count"] == 1

    def test_twin_requests_at_the_same_time_pair_one_to_one(self):
        events = [_request(0, flow=1), _bound(0), _complete(0)] * 2
        metrics = _metrics(events)
        assert [h["message_count"] for h in metrics["handovers"]] == [3, 3]
        assert metrics["totals"]["by_variant"] == {"establishment": 2}
