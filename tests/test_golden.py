"""Byte identity: runs made the way `mobsig run` makes them match bench/golden.json.

The golden file holds the SHA-256 of every trace and metrics file the benchmark
produces at its golden seed. This suite reruns the four bundled scenarios and
the generated long-walk and multi-flow scenarios through the CLI and compares
both digests, so a change that alters a single output byte fails here as well
as in the benchmark. Two variants are pinned here too: the multi-flow scenario
with flows that request three different QoS classes, whose digests were taken
before flows of one tick began to share answers (a second test counts the
answers they share), and the long walk under a policy whose radio floor and
network ban move scanned cells in and out of the detected set, whose digests
were taken before scans skipped cells out of reach and ticks reused the radio
view. A third variant, slow signalling on the long walk and on the multi-flow
scenario, fails most of their handovers, so the failure path of every step is
pinned as well. The diagram
of each bundled and generated trace is pinned by its digest too, drawn from
the same run whose digests are compared. Writing the generated multi-flow
trace must stay within a memory bound, and so must reading it, which may
also make no object per line. The files under bench/ are only read.
"""

from __future__ import annotations

import gc
import hashlib
import json
import tracemalloc
from collections import defaultdict
from pathlib import Path

import pytest

from mobsig import cli
from mobsig.conformance import load_trace
from mobsig.scenario import load_scenario
from mobsig.simulation import Simulation

from support import load_generator

BUNDLED = ("mbb", "bbm", "fmip", "multi")
BENCH = Path(__file__).resolve().parent.parent / "bench"
GOLDEN = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))


def run_digests(scenario: Path, out_dir: Path) -> dict[str, str]:
    trace, metrics = out_dir / "trace.jsonl", out_dir / "metrics.json"
    argv = ["run", "--scenario", str(scenario), "--trace", str(trace), "--metrics", str(metrics)]
    assert cli.main(argv) == 0
    return {
        "trace": hashlib.sha256(trace.read_bytes()).hexdigest(),
        "metrics": hashlib.sha256(metrics.read_bytes()).hexdigest(),
    }


def generated_scenario(workload: str, tmp_path: Path) -> Path:
    [scenario] = load_generator().write_workload(workload, GOLDEN["seed"], tmp_path / "scenarios")
    return scenario


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory, scenario_path):
    """Run a bundled or generated scenario through the CLI once per module:
    its output directory and the digests of its trace and metrics."""
    runs = {}

    def run(name: str) -> tuple[Path, dict[str, str]]:
        if name not in runs:
            out_dir = tmp_path_factory.mktemp(name)
            scenario = scenario_path(name) if name in BUNDLED else generated_scenario(name, out_dir)
            runs[name] = (out_dir, run_digests(scenario, out_dir))
        return runs[name]

    return run


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_run_matches_golden_digests(name, golden_run):
    expected = GOLDEN["workloads"]["sweep-small"][f"bundled-{name}"]
    assert golden_run(name)[1] == expected


def test_generated_long_walk_run_matches_golden_digests(golden_run):
    expected = GOLDEN["workloads"]["long-walk"]["long-walk"]
    assert golden_run("long-walk")[1] == expected


def test_generated_multiflow_run_matches_golden_digests(golden_run):
    expected = GOLDEN["workloads"]["multiflow-dense"]["multiflow-dense"]
    assert golden_run("multiflow-dense")[1] == expected


def test_writing_the_generated_multiflow_trace_holds_under_its_size(tmp_path):
    """The writer streams: what it allocates on top of the records peaks
    below three quarters of the file it writes. Building every line before
    writing one peaked at 1.68 times the file."""
    simulation = Simulation(load_scenario(str(generated_scenario("multiflow-dense", tmp_path))))
    simulation.run()
    trace = tmp_path / "trace.jsonl"
    tracemalloc.start()
    try:
        simulation.recorder.write(str(trace))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = trace.stat().st_size
    assert peak < 0.75 * size, f"writing peaked at {peak / size:.2f} times the trace's {size} bytes"


def test_reading_the_generated_multiflow_trace_makes_no_object_per_line(golden_run):
    """The reader holds a trace as one list per field, so what it adds to the
    objects the cyclic collector tracks is the distinct params dicts and
    what they hold: 0.55 per record on this trace's 48 289. A slotted
    record per line made it 1.55 per record."""
    trace = golden_run("multiflow-dense")[0] / "trace.jsonl"
    gc.collect()
    before = len(gc.get_objects())
    records = load_trace(str(trace))
    rise = len(gc.get_objects()) - before
    assert rise < len(records), f"reading {len(records)} records added {rise} tracked objects"


def test_reading_the_generated_multiflow_trace_holds_under_its_size(golden_run):
    """What the read trace holds stays below 1.25 times the file it was read
    from: 1.03 times with one list per field, 1.50 times with a record per
    line."""
    trace = golden_run("multiflow-dense")[0] / "trace.jsonl"
    gc.collect()
    tracemalloc.start()
    try:
        records = load_trace(str(trace))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = trace.stat().st_size
    assert len(records) and held < 1.25 * size, (
        f"the read trace holds {held / size:.2f} times the trace's {size} bytes")


# The SHA-256 of what `mobsig diagram` prints for each trace above, taken
# before the reader shared the strings of equal heads and the diagram was
# written into one buffer.
DIAGRAM_DIGESTS = {
    "mbb": "11f1a4dc683bcb2ef81aad9b9822fab1c6d9adfd8405f9850abfe53395a313b0",
    "bbm": "efea70c7c5c60cabadf09a8042fd76f5e95de1610f86a28d1c8972a3a86d4ff8",
    "fmip": "ff32646d7e2c978f1b91a87580c1e83ca8a5db6af0462561057ae355e215c3f9",
    "multi": "cbba24dd6be1293a16728685f2ce218e62206788a9ea7ce40d739660b7dcbb5c",
    "long-walk": "8ba558ce74c0592cc059fe00ff6816b740a4a97b1845a972326b2ee06dfc8004",
    "multiflow-dense": "fa72538dca98cabdf731ec06e261f124b44a0b9b8b3f5c39ba870dda288b312f",
}


@pytest.mark.parametrize("name", DIAGRAM_DIGESTS)
def test_diagram_matches_its_pinned_digest(name, golden_run, capsys):
    out_dir, _digests = golden_run(name)
    capsys.readouterr()
    assert cli.main(["diagram", "--trace", str(out_dir / "trace.jsonl")]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == DIAGRAM_DIGESTS[name]


# Requested QoS classes given to the generated flows in turn. Neighbouring
# flows then ask about the same candidates with a different QoS, so the
# shared-answer caches of a tick hit on the candidates and miss on the QoS.
QOS_CLASSES = (
    {"bandwidth_kbps": 1000, "max_latency_ms": 80},
    {"bandwidth_kbps": 2000, "max_latency_ms": 80},
    {"bandwidth_kbps": 1000, "max_latency_ms": 40},
)
MIXED_QOS_DIGESTS = {
    "trace": "87be156b5dd6c09aef25d09c5a02061201aad51ff1285a8a5cd80b311124fde3",
    "metrics": "980ecf7bff056373cf3688d300d8eb3ff6854fa0c98b25c38ebecc37434a7d46",
}


def mixed_qos_scenario(tmp_path: Path) -> Path:
    scenario = generated_scenario("multiflow-dense", tmp_path)
    document = json.loads(scenario.read_text(encoding="utf-8"))
    for index, flow in enumerate(document["flows"]):
        flow["requested_qos"] = QOS_CLASSES[index % len(QOS_CLASSES)]
    mixed = tmp_path / "mixed-qos.json"
    mixed.write_text(json.dumps(document), encoding="utf-8")
    return mixed


def test_generated_multiflow_run_with_mixed_qos_keeps_its_digests(tmp_path):
    assert run_digests(mixed_qos_scenario(tmp_path), tmp_path) == MIXED_QOS_DIGESTS


def test_mixed_qos_flows_share_one_answer_per_class_and_tick(tmp_path):
    config = load_scenario(str(mixed_qos_scenario(tmp_path)))
    qos = {spec.flow: spec.requested for spec in config.flows}
    classes_asking: dict[int, set] = defaultdict(set)
    answers: dict[int, set] = defaultdict(set)
    for record in Simulation(config).run().records:
        if record.name == "ConstraintRequest":
            classes_asking[record.at].add(qos[record.params["flow"]])
        elif record.name == "ConstraintResponse":
            answers[record.at].add(id(record.params))
    assert answers.keys() == classes_asking.keys()
    assert all(len(answers[at]) <= len(classes_asking[at]) for at in answers)
    assert max(len(classes) for classes in classes_asking.values()) == len(QOS_CLASSES)


# The generated cells sit 800 m apart with a 600 m radius, so at a 0.3 radio
# floor a neighbour drifts in and out of the detected set while it stays
# scanned; net-7 and net-100 each hold one cell of the walk that is scanned but
# never detected.
STRICT_POLICY = {"min_radio_score": 0.3, "forbidden_networks": ["net-7", "net-100"]}
STRICT_POLICY_DIGESTS = {
    "trace": "2c84e986d854ca1b80de81e389a1e84024179eead9f222fc6217ee5d243bbe8e",
    "metrics": "59e38eda98a39f0ec63bd6ac7eca2b0bb62a11ae742d9f4f9a6830c5e4d2e47d",
}


def test_generated_long_walk_under_a_strict_policy_keeps_its_digests(tmp_path):
    scenario = generated_scenario("long-walk", tmp_path)
    document = json.loads(scenario.read_text(encoding="utf-8"))
    document["policy"].update(STRICT_POLICY)
    strict = tmp_path / "strict-policy.json"
    strict.write_text(json.dumps(document), encoding="utf-8")
    assert run_digests(strict, tmp_path) == STRICT_POLICY_DIGESTS


# A binding round trip and an FMIP hop of 4 s outlast the walk's stay in a
# cell, so almost every handover fails: 3 succeed and 2 345 fail (1
# out_of_coverage, 1 165 not_attached, 1 179 link_lost). The digests were
# taken while HOLM still kept a phase history beside its step index.
SLOW_SIGNALLING = {"binding_rtt_us": 4_000_000, "fmip_oneway_us": 4_000_000}
SLOW_SIGNALLING_DIGESTS = {
    "trace": "9d51c786feb28db197d9ba42710863b019c4e5d6054100023283b1eb105bd3b9",
    "metrics": "62d492ec10c8f9d8840a186f866d10a98ce3b39c7d03a3fa8fc6aa57489589b7",
}


def test_generated_long_walk_with_slow_signalling_keeps_its_digests(tmp_path):
    scenario = generated_scenario("long-walk", tmp_path)
    document = json.loads(scenario.read_text(encoding="utf-8"))
    document["latencies"].update(SLOW_SIGNALLING)
    slow = tmp_path / "slow-signalling.json"
    slow.write_text(json.dumps(document), encoding="utf-8")
    assert run_digests(slow, tmp_path) == SLOW_SIGNALLING_DIGESTS
    totals = json.loads((tmp_path / "metrics.json").read_text(encoding="utf-8"))["totals"]
    assert (totals["succeeded"], totals["failed"]) == (3, 2345)
    assert cli.main(["check", "--trace", str(tmp_path / "trace.jsonl")]) == 0


# The same slow signalling on the 16 flows of the multi-flow scenario: 16
# establishments succeed and 643 handovers fail (298 fmip link_lost, 344 bbm
# not_attached, 1 out_of_coverage), so failed replies of many flows interleave.
# The digests were taken while the Daemon still kept FMIP state per flow.
MULTIFLOW_SLOW_SIGNALLING_DIGESTS = {
    "trace": "7b6dec34fc94e6564e986b5f131dc03cb81f725d5fe1417f4ef624305bf07c7f",
    "metrics": "804e38b253e42f33b760348de1e210d026bc80dae963b56e12c9b47ed942eb02",
}


def test_generated_multiflow_with_slow_signalling_keeps_its_digests(tmp_path):
    scenario = generated_scenario("multiflow-dense", tmp_path)
    document = json.loads(scenario.read_text(encoding="utf-8"))
    document["latencies"].update(SLOW_SIGNALLING)
    slow = tmp_path / "slow-signalling.json"
    slow.write_text(json.dumps(document), encoding="utf-8")
    assert run_digests(slow, tmp_path) == MULTIFLOW_SLOW_SIGNALLING_DIGESTS
    totals = json.loads((tmp_path / "metrics.json").read_text(encoding="utf-8"))["totals"]
    assert (totals["succeeded"], totals["failed"]) == (16, 643)
