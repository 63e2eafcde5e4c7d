"""Tests of the benchmark itself: generator, golden file, span arithmetic, tracing.

Run from the repository root: python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(SRC))

import gen  # noqa: E402
import run as bench_run  # noqa: E402
import spans  # noqa: E402
from mobsig.scenario import parse_scenario  # noqa: E402

BUNDLED = SRC / "mobsig" / "scenarios"


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_byte_identical_files(workload, tmp_path):
    first = gen.write_workload(workload, 7, tmp_path / "a", BUNDLED)
    second = gen.write_workload(workload, 7, tmp_path / "b", BUNDLED)
    assert [p.name for p in first] == [p.name for p in second]
    assert all(a.read_bytes() == b.read_bytes() for a, b in zip(first, second))
    other = gen.write_workload(workload, 8, tmp_path / "c", BUNDLED)
    assert any(a.read_bytes() != c.read_bytes() for a, c in zip(first, other))


@pytest.mark.parametrize("workload", gen.WORKLOADS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_generated_scenario_validates(workload, seed):
    for _name, doc in gen.generate(workload, seed):
        config = parse_scenario(json.loads(gen.dumps(doc)))
        assert len(config.cells) >= 3


def test_workload_shapes_do_not_depend_on_the_seed():
    for workload in gen.WORKLOADS:
        shapes = {
            tuple(
                (len(doc["cells"]), len(doc["trajectory"]), len(doc["flows"]), doc["jitter_us"],
                 doc["policy"]["mbb_capable"], sum(c["supports_fmip"] for c in doc["cells"]))
                for _name, doc in gen.generate(workload, seed)
            )
            for seed in (1, 2, 3)
        }
        assert len(shapes) == 1, workload


def test_sweep_covers_every_style_and_jitter_setting():
    docs = [doc for _name, doc in gen.generate("sweep-small", 1)]
    assert len(docs) == gen.SWEEP_SCENARIOS
    styles = {
        (doc["policy"]["mbb_capable"], sum(c["supports_fmip"] for c in doc["cells"]) / len(doc["cells"]))
        for doc in docs
    }
    assert any(mbb for mbb, _share in styles)
    assert any(not mbb and share == 0 for mbb, share in styles)
    assert any(not mbb and share == 1 for mbb, share in styles)
    assert {doc["jitter_us"] > 0 for doc in docs} == {True, False}
    assert {len(doc["cells"]) for doc in docs} == set(range(3, 9))
    assert {len(doc["trajectory"]) for doc in docs} == set(range(2, 7))


def test_golden_covers_every_scenario_of_every_workload():
    golden = json.loads(bench_run.GOLDEN_PATH.read_text(encoding="utf-8"))
    for workload in gen.WORKLOADS:
        names = {name for name, _doc in gen.generate(workload, golden["seed"])}
        if workload == "sweep-small":
            names |= {f"bundled-{p.stem}" for p in BUNDLED.glob("*.json")}
        assert set(golden["workloads"][workload]) == names


def test_self_time_subtracts_direct_children_only():
    names = ["run", "handle", "params"]
    spans_list = [
        (0, 0, 100, spans.ROOT),  # run: children 1 and 2 cover 30 + 40
        (1, 10, 40, 0),
        (1, 50, 90, 0),  # handle: child 3 covers 10
        (2, 60, 70, 2),
        (2, 200, 205, spans.ROOT),
    ]
    totals = spans.aggregate(names, spans_list)
    assert (totals["run"].count, totals["run"].total_ns, totals["run"].self_ns) == (1, 100, 30)
    assert (totals["handle"].count, totals["handle"].total_ns, totals["handle"].self_ns) == (2, 70, 60)
    assert (totals["params"].count, totals["params"].total_ns, totals["params"].self_ns) == (2, 15, 15)
    assert sum(t.self_ns for t in totals.values()) == 100 + 5


def test_wrapped_calls_nest_and_keep_results():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert inner(5) == 6
    (inner_1, _, _, parent_1), (outer_id, _, _, parent_0), (_, _, _, parent_2) = (
        tracer.spans[1], tracer.spans[0], tracer.spans[2]
    )
    assert tracer.names[outer_id] == "outer" and tracer.names[inner_1] == "inner"
    assert (parent_0, parent_1, parent_2) == (spans.ROOT, 0, spans.ROOT)
    totals = tracer.aggregate()
    assert totals["outer"].self_ns == totals["outer"].total_ns - tracer.spans[1][2] + tracer.spans[1][1]


def test_failed_wrapped_call_still_closes_its_span():
    tracer = spans.Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    assert tracer.spans[0] is not None and tracer._stack == [spans.ROOT]


def test_reference_seconds_scale_by_the_probes_around_each_round(tmp_path):
    bench = bench_run.Bench(SRC, [], tmp_path, golden=None)
    bench.probes = [0.2, 0.3, 0.1]
    bench.samples = [bench_run.Sample("run", 1.0, 10, probe=0), bench_run.Sample("check", 0.4, 10, probe=1)]
    bench.normalize()
    ref = bench_run.PROBE_REFERENCE_S
    assert bench.samples[0].ref_s == pytest.approx(1.0 * ref / 0.25)
    assert bench.samples[1].ref_s == pytest.approx(0.4 * ref / 0.2)


def _small_workload(tmp_path: Path) -> list[Path]:
    """Bundled scenarios, a slice of the sweep and a three-flow scenario."""
    paths = gen.write_workload("sweep-small", 1, tmp_path / "scenarios", BUNDLED)[:16]
    doc = gen.scenario(
        random.Random(3), cells=6, waypoints=8, flows=3, duration_us=40_000_000,
        jitter_us=0, fmip_share=0.5, mbb_capable=False, flow_stagger_us=1_000_000,
    )
    multi = tmp_path / "scenarios" / "three-flows.json"
    multi.write_text(gen.dumps(doc), encoding="utf-8")
    return paths + [multi]


def test_traced_pass_leaves_outputs_unchanged(tmp_path):
    scenarios = _small_workload(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    bench = bench_run.Bench(SRC, scenarios, out, golden=None)
    bench.pass_(read_rounds=1)
    plain = bench.last_outputs
    bench.tracer = tracer = spans.Tracer()
    bench.pass_(read_rounds=1)
    traced = bench.last_outputs
    assert bench.problems == [] and bench.failed == 0
    assert bench.attempted == 4 * 2 * len(scenarios)  # set-up, run, check, diagram; two passes
    assert {k: (o.trace, o.metrics) for k, o in plain.items()} == {
        k: (o.trace, o.metrics) for k, o in traced.items()
    }
    assert bench.verdicts["three-flows"].startswith("ambiguous-attribution@")  # the known checker defect
    assert all(v == "ok" for k, v in bench.verdicts.items() if k != "three-flows")

    totals = tracer.aggregate()
    for name in ("environment.scan", "environment.position", "core.params", "simkernel.record",
                 "simkernel.serialize", "simkernel.write", "simkernel.dispatch", "mrrm.tick",
                 "mrrm.handle", "holm.handle", "scenario.validate", "simulation.wire",
                 "simulation.metrics", "conformance.parse", "conformance.segment",
                 "conformance.check", "cli.diagram"):
        assert totals[name].count > 0, name
    layers = bench_run.per_layer(tracer, 1.0, traced, bench.last_reached)
    assert layers["simkernel.records"][0] == sum(o.records for o in traced.values())
    assert layers["holm.handovers.establishment"][0] == len(scenarios) + 2  # one per flow
    assert 0.9 < layers["trace.run_attributed_ratio"][0] <= 1.0
    assert 0 < layers["conformance.records_reached_ratio"][0] < 1


def test_changed_output_counts_as_failed(tmp_path):
    scenarios = _small_workload(tmp_path)[:2]
    out = tmp_path / "out"
    out.mkdir()
    golden = {p.stem: {"trace": "0" * 64, "metrics": "0" * 64} for p in scenarios}
    bench = bench_run.Bench(SRC, scenarios, out, golden)
    bench.run_round()
    assert bench.failed == 2 and bench.attempted == 4
    assert all("differs from golden.json" in problem for problem in bench.problems)


def test_missing_source_tree_exits_nonzero_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert bench_run.main(["--workload", "long-walk", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_fresh_import_leaves_sys_modules_alone():
    import mobsig.simulation

    before = sys.modules["mobsig.simulation"]
    m, elapsed = bench_run.fresh_import(SRC)
    assert elapsed > 0
    assert m.simulation is not before and sys.modules["mobsig.simulation"] is before
    assert mobsig.simulation is before
