"""Shared fixtures: bundled scenario files, and full-scenario runs made once
per session, in memory and through `mobsig run`."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import mobsig
from mobsig.scenario import load_scenario
from mobsig.simulation import Simulation

from support import Run, cli_run, generated_scenarios

BUNDLED = ("mbb", "bbm", "fmip", "multi")


@pytest.fixture(scope="session")
def scenario_dir() -> Path:
    return Path(mobsig.__file__).parent / "scenarios"


@pytest.fixture(scope="session")
def scenario_path(scenario_dir):
    def lookup(name: str) -> Path:
        return scenario_dir / f"{name}.json"

    return lookup


@pytest.fixture(scope="session")
def bundled_configs(scenario_path):
    return {name: load_scenario(str(scenario_path(name))) for name in BUNDLED}


@pytest.fixture(scope="session")
def bundled_results(bundled_configs):
    """One deterministic run per bundled scenario, shared across the session."""
    return {name: Simulation(config).run() for name, config in bundled_configs.items()}


@pytest.fixture(scope="session")
def bundled_runs(tmp_path_factory, scenario_path):
    out = tmp_path_factory.mktemp("bundled")
    return {name: cli_run(scenario_path(name), out) for name in BUNDLED}


@pytest.fixture(scope="session")
def generated_runs(tmp_path_factory):
    """generated_runs(workload, seed=1, slow=False): each scenario of a bench
    workload run through `mobsig run` once per session, as a dict of Runs by
    scenario name in run order."""
    runs: dict[tuple[str, int, bool], dict[str, Run]] = {}

    def run(workload: str, seed: int = 1, slow: bool = False) -> dict[str, Run]:
        key = (workload, seed, slow)
        if key not in runs:
            out = tmp_path_factory.mktemp(f"{workload}-seed{seed}{'-slow' if slow else ''}")
            runs[key] = {scenario.stem: cli_run(scenario, out)
                         for scenario in generated_scenarios(workload, out, seed, slow)}
        return runs[key]

    return run


@pytest.fixture(scope="session")
def reader_traces(bundled_runs, generated_runs, tmp_path_factory):
    """Traces that both readers must read alike, by name: the bundled ones,
    the long walk under slow signalling, whose thousands of failed and
    unclassified contexts the classifier behind auto reads, multiflow-dense
    at seed 3, tens of thousands of records over a few dozen distinct heads,
    and bbm-reaimed: the bbm trace with its second handover's detach, attach
    and path query re-aimed at an access its request does not name."""
    traces = {name: run.trace for name, run in bundled_runs.items()}
    traces["slow-signalling"] = generated_runs("long-walk", slow=True)["long-walk"].trace
    traces["multiflow-dense-seed3"] = generated_runs("multiflow-dense", 3)["multiflow-dense"].trace
    records = [json.loads(line) for line in traces["bbm"].read_text(encoding="utf-8").splitlines()]
    second = [i for i, record in enumerate(records) if record["msg"] == "HOExecutionRequest"][1]
    elsewhere = {"cell_id": "cell-zzz", "network_id": "net-zzz", "rat": "wlan"}
    fields = {"LinkDetachRequest": "current", "LinkAttachRequest": "target", "PathSelect": "target"}
    for record in records[second + 1:]:
        if record["msg"] in fields:
            record["params"][fields[record["msg"]]] = elsewhere
    traces["bbm-reaimed"] = tmp_path_factory.mktemp("reaimed") / "bbm-reaimed.jsonl"
    traces["bbm-reaimed"].write_text(
        "".join(json.dumps(record, separators=(",", ":")) + "\n" for record in records),
        encoding="utf-8")
    return traces
