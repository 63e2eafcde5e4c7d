"""Shared fixtures: bundled scenario files and cached full-scenario runs."""

from __future__ import annotations

from pathlib import Path

import pytest

import mobsig
from mobsig.scenario import load_scenario
from mobsig.simulation import Simulation

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
