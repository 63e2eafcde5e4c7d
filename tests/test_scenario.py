"""Scenario file validation and its field-path error reporting."""

import copy
import json
import math

import pytest

from mobsig import cli
from mobsig.core import AccessId, QosSpec
from mobsig.scenario import ScenarioError, load_scenario, parse_scenario


def base_doc():
    return {
        "seed": 7,
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
        "trajectory": [
            {"t_us": 0, "xy": [0.0, 0.0]},
            {"t_us": 1_000_000, "xy": [10.0, 0.0]},
        ],
        "policy": {
            "min_radio_score": 0.05,
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
            }
        ],
    }


def expect_error(doc, path, fragment=None):
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario(doc)
    assert excinfo.value.path == path
    if fragment is not None:
        assert fragment in excinfo.value.message
    return excinfo.value


class TestParseScenario:
    def test_valid_document(self):
        config = parse_scenario(base_doc())
        assert config.seed == 7
        assert config.jitter_us == 0  # optional, defaults to zero
        assert len(config.cells) == 1
        cell = config.cells[0]
        assert cell.access == AccessId("cell-a", "net-1", "wlan")
        assert cell.capacity_qos == QosSpec(2000, 40)
        assert config.trajectory.end_time_us == 1_000_000
        assert config.policy.mbb_capable is True
        assert config.path_models[cell.access].bottleneck_bandwidth_kbps == 2000
        assert config.binding_rtt_us == 40_000
        assert config.flows[0].flow == 1
        assert config.flows[0].requested == QosSpec(1000, 80)

    def test_explicit_jitter(self):
        doc = base_doc()
        doc["jitter_us"] = 15_000
        assert parse_scenario(doc).jitter_us == 15_000

    def test_seed_override_wins(self):
        assert parse_scenario(base_doc(), seed_override=99).seed == 99

    def test_error_string_carries_the_path(self):
        doc = base_doc()
        del doc["seed"]
        error = expect_error(doc, "seed", "missing required field")
        assert str(error) == "seed: missing required field"

    def test_top_level_must_be_an_object(self):
        expect_error([], "", "must be a JSON object")

    def test_booleans_are_not_integers(self):
        doc = base_doc()
        doc["seed"] = True
        expect_error(doc, "seed", "must be an integer")

    def test_scan_period_must_be_positive(self):
        doc = base_doc()
        doc["scan_period_us"] = 0
        expect_error(doc, "scan_period_us", "must be >= 1")


class TestCellErrors:
    def test_zero_radius(self):
        doc = base_doc()
        doc["cells"][0]["radius_m"] = 0
        expect_error(doc, "cells[0].radius_m", "must be > 0")

    def test_center_must_be_a_pair(self):
        doc = base_doc()
        doc["cells"][0]["center"] = [1.0]
        expect_error(doc, "cells[0].center", "[x, y] pair")

    def test_capacity_fields_validated_in_place(self):
        doc = base_doc()
        doc["cells"][0]["capacity"]["bandwidth_kbps"] = -5
        expect_error(doc, "cells[0].capacity.bandwidth_kbps", "must be >= 0")

    def test_duplicate_cells(self):
        doc = base_doc()
        doc["cells"].append(copy.deepcopy(doc["cells"][0]))
        expect_error(doc, "cells[1].cell_id", "duplicate access net-1/cell-a")

    def test_empty_cell_list(self):
        doc = base_doc()
        doc["cells"] = []
        expect_error(doc, "cells", "at least one cell")


class TestTrajectoryErrors:
    def test_waypoint_times_strictly_increasing(self):
        doc = base_doc()
        doc["trajectory"][1]["t_us"] = 0
        expect_error(doc, "trajectory[1].t_us", "strictly increasing")

    def test_needs_a_waypoint(self):
        doc = base_doc()
        doc["trajectory"] = []
        expect_error(doc, "trajectory", "at least one waypoint")


class TestPolicyErrors:
    def test_weights_must_sum_to_one(self):
        doc = base_doc()
        doc["policy"]["weight_radio"] = 0.7
        expect_error(doc, "policy.weight_radio", "must equal 1")

    def test_forbidden_networks_must_be_names(self):
        doc = base_doc()
        doc["policy"]["forbidden_networks"] = ["net-1", 3]
        expect_error(doc, "policy.forbidden_networks", "array of network ids")

    def test_radio_floor_bounded(self):
        doc = base_doc()
        doc["policy"]["min_radio_score"] = 1.2
        expect_error(doc, "policy.min_radio_score", "must be <= 1")


class TestNonFiniteNumbers:
    @pytest.mark.parametrize(
        "keys, value, field",
        [
            (("policy", "min_radio_score"), math.nan, "policy.min_radio_score"),
            (("policy", "hysteresis"), math.nan, "policy.hysteresis"),
            (("policy", "weight_radio"), math.nan, "policy.weight_radio"),
            (("policy", "weight_path"), math.inf, "policy.weight_path"),
            (("cells", 0, "radius_m"), math.inf, "cells[0].radius_m"),
            (("cells", 0, "radius_m"), 10**400, "cells[0].radius_m"),
            (("cells", 0, "center"), [math.nan, 0.0], "cells[0].center"),
            (("trajectory", 1, "xy"), [0.0, -math.inf], "trajectory[1].xy"),
        ],
        ids=[
            "min_radio_score-nan",
            "hysteresis-nan",
            "weight_radio-nan",
            "weight_path-inf",
            "radius_m-inf",
            "radius_m-huge-int",
            "center-nan",
            "xy-minus-inf",
        ],
    )
    def test_run_exits_2_naming_the_field(self, keys, value, field, tmp_path, capsys):
        doc = base_doc()
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        scenario = tmp_path / "scenario.json"
        # json writes NaN and Infinity as bare words, and json reads them back.
        scenario.write_text(json.dumps(doc))
        trace = tmp_path / "t.jsonl"
        code = cli.main(
            ["run", "--scenario", str(scenario), "--trace", str(trace),
             "--metrics", str(tmp_path / "m.json")]
        )
        assert code == 2
        assert f"{field}: must be a finite number" in capsys.readouterr().err
        assert not trace.exists()


class TestPathModelErrors:
    def test_unknown_key_is_rejected(self):
        doc = base_doc()
        doc["path_models"]["net-9/cell-x"] = doc["path_models"]["net-1/cell-a"]
        expect_error(doc, "path_models.net-9/cell-x", "does not match any cell")

    def test_every_cell_needs_a_model(self):
        doc = base_doc()
        doc["path_models"] = {}
        expect_error(doc, "path_models", "missing model for cell net-1/cell-a")


class TestFlowErrors:
    def test_duplicate_flow_ids(self):
        doc = base_doc()
        doc["flows"].append(copy.deepcopy(doc["flows"][0]))
        expect_error(doc, "flows[1].id", "duplicate flow id")

    def test_negative_start_time(self):
        doc = base_doc()
        doc["flows"][0]["start_us"] = -1
        expect_error(doc, "flows[0].start_us", "must be >= 0")


# Rejections that the value types built from a scenario do not repeat, by case
# name: the edits to the base document, the field path named and a fragment of
# the message.
ONLY_HERE = {
    "link_setup_us": ({("cells", 0, "link_setup_us"): -1}, "cells[0].link_setup_us", ">= 0"),
    "link_teardown_us": (
        {("cells", 0, "link_teardown_us"): -1}, "cells[0].link_teardown_us", ">= 0"),
    "locator_config_us": (
        {("cells", 0, "locator_config_us"): -1}, "cells[0].locator_config_us", ">= 0"),
    "cell_id": ({("cells", 0, "cell_id"): ""}, "cells[0].cell_id", "non-empty string"),
    "network_id": ({("cells", 0, "network_id"): ""}, "cells[0].network_id", "non-empty string"),
    "rat": ({("cells", 0, "rat"): ""}, "cells[0].rat", "non-empty string"),
    "requested_max_latency_ms": (
        {("flows", 0, "requested_qos", "max_latency_ms"): -1},
        "flows[0].requested_qos.max_latency_ms", ">= 0"),
    "hysteresis": ({("policy", "hysteresis"): -0.1}, "policy.hysteresis", ">= 0"),
    "negative_weight": (
        {("policy", "weight_radio"): -0.5, ("policy", "weight_path"): 1.5},
        "policy.weight_radio", ">= 0"),
    "bottleneck_bandwidth_kbps": (
        {("path_models", "net-1/cell-a", "bottleneck_bandwidth_kbps"): -1},
        "path_models.net-1/cell-a.bottleneck_bandwidth_kbps", ">= 0"),
    "path_latency_ms": (
        {("path_models", "net-1/cell-a", "path_latency_ms"): -1},
        "path_models.net-1/cell-a.path_latency_ms", ">= 0"),
    "flow_id": ({("flows", 0, "id"): -1}, "flows[0].id", ">= 0"),
}


class TestRejectedOnlyHere:
    @pytest.mark.parametrize("case", ONLY_HERE)
    def test_field(self, case):
        edits, field, fragment = ONLY_HERE[case]
        doc = base_doc()
        for keys, value in edits.items():
            target = doc
            for key in keys[:-1]:
                target = target[key]
            target[keys[-1]] = value
        expect_error(doc, field, fragment)


class TestLoadScenario:
    def test_bundled_scenarios_are_valid(self, bundled_configs):
        for name, config in bundled_configs.items():
            assert config.scan_period_us > 0, name
            assert config.flows, name
            assert set(config.path_models) == {cell.access for cell in config.cells}, name

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read scenario file"):
            load_scenario(str(tmp_path / "missing.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario(str(path))

    def test_seed_override_through_the_loader(self, scenario_path):
        config = load_scenario(str(scenario_path("mbb")), seed_override=1234)
        assert config.seed == 1234
