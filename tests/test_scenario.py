"""Scenario file validation and its field-path error reporting."""

import copy
import dataclasses
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scenario_oracle
from mobsig import cli
from mobsig.core import AccessId, QosSpec
from mobsig.scenario import ScenarioError, load_scenario, parse_scenario

from support import load_generator


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


# Where a field no check reads is added to the base document: the keys of the
# object that gets it, and the path of the field.
UNKNOWN_FIELDS = [
    ((), "jiter_us"),
    (("cells", 0), "cells[0].radius"),
    (("cells", 0, "capacity"), "cells[0].capacity.latency_ms"),
    (("trajectory", 1), "trajectory[1].y"),
    (("policy",), "policy.forbidden_network"),
    (("path_models", "net-1/cell-a"), "path_models.net-1/cell-a.latency_ms"),
    (("latencies",), "latencies.binding_rtt"),
    (("flows", 0), "flows[0].start"),
    (("flows", 0, "requested_qos"), "flows[0].requested_qos.bandwidth"),
]


class TestUnknownFields:
    @pytest.mark.parametrize("keys, field", UNKNOWN_FIELDS, ids=[f for _k, f in UNKNOWN_FIELDS])
    def test_a_field_no_check_reads_is_rejected(self, keys, field):
        doc = base_doc()
        target = doc
        for key in keys:
            target = target[key]
        target[field.rsplit(".", 1)[-1]] = 1
        expect_error(doc, field, "unknown field")

    def test_the_first_unknown_field_in_sorted_order_is_named(self):
        doc = base_doc()
        doc["zeta"] = doc["alpha"] = doc["beta"] = 0
        error = expect_error(doc, "alpha")
        assert str(error) == "alpha: unknown field"

    def test_a_misspelled_optional_field_fails_the_run(self, scenario_path, tmp_path, capsys):
        doc = json.loads(scenario_path("mbb").read_text(encoding="utf-8"))
        doc["jiter_us"] = 5000
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc))
        code = cli.main(["run", "--scenario", str(scenario), "--trace", str(tmp_path / "t.jsonl"),
                         "--metrics", str(tmp_path / "m.json")])
        assert code == 2
        assert "jiter_us: unknown field" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_every_generated_document_holds_only_fields_the_checks_read(self, seed):
        generator = load_generator()
        for workload in generator.WORKLOADS:
            for _name, doc in generator.generate(workload, seed):
                parse_scenario(doc)


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


# The property below edits one of these: the bundled scenarios and the small
# generated ones of every handover style.
EDITED_DOCUMENTS = [
    json.loads(path.read_text(encoding="utf-8"))
    for path in sorted((Path(cli.__file__).parent / "scenarios").glob("*.json"))
] + [doc for _name, doc in load_generator().generate("sweep-small", 1)]

# What an edit sets a field to: every JSON type, and the numbers that sit at
# the edges of the checks.
EDIT_VALUES = [None, True, 0, -1, 1.5, math.nan, math.inf, -math.inf, 10**400, "", "x",
               [], {}, [1], [1, 2, 3], [math.nan, 0]]


def _locations(node, parents=()):
    """The (container keys, key) of every dict field and list item under node."""
    items = enumerate(node) if isinstance(node, list) else node.items()
    for key, value in items:
        yield parents, key
        if isinstance(value, (dict, list)):
            yield from _locations(value, (*parents, key))


@st.composite
def edited_documents(draw):
    """A document with one field deleted or set to a drawn value."""
    doc = json.loads(json.dumps(draw(st.sampled_from(EDITED_DOCUMENTS))))
    parents, key = draw(st.sampled_from(list(_locations(doc))))
    node = doc
    for parent in parents:
        node = node[parent]
    if draw(st.booleans()):
        del node[key]
    else:
        node[key] = draw(st.sampled_from(EDIT_VALUES))
    return doc


def _fields(value):
    """A value built by a validator, as nested tuples of type names and fields."""
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,
                tuple((f.name, _fields(getattr(value, f.name))) for f in dataclasses.fields(value)))
    if isinstance(value, dict):
        return ("dict", tuple((_fields(k), _fields(v)) for k, v in value.items()))
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, tuple(map(_fields, value)))
    if isinstance(value, frozenset):
        return ("frozenset", tuple(sorted(value)))
    return (type(value).__name__, value)


def _outcome(parse, doc):
    try:
        return ("accepted", _fields(parse(doc)))
    except ScenarioError as error:
        return ("rejected", error.message, error.path)


@settings(max_examples=400, deadline=None)
@given(doc=edited_documents())
def test_one_edit_gets_the_verdict_of_the_reference_validator(doc):
    assert _outcome(parse_scenario, doc) == _outcome(scenario_oracle.parse_scenario, doc)
