"""Scenario file parsing and validation.

A scenario is a JSON object describing radio cells, terminal movement, the
handover policy, silicon-to-network latencies, and the data flows to start.
Validation is strict: every problem is reported with the dotted path of the
offending field (for example ``cells[0].radius_m``) so batch tooling can point
at the exact input line, and a field that no check reads is rejected as
unknown. A field that passes costs one read and its type test: a path and a
message are built only for a rejection. This module is the only place a
scenario is checked: the value types it builds (cells, trajectory, policy,
path models, flows) hold what it accepted and check nothing again.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Mapping

from .core import AccessId, QosSpec
from .environment import Cell, Trajectory
from .mrrm import MrrmPolicy
from .path_selection import PathModel


class ScenarioError(ValueError):
    """Raised when a scenario file is malformed; carries the field path."""

    def __init__(self, message: str, path: str = "") -> None:
        super().__init__(f"{path}: {message}" if path else message)
        self.message = message
        self.path = path


@dataclass(frozen=True, eq=False, repr=False)
class FlowSpec:
    """One flow of a scenario: its id, requested QoS and start time."""

    flow: int
    requested: QosSpec
    start_us: int


@dataclass(frozen=True, eq=False, repr=False)
class ScenarioConfig:
    """A validated scenario, as the simulation wires it."""

    seed: int
    scan_period_us: int
    jitter_us: int
    cells: tuple[Cell, ...]
    trajectory: Trajectory
    policy: MrrmPolicy
    path_models: dict[AccessId, PathModel]
    binding_rtt_us: int
    fmip_oneway_us: int
    flows: tuple[FlowSpec, ...]


_MISSING = object()  # what reading an absent field gives

# The fields each object of a scenario may hold; any other one is rejected.
_TOP_KEYS = frozenset(("seed", "scan_period_us", "jitter_us", "cells", "trajectory", "policy",
                       "path_models", "latencies", "flows"))
_CELL_KEYS = frozenset(("cell_id", "network_id", "rat", "center", "radius_m", "link_setup_us",
                        "link_teardown_us", "locator_config_us", "supports_fmip", "capacity"))
_QOS_KEYS = frozenset(("bandwidth_kbps", "max_latency_ms"))
_WAYPOINT_KEYS = frozenset(("t_us", "xy"))
_POLICY_KEYS = frozenset(("forbidden_networks", "min_radio_score", "hysteresis", "weight_radio",
                          "weight_path", "mbb_capable"))
_PATH_MODEL_KEYS = frozenset(("bottleneck_bandwidth_kbps", "path_latency_ms", "policy_allowed"))
_LATENCY_KEYS = frozenset(("binding_rtt_us", "fmip_oneway_us"))
_FLOW_KEYS = frozenset(("id", "requested_qos", "start_us"))


def _path(parts: tuple) -> str:
    """The dotted path of a field from its keys and list indexes:
    ``("cells", 0, "capacity")`` is ``cells[0].capacity``."""
    text = ""
    for part in parts:
        if type(part) is int:
            text += f"[{part}]"
        else:
            text = f"{text}.{part}" if text else part
    return text


def _error(message: str, parts: tuple, value: Any = None) -> ScenarioError:
    """The rejection of the field at parts, whose value was read as value."""
    if value is _MISSING:
        message = "missing required field"
    return ScenarioError(message, _path(parts))


def _object(value: Any, known: frozenset[str] | None, where: tuple) -> dict[str, Any]:
    """value as a JSON object holding no field but the known ones (any, if None)."""
    if not isinstance(value, dict):
        raise _error("must be a JSON object", where, value)
    if known is not None and not value.keys() <= known:
        raise _error("unknown field", (*where, min(value.keys() - known)))
    return value


def _list(value: Any, where: tuple) -> list:
    if not isinstance(value, list):
        raise _error("must be an array", where, value)
    return value


def _int_field(obj: Mapping[str, Any], key: str, where: tuple, minimum: int | None = None) -> int:
    value = obj.get(key, _MISSING)
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, int)):
        raise _error("must be an integer", (*where, key), value)
    if minimum is not None and value < minimum:
        raise _error(f"must be >= {minimum}", (*where, key))
    return value


def _is_number(value: Any) -> bool:
    # For a value that is not exactly an int or a float: a bool is no number.
    return not isinstance(value, bool) and isinstance(value, (int, float))


def _finite(value: int | float) -> bool:
    # json reads NaN and Infinity as floats, and a long integer literal as an
    # int that no float can hold.
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _number_field(
    obj: Mapping[str, Any], key: str, where: tuple, minimum: float | None = None
) -> float:
    value = obj.get(key, _MISSING)
    if type(value) not in (float, int) and not _is_number(value):
        raise _error("must be a number", (*where, key), value)
    if not _finite(value):
        raise _error("must be a finite number", (*where, key))
    if minimum is not None and value < minimum:
        raise _error(f"must be >= {minimum}", (*where, key))
    return float(value)


def _bool_field(obj: Mapping[str, Any], key: str, where: tuple) -> bool:
    value = obj.get(key, _MISSING)
    if not isinstance(value, bool):
        raise _error("must be a boolean", (*where, key), value)
    return value


def _str_field(obj: Mapping[str, Any], key: str, where: tuple) -> str:
    value = obj.get(key, _MISSING)
    if (type(value) is not str and not isinstance(value, str)) or not value:
        raise _error("must be a non-empty string", (*where, key), value)
    return value


def _xy_field(obj: Mapping[str, Any], key: str, where: tuple) -> tuple[float, float]:
    value = obj.get(key, _MISSING)
    if not (
        isinstance(value, list)
        and len(value) == 2
        and (type(value[0]) in (float, int) or _is_number(value[0]))
        and (type(value[1]) in (float, int) or _is_number(value[1]))
    ):
        raise _error("must be an [x, y] pair of numbers", (*where, key), value)
    x, y = value
    if not (_finite(x) and _finite(y)):
        raise _error("must be a finite number", (*where, key))
    return (float(x), float(y))


def _qos_field(obj: Mapping[str, Any], key: str, where: tuple) -> QosSpec:
    inner = (*where, key)
    spec = _object(obj.get(key, _MISSING), _QOS_KEYS, inner)
    return QosSpec(
        _int_field(spec, "bandwidth_kbps", inner, minimum=0),
        _int_field(spec, "max_latency_ms", inner, minimum=0),
    )


def _parse_cell(data: Any, where: tuple) -> Cell:
    # Values are built by position, in field order, here and below: a keyword
    # call of a class builds a dict of its arguments on every call.
    obj = _object(data, _CELL_KEYS, where)
    access = AccessId(
        _str_field(obj, "cell_id", where),
        _str_field(obj, "network_id", where),
        _str_field(obj, "rat", where),
    )
    radius = _number_field(obj, "radius_m", where)
    if radius <= 0:
        raise _error("must be > 0", (*where, "radius_m"))
    return Cell(
        access,
        _xy_field(obj, "center", where),
        radius,
        _int_field(obj, "link_setup_us", where, minimum=0),
        _int_field(obj, "link_teardown_us", where, minimum=0),
        _int_field(obj, "locator_config_us", where, minimum=0),
        _bool_field(obj, "supports_fmip", where),
        _qos_field(obj, "capacity", where),
    )


def _parse_trajectory(data: Any) -> Trajectory:
    points = _list(data, ("trajectory",))
    if not points:
        raise ScenarioError("must contain at least one waypoint", "trajectory")
    waypoints = []
    last_t = -1  # below any accepted t_us
    for i, entry in enumerate(points):
        where = ("trajectory", i)
        obj = _object(entry, _WAYPOINT_KEYS, where)
        t_us = _int_field(obj, "t_us", where, minimum=0)
        if t_us <= last_t:
            raise ScenarioError("must be strictly increasing", f"trajectory[{i}].t_us")
        last_t = t_us
        waypoints.append((t_us, _xy_field(obj, "xy", where)))
    return Trajectory(tuple(waypoints))


def _parse_policy(data: Any) -> MrrmPolicy:
    where = ("policy",)
    obj = _object(data, _POLICY_KEYS, where)
    forbidden = obj.get("forbidden_networks", [])
    if not isinstance(forbidden, list) or any(
        not isinstance(n, str) or not n for n in forbidden
    ):
        raise ScenarioError(
            "must be an array of network ids", "policy.forbidden_networks"
        )
    min_radio = _number_field(obj, "min_radio_score", where, minimum=0.0)
    if min_radio > 1.0:
        raise ScenarioError("must be <= 1", "policy.min_radio_score")
    weight_radio = _number_field(obj, "weight_radio", where, minimum=0.0)
    weight_path = _number_field(obj, "weight_path", where, minimum=0.0)
    if abs(weight_radio + weight_path - 1.0) > 1e-9:
        raise ScenarioError("weight_radio + weight_path must equal 1", "policy.weight_radio")
    return MrrmPolicy(
        frozenset(forbidden),
        min_radio,
        _number_field(obj, "hysteresis", where, minimum=0.0),
        weight_radio,
        weight_path,
        _bool_field(obj, "mbb_capable", where),
    )


def _parse_path_models(data: Any, cells: tuple[Cell, ...]) -> dict[AccessId, PathModel]:
    # The keys of path_models name cells: one that names none is rejected below.
    obj = _object(data, None, ("path_models",))
    by_key = {cell.access.key: cell.access for cell in cells}
    models: dict[AccessId, PathModel] = {}
    for key, value in obj.items():
        if key not in by_key:
            raise ScenarioError(
                "does not match any cell (network_id/cell_id)", f"path_models.{key}"
            )
        where = ("path_models", key)
        entry = _object(value, _PATH_MODEL_KEYS, where)
        models[by_key[key]] = PathModel(
            _int_field(entry, "bottleneck_bandwidth_kbps", where, minimum=0),
            _int_field(entry, "path_latency_ms", where, minimum=0),
            _bool_field(entry, "policy_allowed", where),
        )
    for key in sorted(by_key):
        if by_key[key] not in models:
            raise ScenarioError(f"missing model for cell {key}", "path_models")
    return models


def _parse_flows(data: Any) -> tuple[FlowSpec, ...]:
    entries = _list(data, ("flows",))
    flows = []
    seen: set[int] = set()
    for i, entry in enumerate(entries):
        where = ("flows", i)
        obj = _object(entry, _FLOW_KEYS, where)
        flow = _int_field(obj, "id", where, minimum=0)
        if flow in seen:
            raise ScenarioError("duplicate flow id", f"flows[{i}].id")
        seen.add(flow)
        flows.append(
            FlowSpec(
                flow,
                _qos_field(obj, "requested_qos", where),
                _int_field(obj, "start_us", where, minimum=0),
            )
        )
    return tuple(flows)


def parse_scenario(data: Any, seed_override: int | None = None) -> ScenarioConfig:
    """Validate a decoded scenario document and build the typed configuration."""
    obj = _object(data, _TOP_KEYS, ())
    seed = _int_field(obj, "seed", ())
    if seed_override is not None:
        seed = seed_override
    scan_period = _int_field(obj, "scan_period_us", (), minimum=1)
    jitter = 0
    if "jitter_us" in obj:
        jitter = _int_field(obj, "jitter_us", (), minimum=0)

    cell_list = _list(obj.get("cells", _MISSING), ("cells",))
    if not cell_list:
        raise ScenarioError("must contain at least one cell", "cells")
    cells = []
    seen_access: set[str] = set()
    for i, entry in enumerate(cell_list):
        cell = _parse_cell(entry, ("cells", i))
        key = cell.access.key
        if key in seen_access:
            raise ScenarioError(f"duplicate access {key}", f"cells[{i}].cell_id")
        seen_access.add(key)
        cells.append(cell)
    cell_tuple = tuple(cells)

    trajectory = _parse_trajectory(obj.get("trajectory", _MISSING))
    policy = _parse_policy(obj.get("policy", _MISSING))
    path_models = _parse_path_models(obj.get("path_models", _MISSING), cell_tuple)
    latencies = _object(obj.get("latencies", _MISSING), _LATENCY_KEYS, ("latencies",))
    flows = _parse_flows(obj.get("flows", _MISSING))

    return ScenarioConfig(
        seed,
        scan_period,
        jitter,
        cell_tuple,
        trajectory,
        policy,
        path_models,
        _int_field(latencies, "binding_rtt_us", ("latencies",), minimum=0),
        _int_field(latencies, "fmip_oneway_us", ("latencies",), minimum=0),
        flows,
    )


def load_scenario(path: str, seed_override: int | None = None) -> ScenarioConfig:
    """Read, decode, and validate a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"not UTF-8: {exc}") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise ScenarioError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ScenarioError("invalid JSON: nested too deeply") from None
    return parse_scenario(data, seed_override=seed_override)
