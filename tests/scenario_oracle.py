"""Reference scenario validator: the field-by-field checker before paths were lazy.

The validator in ``mobsig.scenario`` builds a rejection's dotted path and
message only when it raises, tests the exact type ``json.loads`` gives before
falling back to ``isinstance``, and rejects fields it does not read. This
oracle keeps the validator it had before that, unchanged: each field is read
through ``_get``, its path is joined up front, and pairs are tested with
``any``/``all``. On a document without unknown fields both must raise a
``ScenarioError`` with the same message and path, or both accept and build
equal configurations.
"""

from __future__ import annotations

import math
from typing import Any, Mapping

from mobsig.core import AccessId, QosSpec
from mobsig.environment import Cell, Trajectory
from mobsig.mrrm import MrrmPolicy
from mobsig.path_selection import PathModel
from mobsig.scenario import FlowSpec, ScenarioConfig, ScenarioError


def _check_object(value: Any, path: str) -> Mapping[str, Any]:
    if not isinstance(value, dict):
        raise ScenarioError("must be a JSON object", path)
    return value


def _check_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ScenarioError("must be an array", path)
    return value


def _get(obj: Mapping[str, Any], key: str, path: str) -> Any:
    if key not in obj:
        raise ScenarioError("missing required field", _join(path, key))
    return obj[key]


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _int_field(obj: Mapping[str, Any], key: str, path: str, minimum: int | None = None) -> int:
    value = _get(obj, key, path)
    field = _join(path, key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError("must be an integer", field)
    if minimum is not None and value < minimum:
        raise ScenarioError(f"must be >= {minimum}", field)
    return value


def _finite(value: int | float) -> bool:
    # json reads NaN and Infinity as floats, and a long integer literal as an
    # int that no float can hold.
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _number_field(
    obj: Mapping[str, Any], key: str, path: str, minimum: float | None = None
) -> float:
    value = _get(obj, key, path)
    field = _join(path, key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError("must be a number", field)
    if not _finite(value):
        raise ScenarioError("must be a finite number", field)
    if minimum is not None and value < minimum:
        raise ScenarioError(f"must be >= {minimum}", field)
    return float(value)


def _bool_field(obj: Mapping[str, Any], key: str, path: str) -> bool:
    value = _get(obj, key, path)
    if not isinstance(value, bool):
        raise ScenarioError("must be a boolean", _join(path, key))
    return value


def _str_field(obj: Mapping[str, Any], key: str, path: str) -> str:
    value = _get(obj, key, path)
    field = _join(path, key)
    if not isinstance(value, str) or not value:
        raise ScenarioError("must be a non-empty string", field)
    return value


def _xy_field(obj: Mapping[str, Any], key: str, path: str) -> tuple[float, float]:
    value = _get(obj, key, path)
    field = _join(path, key)
    if (
        not isinstance(value, list)
        or len(value) != 2
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)
    ):
        raise ScenarioError("must be an [x, y] pair of numbers", field)
    if not all(_finite(v) for v in value):
        raise ScenarioError("must be a finite number", field)
    return (float(value[0]), float(value[1]))


def _qos_field(obj: Mapping[str, Any], key: str, path: str) -> QosSpec:
    spec = _check_object(_get(obj, key, path), _join(path, key))
    inner = _join(path, key)
    return QosSpec(
        bandwidth_kbps=_int_field(spec, "bandwidth_kbps", inner, minimum=0),
        max_latency_ms=_int_field(spec, "max_latency_ms", inner, minimum=0),
    )


def _parse_cell(data: Any, path: str) -> Cell:
    obj = _check_object(data, path)
    access = AccessId(
        cell_id=_str_field(obj, "cell_id", path),
        network_id=_str_field(obj, "network_id", path),
        rat=_str_field(obj, "rat", path),
    )
    radius = _number_field(obj, "radius_m", path)
    if radius <= 0:
        raise ScenarioError("must be > 0", _join(path, "radius_m"))
    return Cell(
        access=access,
        center_xy=_xy_field(obj, "center", path),
        radius_m=radius,
        link_setup_us=_int_field(obj, "link_setup_us", path, minimum=0),
        link_teardown_us=_int_field(obj, "link_teardown_us", path, minimum=0),
        locator_config_us=_int_field(obj, "locator_config_us", path, minimum=0),
        supports_fmip=_bool_field(obj, "supports_fmip", path),
        capacity_qos=_qos_field(obj, "capacity", path),
    )


def _parse_trajectory(data: Any) -> Trajectory:
    points = _check_list(data, "trajectory")
    if not points:
        raise ScenarioError("must contain at least one waypoint", "trajectory")
    waypoints = []
    last_t = None
    for i, entry in enumerate(points):
        path = f"trajectory[{i}]"
        obj = _check_object(entry, path)
        t_us = _int_field(obj, "t_us", path, minimum=0)
        if last_t is not None and t_us <= last_t:
            raise ScenarioError("must be strictly increasing", _join(path, "t_us"))
        last_t = t_us
        waypoints.append((t_us, _xy_field(obj, "xy", path)))
    return Trajectory(waypoints=tuple(waypoints))


def _parse_policy(data: Any) -> MrrmPolicy:
    obj = _check_object(data, "policy")
    forbidden = obj.get("forbidden_networks", [])
    if not isinstance(forbidden, list) or any(
        not isinstance(n, str) or not n for n in forbidden
    ):
        raise ScenarioError(
            "must be an array of network ids", "policy.forbidden_networks"
        )
    min_radio = _number_field(obj, "min_radio_score", "policy", minimum=0.0)
    if min_radio > 1.0:
        raise ScenarioError("must be <= 1", "policy.min_radio_score")
    weight_radio = _number_field(obj, "weight_radio", "policy", minimum=0.0)
    weight_path = _number_field(obj, "weight_path", "policy", minimum=0.0)
    if abs(weight_radio + weight_path - 1.0) > 1e-9:
        raise ScenarioError("weight_radio + weight_path must equal 1", "policy.weight_radio")
    return MrrmPolicy(
        forbidden_networks=frozenset(forbidden),
        min_radio_score=min_radio,
        hysteresis=_number_field(obj, "hysteresis", "policy", minimum=0.0),
        weight_radio=weight_radio,
        weight_path=weight_path,
        mbb_capable=_bool_field(obj, "mbb_capable", "policy"),
    )


def _parse_path_models(data: Any, cells: tuple[Cell, ...]) -> dict[AccessId, PathModel]:
    obj = _check_object(data, "path_models")
    by_key = {cell.access.key: cell.access for cell in cells}
    models: dict[AccessId, PathModel] = {}
    for key, value in obj.items():
        path = _join("path_models", key)
        if key not in by_key:
            raise ScenarioError("does not match any cell (network_id/cell_id)", path)
        entry = _check_object(value, path)
        models[by_key[key]] = PathModel(
            bottleneck_bandwidth_kbps=_int_field(
                entry, "bottleneck_bandwidth_kbps", path, minimum=0
            ),
            path_latency_ms=_int_field(entry, "path_latency_ms", path, minimum=0),
            policy_allowed=_bool_field(entry, "policy_allowed", path),
        )
    for key in sorted(by_key):
        if by_key[key] not in models:
            raise ScenarioError(f"missing model for cell {key}", "path_models")
    return models


def _parse_flows(data: Any) -> tuple[FlowSpec, ...]:
    entries = _check_list(data, "flows")
    flows = []
    seen: set[int] = set()
    for i, entry in enumerate(entries):
        path = f"flows[{i}]"
        obj = _check_object(entry, path)
        flow = _int_field(obj, "id", path, minimum=0)
        if flow in seen:
            raise ScenarioError("duplicate flow id", _join(path, "id"))
        seen.add(flow)
        flows.append(
            FlowSpec(
                flow=flow,
                requested=_qos_field(obj, "requested_qos", path),
                start_us=_int_field(obj, "start_us", path, minimum=0),
            )
        )
    return tuple(flows)


def parse_scenario(data: Any, seed_override: int | None = None) -> ScenarioConfig:
    """Validate a decoded scenario document and build the typed configuration."""
    obj = _check_object(data, "")
    seed = _int_field(obj, "seed", "")
    if seed_override is not None:
        seed = seed_override
    scan_period = _int_field(obj, "scan_period_us", "", minimum=1)
    jitter = 0
    if "jitter_us" in obj:
        jitter = _int_field(obj, "jitter_us", "", minimum=0)

    cell_list = _check_list(_get(obj, "cells", ""), "cells")
    if not cell_list:
        raise ScenarioError("must contain at least one cell", "cells")
    cells = []
    seen_access: set[str] = set()
    for i, entry in enumerate(cell_list):
        cell = _parse_cell(entry, f"cells[{i}]")
        if cell.access.key in seen_access:
            raise ScenarioError(
                f"duplicate access {cell.access.key}", f"cells[{i}].cell_id"
            )
        seen_access.add(cell.access.key)
        cells.append(cell)
    cell_tuple = tuple(cells)

    trajectory = _parse_trajectory(_get(obj, "trajectory", ""))
    policy = _parse_policy(_get(obj, "policy", ""))
    path_models = _parse_path_models(_get(obj, "path_models", ""), cell_tuple)
    latencies = _check_object(_get(obj, "latencies", ""), "latencies")
    flows = _parse_flows(_get(obj, "flows", ""))

    return ScenarioConfig(
        seed=seed,
        scan_period_us=scan_period,
        jitter_us=jitter,
        cells=cell_tuple,
        trajectory=trajectory,
        policy=policy,
        path_models=path_models,
        binding_rtt_us=_int_field(latencies, "binding_rtt_us", "latencies", minimum=0),
        fmip_oneway_us=_int_field(latencies, "fmip_oneway_us", "latencies", minimum=0),
        flows=flows,
    )
