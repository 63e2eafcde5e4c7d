"""Value-type validation, the primitive wire format, and which classes compare by value."""

import copy
import dataclasses
import importlib
import inspect
import json
import os
import pickle
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mobsig.core import (
    ANNOTATION_ACCESS_SETS,
    ANNOTATION_LINK_DOWN,
    ANNOTATION_LINK_UP,
    ENDS,
    FUNCTIONAL_ENTITIES,
    AccessFlowSetup,
    AccessFlowSetupResponse,
    AccessId,
    AccessSets,
    AccessSetsSnapshot,
    BindingAck,
    BindingUpdate,
    ConstraintRequest,
    ConstraintResponse,
    FastBindingAck,
    FastBindingUpdate,
    HandoverOccurred,
    HandoverOccurredResponse,
    HOComplete,
    HOExecutionRequest,
    LinkAttachRequest,
    LinkAttachResponse,
    LinkDetachRequest,
    LinkDetachResponse,
    LinkDown,
    LinkSwitchRequest,
    LinkSwitchResponse,
    LinkUp,
    PAYLOAD_TYPES,
    PRIMITIVE_TYPES,
    Locator,
    Payload,
    PathSelect,
    PathSelected,
    Primitive,
    ProxyRouterAdvertisement,
    QosSpec,
    Rating,
    Result,
    TunnelStart,
    TunnelStop,
    access_sort_key,
    text_renderer,
)
import mobsig
from mobsig.conformance import Verdict
from mobsig.simkernel import TraceRecord

from support import is_nested, payloads, qos_satisfies, trace_line

A = AccessId(cell_id="cell-a", network_id="net-1", rat="wlan")
B = AccessId(cell_id="cell-b", network_id="net-2", rat="cellular")
QOS = QosSpec(bandwidth_kbps=1000, max_latency_ms=80)
LOC = Locator(address="net-2/cell-b/1", access=B, kind="care_of")
OK = Result.success()
FAIL = Result.failure("no_access")


class TestQosSpec:
    @pytest.mark.parametrize(
        "granted, expected",
        [
            (QosSpec(1000, 80), True),  # exact match
            (QosSpec(1200, 40), True),  # better in both dimensions
            (QosSpec(999, 80), False),  # bandwidth short
            (QosSpec(1000, 81), False),  # latency over budget
            (QosSpec(500, 200), False),  # worse in both
        ],
    )
    def test_qos_satisfies(self, granted, expected):
        assert qos_satisfies(granted, QOS) is expected

    @given(
        st.integers(min_value=0, max_value=5000),
        st.integers(min_value=0, max_value=500),
    )
    def test_qos_satisfies_matches_definition(self, bandwidth, latency):
        granted = QosSpec(bandwidth, latency)
        expected = bandwidth >= QOS.bandwidth_kbps and latency <= QOS.max_latency_ms
        assert qos_satisfies(granted, QOS) is expected


class TestAccessId:
    def test_key_combines_network_and_cell(self):
        assert A.key == "net-1/cell-a"

    def test_sort_key_orders_by_network_then_cell(self):
        accesses = [
            AccessId("cell-b", "net-2", "wlan"),
            AccessId("cell-z", "net-1", "wlan"),
            AccessId("cell-a", "net-1", "wlan"),
        ]
        ordered = sorted(accesses, key=access_sort_key)
        assert [a.key for a in ordered] == ["net-1/cell-a", "net-1/cell-z", "net-2/cell-b"]

    @given(
        cell=st.text(min_size=1, max_size=6),
        network=st.text(min_size=1, max_size=6),
        rat=st.text(max_size=6),
    )
    def test_equal_ids_share_hash_and_key(self, cell, network, rat):
        """Equal fields give the one interned id, by position or by name."""
        first = AccessId(cell, network, rat)
        twin = AccessId(cell_id=cell, network_id=network, rat=rat)
        assert twin is first and hash(twin) == hash(first)
        assert twin.key == first.key == f"{network}/{cell}"
        assert {first: 1}[twin] == 1

    def test_cached_hash_and_key_leave_the_dataclass_shape_alone(self):
        """Interning keeps the fields and repr; equality and hash are identity, in C."""
        assert [f.name for f in dataclasses.fields(A)] == ["cell_id", "network_id", "rat"]
        assert repr(A) == "AccessId(cell_id='cell-a', network_id='net-1', rat='wlan')"
        assert AccessId.__eq__ is object.__eq__ and AccessId.__hash__ is object.__hash__
        assert A != AccessId("cell-a", "net-1", "cellular")
        moved = dataclasses.replace(A, cell_id="cell-q")
        assert moved is AccessId("cell-q", "net-1", "wlan")
        assert moved.key == "net-1/cell-q"
        assert A.key == "net-1/cell-a"

    @pytest.mark.parametrize(
        "duplicate",
        [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_are_the_interned_id(self, duplicate):
        assert duplicate(A) is A
        # So is the id inside a copied value that holds one.
        assert duplicate(LOC).access is B


class TestLocator:
    def test_rejects_empty_address(self):
        with pytest.raises(ValueError):
            Locator(address="", access=A, kind="care_of")


class TestRating:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_unit_interval(self, value):
        Rating(access=A, path_score=value)

    @pytest.mark.parametrize("value", [-0.1, 1.1])
    def test_rejects_out_of_range_scores(self, value):
        with pytest.raises(ValueError):
            Rating(access=A, path_score=value)


class TestAccessSets:
    def test_aas_holds_at_most_one_access(self):
        with pytest.raises(ValueError):
            AccessSets(
                scanned=frozenset({A, B}),
                das=frozenset({A, B}),
                cas=frozenset({A, B}),
                aas=frozenset({A, B}),
            )

    def test_is_nested(self):
        nested = AccessSets(
            scanned=frozenset({A, B}),
            das=frozenset({A, B}),
            cas=frozenset({B}),
            aas=frozenset({B}),
        )
        assert is_nested(nested)
        broken = AccessSets(scanned=frozenset({A}), das=frozenset({B}))
        assert not is_nested(broken)

    def test_active_access(self):
        assert AccessSets(scanned=frozenset({A}), das=frozenset()).active is None
        sets = AccessSets(
            scanned=frozenset({A}),
            das=frozenset({A}),
            cas=frozenset({A}),
            aas=frozenset({A}),
        )
        assert sets.active == A


class TestResult:
    def test_success_carries_no_reason(self):
        with pytest.raises(ValueError):
            Result(ok=True, reason="why not")

    def test_failure_needs_a_reason(self):
        with pytest.raises(ValueError):
            Result(ok=False, reason=None)
        with pytest.raises(ValueError):
            Result(ok=False, reason="")

    def test_constructors(self):
        assert Result.success().ok
        failed = Result.failure("busy")
        assert not failed.ok and failed.reason == "busy"


class TestPathSelectedInvariant:
    def test_success_requires_locator(self):
        with pytest.raises(ValueError):
            PathSelected(result=OK, new_locator=None)

    def test_failure_forbids_locator(self):
        with pytest.raises(ValueError):
            PathSelected(result=Result.failure("not_attached"), new_locator=LOC)


SAMPLES: list[Payload] = [
    ConstraintRequest(flow=1, candidates=(A, B)),
    ConstraintResponse(ratings=(Rating(A, 0.5), Rating(B, 1.0))),
    HOExecutionRequest(flow=1, current=A, target=B, mbb_flag=True),
    HOExecutionRequest(flow=2, current=None, target=A, mbb_flag=False),
    HOComplete(result=OK),
    HOComplete(result=Result.failure("busy")),
    LinkAttachRequest(flow=1, target=B, requested_qos=QOS),
    LinkSwitchRequest(flow=1, current=A, target=B, requested_qos=QOS),
    LinkAttachResponse(result=OK, granted_qos=QosSpec(800, 90)),
    LinkAttachResponse(result=Result.failure("out_of_coverage"), granted_qos=None),
    LinkSwitchResponse(result=OK, granted_qos=QOS),
    LinkDetachRequest(flow=1, current=A),
    LinkDetachResponse(result=OK),
    PathSelect(flow=1, target=B, fmip_flag=True),
    PathSelected(result=OK, new_locator=LOC),
    PathSelected(result=Result.failure("not_attached"), new_locator=None),
    AccessFlowSetup(flow=1, requested_qos=QOS),
    AccessFlowSetupResponse(result=FAIL, granted_qos=None),
    AccessFlowSetupResponse(result=OK, granted_qos=QOS),
    HandoverOccurred(flow=1, provided_qos=QosSpec(800, 90)),
    HandoverOccurredResponse(result=OK),
    ProxyRouterAdvertisement(flow=1, target=B),
    FastBindingUpdate(flow=1, current=A, target=B),
    FastBindingAck(flow=1, result=OK),
    BindingUpdate(flow=1, locator=LOC),
    BindingAck(flow=1, result=OK),
    TunnelStart(flow=1, current=A, target=B),
    TunnelStop(flow=1),
    AccessSetsSnapshot(aas=[B.key], cas=[B.key], das=[A.key, B.key], flow=1,
                       scanned=[A.key, B.key]),
    LinkUp(access=B.key, flow=1, granted_qos=QosSpec(800, 90)),
    LinkDown(access=A.key, flow=1),
]


def wire(value):
    """The JSON form of one field value, written out from the dataclass fields."""
    if isinstance(value, Rating):
        return {**wire(value.access), "rating": value.path_score}
    if dataclasses.is_dataclass(value):
        return {f.name: wire(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [wire(item) for item in value]
    return value


@pytest.mark.parametrize("sample", SAMPLES, ids=lambda s: type(s).__name__)
def test_params_round_trip(sample):
    """params() carries every field whole and survives the written trace line."""
    expected = {f.name: wire(getattr(sample, f.name)) for f in dataclasses.fields(sample)}
    if "result" in expected:
        result = sample.result
        expected["result"] = "success" if result.ok else "failure"
        if not result.ok:
            expected["reason"] = result.reason
    params = sample.params()
    assert params == expected

    line = trace_line(TraceRecord(0, "MRRM", "HOLM", type(sample).__name__, params))
    assert TraceRecord.from_json(line).params == params
    key_orders = []

    def keep_order(pairs):
        key_orders.append([key for key, _ in pairs])
        return dict(pairs)

    json.loads(line, object_pairs_hook=keep_order)
    # The last object closed is the record head, whose fields keep their own order.
    assert all(keys == sorted(keys) for keys in key_orders[:-1]), "params keys written sorted"


def test_every_primitive_type_sampled():
    assert {type(s).__name__ for s in SAMPLES} == set(PAYLOAD_TYPES) == set(ENDS)
    assert set(PRIMITIVE_TYPES) == set(PAYLOAD_TYPES) - {
        ANNOTATION_ACCESS_SETS, ANNOTATION_LINK_UP, ANNOTATION_LINK_DOWN
    }


def test_optional_fields_render_explicit_null():
    request = HOExecutionRequest(flow=3, current=None, target=A, mbb_flag=False)
    params = request.params()
    assert "current" in params and params["current"] is None
    response = LinkAttachResponse(result=Result.failure("no_radio"), granted_qos=None)
    assert response.params()["granted_qos"] is None


def test_result_field_renders_flat_success_and_failure():
    assert HOComplete(result=OK).params() == {"result": "success"}
    assert HOComplete(result=Result.failure("busy")).params() == {
        "reason": "busy",
        "result": "failure",
    }


def test_rating_wire_form_flattens_the_access():
    """A rating travels as its access's fields plus the path score as `rating`."""
    response = ConstraintResponse(ratings=(Rating(A, 0.25),))
    assert response.params()["ratings"] == [
        {"cell_id": "cell-a", "network_id": "net-1", "rat": "wlan", "rating": 0.25}
    ]


def _canonical(params):
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("cls", PAYLOAD_TYPES.values(), ids=lambda cls: cls.__name__)
@given(data=st.data())
def test_params_text_equals_json_dumps_of_params(cls, data):
    """The trace writer's text of a payload is the canonical JSON of its params()."""
    payload = data.draw(payloads(cls))
    assert text_renderer(cls)(payload) == _canonical(payload.params())


@pytest.mark.parametrize(
    "cls", [cls for cls in PAYLOAD_TYPES.values() if "result" in cls.__dataclass_fields__],
    ids=lambda cls: cls.__name__,
)
def test_a_failed_result_renders_its_reason_in_sorted_place(cls):
    # A failure of every type with a result, its optional fields None: the
    # simulator's traces hold none of some of these.
    failed = Result.failure("réseau ✓")
    payload = cls(*[{"result": failed, "flow": 7}.get(name) for name in cls.__dataclass_fields__])
    text = text_renderer(cls)(payload)
    assert text == _canonical(payload.params())
    assert '"reason":"r\\u00e9seau \\u2713","result":"failure"}' in text


def test_the_text_renderers_are_built_on_first_render():
    # Import builds the dict renderers only; a class's text renderer is
    # compiled when the writer first renders one of it.
    script = (
        "from mobsig import cli, core\n"
        "assert core.text_renderer.cache_info().currsize == 0\n"
        "core.text_renderer(core.HOComplete)\n"
        "assert core.text_renderer.cache_info().currsize == 1\n"
    )
    subprocess.run([sys.executable, "-c", script], check=True,
                   env={**os.environ, "PYTHONPATH": str(Path(mobsig.__file__).parent.parent)})


# -- Which classes compare by value ------------------------------------------

# The value types compare by value; these are built anew on each call. An
# access id is interned, so building it anew gives the same object.
VALUE_TYPES = {
    "AccessId": lambda: AccessId("cell-a", "net-1", "wlan"),
    "QosSpec": lambda: QosSpec(1000, 80),
    "Locator": lambda: Locator(
        "net-2/cell-b/1", AccessId("cell-b", "net-2", "cellular"), "care_of"
    ),
    "Rating": lambda: Rating(AccessId("cell-a", "net-1", "wlan"), 0.5),
    "AccessSets": lambda: AccessSets(
        frozenset({AccessId("cell-a", "net-1", "wlan")}), frozenset()
    ),
    "Result": lambda: Result.failure("busy"),
    "TraceRecord": lambda: TraceRecord(7, "HOLM", "MRRM", "HOComplete", {"result": "success"}),
    "Verdict": lambda: Verdict(
        False, "bbm", TraceRecord(7, "HOLM", "MRRM", "HOComplete", {"result": "success"}),
        3, "forbidden:HOComplete", "HOComplete must not occur here",
    ),
}


@pytest.mark.parametrize("make", VALUE_TYPES.values(), ids=VALUE_TYPES)
def test_value_types_built_apart_compare_equal(make):
    first, twin = make(), make()
    assert twin == first and (twin is first) == isinstance(first, AccessId)
    assert repr(twin) == repr(first)
    # A record is mutable: it and a verdict that holds one have no hash.
    if not isinstance(first, (TraceRecord, Verdict)):
        assert hash(twin) == hash(first) and {first: 1}[twin] == 1


@pytest.mark.parametrize(
    "cls", [Primitive, *PRIMITIVE_TYPES.values()], ids=lambda cls: cls.__name__
)
def test_primitives_are_frozen_messages_compared_by_identity(cls):
    assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
    # Its own docstring, not the signature the decorator writes in its place.
    assert cls.__doc__ and not cls.__doc__.startswith(f"{cls.__name__}(")
    message = next((s for s in SAMPLES if type(s) is cls), None) or cls()
    for name in [f.name for f in dataclasses.fields(cls)] + ["_params"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(message, name, None)
    twin = dataclasses.replace(message)
    assert twin != message and twin.params() == message.params()
    assert len({message, twin}) == 2


def test_ends_declare_every_trace_name_once_as_its_docstring_names_them():
    annotations = {ANNOTATION_ACCESS_SETS, ANNOTATION_LINK_UP, ANNOTATION_LINK_DOWN}
    assert len(annotations) == 3 and not annotations & set(PRIMITIVE_TYPES)
    assert set(ENDS) == set(PRIMITIVE_TYPES) | annotations
    assert {end for ends in ENDS.values() for end in ends} <= set(FUNCTIONAL_ENTITIES)
    # Only an annotation stays within one entity.
    assert {name for name, (sender, receiver) in ENDS.items() if sender == receiver} == annotations
    for name, cls in PRIMITIVE_TYPES.items():
        # "<SAP or exchange>, <sender> to <receiver>: ..."
        assert re.findall(r", (\S+) to (\S+):", cls.__doc__) == [ENDS[name]], name
        assert cls._ends is ENDS[name]


# The methods that the dataclass decorator compiles at every import (Python
# 3.11). Only a class that the program compares, hashes or prints by value
# gets a value __eq__, __hash__ or __repr__. The checker's walk needs no
# precedence rules, so the frozen conformance.Precedence and its __init__,
# __setattr__ and __delattr__ are gone: 150 methods of 40 frozen classes
# became 147 of 39. The three annotations are frozen payload types too, with
# an __init__, __setattr__ and __delattr__ each: 156 of 42.
GENERATED_FUNCTIONS = 156
FROZEN_DATACLASSES = 42


def _dataclasses():
    for info in pkgutil.iter_modules(mobsig.__path__):
        module = importlib.import_module(f"mobsig.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and dataclasses.is_dataclass(value):
                if value.__module__ == module.__name__:
                    yield value


def _generated(cls):
    """Names of the methods in cls that the dataclass decorator compiled."""
    codes = {name: getattr(inspect.unwrap(value), "__code__", None)
             for name, value in vars(cls).items()}
    return [name for name, code in codes.items()
            if code is not None and code.co_filename == "<string>"]


def test_import_compiles_only_the_dataclass_methods_the_program_calls():
    generated = {cls.__qualname__: _generated(cls) for cls in _dataclasses()}
    by_value = {name: methods for name, methods in generated.items()
                if {"__eq__", "__hash__", "__repr__"} & set(methods)}
    assert sum(map(len, generated.values())) == GENERATED_FUNCTIONS, (
        "classes with a value __eq__, __hash__ or __repr__: " + repr(by_value)
    )
    assert sum(cls.__dataclass_params__.frozen for cls in _dataclasses()) == FROZEN_DATACLASSES
