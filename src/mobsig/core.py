"""Domain value types and the primitive vocabulary shared by all functional entities.

Everything defined here is immutable. The primitive classes map one-to-one onto
the signaling messages exchanged between the functional entities. A payload's
trace name is its class name, and its trace parameters are its fields. The
trace writer writes their text with ``text_renderer``, a function compiled
per class from the declared field types, and ``Payload.params()`` gives them
as a dict by a plain walk of the field values.

``ENDS`` is the functional architecture as data: the (sender, receiver) of
each primitive and of the three annotation records, declared once. Every trace
record's content is a payload: a primitive, or one of the three annotation
types. The kernel delivers a payload to the receiver its type declares, and
the trace writer reads both ends from the type, so no entity addresses what
it sends and none can send a message to the wrong entity.

A primitive is a message, so it compares and hashes by identity, like any
object: two sends of equal fields are two messages. The program never asks
more of one: MRRM keys a response by its ``id()``, the trace writer keys
each payload's rendered text the same way, and one answer object goes to many
flows. So the payloads get no value ``__eq__``, ``__hash__`` or ``__repr__``,
which the dataclass decorator would otherwise compile for each class at
every import. They stay frozen. The value types above them keep value
equality, as values do. Access ids are interned: one object per
(cell_id, network_id, rat), so their equality is identity, which coincides
with value equality, and sets and dict keys of them hash in C. QoS specs,
locators, ratings, access sets and results keep the dataclass ``__eq__``;
``Result.success()`` is one shared value.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _encode_str
from operator import attrgetter
from typing import Any, Callable, get_args, get_origin, get_type_hints

# Functional-entity identifiers, used for event attribution and diagram columns.
FE_MRRM = "MRRM"
FE_HOLM = "HOLM"
FE_PATH_SELECTION = "PathSelect"
FE_FLOW_MANAGEMENT = "FlowMng"
FE_ENVIRONMENT = "Env"
FE_DAEMON = "Daemon"

FUNCTIONAL_ENTITIES = (
    FE_MRRM,
    FE_HOLM,
    FE_PATH_SELECTION,
    FE_FLOW_MANAGEMENT,
    FE_ENVIRONMENT,
    FE_DAEMON,
)

# The trace records that no primitive carries: MRRM's access-set snapshot of a
# decision cycle and the environment's completed link transitions.
ANNOTATION_ACCESS_SETS = "AccessSetsSnapshot"
ANNOTATION_LINK_UP = "LinkUp"
ANNOTATION_LINK_DOWN = "LinkDown"

# The (sender, receiver) of each trace name: the primitives below, by SAP and
# exchange, then the annotations.
ENDS: dict[str, tuple[str, str]] = {
    "ConstraintRequest": (FE_MRRM, FE_PATH_SELECTION),
    "ConstraintResponse": (FE_PATH_SELECTION, FE_MRRM),
    "HOExecutionRequest": (FE_MRRM, FE_HOLM),
    "HOComplete": (FE_HOLM, FE_MRRM),
    "LinkAttachRequest": (FE_HOLM, FE_MRRM),
    "LinkSwitchRequest": (FE_HOLM, FE_MRRM),
    "LinkAttachResponse": (FE_MRRM, FE_HOLM),
    "LinkSwitchResponse": (FE_MRRM, FE_HOLM),
    "LinkDetachRequest": (FE_HOLM, FE_MRRM),
    "LinkDetachResponse": (FE_MRRM, FE_HOLM),
    "PathSelect": (FE_HOLM, FE_PATH_SELECTION),
    "PathSelected": (FE_PATH_SELECTION, FE_HOLM),
    "AccessFlowSetup": (FE_FLOW_MANAGEMENT, FE_MRRM),
    "AccessFlowSetupResponse": (FE_MRRM, FE_FLOW_MANAGEMENT),
    "HandoverOccurred": (FE_MRRM, FE_FLOW_MANAGEMENT),
    "HandoverOccurredResponse": (FE_FLOW_MANAGEMENT, FE_MRRM),
    "ProxyRouterAdvertisement": (FE_ENVIRONMENT, FE_DAEMON),
    "FastBindingUpdate": (FE_DAEMON, FE_ENVIRONMENT),
    "FastBindingAck": (FE_ENVIRONMENT, FE_DAEMON),
    "BindingUpdate": (FE_DAEMON, FE_ENVIRONMENT),
    "BindingAck": (FE_ENVIRONMENT, FE_DAEMON),
    "TunnelStart": (FE_DAEMON, FE_ENVIRONMENT),
    "TunnelStop": (FE_DAEMON, FE_ENVIRONMENT),
    ANNOTATION_ACCESS_SETS: (FE_MRRM, FE_MRRM),
    ANNOTATION_LINK_UP: (FE_ENVIRONMENT, FE_ENVIRONMENT),
    ANNOTATION_LINK_DOWN: (FE_ENVIRONMENT, FE_ENVIRONMENT),
}

# Flow identifiers are plain non-negative ints, unique per scenario.
FlowId = int

@dataclass(frozen=True, eq=False)
class AccessId:
    """One attachable radio access: a cell within an access network.

    Interned: building an id from the fields of one already built gives that
    same object, so equality, hashing, sets and dict keys run as identity in
    C and agree with value equality. Copies and pickles come back as the
    interned object too.
    """

    cell_id: str
    network_id: str
    rat: str

    def __new__(cls, cell_id: str, network_id: str, rat: str) -> "AccessId":
        fields = (cell_id, network_id, rat)
        access = _ACCESS_IDS.get(fields)
        if access is None:
            access = _ACCESS_IDS[fields] = object.__new__(cls)
        return access

    def __post_init__(self) -> None:
        # Trace keys and every primitive that names this access read these; the
        # fields never change, so both are computed once per interned id, and
        # a build that returns an id already set up keeps what it has.
        # Params share the wire dict, so it is read-only like them; `_text`
        # is that dict's canonical JSON text, which trace lines share.
        if "key" in self.__dict__:
            return
        object.__setattr__(self, "key", f"{self.network_id}/{self.cell_id}")
        object.__setattr__(
            self, "_wire", {"cell_id": self.cell_id, "network_id": self.network_id, "rat": self.rat}
        )
        object.__setattr__(
            self, "_text", f'{{"cell_id":{_encode_str(self.cell_id)},'
            f'"network_id":{_encode_str(self.network_id)},"rat":{_encode_str(self.rat)}}}'
        )

    def __reduce__(self) -> tuple[type, tuple[str, str, str]]:
        return AccessId, (self.cell_id, self.network_id, self.rat)


# (cell_id, network_id, rat) -> the one AccessId of those fields.
_ACCESS_IDS: dict[tuple[str, str, str], AccessId] = {}


def access_sort_key(access: AccessId) -> tuple[str, str]:
    """Canonical ordering for accesses: lexicographic (network_id, cell_id)."""
    return (access.network_id, access.cell_id)


@dataclass(frozen=True)
class QosSpec:
    """Bandwidth / latency requirement or grant for one flow."""

    bandwidth_kbps: int
    max_latency_ms: int


@dataclass(frozen=True)
class Locator:
    """A routable address bound to one access.

    A locator is usable only while its access is attached, or while it is a
    proactively allocated care-of locator that has not been consumed yet; the
    environment tracks that lifecycle.
    """

    address: str
    access: AccessId
    kind: str  # rendered in the trace; the environment allocates "care_of" ones

    def __post_init__(self) -> None:
        if not self.address:
            raise ValueError("Locator.address must be non-empty")


@dataclass(frozen=True)
class Rating:
    """Path score for one candidate access, as path selection rates it.

    The radio score belongs to MRRM alone: it comes from MRRM's own scan and
    never travels in a Rating.
    """

    access: AccessId
    path_score: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.path_score <= 1.0:
            raise ValueError(f"Rating.path_score must lie in [0, 1], got {self.path_score!r}")


@dataclass(frozen=True)
class AccessSets:
    """Nested access sets for one flow: aas <= cas <= das <= scanned."""

    scanned: frozenset[AccessId]
    das: frozenset[AccessId]
    cas: frozenset[AccessId] = frozenset()
    aas: frozenset[AccessId] = frozenset()

    def __post_init__(self) -> None:
        if len(self.aas) > 1:
            raise ValueError("AccessSets.aas holds at most one access")

    @property
    def active(self) -> AccessId | None:
        for access in self.aas:
            return access
        return None


@dataclass(frozen=True)
class Result:
    """Outcome of a request: success, or failure with a mandatory reason."""

    ok: bool
    reason: str | None = None

    def __post_init__(self) -> None:
        if self.ok and self.reason is not None:
            raise ValueError("a success Result carries no reason")
        if not self.ok and not self.reason:
            raise ValueError("a failure Result needs a non-empty reason")

    @staticmethod
    def success() -> "Result":
        """The one success value, shared: a Result is frozen."""
        return _SUCCESS

    @classmethod
    def failure(cls, reason: str) -> "Result":
        return cls(False, reason)


_SUCCESS = Result(True)


# --------------------------------------------------------------------------
# Parameter rendering. A payload's params are its fields by name, with a
# `result` flat. The trace holds their canonical JSON text, keys sorted and
# separators compact, which text_renderer(cls) writes: one function per class,
# compiled from the class's field plan (the name and declared type of each
# field, resolved once) on its first render, not at import. It builds no
# dict: an AccessId field is its id's `_text`, and a scalar one goes through
# its type's entry in _SCALAR_TEXT.
#
# params() gives the same params as a dict, for a finished run's records in
# memory, by a plain walk of the field values. A value in it may be shared
# with other params objects, so params are read-only: an AccessId is its own
# wire dict, shared by every params naming it, and a snapshot's key lists are
# the snapshot's own.
# --------------------------------------------------------------------------


@functools.cache
def _field_types(cls: type) -> tuple[tuple[str, Any], ...]:
    """The field plan of a dataclass: each field's name and declared type."""
    # Resolved against this module's namespace: the annotations are strings.
    hints = get_type_hints(cls, globals())
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls))


def _plain(value: Any) -> Any:
    """The JSON form of a field value: an AccessId as its wire dict, a Rating
    as its access's wire fields and its score, a tuple as the list of its
    items' forms, any other dataclass as the dict of its fields' forms, and
    anything else (a scalar, None, a list of keys) as itself."""
    kind = type(value)
    if kind is AccessId:
        return value._wire
    if kind is Rating:
        return {**value.access._wire, "rating": value.path_score}
    if kind is tuple:
        return [_plain(item) for item in value]
    fields = getattr(kind, "__dataclass_fields__", None)
    if fields is None:
        return value
    return {name: _plain(getattr(value, name)) for name in fields}


def _rating_text(rating: Rating) -> str:
    # The access's wire fields, then `rating`, which sorts after them. The
    # score lies in [0, 1], so its repr is what json.dumps writes.
    return f'{rating.access._text[:-1]},"rating":{float.__repr__(rating.path_score)}}}'


# The text of a scalar of each type, as json.dumps writes it. Each raises for
# a value of another type, but an int field takes a bool, an int subclass,
# and writes it as 1 or 0, and a bool field takes any value equal to True or
# False, such as 1 or 0.0, as that bool.
_SCALAR_TEXT: dict[type, Callable[[Any], str]] = {
    int: int.__repr__,
    str: _encode_str,
    bool: {False: "false", True: "true"}.__getitem__,
}


@functools.cache
def _text_codec(tp: Any) -> Callable[[Any], str]:
    """Renderer from a value of declared type tp to its canonical JSON text,
    the text of what ``_plain`` gives for it; tp is not optional (see
    _text_expr)."""
    args = get_args(tp)
    if get_origin(tp) in (tuple, list):
        render = _text_codec(args[0])
        return lambda values: f'[{",".join(map(render, values))}]'
    if tp is AccessId:
        return attrgetter("_text")
    if tp is Rating:
        return _rating_text
    if dataclasses.is_dataclass(tp):
        return text_renderer(tp)
    return _SCALAR_TEXT[tp]


def _text_expr(tp: Any, expr: str, namespace: dict[str, Any]) -> str:
    """Source of the JSON text of ``expr``, a value of declared type tp;
    namespace receives the renderers the source calls."""
    args = get_args(tp)
    if type(None) in args:
        inner = next(arg for arg in args if arg is not type(None))
        return f'("null" if {expr} is None else {_text_expr(inner, expr, namespace)})'
    if tp is AccessId:
        return f"{expr}._text"
    name = f"_{len(namespace)}"
    namespace[name] = _text_codec(tp)
    return f"{name}({expr})"


@functools.cache
def text_renderer(cls: type) -> Callable[[Any], str]:
    """The function that writes an instance of the dataclass cls as the
    canonical JSON text of its params, ``json.dumps(params, sort_keys=True,
    separators=(",", ":"))``, without building them.

    It is compiled on the first call for cls: one f-string per outcome, with
    the keys in sorted order and each field's text. A ``result`` field renders
    flat, as in ``Payload.params``.
    """
    namespace: dict[str, Any] = {"_str": _encode_str}
    parts = {
        name: "{" + _text_expr(tp, f"value.{name}", namespace) + "}"
        for name, tp in _field_types(cls) if name != "result"
    }

    def text(outcome: dict[str, str]) -> str:
        fields = ",".join(f'"{name}":{part}' for name, part in sorted({**parts, **outcome}.items()))
        return "f'{{" + fields + "}}'"

    if "result" in cls.__dataclass_fields__:
        success = text({"result": '"success"'})
        failure = text({"reason": "{_str(value.result.reason)}", "result": '"failure"'})
        body = f"    if value.result.ok:\n        return {success}\n    return {failure}\n"
    else:
        body = f"    return {text({})}\n"
    code = compile("def render(value):\n" + body, f"<params text of {cls.__name__}>", "exec")
    exec(code, namespace)
    return namespace["render"]


class Payload:
    """What a trace record carries: a primitive, or an annotation of one
    entity's state. Its trace name is its class name, its ends are
    ``ENDS[name]``, and its params come from its fields.

    A ``result`` field renders flat: ``result`` is "success" or "failure",
    and a failure adds its ``reason``.
    """

    _ends = ()  # (sender, receiver), from ENDS
    _params = None  # the rendered params, set on first use

    def params(self) -> dict[str, Any]:
        """The trace params, rendered once per instance and shared by every call.

        A payload that recurs (one answer to many flows, or to one flow on
        many ticks) is delivered as the same object, so its records share one
        params dict.
        """
        rendered = self._params
        if rendered is None:
            rendered = _plain(self)
            if "result" in rendered:
                result = self.result
                rendered["result"] = "success" if result.ok else "failure"
                if not result.ok:
                    rendered["reason"] = result.reason
            object.__setattr__(self, "_params", rendered)
        return rendered


@dataclass(frozen=True, eq=False, repr=False)
class Primitive(Payload):
    """Base class for every signaling message; trace name = class name.

    Without ``eq=False`` here every subclass would inherit this class's
    field-less ``__eq__``, by which any two messages of one type are equal.
    """


# -- Constraint Selection SAP ----------------------------------------------


@dataclass(frozen=True, eq=False, repr=False)
class ConstraintRequest(Primitive):
    """Constraint Selection SAP, MRRM to PathSelect: rate these candidates for a flow."""

    flow: FlowId
    candidates: tuple[AccessId, ...]


@dataclass(frozen=True, eq=False, repr=False)
class ConstraintResponse(Primitive):
    """Constraint Selection SAP, PathSelect to MRRM: each candidate's path rating."""

    ratings: tuple[Rating, ...]


# -- HO Execution SAP -------------------------------------------------------


@dataclass(frozen=True, eq=False, repr=False)
class HOExecutionRequest(Primitive):
    """HO Execution SAP, MRRM to HOLM: move a flow to the target access."""

    flow: FlowId
    current: AccessId | None  # None requests flow establishment
    target: AccessId
    mbb_flag: bool


@dataclass(frozen=True, eq=False, repr=False)
class HOComplete(Primitive):
    """HO Execution SAP, HOLM to MRRM: how the requested handover ended."""

    result: Result


@dataclass(frozen=True, eq=False, repr=False)
class LinkAttachRequest(Primitive):
    """HO Execution SAP, HOLM to MRRM: attach the target access for a flow."""

    flow: FlowId
    target: AccessId
    requested_qos: QosSpec


@dataclass(frozen=True, eq=False, repr=False)
class LinkSwitchRequest(Primitive):
    """HO Execution SAP, HOLM to MRRM: switch a flow's link from current to target."""

    flow: FlowId
    current: AccessId
    target: AccessId
    requested_qos: QosSpec


@dataclass(frozen=True, eq=False, repr=False)
class LinkAttachResponse(Primitive):
    """HO Execution SAP, MRRM to HOLM: the attach's result and granted QoS."""

    result: Result
    granted_qos: QosSpec | None


@dataclass(frozen=True, eq=False, repr=False)
class LinkSwitchResponse(Primitive):
    """HO Execution SAP, MRRM to HOLM: the switch's result and granted QoS."""

    result: Result
    granted_qos: QosSpec | None


@dataclass(frozen=True, eq=False, repr=False)
class LinkDetachRequest(Primitive):
    """HO Execution SAP, HOLM to MRRM: detach a flow from its current access."""

    flow: FlowId
    current: AccessId


@dataclass(frozen=True, eq=False, repr=False)
class LinkDetachResponse(Primitive):
    """HO Execution SAP, MRRM to HOLM: the detach's result."""

    result: Result


# -- Path Query SAP ----------------------------------------------------------


@dataclass(frozen=True, eq=False, repr=False)
class PathSelect(Primitive):
    """Path Query SAP, HOLM to PathSelect: ask for a locator on the target access."""

    flow: FlowId
    target: AccessId
    fmip_flag: bool


@dataclass(frozen=True, eq=False, repr=False)
class PathSelected(Primitive):
    """Path Query SAP, PathSelect to HOLM: the new locator, or why there is none."""

    result: Result
    new_locator: Locator | None

    def __post_init__(self) -> None:
        if self.result.ok and self.new_locator is None:
            raise ValueError("PathSelected success carries a locator")
        if not self.result.ok and self.new_locator is not None:
            raise ValueError("PathSelected failure carries no locator")


# -- Flow Management SAP ------------------------------------------------------


@dataclass(frozen=True, eq=False, repr=False)
class AccessFlowSetup(Primitive):
    """Flow Management SAP, FlowMng to MRRM: set up a flow with this QoS."""

    flow: FlowId
    requested_qos: QosSpec


@dataclass(frozen=True, eq=False, repr=False)
class AccessFlowSetupResponse(Primitive):
    """Flow Management SAP, MRRM to FlowMng: the setup's result and granted QoS."""

    result: Result
    granted_qos: QosSpec | None


@dataclass(frozen=True, eq=False, repr=False)
class HandoverOccurred(Primitive):
    """Flow Management SAP, MRRM to FlowMng: a flow's provided QoS changed."""

    flow: FlowId
    provided_qos: QosSpec


@dataclass(frozen=True, eq=False, repr=False)
class HandoverOccurredResponse(Primitive):
    """Flow Management SAP, FlowMng to MRRM: the indication is taken."""

    result: Result


# -- Protocol-internal extensions (daemon <-> network side) -------------------
# These are not SAP primitives; they model the over-the-air protocol exchanges
# and carry a flow id so the daemon can dispatch replies.


@dataclass(frozen=True, eq=False, repr=False)
class ProxyRouterAdvertisement(Primitive):
    """FMIP exchange, Env to Daemon: the target's router advertisement."""

    flow: FlowId
    target: AccessId


@dataclass(frozen=True, eq=False, repr=False)
class FastBindingUpdate(Primitive):
    """FMIP exchange, Daemon to Env: bind a flow ahead of its move to target."""

    flow: FlowId
    current: AccessId
    target: AccessId


@dataclass(frozen=True, eq=False, repr=False)
class FastBindingAck(Primitive):
    """FMIP exchange, Env to Daemon: the fast binding's result."""

    flow: FlowId
    result: Result


@dataclass(frozen=True, eq=False, repr=False)
class BindingUpdate(Primitive):
    """Mobile IP exchange, Daemon to Env: bind a flow to its new locator."""

    flow: FlowId
    locator: Locator


@dataclass(frozen=True, eq=False, repr=False)
class BindingAck(Primitive):
    """Mobile IP exchange, Env to Daemon: the binding's result."""

    flow: FlowId
    result: Result


@dataclass(frozen=True, eq=False, repr=False)
class TunnelStart(Primitive):
    """FMIP exchange, Daemon to Env: forward a flow from current to target."""

    flow: FlowId
    current: AccessId
    target: AccessId


@dataclass(frozen=True, eq=False, repr=False)
class TunnelStop(Primitive):
    """FMIP exchange, Daemon to Env: stop forwarding a flow."""

    flow: FlowId


# -- Annotations ---------------------------------------------------------------
# Records of one entity's state, not messages: nothing delivers them, and the
# kernel records each one at its clock (Kernel.annotate). Their fields are
# declared in their wire order.


@dataclass(frozen=True, eq=False, repr=False)
class AccessSetsSnapshot(Payload):
    """MRRM's access sets for one flow at the end of a decision cycle, as
    sorted access keys. The key lists are shared with the other snapshots of
    one radio view, so they are read-only."""

    aas: list[str]
    cas: list[str]
    das: list[str]
    flow: FlowId
    scanned: list[str]


@dataclass(frozen=True, eq=False, repr=False)
class LinkUp(Payload):
    """A flow's link to an access came up with this granted QoS."""

    access: str  # the access's key
    flow: FlowId
    granted_qos: QosSpec


@dataclass(frozen=True, eq=False, repr=False)
class LinkDown(Payload):
    """A flow's link to an access went down."""

    access: str  # the access's key
    flow: FlowId


def _with_ends(cls: type[Payload]) -> type[Payload]:
    cls._ends = ENDS[cls.__name__]
    return cls


PRIMITIVE_TYPES: dict[str, type[Primitive]] = {
    cls.__name__: _with_ends(cls) for cls in Primitive.__subclasses__()
}

# The payload type of every trace name: the primitives, then the annotations.
PAYLOAD_TYPES: dict[str, type[Payload]] = {
    **PRIMITIVE_TYPES,
    **{cls.__name__: _with_ends(cls) for cls in (AccessSetsSnapshot, LinkUp, LinkDown)},
}
