"""Path selection: rates candidate accesses and allocates the new locator.

Ratings answer MRRM's constraint requests; locator selection answers HOLM's
PathSelect and defers to the environment for the actual allocation, proactively
(zero cost, FMIP handovers only) or via ordinary locator configuration.

A scan tick sends every active flow's request with the one candidate tuple of
that tick, and MRRM keeps that tuple across ticks while the detected set holds,
so flows that request equal QoS ask the same question, on one tick and on
later ones. The answers for the current candidate tuple are kept, one per
requested QoS, until a request brings another tuple: a request with the same
tuple object and an equal requested QoS gets the same ConstraintResponse object
back, however the QoS classes of the flows interleave, and only the
unknown-access annotation, which names the flow, is written again.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    FE_HOLM,
    FE_MRRM,
    FE_PATH_SELECTION,
    AccessId,
    ConstraintRequest,
    ConstraintResponse,
    PathSelect,
    PathSelected,
    QosSpec,
    Rating,
    Result,
)
from .environment import Environment
from .flowmgmt import FlowTable
from .simkernel import Kernel, SimEvent, TraceRecorder

ANNOTATION_UNKNOWN_ACCESS = "UnknownAccessRated"


@dataclass(frozen=True)
class PathModel:
    """Static end-to-end path descriptor behind one access."""

    bottleneck_bandwidth_kbps: int
    path_latency_ms: int
    policy_allowed: bool

    def __post_init__(self) -> None:
        if self.bottleneck_bandwidth_kbps < 0:
            raise ValueError("PathModel.bottleneck_bandwidth_kbps must be >= 0")
        if self.path_latency_ms < 0:
            raise ValueError("PathModel.path_latency_ms must be >= 0")


def rate_access(model: PathModel | None, requested: QosSpec) -> float:
    """Score one access's path in [0, 1]; 0 means unusable."""
    if model is None or not model.policy_allowed:
        return 0.0
    if model.path_latency_ms > requested.max_latency_ms:
        return 0.0
    if requested.bandwidth_kbps == 0:
        return 1.0
    return min(1.0, model.bottleneck_bandwidth_kbps / requested.bandwidth_kbps)


class PathSelection:
    """The PathSelect functional entity."""

    def __init__(
        self,
        kernel: Kernel,
        recorder: TraceRecorder,
        env: Environment,
        models: dict[AccessId, PathModel],
        flow_table: FlowTable,
    ) -> None:
        self._kernel = kernel
        self._recorder = recorder
        self._env = env
        self._models = dict(models)
        self._table = flow_table
        # The answers for _candidates, each with its unknown-access keys, by
        # requested QoS; see the module docstring.
        self._candidates: tuple[AccessId, ...] | None = None
        self._answers: dict[QosSpec, tuple[ConstraintResponse, list[str]]] = {}

    def handle(self, event: SimEvent) -> None:
        payload = event.payload
        if isinstance(payload, ConstraintRequest):
            self._kernel.schedule(0, FE_PATH_SELECTION, FE_MRRM, self.rate_accesses(payload))
        elif isinstance(payload, PathSelect):
            self.select_path(payload)

    def rate_accesses(self, request: ConstraintRequest) -> ConstraintResponse:
        """Deterministically rate every candidate, preserving request order."""
        requested = self._table.get(request.flow).requested
        if request.candidates is not self._candidates:
            self._candidates = request.candidates
            self._answers.clear()
        answer = self._answers.get(requested)
        if answer is None:
            ratings = []
            unknown = []
            for access in request.candidates:
                model = self._models.get(access)
                if model is None:
                    unknown.append(access.key)
                ratings.append(Rating(access=access, path_score=rate_access(model, requested)))
            unknown.sort()
            answer = self._answers[requested] = (ConstraintResponse(ratings=tuple(ratings)), unknown)
        response, unknown = answer
        if unknown:
            self._recorder.annotate(
                self._kernel.now,
                FE_PATH_SELECTION,
                FE_PATH_SELECTION,
                ANNOTATION_UNKNOWN_ACCESS,
                {"accesses": unknown, "flow": request.flow},
            )
        return response

    def select_path(self, request: PathSelect) -> None:
        """Allocate the new locator for the selected target and answer HOLM.

        An FMIP handover prepared the target before it asks, so its locator is
        allocated proactively, before the link is attached.
        """
        if not request.fmip_flag and not self._env.attached(request.flow, request.target):
            self._kernel.schedule(
                0,
                FE_PATH_SELECTION,
                FE_HOLM,
                PathSelected(result=Result.failure("not_attached"), new_locator=None),
            )
            return

        def allocated(result: Result, locator) -> None:
            self._kernel.schedule(
                0,
                FE_PATH_SELECTION,
                FE_HOLM,
                PathSelected(result=result, new_locator=locator),
            )

        self._env.allocate_locator(request.flow, request.target, request.fmip_flag, allocated)
