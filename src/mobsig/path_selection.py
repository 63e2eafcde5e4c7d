"""Path selection: rates candidate accesses and allocates the new locator.

Ratings answer MRRM's constraint requests; locator selection answers HOLM's
PathSelect and defers to the environment for the actual allocation, proactively
(zero cost, FMIP handovers only) or via ordinary locator configuration.

A scan tick sends every active flow's request with the one candidate tuple of
that tick, and MRRM keeps that tuple across ticks while the detected set holds,
so flows that request equal QoS ask the same question, on one tick and on
later ones. The answers for the current candidate tuple are kept, one per
requested (bandwidth, latency) pair, until a request brings another tuple: a
request with the same tuple object and an equal requested QoS gets the same
ConstraintResponse object back, however the QoS classes of the flows
interleave. The pair of ints is the key, not the QosSpec: a dataclass hashes
and compares in Python, a tuple of ints in C.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
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
from .flowmgmt import FlowRecord
from .simkernel import Kernel


@dataclass(frozen=True, eq=False, repr=False)
class PathModel:
    """Static end-to-end path descriptor behind one access."""

    bottleneck_bandwidth_kbps: int
    path_latency_ms: int
    policy_allowed: bool


def rate_access(model: PathModel, requested: QosSpec) -> float:
    """Score one access's path in [0, 1]; 0 means unusable."""
    if not model.policy_allowed:
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
        env: Environment,
        models: dict[AccessId, PathModel],
        flow_table: dict[int, FlowRecord],
    ) -> None:
        self._kernel = kernel
        self._env = env
        # Every candidate comes from a scan of the scenario's cells, and the
        # scenario holds a model for each cell.
        self._models = dict(models)
        self._table = flow_table
        # The answers for _candidates by requested (bandwidth_kbps,
        # max_latency_ms); see the module docstring.
        self._candidates: tuple[AccessId, ...] | None = None
        self._answers: dict[tuple[int, int], ConstraintResponse] = {}

    def handle(self, payload) -> None:
        if isinstance(payload, ConstraintRequest):
            self._kernel.schedule(0, self.rate_accesses(payload))
        elif isinstance(payload, PathSelect):
            self.select_path(payload)

    def rate_accesses(self, request: ConstraintRequest) -> ConstraintResponse:
        """Deterministically rate every candidate, preserving request order."""
        requested = self._table.get(request.flow).requested
        if request.candidates is not self._candidates:
            self._candidates = request.candidates
            self._answers.clear()
        qos = (requested.bandwidth_kbps, requested.max_latency_ms)
        response = self._answers.get(qos)
        if response is None:
            response = self._answers[qos] = ConstraintResponse(
                ratings=tuple(
                    Rating(access, rate_access(self._models[access], requested))
                    for access in request.candidates
                )
            )
        return response

    def select_path(self, request: PathSelect) -> None:
        """Allocate the new locator for the selected target and answer HOLM.

        An FMIP handover prepared the target before it asks, so its locator is
        allocated proactively, before the link is attached. The environment
        answers a target that is not attached.
        """

        def allocated(result: Result, locator) -> None:
            self._kernel.schedule(0, PathSelected(result, locator))

        self._env.allocate_locator(request.flow, request.target, request.fmip_flag, allocated)
