"""Simulated radio environment: cell geometry, terminal motion, link layer.

The environment is the ground truth for coverage, attachment state and locator
validity. A scan tests only the cells whose centre x lies within the largest
cell radius of the terminal's x, found by bisection over the cells sorted by
centre x, and returns the hits in cell_id order, as a test of every cell would.
Link operations complete asynchronously after the per-cell latencies and report
back through callbacks; completed transitions additionally leave LinkUp /
LinkDown annotation records in the trace.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable

from .core import FE_ENVIRONMENT, AccessId, LinkDown, LinkUp, Locator, QosSpec, Result
from .simkernel import Kernel, SimTime


@dataclass(frozen=True, eq=False, repr=False)
class Cell:
    """Static description of one attachable cell."""

    access: AccessId
    center_xy: tuple[float, float]
    radius_m: float
    link_setup_us: int
    link_teardown_us: int
    locator_config_us: int
    supports_fmip: bool
    capacity_qos: QosSpec


@dataclass(frozen=True, eq=False, repr=False)
class Trajectory:
    """Piecewise-linear terminal path; clamps to the end points outside it."""

    waypoints: tuple[tuple[SimTime, tuple[float, float]], ...]

    @property
    def end_time_us(self) -> SimTime:
        return self.waypoints[-1][0]

    def position(self, at_us: SimTime) -> tuple[float, float]:
        points = self.waypoints
        if at_us <= points[0][0]:
            return points[0][1]
        if at_us >= points[-1][0]:
            return points[-1][1]
        # First waypoint at or after at_us; at an interior waypoint time that is
        # the end of the segment leading into it.
        i = bisect.bisect_left(points, at_us, key=itemgetter(0))
        (t0, p0), (t1, p1) = points[i - 1], points[i]
        frac = (at_us - t0) / (t1 - t0)
        return (p0[0] + frac * (p1[0] - p0[0]), p0[1] + frac * (p1[1] - p0[1]))


def clamp_qos(requested: QosSpec, capacity: QosSpec) -> QosSpec:
    """Grant rule: bandwidth capped by capacity, latency floored by capacity."""
    return QosSpec(
        min(requested.bandwidth_kbps, capacity.bandwidth_kbps),
        max(requested.max_latency_ms, capacity.max_latency_ms),
    )


@dataclass(eq=False, repr=False)
class _LocatorState:
    """An allocated locator's access, and whether it awaits its proactive use."""

    access: AccessId
    proactive_pending: bool


class Environment:
    """Owns radio coverage, per-(flow, access) attachment and locator lifecycle."""

    def __init__(
        self,
        kernel: Kernel,
        cells: tuple[Cell, ...],
        trajectory: Trajectory,
        rng: random.Random,
        jitter_us: int,
    ) -> None:
        self._kernel = kernel
        self._cells = {cell.access: cell for cell in cells}
        # Each cell with its rank in cell_id order, sorted by centre x.
        by_id = sorted(cells, key=lambda c: c.access.cell_id)
        self._by_x = sorted(enumerate(by_id), key=lambda item: item[1].center_xy[0])
        self._xs = [cell.center_xy[0] for _rank, cell in self._by_x]
        self._reach_m = max((cell.radius_m for cell in cells), default=0.0)
        self.trajectory = trajectory
        self._rng = rng
        self._jitter_us = jitter_us
        self._attached: set[tuple[int, AccessId]] = set()
        self._locators: dict[str, _LocatorState] = {}
        self._locator_counter = 0

    # -- wiring ---------------------------------------------------------------

    def handle(self, payload) -> None:
        """Network-side sink; daemon traffic addressed to Env needs no reaction."""

    def latency(self, base_us: int) -> int:
        """base_us plus seeded jitter; link and daemon delays share one generator."""
        if self._jitter_us:
            return base_us + self._rng.randint(0, self._jitter_us)
        return base_us

    def _later(self, delay_us: int, fn: Callable[[], None]) -> None:
        self._kernel.call_later(delay_us, fn, owner=FE_ENVIRONMENT)

    # -- queries ---------------------------------------------------------------

    def cell(self, access: AccessId) -> Cell:
        return self._cells[access]

    def scan(self, at_us: SimTime) -> list[tuple[AccessId, float]]:
        """Accesses in range at at_us with linear radio score, sorted by cell_id."""
        x, y = self.trajectory.position(at_us)
        # A cell in range lies within its radius along x up to the rounding of
        # x - centre x and of hypot, a few ulps that the relative pad covers.
        # The rounding of x -/+ pad is monotone, so it never drops a centre
        # inside the exact window; an overflow to +-inf only widens it.
        pad = self._reach_m * (1.0 + 1e-9)
        lo = bisect.bisect_left(self._xs, x - pad)
        hi = bisect.bisect_right(self._xs, x + pad)
        hits = []
        for rank, cell in self._by_x[lo:hi]:
            distance = math.hypot(x - cell.center_xy[0], y - cell.center_xy[1])
            if distance <= cell.radius_m:
                hits.append((rank, cell.access, 1.0 - distance / cell.radius_m))
        hits.sort()  # ranks are unique, so only they are compared
        return [(access, score) for _rank, access, score in hits]

    def in_range(self, access: AccessId, at_us: SimTime) -> bool:
        cell = self.cell(access)
        x, y = self.trajectory.position(at_us)
        return math.hypot(x - cell.center_xy[0], y - cell.center_xy[1]) <= cell.radius_m

    def attached(self, flow: int, access: AccessId) -> bool:
        return (flow, access) in self._attached

    def locator_valid(self, locator: Locator) -> bool:
        state = self._locators.get(locator.address)
        if state is None:
            return False
        return state.proactive_pending or any(
            access == state.access for (_flow, access) in self._attached
        )

    # -- link operations ---------------------------------------------------------

    def link_attach(
        self,
        flow: int,
        target: AccessId,
        requested: QosSpec,
        done: Callable[[Result, QosSpec | None], None],
    ) -> None:
        """Attach flow to target; grants clamped QoS after link_setup_us."""
        cell = self.cell(target)
        if self.attached(flow, target):
            self._later(0, lambda: done(Result.failure("already_attached"), None))
            return
        if not self.in_range(target, self._kernel.now):
            delay = self.latency(cell.link_setup_us)
            self._later(delay, lambda: done(Result.failure("out_of_coverage"), None))
            return
        granted = clamp_qos(requested, cell.capacity_qos)

        def complete() -> None:
            self._attached.add((flow, target))
            for state in self._locators.values():
                if state.access == target:
                    state.proactive_pending = False
            self._kernel.annotate(LinkUp(target.key, flow, granted))
            done(Result.success(), granted)

        self._later(self.latency(cell.link_setup_us), complete)

    def link_detach(
        self, flow: int, current: AccessId, done: Callable[[Result], None]
    ) -> None:
        """Detach flow from current; locators on it become invalid."""
        cell = self.cell(current)
        if not self.attached(flow, current):
            self._later(0, lambda: done(Result.failure("not_attached")))
            return

        def complete() -> None:
            self._attached.discard((flow, current))
            if not any(access == current for (_f, access) in self._attached):
                for address in [
                    addr
                    for addr, state in self._locators.items()
                    if state.access == current and not state.proactive_pending
                ]:
                    del self._locators[address]
            self._kernel.annotate(LinkDown(current.key, flow))
            done(Result.success())

        self._later(self.latency(cell.link_teardown_us), complete)

    def allocate_locator(
        self,
        flow: int,
        access: AccessId,
        proactive: bool,
        done: Callable[[Result, Locator | None], None],
    ) -> None:
        """Allocate a fresh care-of locator on access.

        Ordinary allocation needs an attached link and costs locator_config_us;
        proactive allocation needs FMIP support and completes immediately.
        """
        cell = self.cell(access)
        if proactive:
            if not cell.supports_fmip:
                self._later(0, lambda: done(Result.failure("fmip_unsupported"), None))
                return
            delay = 0
        else:
            if not self.attached(flow, access):
                self._later(0, lambda: done(Result.failure("not_attached"), None))
                return
            delay = self.latency(cell.locator_config_us)

        def complete() -> None:
            self._locator_counter += 1
            address = f"{access.network_id}/{access.cell_id}/{self._locator_counter}"
            pending = proactive and not self.attached(flow, access)
            self._locators[address] = _LocatorState(access=access, proactive_pending=pending)
            done(Result.success(), Locator(address, access, "care_of"))

        self._later(delay, complete)
