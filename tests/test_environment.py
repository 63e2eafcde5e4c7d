"""Radio environment: geometry, link operations, locator lifecycle."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mobsig.core import ANNOTATION_LINK_DOWN, ANNOTATION_LINK_UP, FE_ENVIRONMENT, QosSpec
from mobsig.environment import (
    Cell,
    Environment,
    Trajectory,
    clamp_qos,
)
from mobsig.simkernel import Kernel, SimulationError, TraceRecorder, trace_records

from support import REQUESTED, linear_scan, make_cell, qos_satisfies, still_trajectory


def walk_position(waypoints, at_us):
    """Reference interpolation: the first segment, walked in order, that holds at_us."""
    if at_us <= waypoints[0][0]:
        return waypoints[0][1]
    if at_us >= waypoints[-1][0]:
        return waypoints[-1][1]
    for (t0, p0), (t1, p1) in zip(waypoints, waypoints[1:]):
        if t0 <= at_us <= t1:
            frac = (at_us - t0) / (t1 - t0)
            return (p0[0] + frac * (p1[0] - p0[0]), p0[1] + frac * (p1[1] - p0[1]))
    raise AssertionError("waypoints cover the clamped range")


coordinates = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def waypoints_and_times(draw):
    """Strictly increasing waypoints plus query times: exact, interior and outside."""
    times = sorted(
        draw(st.sets(st.integers(min_value=0, max_value=10_000_000), min_size=1, max_size=30))
    )
    points = st.tuples(coordinates, coordinates)
    waypoints = tuple((t, draw(points)) for t in times)
    exact = st.sampled_from(times)
    anywhere = st.integers(min_value=times[0] - 1_000, max_value=times[-1] + 1_000)
    queries = draw(st.lists(st.one_of(exact, anywhere), min_size=1, max_size=20))
    return waypoints, queries


@st.composite
def layouts_and_points(draw):
    """Cells with mixed radii, some sharing a centre or a cell_id, and terminal points.

    Coordinates and radii range up to the largest finite floats, radii down to
    the smallest positive one. Some cells sit a radius away from the first
    point along x, give or take a few ulps, and some get exactly the radius that
    puts the first point on their edge.
    """
    coordinate = st.one_of(
        st.floats(min_value=-2_000.0, max_value=2_000.0),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    radius = st.one_of(
        st.floats(min_value=1.0, max_value=1_000.0),
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    centres = draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=4))
    points = draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=4))
    x, y = points[0]
    cells = []
    for i in range(draw(st.integers(min_value=1, max_value=12))):
        center = draw(st.sampled_from(centres))
        radius_m = draw(radius)
        if draw(st.booleans()):
            # A centre a radius away along x, moved by a few ulps, where the
            # rounding of x - centre decides whether the cell is in range.
            side = draw(st.sampled_from((-1.0, 1.0)))
            cx = x - side * radius_m
            for _ in range(draw(st.integers(min_value=0, max_value=3))):
                cx = math.nextafter(cx, draw(st.sampled_from((-math.inf, math.inf))))
            if math.isfinite(cx):
                center = (cx, y)
        if draw(st.booleans()):
            edge = math.hypot(x - center[0], y - center[1])
            if 0.0 < edge < math.inf:
                radius_m = edge
        cell_id = draw(st.sampled_from(("cell-a", "cell-b", "cell-c")))
        cells.append(make_cell(cell_id=cell_id, network_id=f"net-{i}", center=center,
                               radius_m=radius_m))
    return tuple(cells), points


qos_specs = st.builds(
    QosSpec,
    bandwidth_kbps=st.integers(min_value=0, max_value=10_000),
    max_latency_ms=st.integers(min_value=0, max_value=1_000),
)


def build_env(cells, trajectory=None, rng=None, jitter_us=0):
    recorder = TraceRecorder()
    kernel = Kernel(recorder=recorder)
    env = Environment(
        kernel,
        cells,
        trajectory or still_trajectory(),
        rng=rng or random.Random(0),
        jitter_us=jitter_us,
    )
    kernel.register(FE_ENVIRONMENT, env.handle)
    return kernel, recorder, env


def two_cells():
    return (
        make_cell(),  # cell-a / net-1 at (0, 0)
        make_cell(cell_id="cell-b", network_id="net-2", rat="cellular", center=(800.0, 0.0)),
    )


class TestTrajectory:
    def test_clamps_outside_the_time_span(self):
        trajectory = Trajectory(waypoints=((1_000, (0.0, 0.0)), (2_000, (10.0, 0.0))))
        assert trajectory.position(0) == (0.0, 0.0)
        assert trajectory.position(5_000) == (10.0, 0.0)

    def test_linear_interpolation(self):
        trajectory = Trajectory(waypoints=((0, (0.0, 0.0)), (10, (100.0, 50.0))))
        assert trajectory.position(5) == (50.0, 25.0)
        assert trajectory.end_time_us == 10

    def test_interior_waypoint_time_ends_the_segment_into_it(self):
        # -7.7 + (1.1 - -7.7) rounds to 1.1000000000000005, not 1.1: the floats
        # tell the segment into the waypoint from the segment out of it.
        trajectory = Trajectory(
            waypoints=((0, (-7.7, 3.3)), (3, (1.1, 0.3)), (10, (100.0, 50.0)))
        )
        assert trajectory.position(3) == (-7.7 + (1.1 - -7.7), 3.3 + (0.3 - 3.3))
        assert trajectory.position(3) != (1.1, 0.3)

    @given(case=waypoints_and_times())
    def test_position_equals_the_linear_walk_exactly(self, case):
        waypoints, queries = case
        trajectory = Trajectory(waypoints=waypoints)
        for at_us in queries:
            assert trajectory.position(at_us) == walk_position(waypoints, at_us)


class TestClampQos:
    def test_bandwidth_capped_latency_floored(self):
        capacity = QosSpec(bandwidth_kbps=800, max_latency_ms=90)
        granted = clamp_qos(REQUESTED, capacity)
        assert granted == QosSpec(bandwidth_kbps=800, max_latency_ms=90)

    def test_ample_capacity_grants_the_request(self):
        capacity = QosSpec(bandwidth_kbps=2000, max_latency_ms=40)
        assert clamp_qos(REQUESTED, capacity) == REQUESTED

    @given(requested=qos_specs, capacity=qos_specs)
    def test_grant_satisfies_request_iff_capacity_does(self, requested, capacity):
        granted = clamp_qos(requested, capacity)
        assert qos_satisfies(granted, requested) == qos_satisfies(capacity, requested)


class TestScan:
    def test_score_one_at_center_zero_at_edge(self):
        trajectory = Trajectory(waypoints=((0, (0.0, 0.0)), (10_000_000, (1000.0, 0.0))))
        _, _, env = build_env(two_cells(), trajectory)
        assert env.scan(0) == [(two_cells()[0].access, 1.0)]
        # x = 200: 200 m from cell-a's center, exactly on cell-b's edge
        found = env.scan(2_000_000)
        assert [a.cell_id for a, _ in found] == ["cell-a", "cell-b"]
        assert found[0][1] == pytest.approx(1.0 - 200.0 / 600.0)
        assert found[1][1] == 0.0

    def test_results_sorted_by_cell_id(self):
        cells = (
            make_cell(cell_id="cell-z", network_id="net-9"),
            make_cell(cell_id="cell-a", network_id="net-1"),
        )
        _, _, env = build_env(cells)
        assert [a.cell_id for a, _ in env.scan(0)] == ["cell-a", "cell-z"]

    def test_far_off_large_cell_that_covers_the_terminal_is_found(self):
        line = tuple(
            make_cell(cell_id=f"cell-{i}", network_id=f"net-{i}", center=(800.0 * i, 0.0))
            for i in range(10)
        )
        umbrella = make_cell(
            cell_id="cell-u", network_id="net-u", rat="cellular",
            center=(1e6, -5e5), radius_m=2e6,
        )
        cells = (*line, umbrella)
        xy = (4000.0, 0.0)
        _, _, env = build_env(cells, still_trajectory(xy))
        found = env.scan(0)
        assert [a.cell_id for a, _ in found] == ["cell-5", "cell-u"]
        assert found == linear_scan(cells, xy)

    def test_a_cell_kept_by_rounding_is_in_the_window(self):
        # 1.0 - -2**-60 rounds to 1.0, so the cell at -2**-60 is exactly one
        # radius away as the scan computes it, though just beyond it exactly.
        cells = (make_cell(center=(-(2.0**-60), 0.0), radius_m=1.0),)
        _, _, env = build_env(cells, still_trajectory((1.0, 0.0)))
        assert env.scan(0) == linear_scan(cells, (1.0, 0.0)) == [(cells[0].access, 0.0)]

    @given(case=layouts_and_points())
    def test_scan_equals_the_linear_scan(self, case):
        cells, points = case
        for xy in points:
            _, _, env = build_env(cells, still_trajectory(xy))
            assert env.scan(0) == linear_scan(cells, xy)

    def test_in_range_and_unknown_access(self):
        cells = two_cells()
        kernel, _, env = build_env(cells)
        assert env.in_range(cells[0].access, 0)
        assert not env.in_range(cells[1].access, 0)
        # No scan finds a cell the scenario lacks: asked for one, the run ends.
        ghost = make_cell(cell_id="ghost", network_id="net-0").access
        kernel.call_later(0, lambda: env.link_attach(1, ghost, REQUESTED, print), FE_ENVIRONMENT)
        with pytest.raises(SimulationError, match="ghost") as excinfo:
            kernel.run_until_quiescent()
        assert isinstance(excinfo.value.__cause__, KeyError)


class TestLinkAttach:
    def test_success_after_setup_delay_with_clamped_grant(self):
        cells = (make_cell(capacity=(800, 90)),)
        kernel, recorder, env = build_env(cells)
        outcomes = []
        env.link_attach(1, cells[0].access, REQUESTED, lambda r, q: outcomes.append((r, q, kernel.now)))
        assert kernel.run_until_quiescent() == 50_000
        result, granted, at = outcomes[0]
        assert result.ok and at == 50_000
        assert granted == QosSpec(bandwidth_kbps=800, max_latency_ms=90)
        assert env.attached(1, cells[0].access)
        ups = [r for r in trace_records(recorder.events) if r.name == ANNOTATION_LINK_UP]
        assert len(ups) == 1
        assert ups[0].params == {
            "access": "net-1/cell-a",
            "flow": 1,
            "granted_qos": {"bandwidth_kbps": 800, "max_latency_ms": 90},
        }

    def test_already_attached_fails_immediately(self):
        cells = (make_cell(),)
        kernel, _, env = build_env(cells)
        env.link_attach(1, cells[0].access, REQUESTED, lambda r, q: None)
        kernel.run_until_quiescent()
        outcomes = []
        env.link_attach(1, cells[0].access, REQUESTED, lambda r, q: outcomes.append((r, kernel.now)))
        kernel.run_until_quiescent()
        result, at = outcomes[0]
        assert not result.ok and result.reason == "already_attached"
        assert at == 50_000  # no extra latency spent

    def test_out_of_coverage_fails_after_the_setup_attempt(self):
        cells = two_cells()
        kernel, _, env = build_env(cells)
        outcomes = []
        env.link_attach(1, cells[1].access, REQUESTED, lambda r, q: outcomes.append((r, kernel.now)))
        kernel.run_until_quiescent()
        result, at = outcomes[0]
        assert not result.ok and result.reason == "out_of_coverage"
        assert at == 50_000
        assert not env.attached(1, cells[1].access)


class TestLinkDetach:
    def test_not_attached_fails_immediately(self):
        cells = (make_cell(),)
        kernel, _, env = build_env(cells)
        outcomes = []
        env.link_detach(1, cells[0].access, lambda r: outcomes.append(r))
        assert kernel.run_until_quiescent() == 0
        assert not outcomes[0].ok and outcomes[0].reason == "not_attached"

    def test_success_after_teardown_and_locator_invalidation(self):
        cells = (make_cell(),)
        kernel, recorder, env = build_env(cells)
        access = cells[0].access
        env.link_attach(1, access, REQUESTED, lambda r, q: None)
        kernel.run_until_quiescent()
        locators = []
        env.allocate_locator(1, access, False, lambda r, loc: locators.append(loc))
        kernel.run_until_quiescent()
        locator = locators[0]
        assert env.locator_valid(locator)
        detach_at = []
        env.link_detach(1, access, lambda r: detach_at.append(kernel.now))
        kernel.run_until_quiescent()
        assert detach_at[0] == 50_000 + 100_000 + 10_000
        assert not env.attached(1, access)
        assert not env.locator_valid(locator)
        downs = [r for r in trace_records(recorder.events) if r.name == ANNOTATION_LINK_DOWN]
        assert downs[-1].params == {"access": "net-1/cell-a", "flow": 1}

    def test_locator_survives_while_another_flow_stays_attached(self):
        cells = (make_cell(),)
        kernel, _, env = build_env(cells)
        access = cells[0].access
        env.link_attach(1, access, REQUESTED, lambda r, q: None)
        env.link_attach(2, access, REQUESTED, lambda r, q: None)
        kernel.run_until_quiescent()
        locators = []
        env.allocate_locator(1, access, False, lambda r, loc: locators.append(loc))
        kernel.run_until_quiescent()
        env.link_detach(1, access, lambda r: None)
        kernel.run_until_quiescent()
        assert env.locator_valid(locators[0])


class TestAllocateLocator:
    def test_requires_attachment_when_not_proactive(self):
        cells = (make_cell(),)
        kernel, _, env = build_env(cells)
        outcomes = []
        env.allocate_locator(1, cells[0].access, False, lambda r, loc: outcomes.append((r, loc)))
        kernel.run_until_quiescent()
        assert outcomes[0] == (outcomes[0][0], None)
        assert outcomes[0][0].reason == "not_attached"

    def test_addresses_are_globally_numbered(self):
        cells = two_cells()
        trajectory = Trajectory(waypoints=((0, (400.0, 0.0)),))  # inside both cells
        kernel, _, env = build_env(cells, trajectory)
        env.link_attach(1, cells[0].access, REQUESTED, lambda r, q: None)
        env.link_attach(1, cells[1].access, REQUESTED, lambda r, q: None)
        kernel.run_until_quiescent()
        allocated = []
        env.allocate_locator(1, cells[0].access, False, lambda r, loc: allocated.append(loc))
        kernel.run_until_quiescent()
        env.allocate_locator(1, cells[1].access, False, lambda r, loc: allocated.append(loc))
        kernel.run_until_quiescent()
        assert allocated[0].address == "net-1/cell-a/1"
        assert allocated[1].address == "net-2/cell-b/2"
        assert allocated[0].kind == "care_of"

    def test_ordinary_allocation_costs_locator_config_time(self):
        cells = (make_cell(),)
        kernel, _, env = build_env(cells)
        env.link_attach(1, cells[0].access, REQUESTED, lambda r, q: None)
        kernel.run_until_quiescent()
        done_at = []
        env.allocate_locator(1, cells[0].access, False, lambda r, loc: done_at.append(kernel.now))
        kernel.run_until_quiescent()
        assert done_at[0] == 50_000 + 100_000

    def test_proactive_needs_fmip_support(self):
        cells = (make_cell(supports_fmip=False),)
        kernel, _, env = build_env(cells)
        outcomes = []
        env.allocate_locator(1, cells[0].access, True, lambda r, loc: outcomes.append(r))
        kernel.run_until_quiescent()
        assert outcomes[0].reason == "fmip_unsupported"

    def test_proactive_lifecycle_pending_then_consumed(self):
        cells = (make_cell(supports_fmip=True),)
        kernel, _, env = build_env(cells)
        access = cells[0].access
        allocated = []
        env.allocate_locator(1, access, True, lambda r, loc: allocated.append((r, loc, kernel.now)))
        kernel.run_until_quiescent()
        result, locator, at = allocated[0]
        assert result.ok and at == 0  # proactive allocation is free
        assert env.locator_valid(locator)  # pending, despite no attachment
        env.link_attach(1, access, REQUESTED, lambda r, q: None)
        kernel.run_until_quiescent()
        assert env.locator_valid(locator)  # now backed by the attachment
        env.link_detach(1, access, lambda r: None)
        kernel.run_until_quiescent()
        # the pending grace was consumed by the attach, so detach kills it
        assert not env.locator_valid(locator)


class TestJitter:
    def test_jitter_stays_within_the_configured_bound(self):
        cells = (make_cell(),)
        kernel, _, env = build_env(cells, rng=random.Random(7), jitter_us=5_000)
        done_at = []
        env.link_attach(1, cells[0].access, REQUESTED, lambda r, q: done_at.append(kernel.now))
        kernel.run_until_quiescent()
        assert 50_000 <= done_at[0] <= 55_000

    def test_same_seed_same_latency(self):
        def attach_time(seed):
            cells = (make_cell(),)
            kernel, _, env = build_env(cells, rng=random.Random(seed), jitter_us=5_000)
            done_at = []
            env.link_attach(1, cells[0].access, REQUESTED, lambda r, q: done_at.append(kernel.now))
            kernel.run_until_quiescent()
            return done_at[0]

        assert attach_time(11) == attach_time(11)
