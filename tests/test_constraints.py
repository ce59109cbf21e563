"""Motion constraints: clamps, separation fields, dead-ground escape, collisions."""

from __future__ import annotations

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyswarm.constraints import (
    COINCIDENT_DISTANCE,
    ConstraintError,
    ConstraintReport,
    _pair_list,
    _violating_pairs,
    clamp_boundary,
    clamp_step,
    escape_no_hotspot_zone,
    potential_field_repulsion,
    resolve_collisions,
    safe_zone_separation,
    settle_within,
)
from levyswarm.optimizers import FitnessField
from levyswarm.world import GridConfig, Hotspot, ValidationError

finite_coord = st.floats(
    min_value=-200.0, max_value=200.0, allow_nan=False, allow_infinity=False
)


def min_pairwise(positions) -> float:
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    best = math.inf
    for i in range(n):
        for j in range(i + 1, n):
            d = math.hypot(*(positions[i] - positions[j]))
            best = min(best, d)
    return best


def close_pairs(positions, radius):
    """The (i, j) of _violating_pairs' geometry entries."""
    return [(i, j) for i, j, *_ in _violating_pairs(positions, radius)[0]]


def offsets_of(force, positions, *args) -> np.ndarray:
    """A soft force's (x, y) offsets as an (n, 2) array, given every pair's geometry."""
    pos = np.asarray(positions, dtype=float).reshape(-1, 2).tolist()
    return np.array(force(_violating_pairs(pos, math.inf)[0], len(pos), *args)).reshape(-1, 2)


class TestClampStep:
    def test_identity_inside_limit(self):
        assert clamp_step(3.0, 4.0, 5.0) == (3.0, 4.0)

    def test_zero_vector_unchanged(self):
        assert clamp_step(0.0, 0.0, 5.0) == (0.0, 0.0)

    def test_reduces_to_limit(self):
        out = clamp_step(6.0, 8.0, 5.0)
        assert math.hypot(*out) <= 5.0
        assert math.hypot(*out) == pytest.approx(5.0, rel=1e-12)

    def test_direction_preserved(self):
        d = np.array([6.0, 8.0])
        out = np.array(clamp_step(6.0, 8.0, 5.0))
        assert np.allclose(out / np.hypot(*out), d / np.hypot(*d), rtol=1e-9)

    def test_nonpositive_limit_rejected(self):
        with pytest.raises(ValidationError):
            clamp_step(1.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "x, y",
        [(math.inf, 3.0), (3.0, -math.inf), (math.nan, 0.0), (0.0, math.nan), (-math.inf, math.nan)],
    )
    def test_non_finite_displacement_rejected(self, x, y):
        # It used to come back as nan: clamp_step(inf, 3.0, 5.0) == (nan, 0.0).
        with pytest.raises(ValidationError, match=re.escape(f"got ({x}, {y})")):
            clamp_step(x, y, 5.0)

    @given(x=finite_coord, y=finite_coord, limit=st.floats(min_value=1e-6, max_value=50.0))
    @settings(max_examples=150, deadline=None)
    def test_norm_never_exceeds_limit_exactly(self, x, y, limit):
        out = clamp_step(x, y, limit)
        assert math.hypot(*out) <= limit

    @given(x=finite_coord, y=finite_coord, limit=st.floats(min_value=1e-6, max_value=50.0))
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, x, y, limit):
        once = clamp_step(x, y, limit)
        twice = clamp_step(*once, limit)
        assert once == twice


class TestSettleWithin:
    def test_identity_within_budget(self):
        assert settle_within(52.0, 3.0, 50.0, 0.0, 5.0) == (52.0, 3.0)

    @given(
        ax=st.floats(min_value=0.0, max_value=100.0),
        ay=st.floats(min_value=0.0, max_value=100.0),
        dx=finite_coord,
        dy=finite_coord,
        budget=st.floats(min_value=1e-3, max_value=10.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_repairs_composed_rounding(self, ax, ay, dx, dy, budget):
        # The production composition: clamp a displacement, add it to the
        # anchor, then guarantee the *measured* norm of the stored position.
        sx, sy = clamp_step(dx, dy, budget)
        stored = np.array([ax + sx, ay + sy])
        settled = np.array(settle_within(*stored.tolist(), ax, ay, budget))
        assert math.hypot(*(settled - np.array([ax, ay]))) <= budget
        assert np.allclose(settled, stored, rtol=0.0, atol=1e-9)

    def test_far_overshoot_raises(self):
        with pytest.raises(ConstraintError):
            settle_within(10.0, 0.0, 0.0, 0.0, 5.0)


class TestClampBoundary:
    def test_projects_componentwise(self):
        grid = GridConfig()
        assert clamp_boundary(-3.0, 104.5, grid) == (0.0, 100.0)

    def test_identity_inside(self):
        assert clamp_boundary(42.5, 99.0, GridConfig()) == (42.5, 99.0)

    @given(
        px=finite_coord,
        py=finite_coord,
        ax=st.floats(min_value=0.0, max_value=100.0),
        ay=st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_non_expansive_about_interior_anchor(self, px, py, ax, ay):
        grid = GridConfig()
        p = np.array([px, py])
        a = np.array([ax, ay])
        clamped = np.array(clamp_boundary(px, py, grid))
        assert float(np.hypot(*(clamped - a))) <= float(np.hypot(*(p - a))) + 1e-12


def pairwise_offsets(positions, radius, push):
    """Reference: walk pairs (i < j) one at a time, adding push(delta, d) to i."""
    offsets = np.zeros_like(positions)
    for i in range(len(positions)):
        for j in range(i + 1, len(positions)):
            delta = positions[i] - positions[j]
            d = math.hypot(*delta)
            if d < radius:
                offsets[i] += push(delta, d)
                offsets[j] -= push(delta, d)
    return offsets


def safe_zone_push(delta, d):
    unit = delta / d if d >= COINCIDENT_DISTANCE else np.array([1.0, 0.0])
    return 0.5 * 2.0 * unit


def field_push(delta, d):
    if d < COINCIDENT_DISTANCE:
        delta, d = np.array([COINCIDENT_DISTANCE, 0.0]), COINCIDENT_DISTANCE
    return 1.5 * (1.0 / d - 1.0 / 2.0) / d**2 * (delta / d)


crowded = st.lists(
    st.tuples(
        st.floats(0.0, 4.0, allow_nan=False), st.floats(0.0, 4.0, allow_nan=False)
    ),
    min_size=0,
    max_size=9,
).map(lambda pts: np.array(pts + pts[:1], dtype=float).reshape(-1, 2))


class TestClosePairs:
    def test_pairs_in_index_order_with_hypot_lengths(self):
        positions = [(0.0, 0.0), (3.0, 4.0), (0.5, 0.0), (10.0, 0.0)]
        assert _pair_list(4) == list(zip(*(k.tolist() for k in np.triu_indices(4, 1))))
        assert close_pairs(positions, 6.0) == [(0, 1), (0, 2), (1, 2)]
        # A pair is close while its math.hypot length is below the radius.
        for radius, close in ((5.0, []), (math.nextafter(5.0, 6.0), [(0, 1)])):
            assert close_pairs(positions[:2], radius) == close
        d = math.hypot(2.5, 4.0)
        assert close_pairs(positions[1:3], d) == []
        assert close_pairs(positions[1:3], math.nextafter(d, 6.0)) == [(0, 1)]

    def test_geometry_is_position_i_minus_j_and_its_np_hypot(self):
        positions = [(0.0, 0.0), (3.0, 4.0), (0.5, 0.0), (10.0, 0.0)]
        assert _violating_pairs(positions, 6.0) == (
            [
                (0, 1, -3.0, -4.0, 5.0),
                (0, 2, -0.5, 0.0, 0.5),
                (1, 2, 2.5, 4.0, float(np.hypot(2.5, 4.0))),
            ],
            0.5,
        )

    def test_smallest_distance_covers_every_pair_at_any_radius(self):
        positions = [(0.0, 0.0), (3.0, 4.0), (10.0, 0.0), (10.0, 0.25)]
        for radius in (0.0, 0.25, 1.0, math.inf):
            pairs, smallest = _violating_pairs(positions, radius)
            assert smallest == 0.25
            assert [d for *_, d in pairs] == [
                math.hypot(xi - xj, yi - yj)
                for (i, (xi, yi)), (j, (xj, yj)) in itertools.combinations(enumerate(positions), 2)
                if math.hypot(xi - xj, yi - yj) < radius
            ]

    def test_fewer_than_two_agents_have_no_pairs(self):
        for positions in ([], [(0.0, 0.0)]):
            assert _pair_list(len(positions)) == []
            assert _violating_pairs(positions, math.inf) == ([], math.inf)

    def test_field_squares_distances_with_python_floats(self):
        d = 1.6175523854862577  # d ** 2 (libm pow) and d * d round apart
        assert d**2 != d * d
        positions = np.array([[0.0, 0.0], [d, 0.0]])
        expected = pairwise_offsets(positions, 2.0, field_push)
        field = offsets_of(potential_field_repulsion, positions, 1.0, 1.5, 5.0)
        assert np.array_equal(field, expected)

    @settings(max_examples=150, deadline=None)
    @given(crowded)
    def test_separation_offsets_equal_pairwise_walk_bit_for_bit(self, positions):
        # Duplicated first point: every example has a coincident pair.
        assert np.array_equal(
            offsets_of(safe_zone_separation, positions, 2.0),
            pairwise_offsets(positions, 2.0, safe_zone_push),
        )
        expected = pairwise_offsets(positions, 2.0, field_push)
        expected = np.array([clamp_step(*o, 5.0) for o in expected.tolist()]).reshape(-1, 2)
        field = offsets_of(potential_field_repulsion, positions, 1.0, 1.5, 5.0)
        assert np.array_equal(field, expected)


class TestSafeZoneSeparation:
    def test_close_pair_gets_half_radius_pushes(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0]])
        offsets = offsets_of(safe_zone_separation, positions, 2.0)
        assert np.array_equal(offsets[0], np.array([-1.0, 0.0]))
        assert np.array_equal(offsets[1], np.array([1.0, 0.0]))

    def test_pair_at_exact_radius_untouched(self):
        positions = np.array([[0.0, 0.0], [2.0, 0.0]])
        offsets = offsets_of(safe_zone_separation, positions, 2.0)
        assert np.array_equal(offsets, np.zeros((2, 2)))

    def test_coincident_pair_splits_along_x(self):
        positions = np.array([[5.0, 5.0], [5.0, 5.0]])
        offsets = offsets_of(safe_zone_separation, positions, 2.0)
        assert np.array_equal(offsets[0], np.array([1.0, 0.0]))
        assert np.array_equal(offsets[1], np.array([-1.0, 0.0]))

    def test_collinear_triple_cancels_in_middle(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        offsets = offsets_of(safe_zone_separation, positions, 2.0)
        assert np.array_equal(offsets[1], np.zeros(2))
        assert offsets[0][0] < 0.0 < offsets[2][0]

    @given(
        coords=st.lists(st.tuples(finite_coord, finite_coord), min_size=2, max_size=6),
        radius=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_pushes_sum_to_zero(self, coords, radius):
        offsets = offsets_of(safe_zone_separation, coords, radius)
        assert np.allclose(offsets.sum(axis=0), 0.0, atol=1e-9)


class TestPotentialFieldRepulsion:
    def test_zero_beyond_influence(self):
        positions = np.array([[0.0, 0.0], [2.0, 0.0]])  # d = 2R? R = 2*1 = 2 -> d == R
        offsets = offsets_of(potential_field_repulsion, positions, 1.0, 1.0, 5.0)
        assert np.array_equal(offsets, np.zeros((2, 2)))

    def test_gradient_magnitude_at_unit_distance(self):
        # d = 1, R = 2: magnitude = gain * (1/d - 1/R) / d^2 = 0.5 * gain.
        positions = np.array([[0.0, 0.0], [1.0, 0.0]])
        offsets = offsets_of(potential_field_repulsion, positions, 1.0, 1.0, 5.0)
        assert np.array_equal(offsets[0], np.array([-0.5, 0.0]))
        assert np.array_equal(offsets[1], np.array([0.5, 0.0]))

    def test_gain_scales_linearly(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0]])
        one = offsets_of(potential_field_repulsion, positions, 1.0, 1.0, 50.0)
        three = offsets_of(potential_field_repulsion, positions, 1.0, 3.0, 50.0)
        assert np.allclose(three, 3.0 * one, rtol=1e-12)

    def test_near_coincident_pair_clamped_to_step(self):
        positions = np.array([[5.0, 5.0], [5.0, 5.0]])
        offsets = offsets_of(potential_field_repulsion, positions, 1.0, 1.0, 5.0)
        for off in offsets:
            assert math.hypot(*off) <= 5.0
        assert math.hypot(*offsets[0]) == pytest.approx(5.0, rel=1e-12)
        assert offsets[0][0] > 0.0 > offsets[1][0]  # x-axis fallback, lower index +x

    def test_collinear_triple_cancels_in_middle(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        offsets = offsets_of(potential_field_repulsion, positions, 1.0, 1.0, 5.0)
        assert np.allclose(offsets[1], 0.0, atol=1e-15)

    @given(
        coords=st.lists(st.tuples(finite_coord, finite_coord), min_size=2, max_size=5),
        gain=st.floats(min_value=0.1, max_value=5.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_offsets_respect_step_cap(self, coords, gain):
        offsets = offsets_of(potential_field_repulsion, coords, 1.0, gain, 5.0)
        for off in offsets:
            assert math.hypot(*off) <= 5.0


class TestEscapeNoHotspotZone:
    def hotspots(self, *specs):
        """The fitness field over these hotspots, with those flagged True covered."""
        field = FitnessField([Hotspot(position=p) for p, _ in specs], coverage_radius=3.0)
        field.cover([k for k, (_, c) in enumerate(specs) if c])
        return field

    def test_none_when_everything_covered(self):
        hs = self.hotspots(([1.0, 1.0], True), ([2.0, 2.0], True))
        assert escape_no_hotspot_zone(np.zeros(2), hs, 15.0, 5.0) is None

    def test_none_when_uncovered_target_within_threshold(self):
        hs = self.hotspots(([10.0, 0.0], False))
        assert escape_no_hotspot_zone(np.zeros(2), hs, 15.0, 5.0) is None

    def test_none_at_exact_threshold(self):
        hs = self.hotspots(([15.0, 0.0], False))
        assert escape_no_hotspot_zone(np.zeros(2), hs, 15.0, 5.0) is None

    def test_full_speed_toward_nearest_uncovered(self):
        hs = self.hotspots(([40.0, 0.0], False), ([0.0, 30.0], False), ([1.0, 1.0], True))
        vec = escape_no_hotspot_zone(np.zeros(2), hs, 15.0, 5.0)
        assert vec is not None
        assert float(np.hypot(*vec)) == pytest.approx(5.0, rel=1e-12)
        # Nearest uncovered is (0, 30); covered (1, 1) does not shadow it.
        direction = vec / np.hypot(*vec)
        assert np.allclose(direction, [0.0, 1.0], atol=1e-12)

    def test_covered_hotspots_are_invisible(self):
        hs = self.hotspots(([5.0, 0.0], True), ([0.0, 40.0], False))
        vec = escape_no_hotspot_zone(np.zeros(2), hs, 15.0, 5.0)
        assert vec is not None  # the covered one neither blocks nor attracts
        assert np.allclose(vec / np.hypot(*vec), [0.0, 1.0], atol=1e-12)


class TestResolveCollisions:
    def test_identity_when_already_separated(self):
        positions = np.array([[0.0, 0.0], [10.0, 0.0]])
        out, touched, pushes = resolve_collisions(positions.tolist(), GridConfig(), 1.0)
        assert np.array_equal(out, positions)
        assert not touched.any() and pushes == 0

    def test_separates_close_pair(self):
        positions = np.array([[50.0, 50.0], [50.3, 50.0]])
        out, touched, pushes = resolve_collisions(positions.tolist(), GridConfig(), 1.0)
        assert min_pairwise(out) >= 1.0
        assert touched.all() and pushes > 0

    def test_separates_coincident_stack(self):
        positions = np.tile(np.array([50.0, 50.0]), (5, 1))
        out, _, _ = resolve_collisions(positions.tolist(), GridConfig(), 1.0)
        assert min_pairwise(out) >= 1.0
        for p in out:
            assert GridConfig().contains(p)

    def test_wall_pinned_agent_routes_push_through_partner(self):
        positions = np.array([[0.0, 50.0], [0.2, 50.0]])
        out, _, _ = resolve_collisions(positions.tolist(), GridConfig(), 1.0)
        assert min_pairwise(out) >= 1.0
        assert out[0][0] >= 0.0 and out[1][0] >= 0.0

    def test_budget_stall_reverts_to_feasible_starts(self):
        starts = np.array([[20.0, 25.0], [30.0, 25.0]])
        proposals = np.array([[24.9, 25.0], [25.1, 25.0]])
        out, touched, _ = resolve_collisions(
            proposals.tolist(),
            GridConfig(),
            1.0,
            anchors=proposals.tolist(),
            budget=0.05,
            revert_to=starts.tolist(),
        )
        assert np.array_equal(out, starts)
        assert touched.all()

    def test_budget_stall_without_fallback_raises(self):
        proposals = np.array([[24.9, 25.0], [25.1, 25.0]])
        with pytest.raises(ConstraintError):
            resolve_collisions(
                proposals.tolist(), GridConfig(), 1.0, anchors=proposals.tolist(), budget=0.05
            )

    def test_impossible_geometry_raises(self):
        positions = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
        with pytest.raises(ConstraintError):
            resolve_collisions(positions.tolist(), GridConfig(width=1, height=1), 3.0)

    @given(
        coords=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=10.0),
                st.floats(min_value=0.0, max_value=10.0),
            ),
            min_size=2,
            max_size=6,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_minimum_separation_invariant(self, coords):
        out, _, _ = resolve_collisions(coords, GridConfig(), 1.0)
        assert min_pairwise(out) >= 1.0
        for p in out:
            assert GridConfig().contains(p)

    @pytest.mark.xfail(
        strict=True,
        raises=ConstraintError,
        reason="ROADMAP defect 'a swarm of 9 or more UAVs crashes at launch': the unbounded "
        "resolver cannot relax a chain of stacked agents pinned on a grid edge",
    )
    def test_stacks_on_the_bottom_edge_separate(self):
        # The invariant test above once drew this: two agents stacked at (2, 0)
        # and four at the corner.  The unbounded call runs out of passes.
        coords = [(2.0, 0.0), (2.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)]
        out, _, _ = resolve_collisions(coords, GridConfig(), 1.0)
        assert min_pairwise(out) >= 1.0

    @given(
        coords=st.lists(
            st.tuples(
                st.floats(min_value=40.0, max_value=50.0),
                st.floats(min_value=40.0, max_value=50.0),
            ),
            min_size=2,
            max_size=5,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_budgeted_resolution_bounds_displacement(self, coords):
        proposals = np.array(coords)
        n = len(proposals)
        starts = np.array([[10.0 + 20.0 * i, 5.0] for i in range(n)])  # feasible
        out, _, _ = resolve_collisions(
            coords,
            GridConfig(),
            1.0,
            anchors=coords,
            budget=5.0,
            revert_to=starts.tolist(),
        )
        assert min_pairwise(out) >= 1.0
        for final, anchor, start in zip(np.array(out), proposals, starts):
            moved = math.hypot(*(final - anchor))
            assert moved <= 5.0 * (1.0 + 1e-9) or np.array_equal(final, start)


class TestConstraintReport:
    def test_merge_accumulates(self):
        a = ConstraintReport(clamped_steps=1, boundary_hits=2, collision_interventions=3)
        b = ConstraintReport(clamped_steps=10, zone_escapes=4)
        a.merge(b)
        assert a == ConstraintReport(
            clamped_steps=11, boundary_hits=2, collision_interventions=3, zone_escapes=4
        )

    def test_coincidence_threshold_is_fixed(self):
        assert COINCIDENT_DISTANCE == 1e-9
