"""Hotspot queries on the coverage index against their numpy references.

``FitnessField.value``, ``mark_coverage`` and ``escape_no_hotspot_zone``
answer "which uncovered hotspots lie within r of (x, y)?" on Python floats,
through the queries of ``UncoveredHotspots``.  The functions below are the earlier
numpy implementations, kept as references with two changes: a length
compared with a radius or ranked is math.hypot's, the simulator's one norm,
where they took np.hypot's (the shaping term's sum keeps np.hypot), and the
covered weights are added in sequence, np.cumsum's order, where they took
np.sum's.  Every fitness value and escape vector must match them bit for
bit (sign of zero included), and coverage marking must flip the same
hotspots and return the same indices.  The references take the covered
flags as a list beside the hotspots; a field starts with every hotspot
uncovered, so a scene's covered ones are covered through cover().  A field
that cover() has shrunk must answer every query as one built fresh on the
hotspots it has left.  The escape must also give the bytes of the two
queries it replaced, any_within() at the threshold and then nearest(),
kept verbatim in TwoQueryIndex.  The inputs put hotspots a few ulps either
side of the radius, on shared x coordinates (ties in the bisected index)
and in dense clusters, so that the order in which the covered weights are
added shows.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyswarm.constraints import escape_no_hotspot_zone
from levyswarm.optimizers import FitnessField
from levyswarm.world import (
    Hotspot,
    SwarmState,
    UavState,
    UncoveredHotspots,
    mark_coverage,
)
from test_constraints_reference import math_hypot
from test_float_step import built, nudge

# --- references: the numpy implementations ----------------------------------


def uncovered_indices(covered) -> list[int]:
    return [k for k, flag in enumerate(covered) if not flag]


class RefFitnessField:
    def __init__(self, hotspots, covered, coverage_radius, epsilon=0.0):
        self.indices = uncovered_indices(covered)
        self.positions = (
            np.array([hotspots[k].position for k in self.indices], dtype=float)
            if self.indices
            else np.zeros((0, 2))
        )
        self.weights = np.array([hotspots[k].weight for k in self.indices], dtype=float)
        self.coverage_radius = float(coverage_radius)
        self.epsilon = float(epsilon)

    def value(self, position) -> float:
        if self.weights.size == 0:
            return 0.0
        dx = self.positions[:, 0] - float(position[0])
        dy = self.positions[:, 1] - float(position[1])
        covered = self.weights[math_hypot(dx, dy) <= self.coverage_radius]
        total = float(np.cumsum(covered)[-1]) if covered.size else 0.0
        if self.epsilon > 0.0:
            total += self.epsilon * float(np.sum(self.weights / (1.0 + np.hypot(dx, dy))))
        return total


def ref_mark_coverage(swarm, hotspots, covered, coverage_radius, scanning=None) -> list[int]:
    """Sets the flags of the newly covered hotspots in the list covered."""
    positions = swarm.positions()
    if scanning is not None:
        positions = positions[np.asarray(scanning, dtype=bool)]
    indices = uncovered_indices(covered)
    newly = []
    if len(positions) and indices:
        uncovered = np.array([hotspots[k].position for k in indices])
        delta = positions[:, None, :] - uncovered
        nearest = math_hypot(delta[..., 0], delta[..., 1]).min(axis=0)
        for k, d in zip(indices, nearest.tolist()):
            if d <= coverage_radius:
                covered[k] = True
                newly.append(k)
    swarm.covered_count = len(hotspots) - len(indices) + len(newly)
    return newly


def ref_escape_no_hotspot_zone(position, uncovered, threshold_radius, max_step_size):
    if not len(uncovered):
        return None
    deltas = uncovered - np.asarray(position, dtype=float)
    dists = math_hypot(deltas[:, 0], deltas[:, 1])
    nearest = int(dists.argmin())
    d = float(dists[nearest])
    if d <= threshold_radius:
        return None
    dx, dy = deltas[nearest].tolist()
    return dx / d * max_step_size, dy / d * max_step_size


# --- inputs ---------------------------------------------------------------------


def bits(value) -> bytes:
    return None if value is None else np.array(value, dtype=float).tobytes()


coord = st.floats(min_value=0.0, max_value=40.0)
ulps = st.integers(-3, 3)
weight = st.one_of(st.floats(min_value=0.01, max_value=2.0), st.just(1.0))
RADII = [0.5, 3.0, 7.3, 15.0]
# The shaping weight: 0 is off.
EPSILONS = st.sampled_from([0.0, 0.01])


@st.composite
def spot(draw, x, y, r):
    """One hotspot placed relative to the query point (x, y) and radius r, and
    whether it starts covered."""
    kind = draw(st.sampled_from(["anywhere", "rim", "diagonal", "shared_x", "inside"]))
    if kind == "anywhere":
        hx, hy = draw(coord), draw(coord)
    elif kind == "rim":
        # On an axis through the query point, a few ulps either side of r.
        offset = nudge(r, draw(ulps)) * draw(st.sampled_from([1.0, -1.0]))
        hx, hy = (x + offset, y) if draw(st.booleans()) else (x, y + offset)
    elif kind == "diagonal":
        # A 3-4-5 direction, so the norm lands on r up to rounding.
        hx = x + 0.6 * r * draw(st.sampled_from([1.0, -1.0]))
        hy = nudge(y + 0.8 * r * draw(st.sampled_from([1.0, -1.0])), draw(ulps))
    elif kind == "shared_x":
        hx, hy = draw(st.sampled_from([x, nudge(x + r, draw(ulps)), 5.0])), draw(coord)
    else:
        hx = x + draw(st.floats(-0.7, 0.7)) * r
        hy = y + draw(st.floats(-0.7, 0.7)) * r
    return Hotspot(position=(hx, hy), weight=draw(weight)), draw(st.booleans())


@st.composite
def scene(draw, max_spots=60):
    """A query point, a radius, 1 to max_spots hotspots arranged about them
    and their covered flags."""
    x, y, r = draw(coord), draw(coord), draw(st.sampled_from(RADII))
    spots = draw(st.lists(spot(x, y, r), min_size=1, max_size=max_spots))
    return (x, y), r, [hot for hot, _ in spots], [flag for _, flag in spots]


@st.composite
def cluster(draw, low, high):
    """low to high uncovered hotspots of fractional weight, all within r of the query."""
    x, y, r = draw(coord), draw(coord), draw(st.sampled_from(RADII))
    n = draw(st.integers(low, high))
    offsets = st.floats(-0.7, 0.7)
    hotspots = [
        Hotspot(
            position=(x + draw(offsets) * r, y + draw(offsets) * r),
            weight=draw(st.floats(min_value=0.01, max_value=1.0)),
        )
        for _ in range(n)
    ]
    return (x, y), r, hotspots


def swarm_at(points):
    return SwarmState([UavState(position=p) for p in points], np.zeros(2))


def scanned_hits(field, agents, r, scanning=None):
    """The union of the scanning agents' within() queries, as the run loop makes them."""
    hits = set()
    for k, (x, y) in enumerate(agents):
        if scanning is None or scanning[k]:
            hits.update(field.within(x, y, r))
    return hits


# --- fitness ----------------------------------------------------------------------


def assert_value_matches(point, r, hotspots, covered=None, epsilon=0.0):
    covered = [False] * len(hotspots) if covered is None else covered
    got = built(FitnessField, hotspots, covered, r, epsilon).value(point)
    want = RefFitnessField(hotspots, covered, r, epsilon).value(point)
    assert bits(got) == bits(want)


@settings(max_examples=300, deadline=None)
@given(case=scene(), epsilon=EPSILONS)
def test_value_matches_numpy(case, epsilon):
    point, r, hotspots, covered = case
    assert_value_matches(point, r, hotspots, covered, epsilon)


@settings(max_examples=40, deadline=None)
@given(case=scene(max_spots=300), epsilon=EPSILONS, other=st.tuples(coord, coord))
def test_value_matches_numpy_on_up_to_300_hotspots(case, epsilon, other):
    point, r, hotspots, covered = case
    assert_value_matches(point, r, hotspots, covered, epsilon)
    assert_value_matches(other, r, hotspots, covered, epsilon)


@settings(max_examples=100, deadline=None)
@given(case=cluster(8, 40), epsilon=EPSILONS)
def test_value_sums_eight_or_more_weights_left_to_right(case, epsilon):
    point, r, hotspots = case
    assert_value_matches(point, r, hotspots, epsilon=epsilon)


@settings(max_examples=30, deadline=None)
@given(case=cluster(129, 300))
def test_value_sums_more_than_128_weights_left_to_right(case):
    point, r, hotspots = case
    assert len(FitnessField(hotspots, r).within(*point, r)) == len(hotspots)
    assert_value_matches(point, r, hotspots)


def test_value_of_an_empty_field_is_zero():
    hotspots = [Hotspot(position=(1.0, 1.0))]
    for epsilon in (0.0, 0.01):
        field = built(FitnessField, hotspots, [True], 3.0, epsilon)
        assert bits(field.value((1.0, 1.0))) == bits(0.0)
        assert bits(FitnessField([], 3.0, epsilon).value((1.0, 1.0))) == bits(0.0)


# --- the query itself -------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(case=scene())
def test_within_is_math_hypot_in_list_order(case):
    (x, y), r, hotspots, covered = case
    field = built(UncoveredHotspots, hotspots, covered)
    ref = RefFitnessField(hotspots, covered, r)
    d = math_hypot(ref.positions[:, 0] - x, ref.positions[:, 1] - y)
    assert field.within(x, y, r) == [ref.indices[k] for k in np.flatnonzero(d <= r).tolist()]


@pytest.mark.parametrize(
    "agent, hotspot",
    [
        # x - r rounds to 0.0, above the hotspot; hx - x rounds to -r.
        ((1.0, 0.0), (-(2.0**-60), 0.0)),
        # x + r rounds to 0.0, below the hotspot; hx - x rounds to r.
        ((-1.0, 0.0), (2.0**-60, 0.0)),
    ],
)
def test_window_reaches_past_rounded_bounds(agent, hotspot):
    field = UncoveredHotspots([Hotspot(position=hotspot)])
    assert field.within(*agent, 1.0) == [0]
    assert bits(FitnessField([Hotspot(position=hotspot)], 1.0).value(agent)) == bits(1.0)


def norms_that_disagree(math_below: bool):
    """(dx, dy) whose math.hypot lies an ulp below (or above) its np.hypot."""
    dy = 1.0 / 3.0
    for dx in np.linspace(0.1, 9.9, 4000).tolist():
        a, b = math.hypot(dx, dy), float(np.hypot(dx, dy))
        if (a < b) if math_below else (a > b):
            return dx, dy
    pytest.skip("no rounding difference between the two norms on this platform")


@pytest.mark.parametrize("math_below", [True, False])
def test_queries_take_math_hypots_verdict_where_np_hypot_differs(math_below):
    # The radius is either norm of the hotspot's offset: at one of the two,
    # np.hypot would give the opposite verdict from math.hypot.
    dx, dy = norms_that_disagree(math_below)
    hotspots = [Hotspot(position=(dx, dy), weight=0.5)]
    for r in (math.hypot(dx, dy), float(np.hypot(dx, dy))):
        expected = [0] if math.hypot(dx, dy) <= r else []
        assert UncoveredHotspots(hotspots).within(0.0, 0.0, r) == expected
        assert_value_matches((0.0, 0.0), r, hotspots)
        field = UncoveredHotspots(hotspots)
        swarm = swarm_at([(0.0, 0.0)])
        assert mark_coverage(swarm, field, scanned_hits(field, [(0.0, 0.0)], r)) == expected
        assert_escape_matches((0.0, 0.0), r, hotspots)


# --- coverage marking -------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    case=scene(),
    others=st.lists(st.tuples(coord, coord), max_size=7),
    scan=st.lists(st.booleans(), min_size=8, max_size=8),
    held=st.booleans(),
)
def test_mark_coverage_matches_numpy(case, others, scan, held):
    # held: the run loop's FitnessField owns the coverage, else a plain index.
    point, r, hotspots, covered = case
    agents = [point, *others]
    scanning = np.array(scan[: len(agents)])
    theirs = list(covered)
    ours_swarm, their_swarm = swarm_at(agents), swarm_at(agents)
    if held:
        field = built(FitnessField, hotspots, covered, r)
    else:
        field = built(UncoveredHotspots, hotspots, covered)
    got = mark_coverage(ours_swarm, field, scanned_hits(field, agents, r, scanning))
    want = ref_mark_coverage(their_swarm, hotspots, theirs, r, scanning=scanning)
    assert got == want
    assert field.covered == theirs
    assert ours_swarm.covered_count == their_swarm.covered_count


@settings(max_examples=200, deadline=None)
@given(
    case=scene(),
    others=st.lists(st.tuples(coord, coord), max_size=7),
    scan=st.lists(st.booleans(), min_size=8, max_size=8),
    earlier=st.lists(st.tuples(coord, coord), max_size=4),
)
def test_mark_coverage_with_hits_matches_the_positions_path(case, others, scan, earlier):
    # As in a run: the field has already marked what earlier positions
    # covered, and the hits of this step's positions must then mark what
    # the numpy reference marks from the same positions.
    point, r, hotspots, covered = case
    agents = [point, *others]
    scanning = scan[: len(agents)]
    theirs = list(covered)
    field = built(FitnessField, hotspots, covered, r)
    ours_swarm, their_swarm = swarm_at(agents), swarm_at(agents)
    if earlier:
        mark_coverage(swarm_at(earlier), field, scanned_hits(field, earlier, r))
        ref_mark_coverage(swarm_at(earlier), hotspots, theirs, r)
    got = mark_coverage(ours_swarm, field, scanned_hits(field, agents, r, scanning))
    want = ref_mark_coverage(their_swarm, hotspots, theirs, r, scanning=scanning)
    assert got == want
    assert field.covered == theirs
    assert ours_swarm.covered_count == their_swarm.covered_count


def test_mark_coverage_with_hits_keeps_its_checks():
    hotspots = [Hotspot(position=(1.0, 1.0)), Hotspot(position=(9.0, 9.0))]
    field = built(FitnessField, hotspots, [False, True], 3.0)
    swarm = swarm_at([(1.0, 1.0)])
    # An id past the list marks nothing; a covered one is not newly covered.
    with pytest.raises(IndexError):
        mark_coverage(swarm, field, {0, 2})
    assert not field.covered[0] and [k for k, _, _ in field.points] == [0]
    assert mark_coverage(swarm, field, {1}) == []
    assert swarm.covered_count == 1


def test_mark_coverage_with_nothing_uncovered():
    hotspots = [Hotspot(position=(1.0, 1.0))]
    swarm = swarm_at([(1.0, 1.0)])
    field = built(FitnessField, hotspots, [True], 3.0)
    assert mark_coverage(swarm, field, scanned_hits(field, [(1.0, 1.0)], 3.0)) == []
    assert swarm.covered_count == 1


# --- the owner: cover() against a fresh build -------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    case=scene(),
    covers=st.lists(
        st.tuples(st.lists(st.integers(0, 59), max_size=6), st.booleans()), max_size=5
    ),
    epsilon=EPSILONS,
    probes=st.lists(st.tuples(coord, coord), max_size=3),
)
def test_cover_leaves_the_field_a_fresh_build_gives(case, covers, epsilon, probes):
    # Each cover() call, made directly or through mark_coverage, drops ids from
    # the index; every query must then answer as a field built fresh on the
    # hotspots left uncovered does, once the fresh field's ids (positions in
    # that shorter list) are mapped back, and the swarm's count must follow
    # the flags.
    point, r, hotspots, covered = case
    field = built(FitnessField, hotspots, covered, r, epsilon)
    swarm = swarm_at([point])
    for ids, through_mark in covers:
        ids = [k % len(hotspots) for k in ids]
        if through_mark:
            uncovered = [k for k in sorted(set(ids)) if not field.covered[k]]
            assert mark_coverage(swarm, field, ids) == uncovered
        else:
            field.cover(ids)
            mark_coverage(swarm, field, ())
        assert swarm.covered_count == sum(field.covered)
        left = uncovered_indices(field.covered)
        fresh = FitnessField([hotspots[k] for k in left], r, epsilon)

        def mapped(points):
            return [(left[j], hx, hy) for j, hx, hy in points]

        assert field.points == mapped(fresh.points)
        for x, y in [point, *probes]:
            for radius in (r, 15.0):
                assert field.nearest(x, y, radius) == ref_nearest(field, x, y, radius)
                assert field.within(x, y, radius) == [left[j] for j in fresh.within(x, y, radius)]
            assert bits(field.value((x, y))) == bits(fresh.value((x, y)))
            for threshold in (r, 15.0):
                got = escape_no_hotspot_zone((x, y), field, threshold, 5.0)
                assert bits(got) == bits(escape_no_hotspot_zone((x, y), fresh, threshold, 5.0))


# --- dead-ground escape -----------------------------------------------------------


def assert_escape_matches(point, threshold, hotspots, covered=None):
    covered = [False] * len(hotspots) if covered is None else covered
    field = built(FitnessField, hotspots, covered, 3.0)
    got = escape_no_hotspot_zone(point, field, threshold, 5.0)
    uncovered = RefFitnessField(hotspots, covered, 3.0).positions
    want = ref_escape_no_hotspot_zone(point, uncovered, threshold, 5.0)
    assert bits(got) == bits(want)


@settings(max_examples=300, deadline=None)
@given(case=scene())
def test_escape_matches_numpy(case):
    # The scene's radius is the threshold: hotspots sit ulps either side of it.
    point, threshold, hotspots, covered = case
    assert_escape_matches(point, threshold, hotspots, covered)


@settings(max_examples=40, deadline=None)
@given(case=scene(max_spots=300), other=st.tuples(coord, coord))
def test_escape_matches_numpy_on_up_to_300_hotspots(case, other):
    point, threshold, hotspots, covered = case
    assert_escape_matches(point, threshold, hotspots, covered)
    assert_escape_matches(other, threshold, hotspots, covered)


@settings(max_examples=200, deadline=None)
@given(
    point=st.tuples(coord, coord),
    d=st.floats(min_value=16.0, max_value=30.0),
    directions=st.permutations([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]),
    covered=st.lists(st.booleans(), min_size=4, max_size=4),
)
def test_escape_between_equidistant_nearest_hotspots(point, d, directions, covered):
    x, y = point
    hotspots = [Hotspot(position=(x + ux * d, y + uy * d)) for ux, uy in directions]
    hotspots.append(Hotspot(position=(x + 2.0 * d, y + 2.0 * d)))
    assert_escape_matches(point, 15.0, hotspots, [*covered, False])


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_escape_ranks_by_np_hypot_not_by_squares(order):
    # np.hypot puts the second point an ulp nearer, and so does math.hypot,
    # the simulator's norm; the squared norms rank the first one nearer.
    points = [(1.0641129518565822, 13.169271974261704), (11.239550836629228, 6.945110344494961)]
    assert float(np.hypot(*points[1])) < float(np.hypot(*points[0]))
    assert math.hypot(*points[1]) < math.hypot(*points[0])
    (ax, ay), (bx, by) = points
    assert bx * bx + by * by > ax * ax + ay * ay
    hotspots = [Hotspot(position=points[k]) for k in order]
    assert_escape_matches((0.0, 0.0), 5.0, hotspots)
    field = FitnessField(hotspots, 3.0)
    dx, dy = escape_no_hotspot_zone((0.0, 0.0), field, 5.0, 5.0)
    assert dx > 4.0  # toward (11.2, 6.9)


def test_escape_takes_the_lowest_index_of_a_tie():
    hotspots = [Hotspot(position=(20.0, 0.0)), Hotspot(position=(0.0, 20.0)),
                Hotspot(position=(20.0, 0.0))]
    field = built(FitnessField, hotspots, [True, False, False], 3.0)
    assert escape_no_hotspot_zone((0.0, 0.0), field, 15.0, 5.0) == (0.0, 5.0)


def test_escape_with_an_empty_field_is_none():
    field = built(FitnessField, [Hotspot(position=(30.0, 30.0))], [True], 3.0)
    assert escape_no_hotspot_zone((0.0, 0.0), field, 15.0, 5.0) is None
    assert escape_no_hotspot_zone((0.0, 0.0), FitnessField([], 3.0), 15.0, 5.0) is None


# --- the nearest uncovered hotspot --------------------------------------------------


def ref_nearest(field, x, y, r):
    """The brute-force scan: min() over every uncovered hotspot's (d, id, hx, hy),
    or None if there is none or its d is at most r."""
    best = min(
        ((math.hypot(hx - x, hy - y), k, hx, hy) for k, hx, hy in field.points), default=None
    )
    return None if best is None or best[0] <= r else best


@st.composite
def nearest_scene(draw):
    """A query point, 1 to 40 hotspots (mirrored about it, on shared x, or
    anywhere) and their covered flags."""
    x, y = draw(coord), draw(coord)
    sign = st.sampled_from([1.0, -1.0])
    offset = st.sampled_from([0.0, 0.5, 3.0, 7.25, 12.0])
    hotspots, covered = [], []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(["mirrored", "shared_x", "anywhere"]))
        if kind == "mirrored":
            # Reflections of one offset tie in distance, up to rounding.
            hx, hy = x + draw(sign) * draw(offset), y + draw(sign) * draw(offset)
        elif kind == "shared_x":
            hx, hy = draw(st.sampled_from([x, x + 3.0, x - 3.0, 5.0])), draw(coord)
        else:
            hx, hy = draw(coord), draw(coord)
        hotspots.append(Hotspot(position=(hx, hy)))
        covered.append(draw(st.booleans()))
    return (x, y), hotspots, covered


@settings(max_examples=200, deadline=None)
@given(case=nearest_scene(), drop=st.lists(st.integers(0, 39), max_size=10))
def test_nearest_walk_matches_the_scan(case, drop):
    (x, y), hotspots, covered = case
    field = built(UncoveredHotspots, hotspots, covered)
    radii = [-math.inf, 0.0, 3.0, 7.25, 12.0]
    for r in radii:
        assert field.nearest(x, y, r) == ref_nearest(field, x, y, r)
    # A field that cover() shrank walks its filtered index.
    field.cover([k for k in drop if k < len(hotspots)])
    for r in radii:
        assert field.nearest(x, y, r) == ref_nearest(field, x, y, r)


@pytest.mark.parametrize("hx", [-4.0, 0.0, 2.0, 9.0])
def test_nearest_of_a_single_hotspot_on_either_side(hx):
    field = UncoveredHotspots([Hotspot(position=(hx, 1.0))])
    assert field.nearest(2.0, 5.0, -math.inf) == (math.hypot(hx - 2.0, -4.0), 0, hx, 1.0)
    field.cover([0])
    assert field.nearest(2.0, 5.0, -math.inf) is None


def test_nearest_takes_the_lowest_id_among_mirrored_ties():
    # Four reflections of one offset, and a duplicate x on each side.
    points = [(13.0, 6.0), (7.0, 14.0), (7.0, 6.0), (13.0, 14.0), (13.0, 10.0), (7.0, 10.0)]
    field = UncoveredHotspots([Hotspot(position=p) for p in points])
    assert field.nearest(10.0, 10.0, -math.inf) == (3.0, 4, 13.0, 10.0)
    field.cover([4])
    assert field.nearest(10.0, 10.0, -math.inf) == (3.0, 5, 7.0, 10.0)
    field.cover([5])
    assert field.nearest(10.0, 10.0, -math.inf) == (5.0, 0, 13.0, 6.0)


# --- the escape against the two queries it replaced --------------------------------


class TwoQueryIndex:
    """The x-sorted index's routines before nearest() took a radius, copied
    verbatim, over a field's current lists and flags.  The escape asked
    any_within() at its threshold and, when that found nothing, nearest();
    window() bounded within()'s scan beyond the cells."""

    def __init__(self, field):
        self._xs, self._by_x = field._xs, field._by_x
        self.covered, self.n_uncovered = field.covered, field.n_uncovered

    def window(self, x: float, r: float) -> list[tuple[int, float, float]]:
        """(id, hx, hy) of every uncovered hotspot with |hx - x| <= r, in x order.

        x - r and x + r round, so the bisected bounds may fall an ulp short
        of a hotspot whose own difference hx - x rounds into [-r, r]; the
        window is widened over such neighbours.  hx - x rounds monotonically
        in hx, so they sit next to the bounds.
        """
        xs = self._xs
        lo = bisect_left(xs, x - r)
        hi = bisect_right(xs, x + r, lo)
        while lo and abs(xs[lo - 1] - x) <= r:
            lo -= 1
        while hi < len(xs) and abs(xs[hi] - x) <= r:
            hi += 1
        near = self._by_x[lo:hi]
        if self.n_uncovered == len(xs):
            return near
        covered = self.covered
        return [point for point in near if not covered[point[0]]]

    def any_within(self, x: float, y: float, r: float) -> bool:
        """Whether within(x, y, r) would name some hotspot: its test on
        window()'s entries, stopping at the first hit.  The dead-ground
        escape asks this on every free agent, so the bounds are inline."""
        xs = self._xs
        lo = bisect_left(xs, x - r)
        hi = bisect_right(xs, x + r, lo)
        while lo and abs(xs[lo - 1] - x) <= r:
            lo -= 1
        while hi < len(xs) and abs(xs[hi] - x) <= r:
            hi += 1
        covered = self.covered
        for k, hx, hy in self._by_x[lo:hi]:
            if math.hypot(hx - x, hy - y) <= r and not covered[k]:
                return True
        return False

    def nearest(self, x: float, y: float) -> tuple[float, int, float, float] | None:
        """(d, id, hx, hy) of the uncovered hotspot nearest (x, y), or None if none is left.

        d is math.hypot(hx - x, hy - y), the least of all, and id the lowest
        among equal d: min() over every uncovered hotspot's (d, id, hx, hy).
        The walk goes outward from x through the x-sorted list, the side
        whose next |hx - x| is smaller first, skips covered entries and
        stops once that exceeds the best d: math.hypot(dx, dy) >= |dx| under
        faithful rounding, and |hx - x| only grows outward, so no hotspot
        beyond can be nearer or tie.
        """
        xs, by_x, covered = self._xs, self._by_x, self.covered
        hi = bisect_left(xs, x)
        lo = hi - 1
        best = None
        while lo >= 0 or hi < len(xs):
            if hi < len(xs) and (lo < 0 or xs[hi] - x <= x - xs[lo]):
                k, hx, hy = by_x[hi]
                hi += 1
            else:
                k, hx, hy = by_x[lo]
                lo -= 1
            if best is not None and abs(hx - x) > best[0]:
                break
            candidate = (math.hypot(hx - x, hy - y), k, hx, hy)
            if (best is None or candidate < best) and not covered[k]:
                best = candidate
        return best


def two_query_escape(position, field, threshold_radius, max_step_size):
    """The escape as a composition of the two queries, copied verbatim."""
    field = TwoQueryIndex(field)
    x, y = float(position[0]), float(position[1])
    if not field.n_uncovered or field.any_within(x, y, threshold_radius):
        return None
    d, _, hx, hy = field.nearest(x, y)
    return (hx - x) / d * max_step_size, (hy - y) / d * max_step_size


@st.composite
def escape_scene(draw):
    """A query point, 1 to 200 hotspots about it (anywhere, or at mirrored
    quarter-unit offsets, whose lengths tie), covered flags (all, about
    half or a few of them) and thresholds: 15, and the exact length of a
    drawn hotspot and of the nearest uncovered one, each with the floats
    either side of it."""
    quarter = st.integers(0, 160).map(lambda q: q / 4.0)
    sign = st.sampled_from([1.0, -1.0])
    x, y = draw(st.one_of(coord, quarter)), draw(st.one_of(coord, quarter))
    hotspots = []
    for _ in range(draw(st.one_of(st.sampled_from([1, 64, 65, 130, 200]), st.integers(1, 200)))):
        if draw(st.booleans()):
            hx, hy = draw(coord), draw(coord)
        else:
            a, b = draw(quarter), draw(quarter)
            if draw(st.booleans()):
                a, b = b, a
            hx, hy = x + draw(sign) * a, y + draw(sign) * b
        hotspots.append(Hotspot(position=(hx, hy)))
    # Past 64 hotspots, a field with at most half of them covered keeps the
    # covered entries in its x-sorted list, so the walk must skip them.
    n = len(hotspots)
    few = st.sampled_from([False, False, False, True])
    covered = draw(
        st.one_of(
            st.just([True] * n),
            st.lists(st.booleans(), min_size=n, max_size=n),
            st.lists(few, min_size=n, max_size=n),
        )
    )
    lengths = [math.hypot(hx - x, hy - y) for hx, hy in (hot.position for hot in hotspots)]
    chosen = [lengths[draw(st.integers(0, n - 1))]]
    chosen += [d for d, flag in sorted(zip(lengths, covered)) if not flag][:1]
    thresholds = [15.0]
    for d in chosen:
        thresholds += [d, math.nextafter(d, 0.0), math.nextafter(d, math.inf)]
    return (x, y), hotspots, covered, thresholds


@settings(max_examples=150, deadline=None)
@given(case=escape_scene(), held=st.booleans())
def test_escape_gives_the_bytes_of_the_two_query_composition(case, held):
    (x, y), hotspots, covered, thresholds = case
    if held:
        field = built(FitnessField, hotspots, covered, 3.0)
    else:
        field = built(UncoveredHotspots, hotspots, covered)
    index = TwoQueryIndex(field)
    for threshold in thresholds:
        got = escape_no_hotspot_zone((x, y), field, threshold, 5.0)
        want = two_query_escape((x, y), field, threshold, 5.0)
        assert bits(got) == bits(want)
        # any_within() was within()'s test on window()'s entries.
        window = index.window(x, threshold)
        assert index.any_within(x, y, threshold) == any(
            math.hypot(hx - x, hy - y) <= threshold for _, hx, hy in window
        )
