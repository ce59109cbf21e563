"""The coverage index against brute force.

``UncoveredHotspots`` answers ``within()`` from square cells of side just
above its radius, and covers lazily: cover() sets flags and lowers a count,
every query skips covered entries, and the lists are filtered only once
enough of their entries are covered.  Here the indexed ``within()`` must
equal a math.hypot scan of the uncovered hotspots in list order, for any
query radius, ``nearest`` must equal a brute-force scan, and ``nearest``,
``points`` and the dead-ground escape must answer as a field built fresh on
the hotspots left, after every step of a cover() sequence that runs past the
filtering points.

The draws aim at the index's edges: hotspots and query points on cell
boundaries (multiples of the side) and an ulp either side of them,
hotspots exactly the radius from a query point and an ulp either side,
index radii from 1e-6 to beyond the grid, where a 256th of the layout's
extent sets the side, and grids up to 1024 x 1024.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from levyswarm.constraints import escape_no_hotspot_zone
from levyswarm.optimizers import FitnessField
from levyswarm.world import Hotspot, UncoveredHotspots

from test_float_step import nudge


def scan(positions, covered, x, y, r) -> list[int]:
    """Ids of the uncovered hotspots within r of (x, y), in list order, by brute force."""
    return [
        k
        for k, (hx, hy) in enumerate(positions)
        if not covered[k] and math.hypot(hx - x, hy - y) <= r
    ]


def scan_nearest(positions, covered, x, y, r):
    """nearest(x, y, r) by brute force: None when no uncovered hotspot is left
    or one lies within r, else the least (d, id, hx, hy) of the uncovered."""
    best = min(
        (
            (math.hypot(hx - x, hy - y), k, hx, hy)
            for k, (hx, hy) in enumerate(positions)
            if not covered[k]
        ),
        default=None,
    )
    return None if best is None or best[0] <= r else best


def side_of(radius, size) -> float:
    """The side of the cells of a layout that spans [0, size] in both axes."""
    return max(radius, size / 256) * (1.0 + 2.0**-20)


def bits(value) -> bytes:
    return None if value is None else np.array(value, dtype=float).tobytes()


# --- draws ------------------------------------------------------------------------

sizes = st.one_of(st.sampled_from([1, 7, 100, 1024]), st.integers(1, 1024))
radii = st.one_of(
    st.sampled_from([1e-6, 0.5, 3.0, 15.0, 1024.0, 5000.0]),
    st.floats(min_value=1e-6, max_value=2048.0),
)
ulps = st.integers(-2, 2)


@st.composite
def coordinate(draw, size, side):
    """A coordinate in [0, size]: anywhere, or on a cell boundary give or take an ulp."""
    if draw(st.booleans()):
        return draw(st.floats(min_value=0.0, max_value=float(size)))
    boundary = draw(st.integers(0, int(size / side))) * side
    return min(max(nudge(boundary, draw(ulps)), 0.0), float(size))


@st.composite
def layout(draw, max_spots=150):
    """(size, radius, positions, queries): hotspots on a size x size grid and
    query points, some of them a radius from a hotspot give or take an ulp.
    Hotspots at (0, 0) and (size, size) fix the layout's extent, so the
    boundary draws use the side the index gets, side_of(radius, size),
    unless a hotspot placed on a query's rim lies off the grid."""
    size, radius = draw(sizes), draw(radii)
    side = side_of(radius, size)
    point = st.tuples(coordinate(size, side), coordinate(size, side))
    positions = [(0.0, 0.0), (float(size), float(size))]
    # Past 64 hotspots the x-sorted lists, too, keep covered entries for a while.
    n = draw(st.one_of(st.sampled_from([0, 70, max_spots]), st.integers(0, max_spots)))
    positions += draw(st.lists(point, min_size=min(n, max_spots), max_size=min(n, max_spots)))
    queries = draw(st.lists(point, min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 4))):
        hx, hy = draw(st.sampled_from(positions))
        offset = nudge(radius, draw(ulps)) * draw(st.sampled_from([1.0, -1.0]))
        if draw(st.booleans()):
            queries.append((hx + offset, hy))
        else:
            queries.append((hx, hy + offset))
    if draw(st.booleans()):
        # A hotspot exactly on a query's rim, on an axis or a 3-4-5 diagonal.
        x, y = draw(st.sampled_from(queries))
        d = nudge(radius, draw(ulps))
        rims = [(x + d, y), (x, y - d), (x + 0.6 * d, y + 0.8 * d)]
        positions.append(draw(st.sampled_from(rims)))
    return size, radius, positions, queries


def query_radii(radius, size):
    """The index radius, an ulp either side, a tenth of it and radii beyond the cells."""
    beyond = side_of(radius, size) * 2
    return [radius, nudge(radius, 1), nudge(radius, -1), radius / 10, beyond, 15.0]


def hotspots_at(positions):
    return [Hotspot(position=p) for p in positions]


# --- within() against the scan --------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(case=layout())
def test_within_matches_the_scan(case):
    size, radius, positions, queries = case
    field = UncoveredHotspots(hotspots_at(positions), radius)
    covered = [False] * len(positions)
    for x, y in queries:
        for r in query_radii(radius, size):
            assert field.within(x, y, r) == scan(positions, covered, x, y, r)


@settings(max_examples=100, deadline=None)
@given(case=layout(max_spots=20), far=st.sampled_from([-1e300, -2048.0, 4096.0, 1e300]))
def test_queries_far_from_the_layout_find_nothing(case, far):
    # Such a query's cell key may name a listed cell on another row, or be
    # inexact, infinite or nan; the math.hypot test still decides.
    size, radius, positions, _ = case
    field = UncoveredHotspots(hotspots_at(positions), radius)
    covered = [False] * len(positions)
    for x, y in [(far, 0.0), (0.0, far), (far, far), (math.nan, 1.0), (math.inf, 1.0)]:
        assert field.within(x, y, radius) == scan(positions, covered, x, y, radius)


def test_a_tiny_radius_caps_the_cells_at_256_a_side():
    # Cells of side 1e-6 would number about 10**9 a side on a 1024 grid; the
    # cap of 256 a side makes the side 4 (and a hair).
    rng = np.random.default_rng(0)
    positions = [(0.0, 0.0), (1024.0, 1024.0)] + rng.uniform(0.0, 1024.0, (2000, 2)).tolist()
    field = UncoveredHotspots(hotspots_at(positions), 1e-6)
    assert field._grid[1] == side_of(1e-6, 1024) == 4.0 * (1.0 + 2.0**-20)
    covered = [False] * len(positions)
    for x, y in rng.uniform(0.0, 1024.0, (200, 2)).tolist():
        for r in (1e-6, 2.0, 4.0, 9.0):
            assert field.within(x, y, r) == scan(positions, covered, x, y, r)


# --- lazy covering against a fresh build ------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    case=layout(),
    order=st.randoms(use_true_random=False),
    chunks=st.lists(st.integers(1, 40), min_size=1, max_size=12),
    epsilon=st.sampled_from([0.0, 0.01]),
)
def test_cover_sequence_answers_as_a_fresh_build(case, order, chunks, epsilon):
    # Every hotspot is covered in the end, in random chunks, so the sequence
    # runs past every filtering point: the short-list one, each halving, and
    # the empty field.
    size, radius, positions, queries = case
    hotspots = hotspots_at(positions)
    field = FitnessField(hotspots, radius, epsilon)
    ids = list(range(len(positions)))
    order.shuffle(ids)
    steps = []
    while ids:
        take = chunks[len(steps) % len(chunks)]
        steps.append(ids[:take])
        ids = ids[take:]
    for step in steps:
        field.cover(step + step[:1])  # a repeated id covers once
        left = [k for k, flag in enumerate(field.covered) if not flag]
        assert field.n_uncovered == len(left)
        fresh = FitnessField([hotspots[k] for k in left], radius, epsilon)

        def mapped(points):
            return [(left[j], hx, hy) for j, hx, hy in points]

        assert field.points == mapped(fresh.points)
        for x, y in queries:
            for r in query_radii(radius, size):
                assert field.within(x, y, r) == scan(positions, field.covered, x, y, r)
                assert field.nearest(x, y, r) == scan_nearest(positions, field.covered, x, y, r)
            want = fresh.nearest(x, y, -math.inf)
            if want is not None:
                d, j, hx, hy = want
                want = (d, left[j], hx, hy)
            assert field.nearest(x, y, -math.inf) == want
            assert bits(field.value((x, y))) == bits(fresh.value((x, y)))
            for threshold in (radius, 15.0):
                got = escape_no_hotspot_zone((x, y), field, threshold, 5.0)
                assert bits(got) == bits(escape_no_hotspot_zone((x, y), fresh, threshold, 5.0))
    assert field.n_uncovered == 0 and field.points == []


def test_covering_a_large_layout_filters_the_lists_by_halves():
    # 1 000 hotspots, covered 50 at a time: the lists keep covered entries
    # until more than half of them are covered, and every query skips them.
    rng = np.random.default_rng(3)
    positions = rng.uniform(0.0, 100.0, (1000, 2)).tolist()
    field = FitnessField(hotspots_at(positions), 3.0)
    probes = rng.uniform(0.0, 100.0, (50, 2)).tolist()
    listed = []
    for start in range(0, 1000, 50):
        field.cover(range(start, start + 50))
        listed.append(len(field._points))
        for x, y in probes:
            assert field.within(x, y, 3.0) == scan(positions, field.covered, x, y, 3.0)
            for r in (-math.inf, 3.0, 15.0):
                assert field.nearest(x, y, r) == scan_nearest(positions, field.covered, x, y, r)
    # Half covered is not more than half: the 550th covered hotspot filters
    # the lists, then the 800th (of 450 listed) and the 950th (of 200).
    assert listed[:10] == [1000] * 10
    assert listed[10:16] == [450] * 5 + [200]
    assert listed[-1] == 0
