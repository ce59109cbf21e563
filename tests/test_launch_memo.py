"""The memoized launch spread against a direct resolver call, bit for bit.

``harness._launch`` spreads ``n_uavs`` agents from their start point once
per process for each ``(start, n_uavs, grid, collision_radius)``, keyed by
the exact bits of the start and the radius.  Each case here compares the
cached result, on the miss and on the hit, with a direct unbounded
``resolve_collisions`` call: the positions by ``float.hex`` (so the sign of
a zero counts), the count of agents moved and the smallest pair distance.
"""

from __future__ import annotations

import math

import pytest

from levyswarm import harness
from levyswarm.constraints import ConstraintError, _violating_pairs, resolve_collisions
from levyswarm.harness import _launch, run_scenario
from levyswarm.world import ConstraintParams, GridConfig, preset_scenario
from test_fingerprint import RECORDS, fingerprint

GRID = GridConfig()


@pytest.fixture(autouse=True)
def empty_cache():
    _launch.cache_clear()
    yield
    _launch.cache_clear()


def launch(start, n_uavs, radius, grid=GRID):
    x, y = start
    return _launch((x.hex(), y.hex()), n_uavs, grid, radius.hex())


def direct(start, n_uavs, radius, grid=GRID):
    spread, touched, _ = resolve_collisions([start] * n_uavs, grid, radius)
    return spread, int(touched.sum()), _violating_pairs(spread, 0.0)[1]


def bits(launched):
    spread, touched, smallest = launched
    return [(x.hex(), y.hex()) for x, y in spread], touched, smallest.hex()


def digests(result):
    return fingerprint(result), *(record(result) for record in RECORDS.values())


@pytest.mark.parametrize("radius", [0.5, 1.0, 2.5])
@pytest.mark.parametrize("start", [(50.0, 0.0), (50.0, 50.0), (0.0, 0.0), (100.0, 100.0)])
@pytest.mark.parametrize("n_uavs", range(1, 9))
def test_the_memoized_launch_is_the_direct_spread(n_uavs, start, radius):
    want = bits(direct(start, n_uavs, radius))
    assert bits(launch(start, n_uavs, radius)) == want
    assert bits(launch(start, n_uavs, radius)) == want
    assert _launch.cache_info().hits == 1


@pytest.mark.parametrize("n_uavs", [1, 2])
def test_negative_zero_start_is_its_own_key(n_uavs):
    # -0.0 == 0.0 with equal hashes, but each launch keeps its own sign.
    positive, negative = (0.0, 50.0), (-0.0, 50.0)
    assert bits(launch(positive, n_uavs, 1.0)) == bits(direct(positive, n_uavs, 1.0))
    launched = launch(negative, n_uavs, 1.0)
    assert bits(launched) == bits(direct(negative, n_uavs, 1.0))
    assert math.copysign(1.0, launched[0][-1][0]) == -1.0
    assert _launch.cache_info().misses == 2

    for start in (positive, negative):
        config = preset_scenario(
            "uniform20", seed=0, n_uavs=n_uavs, start_position=start, max_steps=5
        )
        frame = run_scenario(config, record_trajectories=True).trajectories[0]
        assert [(x.hex(), y.hex()) for x, y in frame.tolist()] == bits(
            direct(start, n_uavs, 1.0)
        )[0]


def counted_launches(monkeypatch):
    """Patch harness.resolve_collisions to count its unbounded (launch) calls."""
    calls = []

    def counted(positions, grid, collision_radius, anchors=None, **kwargs):
        if anchors is None:
            calls.append(len(positions))
        return resolve_collisions(positions, grid, collision_radius, anchors, **kwargs)

    monkeypatch.setattr(harness, "resolve_collisions", counted)
    return calls


@pytest.mark.parametrize("algorithm", ["hybrid-abc-levy", "pso"])
def test_a_second_run_skips_the_spread_and_keeps_every_byte(monkeypatch, algorithm):
    calls = counted_launches(monkeypatch)
    config = preset_scenario("twocluster20", seed=3, n_uavs=8, algorithm=algorithm, max_steps=60)
    first = run_scenario(config, record_trajectories=True)
    assert calls == [8]
    second = run_scenario(config, record_trajectories=True)
    assert calls == [8]
    assert second.metrics.collision_interventions == first.metrics.collision_interventions > 0
    assert digests(second) == digests(first)


def test_what_a_run_returns_cannot_change_a_later_launch():
    spread, _, _ = launch((50.0, 0.0), 5, 1.0)
    assert isinstance(spread, tuple) and all(type(point) is tuple for point in spread)
    config = preset_scenario("uniform20", seed=1, max_steps=20)
    first = run_scenario(config, record_trajectories=True)
    want = digests(first)
    first.trajectories[0] = -1.0
    for uav in first.swarm.uavs:
        uav.position = (-1.0, -1.0)
    assert launch((50.0, 0.0), 5, 1.0)[0] == spread
    assert digests(run_scenario(config, record_trajectories=True)) == want


def test_a_failed_spread_is_not_cached(monkeypatch):
    calls = counted_launches(monkeypatch)
    config = preset_scenario("uniform20", seed=0, n_uavs=9, max_steps=5)
    for _ in range(2):
        with pytest.raises(ConstraintError):
            run_scenario(config)
    assert calls == [9, 9]
    assert _launch.cache_info().currsize == 0


def test_the_radius_is_keyed_by_its_bits():
    # Two radii an ulp apart are two geometries.
    radius = 1.0
    above = math.nextafter(radius, math.inf)
    assert bits(launch((50.0, 0.0), 3, radius)) == bits(direct((50.0, 0.0), 3, radius))
    assert bits(launch((50.0, 0.0), 3, above)) == bits(direct((50.0, 0.0), 3, above))
    assert _launch.cache_info().misses == 2


def test_an_int_radius_launches_as_its_float(monkeypatch):
    calls = counted_launches(monkeypatch)
    config = preset_scenario("uniform20", seed=0, max_steps=5)
    as_int = preset_scenario(
        "uniform20", seed=0, max_steps=5, constraints=ConstraintParams(collision_radius=1)
    )
    assert digests(run_scenario(as_int, True)) == digests(run_scenario(config, True))
    assert calls == [5]
