"""The step core on Python floats against the numpy code it replaced.

The proposers, the sampler and the harness bookkeeping compute on (x, y)
floats.  Each reference below is the earlier numpy formulation, kept
verbatim but for its norm (math.hypot's, the simulator's one), and each
test requires the float code to give the same bits and the same random
draws: the batched Gaussian draws of ``levy_step``, the ABC and PSO
proposers, the motion clamp, the dead-ground escape and coverage marking.
Every length test takes math.hypot's verdict, which ``TestNormAgainst``
pins where np.hypot's differs.  The run loop's hand-offs to the proposers
are pinned too: ABC's stored anchor values and the hybrid's scout draws.
Nectar shares divide by the fitnesses added left to right, not in np.sum's
order.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from levyswarm import constraints, harness
from levyswarm.constraints import (
    _violating_pairs,
    clamp_step,
    escape_no_hotspot_zone,
    settle_within,
)
from levyswarm.metrics import Heatmap
from levyswarm.optimizers import (
    FitnessField,
    StepProposal,
    _constrain_motion,
    _nearest_better_neighbor,
    abc_candidate,
    nectar_probabilities,
    propose_abc,
    propose_hybrid,
    propose_pso,
    roulette_pick,
)
from levyswarm.rng import (
    _MAX_COMPONENT,
    ParameterError,
    RandomSource,
    levy_step,
    mantegna_sigma,
)
from levyswarm.world import (
    GridConfig,
    Hotspot,
    ScenarioConfig,
    SwarmState,
    UavState,
    UncoveredHotspots,
    ValidationError,
    make_swarm,
    mark_coverage,
    preset_scenario,
)
from test_constraints_reference import (
    math_hypot,
    ref_clamp_boundary,
    ref_clamp_step,
    ref_settle_within,
)

finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


def nudge(value: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.inf if ulps > 0 else -math.inf)
    return value


def built(cls, hotspots, covered, *args, **kwargs):
    """cls (UncoveredHotspots or FitnessField) over hotspots, those flagged in
    covered covered through cover(): a field starts with none covered."""
    field = cls(hotspots, *args, **kwargs)
    field.cover([k for k, flag in enumerate(covered) if flag])
    return field


# --- one norm: every length test is math.hypot's --------------------------------


def length_verdicts(dx, dy, limit):
    """How each length test of the step core takes (dx, dy) against limit:
    clamp_step and settle_within leave it, within() and the escape's
    threshold find it, _violating_pairs lists it."""
    hotspots = [Hotspot(position=(dx, dy))]
    return [
        clamp_step(dx, dy, limit) == (dx, dy),
        settle_within(dx, dy, 0.0, 0.0, limit) == (dx, dy),
        UncoveredHotspots(hotspots).within(0.0, 0.0, limit) == [0],
        escape_no_hotspot_zone((0.0, 0.0), FitnessField(hotspots, 1.0), limit, 1.0) is None,
        _violating_pairs([(dx, dy), (0.0, 0.0)], limit)[0] != [],
    ]


def math_hypot_verdicts(dx, dy, limit):
    d = math.hypot(dx, dy)
    return [d <= limit] * 4 + [d < limit]


class TestNormAgainst:
    @settings(max_examples=400, deadline=None)
    @given(dx=finite, dy=finite, side=st.sampled_from(["np", "math"]), ulps=st.integers(-3, 3))
    def test_limit_within_ulps_of_either_norm(self, dx, dy, side, ulps):
        limit = nudge(float(np.hypot(dx, dy)) if side == "np" else math.hypot(dx, dy), ulps)
        assume(limit > 0.0)
        assert length_verdicts(dx, dy, limit) == math_hypot_verdicts(dx, dy, limit)

    @settings(max_examples=400, deadline=None)
    @given(
        limit=st.floats(min_value=1e-6, max_value=50.0),
        angle=st.floats(min_value=0.0, max_value=2.0 * math.pi),
        ulps=st.integers(-4, 4),
    )
    def test_points_placed_ulps_from_the_limit(self, limit, angle, ulps):
        d = nudge(limit, ulps)
        dx, dy = d * math.cos(angle), d * math.sin(angle)
        assert length_verdicts(dx, dy, limit) == math_hypot_verdicts(dx, dy, limit)

    @pytest.mark.parametrize("math_below", [True, False])
    def test_a_pair_the_two_norms_round_apart(self, math_below):
        # With the limit on either norm's value, only math.hypot's decides:
        # np.hypot at any of the tests would flip one verdict here.
        dy = 1.0 / 3.0
        for dx in np.linspace(0.1, 9.9, 4000).tolist():
            norm, fast = float(np.hypot(dx, dy)), math.hypot(dx, dy)
            if fast != norm and (fast < norm) == math_below:
                break
        else:
            pytest.skip("no rounding difference between the two norms on this platform")
        for limit in (norm, fast):
            assert length_verdicts(dx, dy, limit) == math_hypot_verdicts(dx, dy, limit)


# --- levy_step: one batched draw against four scalar draws ----------------------


def reference_levy_step(src, levy_weight, beta, normalized=True):
    """levy_step as it was: one standard_normal(1) call per Gaussian."""
    sigma = mantegna_sigma(beta)
    scale = levy_weight * (sigma if normalized else 1.0)
    out = np.empty(2)
    for axis in range(2):
        u = float(src.standard_normal(1)[0])
        v = float(src.standard_normal(1)[0])
        try:
            denominator = abs(v) ** (1.0 / beta)
        except OverflowError:
            denominator = math.inf
        step = scale * u / denominator if denominator > 0.0 else math.inf
        if not math.isfinite(step):
            step = math.copysign(_MAX_COMPONENT, u)
        out[axis] = min(max(step, -_MAX_COMPONENT), _MAX_COMPONENT)
    return out


class ScriptedNormals:
    """A source of scripted standard normals; ``left`` is what no call has read."""

    def __init__(self, values):
        self.left = list(values)

    def standard_normal(self, n):
        taken, self.left = self.left[:n], self.left[n:]
        return np.array(taken)


class TestBatchedLevyStep:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        stream=st.sampled_from([0, 1, 4, 7, 255]),
        weight=st.floats(min_value=1e-2, max_value=10.0),
        beta=st.sampled_from([0.3, 1.0, 1.5, 2.0]),
        normalized=st.booleans(),
        uniforms=st.lists(st.integers(0, 3), min_size=1, max_size=30),
    )
    def test_same_stream_as_scalar_draws(
        self, seed, stream, weight, beta, normalized, uniforms
    ):
        # Each round draws a step, then a few uniforms, as the hybrid's
        # onlooker gate does: both streams must stay in step throughout.
        ours, theirs = RandomSource(seed, stream), RandomSource(seed, stream)
        for count in uniforms:
            step = levy_step(ours, weight, beta, normalized)
            want = reference_levy_step(theirs, weight, beta, normalized)
            assert np.array(step).tobytes() == want.tobytes()
            for _ in range(count):
                assert ours.uniform(0.0, 1.0) == theirs.uniform(0.0, 1.0)

    # Scripted Gaussians that leave levy_step's fast path: (u1, v1, u2, v2,
    # then a value no step may read), a weight and a beta.
    SLOW_PATHS = {
        # v2 is subnormal and v1 is not: only the second axis saturates.
        "second_axis_near_zero": ([0.7, -1.3, 0.4, 1e-310, 9.0], 1.0, 1.0),
        # |v| ** (1/beta) underflows to a subnormal: the quotient overflows to inf.
        "quotient_overflows": ([1.0, 1e-160, -1.0, 0.5, 9.0], 1.0, 0.5),
        # A finite quotient beyond the 1e300 cap.
        "quotient_beyond_cap": ([1.0, 1e-151, 2.0, -0.5, 9.0], 1.0, 0.5),
        # |v| ** (1/beta) overflows (pow raises) or underflows to zero.
        "denominator_overflows": ([-0.5, 3.0, -0.5, 0.1, 9.0], 1.0, 1e-3),
    }

    @pytest.mark.parametrize("case", list(SLOW_PATHS))
    def test_slow_paths_match_scalar_draws(self, case):
        draws, weight, beta = self.SLOW_PATHS[case]
        ours, theirs = ScriptedNormals(draws), ScriptedNormals(draws)
        step = levy_step(ours, weight, beta)
        want = reference_levy_step(theirs, weight, beta)
        assert np.array(step).tobytes() == want.tobytes()
        assert ours.left == theirs.left == [9.0]

    def test_saturating_draws_continue_the_stream(self):
        # At beta = 1e-3 almost every |v| ** (1/beta) overflows or underflows,
        # so nearly every step saturates; each still reads four normals.
        ours, theirs = RandomSource(3, 0), RandomSource(3, 0)
        for _ in range(50):
            step = levy_step(ours, 1.0, 1e-3)
            assert np.array(step).tobytes() == reference_levy_step(theirs, 1.0, 1e-3).tobytes()
        assert ours.uniform(0.0, 1.0) == theirs.uniform(0.0, 1.0)

    def test_sigma_is_cached_and_still_validated(self):
        assert mantegna_sigma(1.5) == mantegna_sigma(1.5)
        for bad in (0.0, 2.5, math.nan):
            with pytest.raises(ParameterError):
                mantegna_sigma(bad)


# --- nectar shares: numpy's summation order ---------------------------------------


def left_to_right(values):
    total = 0.0
    for v in values:
        total += v
    return total


# Tenths as well as arbitrary floats: sums of tenths often round differently
# in the two orders.
nectar = st.one_of(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.integers(1, 9).map(lambda k: k / 10.0),
)


def left_to_right_shares(values):
    total = left_to_right(values)
    f = np.array(values)
    return (np.full(f.size, 1.0 / f.size) if total <= 0.0 else f / total).tobytes()


class TestNectarShares:
    def test_eight_values_where_the_orders_differ(self):
        rng = np.random.default_rng(5)
        found = 0
        for _ in range(200):
            values = (rng.integers(1, 10, 8) / 10.0).tolist()
            if left_to_right(values) != float(np.sum(values)):
                found += 1
                shares = nectar_probabilities(values)
                assert np.array(shares).tobytes() == left_to_right_shares(values)
        assert found > 0

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(nectar, min_size=8, max_size=8))
    def test_eight_agents(self, values):
        assert np.array(nectar_probabilities(values)).tobytes() == left_to_right_shares(values)
        # The fitness of eight covered hotspots on one point is the same sum.
        hotspots = [Hotspot(position=(5.0, 5.0), weight=w) for w in values]
        assert FitnessField(hotspots, 1.0).value((5.0, 5.0)) == left_to_right(values)

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(nectar, min_size=1, max_size=300))
    def test_any_swarm_size(self, values):
        # The cap on n_uavs is 256.
        assert np.array(nectar_probabilities(values)).tobytes() == left_to_right_shares(values)

    def test_zero_fitness_is_uniform_and_negatives_rejected(self):
        assert nectar_probabilities([0.0, -0.0, 0.0]) == [1.0 / 3.0] * 3
        with pytest.raises(ValidationError):
            nectar_probabilities([1.0, -0.5])
        with pytest.raises(ValidationError):
            nectar_probabilities([])


# --- motion clamp and dead-ground escape --------------------------------------------


def reference_constrain_motion(raw_target, anchor, config, report):
    """_constrain_motion as it was, on numpy arrays."""
    max_step = config.constraints.max_step_size
    raw_step = raw_target - anchor
    step = ref_clamp_step(raw_step, max_step)
    unbounded = anchor + step
    position = ref_clamp_boundary(unbounded, config.grid)
    if step.tolist() != raw_step.tolist():
        report.clamped_steps += 1
    if position.tolist() != unbounded.tolist():
        report.boundary_hits += 1
    return ref_settle_within(position, anchor, max_step)


grid_coord = st.one_of(st.floats(min_value=0.0, max_value=40.0), st.sampled_from([0.0, -0.0, 40.0]))
target_coord = st.one_of(
    st.floats(min_value=-60.0, max_value=100.0), st.sampled_from([0.0, -0.0, 40.0])
)


@settings(max_examples=400, deadline=None)
@given(
    anchor=st.tuples(grid_coord, grid_coord),
    target=st.tuples(target_coord, target_coord),
    max_step=st.sampled_from([0.5, 1.0, 5.0, 13.0]),
)
def test_constrain_motion_matches_numpy(anchor, target, max_step):
    config = ScenarioConfig(grid=GridConfig(40, 40))
    config.constraints.max_step_size = max_step
    ours, theirs = constraints.ConstraintReport(), constraints.ConstraintReport()
    got = _constrain_motion(target, anchor, config, ours)
    want = reference_constrain_motion(np.array(target), np.array(anchor), config, theirs)
    assert np.array(got).tobytes() == want.tobytes()
    assert ours == theirs
    # The motion budget, by the simulator's norm, and the grid.
    assert math.hypot(got[0] - anchor[0], got[1] - anchor[1]) <= max_step
    assert config.grid.contains(got)


def reference_escape(position, hotspots, covered, threshold_radius, max_step_size):
    """escape_no_hotspot_zone as it was, over the hotspot list and its covered flags."""
    position = np.asarray(position, dtype=float)
    uncovered = [h.position for h, flag in zip(hotspots, covered) if not flag]
    if not uncovered:
        return None
    deltas = np.asarray(uncovered) - position
    dists = math_hypot(deltas[:, 0], deltas[:, 1])
    nearest = int(np.argmin(dists))
    if dists[nearest] <= threshold_radius:
        return None
    return deltas[nearest] / dists[nearest] * max_step_size


# (hotspot, covered) pairs.
hotspot_list = st.lists(
    st.tuples(st.builds(Hotspot, position=st.tuples(grid_coord, grid_coord)), st.booleans()),
    min_size=1,
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(
    position=st.tuples(grid_coord, grid_coord),
    hotspots=hotspot_list,
    threshold=st.sampled_from([0.5, 5.0, 15.0]),
)
def test_escape_on_the_field_positions_matches_the_hotspot_list(position, hotspots, threshold):
    hotspots, covered = [h for h, _ in hotspots], [flag for _, flag in hotspots]
    field = built(FitnessField, hotspots, covered, 3.0)
    got = escape_no_hotspot_zone(list(position), field, threshold, 5.0)
    want = reference_escape(position, hotspots, covered, threshold, 5.0)
    if want is None:
        assert got is None
    else:
        assert np.array(got).tobytes() == want.tobytes()


# --- ABC and PSO: the numpy proposers ---------------------------------------------


def ref_nectar_probabilities(values):
    f = np.asarray(values, dtype=float)
    total = float(f.sum())
    return np.full(f.size, 1.0 / f.size) if total <= 0.0 else f / total


def ref_roulette_pick(src, probabilities):
    u = float(src.uniform(0.0, 1.0))
    cumulative = np.cumsum(probabilities)
    return min(int(np.searchsorted(cumulative, u, side="right")), len(probabilities) - 1)


def ref_abc_candidate(src, positions, i):
    n = len(positions)
    if n < 2:
        return positions[i].copy()
    k = int(src.integers(0, n - 1))
    if k >= i:
        k += 1
    phi = src.uniform(-1.0, 1.0, 2)
    return positions[i] + phi * (positions[i] - positions[k])


def ref_propose_abc(swarm, fitness, config, rngs):
    anchors = swarm.positions()
    anchor_xy = anchors.tolist()
    tentative = anchors.copy()
    proposal = StepProposal(positions=tentative)
    values = np.array([fitness.value(p) for p in tentative])

    for i in range(len(tentative)):
        raw = ref_abc_candidate(rngs[i], tentative, i)
        candidate = _constrain_motion(raw.tolist(), anchor_xy[i], config, proposal.report)
        candidate_value = fitness.value(candidate)
        if candidate_value > values[i]:
            tentative[i] = candidate
            values[i] = candidate_value

    probs = ref_nectar_probabilities(values)
    for slot in range(len(tentative)):
        s = ref_roulette_pick(rngs[slot], probs)
        raw = ref_abc_candidate(rngs[slot], tentative, s)
        candidate = _constrain_motion(raw.tolist(), anchor_xy[s], config, proposal.report)
        candidate_value = fitness.value(candidate)
        if candidate_value > values[s]:
            tentative[s] = candidate
            values[s] = candidate_value

    return proposal


def ref_propose_pso(swarm, fitness, config, rngs):
    pso = config.params.pso
    anchors = swarm.positions()
    anchor_xy = anchors.tolist()
    tentative = anchors.copy()
    proposal = StepProposal(positions=tentative)
    global_best = np.array(swarm.global_best_position, dtype=float)
    for i, uav in enumerate(swarm.uavs):
        position = np.array(uav.position, dtype=float)
        r1 = rngs[i].uniform(0.0, 1.0, 2)
        r2 = rngs[i].uniform(0.0, 1.0, 2)
        velocity = (
            pso.inertia * np.array(uav.velocity, dtype=float)
            + pso.cognitive * r1 * (np.array(uav.personal_best, dtype=float) - position)
            + pso.social * r2 * (global_best - position)
        )
        new_position = np.array(
            _constrain_motion((position + velocity).tolist(), anchor_xy[i], config, proposal.report)
        )
        uav.velocity = new_position - position
        tentative[i] = new_position
    return proposal


velocity_coord = st.one_of(st.floats(min_value=-30.0, max_value=30.0), st.sampled_from([0.0, -0.0]))


@st.composite
def baseline_steps(draw):
    """One ABC or PSO step: a swarm, its field, a config and per-agent seeds."""
    n = draw(st.integers(1, 8))
    point = st.tuples(grid_coord, grid_coord)
    spots = [
        (Hotspot(draw(point), draw(st.sampled_from([0.1, 0.3, 0.7, 1.0]))), draw(st.booleans()))
        for _ in range(draw(st.integers(1, 12)))
    ]
    config = ScenarioConfig(grid=GridConfig(40, 40), n_uavs=n)
    config.constraints.max_step_size = draw(st.sampled_from([0.5, 1.0, 5.0, 13.0]))
    fitness = built(
        FitnessField, [h for h, _ in spots], [flag for _, flag in spots],
        draw(st.sampled_from([3.0, 12.0])), draw(st.sampled_from([0.0, 0.01])),
    )
    agents = [
        (draw(point), draw(st.tuples(velocity_coord, velocity_coord)), draw(point))
        for _ in range(n)
    ]
    return config, fitness, agents, draw(point), draw(st.integers(0, 2**64 - 1))


def _baseline_swarm(agents, best):
    return SwarmState(
        [UavState(p, velocity=np.array(v), personal_best=np.array(b)) for p, v, b in agents],
        np.array(best),
    )


@settings(max_examples=300, deadline=None)
@given(step=baseline_steps(), pso=st.booleans())
def test_baseline_proposers_match_numpy(step, pso):
    config, fitness, agents, best, seed = step
    propose, reference = (propose_pso, ref_propose_pso) if pso else (propose_abc, ref_propose_abc)
    ours, theirs = _baseline_swarm(agents, best), _baseline_swarm(agents, best)
    ours_rngs = [RandomSource(seed, i) for i in range(len(agents))]
    theirs_rngs = [RandomSource(seed, i) for i in range(len(agents))]
    got = propose(ours, fitness, config, ours_rngs)
    want = reference(theirs, fitness, config, theirs_rngs)
    assert all(type(v) is float for point in got.positions for v in point)
    assert np.array(got.positions, dtype=float).tobytes() == want.positions.tobytes()
    assert got.report == want.report
    assert got.guided == want.guided
    assert got.scanning.tolist() == want.scanning.tolist()
    for a, b in zip(ours.uavs, theirs.uavs):
        velocities = [np.array(uav.velocity, dtype=float).tobytes() for uav in (a, b)]
        assert velocities[0] == velocities[1]
    # The same draws: every stream stands at the same word afterwards.
    assert [r.random_raw(2).tolist() for r in ours_rngs] == [
        r.random_raw(2).tolist() for r in theirs_rngs
    ]


@settings(max_examples=150, deadline=None)
@given(step=baseline_steps(), fresh=st.booleans())
def test_abc_takes_the_anchor_values_it_is_given(step, fresh):
    # When the run loop says the stored values are fresh, each uav.fitness
    # is the field's value where the agent stands; ABC then takes them and
    # does not score its anchors again.
    config, fitness, agents, best, seed = step
    n = len(agents)
    ours, theirs = _baseline_swarm(agents, best), _baseline_swarm(agents, best)
    for uav in ours.uavs:
        uav.fitness = fitness.value(uav.position)
    calls = {"ours": 0, "theirs": 0}
    value = FitnessField.value

    def counted(side):
        def count(self, position):
            calls[side] += 1
            return value(self, position)

        return count

    ours_rngs = [RandomSource(seed, i) for i in range(n)]
    theirs_rngs = [RandomSource(seed, i) for i in range(n)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FitnessField, "value", counted("ours"))
        got = propose_abc(ours, fitness, config, ours_rngs, fresh)
        patch.setattr(FitnessField, "value", counted("theirs"))
        want = ref_propose_abc(theirs, fitness, config, theirs_rngs)
    assert np.array(got.positions, dtype=float).tobytes() == want.positions.tobytes()
    assert got.report == want.report
    assert calls["ours"] == calls["theirs"] - (n if fresh else 0)
    assert [r.random_raw(2).tolist() for r in ours_rngs] == [
        r.random_raw(2).tolist() for r in theirs_rngs
    ]


@pytest.mark.parametrize("preset", ["uniform20", "twocluster20"])
def test_run_loop_hands_abc_only_values_of_the_field_in_use(preset):
    # The stored values go stale when a step, launch included, covers
    # something: the run loop must then not call them fresh, and ABC scores
    # its anchors again.
    propose = harness.propose_step
    given = []

    def checked(swarm, fitness, config, rngs, fresh=False):
        if fresh:
            assert [uav.fitness for uav in swarm.uavs] == [
                fitness.value(uav.position) for uav in swarm.uavs
            ]
        given.append(fresh)
        return propose(swarm, fitness, config, rngs, fresh)

    config = preset_scenario(preset, 2, algorithm="abc", max_steps=120)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "propose_step", checked)
        result = harness.run_scenario(config)
    # Values are fresh on every step but those after a covering step; the
    # launch values reach step 1.
    curve = [0] + [covered for _, covered in result.metrics.coverage_curve]
    assert given == [curve[s + 1] == curve[s] for s in range(len(given))]
    assert given[0] and False in given


def test_hybrid_scouts_an_agent_at_the_stagnation_limit():
    # The scout reset is the hybrid proposer's first act: an agent with no
    # relocation pending whose stagnation count reached the limit commits
    # to a waypoint drawn from the first two uniforms of its stream.
    config = preset_scenario("uniform20", 3, n_uavs=2)
    limit = config.params.stagnation_limit

    def propose(stagnation):
        swarm = make_swarm(config)
        for uav, count in zip(swarm.uavs, stagnation):
            uav.stagnation = count
        rngs = [RandomSource(config.seed, i) for i in range(config.n_uavs)]
        fitness = FitnessField.from_config(config.hotspots, config)
        return swarm, rngs, propose_hybrid(swarm, fitness, config, rngs)

    swarm, rngs, proposal = propose([limit, limit - 1])
    copy = RandomSource(config.seed, 0)
    target = (
        copy.uniform(0.0, 1.0) * config.grid.width,
        copy.uniform(0.0, 1.0) * config.grid.height,
    )
    scout = swarm.uavs[0]
    assert scout.stagnation == 0
    # The target lies more than one step away, so the scout flies dark.
    sx, sy = config.start_position
    assert math.hypot(target[0] - sx, target[1] - sy) > config.constraints.max_step_size
    assert scout.transit_target == target
    assert proposal.guided[0] and not proposal.scanning[0]
    # One below the limit, an agent moves and draws as one that never stagnated.
    assert swarm.uavs[1].stagnation == limit - 1
    other, other_rngs, unstuck = propose([limit, 0])
    assert proposal.positions == unstuck.positions
    assert swarm.uavs[1].transit_target == other.uavs[1].transit_target
    assert rngs[1].random_raw(2).tolist() == other_rngs[1].random_raw(2).tolist()


class FixedUniform:
    """A source whose uniform draw is a given value."""

    def __init__(self, value):
        self.value = value

    def uniform(self, low, high, size=None):
        return self.value


@settings(max_examples=300, deadline=None)
@given(
    probabilities=st.one_of(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=9),
        st.lists(nectar, min_size=1, max_size=9).map(nectar_probabilities),
    ),
    u=st.one_of(st.floats(min_value=0.0, max_value=1.0, exclude_max=True), st.just(0.0)),
)
def test_roulette_pick_matches_numpy(probabilities, u):
    # A draw on a running sum, between two, or beyond the total.
    draws = [u] + [math.fsum(probabilities[: k + 1]) for k in range(len(probabilities))]
    for draw in draws:
        ours, theirs = FixedUniform(draw), FixedUniform(draw)
        assert roulette_pick(ours, probabilities) == ref_roulette_pick(theirs, probabilities)


@settings(max_examples=300, deadline=None)
@given(
    points=st.lists(st.tuples(target_coord, target_coord), min_size=1, max_size=8),
    seed=st.integers(0, 2**64 - 1),
    data=st.data(),
)
def test_abc_candidate_matches_numpy(points, seed, data):
    i = data.draw(st.integers(0, len(points) - 1))
    ours, theirs = RandomSource(seed, 0), RandomSource(seed, 0)
    got = abc_candidate(ours, points, i)
    want = ref_abc_candidate(theirs, np.array(points), i)
    assert np.array(got).tobytes() == want.tobytes()
    assert ours.random_raw(1).tolist() == theirs.random_raw(1).tolist()


def ref_nearest_better_neighbor(positions, values, i):
    values = np.asarray(values)
    better = np.flatnonzero(values > values[i])
    if better.size == 0:
        return None
    deltas = np.asarray(positions)[better] - positions[i]
    return int(better[np.argmin(math_hypot(deltas[:, 0], deltas[:, 1]))])


@settings(max_examples=300, deadline=None)
@given(
    agents=st.lists(
        st.tuples(grid_coord, grid_coord, st.sampled_from([0.0, 0.5, 1.0, 2.0])),
        min_size=1,
        max_size=8,
    ),
    data=st.data(),
)
def test_nearest_better_neighbor_matches_numpy(agents, data):
    # Few distinct values, so ties in value and repeated positions are common.
    positions = [(x, y) for x, y, _ in agents]
    values = [v for _, _, v in agents]
    i = data.draw(st.integers(0, len(agents) - 1))
    want = ref_nearest_better_neighbor(np.array(positions), values, i)
    assert _nearest_better_neighbor(positions, values, i) == want


def test_nearest_better_neighbor_ranks_by_math_hypot():
    # Agent 2's math.hypot distance is an ulp below its np.hypot one, and
    # agent 1 sits on the x axis at the np.hypot value: by math.hypot agent 2
    # is strictly nearer, by np.hypot the two tie and agent 1 would win.
    dy = 1.0 / 3.0
    for dx in np.linspace(0.1, 9.9, 4000).tolist():
        if math.hypot(dx, dy) < float(np.hypot(dx, dy)):
            break
    else:
        pytest.skip("no rounding difference between the two norms on this platform")
    positions = [(0.0, 0.0), (float(np.hypot(dx, dy)), 0.0), (dx, dy)]
    values = [0.0, 1.0, 1.0]
    assert ref_nearest_better_neighbor(np.array(positions), values, 0) == 2
    assert _nearest_better_neighbor(positions, values, 0) == 2


# --- coverage marking and the heatmap --------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    agents=st.lists(st.tuples(grid_coord, grid_coord), min_size=1, max_size=8),
    hotspots=hotspot_list,
    scan=st.lists(st.booleans(), min_size=8, max_size=8),
)
def test_mark_coverage_with_held_arrays(agents, hotspots, scan):
    # The run loop's hits, one within() query per scanning agent on the
    # FitnessField it holds, mark what math.hypot's rule marks.
    hotspots, covered = [h for h, _ in hotspots], [flag for _, flag in hotspots]
    swarm = SwarmState([UavState(position=p) for p in agents], np.zeros(2))
    scanning = scan[: len(agents)]
    expected = [
        k
        for k, hot in enumerate(hotspots)
        if not covered[k]
        and any(
            math.hypot(hot.position[0] - x, hot.position[1] - y) <= 3.0
            for (x, y), active in zip(agents, scanning)
            if active
        )
    ]
    field = built(FitnessField, hotspots, covered, 3.0)
    hits = set()
    for (x, y), active in zip(agents, scanning):
        if active:
            hits.update(field.within(x, y, 3.0))
    assert mark_coverage(swarm, field, hits) == expected
    assert all(field.covered[k] for k in expected)
    assert swarm.covered_count == sum(field.covered)


def ref_shaping_operands(field):
    """The shaping arrays as they were built from the uncovered list on every cover()."""
    xy = np.array([(x, y) for _, x, y in field.points], dtype=float).reshape(-1, 2)
    weights = np.array([field.weights[k] for k, _, _ in field.points], dtype=float)
    return xy, weights


@settings(max_examples=200, deadline=None)
@given(
    spots=st.lists(
        st.tuples(grid_coord, grid_coord, st.sampled_from([0.1, 0.3, 1.0, 2.5])),
        min_size=1, max_size=30,
    ),
    data=st.data(),
)
def test_shaping_arrays_from_the_mask_match_the_list_built_ones(spots, data):
    # The field masks rows of arrays built once; after every cover() in a
    # random sequence (repeats, already covered ids, empty calls, a generator)
    # they hold the bytes a rebuild from the uncovered list gives, and so
    # does the shaped value.
    hotspots = [Hotspot((x, y), w) for x, y, w in spots]
    field = FitnessField(hotspots, 3.0, epsilon=0.01)
    ids = st.lists(st.integers(0, len(hotspots) - 1), max_size=6)
    for covering in data.draw(st.lists(ids, min_size=1, max_size=8)):
        field.cover(iter(covering) if len(covering) % 2 else covering)
        xy, weights = ref_shaping_operands(field)
        for got, want in ((field._xy, xy), (field._weight_array, weights)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        x, y = data.draw(st.tuples(grid_coord, grid_coord))
        d = np.hypot(xy[:, 0] - x, xy[:, 1] - y)
        plain = FitnessField(hotspots, 3.0).value((x, y), field.within(x, y, 3.0))
        assert field.value((x, y)) == plain + 0.01 * float(np.sum(weights / (1.0 + d)))


@pytest.mark.parametrize("as_list", [True, False])
def test_heatmap_with_an_out_of_domain_point_counts_nothing(as_list):
    heatmap = Heatmap(width=10, height=10)
    points = [[1.0, 1.0], [5.5, 2.0], [10.5, 3.0], [4.0, 4.0]]
    with pytest.raises(ValidationError, match="outside the heatmap domain"):
        heatmap.record(points if as_list else np.array(points))
    assert heatmap.total() == 0
    heatmap.record(points[:2] if as_list else np.array(points[:2]))
    assert heatmap.total() == 2 and heatmap.counts[2, 5] == 1
