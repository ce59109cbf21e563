"""Optimizer moves: fitness field, selection helpers, ABC/PSO baselines, hybrid."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyswarm.optimizers import (
    FitnessField,
    StepProposal,
    _median,
    _nearest_better_neighbor,
    abc_candidate,
    adaptive_levy_probability,
    nectar_probabilities,
    propose_abc,
    propose_hybrid,
    propose_pso,
    propose_step,
    roulette_pick,
)
from levyswarm.rng import RandomSource
from levyswarm.world import (
    Hotspot,
    ScenarioConfig,
    SwarmState,
    UavState,
    ValidationError,
    make_swarm,
    preset_scenario,
)


def hs(x, y, weight=1.0):
    return Hotspot(position=np.array([x, y], dtype=float), weight=weight)


def make_config(hotspots, algorithm="hybrid", **overrides):
    config = ScenarioConfig(hotspots=hotspots, algorithm=algorithm, **overrides)
    config.validate()
    return config


class ScriptedSource:
    """Drop-in RandomSource stand-in popping pre-scripted draws.

    ``uniforms`` hold unit-interval values mapped to [low, high);
    ``normals`` are raw standard-normal outputs; ``ints`` are raw integers.
    Exhausting a queue raises IndexError, so a test fails loudly if the
    code under test draws more (or other) randomness than scripted.
    """

    def __init__(self, normals=(), uniforms=(), ints=()):
        self.normals = list(normals)
        self.uniforms = list(uniforms)
        self.ints = list(ints)

    def standard_normal(self, n):
        return np.array([self.normals.pop(0) for _ in range(int(n))])

    def uniform(self, low, high, size=None):
        if size is None:
            return low + (high - low) * self.uniforms.pop(0)
        count = int(np.prod(size))
        vals = [low + (high - low) * self.uniforms.pop(0) for _ in range(count)]
        return np.array(vals).reshape(size if isinstance(size, tuple) else (size,))

    def integers(self, low, high):
        v = self.ints.pop(0)
        assert low <= v < high
        return v


def zero_flight():
    """Normal draws making one levy_step return the zero vector."""
    return [0.0, 1.0, 0.0, 1.0]


def flight(dx, dy, weight=3.0):
    """Normal draws making one levy_step at beta=1 return (dx, dy) exactly.

    With beta = 1 the per-axis step is weight * u / |v|; u = delta, v = weight
    gives weight * delta / weight = delta bit-exactly.
    """
    return [dx, weight, dy, weight]


class TestFitnessField:
    HOTSPOTS = [
        hs(10.0, 10.0, weight=1.0),
        hs(12.0, 10.0, weight=2.5),
        hs(30.0, 30.0, weight=1.0),
        hs(11.0, 12.0, weight=0.5),
    ]
    COVERED = [2]

    @given(
        px=st.floats(min_value=0.0, max_value=40.0),
        py=st.floats(min_value=0.0, max_value=40.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_direct_weighted_sum(self, px, py):
        field = FitnessField(self.HOTSPOTS, coverage_radius=3.0)
        field.cover(self.COVERED)
        expected = sum(
            h.weight
            for k, h in enumerate(self.HOTSPOTS)
            if k not in self.COVERED and math.hypot(h.position[0] - px, h.position[1] - py) <= 3.0
        )
        assert field.value([px, py]) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_covered_hotspots_contribute_nothing(self):
        field = FitnessField([hs(5.0, 5.0)], 3.0)
        field.cover([0])
        assert field.value([5.0, 5.0]) == 0.0

    def test_all_covered_field_is_identically_zero(self):
        field = FitnessField([hs(5.0, 5.0)], 3.0, epsilon=0.01)
        field.cover([0])
        assert field.value([5.0, 5.0]) == 0.0

    def test_radius_boundary_inclusive(self):
        field = FitnessField([hs(3.0, 0.0)], 3.0)
        assert field.value([0.0, 0.0]) == 1.0

    def test_shaping_adds_proximity_term(self):
        field = FitnessField([hs(0.0, 0.0)], 3.0, epsilon=0.01)
        d = 10.0
        assert field.value([d, 0.0]) == pytest.approx(0.01 * 1.0 / (1.0 + d), rel=1e-12)
        plain = FitnessField([hs(0.0, 0.0)], 3.0)
        assert plain.value([d, 0.0]) == 0.0

    def test_from_config_wires_radius_and_shaping(self):
        config = make_config([hs(1.0, 1.0)])
        config.constraints.coverage_radius = 7.0
        field = FitnessField.from_config(config.hotspots, config)
        assert field.coverage_radius == 7.0
        assert field.epsilon == 0.0
        config.params.shaping_epsilon = 0.001
        assert FitnessField.from_config(config.hotspots, config).epsilon == 0.001

    def test_shaping_off_builds_no_shaping_arrays(self, monkeypatch):
        # Only value() with epsilon above 0 reads them; at 10 000 hotspots
        # the rebuild on every cover() once took most of a run.
        def refuse(self):
            raise AssertionError("shaping arrays built with epsilon 0")

        monkeypatch.setattr(FitnessField, "_shaping_operands", refuse)
        field = FitnessField(self.HOTSPOTS, coverage_radius=3.0)
        assert field.value([10.0, 10.0]) == 4.0
        field.cover(field.within(10.0, 10.0, 3.0))
        assert field.value([10.0, 10.0]) == 0.0


class TestSelectionHelpers:
    def test_nectar_proportional(self):
        probs = nectar_probabilities([1.0, 3.0])
        assert np.allclose(probs, [0.25, 0.75], rtol=0.0, atol=1e-12)

    def test_nectar_uniform_when_all_zero(self):
        assert np.array_equal(nectar_probabilities([0.0, 0.0, 0.0, 0.0]), np.full(4, 0.25))

    def test_nectar_rejects_empty_and_negative(self):
        with pytest.raises(ValidationError):
            nectar_probabilities([])
        with pytest.raises(ValidationError):
            nectar_probabilities([1.0, -0.5])

    def test_nectar_converts_every_value_before_checking_signs(self):
        # A value float() rejects raises its own error even after a negative one.
        with pytest.raises(ValueError, match="could not convert"):
            nectar_probabilities([-1.0, "x"])

    @given(
        values=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=8)
    )
    @settings(max_examples=80, deadline=None)
    def test_nectar_is_a_distribution(self, values):
        probs = nectar_probabilities(values)
        assert len(probs) == len(values)
        assert all(p >= 0.0 for p in probs)
        assert math.fsum(probs) == pytest.approx(1.0, rel=1e-9)

    def test_adaptive_gate_half_at_equality(self):
        assert adaptive_levy_probability(2.0, 2.0, 1.0) == 0.5

    def test_adaptive_gate_monotone_and_sensitivity(self):
        lo = adaptive_levy_probability(1.0, 2.0, 1.0)
        hi = adaptive_levy_probability(3.0, 2.0, 1.0)
        assert lo < 0.5 < hi
        assert adaptive_levy_probability(3.0, 2.0, 5.0) > hi
        assert adaptive_levy_probability(1.0, 2.0, 1.0) == pytest.approx(
            1.0 / (1.0 + math.exp(1.0)), rel=1e-12
        )

    @pytest.mark.parametrize("sensitivity", [710.0, 1000.0, 1e308])
    def test_adaptive_gate_is_zero_where_exp_overflows(self, sensitivity):
        # exp(-z) overflows past z of about -709.78: the sigmoid's limit, 0.0.
        assert adaptive_levy_probability(1.0, 2.0, sensitivity) == 0.0
        assert adaptive_levy_probability(2.0, 2.0, sensitivity) == 0.5
        assert adaptive_levy_probability(3.0, 2.0, sensitivity) == 1.0
        # Just short of the overflow the value is computed as before.
        z = -709.0
        assert adaptive_levy_probability(z, 0.0, 1.0) == 1.0 / (1.0 + math.exp(-z))

    @pytest.mark.parametrize(
        ("u", "want"),
        [(0.1, 0), (0.25, 1), (0.99, 1), (1.0, 1)],
    )
    def test_roulette_boundaries(self, u, want):
        src = ScriptedSource(uniforms=[u])
        assert roulette_pick(src, [0.25, 0.75]) == want


class TestAbcCandidate:
    def test_single_agent_returns_copy(self):
        # The agent's own position, as an immutable pair, with no draw (an
        # empty ScriptedSource raises on any).
        positions = [(3.0, 4.0)]
        out = abc_candidate(ScriptedSource(), positions, 0)
        assert out == (3.0, 4.0) and isinstance(out, tuple)
        assert positions == [(3.0, 4.0)]

    def test_neighbor_skip_keeps_partner_distinct(self):
        positions = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)]
        # i = 1, raw draw 1 >= i, so the partner resolves to index 2.
        src = ScriptedSource(uniforms=[1.0, 1.0], ints=[1])
        out = abc_candidate(src, positions, 1)
        assert out == (10.0 + 1.0 * (10.0 - 0.0), 0.0 + 1.0 * (0.0 - 10.0))

    def test_mixing_formula(self):
        positions = [(2.0, 2.0), (6.0, 2.0)]
        # phi = (-0.5, 0.25): u = 0.25 -> -0.5, u = 0.625 -> 0.25.
        src = ScriptedSource(uniforms=[0.25, 0.625], ints=[0])
        out = abc_candidate(src, positions, 0)
        assert out == (2.0 + -0.5 * (2.0 - 6.0), 2.0 + 0.25 * (2.0 - 2.0))


class TestProposeAbc:
    def test_everything_covered_means_no_motion(self):
        config = make_config([hs(10.0, 10.0)], algorithm="abc", n_uavs=3)
        swarm = make_swarm(config)
        for i, uav in enumerate(swarm.uavs):
            uav.position = np.array([20.0 * (i + 1), 30.0])
        anchors = swarm.positions()
        field = FitnessField.from_config(config.hotspots, config)
        field.cover([0])
        rngs = [RandomSource(seed=7, stream_id=i) for i in range(3)]
        proposal = propose_abc(swarm, field, config, rngs)
        assert np.array_equal(proposal.positions, anchors)

    def test_employed_phase_accepts_strict_improvement(self):
        config = make_config([hs(6.0, 0.0)], algorithm="abc", n_uavs=2)
        swarm = make_swarm(config)
        swarm.uavs[0].position = np.array([0.0, 0.0])
        swarm.uavs[1].position = np.array([50.0, 50.0])
        field = FitnessField.from_config(config.hotspots, config)
        # Agent 0 employed move lands near the hotspot (raw target ~(6, 0),
        # clamped to one step); everything else is a zero/no-op draw.
        rngs = [
            ScriptedSource(uniforms=[0.44, 0.5, 0.5, 0.5, 0.5], ints=[0, 0]),
            ScriptedSource(uniforms=[0.5, 0.5, 0.5, 0.5, 0.5], ints=[0, 0]),
        ]
        proposal = propose_abc(swarm, field, config, rngs)
        assert proposal.positions[0][0] == pytest.approx(5.0, rel=1e-9)
        assert proposal.positions[0][1] == 0.0
        assert math.hypot(*proposal.positions[0]) <= 5.0
        assert np.array_equal(proposal.positions[1], [50.0, 50.0])
        assert proposal.report.clamped_steps == 1

    @given(seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_motion_budget_and_containment(self, seed):
        config = preset_scenario("uniform20", seed=seed, algorithm="abc", n_uavs=5)
        swarm = make_swarm(config)
        anchors = swarm.positions()
        field = FitnessField.from_config(config.hotspots, config)
        rngs = [RandomSource(seed=seed, stream_id=i) for i in range(5)]
        proposal = propose_abc(swarm, field, config, rngs)
        for final, anchor in zip(proposal.positions, anchors):
            assert math.hypot(*(final - anchor)) <= config.constraints.max_step_size
            assert config.grid.contains(final)


class TestProposePso:
    def pso_swarm(self, position, velocity, personal_best, global_best):
        uav = UavState(position=np.array(position, dtype=float))
        uav.velocity = np.array(velocity, dtype=float)
        uav.personal_best = np.array(personal_best, dtype=float)
        return SwarmState(uavs=[uav], global_best_position=np.array(global_best, dtype=float))

    def test_velocity_update_formula(self):
        config = make_config([hs(90.0, 90.0)], algorithm="pso", n_uavs=1)
        swarm = self.pso_swarm([0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 2.0])
        field = FitnessField.from_config(config.hotspots, config)
        rngs = [ScriptedSource(uniforms=[1.0, 1.0, 1.0, 1.0])]
        proposal = propose_pso(swarm, field, config, rngs)
        pso = config.params.pso
        r = np.array([1.0, 1.0])
        expected = (
            pso.inertia * np.array([1.0, 0.0])
            + pso.cognitive * r * (np.array([2.0, 0.0]) - np.zeros(2))
            + pso.social * r * (np.array([0.0, 2.0]) - np.zeros(2))
        )
        assert np.array_equal(proposal.positions[0], expected)
        assert np.array_equal(swarm.uavs[0].velocity, expected)

    def test_momentum_clamped_and_velocity_rewritten(self):
        config = make_config([hs(90.0, 90.0)], algorithm="pso", n_uavs=1)
        swarm = self.pso_swarm([10.0, 10.0], [100.0, 0.0], [10.0, 10.0], [10.0, 10.0])
        field = FitnessField.from_config(config.hotspots, config)
        proposal = propose_pso(swarm, field, config, [ScriptedSource(uniforms=[0.5] * 4)])
        moved = proposal.positions[0] - np.array([10.0, 10.0])
        assert math.hypot(*moved) <= 5.0
        assert math.hypot(*moved) == pytest.approx(5.0, rel=1e-12)
        assert np.array_equal(swarm.uavs[0].velocity, moved)
        assert proposal.report.clamped_steps == 1

    def test_boundary_absorbs_outward_momentum(self):
        config = make_config([hs(90.0, 90.0)], algorithm="pso", n_uavs=1)
        swarm = self.pso_swarm([0.0, 0.0], [0.0, -3.0], [0.0, 0.0], [0.0, 0.0])
        field = FitnessField.from_config(config.hotspots, config)
        proposal = propose_pso(swarm, field, config, [ScriptedSource(uniforms=[0.5] * 4)])
        assert np.array_equal(proposal.positions[0], np.zeros(2))
        assert np.array_equal(swarm.uavs[0].velocity, np.zeros(2))
        assert proposal.report.boundary_hits == 1

    @given(seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_motion_budget_and_containment(self, seed):
        config = preset_scenario("uniform20", seed=seed, algorithm="pso", n_uavs=5)
        swarm = make_swarm(config)
        anchors = swarm.positions()
        field = FitnessField.from_config(config.hotspots, config)
        rngs = [RandomSource(seed=seed, stream_id=i) for i in range(5)]
        proposal = propose_pso(swarm, field, config, rngs)
        for final, anchor, uav in zip(proposal.positions, anchors, swarm.uavs):
            assert math.hypot(*(final - anchor)) <= config.constraints.max_step_size
            assert config.grid.contains(final)
            assert np.array_equal(uav.velocity, final - anchor)


class TestNearestBetterNeighbor:
    def test_picks_closest_among_strictly_better(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]])
        values = np.array([1.0, 5.0, 3.0])
        assert _nearest_better_neighbor(positions, values, 0) == 1

    def test_none_at_the_top(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert _nearest_better_neighbor(positions, np.array([5.0, 1.0]), 0) is None

    def test_equal_values_are_not_better(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert _nearest_better_neighbor(positions, np.array([2.0, 2.0]), 0) is None


@given(
    values=st.lists(
        st.one_of(st.sampled_from([0.0, 1.0, 2.5]), st.floats(0.0, 1e6)), min_size=1, max_size=9
    )
)
@settings(max_examples=200, deadline=None)
def test_median_matches_numpy(values):
    assert _median(values) == float(np.median(values))


class HybridBase:
    def setup_run(self, hotspots, start, n_uavs=1, covered=(), **param_overrides):
        config = make_config(
            list(hotspots),
            algorithm="hybrid",
            n_uavs=n_uavs,
            start_position=np.array(start, dtype=float),
        )
        for key, value in param_overrides.items():
            setattr(config.params, key, value)
        swarm = make_swarm(config)
        field = FitnessField.from_config(config.hotspots, config)
        field.cover(covered)
        return config, swarm, field


class TestHybridFlights(HybridBase):
    def test_short_flight_lands_in_one_step(self):
        config, swarm, field = self.setup_run([hs(16.0, 50.0)], [10.0, 50.0])
        rng = ScriptedSource(normals=flight(4.0, 0.0), uniforms=[1.0])
        proposal = propose_hybrid(swarm, field, config, [rng])
        assert np.array_equal(proposal.positions[0], [14.0, 50.0])
        assert swarm.uavs[0].transit_target is None
        assert proposal.transit_legs == 0
        assert proposal.scanning[0] and not proposal.guided[0]

    def test_long_flight_commits_to_waypoint_and_flies_dark(self):
        config, swarm, field = self.setup_run([hs(12.0, 50.0)], [10.0, 50.0])
        rng = ScriptedSource(normals=flight(40.0, 0.0))
        proposal = propose_hybrid(swarm, field, config, [rng])
        assert np.array_equal(swarm.uavs[0].transit_target, [50.0, 50.0])
        assert np.array_equal(proposal.positions[0], [15.0, 50.0])  # one full step
        assert proposal.transit_legs == 1
        assert proposal.guided[0] and not proposal.scanning[0]
        assert proposal.report.clamped_steps == 1
        assert proposal.report.boundary_hits == 0

    def test_transit_continues_without_new_draws(self):
        config, swarm, field = self.setup_run([hs(12.0, 50.0)], [10.0, 50.0])
        swarm.uavs[0].transit_target = np.array([50.0, 50.0])
        rng = ScriptedSource()  # any draw would raise IndexError
        proposal = propose_hybrid(swarm, field, config, [rng])
        assert np.array_equal(proposal.positions[0], [15.0, 50.0])
        assert proposal.transit_legs == 1 and not proposal.scanning[0]

    def test_landing_is_exact_and_scans(self):
        config, swarm, field = self.setup_run([hs(12.0, 50.0)], [46.0, 50.0])
        swarm.uavs[0].transit_target = np.array([50.0, 50.0])
        proposal = propose_hybrid(swarm, field, config, [ScriptedSource()])
        assert np.array_equal(proposal.positions[0], [50.0, 50.0])
        assert swarm.uavs[0].transit_target is None
        assert proposal.transit_legs == 1
        assert proposal.scanning[0] and proposal.guided[0]
        assert proposal.report.clamped_steps == 0

    def test_boundary_clips_waypoint_before_committing(self):
        config, swarm, field = self.setup_run([hs(12.0, 50.0)], [10.0, 50.0])
        rng = ScriptedSource(normals=flight(-40.0, 0.0))
        proposal = propose_hybrid(swarm, field, config, [rng])
        assert np.array_equal(swarm.uavs[0].transit_target, [0.0, 50.0])
        assert np.array_equal(proposal.positions[0], [5.0, 50.0])
        assert proposal.report.boundary_hits == 1


class TestHybridEscape(HybridBase):
    def test_dead_ground_triggers_full_speed_escape(self):
        config, swarm, field = self.setup_run([hs(90.0, 50.0)], [50.0, 50.0])
        rng = ScriptedSource(uniforms=[1.0])  # onlooker gate only; no flight drawn
        proposal = propose_hybrid(swarm, field, config, [rng])
        assert np.array_equal(proposal.positions[0], [55.0, 50.0])
        assert proposal.report.zone_escapes == 1
        assert proposal.guided[0] and proposal.scanning[0]
        assert swarm.uavs[0].transit_target is None

    def test_uncovered_hotspot_nearby_suppresses_escape(self):
        config, swarm, field = self.setup_run([hs(60.0, 50.0)], [50.0, 50.0])
        rng = ScriptedSource(normals=zero_flight(), uniforms=[1.0])
        proposal = propose_hybrid(swarm, field, config, [rng])
        assert proposal.report.zone_escapes == 0
        assert np.array_equal(proposal.positions[0], [50.0, 50.0])

    def test_covered_hotspots_do_not_suppress_escape(self):
        config, swarm, field = self.setup_run(
            [hs(52.0, 50.0), hs(90.0, 50.0)], [50.0, 50.0], covered=[0]
        )
        proposal = propose_hybrid(swarm, field, config, [ScriptedSource(uniforms=[1.0])])
        assert proposal.report.zone_escapes == 1
        assert np.array_equal(proposal.positions[0], [55.0, 50.0])


class TestHybridBalancing(HybridBase):
    def four_agent_setup(self, exploit_coeff=0.02):
        anchors = np.array([[10.0, 10.0], [20.0, 10.0], [50.0, 50.0], [80.0, 80.0]])
        hotspots = [hs(10.0, 12.0), hs(20.0, 12.0), hs(50.0, 52.0), hs(80.0, 82.0)]
        config, swarm, field = self.setup_run(
            hotspots, [50.0, 0.0], n_uavs=4, exploit_coeff=exploit_coeff
        )
        for uav, position, value in zip(swarm.uavs, anchors, [3.0, 4.0, 0.0, 0.0]):
            uav.position = position.copy()
            uav.fitness = value
        swarm.global_best_position = np.array([30.0, 0.0])
        rngs = [
            ScriptedSource(normals=zero_flight(), uniforms=[1.0]) for _ in range(4)
        ]
        return config, swarm, field, anchors, rngs

    def test_above_median_agents_step_away_from_better_neighbor(self):
        config, swarm, field, anchors, rngs = self.four_agent_setup()
        proposal = propose_hybrid(swarm, field, config, rngs)
        expected0 = (anchors[0] + np.zeros(2)) + (1 * 0.02) * (anchors[0] - anchors[1])
        assert np.array_equal(proposal.positions[0], np.clip(expected0, 0.0, 100.0))
        # The top agent has no better neighbour: flight only.
        assert np.array_equal(proposal.positions[1], anchors[1])

    def test_below_median_agents_drift_toward_global_best(self):
        config, swarm, field, anchors, rngs = self.four_agent_setup()
        proposal = propose_hybrid(swarm, field, config, rngs)
        gbest = np.array([30.0, 0.0])
        for i in (2, 3):
            expected = (anchors[i] + np.zeros(2)) + 0.02 * (gbest - anchors[i])
            assert np.array_equal(proposal.positions[i], np.clip(expected, 0.0, 100.0))

    def test_exploit_sign_flips_the_nudge(self):
        config, swarm, field, anchors, rngs = self.four_agent_setup(exploit_coeff=-0.02)
        proposal = propose_hybrid(swarm, field, config, rngs)
        expected0 = (anchors[0] + np.zeros(2)) + (-1 * 0.02) * (anchors[0] - anchors[1])
        assert np.array_equal(proposal.positions[0], np.clip(expected0, 0.0, 100.0))


class TestHybridOnlooker(HybridBase):
    def test_reinforcement_kept_on_strict_improvement(self):
        config, swarm, field = self.setup_run([hs(16.0, 50.0)], [10.0, 50.0])
        swarm.uavs[0].fitness = 1.0  # nectar share 1 -> gate certain
        rng = ScriptedSource(normals=zero_flight() + flight(4.0, 0.0), uniforms=[0.0])
        proposal = propose_hybrid(swarm, field, config, [rng])
        assert np.array_equal(proposal.positions[0], [14.0, 50.0])

    def test_reinforcement_dropped_without_improvement(self):
        config, swarm, field = self.setup_run([hs(16.0, 50.0)], [10.0, 50.0])
        swarm.uavs[0].fitness = 1.0
        rng = ScriptedSource(normals=zero_flight() + flight(1.0, 0.0), uniforms=[0.0])
        proposal = propose_hybrid(swarm, field, config, [rng])
        assert np.array_equal(proposal.positions[0], [10.0, 50.0])

    def test_adaptive_gate_uses_sigmoid(self):
        # fitness == global best -> gate 0.5; u = 0.6 skips, u = 0.4 fires.
        config, swarm, field = self.setup_run(
            [hs(16.0, 50.0)], [10.0, 50.0], adaptive_lambda=True
        )
        swarm.global_best_fitness = 0.0
        skip = ScriptedSource(normals=zero_flight(), uniforms=[0.6])
        propose_hybrid(swarm, field, config, [skip])
        assert not skip.normals and not skip.uniforms

        swarm.uavs[0].transit_target = None
        fire = ScriptedSource(normals=zero_flight() + zero_flight(), uniforms=[0.4])
        propose_hybrid(swarm, field, config, [fire])
        assert not fire.normals and not fire.uniforms

    def test_agents_in_transit_sit_out_the_onlooker_pass(self):
        config, swarm, field = self.setup_run([hs(12.0, 50.0)], [10.0, 50.0])
        swarm.uavs[0].transit_target = np.array([90.0, 50.0])
        # Empty queues: any onlooker draw would raise IndexError.
        propose_hybrid(swarm, field, config, [ScriptedSource()])


class TestHybridInvariants:
    @given(seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_motion_budget_and_containment(self, seed):
        config = preset_scenario("uniform20", seed=seed, algorithm="hybrid", n_uavs=5)
        swarm = make_swarm(config)
        anchors = swarm.positions()
        field = FitnessField.from_config(config.hotspots, config)
        rngs = [RandomSource(seed=seed, stream_id=i) for i in range(5)]
        proposal = propose_hybrid(swarm, field, config, rngs)
        for final, anchor in zip(proposal.positions, anchors):
            assert math.hypot(*(final - anchor)) <= config.constraints.max_step_size
            assert config.grid.contains(final)
        assert proposal.scanning.shape == (5,) and len(proposal.guided) == 5


class TestDispatch:
    @pytest.mark.parametrize("algorithm", ["abc", "pso", "hybrid"])
    def test_propose_step_routes_and_respects_budget(self, algorithm):
        config = preset_scenario("uniform20", seed=11, algorithm=algorithm, n_uavs=4)
        swarm = make_swarm(config)
        anchors = swarm.positions()
        field = FitnessField.from_config(config.hotspots, config)
        rngs = [RandomSource(seed=11, stream_id=i) for i in range(4)]
        proposal = propose_step(swarm, field, config, rngs)
        assert isinstance(proposal, StepProposal)
        assert np.array(proposal.positions, dtype=float).shape == (4, 2)
        for final, anchor in zip(proposal.positions, anchors):
            assert math.hypot(*(final - anchor)) <= config.constraints.max_step_size
            assert config.grid.contains(final)
