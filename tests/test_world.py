"""World model: configs, validation, scenario generators, coverage marking, I/O."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyswarm.rng import SCENARIO_STREAM
from levyswarm.world import (
    Algorithm,
    AlgorithmParams,
    ConstraintParams,
    GridConfig,
    Hotspot,
    ScenarioConfig,
    ScenarioKind,
    SwarmState,
    UavState,
    UncoveredHotspots,
    ValidationError,
    load_scenario,
    make_scenario,
    make_swarm,
    mark_coverage,
    parse_algorithm,
    preset_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    two_cluster_far_indices,
)


def small_scenario(**overrides) -> ScenarioConfig:
    hotspots = [Hotspot(position=np.array([10.0, 10.0])), Hotspot(position=np.array([90.0, 90.0]))]
    config = ScenarioConfig(hotspots=hotspots, **overrides)
    config.validate()
    return config


class TestGridConfig:
    def test_defaults_are_100_by_100(self):
        grid = GridConfig()
        grid.validate()
        assert grid.width == 100 and grid.height == 100

    def test_non_integer_dimensions_rejected(self):
        with pytest.raises(ValidationError):
            GridConfig(width=100.0, height=100).validate()

    def test_degenerate_dimensions_rejected(self):
        with pytest.raises(ValidationError):
            GridConfig(width=0, height=100).validate()

    def test_contains_is_boundary_inclusive(self):
        grid = GridConfig()
        assert grid.contains((0.0, 0.0))
        assert grid.contains((100.0, 100.0))
        assert not grid.contains((100.0000001, 50.0))
        assert not grid.contains((50.0, -0.0000001))


class TestParseAlgorithm:
    @pytest.mark.parametrize(
        ("name", "want"),
        [
            ("abc", Algorithm.ABC),
            ("pso", Algorithm.PSO),
            ("hybrid", Algorithm.HYBRID_ABC_LEVY),
            ("hybrid-abc-levy", Algorithm.HYBRID_ABC_LEVY),
            ("hybrid_abc_levy", Algorithm.HYBRID_ABC_LEVY),
            ("HYBRID", Algorithm.HYBRID_ABC_LEVY),
            ("  Pso ", Algorithm.PSO),
        ],
    )
    def test_aliases(self, name, want):
        assert parse_algorithm(name) is want

    def test_enum_passes_through(self):
        assert parse_algorithm(Algorithm.ABC) is Algorithm.ABC

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError, match="unknown algorithm"):
            parse_algorithm("simulated-annealing")


class TestAlgorithmParamsValidation:
    def test_defaults_valid(self):
        AlgorithmParams().validate()

    @pytest.mark.parametrize("beta", [0.0, -0.5, 2.0000001, math.nan])
    def test_tail_index_outside_unit_interval_rejected(self, beta):
        with pytest.raises(ValidationError):
            AlgorithmParams(levy_beta=beta).validate()

    def test_tail_index_upper_boundary_accepted(self):
        AlgorithmParams(levy_beta=2.0).validate()

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValidationError):
            AlgorithmParams(levy_weight=0.0).validate()

    def test_stagnation_limit_floor(self):
        with pytest.raises(ValidationError):
            AlgorithmParams(stagnation_limit=0).validate()

    def test_tail_index_whose_mantegna_scale_overflows_rejected(self):
        AlgorithmParams(levy_beta=1e-3).validate()
        with pytest.raises(ValidationError, match="overflows"):
            AlgorithmParams(levy_beta=1e-4).validate()


class TestConstraintParamsValidation:
    def test_defaults_valid(self):
        ConstraintParams().validate()

    def test_collision_radius_must_not_exceed_safe_zone(self):
        ConstraintParams(collision_radius=2.0, safe_zone_radius=2.0).validate()
        with pytest.raises(ValidationError):
            ConstraintParams(collision_radius=2.5, safe_zone_radius=2.0).validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_step_size": 0.0},
            {"coverage_radius": -1.0},
            {"collision_radius": 0.0},
            {"potential_field_gain": 0.0},
            {"no_hotspot_threshold_radius": 0.0},
        ],
    )
    def test_nonpositive_values_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            ConstraintParams(**kwargs).validate()


class TestScenarioConfigValidation:
    def test_valid_round(self):
        small_scenario()

    def test_algorithm_string_coerced_on_construction(self):
        config = small_scenario(algorithm="hybrid")
        assert config.algorithm is Algorithm.HYBRID_ABC_LEVY

    def test_empty_hotspots_rejected(self):
        with pytest.raises(ValidationError, match="at least one hotspot"):
            ScenarioConfig(hotspots=[]).validate()

    def test_hotspot_outside_grid_rejected(self):
        with pytest.raises(ValidationError, match="outside"):
            ScenarioConfig(hotspots=[Hotspot(position=np.array([101.0, 50.0]))]).validate()

    def test_nonpositive_hotspot_weight_rejected(self):
        with pytest.raises(ValidationError, match="weight"):
            ScenarioConfig(
                hotspots=[Hotspot(position=np.array([1.0, 1.0]), weight=0.0)]
            ).validate()

    @pytest.mark.parametrize(
        "weight, text",
        [
            (0.0, "weight must be positive, got 0.0"),
            (-1.0, "weight must be positive, got -1.0"),
            (math.nan, "weight must be a finite number, got nan"),
            ("2", "weight must be a finite number, got '2'"),
            (True, "weight must be a finite number, got True"),
            ([1.0], "weight must be a finite number, got [1.0]"),
            (1e101, "weight must lie in [-1e+100, 1e+100], got 1e+101"),
        ],
    )
    def test_hotspot_weight_errors_name_the_first_bad_hotspot(self, weight, text):
        # The message is field_value's, prefixed with the first bad
        # hotspot's index, however many valid hotspots come before it.
        hotspots = [Hotspot((1.0, 1.0), w) for w in (1.0, 1.0, 2.0, 1)]
        hotspots += [Hotspot((1.0, 1.0), weight), Hotspot((1.0, 1.0), 0.0)]
        with pytest.raises(ValidationError) as error:
            ScenarioConfig(hotspots=hotspots).validate()
        assert str(error.value) == f"hotspot 4 {text}"

    def test_hotspot_errors_come_in_list_order(self):
        # A hotspot outside the grid before one with a bad weight is named first.
        hotspots = [Hotspot((1.0, 1.0)), Hotspot((101.0, 1.0)), Hotspot((1.0, 1.0), -2.0)]
        with pytest.raises(ValidationError) as error:
            ScenarioConfig(hotspots=hotspots).validate()
        assert str(error.value) == "hotspot 1 at (101.0, 1.0) lies outside the 100x100 grid"

    def test_start_outside_grid_rejected(self):
        with pytest.raises(ValidationError, match="start_position"):
            small_scenario(start_position=np.array([-1.0, 0.0]))

    def test_n_uavs_floor(self):
        with pytest.raises(ValidationError, match="n_uavs"):
            small_scenario(n_uavs=0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bit_range_rejected(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            small_scenario(seed=seed)

    def test_seed_boundary_accepted(self):
        small_scenario(seed=2**64 - 1)

    def test_max_steps_floor(self):
        with pytest.raises(ValidationError, match="max_steps"):
            small_scenario(max_steps=0)

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValidationError, match="dt"):
            small_scenario(dt=0.0)

    def test_shaping_term_bounded_by_smallest_weight(self):
        # 20 unit weights: epsilon*sum = 0.2 < 1 passes, 0.05*20 = 1.0 does not.
        hotspots = [Hotspot(position=np.array([float(i), 1.0])) for i in range(20)]
        ScenarioConfig(
            hotspots=hotspots, params=AlgorithmParams(shaping_epsilon=0.01)
        ).validate()
        with pytest.raises(ValidationError, match="shaping"):
            ScenarioConfig(
                hotspots=hotspots, params=AlgorithmParams(shaping_epsilon=0.05)
            ).validate()

    def test_shaping_bound_adds_weights_left_to_right(self):
        # Ten weights of 0.1 add up to 0.9999999999999999 left to right, so
        # 0.1 * sum(w) < 0.1 holds.  With builtin sum() on Python 3.12 and
        # later, the sum is 1.0 and the same file would be rejected.
        hotspots = [Hotspot(position=np.array([float(i), 1.0]), weight=0.1) for i in range(10)]
        ScenarioConfig(
            hotspots=hotspots, params=AlgorithmParams(shaping_epsilon=0.1)
        ).validate()


class TestMakeSwarm:
    def test_all_uavs_at_start(self):
        config = small_scenario(n_uavs=7)
        swarm = make_swarm(config)
        assert len(swarm.uavs) == 7
        for uav in swarm.uavs:
            assert np.array_equal(uav.position, config.start_position)
            assert uav.transit_target is None
        assert np.array_equal(swarm.global_best_position, config.start_position)
        assert swarm.global_best_fitness == -math.inf
        assert swarm.covered_count == 0

    @pytest.mark.parametrize("algorithm", ["hybrid", "abc", "pso"])
    def test_agents_carry_velocity_and_personal_best(self, algorithm):
        # Every algorithm's agents start with the same memory.
        swarm = make_swarm(small_scenario(algorithm=algorithm))
        for uav in swarm.uavs:
            assert uav.velocity == (0.0, 0.0)
            assert uav.personal_best == uav.position


class TestScenarioGenerators:
    def test_uniform_positions_inside_grid(self):
        config = make_scenario(ScenarioKind.UNIFORM_RANDOM, 50, seed=3)
        assert len(config.hotspots) == 50
        for h in config.hotspots:
            assert config.grid.contains(h.position)

    def test_generation_is_deterministic(self):
        a = make_scenario("uniform", 20, seed=11)
        b = make_scenario("uniform", 20, seed=11)
        assert np.array_equal(
            np.array([h.position for h in a.hotspots]),
            np.array([h.position for h in b.hotspots]),
        )

    def test_different_seeds_differ(self):
        a = make_scenario("uniform", 20, seed=11)
        b = make_scenario("uniform", 20, seed=12)
        assert not np.array_equal(
            np.array([h.position for h in a.hotspots]),
            np.array([h.position for h in b.hotspots]),
        )

    def test_layout_independent_of_dynamics_settings(self):
        # Hotspot placement draws from a dedicated stream, so swapping the
        # algorithm or swarm size must not move a single hotspot.
        a = make_scenario("uniform", 20, seed=5, algorithm="abc", n_uavs=3)
        b = make_scenario("uniform", 20, seed=5, algorithm="pso", n_uavs=9)
        assert np.array_equal(
            np.array([h.position for h in a.hotspots]),
            np.array([h.position for h in b.hotspots]),
        )

    def test_two_cluster_membership(self):
        config = make_scenario(ScenarioKind.TWO_CLUSTER, 20, seed=7)
        near, far = config.hotspots[:10], config.hotspots[10:]
        for h in near:
            assert 0.0 <= h.position[1] <= 30.0
        center = np.array([50.0, 90.0])
        for h in far:
            assert np.hypot(*(h.position - center)) <= 10.0

    def test_two_cluster_odd_count_puts_extra_in_near_band(self):
        config = make_scenario(ScenarioKind.TWO_CLUSTER, 5, seed=7)
        assert len(config.hotspots) == 5
        assert all(h.position[1] <= 30.0 for h in config.hotspots[:3])
        assert two_cluster_far_indices(5) == [3, 4]

    def test_far_indices_convention(self):
        assert two_cluster_far_indices(20) == list(range(10, 20))
        assert two_cluster_far_indices(1) == []

    def test_custom_hotspots_are_shared_and_immutable(self):
        original = [Hotspot(position=np.array([5.0, 5.0]))]
        config = ScenarioConfig(hotspots=list(original)).validate()
        assert config.hotspots[0] is original[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.hotspots[0].position = (99.0, 5.0)
        assert original[0].position == (5.0, 5.0)

    def test_nonpositive_count_rejected(self):
        with pytest.raises(ValidationError, match="n_hotspots"):
            make_scenario("uniform", 0, seed=0)

    @given(seed=st.integers(min_value=0, max_value=2**32), n=st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_uniform_generation_always_valid(self, seed, n):
        config = make_scenario("uniform", n, seed=seed)
        assert len(config.hotspots) == n
        assert all(config.grid.contains(h.position) for h in config.hotspots)

    def test_scenario_stream_is_reserved(self):
        assert SCENARIO_STREAM == 1 << 32


class TestPresets:
    def test_uniform20(self):
        config = preset_scenario("uniform20", seed=0)
        assert len(config.hotspots) == 20
        assert config.scenario_id == "uniform20"

    def test_twocluster20(self):
        config = preset_scenario("twocluster20", seed=0)
        assert len(config.hotspots) == 20
        assert config.scenario_id == "twocluster20"

    def test_overrides_flow_through(self):
        config = preset_scenario("uniform20", seed=0, n_uavs=8, algorithm="abc")
        assert config.n_uavs == 8 and config.algorithm is Algorithm.ABC

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValidationError, match="unknown preset"):
            preset_scenario("uniform21", seed=0)


class TestMarkCoverage:
    def make(self, uav_positions, hotspot_positions):
        """A swarm and the coverage field over the hotspots, all uncovered."""
        uavs = [UavState(position=np.array(p, dtype=float)) for p in uav_positions]
        swarm = SwarmState(uavs=uavs, global_best_position=np.zeros(2))
        hotspots = [Hotspot(position=np.array(p, dtype=float)) for p in hotspot_positions]
        return swarm, UncoveredHotspots(hotspots)

    def mark(self, swarm, field, radius, scanning=None):
        """mark_coverage with the hits of the scanning agents' within() queries,
        as the run loop makes them."""
        hits = set()
        for k, uav in enumerate(swarm.uavs):
            if scanning is None or scanning[k]:
                hits.update(field.within(*uav.position, radius))
        return mark_coverage(swarm, field, hits)

    def test_marks_within_radius_boundary_inclusive(self):
        swarm, field = self.make([[0.0, 0.0]], [[3.0, 0.0], [3.0000001, 0.0]])
        newly = self.mark(swarm, field, 3.0)
        assert newly == [0]
        assert field.covered[0] and not field.covered[1]
        assert swarm.covered_count == 1

    def test_second_call_reports_nothing_new(self):
        swarm, field = self.make([[0.0, 0.0]], [[1.0, 0.0]])
        assert self.mark(swarm, field, 3.0) == [0]
        assert self.mark(swarm, field, 3.0) == []
        # Hits that name a covered hotspot mark nothing new either.
        assert mark_coverage(swarm, field, {0}) == []
        assert swarm.covered_count == 1

    def test_coverage_never_reverts(self):
        swarm, field = self.make([[0.0, 0.0]], [[1.0, 0.0]])
        self.mark(swarm, field, 3.0)
        swarm.uavs[0].position = (90.0, 90.0)
        self.mark(swarm, field, 3.0)
        assert field.covered[0] and swarm.covered_count == 1

    def test_any_agent_suffices(self):
        swarm, field = self.make([[90.0, 90.0], [1.0, 0.0]], [[0.0, 0.0]])
        assert self.mark(swarm, field, 3.0) == [0]

    def test_scanning_mask_disables_dark_agents(self):
        swarm, field = self.make([[1.0, 0.0], [90.0, 90.0]], [[0.0, 0.0], [91.0, 90.0]])
        newly = self.mark(swarm, field, 3.0, scanning=[False, True])
        assert newly == [1]
        assert not field.covered[0] and field.covered[1]

    def test_all_dark_marks_nothing(self):
        swarm, field = self.make([[1.0, 0.0]], [[0.0, 0.0]])
        assert self.mark(swarm, field, 3.0, scanning=[False]) == []
        assert swarm.covered_count == 0

    @pytest.mark.parametrize("ids", [[0, 5], [2], [-1], [1, -2]])
    def test_cover_refuses_an_id_outside_the_list_before_any_write(self, ids):
        # A negative id must not flag a hotspot counted from the end, and an id
        # past the list must not leave the ids before it flagged.
        _, field = self.make([[0.0, 0.0]], [[1.0, 0.0], [5.0, 5.0]])
        bad = next(k for k in ids if not 0 <= k < 2)
        with pytest.raises(IndexError, match=f"hotspot id {bad} "):
            field.cover(ids)
        assert field.covered == [False, False]
        assert [k for k, _, _ in field.points] == [0, 1]
        assert field.within(1.0, 0.0, 10.0) == [0, 1]

    @given(
        agents=st.lists(st.tuples(st.floats(0.0, 20.0), st.floats(0.0, 20.0)), min_size=1, max_size=8),
        targets=st.lists(st.tuples(st.floats(0.0, 20.0), st.floats(0.0, 20.0)), min_size=1, max_size=12),
        covered=st.lists(st.booleans(), min_size=12, max_size=12),
        radius=st.floats(0.5, 6.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_per_hotspot_minimum(self, agents, targets, covered, radius):
        swarm, field = self.make(agents, targets)
        field.cover([k for k, flag in zip(range(len(targets)), covered) if flag])
        expected = [
            k
            for k, hot in enumerate(field.hotspots)
            if not field.covered[k]
            and min(math.hypot(*(np.array(a) - hot.position)) for a in agents) <= radius
        ]
        assert self.mark(swarm, field, radius) == expected
        assert swarm.covered_count == sum(field.covered)


class TestScenarioIO:
    def test_dict_round_trip_is_bit_exact(self):
        config = preset_scenario("twocluster20", seed=9, n_uavs=4, algorithm="abc")
        config.params.levy_weight = 2.5
        config.constraints.coverage_radius = 4.0
        back = scenario_from_dict(scenario_to_dict(config))
        assert np.array_equal(
            np.array([h.position for h in back.hotspots]),
            np.array([h.position for h in config.hotspots]),
        )
        assert back.algorithm is config.algorithm
        assert back.params == config.params
        assert back.constraints == config.constraints
        assert back.seed == config.seed
        assert back.max_steps == config.max_steps and back.dt == config.dt
        assert back.scenario_id == config.scenario_id
        assert np.array_equal(back.start_position, config.start_position)

    def test_file_round_trip_is_bit_exact(self, tmp_path):
        config = preset_scenario("uniform20", seed=123)
        path = tmp_path / "layout.json"
        save_scenario(config, path)
        back = load_scenario(path)
        assert np.array_equal(
            np.array([h.position for h in back.hotspots]),
            np.array([h.position for h in config.hotspots]),
        )
        assert back.scenario_id == "uniform20"

    def test_load_names_anonymous_scenario_after_file(self, tmp_path):
        path = tmp_path / "river-delta.json"
        path.write_text(json.dumps({"hotspots": [{"x": 5, "y": 5}]}))
        config = load_scenario(path)
        assert config.scenario_id == "river-delta"

    def test_generator_spec_in_file(self, tmp_path):
        path = tmp_path / "gen.json"
        path.write_text(json.dumps({"kind": "twocluster", "n_hotspots": 6, "seed": 4}))
        config = load_scenario(path)
        assert len(config.hotspots) == 6
        reference = make_scenario("twocluster", 6, seed=4)
        assert np.array_equal(
            np.array([h.position for h in config.hotspots]),
            np.array([h.position for h in reference.hotspots]),
        )

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown scenario keys"):
            scenario_from_dict({"hotspots": [{"x": 1, "y": 1}], "speling": 1})

    def test_unknown_params_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown params keys"):
            scenario_from_dict({"hotspots": [{"x": 1, "y": 1}], "params": {"levy_wait": 3}})

    def test_unknown_constraints_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown constraints keys"):
            scenario_from_dict({"hotspots": [{"x": 1, "y": 1}], "constraints": {"max_speed": 5}})

    def test_unread_neighbor_limit_is_an_unknown_key(self):
        with pytest.raises(ValidationError, match="unknown params keys"):
            scenario_from_dict(
                {"hotspots": [{"x": 1, "y": 1}], "params": {"abc_limit_neighbors": 3}}
            )

    def test_hotspot_entries_need_x_and_y(self):
        with pytest.raises(ValidationError, match="x and y"):
            scenario_from_dict({"hotspots": [{"x": 1}]})

    def test_needs_hotspots_or_generator(self):
        with pytest.raises(ValidationError, match="'hotspots' or"):
            scenario_from_dict({"n_uavs": 5})

    def test_defaults_materialize(self):
        config = scenario_from_dict({"hotspots": [{"x": 1, "y": 2, "weight": 2.0}]})
        assert config.n_uavs == 5
        assert config.algorithm is Algorithm.HYBRID_ABC_LEVY
        assert config.max_steps == 5000 and config.dt == 0.5
        assert config.hotspots[0].weight == 2.0
        assert dataclasses.asdict(config.params) == dataclasses.asdict(AlgorithmParams())


class TestImmutableScenarioData:
    """A hotspot is a point and a weight, and a config holds no array, so == works."""

    def test_same_preset_configs_are_equal(self):
        assert preset_scenario("uniform20", 0) == preset_scenario("uniform20", 0)
        assert preset_scenario("uniform20", 0) != preset_scenario("uniform20", 1)

    def test_dict_round_trip_equals_its_source(self):
        config = preset_scenario("twocluster20", seed=9, n_uavs=4, algorithm="abc")
        assert scenario_from_dict(scenario_to_dict(config)) == config

    def test_hotspot_equality_and_hash_ignore_how_the_position_was_given(self):
        a, b = Hotspot(np.array([1.0, 2.0])), Hotspot((1.0, 2.0))
        assert a == b and hash(a) == hash(b)
        assert a.position == (1.0, 2.0) and type(a.position[0]) is float

    def test_hotspot_position_is_frozen(self):
        hotspot = Hotspot((1.0, 2.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            hotspot.position = (3.0, 4.0)

    def test_scenario_data_holds_python_floats(self):
        config = scenario_from_dict({"kind": "twocluster", "n_hotspots": 5, "start": [10, 0]})
        assert config.start_position == (10.0, 0.0)
        points = [config.start_position] + [h.position for h in config.hotspots]
        assert all(type(p) is tuple and {type(v) for v in p} == {float} for p in points)
