"""Run loop and batch execution: determinism, per-step invariants, aggregates."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from levyswarm.harness import (
    SweepSpec,
    _censored_steps,
    _quantile,
    compare_algorithms,
    run_scenario,
    run_sweep,
)
from levyswarm.metrics import RunMetrics
from levyswarm.world import (
    Hotspot,
    ScenarioConfig,
    ValidationError,
    preset_scenario,
)


def audit_run(result):
    """Shared per-step invariant checks over a recorded run."""
    config = result.config
    cons = config.constraints
    traj = result.trajectories
    assert traj is not None
    assert traj.shape == (result.metrics.recorded_steps, config.n_uavs, 2)
    assert result.collision_mask.shape == (result.metrics.recorded_steps - 1, config.n_uavs)

    for positions in traj:
        for p in positions:
            assert config.grid.contains(p)

    for t in range(1, len(traj)):
        moved = np.hypot(*(traj[t] - traj[t - 1]).T)
        for i in range(config.n_uavs):
            budget = 2.0 * cons.max_step_size if result.collision_mask[t - 1][i] else cons.max_step_size
            assert moved[i] <= budget

    for t, positions in enumerate(traj):
        pairwise = [
            float(np.hypot(*(positions[i] - positions[j])))
            for i in range(config.n_uavs)
            for j in range(i + 1, config.n_uavs)
        ]
        if pairwise:
            assert min(pairwise) >= cons.collision_radius
            assert min(pairwise) == pytest.approx(result.metrics.min_pairwise_series[t], rel=1e-12)

    assert result.metrics.heatmap.total() == result.metrics.recorded_steps * config.n_uavs

    curve = result.metrics.coverage_curve
    assert curve[0][0] == 0
    assert all(b[1] >= a[1] for a, b in zip(curve, curve[1:]))
    assert curve[-1][1] == result.metrics.covered_count
    assert result.metrics.biodiversity_b == sum(
        h.weight for h in result.hotspots if h.covered
    )
    if result.metrics.covered_all:
        assert result.metrics.covered_count == result.metrics.n_hotspots
        assert curve[-1][0] == result.metrics.steps_to_cover
        assert result.metrics.time_to_cover_s == result.metrics.steps_to_cover * config.dt
    else:
        assert result.metrics.covered_count < result.metrics.n_hotspots
        assert result.metrics.time_to_cover_s is None


class TestRunScenario:
    def test_rerun_reproduces_everything(self):
        def run():
            config = preset_scenario("uniform20", seed=0, max_steps=150)
            return run_scenario(config, record_trajectories=True)

        a, b = run(), run()
        assert a.metrics.steps_to_cover == b.metrics.steps_to_cover
        assert a.metrics.coverage_curve == b.metrics.coverage_curve
        assert a.metrics.min_pairwise_series == b.metrics.min_pairwise_series
        assert a.metrics.collision_interventions == b.metrics.collision_interventions
        assert np.array_equal(a.metrics.heatmap.counts, b.metrics.heatmap.counts)
        assert np.array_equal(a.trajectories, b.trajectories)
        assert np.array_equal(a.swarm.positions(), b.swarm.positions())

    def test_same_config_object_reusable(self):
        config = preset_scenario("uniform20", seed=3, max_steps=60)
        a = run_scenario(config)
        b = run_scenario(config)
        assert a.metrics.coverage_curve == b.metrics.coverage_curve
        assert all(not h.covered for h in config.hotspots)  # input never mutated

    def test_start_on_top_of_hotspot_covers_in_zero_steps(self):
        config = ScenarioConfig(
            hotspots=[Hotspot(position=np.array([50.0, 2.0]))],
            n_uavs=1,
            start_position=np.array([50.0, 0.0]),
        )
        result = run_scenario(config)
        assert result.metrics.steps_to_cover == 0
        assert result.metrics.time_to_cover_s == 0.0
        assert result.metrics.coverage_curve == [(0, 1)]
        assert result.metrics.recorded_steps == 1
        assert result.metrics.covered_all
        assert result.metrics.min_pairwise_distance == math.inf

    def test_coincident_launch_is_separated_before_recording(self):
        config = preset_scenario("uniform20", seed=5, max_steps=1, n_uavs=5)
        result = run_scenario(config, record_trajectories=True)
        first = result.trajectories[0]
        for i in range(5):
            for j in range(i + 1, 5):
                assert float(np.hypot(*(first[i] - first[j]))) >= 1.0
        assert result.metrics.collision_interventions >= 1

    @pytest.mark.parametrize("algorithm", ["hybrid", "abc", "pso"])
    def test_short_run_invariants(self, algorithm):
        config = preset_scenario(
            "uniform20", seed=1, algorithm=algorithm, max_steps=120
        )
        result = run_scenario(config, record_trajectories=True)
        audit_run(result)

    def test_max_steps_censors_run(self):
        config = preset_scenario("uniform20", seed=2, algorithm="abc", max_steps=10)
        result = run_scenario(config)
        assert result.metrics.steps_to_cover is None
        assert not result.metrics.covered_all
        assert result.metrics.recorded_steps == 11  # initial state + 10 steps


class TestBuildConfig:
    def test_job_dict_materializes_config(self):
        cmp = compare_algorithms(
            ["hybrid", "abc"],
            preset="twocluster20",
            seeds=[4],
            max_steps=77,
            levy_weight=2.5,
            params={"stagnation_limit": 9},
            constraints={"coverage_radius": 4.0},
        )
        config = cmp.results[1].config
        assert config.scenario_id == "twocluster20"
        assert config.seed == 4
        assert config.algorithm.value == "abc"
        assert config.max_steps == 77
        assert config.params.levy_weight == 2.5
        assert config.params.stagnation_limit == 9
        assert config.constraints.coverage_radius == 4.0

    def test_levy_weight_none_keeps_params_value(self):
        cmp = compare_algorithms(
            ["hybrid", "abc"], preset="uniform20", seeds=[0], max_steps=10,
            params={"levy_weight": 1.25},
        )
        assert [r.config.params.levy_weight for r in cmp.results] == [1.25, 1.25]


class TestSweep:
    def test_censoring_fills_max_steps(self):
        done = RunMetrics(
            scenario_id="s", algorithm="a", levy_weight=3.0, seed=0,
            steps_to_cover=12, time_to_cover_s=6.0, biodiversity_b=1.0,
            min_pairwise_distance=2.0, collision_interventions=0,
        )
        censored = RunMetrics(
            scenario_id="s", algorithm="a", levy_weight=3.0, seed=1,
            steps_to_cover=None, time_to_cover_s=None, biodiversity_b=0.0,
            min_pairwise_distance=2.0, collision_interventions=0,
        )
        assert np.array_equal(_censored_steps([done, censored], 500), [12.0, 500.0])

    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=60))
    def test_quantiles_match_numpy(self, values):
        ordered = sorted(map(float, values))
        assert _quantile(ordered, 0.5) == np.median(ordered)
        for q in (0.25, 0.75):
            assert _quantile(ordered, q) == np.percentile(ordered, 100 * q)

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            SweepSpec(levy_weights=[]).validate()
        with pytest.raises(ValidationError):
            SweepSpec(seeds=[]).validate()
        with pytest.raises(ValidationError):
            SweepSpec(levy_weights=[3.0, 3.0]).validate()
        with pytest.raises(ValidationError):
            SweepSpec(seeds=[1, 1]).validate()

    def test_small_sweep_aggregates(self):
        spec = SweepSpec(levy_weights=[1.5, 3.0], seeds=[0, 1], max_steps=40)
        sweep = run_sweep(spec)
        assert len(sweep.cells) == 2
        assert len(sweep.results) == 4
        for value in (1.5, 3.0):
            cell = sweep.cell_for(value)
            assert len(cell.runs) == 2
            assert 0.0 <= cell.success_rate <= 1.0
            assert cell.median_steps <= 40.0
            assert cell.iqr_steps >= 0.0
            assert cell.heatmap.total() == sum(m.heatmap.total() for m in cell.runs)
        assert [c.median_steps for c in sweep.cells] == sorted(
            c.median_steps for c in sweep.cells
        )
        with pytest.raises(KeyError):
            sweep.cell_for(9.0)

    def test_results_retain_run_objects(self):
        spec = SweepSpec(levy_weights=[3.0], seeds=[0], max_steps=20)
        sweep = run_sweep(spec)
        assert len(sweep.results) == 1
        assert sweep.results[0].config.params.levy_weight == 3.0

    def test_parallel_matches_serial(self):
        spec = SweepSpec(levy_weights=[3.0], seeds=[0, 1], max_steps=60)
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=2)
        for a, b in zip(serial.cells, parallel.cells):
            assert a.levy_weight == b.levy_weight
            assert a.median_steps == b.median_steps
            assert [m.steps_to_cover for m in a.runs] == [m.steps_to_cover for m in b.runs]
            assert np.array_equal(a.heatmap.counts, b.heatmap.counts)


class TestCompare:
    def test_rows_and_success_rates(self):
        cmp = compare_algorithms(
            ["hybrid", "abc"], preset="twocluster20", seeds=[0], max_steps=50
        )
        assert cmp.preset == "twocluster20"
        assert len(cmp.rows) == 2
        assert set(cmp.success_rates) == {"hybrid-abc-levy", "abc"}
        for row in cmp.rows:
            assert row.far_covered is not None
            assert 0 <= row.far_covered <= 10
        assert all(0.0 <= rate <= 1.0 for rate in cmp.success_rates.values())
        for name, group in cmp.groups.items():
            mine = [row for row in cmp.rows if row.algorithm == name]
            assert group.runs == [row.metrics for row in mine]
            assert group.median_steps == np.median(_censored_steps(group.runs, 50))
            assert cmp.success_rates[name] == group.success_rate
            assert cmp.median_far_covered(name) == float(np.median([r.far_covered for r in mine]))

    def test_uniform_preset_has_no_far_tally(self):
        cmp = compare_algorithms(
            ["hybrid", "pso"], preset="uniform20", seeds=[0], max_steps=30
        )
        assert all(row.far_covered is None for row in cmp.rows)
        assert cmp.median_far_covered("pso") is None

    def test_validation(self):
        with pytest.raises(ValidationError):
            compare_algorithms(["hybrid"], seeds=[0])
        with pytest.raises(ValidationError):
            compare_algorithms(["hybrid", "hybrid"], seeds=[0])
        with pytest.raises(ValidationError):
            compare_algorithms(["hybrid", "abc"], seeds=[])
        with pytest.raises(ValidationError, match="distinct"):
            compare_algorithms(["hybrid", "abc"], seeds=[1, 1], max_steps=5)
