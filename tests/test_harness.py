"""Run loop and batch execution: determinism, per-step invariants, aggregates."""

from __future__ import annotations

import concurrent.futures
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from levyswarm import harness
from levyswarm.harness import (
    SweepSpec,
    _censored_steps,
    _quantile,
    compare_algorithms,
    run_scenario,
    run_sweep,
)
from levyswarm.metrics import Heatmap, RunMetrics
from levyswarm.optimizers import FitnessField
from levyswarm.world import (
    _RANGES,
    ConstraintParams,
    GridConfig,
    Hotspot,
    ScenarioConfig,
    SwarmState,
    UncoveredHotspots,
    ValidationError,
    make_scenario,
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
        # Measured in math.hypot, the simulator's norm.
        moved = [math.hypot(*delta) for delta in traj[t] - traj[t - 1]]
        for i in range(config.n_uavs):
            budget = 2.0 * cons.max_step_size if result.collision_mask[t - 1][i] else cons.max_step_size
            assert moved[i] <= budget

    for t, positions in enumerate(traj):
        pairwise = [
            math.hypot(*(positions[i] - positions[j]))
            for i in range(config.n_uavs)
            for j in range(i + 1, config.n_uavs)
        ]
        if pairwise:
            assert min(pairwise) >= cons.collision_radius
            assert min(pairwise) == result.metrics.min_pairwise_series[t]

    assert result.metrics.heatmap.total() == result.metrics.recorded_steps * config.n_uavs

    curve = result.metrics.coverage_curve
    assert curve[0][0] == 0
    assert all(b[1] >= a[1] for a, b in zip(curve, curve[1:]))
    assert curve[-1][1] == result.metrics.covered_count
    assert result.metrics.biodiversity_b == sum(
        h.weight for h, c in zip(config.hotspots, result.covered) if c
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
        assert config == preset_scenario("uniform20", seed=3, max_steps=60)  # input never mutated

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
                assert math.hypot(*(first[i] - first[j])) >= 1.0
        assert result.metrics.collision_interventions >= 1

    @pytest.mark.parametrize("algorithm", ["hybrid", "abc", "pso"])
    def test_collision_radius_at_its_floor_launches(self, algorithm):
        # At the floor the resolver's margin is still about 4 ulps of a
        # coordinate on the largest grid, so every crowd separates at launch.
        radius = _RANGES["collision_radius"][0]
        starts = [(0, 0), (1024, 0), (0, 1024), (1024, 1024), (512, 0), (1024, 512), (512, 512)]
        for n in range(2, 9):
            for start in starts:
                config = make_scenario(
                    "uniform", 20, 0, GridConfig(1024, 1024), algorithm=algorithm, n_uavs=n,
                    start_position=start, constraints=ConstraintParams(collision_radius=radius),
                    max_steps=30,
                )
                assert run_scenario(config).metrics.min_pairwise_distance >= radius

    @pytest.mark.parametrize("algorithm", ["hybrid", "abc", "pso"])
    def test_short_run_invariants(self, algorithm):
        config = preset_scenario(
            "uniform20", seed=1, algorithm=algorithm, max_steps=120
        )
        result = run_scenario(config, record_trajectories=True)
        audit_run(result)

    @pytest.mark.parametrize("algorithm", ["hybrid", "abc", "pso"])
    def test_run_loop_keeps_state_on_floats(self, monkeypatch, algorithm):
        # Agent state is (x, y) floats from launch to the last step: the run
        # loop never stacks the positions into an array.
        calls = []
        positions = SwarmState.positions

        def counted(self):
            calls.append(1)
            return positions(self)

        monkeypatch.setattr(SwarmState, "positions", counted)
        config = preset_scenario("uniform20", seed=4, algorithm=algorithm, max_steps=100)
        result = run_scenario(config, record_trajectories=True)
        assert calls == []
        swarm = result.swarm

        def is_xy(value):
            return type(value) is tuple and len(value) == 2 and all(type(v) is float for v in value)

        assert is_xy(swarm.global_best_position)
        for uav in swarm.uavs:
            assert is_xy(uav.position)
            assert is_xy(uav.personal_best) and is_xy(uav.velocity)
            if uav.transit_target is not None:
                assert is_xy(uav.transit_target)
        # The edges still hand out arrays.
        steps = result.metrics.recorded_steps
        assert result.trajectories.shape == (steps, config.n_uavs, 2)
        assert result.trajectories.dtype == np.float64
        assert result.collision_mask.shape == (steps - 1, config.n_uavs)
        assert result.collision_mask.dtype == bool
        assert np.array(swarm.positions(), dtype=float).tobytes() == result.trajectories[-1].tobytes()

    @pytest.mark.parametrize("algorithm", ["hybrid", "abc", "pso"])
    def test_one_coverage_query_per_scanning_agent(self, monkeypatch, algorithm):
        # Outside the proposal, a step queries the field at the coverage
        # radius once per scanning agent: its fitness and the coverage
        # marking share the query.
        config = preset_scenario("uniform20", seed=1, algorithm=algorithm, max_steps=200)
        radius = config.constraints.coverage_radius
        within, propose, mark = UncoveredHotspots.within, harness.propose_step, harness.mark_coverage
        queries, proposing, scanning, per_step = [0], [False], [config.n_uavs], []

        def counted_within(self, x, y, r):
            queries[0] += r == radius and not proposing[0]
            return within(self, x, y, r)

        def uncounted_propose(*args):
            proposing[0] = True
            try:
                proposal = propose(*args)
            finally:
                proposing[0] = False
            scanning[0] = int(proposal.scanning.sum())
            return proposal

        def counted_mark(*args, **kwargs):
            newly = mark(*args, **kwargs)
            per_step.append((queries[0], scanning[0]))
            queries[0] = 0
            return newly

        monkeypatch.setattr(UncoveredHotspots, "within", counted_within)
        monkeypatch.setattr(harness, "propose_step", uncounted_propose)
        monkeypatch.setattr(harness, "mark_coverage", counted_mark)
        result = run_scenario(config)
        assert len(per_step) == result.metrics.recorded_steps
        assert [q for q, _ in per_step] == [n for _, n in per_step]
        if algorithm == "hybrid":
            assert min(n for _, n in per_step) < config.n_uavs  # some agents fly dark

    @pytest.mark.parametrize("algorithm", ["hybrid", "abc", "pso"])
    def test_one_fitness_field_per_run(self, monkeypatch, algorithm):
        # The field owns the coverage: covering steps shrink it in place.
        built = []
        from_config = FitnessField.from_config

        def counted(cls, hotspots, config):
            built.append(1)
            return from_config(hotspots, config)

        monkeypatch.setattr(FitnessField, "from_config", classmethod(counted))
        config = preset_scenario("twocluster20", seed=2, algorithm=algorithm, max_steps=200)
        result = run_scenario(config)
        assert result.metrics.covered_count >= 1
        assert len(built) == 1

    @pytest.mark.parametrize("batch", [3, 7, None])
    def test_heatmap_buffer_is_bounded_and_bins_every_position(self, monkeypatch, batch):
        config = preset_scenario("uniform20", seed=2, max_steps=120)
        if batch is not None:
            monkeypatch.setattr(harness, "HEATMAP_BATCH", batch)
        batch = harness.HEATMAP_BATCH
        record, sizes = Heatmap.record, []

        def sized(self, positions):
            sizes.append(len(positions))
            return record(self, positions)

        monkeypatch.setattr(Heatmap, "record", sized)
        result = run_scenario(config, record_trajectories=True)
        expected = Heatmap.for_grid(config.grid)
        for position in result.trajectories.reshape(-1, 2).tolist():
            expected.counts[expected.cell_of(position)] += 1
        assert np.array_equal(result.metrics.heatmap.counts, expected.counts)
        assert sum(sizes) == result.metrics.recorded_steps * config.n_uavs
        assert max(sizes) < batch + config.n_uavs

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
            params={"levy_weight": 2.5, "stagnation_limit": 9},
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

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The size of each pool _run_grid opens; the jobs run in this process."""
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        # _run_grid imports the pool class when it needs one.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        return sizes

    def test_pool_is_no_larger_than_the_grid(self, pool_sizes):
        sweep = run_sweep(SweepSpec(levy_weights=[3.0], seeds=[0, 1], max_steps=5), workers=4)
        assert pool_sizes == [2]
        assert len(sweep.results) == 2

    @pytest.mark.parametrize("cpus,sizes", [(3, [3]), (1, []), (None, [])])
    def test_pool_is_no_larger_than_the_cpu_count(self, monkeypatch, pool_sizes, cpus, sizes):
        # One CPU, or an unknown count, runs the grid in this process.
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        sweep = run_sweep(
            SweepSpec(levy_weights=[3.0], seeds=[0, 1, 2, 3, 4], max_steps=5), workers=8
        )
        assert pool_sizes == sizes
        assert len(sweep.results) == 5

    def test_importing_the_cli_leaves_multiprocessing_unloaded(self):
        # Only a grid that runs in a pool imports one.
        code = "import sys, levyswarm.cli; print('multiprocessing' in sys.modules)"
        src = str(Path(harness.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr

    def test_explicit_seed_list_is_capped_before_any_config(self, monkeypatch):
        def no_config(*args, **kwargs):
            raise AssertionError("a config was built")

        monkeypatch.setattr(harness, "preset_scenario", no_config)
        seeds = list(range(10_001))
        with pytest.raises(ValidationError, match=r"seeds must lie in \[1, 10000\], got 10001"):
            run_sweep(SweepSpec(levy_weights=[3.0], seeds=seeds))
        with pytest.raises(ValidationError, match="got 10001"):
            compare_algorithms(["hybrid", "abc"], seeds=seeds)
        with pytest.raises(ValidationError, match="got 10001"):
            compare_algorithms(["hybrid", "abc"], seeds=range(10_001))

    @pytest.mark.parametrize(
        "weights,seeds",
        [([3.0], [0, -1]), ([3.0], [0, 2**64]), ([3.0], [0, 1.5]), ([3.0, -1.0], [0])],
    )
    def test_every_seed_and_weight_is_checked_before_any_run(self, monkeypatch, weights, seeds):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(harness, "run_scenario", no_run)
        with pytest.raises(ValidationError):
            run_sweep(SweepSpec(levy_weights=weights, seeds=seeds, max_steps=5))


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

    def test_repeats_are_named_up_to_three(self):
        spec = SweepSpec(levy_weights=[1.5, 2.0, 1.5, 3.0, 2.0, 5.0, 3.0, 5.0], seeds=[0])
        with pytest.raises(ValidationError) as error:
            spec.validate()
        assert str(error.value) == (
            "sweep levy_weights must be distinct, 4 repeated: 1.5, 2.0, 3.0, ..."
        )
        with pytest.raises(ValidationError, match=r"1 repeated: 'abc'$"):
            compare_algorithms(["abc", "hybrid", "abc"], seeds=[0])
