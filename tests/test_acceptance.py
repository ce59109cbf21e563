"""Acceptance gate: the nine benchmark-level guarantees, one test per criterion.

Criteria 1 and 2 run the two headline experiments (the flight-scale sweep on
the uniform layout and the three-algorithm comparison on the two-cluster
layout) at full benchmark size with trajectories recorded; criteria 3, 4, 8
and 9 audit every one of those runs.  Criteria 5-7 are standalone checks of
the sampler, the small-instance oracles, and byte-level determinism.

Each test finishes with one printed PASS line carrying the measured numbers
(visible with ``pytest -v -s`` or in captured output).
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from levyswarm.cli import main
from levyswarm.harness import SweepSpec, compare_algorithms, run_sweep
from levyswarm.optimizers import FitnessField, nectar_probabilities
from levyswarm.rng import RandomSource, levy_step, mantegna_sigma
from levyswarm.world import GridConfig, Hotspot

SWEEP_VALUES = [1.5, 2.0, 2.5, 3.0, 5.0]
SEEDS = list(range(20))
MAX_STEPS = 5000
SWEEP_TIME_BUDGET_S = 120.0
N_UAVS = 5
COLLISION_RADIUS = 1.0
MAX_STEP = 5.0

# Mantegna numerator-Gaussian scale, frozen from an independent 50-digit
# gamma-function evaluation (with IEEE double sin/pi/powers, which is what
# the production formula uses; the beta = 2 entry is the IEEE value of the
# analytic zero).
SIGMA_ORACLE = {
    0.5: 1.4793375595943192,
    1.0: 1.0,
    1.5: 0.6965745025576968,
    2.0: 9.884972298779197e-09,
}


@pytest.fixture(scope="session")
def levy_weight_sweep():
    spec = SweepSpec(
        preset="uniform20",
        levy_weights=list(SWEEP_VALUES),
        seeds=list(SEEDS),
        max_steps=MAX_STEPS,
        record_trajectories=True,
    )
    started = time.perf_counter()
    sweep = run_sweep(spec, workers=1)
    elapsed = time.perf_counter() - started
    return sweep, elapsed


@pytest.fixture(scope="session")
def algorithm_comparison():
    return compare_algorithms(
        ["hybrid-abc-levy", "abc", "pso"],
        preset="twocluster20",
        seeds=SEEDS,
        max_steps=MAX_STEPS,
        workers=1,
        record_trajectories=True,
    )


@pytest.fixture(scope="session")
def audited_runs(levy_weight_sweep, algorithm_comparison):
    sweep, _ = levy_weight_sweep
    return list(sweep.results) + list(algorithm_comparison.results)


def pairwise_minima(trajectory: np.ndarray) -> np.ndarray:
    """Per-step minimum pairwise distance over a (steps, n, 2) trajectory."""
    diff = trajectory[:, :, None, :] - trajectory[:, None, :, :]
    d = np.hypot(diff[..., 0], diff[..., 1])
    i, j = np.triu_indices(trajectory.shape[1], k=1)
    return d[:, i, j].min(axis=1)


def test_criterion_1_flight_scale_ordering(levy_weight_sweep):
    sweep, elapsed = levy_weight_sweep
    medians = {value: sweep.cell_for(value).median_steps for value in SWEEP_VALUES}
    best = min(medians.values())
    assert medians[3.0] < medians[5.0], medians
    assert medians[3.0] <= 1.10 * best, medians
    assert elapsed < SWEEP_TIME_BUDGET_S, f"sweep took {elapsed:.1f}s"
    print(
        f"criterion 1 PASS: medians {medians}; 3.0 beats 5.0 by "
        f"{medians[5.0] - medians[3.0]:.1f} steps; 100 runs in {elapsed:.1f}s"
    )


def test_criterion_2_baselines_stall_on_far_cluster(algorithm_comparison):
    rates = algorithm_comparison.success_rates
    hybrid, abc, pso = rates["hybrid-abc-levy"], rates["abc"], rates["pso"]
    assert hybrid - abc >= 0.20, rates
    assert hybrid - pso >= 0.20, rates
    hybrid_rows = [
        row for row in algorithm_comparison.rows if row.algorithm == "hybrid-abc-levy"
    ]
    assert len(hybrid_rows) == len(SEEDS)
    assert all(row.far_covered >= 1 for row in hybrid_rows), [
        (row.seed, row.far_covered) for row in hybrid_rows
    ]
    print(
        f"criterion 2 PASS: success rates hybrid={hybrid:.2f} abc={abc:.2f} "
        f"pso={pso:.2f}; min far-cluster hotspots per hybrid run = "
        f"{min(row.far_covered for row in hybrid_rows)}"
    )


def test_criterion_3_collision_safety(audited_runs):
    worst = math.inf
    for result in audited_runs:
        separation = float(pairwise_minima(result.trajectories).min())
        worst = min(worst, separation)
        assert separation >= COLLISION_RADIUS, (
            result.config.algorithm.value,
            result.config.seed,
            separation,
        )
    print(
        f"criterion 3 PASS: min pairwise distance over {len(audited_runs)} runs "
        f"= {worst:.6f} >= {COLLISION_RADIUS}"
    )


def test_criterion_4_containment_and_step_cap(audited_runs):
    largest = 0.0
    for result in audited_runs:
        traj = result.trajectories
        assert np.all(traj >= 0.0) and np.all(traj <= 100.0), (
            result.config.algorithm.value,
            result.config.seed,
        )
        delta = traj[1:] - traj[:-1]
        moved = np.hypot(delta[..., 0], delta[..., 1])
        caps = np.where(result.collision_mask, 2.0 * MAX_STEP, MAX_STEP)
        assert moved.shape == caps.shape
        assert np.all(moved <= caps), (
            result.config.algorithm.value,
            result.config.seed,
            float((moved - caps).max()),
        )
        largest = max(largest, float(moved.max()))
    print(
        f"criterion 4 PASS: all positions in [0,100]^2; max per-step displacement "
        f"{largest:.6f} <= {2.0 * MAX_STEP} (uncontested steps <= {MAX_STEP}); exact"
    )


def test_criterion_5_heavy_tail_sampler():
    for beta, oracle in SIGMA_ORACLE.items():
        got = mantegna_sigma(beta)
        assert got == pytest.approx(oracle, rel=1e-12), (beta, got, oracle)
    assert abs(mantegna_sigma(1.0) - 1.0) <= 1e-12

    src = RandomSource(seed=2024, stream_id=0)
    samples = np.array(
        [levy_step(src, 1.0, 1.5).vector for _ in range(100_000)]
    ).ravel()
    centered = samples - samples.mean()
    kurtosis = float(np.mean(centered**4) / np.mean(centered**2) ** 2 - 3.0)
    assert kurtosis > 10.0, kurtosis

    from scipy.stats import binomtest

    nonzero = samples[samples != 0.0]
    p_value = binomtest(int((nonzero > 0).sum()), len(nonzero), 0.5).pvalue
    assert p_value > 0.001, p_value
    print(
        f"criterion 5 PASS: sigma matches oracle to 1e-12 for beta in "
        f"{sorted(SIGMA_ORACLE)}; excess kurtosis {kurtosis:.1f} > 10; "
        f"sign-test p = {p_value:.3f} > 0.001"
    )


def test_criterion_6_small_instance_oracles():
    hotspots = [
        Hotspot(position=np.array([1.0, 1.0]), weight=1.0),
        Hotspot(position=np.array([4.0, 2.0]), weight=2.0),
        Hotspot(position=np.array([3.0, 5.0]), weight=0.5, covered=True),
    ]
    grid = GridConfig(width=5, height=5)
    field = FitnessField(hotspots, coverage_radius=3.0)
    checked = 0
    for x in range(grid.width + 1):
        for y in range(grid.height + 1):
            brute = sum(
                h.weight
                for h in hotspots
                if not h.covered
                and math.hypot(h.position[0] - x, h.position[1] - y) <= 3.0
            )
            assert field.value([float(x), float(y)]) == brute, (x, y)
            checked += 1
    assert checked == 36

    probs = nectar_probabilities([1.0, 3.0])
    assert np.allclose(probs, [0.25, 0.75], rtol=0.0, atol=1e-12)
    print(
        "criterion 6 PASS: fitness equals brute-force sum at all 36 lattice "
        "points exactly; nectar [1,3] -> [0.25, 0.75] within 1e-12"
    )


def test_criterion_7_byte_identical_artifacts(tmp_path):
    run_args = ["run", "--preset", "twocluster20", "--seed", "3", "--max-steps", "200"]
    assert main([*run_args, "--out", str(tmp_path / "run_a")]) == 0
    assert main([*run_args, "--out", str(tmp_path / "run_b")]) == 0
    run_files = ["runs.csv", "heatmap.pgm", "heatmap.csv", "coverage_curve.csv"]
    for name in run_files:
        a = (tmp_path / "run_a" / name).read_bytes()
        b = (tmp_path / "run_b" / name).read_bytes()
        assert a == b, f"{name} differs between reruns"

    sweep_args = ["sweep", "--values", "3.0", "--seeds", "0,1", "--max-steps", "200"]
    assert main([*sweep_args, "--out", str(tmp_path / "sweep_a")]) == 0
    assert main([*sweep_args, "--out", str(tmp_path / "sweep_b")]) == 0
    sweep_files = ["runs.csv", "summary.csv", "heatmap_3.0.pgm", "heatmap_3.0.csv"]
    for name in sweep_files:
        a = (tmp_path / "sweep_a" / name).read_bytes()
        b = (tmp_path / "sweep_b" / name).read_bytes()
        assert a == b, f"{name} differs between sweep reruns"
    print(
        f"criterion 7 PASS: {len(run_files)} run artifacts and {len(sweep_files)} "
        "sweep artifacts byte-identical across reruns"
    )


def test_criterion_8_heatmap_accounting(audited_runs):
    for result in audited_runs:
        m = result.metrics
        assert m.heatmap.total() == N_UAVS * m.recorded_steps, (
            result.config.algorithm.value,
            result.config.seed,
            m.heatmap.total(),
            m.recorded_steps,
        )
    print(
        f"criterion 8 PASS: heatmap total == {N_UAVS} x recorded steps on all "
        f"{len(audited_runs)} runs, exact"
    )


def test_criterion_9_coverage_monotone_and_terminates(levy_weight_sweep, audited_runs):
    for result in audited_runs:
        curve = result.metrics.coverage_curve
        assert all(b[1] >= a[1] for a, b in zip(curve, curve[1:])), (
            result.config.algorithm.value,
            result.config.seed,
        )

    sweep, _ = levy_weight_sweep
    cell = sweep.cell_for(3.0)
    successes = sum(m.covered_all for m in cell.runs)
    assert successes >= 19, successes
    # Pinned on first full-suite execution: every seed terminates early.
    assert successes == 20, successes
    slowest = max(m.steps_to_cover for m in cell.runs)
    assert slowest < MAX_STEPS
    print(
        f"criterion 9 PASS: coverage curves nondecreasing on {len(audited_runs)} "
        f"runs; flight scale 3.0 covered 20/20 seeds, slowest {slowest} steps "
        f"< {MAX_STEPS}"
    )
