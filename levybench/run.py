"""levyswarm benchmark: drives the ``levyswarm`` CLI in-process on generated inputs.

Run from the repository root:

    python3 levybench/run.py --workload sweep-uniform20 --seed 1 --seconds 25 --trace 0

The seed fixes every input (see workloads.py).  After set-up, the run repeats
the workload's job list until ``--seconds`` have passed (at least twice),
checks every simulated run and its artifacts, and prints a fingerprint of the
artifact bytes for each repetition; a fingerprint that changes between
repetitions counts as a failure.  The last line of stdout is one JSON object:

* ``--trace 0``: the end-to-end metrics, timed with tracing off.  A short
  calibration loop runs every 25 ms inside each simulated run, and
  ``step_cost`` divides the run's time per step by that loop's mean time,
  which cancels most of the CPU-speed drift of a shared machine.
* ``--trace 1``: untraced and traced repetitions in turn, at least two of
  each; the traced ones have spans around levyswarm's public functions
  (spans.py).  Reports per-layer self time and counts, the tracing overhead
  (traced over untraced calibrated repetition time), and fails if a span the
  plan expects on this workload saw no calls or a count differs between
  traced repetitions.

``python3 levybench/summarize.py`` runs the benchmark over many seeds and
writes medians and quartiles to ``levybench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".levybench-work"
PLAN = json.loads((HERE / "plan.json").read_text())

MIN_REPS = 2
MIN_TRACED_REPS = 2
SETUP_SAMPLES = 7
CALIBRATION_ITERS = 100
# The CPU speed of a shared machine changes within a tenth of a second (the
# calibration loop reads 0.8-1.9 ms from one moment to the next), so it is
# sampled this often during each simulated run.
PROBE_INTERVAL_S = 0.025
# Set-up times are reported at this calibration-loop time (about its median
# on the baseline machine), so that they do not drift with the CPU speed.
CALIBRATION_REFERENCE_S = 0.0015
HYBRID = "hybrid-abc-levy"


def setup(workload: str, seed: int, workdir: Path):
    """Import levyswarm, then build and validate the workload's inputs.

    Returns the set-up time in seconds, the same time over the calibration
    loop's mean time during as long again right after it, the package and
    the jobs.
    """
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import levyswarm
    import levyswarm.cli

    if Path(levyswarm.__file__).resolve().parent != (SRC / "levyswarm").resolve():
        raise ImportError(f"levyswarm imported from {levyswarm.__file__}, not {SRC}")
    jobs = workloads.WORKLOADS[workload](levyswarm, seed, workdir)
    wall = time.perf_counter() - start
    import numpy as np

    return wall, wall / calibrate_for(np, wall), levyswarm, jobs


def setup_in_child(workload: str, seed: int) -> tuple[float, float]:
    """One more set-up in a fresh interpreter, so the import is cold again."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a child process failed:\n{proc.stderr}")
    wall, calibrated = proc.stdout.strip().splitlines()[-1].split()
    return float(wall), float(calibrated)


def calibration_loop(np) -> float:
    """Fixed mix of interpreter work and tiny numpy calls, like a simulation step."""
    v = np.array([0.3, 0.4])
    hi = np.array([100.0, 100.0])
    acc = 0.0
    for i in range(CALIBRATION_ITERS):
        d = float(np.hypot(v[0], v[1]))
        acc += d if i % 3 else -d
        w = np.clip(v + 0.25, 0.0, hi)
        if not np.array_equal(w, v):
            v = w * 0.5
    return acc


def calibrate_for(np, seconds: float) -> float:
    """Mean time of back-to-back calibration loops over about ``seconds``."""
    times = []
    end = time.perf_counter() + seconds
    while not times or time.perf_counter() < end:
        start = time.perf_counter()
        calibration_loop(np)
        times.append(time.perf_counter() - start)
    return statistics.mean(times)


class Recorder:
    """Times each simulated run, samples the CPU speed inside it, keeps its result.

    Wraps two harness bindings.  ``run_scenario``: the run's time, less the
    probes made in it.  ``mark_coverage``, called once per step: a probe (one
    calibration loop) when PROBE_INTERVAL_S has passed since the last one.
    A run's calibration is the mean of its probes, one of them at its start.
    Installed over the span wrappers of a traced repetition; the tracer
    takes the probes out of the self time of the span they fall in.
    """

    def __init__(self, levyswarm, np, tracer=None):
        self._harness = levyswarm.harness
        self._np = np
        self._tracer = tracer
        self._originals = {}
        self._probes = []
        self._last_probe = 0.0
        self.records = []  # (RunResult, wall_s, calibration_s)
        self.calibration_s = 0.0

    def _probe(self):
        start = time.perf_counter()
        calibration_loop(self._np)
        self._last_probe = time.perf_counter()
        elapsed = self._last_probe - start
        self._probes.append(elapsed)
        self.calibration_s += elapsed
        if self._tracer is not None:
            self._tracer.exclude(elapsed)

    def install(self):
        harness = self._harness
        run = self._originals["run_scenario"] = harness.__dict__["run_scenario"]
        mark = self._originals["mark_coverage"] = harness.__dict__["mark_coverage"]
        recorder = self

        def probed(*args, **kwargs):
            if time.perf_counter() - recorder._last_probe >= PROBE_INTERVAL_S:
                recorder._probe()
            return mark(*args, **kwargs)

        def timed(*args, **kwargs):
            recorder._probes.clear()
            recorder._probe()
            start = time.perf_counter()
            result = run(*args, **kwargs)
            wall = time.perf_counter() - start - sum(recorder._probes[1:])
            recorder.records.append((result, wall, statistics.mean(recorder._probes)))
            return result

        harness.run_scenario = timed
        harness.mark_coverage = probed

    def uninstall(self):
        for name, original in self._originals.items():
            setattr(self._harness, name, original)


def check_job(levyswarm, job, code, records, out: Path) -> list[str]:
    """Return one message per failed run of this job (empty when all pass)."""
    if code != 0:
        return [f"exit code {code}"] * job.runs
    if len(records) != job.runs:
        return [f"{len(records)} runs recorded, {job.runs} expected"] * job.runs
    try:
        rows = levyswarm.metrics.read_runs_csv(out / "runs.csv")
    except (OSError, ValueError) as exc:
        return [f"runs.csv unreadable: {exc}"] * job.runs
    by_key = {(r["algorithm"], r["levy_weight"], r["seed"]): r for r in rows}
    if len(rows) != job.runs or len(by_key) != job.runs:
        return [f"runs.csv has {len(rows)} rows, {job.runs} expected"] * job.runs
    traj_lines = None
    if "trajectories.csv" in job.hashed:
        try:
            with open(out / "trajectories.csv") as f:
                traj_lines = sum(1 for _ in f) - 1
        except OSError as exc:
            return [f"trajectories.csv unreadable: {exc}"] * job.runs

    failures = []
    for result, _, _ in records:
        m, cfg = result.metrics, result.config
        row = by_key.get((m.algorithm, m.levy_weight, m.seed))
        curve = m.coverage_curve
        problems = []
        if not m.min_pairwise_distance >= cfg.constraints.collision_radius:
            problems.append(f"min_pairwise_distance {m.min_pairwise_distance}")
        if any(b[0] <= a[0] or b[1] < a[1] for a, b in zip(curve, curve[1:])):
            problems.append("coverage curve decreases")
        if m.heatmap.total() != cfg.n_uavs * m.recorded_steps:
            problems.append(f"heatmap total {m.heatmap.total()}")
        if row is None or (
            row["steps_to_cover"], row["min_pairwise_distance"], row["collision_interventions"]
        ) != (m.steps_to_cover, m.min_pairwise_distance, m.collision_interventions):
            problems.append("runs.csv row does not match the run")
        if traj_lines is not None and traj_lines != cfg.n_uavs * m.recorded_steps:
            problems.append(f"trajectories.csv has {traj_lines} rows")
        if problems:
            failures.append(f"{m.scenario_id} {m.algorithm} seed {m.seed}: {'; '.join(problems)}")
    return failures


def run_rep(levyswarm, jobs, recorder, rep_dir: Path) -> dict:
    """Run every job once; return timings, behaviour and failures of the repetition."""
    digest = hashlib.sha256()
    rep = {"wall_s": 0.0, "runs": [], "failures": [], "attempted": 0}
    for k, job in enumerate(jobs):
        out = rep_dir / f"job{k}"
        recorder.records.clear()
        recorder.calibration_s = 0.0
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = levyswarm.cli.main(job.command(str(out)))
        except Exception:  # a crash is a failed job; keep measuring the others
            traceback.print_exc()
            code = "exception"
        rep["wall_s"] += time.perf_counter() - start - recorder.calibration_s
        rep["attempted"] += job.runs
        rep["failures"] += check_job(levyswarm, job, code, recorder.records, out)
        for name in job.hashed:
            path = out / name
            digest.update(path.read_bytes() if path.is_file() else b"<missing>")
        for result, wall, cal in recorder.records:
            m = result.metrics
            rep["runs"].append({
                "algorithm": m.algorithm,
                "wall_s": wall,
                "cal_s": cal,
                "steps": m.recorded_steps - 1,
                "censored_steps": result.config.max_steps if m.steps_to_cover is None
                else m.steps_to_cover,
                "covered": m.covered_count,
                "hotspots": m.n_hotspots,
            })
        shutil.rmtree(out, ignore_errors=True)
    rep["fingerprint"] = digest.hexdigest()
    rep["cal_s"] = statistics.median(r["cal_s"] for r in rep["runs"])
    return rep


def sim_metrics(rep) -> dict:
    runs = rep["runs"]
    # Over the hybrid runs only: ABC and PSO never reach the far cluster of
    # twocluster20, so their runs all stop at the cap and could hide a slower
    # hybrid.  The other workloads run only the hybrid.
    hybrid = [r["censored_steps"] for r in runs if r["algorithm"] == HYBRID]
    return {
        "sim.steps_to_cover.p50": statistics.median(hybrid),
        "sim.covered_fraction": sum(r["covered"] for r in runs) / sum(r["hotspots"] for r in runs),
    }


def quartiles(values) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def end_to_end(reps, setups) -> tuple[dict, dict]:
    """Gated metrics, and raw wall-clock detail that is printed but not gated.

    Wall-clock figures drift with the CPU speed of a shared machine (on a
    2-core VM, identical sweeps read 580-740 us/step minutes apart), so the
    gated timings are in calibration loops (``cal``): a run's steps count at
    the mean calibration time measured inside it, and each algorithm's cost
    is its total run time over its total calibrated steps.
    """
    runs = [r for rep in reps for r in rep["runs"] if r["steps"] > 0]
    by_algorithm = {}
    for r in runs:
        by_algorithm.setdefault(r["algorithm"], []).append(r)

    def cost(r):
        return r["wall_s"] / r["steps"] / r["cal_s"]

    costs = {
        a: sum(r["wall_s"] for r in mine) / sum(r["steps"] * r["cal_s"] for r in mine)
        for a, mine in by_algorithm.items()
    }
    steps = {a: sum(r["steps"] for r in mine) for a, mine in by_algorithm.items()}
    # Weighted by each algorithm's share of the steps.
    step_cost = sum(costs[a] * steps[a] for a in costs) / sum(steps.values())
    # Whole CLI commands over the simulated runs inside them: both times come
    # from the same moments, so the ratio does not drift with the CPU speed.
    cli_factor = sum(rep["wall_s"] for rep in reps) / sum(r["wall_s"] for r in runs)
    values = {
        "step_cost": (step_cost, "cal"),
        # Also counts argument parsing, scenario loading and artifact writes.
        "step_cost.cli": (step_cost * cli_factor, "cal"),
        # Each set-up over the calibration after it, at the reference speed.
        "setup_s": (CALIBRATION_REFERENCE_S * statistics.median(c for _, c in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    sim = sim_metrics(reps[0])
    values["sim.steps_to_cover.p50"] = (sim["sim.steps_to_cover.p50"], "steps")
    values["sim.covered_fraction"] = (sim["sim.covered_fraction"], "ratio")

    detail = {
        "runs": len(runs),
        "reps": len(reps),
        "setup_samples": len(setups),
        "setup_wall_s": statistics.median(w for w, _ in setups),
        "runs_per_s": len(runs) / sum(rep["wall_s"] for rep in reps),
        "cli_factor": cli_factor,
        "cal_ms": 1e3 * statistics.median(r["cal_s"] for r in runs),
        "us_per_step": 1e6 * sum(r["wall_s"] for r in runs) / sum(r["steps"] for r in runs),
    }
    for algorithm, mine in sorted(by_algorithm.items()):
        name = algorithm.split("-")[0]
        detail[f"us_per_step.{name}"] = quartiles([1e6 * r["wall_s"] / r["steps"] for r in mine])
        detail[f"step_cost.{name}"] = quartiles([cost(r) for r in mine])
        detail[f"n.{name}"] = len(mine)
    return values, detail


def layer_metrics(tracer) -> dict:
    """Per-layer numbers for one traced repetition."""
    stats, counts = tracer.stats, tracer.counts

    def total(*names):
        return sum(stats[n][1] for n in names)

    def calls(*names):
        return sum(stats[n][0] for n in names)

    out = {f"{layer}.self_s": 0.0 for layer in spans.LAYERS}
    for name, (_, _, self_s) in stats.items():
        out[name.split(".")[0] + ".self_s"] += self_s
    clamps = ("constraints.clamp_step", "constraints.clamp_boundary", "constraints.settle_within")
    repulsion = ("constraints.safe_zone_separation", "constraints.potential_field_repulsion")
    writers = (
        "metrics.write_runs_csv", "metrics.heatmap_to_pgm",
        "metrics.heatmap_to_csv", "metrics.write_coverage_curve",
    )
    out.update({
        "harness.run_scenario.calls": calls("harness.run_scenario"),
        "harness.run_scenario.self_s": stats["harness.run_scenario"][2],
        "optimizers.propose_step.self_s": stats["optimizers.propose_step"][2],
        "optimizers.propose_step.calls": calls("optimizers.propose_step"),
        "rng.levy_step.s": total("rng.levy_step"),
        "rng.levy_step.calls": calls("rng.levy_step"),
        "optimizers.FitnessField.value.s": total("optimizers.FitnessField.value"),
        "optimizers.FitnessField.value.calls": calls("optimizers.FitnessField.value"),
        "constraints.resolve_collisions.s": total("constraints.resolve_collisions"),
        "constraints.resolve_collisions.calls": calls("constraints.resolve_collisions"),
        "constraints.soft_repulsion.s": total(*repulsion),
        "constraints.soft_repulsion.calls": calls(*repulsion),
        "constraints.clamp.s": total(*clamps),
        "constraints.clamp.calls": calls(*clamps),
        "constraints.escape_no_hotspot_zone.calls": calls("constraints.escape_no_hotspot_zone"),
        "world.mark_coverage.s": total("world.mark_coverage"),
        "world.mark_coverage.calls": calls("world.mark_coverage"),
        "world.load_scenario.s": total("world.load_scenario"),
        "metrics.write.s": total(*writers),
        "metrics.Heatmap.record.s": total("metrics.Heatmap.record"),
    })
    out.update(counts)
    return out


def per_layer(reps, layer_reps) -> tuple[dict, list[str]]:
    """Median times over traced repetitions; counts must repeat exactly.

    The overhead compares the untraced (even) and traced (odd) repetitions by
    their time over their median calibration, so CPU-speed drift between
    repetitions cancels; ``trace.overhead_s`` applies that ratio to the
    untraced repetition time.
    """
    messages = []
    values = {}
    for name in layer_reps[0]:
        series = [rep[name] for rep in layer_reps]
        if isinstance(series[0], int):
            if len(set(series)) != 1:
                messages.append(f"count {name} differs between repetitions: {series}")
            values[name] = series[0]
        else:
            values[name] = statistics.median(series)

    def cost(group):
        return statistics.median(rep["wall_s"] / rep["cal_s"] for rep in group)

    ratio = cost(reps[1::2]) / cost(reps[0::2])
    untraced_s = statistics.median(rep["wall_s"] for rep in reps[0::2])
    values["trace.untraced_rep_s"] = untraced_s
    values["trace.overhead_s"] = (ratio - 1.0) * untraced_s
    values["trace.overhead_pct"] = 100.0 * (ratio - 1.0)
    return values, messages


def layer_unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    return "s" if name.endswith(("_s", ".s")) else "count"


def span_check(workload: str, values: dict) -> list[str]:
    """Every span the plan names for this workload must have seen work."""
    return [
        f"span check: {row['metric']} is 0 on {workload}; a wrapper may sit on a stale binding"
        for row in PLAN["layer_metrics"]
        if workload in row["nonzero_on"] and not values[row["metric"]] > 0
    ]


def measure(args, workdir: Path) -> dict:
    wall, calibrated, levyswarm, jobs = setup(args.workload, args.seed, workdir / "inputs")
    setups = [(wall, calibrated)] + [
        setup_in_child(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
    ]
    import numpy as np

    tracer = spans.Tracer(levyswarm) if args.trace else None
    recorder = Recorder(levyswarm, np, tracer)
    # A traced run alternates untraced and traced repetitions.
    step = 2 if tracer else 1
    min_reps = 2 * MIN_TRACED_REPS if tracer else MIN_REPS

    def another_rep() -> bool:
        done = len(reps)
        if done < min_reps or done % step:
            return True
        # Start more only if they still fit at the average repetition length.
        return (time.perf_counter() - start) * (done + step) / done <= args.seconds

    reps, layer_reps = [], []
    start = time.perf_counter()
    while another_rep():
        traced = tracer is not None and len(reps) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        recorder.install()
        try:
            rep = run_rep(levyswarm, jobs, recorder, workdir / f"rep{len(reps)}")
        finally:
            recorder.uninstall()
            if traced:
                tracer.uninstall()
        if traced:
            layer_reps.append(layer_metrics(tracer))
        reps.append(rep)
        print(
            f"rep {len(reps)}{' traced' if traced else ''}: "
            f"fingerprint sha256={rep['fingerprint']} runs={len(rep['runs'])} "
            f"failed={len(rep['failures'])} wall={rep['wall_s']:.3f}s",
            flush=True,
        )
    failures = [msg for rep in reps for msg in rep["failures"]]
    attempted = sum(rep["attempted"] for rep in reps)
    failed = len(failures)
    first = reps[0]
    for rep in reps[1:]:
        if rep["fingerprint"] != first["fingerprint"] or sim_metrics(rep) != sim_metrics(first):
            failures.append("behaviour differs between repetitions (fingerprint or sim metrics)")
            failed += len(rep["runs"]) or 1
    failed = min(failed, attempted)

    if tracer is None:
        values, detail = end_to_end(reps, setups)
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
        print("detail " + json.dumps(detail))
        problems = []
    else:
        values, problems = per_layer(reps, layer_reps)
        problems += span_check(args.workload, values)
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in values.items()}
    for msg in failures + problems:
        print(msg, file=sys.stderr)
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']!r} {entry['unit']}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "levyswarm" / "__init__.py").is_file():
        print(f"levybench: no levyswarm sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK, prefix=f"{args.workload}-"))
    try:
        (workdir / "inputs").mkdir()
        if args.setup_only:
            wall, calibrated = setup(args.workload, args.seed, workdir / "inputs")[:2]
            print(wall, calibrated)
            return 0
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
