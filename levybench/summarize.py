"""Run the benchmark over several seeds and record medians and quartiles.

    python3 levybench/summarize.py --out levybench/results/baseline.json

runs ``run.py --trace 0`` once per seed of ``baseline_seeds`` in plan.json
on each workload of BENCHMARK.json, one at a time, then one traced run per
workload, and writes each end-to-end metric's median,
quartiles and sample count, the traced per-layer values, the raw results,
and the machine (core count, Python and numpy versions).  It also prints each
metric's spread (quartile distance over median) against the bound in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PLAN = json.loads((HERE / "plan.json").read_text())


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: its JSON result and, untraced, its detail line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    detail = [json.loads(line[len("detail "):]) for line in lines if line.startswith("detail ")]
    return json.loads(lines[-1]), detail[0] if detail else {}


def summary(values: list[float], unit: str) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "unit": unit,
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "spread": (q3 - q1) / median if median else 0.0,
    }


def detail_summary(details: list[dict]) -> dict:
    """Raw wall-clock figures across seeds; per-algorithm ones use each run's median."""
    units = {
        "runs_per_s": "1/s", "cli_factor": "ratio", "us_per_step": "us", "step_cost": "cal",
        "n": "runs", "setup_wall_s": "s", "cal_ms": "ms",
    }
    out = {}
    for name in details[0]:
        if name in ("runs", "reps", "setup_samples"):
            continue
        values = [d[name][1] if isinstance(d[name], list) else d[name] for d in details]
        out[name] = summary(values, units[name.split(".")[0]])
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = PLAN["baseline_seeds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    import numpy

    report = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
        "run_seconds": config["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    for workload in (w["name"] for w in config["workloads"]):
        runs = [bench(workload, s, config["run_seconds"], 0) for s in seeds]
        results = [result for result, _ in runs]
        traced, _ = bench(workload, seeds[0], config["run_seconds"], 1)
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "correct": all(r["correct"] for r in results) and traced["correct"],
            "end_to_end": {
                name: summary([r["metrics"][name]["value"] for r in results],
                              results[0]["metrics"][name]["unit"])
                for name in bounds
            },
            "wall_clock": detail_summary([detail for _, detail in runs]),
            "per_layer": {
                "seed": seeds[0],
                **{k: [v["value"], v["unit"]] for k, v in traced["metrics"].items()},
            },
            "raw": [r["metrics"] for r in results],
        }
        report["workloads"][workload] = entry
        print(f"{workload}: correct={entry['correct']} failed={entry['failed']}/{entry['attempted']}")
        for name, s in entry["end_to_end"].items():
            flag = "" if name == "setup_s" or s["spread"] < bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {name:26s} median={s['median']:.6g} {s['unit']:6s} "
                  f"spread={s['spread']:.4f} bound={bounds[name]}{flag}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
