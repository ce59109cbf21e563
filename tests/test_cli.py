"""Command-line interface: subcommands, artifacts, exit codes."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from levyswarm import harness
from levyswarm.cli import (
    EXIT_INVALID,
    EXIT_IO,
    EXIT_NOT_COVERED,
    EXIT_OK,
    _parse_seeds,
    _parse_values,
    main,
)
from levyswarm.harness import run_scenario
from levyswarm.metrics import heatmap_from_csv, read_runs_csv
from levyswarm.world import _POSITIVE, _RANGES, ValidationError, preset_scenario, save_scenario


class TestArgHelpers:
    def test_seed_count_expands_to_range(self):
        assert _parse_seeds("12") == list(range(12))

    def test_seed_list_passes_through(self):
        assert _parse_seeds("3,7,9") == [3, 7, 9]

    def test_values_parse(self):
        assert _parse_values("1.5,2.0,5") == [1.5, 2.0, 5.0]


class TestRunCommand:
    def test_preset_run_reports_and_exits_zero(self, capsys):
        code = main(["run", "--preset", "uniform20", "--seed", "0", "--max-steps", "30"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "scenario=uniform20" in out
        assert "seed=0" in out
        assert "algorithm=hybrid-abc-levy" in out

    def test_artifacts_written_and_parseable(self, tmp_path):
        out_dir = tmp_path / "artifacts"
        code = main(
            [
                "run", "--preset", "uniform20", "--seed", "1", "--max-steps", "25",
                "--out", str(out_dir), "--trajectories",
            ]
        )
        assert code == EXIT_OK
        rows = read_runs_csv(out_dir / "runs.csv")
        assert len(rows) == 1
        assert rows[0]["seed"] == 1
        assert rows[0]["algorithm"] == "hybrid-abc-levy"
        assert (out_dir / "heatmap.pgm").read_text().startswith("P2\n100 100\n255\n")
        heat = heatmap_from_csv(out_dir / "heatmap.csv")
        assert heat.counts.shape == (100, 100)
        curve = (out_dir / "coverage_curve.csv").read_text().splitlines()
        assert curve[0] == "step,covered_count"
        assert len(curve) >= 2
        traj = (out_dir / "trajectories.csv").read_text().splitlines()
        assert traj[0] == "step,uav,x,y"
        assert len(traj) == 1 + 5 * len(curve[1:])  # n_uavs rows per recorded step
        expected = run_scenario(
            preset_scenario("uniform20", 1, max_steps=25), record_trajectories=True
        ).trajectories
        for line in traj[1:]:
            step, uav, x, y = line.split(",")
            assert [float(x), float(y)] == expected[int(step), int(uav)].tolist()

    def test_rerun_writes_identical_bytes(self, tmp_path):
        args = ["run", "--preset", "twocluster20", "--seed", "4", "--max-steps", "25"]
        assert main([*args, "--out", str(tmp_path / "a")]) == EXIT_OK
        assert main([*args, "--out", str(tmp_path / "b")]) == EXIT_OK
        for name in ("runs.csv", "heatmap.pgm", "heatmap.csv", "coverage_curve.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_require_coverage_exit_code(self, capsys):
        code = main(
            [
                "run", "--preset", "uniform20", "--seed", "0", "--max-steps", "1",
                "--require-coverage",
            ]
        )
        assert code == EXIT_NOT_COVERED
        assert "coverage incomplete" in capsys.readouterr().err

    def test_scenario_file_run_with_algorithm_override(self, tmp_path):
        path = tmp_path / "layout.json"
        save_scenario(preset_scenario("uniform20", seed=2, max_steps=15), path)
        out_dir = tmp_path / "out"
        code = main(
            ["run", "--scenario", str(path), "--algorithm", "abc", "--out", str(out_dir)]
        )
        assert code == EXIT_OK
        assert read_runs_csv(out_dir / "runs.csv")[0]["algorithm"] == "abc"

    def test_seed_override_rebuilds_preset_layout(self, tmp_path, capsys):
        path = tmp_path / "layout.json"
        save_scenario(preset_scenario("uniform20", seed=2, max_steps=15), path)
        code = main(["run", "--scenario", str(path), "--seed", "9", "--max-steps", "10"])
        assert code == EXIT_OK
        assert "seed=9" in capsys.readouterr().out

    def test_seed_override_keeps_the_file_fields(self, tmp_path):
        config = preset_scenario(
            "uniform20", seed=2, max_steps=10, n_uavs=3, start_position=[10.0, 10.0]
        )
        path = tmp_path / "layout.json"
        save_scenario(config, path)
        out_dir = tmp_path / "out"
        args = ["run", "--scenario", str(path), "--seed", "4", "--out", str(out_dir)]
        assert main([*args, "--trajectories"]) == EXIT_OK
        expected = preset_scenario(
            "uniform20", seed=4, max_steps=10, n_uavs=3, start_position=[10.0, 10.0]
        )
        trajectories = run_scenario(expected, record_trajectories=True).trajectories
        rows = (out_dir / "trajectories.csv").read_text().splitlines()[1:]
        assert [[float(v) for v in row.split(",")[2:]] for row in rows] == (
            trajectories.reshape(-1, 2).tolist()
        )

    def test_unknown_preset_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--preset", "uniform21"])
        assert excinfo.value.code == 2

    def test_invalid_configuration_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"hotspots": [{"x": 1, "y": 1}], "n_uavs": 0}))
        assert main(["run", "--scenario", str(path)]) == EXIT_INVALID
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields",
        [
            {"grid": {"depth": 1}},
            {"grid": [100, 100]},
            {"params": [1]},
            {"params": {"pso": {"foo": 1}}},
            {"params": {"pso": [1]}},
            {"constraints": "tight"},
            {"hotspots": 5},
            {"hotspots": [{"x": 1, "y": 1, "weight": [1]}]},
            {"n_uavs": [5]},
            {"seed": None},
            {"start": {"x": 1}},
            {"start": "50"},
            {"start": ["50", "0"]},
            {"start": [50, 0, 7]},
            {"dt": "0.5"},
            {"dt": 10**400},
            {"hotspots": [{"x": "10", "y": 1}]},
            {"hotspots": [{"x": True, "y": 1}]},
            {"hotspots": [{"x": 1, "y": 1, "weight": "2"}]},
            {"hotspots": [{"x": 1, "y": 1, "covered": False}]},
            {"hotspots": [5]},
            5,
            [{"x": 1, "y": 1}],
            {"scenario_id": [1, 2]},
            {"kind": "foo"},
            # No exploit_sign or shaping key: the sign of exploit_coeff and
            # a shaping_epsilon above 0 (never below) say the same.
            {"params": {"exploit_sign": -1}},
            {"params": {"shaping": True}},
            {"params": {"shaping_epsilon": -0.01}},
        ],
    )
    def test_wrong_shape_scenario_exits_one(self, tmp_path, capsys, fields):
        path = tmp_path / "bad.json"
        if isinstance(fields, dict):
            fields = {"hotspots": [{"x": 1, "y": 1}], **fields}
        path.write_text(json.dumps(fields))
        assert main(["validate", "--scenario", str(path)]) == EXIT_INVALID
        assert main(["run", "--scenario", str(path)]) == EXIT_INVALID
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields",
        [
            {"kind": "custom"},
            {"kind": "uniform", "n_hotspots": 3, "hotspots": [{"x": 1, "y": 1}]},
            {"hotspots": [{"x": 1, "y": 1}], "n_hotspots": 7},
        ],
        ids=["custom_kind", "hotspots_and_kind", "hotspots_and_count"],
    )
    def test_layout_stated_two_ways_exits_one(self, tmp_path, capsys, fields):
        # A file lists its hotspots or names a generated layout, never both;
        # "custom" is no kind.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"max_steps": 5, **fields}))
        assert main(["validate", "--scenario", str(path)]) == EXIT_INVALID
        assert main(["run", "--scenario", str(path)]) == EXIT_INVALID
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields",
        [
            {"constraints": {"max_step_size": math.inf}},
            {"constraints": {"coverage_radius": math.inf}},
            {"constraints": {"potential_field_gain": math.inf}},
            {"constraints": {"safe_zone_radius": math.nan}},
            {"params": {"levy_weight": math.inf}},
            {"params": {"explore_coeff": math.nan}},
            {"params": {"pso": {"inertia": -math.inf}}},
            {"params": {"levy_weight": "3"}},
            {"dt": math.inf},
            {"hotspots": [{"x": 1, "y": 1, "weight": math.inf}]},
        ],
    )
    def test_non_finite_value_exits_one(self, tmp_path, capsys, fields):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"hotspots": [{"x": 1, "y": 1}], "max_steps": 5, **fields}))
        assert main(["run", "--scenario", str(path)]) == EXIT_INVALID
        assert "must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields",
        [
            {"params": {"stagnation_limit": "5"}},
            {"params": {"stagnation_limit": True}},
            {"params": {"stagnation_limit": 2.5}},
            {"params": {"adaptive_lambda": 1}},
            {"params": {"adaptive_lambda": "no"}},
            {"params": {"mantegna_normalized": "false"}},
            {"params": {"mantegna_normalized": 0}},
            {"n_uavs": 2.7},
            {"n_uavs": "5"},
            {"max_steps": True},
            {"seed": 1.5},
            {"grid": {"height": True}},
            {"hotspots": None, "kind": "uniform", "n_hotspots": 2.5},
        ],
    )
    def test_wrongly_typed_int_or_bool_exits_one(self, tmp_path, capsys, fields):
        scenario = {"hotspots": [{"x": 1, "y": 1}], "max_steps": 5, **fields}
        if scenario["hotspots"] is None:
            del scenario["hotspots"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scenario))
        assert main(["run", "--scenario", str(path)]) == EXIT_INVALID
        assert "error:" in capsys.readouterr().err

    def test_integral_floats_load_as_ints(self, tmp_path):
        path = tmp_path / "floats.json"
        path.write_text(
            json.dumps(
                {
                    "hotspots": [{"x": 1, "y": 1}],
                    "n_uavs": 3.0,
                    "max_steps": 5.0,
                    "seed": 2.0,
                    "params": {"stagnation_limit": 50.0},
                }
            )
        )
        assert main(["run", "--scenario", str(path)]) == EXIT_OK

    @pytest.mark.parametrize("beta, code", [(1e-3, EXIT_OK), (1e-4, EXIT_INVALID)])
    def test_tiny_levy_beta_runs_or_is_rejected(self, tmp_path, capsys, beta, code):
        path = tmp_path / "tiny-beta.json"
        path.write_text(
            json.dumps(
                {"hotspots": [{"x": 50, "y": 90}], "max_steps": 40, "params": {"levy_beta": beta}}
            )
        )
        assert main(["run", "--scenario", str(path)]) == code
        if code == EXIT_INVALID:
            assert "error:" in capsys.readouterr().err

    def test_large_sigma_sensitivity_runs(self, tmp_path):
        # The adaptive gate's exp overflows at this sensitivity; validate()
        # accepts it, so the run must complete.
        path = tmp_path / "sharp-gate.json"
        path.write_text(
            json.dumps(
                {
                    "kind": "uniform", "n_hotspots": 20, "seed": 0, "max_steps": 300,
                    "params": {"adaptive_lambda": True, "sigma_sensitivity": 1000},
                }
            )
        )
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK

    @pytest.mark.parametrize(
        "path, name, algorithm",
        [
            (("params", "pso"), "inertia", "pso"),
            (("params", "pso"), "cognitive", "pso"),
            (("params", "pso"), "social", "pso"),
            (("constraints",), "potential_field_gain", "pso"),
            (("params",), "explore_coeff", "hybrid"),
            (("params",), "exploit_coeff", "hybrid"),
            (("params",), "levy_weight", "hybrid"),
            (("params",), "shaping_epsilon", "abc"),
            (("hotspots", 0), "weight", "abc"),
            (("constraints",), "safe_zone_radius", "hybrid"),
            (("constraints",), "safe_zone_radius", "abc"),
            (("constraints",), "safe_zone_radius", "pso"),
            (("constraints",), "max_step_size", "hybrid"),
        ],
    )
    def test_coefficient_at_its_cap_runs(self, tmp_path, path, name, algorithm):
        bounds = _RANGES[name]
        if name == "shaping_epsilon":
            # validate() holds epsilon * sum(w) below min(w), so the largest
            # accepted epsilon for these ten unit weights lies just below 0.1.
            bounds = (0.0, math.nextafter(0.1, 0.0))
        for bound in bounds:
            if name in _POSITIVE and bound < 0.0:
                continue
            scenario = {
                "hotspots": [{"x": 10.0 * k, "y": 5.0 + 9.0 * k} for k in range(10)],
                "seed": 0, "max_steps": 150, "algorithm": algorithm,
            }
            section = scenario
            for step in path:
                section = section[step] if step == 0 else section.setdefault(step, {})
            section[name] = bound
            file = tmp_path / f"{name}.json"
            file.write_text(json.dumps(scenario))
            assert main(["run", "--scenario", str(file), "--out", str(tmp_path / "out")]) == EXIT_OK

    def test_missing_scenario_file_exits_two(self, tmp_path, capsys):
        assert main(["run", "--scenario", str(tmp_path / "nope.json")]) == EXIT_IO
        assert "io error:" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["safe_zone_radius", "max_step_size"])
    def test_length_at_the_float_maximum_exits_one_before_any_step(self, tmp_path, capsys, name):
        # Summed safe-zone pushes, or the hypot of a step, would overflow mid-run.
        file = tmp_path / f"{name}.json"
        file.write_text(
            json.dumps(
                {
                    "hotspots": [{"x": 10.0 * k, "y": 5.0 + 9.0 * k} for k in range(10)],
                    "max_steps": 150, "constraints": {name: sys.float_info.max},
                }
            )
        )
        assert main(["validate", "--scenario", str(file)]) == EXIT_INVALID
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(file), "--out", str(out)]) == EXIT_INVALID
        assert f"{name} must lie in" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_uavs", [1, 2, 5])
    def test_collision_radius_beyond_the_grid_diagonal(self, tmp_path, capsys, n_uavs):
        # No two points of the 100 x 100 grid lie 1e6 apart; one UAV has no pair.
        file = tmp_path / "wide.json"
        file.write_text(
            json.dumps(
                {
                    "hotspots": [{"x": 10.0 * k, "y": 5.0 + 9.0 * k} for k in range(10)],
                    "n_uavs": n_uavs, "max_steps": 20,
                    "constraints": {"collision_radius": 1e6, "safe_zone_radius": 1e100},
                }
            )
        )
        out = tmp_path / "out"
        if n_uavs == 1:
            assert main(["validate", "--scenario", str(file)]) == EXIT_OK
            assert main(["run", "--scenario", str(file), "--out", str(out)]) == EXIT_OK
            return
        assert main(["validate", "--scenario", str(file)]) == EXIT_INVALID
        assert main(["run", "--scenario", str(file), "--out", str(out)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.count("grid's diagonal 141.4213562373095") == 2
        assert not out.exists()

    def test_malformed_json_exits_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", "--scenario", str(path)]) == EXIT_IO

    @pytest.mark.parametrize(
        "content",
        [
            b"{not json",
            b'{"hotspots": [{"x": 1, "y": 1}], "scenario_id": "\xff"}',
            b"[" * 100_000 + b"]" * 100_000,
        ],
        ids=["malformed", "not-utf8", "too-deep"],
    )
    @pytest.mark.parametrize(
        "command", [["run", "--scenario"], ["validate", "--scenario"], ["sweep", "--spec"]]
    )
    def test_file_that_is_not_json_exits_two(self, tmp_path, capsys, content, command):
        path = tmp_path / "broken.json"
        path.write_bytes(content)
        assert main([*command, str(path)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("io error:") and "not a JSON document" in err


class TestSweepCommand:
    def test_sweep_outputs(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        code = main(
            [
                "sweep", "--values", "3.0", "--seeds", "0,1", "--max-steps", "25",
                "--out", str(out_dir),
            ]
        )
        assert code == EXIT_OK
        assert "levy_weight" in capsys.readouterr().out
        rows = read_runs_csv(out_dir / "runs.csv")
        assert len(rows) == 2
        assert {r["levy_weight"] for r in rows} == {3.0}
        summary = (out_dir / "summary.csv").read_text().splitlines()
        assert summary[0] == "levy_weight,median_steps,iqr_steps,success_rate"
        assert len(summary) == 2
        assert (out_dir / "heatmap_3.0.pgm").exists()
        heat = heatmap_from_csv(out_dir / "heatmap_3.0.csv")
        assert heat.counts.sum() > 0

    def test_flags_override_the_spec_file(self, tmp_path, capsys):
        # As run's flags override a scenario file, sweep's override the spec's
        # keys; the spec's preset, given by no flag, stays.
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {"preset": "twocluster20", "levy_weights": [3.0], "seeds": 2, "max_steps": 20}
            )
        )
        out_dir = tmp_path / "sweep"
        code = main(
            [
                "sweep", "--spec", str(spec_path), "--seeds", "5", "--max-steps", "7",
                "--values", "1,2", "--out", str(out_dir),
            ]
        )
        assert code == EXIT_OK
        rows = read_runs_csv(out_dir / "runs.csv")
        assert {r["scenario_id"] for r in rows} == {"twocluster20"}
        assert sorted((r["levy_weight"], r["seed"]) for r in rows) == [
            (w, s) for w in (1.0, 2.0) for s in range(5)
        ]
        # Five seeds of five agents, each recorded at steps 0..7.
        for tag in ("1.0", "2.0"):
            assert heatmap_from_csv(out_dir / f"heatmap_{tag}.csv").counts.sum() == 5 * 5 * 8

    def test_sweep_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "preset": "uniform20",
                    "algorithm": "hybrid",
                    "levy_weights": [2.0, 3.0],
                    "seeds": "2",
                    "max_steps": 20,
                }
            )
        )
        code = main(["sweep", "--spec", str(spec_path)])
        assert code == EXIT_OK
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 3  # header + one row per levy_weight

    @pytest.mark.parametrize(
        "section",
        [
            {"params": {"abc_limit_neighbors": 2}},
            {"constraints": [1]},
            {"max_step": 3},
            {"values": [3.0]},
            {"levy_weights": ["3"]},
            {"levy_weights": 3.0},
            {"seeds": [True]},
            {"seeds": None},
            {"max_steps": 5.7},
            {"preset": ["uniform20"]},
            [{"levy_weights": [3.0]}],
        ],
    )
    def test_spec_with_unknown_or_malformed_section_exits_one(self, tmp_path, capsys, section):
        spec_path = tmp_path / "spec.json"
        if isinstance(section, dict):
            section = {"levy_weights": [3.0], "seeds": [0], "max_steps": 5, **section}
        spec_path.write_text(json.dumps(section))
        assert main(["sweep", "--spec", str(spec_path)]) == EXIT_INVALID
        assert "error:" in capsys.readouterr().err

    def test_duplicate_values_exit_one(self, capsys):
        code = main(["sweep", "--values", "3.0,3.0", "--seeds", "1", "--max-steps", "5"])
        assert code == EXIT_INVALID
        assert "error:" in capsys.readouterr().err


class TestCompareCommand:
    def test_compare_outputs(self, tmp_path, capsys):
        out_dir = tmp_path / "cmp"
        code = main(
            [
                "compare", "--algorithms", "hybrid,abc", "--preset", "twocluster20",
                "--seeds", "1", "--max-steps", "25", "--out", str(out_dir),
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "hybrid-abc-levy: success_rate=" in out
        assert "abc: success_rate=" in out
        comparison = (out_dir / "comparison.csv").read_text().splitlines()
        assert comparison[0] == "algorithm,seed,steps_to_cover,covered_count,far_covered"
        assert len(comparison) == 3
        for line in comparison[1:]:
            assert line.split(",")[4] != ""  # two-cluster preset tallies far coverage
        success = (out_dir / "success.csv").read_text().splitlines()
        assert success[0] == "algorithm,success_rate"
        assert len(read_runs_csv(out_dir / "runs.csv")) == 2

    def test_duplicate_algorithms_exit_one(self, capsys):
        code = main(
            ["compare", "--algorithms", "hybrid,hybrid", "--seeds", "1", "--max-steps", "5"]
        )
        assert code == EXIT_INVALID
        assert "error:" in capsys.readouterr().err

    def test_duplicate_seeds_exit_one(self, capsys):
        code = main(
            ["compare", "--algorithms", "hybrid,abc", "--seeds", "1,1,", "--max-steps", "5"]
        )
        assert code == EXIT_INVALID
        assert "must be distinct" in capsys.readouterr().err

    def test_duplicate_in_a_long_seed_list_is_named_briefly(self, capsys):
        seeds = ",".join(map(str, [*range(9_999), 0]))
        code = main(
            ["compare", "--algorithms", "hybrid,abc", "--seeds", seeds, "--max-steps", "5"]
        )
        assert code == EXIT_INVALID
        (line,) = [l for l in capsys.readouterr().err.splitlines() if "error:" in l]
        assert len(line.encode()) < 200
        assert line.endswith("compare seeds must be distinct, 1 repeated: 0")


class TestSeedListCap:
    """An explicit seed list is held to the 10 000 cap of a seed count."""

    SEEDS = list(range(10_001))

    @pytest.fixture(autouse=True)
    def no_config(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a config was built")

        monkeypatch.setattr(harness, "preset_scenario", refuse)

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--values", "3.0"],
            ["compare", "--algorithms", "hybrid,abc"],
        ],
    )
    def test_seeds_flag(self, capsys, argv):
        seeds = ",".join(map(str, self.SEEDS))
        assert main(argv + ["--seeds", seeds, "--max-steps", "5"]) == EXIT_INVALID
        assert "seeds must lie in [1, 10000], got 10001" in capsys.readouterr().err

    def test_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"levy_weights": [3.0], "seeds": self.SEEDS}))
        assert main(["sweep", "--spec", str(spec_path)]) == EXIT_INVALID
        assert "seeds must lie in [1, 10000], got 10001" in capsys.readouterr().err


class TestWorkersBound:
    """A worker count below 1 is refused before any config is built."""

    @pytest.fixture(autouse=True)
    def no_config(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a config was built")

        monkeypatch.setattr(harness, "preset_scenario", refuse)

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--values", "3.0", "--workers", "0"],
            ["compare", "--algorithms", "hybrid,abc", "--workers", "-2"],
        ],
    )
    def test_workers_flag(self, capsys, argv):
        assert main(argv + ["--seeds", "1", "--max-steps", "5"]) == EXIT_INVALID
        assert "workers must lie in [1, inf]" in capsys.readouterr().err

    def test_run_sweep(self):
        with pytest.raises(ValidationError, match="workers must lie"):
            harness.run_sweep(harness.SweepSpec(levy_weights=[3.0], seeds=[1]), workers=0)


class TestValidateCommand:
    def test_valid_file(self, tmp_path, capsys):
        path = tmp_path / "ok.json"
        save_scenario(preset_scenario("twocluster20", seed=0), path)
        assert main(["validate", "--scenario", str(path)]) == EXIT_OK
        assert capsys.readouterr().out.startswith("OK: twocluster20 (20 hotspots")

    def test_missing_file(self, tmp_path):
        assert main(["validate", "--scenario", str(tmp_path / "gone.json")]) == EXIT_IO

    def test_invalid_values(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"hotspots": [{"x": -5, "y": 1}]}))
        assert main(["validate", "--scenario", str(path)]) == EXIT_INVALID

    @pytest.mark.parametrize(
        "section",
        [
            {"params": {"pso": {"social": 1e308}}},
            {"constraints": {"potential_field_gain": 1e306}},
            {"constraints": {"potential_field_gain": 1e308}},
        ],
    )
    def test_overflowing_coefficient_is_rejected(self, tmp_path, capsys, section):
        # Each of these once passed validate, and the run then failed with
        # "settle_within failed to converge".
        path = tmp_path / "huge.json"
        scenario = {"kind": "uniform", "n_hotspots": 20, "seed": 0, "algorithm": "pso"}
        path.write_text(json.dumps({**scenario, "max_steps": 200, **section}))
        assert main(["validate", "--scenario", str(path)]) == EXIT_INVALID
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == EXIT_INVALID
        assert "must lie in [-1e+100, 1e+100]" in capsys.readouterr().err

    @pytest.mark.parametrize("radius", [math.nextafter(1e-6, 0.0), 1e-11, 1e-12, 1e-300])
    def test_collision_radius_below_its_floor_is_rejected(self, tmp_path, capsys, radius):
        # 1e-11, 1e-12 and 1e-300 once passed validate, and the run then failed
        # at launch with "cannot separate agents to the collision radius".
        path = tmp_path / "tiny.json"
        scenario = {"kind": "uniform", "n_hotspots": 20, "seed": 0, "n_uavs": 5, "start": [50, 0]}
        path.write_text(json.dumps({**scenario, "constraints": {"collision_radius": radius}}))
        assert main(["validate", "--scenario", str(path)]) == EXIT_INVALID
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == EXIT_INVALID
        assert "collision_radius must lie in [1e-06, inf]" in capsys.readouterr().err

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text(json.dumps({"hotspots": [{"x": 1, "y": 1}], "speed": 3}))
        assert main(["validate", "--scenario", str(path)]) == EXIT_INVALID


class TestModuleEntryPoint:
    @pytest.mark.parametrize(
        "args,code",
        [
            (["run", "--preset", "uniform20", "--max-steps", "5"], 0),
            (["run", "--preset", "uniform20", "--max-steps", "5", "--require-coverage"], 3),
            (["run", "--preset", "uniform20", "--max-steps", "0"], 1),
            (["run", "--scenario", "missing.json"], 2),
            (["frobnicate"], 2),
        ],
    )
    def test_python_dash_m_exits_with_the_documented_code(self, tmp_path, args, code):
        # The codes README documents, as the shell sees them: an unknown
        # subcommand is an argparse usage error, which exits 2 like I/O.
        path = [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        proc = subprocess.run(
            [sys.executable, "-m", "levyswarm", *args],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
        )
        assert proc.returncode == code, proc.stderr
