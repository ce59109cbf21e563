"""Metrics and exporters: heatmap binning, biodiversity, CSV/PGM round-trips."""

from __future__ import annotations

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyswarm.metrics import (
    CSV_COLUMNS,
    Heatmap,
    RunMetrics,
    biodiversity_metric,
    heatmap_from_csv,
    heatmap_to_csv,
    heatmap_to_pgm,
    merge_heatmaps,
    read_runs_csv,
    write_coverage_curve,
    write_runs_csv,
)
from levyswarm.world import GridConfig, Hotspot, ValidationError


def metrics_fixture(**overrides):
    base = dict(
        scenario_id="uniform20",
        algorithm="hybrid-abc-levy",
        levy_weight=3.0,
        seed=7,
        steps_to_cover=412,
        time_to_cover_s=206.0,
        biodiversity_b=20.0,
        min_pairwise_distance=1.0371,
        collision_interventions=13,
    )
    base.update(overrides)
    return RunMetrics(**base)


class TestHeatmapBinning:
    def test_floor_binning(self):
        h = Heatmap(width=100, height=100)
        assert h.cell_of([0.5, 0.5]) == (0, 0)
        assert h.cell_of([1.0, 0.0]) == (0, 1)
        assert h.cell_of([99.999, 42.0]) == (42, 99)

    def test_far_edges_fall_into_last_cell(self):
        h = Heatmap(width=100, height=100)
        assert h.cell_of([100.0, 100.0]) == (99, 99)
        assert h.cell_of([0.0, 100.0]) == (99, 0)
        assert h.cell_of([100.0, 42.5]) == (42, 99)
        h.record([[100.0, 100.0], [0.0, 100.0], [100.0, 42.5]])
        assert h.counts[99, 99] == h.counts[99, 0] == h.counts[42, 99] == 1
        assert h.total() == 3

    @pytest.mark.parametrize("position", [[-0.001, 5.0], [5.0, 100.001]])
    def test_outside_domain_rejected(self, position):
        with pytest.raises(ValidationError):
            Heatmap(width=100, height=100).cell_of(position)
        h = Heatmap(width=100, height=100)
        with pytest.raises(ValidationError, match="outside the heatmap domain"):
            h.record([[1.0, 1.0], position, [2.0, 2.0]])
        assert h.total() == 0

    def test_record_single_and_batch(self):
        h = Heatmap(width=10, height=10)
        h.record([2.5, 3.5])
        h.record(np.array([[2.5, 3.5], [2.7, 3.1], [9.9, 0.0]]))
        assert h.counts[3, 2] == 3
        assert h.counts[0, 9] == 1
        assert h.total() == 4

    def test_for_grid_shape(self):
        h = Heatmap.for_grid(GridConfig(width=30, height=20))
        assert h.counts.shape == (20, 30)
        assert h.total() == 0

    def test_mismatched_counts_shape_rejected(self):
        with pytest.raises(ValidationError):
            Heatmap(width=3, height=2, counts=np.zeros((3, 3), dtype=int))

    @given(
        xs=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=10.0),
                st.floats(min_value=0.0, max_value=10.0),
            ),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_total_equals_recorded_positions(self, xs):
        h = Heatmap(width=10, height=10)
        h.record(np.array(xs))
        assert h.total() == len(xs)


    @given(
        xs=st.lists(
            st.tuples(
                st.one_of(st.sampled_from([0.0, -0.0, 7.0, 6.999999999999999]), st.floats(0.0, 7.0)),
                st.one_of(st.sampled_from([0.0, -0.0, 3.0, 2.0]), st.floats(0.0, 3.0)),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_record_matches_per_point_floor_binning(self, xs):
        h = Heatmap(width=7, height=3)
        h.record(np.array(xs))
        expected = np.zeros((3, 7), dtype=np.int64)
        for x, y in xs:
            expected[min(math.floor(y), 2), min(math.floor(x), 6)] += 1
        assert np.array_equal(h.counts, expected)

    @given(
        xs=st.lists(
            st.tuples(
                st.one_of(st.sampled_from([0.0, -0.0, 7.0, 6.999999999999999]), st.floats(0.0, 7.0)),
                st.one_of(st.sampled_from([0.0, -0.0, 3.0, 2.999999999999999]), st.floats(0.0, 3.0)),
            ),
            max_size=24,
        ),
        cut=st.integers(0, 24),
    )
    @settings(max_examples=100, deadline=None)
    def test_bulk_record_is_the_per_point_int_rule_across_a_flush(self, xs, cut):
        # Two records split at any point, as a run's buffered flushes are,
        # count what int() and the far-edge rule give one point at a time.
        h = Heatmap(width=7, height=3)
        points = np.array(xs, dtype=float).reshape(-1, 2)
        h.record(points[:cut])
        h.record(points[cut:])
        expected = np.zeros((3, 7), dtype=np.int64)
        for x, y in xs:
            expected[min(int(y), 2), min(int(x), 6)] += 1
        assert np.array_equal(h.counts, expected)

    @given(
        good=st.lists(st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0)), max_size=6),
        bad=st.lists(
            st.sampled_from([(-5e-324, 1.0), (5.000000000000001, 0.0), (1.0, math.inf),
                             (math.nan, 1.0), (2.0, -1.0)]),
            min_size=1,
            max_size=3,
        ),
        at=st.integers(0, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_out_of_domain_batch_names_its_first_bad_point(self, good, bad, at):
        h = Heatmap(width=5, height=5)
        h.record([2.5, 2.5])
        points = good[:at] + bad + good[at:]
        x, y = bad[0]
        with pytest.raises(ValidationError, match=rf"position \({x}, {y}\) is outside"):
            h.record(np.array(points))
        assert h.total() == 1 and h.counts[2, 2] == 1

    @pytest.mark.parametrize("shape", [(4, 3), (2, 2, 2), (3,)])
    def test_points_that_are_not_pairs_are_rejected(self, shape):
        h = Heatmap(width=5, height=5)
        with pytest.raises(ValidationError, match="not \\(x, y\\) pairs"):
            h.record(np.ones(shape))
        assert h.total() == 0

    def test_out_of_domain_record_rejected_and_counts_nothing(self):
        h = Heatmap(width=10, height=10)
        with pytest.raises(ValidationError, match=r"position \(10.5, 1.0\)"):
            h.record(np.array([[1.0, 1.0], [10.5, 1.0]]))
        assert h.total() == 0


class TestHeatmapMerge:
    def test_merge_adds_counts(self):
        a = Heatmap(width=4, height=4)
        b = Heatmap(width=4, height=4)
        a.record([1.5, 1.5])
        b.record([[1.5, 1.5], [3.0, 0.0]])
        merged = a.merged_with(b)
        assert merged.counts[1, 1] == 2
        assert merged.counts[0, 3] == 1
        assert merged.total() == a.total() + b.total()
        assert a.counts[1, 1] == 1  # inputs untouched

    def test_merge_many(self):
        maps = []
        for i in range(3):
            h = Heatmap(width=4, height=4)
            h.record([float(i), float(i)])
            maps.append(h)
        merged = merge_heatmaps(maps)
        assert merged.total() == 3

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            Heatmap(width=4, height=4).merged_with(Heatmap(width=5, height=4))

    def test_empty_merge_rejected(self):
        with pytest.raises(ValidationError):
            merge_heatmaps([])


class TestBiodiversity:
    def test_sums_covered_weights_only(self):
        hotspots = [
            Hotspot(position=np.array([1.0, 1.0]), weight=2.0),
            Hotspot(position=np.array([2.0, 2.0]), weight=0.5),
            Hotspot(position=np.array([3.0, 3.0]), weight=4.0),
        ]
        assert biodiversity_metric(hotspots, [True, True, False]) == 2.5

    def test_zero_when_nothing_covered(self):
        assert biodiversity_metric([Hotspot(position=np.zeros(2))], [False]) == 0.0

    def test_adds_left_to_right_on_every_python(self):
        # runs.csv writes the repr.  Left to right, ten weights of 0.1 add up
        # to 0.9999999999999999; builtin sum() gives 1.0 from Python 3.12 on.
        hotspots = [Hotspot(position=np.zeros(2), weight=0.1) for _ in range(10)]
        assert repr(biodiversity_metric(hotspots, [True] * 10)) == "0.9999999999999999"


class TestRunsCsv:
    def test_row_formatting(self):
        row = metrics_fixture().csv_row()
        assert list(row) == CSV_COLUMNS
        assert row["steps_to_cover"] == "412"
        assert row["levy_weight"] == "3.0"
        assert row["min_pairwise_distance"] == repr(1.0371)

    def test_censored_run_writes_na(self):
        row = metrics_fixture(steps_to_cover=None, time_to_cover_s=None).csv_row()
        assert row["steps_to_cover"] == "NA" and row["time_to_cover_s"] == "NA"

    def test_covered_all_property(self):
        assert metrics_fixture().covered_all
        assert not metrics_fixture(steps_to_cover=None).covered_all

    def test_round_trip_types_and_values(self, tmp_path):
        runs = [
            metrics_fixture(seed=0),
            metrics_fixture(seed=1, steps_to_cover=None, time_to_cover_s=None),
        ]
        path = tmp_path / "runs.csv"
        write_runs_csv(runs, path)
        rows = read_runs_csv(path)
        assert len(rows) == 2
        assert rows[0]["steps_to_cover"] == 412
        assert rows[0]["time_to_cover_s"] == 206.0
        assert rows[0]["min_pairwise_distance"] == 1.0371  # repr round-trip is exact
        assert rows[1]["steps_to_cover"] is None
        assert rows[1]["time_to_cover_s"] is None
        assert rows[1]["seed"] == 1

    def test_write_accepts_open_files(self):
        buf = io.StringIO()
        write_runs_csv([metrics_fixture()], buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2

    def test_reader_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(ValidationError, match="header"):
            read_runs_csv(path)

    @pytest.mark.parametrize("row", ["u,abc,3.0,1", "u,abc,3.0,1,NA,NA,0.0,1.0,0,surplus"])
    def test_reader_names_the_line_of_a_short_or_long_row(self, tmp_path, row):
        path = tmp_path / "runs.csv"
        write_runs_csv([metrics_fixture()], path)
        with open(path, "a") as f:
            f.write(row + "\n")
        with pytest.raises(ValidationError, match="line 3"):
            read_runs_csv(path)


class TestHeatmapPgm:
    def test_header_and_scaling(self):
        h = Heatmap(width=2, height=2, counts=np.array([[1, 2], [0, 4]]))
        buf = io.StringIO()
        heatmap_to_pgm(h, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "2 2"
        assert lines[2] == "255"
        assert lines[3] == "64 128"  # rint(255 * 1/4), rint(255 * 2/4)
        assert lines[4] == "0 255"

    def test_empty_heatmap_renders_zeros(self):
        buf = io.StringIO()
        heatmap_to_pgm(Heatmap(width=3, height=1), buf)
        assert buf.getvalue().splitlines()[3] == "0 0 0"

    def test_file_and_buffer_outputs_identical(self, tmp_path):
        h = Heatmap(width=2, height=2, counts=np.array([[5, 0], [1, 9]]))
        buf = io.StringIO()
        heatmap_to_pgm(h, buf)
        path = tmp_path / "map.pgm"
        heatmap_to_pgm(h, path)
        assert path.read_text() == buf.getvalue()


class TestHeatmapCsv:
    def test_lossless_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        counts = rng.integers(0, 10_000, size=(7, 11))
        h = Heatmap(width=11, height=7, counts=counts)
        path = tmp_path / "heat.csv"
        heatmap_to_csv(h, path)
        back = heatmap_from_csv(path)
        assert back.width == 11 and back.height == 7
        assert np.array_equal(back.counts, counts)

    def test_single_row_round_trip(self, tmp_path):
        h = Heatmap(width=3, height=1, counts=np.array([[1, 2, 3]]))
        path = tmp_path / "row.csv"
        heatmap_to_csv(h, path)
        back = heatmap_from_csv(path)
        assert back.counts.shape == (1, 3)
        assert np.array_equal(back.counts, h.counts)


class TestCoverageCurve:
    def test_writes_step_count_pairs(self):
        m = metrics_fixture()
        m.coverage_curve = [(0, 0), (3, 2), (10, 20)]
        buf = io.StringIO()
        write_coverage_curve(m, buf)
        lines = buf.getvalue().splitlines()
        assert lines == ["step,covered_count", "0,0", "3,2", "10,20"]

    def test_file_output_matches_buffer(self, tmp_path):
        m = metrics_fixture()
        m.coverage_curve = [(0, 0), (1, 5)]
        buf = io.StringIO()
        write_coverage_curve(m, buf)
        path = tmp_path / "curve.csv"
        write_coverage_curve(m, path)
        assert path.read_text() == buf.getvalue()
