"""Coverage metrics, visitation heatmaps, and tabular/image exporters.

All outputs are pure functions of simulation state — simulated time is
steps * dt and no wall-clock value ever reaches a file — so rerunning a
scenario reproduces every artifact byte for byte.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .world import GridConfig, Hotspot, ValidationError, left_to_right_sum


def _float(value) -> str:
    return repr(float(value))


def _na(format_, parse):
    """A column that holds None as 'NA'."""
    return (
        lambda value: "NA" if value is None else format_(value),
        lambda text: None if text == "NA" else parse(text),
    )


# runs.csv, one column per scalar RunMetrics field: name -> (format, parse).
_RUNS_SCHEMA = {
    "scenario_id": (str, str),
    "algorithm": (str, str),
    "levy_weight": (_float, float),
    "seed": (str, int),
    "steps_to_cover": _na(str, int),
    "time_to_cover_s": _na(_float, float),
    "biodiversity_b": (_float, float),
    "min_pairwise_distance": (_float, float),
    "collision_interventions": (str, int),
}
CSV_COLUMNS = list(_RUNS_SCHEMA)


@dataclass
class Heatmap:
    """Per-cell visitation counts over the integer grid.

    counts[r, c] is the number of recorded UAV positions whose floor-binned
    cell is (x in [c, c+1), y in [r, r+1)); positions exactly on the far edge
    (x == width or y == height) fall into the last cell.  The running total
    equals n_uavs * recorded_steps by construction.
    """

    width: int
    height: int
    counts: np.ndarray = None

    def __post_init__(self):
        if self.counts is None:
            self.counts = np.zeros((self.height, self.width), dtype=np.int64)
        else:
            self.counts = np.asarray(self.counts, dtype=np.int64)
            if self.counts.shape != (self.height, self.width):
                raise ValidationError(
                    f"heatmap counts shape {self.counts.shape} does not match "
                    f"height x width ({self.height}, {self.width})"
                )

    @classmethod
    def for_grid(cls, grid: GridConfig) -> "Heatmap":
        return cls(width=grid.width, height=grid.height)

    def cell_of(self, position) -> tuple[int, int]:
        rows, cols = self._cells(position)
        return int(rows[0]), int(cols[0])

    def _cells(self, positions) -> tuple[np.ndarray, np.ndarray]:
        """The binning rule: the rows and columns of positions, an (N, 2)
        array-like of (x, y) floats or one (x, y) pair.

        A ValidationError naming the first point outside the domain when any is."""
        points = np.asarray(positions, dtype=float)
        if points.shape[-1:] != (2,) or points.ndim > 2:
            raise ValidationError(f"positions of shape {points.shape} are not (x, y) pairs")
        x, y = points.reshape(-1, 2).T
        inside = (0.0 <= x) & (x <= self.width) & (0.0 <= y) & (y <= self.height)
        if not inside.all():
            k = int(np.argmin(inside))
            raise ValidationError(
                f"position ({float(x[k])}, {float(y[k])}) is outside the heatmap domain"
            )
        # The cast truncates, as int() does, which is floor for the
        # non-negative x and y left here (-0.0 included); the far edges fall
        # into the last cell.
        rows = np.minimum(y.astype(np.int64), self.height - 1)
        cols = np.minimum(x.astype(np.int64), self.width - 1)
        return rows, cols

    def record(self, positions):
        """Count every (x, y) row of positions, an (N, 2) array-like, or the
        one pair positions itself; or nothing, when a point is out of the
        domain.  The binning is one numpy pass, so a caller may buffer many
        steps' positions and record them at once."""
        rows, cols = self._cells(positions)
        np.add.at(self.counts, (rows, cols), 1)

    def total(self) -> int:
        return int(self.counts.sum())

    def merged_with(self, other: "Heatmap") -> "Heatmap":
        if (self.width, self.height) != (other.width, other.height):
            raise ValidationError("cannot merge heatmaps with different grids")
        return Heatmap(self.width, self.height, self.counts + other.counts)


def merge_heatmaps(heatmaps) -> Heatmap:
    heatmaps = list(heatmaps)
    if not heatmaps:
        raise ValidationError("merge_heatmaps needs at least one heatmap")
    out = heatmaps[0]
    for h in heatmaps[1:]:
        out = out.merged_with(h)
    return out


def biodiversity_metric(hotspots: list[Hotspot], covered: list[bool]) -> float:
    """Total weight of the hotspots whose covered flag is set, added left to right."""
    return left_to_right_sum(h.weight for h, c in zip(hotspots, covered) if c)


@dataclass
class RunMetrics:
    """Everything a single run reports."""

    scenario_id: str
    algorithm: str
    levy_weight: float
    seed: int
    steps_to_cover: int | None
    time_to_cover_s: float | None
    biodiversity_b: float
    min_pairwise_distance: float
    collision_interventions: int
    coverage_curve: list[tuple[int, int]] = field(default_factory=list)
    min_pairwise_series: list[float] = field(default_factory=list)
    heatmap: Heatmap | None = None
    recorded_steps: int = 0
    covered_count: int = 0
    n_hotspots: int = 0
    zone_escape_events: int = 0

    @property
    def covered_all(self) -> bool:
        return self.steps_to_cover is not None

    def csv_row(self) -> dict:
        return {name: format_(getattr(self, name)) for name, (format_, _) in _RUNS_SCHEMA.items()}


def write_csv(path_or_file, header, rows, delimiter=","):
    """Stream the header row (None for none) and rows to a path or an open text file."""
    if not hasattr(path_or_file, "write"):
        with open(path_or_file, "w", newline="") as f:
            return write_csv(f, header, rows, delimiter)
    writer = csv.writer(path_or_file, delimiter=delimiter, lineterminator="\n")
    if header is not None:
        writer.writerow(header)
    writer.writerows(rows)


def write_runs_csv(metrics_list, path_or_file):
    """One row per RunMetrics, columns CSV_COLUMNS; uncovered runs get steps 'NA'."""
    write_csv(path_or_file, CSV_COLUMNS, (m.csv_row().values() for m in metrics_list))


def read_runs_csv(path) -> list[dict]:
    """Parse a runs CSV back into typed dicts (None for 'NA' fields)."""
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != CSV_COLUMNS:
            raise ValidationError(
                f"unexpected runs CSV header {reader.fieldnames}, wanted {CSV_COLUMNS}"
            )
        rows = []
        for raw in reader:
            # DictReader pads a short row with None and files a long row's surplus under None.
            if None in raw or None in raw.values():
                raise ValidationError(
                    f"runs CSV line {reader.line_num} does not have {len(CSV_COLUMNS)} cells"
                )
            rows.append({name: parse(raw[name]) for name, (_, parse) in _RUNS_SCHEMA.items()})
        return rows


def heatmap_to_pgm(heatmap: Heatmap, path_or_file):
    """Plain-text PGM (P2) picture of the heatmap, scaled to the busiest cell.

    Cell values are rounded to 255 * count / max_count (maxval 255); row 0 of
    the raster is the y = 0 cell row.  Lossy by design — the CSV exporter is
    the lossless companion.
    """
    peak = max(int(heatmap.counts.max()), 1)
    scaled = np.rint(heatmap.counts * (255.0 / peak)).astype(int)
    # A plain PGM is rows of space-separated integers: a CSV with a space delimiter.
    rows = chain([[heatmap.width, heatmap.height], [255]], scaled.tolist())
    write_csv(path_or_file, ["P2"], rows, delimiter=" ")


def heatmap_to_csv(heatmap: Heatmap, path_or_file):
    """Lossless integer matrix, one CSV row per y-cell row."""
    write_csv(path_or_file, None, (row.tolist() for row in heatmap.counts))


def heatmap_from_csv(path) -> Heatmap:
    counts = np.loadtxt(path, delimiter=",", dtype=np.int64, ndmin=2)
    return Heatmap(width=counts.shape[1], height=counts.shape[0], counts=counts)


def write_coverage_curve(metrics: RunMetrics, path_or_file):
    """CSV of (step, covered_count) pairs for one run, one per recorded step."""
    write_csv(path_or_file, ["step", "covered_count"], metrics.coverage_curve)
