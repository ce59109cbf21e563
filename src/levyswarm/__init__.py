"""Deterministic multi-agent hotspot coverage: ABC/PSO baselines and a Levy-flight hybrid."""

from .constraints import (
    ConstraintError,
    clamp_boundary,
    clamp_step,
    escape_no_hotspot_zone,
    potential_field_repulsion,
    resolve_collisions,
    safe_zone_separation,
)
from .harness import (
    CompareResult,
    RunResult,
    SweepResult,
    SweepSpec,
    compare_algorithms,
    run_scenario,
    run_sweep,
)
from .metrics import (
    Heatmap,
    RunMetrics,
    biodiversity_metric,
    heatmap_from_csv,
    heatmap_to_csv,
    heatmap_to_pgm,
    merge_heatmaps,
    read_runs_csv,
    write_runs_csv,
)
from .optimizers import (
    FitnessField,
    nectar_probabilities,
)
from .rng import LevyStep, ParameterError, RandomSource, levy_step, mantegna_sigma
from .world import (
    Algorithm,
    AlgorithmParams,
    ConstraintParams,
    GridConfig,
    Hotspot,
    ScenarioConfig,
    ScenarioKind,
    SwarmState,
    UavState,
    ValidationError,
    load_scenario,
    make_scenario,
    mark_coverage,
    parse_algorithm,
    preset_scenario,
    save_scenario,
    two_cluster_far_indices,
)

__version__ = "0.1.0"
