"""The bindings the benchmark's span tracer patches exist on the package.

``levybench/spans.py`` replaces each ``(path, attribute)`` of its span table
with a timing wrapper, reading the original from ``owner.__dict__``; a
binding the package no longer has stops a traced benchmark run with a
KeyError.  This test reads the table (the module is imported, not changed)
so that a renamed or moved function fails here first.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import levyswarm
import levyswarm.cli  # noqa: F401  (the table names cli.main)
import numpy as np
import pytest
from levyswarm.constraints import resolve_collisions
from levyswarm.harness import run_scenario
from levyswarm.world import GridConfig, preset_scenario

SPANS_PY = Path(__file__).resolve().parent.parent / "levybench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("levybench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_binding_is_an_attribute_of_its_owner(spans):
    missing = []
    for name, bindings in spans.SPANS:
        for path, attribute in bindings:
            owner = spans._resolve(levyswarm, path)
            if attribute not in owner.__dict__:
                missing.append(f"{name}: {path}.{attribute}")
    assert missing == []


def test_resolver_counter_reads_the_resolver_result(spans):
    counts = dict.fromkeys(spans.COUNTER_NAMES, 0)
    result = resolve_collisions([(50.0, 50.0), (50.3, 50.0)], GridConfig(), 1.0)
    assert isinstance(result[1], np.ndarray) and result[1].dtype == bool
    spans.RESULT_COUNTERS["constraints.resolve_collisions"](counts, result)
    assert counts["constraints.resolve_collisions.touched"] == 2
    assert counts["constraints.resolve_collisions.pushes"] == result[2] > 0


def test_the_hybrid_step_calls_each_traced_binding(spans):
    # A binding that exists but is no longer called reads zero in a traced
    # run, which fails the benchmark's plan checks; mark_coverage is called
    # once per recorded step, where the benchmark's calibration probe rides,
    # and biodiversity_metric(hotspots, covered) once per run, through the
    # wrapper that passes its arguments on.
    tracer = spans.Tracer(levyswarm)
    tracer.install()
    try:
        result = run_scenario(preset_scenario("uniform20", seed=0, max_steps=80))
    finally:
        tracer.uninstall()
    calls = {name: stats[0] for name, stats in tracer.stats.items()}
    steps = result.metrics.recorded_steps
    assert calls["world.mark_coverage"] == steps
    assert calls["optimizers.propose_step"] == steps - 1
    assert calls["metrics.biodiversity_metric"] == 1
    assert result.metrics.biodiversity_b == result.metrics.covered_count > 0
    for name in ("rng.levy_step", "optimizers.FitnessField.value", "metrics.Heatmap.record"):
        assert calls[name] > 0, name
    assert tracer.counts["optimizers.dark_agent_steps"] > 0
