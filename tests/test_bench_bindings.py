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
from levyswarm.world import GridConfig

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
