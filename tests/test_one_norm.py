"""The simulator has one scalar norm: math.hypot.

Every length the step core compares with a limit, ranks or records is
math.hypot's.  np.hypot rounds differently on a few inputs in a thousand, so
a scalar np.hypot on the step path would be a second norm whose verdicts
could disagree with the first.  The shaping term's vectorised np.hypot over
every uncovered hotspot is a value, not a comparison, and stays.
"""

from __future__ import annotations

import numpy as np
import pytest

from levyswarm.harness import run_scenario
from levyswarm.world import AlgorithmParams, preset_scenario


@pytest.mark.parametrize("shaping", [False, True])
@pytest.mark.parametrize("preset", ["uniform20", "twocluster20"])
@pytest.mark.parametrize("algorithm", ["hybrid-abc-levy", "abc", "pso"])
def test_runs_make_no_scalar_np_hypot_call(monkeypatch, algorithm, preset, shaping):
    hypot = np.hypot
    calls = {"scalar": 0, "array": 0}

    def counted(*args, **kwargs):
        calls["scalar" if all(np.ndim(a) == 0 for a in args) else "array"] += 1
        return hypot(*args, **kwargs)

    monkeypatch.setattr(np, "hypot", counted)
    # Eight agents, so the collision stage runs too.
    config = preset_scenario(
        preset, 1, algorithm=algorithm, n_uavs=8, max_steps=150,
        params=AlgorithmParams(shaping_epsilon=0.01 if shaping else 0.0),
    )
    run_scenario(config)
    assert calls["scalar"] == 0
    # The patch sees the package's calls: the shaping term's array ones.
    assert (calls["array"] > 0) == shaping
