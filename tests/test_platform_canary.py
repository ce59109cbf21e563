"""Platform canary: the exact bits of each float primitive a run's bytes rest on.

The golden digests (``test_fingerprint.py``, ``test_cli_artifacts.py``) move
when any of these primitives rounds differently, but they cannot say which.
Each primitive here is pinned on fixed inputs near those the simulator
feeds it, as recorded with Python 3.11 and numpy 2.4 on x86_64 Linux, so a
platform difference fails under the primitive's own name:

- ``math.hypot``, every length the step core compares with a limit;
- Python's ``float ** float`` (the C library's ``pow``), in the Mantegna
  kernel, its sigma and the potential field;
- ``math.sin`` and ``math.gamma``, in the Mantegna sigma;
- ``math.exp``, in the hybrid's adaptive gate;
- numpy's array ``sin``, ``cos`` and ``sqrt``, in the twocluster generator;
- ``np.hypot``, in the optional shaping term.
"""

import math

import numpy as np
import pytest

BETAS = [0.3, 0.5, 1.0, 1.3, 1.5, 1.7, 2.0]
# 16 values, so numpy's vector loops and not only their scalar tails run.
ANGLES = [0.05 + 0.3927 * k for k in range(16)]
UNITS = [(k + 0.5) / 16.0 + 1e-3 * k * k for k in range(16)]
DX = [-48.7 + 6.1 * k for k in range(16)]
DY = [0.3 + 5.3 * k - 0.01 * k * k for k in range(16)]

PRIMITIVES = {
    "math.hypot": lambda: [math.hypot(x, y) for x, y in zip(DX, DY)]
    + [math.hypot(0.1, 0.2), math.hypot(1.0 / 3.0, 2.0 / 3.0), math.hypot(1e-5, 3e-6)],
    "float_pow": lambda: [b ** (1.0 / b) for b in BETAS]
    + [2.0 ** ((b - 1.0) / 2.0) for b in BETAS]
    + [u ** (1.0 / b) for u, b in zip(UNITS, BETAS)]
    + [(0.37 * k + 0.01) ** 2 for k in range(8)],
    "math.sin": lambda: [math.sin(math.pi * b / 2.0) for b in BETAS]
    + [math.sin(a) for a in ANGLES],
    "math.gamma": lambda: [math.gamma(1.0 + b) for b in BETAS]
    + [math.gamma((1.0 + b) / 2.0) for b in BETAS],
    "math.exp": lambda: [math.exp(-0.37 * k + 1.3) for k in range(16)],
    "np.sin": lambda: np.sin(np.array(ANGLES)).tolist(),
    "np.cos": lambda: np.cos(np.array(ANGLES)).tolist(),
    "np.sqrt": lambda: np.sqrt(np.array(UNITS)).tolist(),
    "np.hypot": lambda: np.hypot(np.array(DX), np.array(DY)).tolist(),
}

# float.hex() of each primitive's values, in PRIMITIVES' order.
PINNED = {
    "math.hypot": """
        0x1.859b7e0ce94d6p+5 0x1.57b8b8e13dc03p+5 0x1.30a69d75aa445p+5 0x1.133d15c768087p+5
        0x1.02b8a2fa82b67p+5 0x1.01836a3701c55p+5 0x1.0fbed7d667b2cp+5 0x1.2b27ebe619734p+5
        0x1.507b1f9b2a31cp+5 0x1.7cc3ae2d64d85p+5 0x1.add0b200c530fp+5 0x1.e223d967b6f33p+5
        0x1.0c5f77db7c0aep+6 0x1.287c29aa219aap+6 0x1.452e7c98154c2p+6 0x1.624e9a4db319dp+6
        0x1.c9f25c5bfeddap-3 0x1.7d9f4cf754635p-1 0x1.5e518ccee539fp-17
    """.split(),
    "float_pow": """
        0x1.2822be3c43a3bp-6 0x1.0000000000000p-2 0x1.0000000000000p+0 0x1.393f8f696e1e9p+0
        0x1.4f747439b348ap+0 0x1.5dc855fa9aa65p+0 0x1.6a09e667f3bcdp+0 0x1.91b501c2db3dfp-1
        0x1.ae89f995ad3adp-1 0x1.0000000000000p+0 0x1.1c0cbeb32bdf9p+0 0x1.306fe0a31b715p+0
        0x1.46499af31b007p+0 0x1.6a09e667f3bcdp+0 0x1.428a2f98d7288p-17 0x1.262d40aaeafabp-7
        0x1.483126e978d50p-3 0x1.481f95d252c0dp-2 0x1.c8165176ed64fp-2 0x1.1cb662b26eec9p-1
        0x1.547d57fe55819p-1 0x1.a36e2eb1c432dp-14 0x1.27bb2fec56d5dp-3 0x1.2000000000000p-1
        0x1.41205bc01a36dp+0 0x1.1c2c3c9eecbfbp+1 0x1.bad42c3c9eecdp+1 0x1.3e43fe5c91d13p+2
        0x1.b0a3d70a3d708p+2
    """.split(),
    "math.sin": """
        0x1.d0e2e2b44de00p-2 0x1.6a09e667f3bccp-1 0x1.0000000000000p+0 0x1.c83201d3d2c6dp-1
        0x1.6a09e667f3bcdp-1 0x1.d0e2e2b44de02p-2 0x1.1a62633145c07p-53 0x1.996dea2ff643cp-5
        0x1.b6a970c1a81fap-2 0x1.7bae65cc7f767p-1 0x1.e23a6e8c08ea7p-1 0x1.ff5c2b89816acp-1
        0x1.cea43beda8d77p-1 0x1.577d5f32be1fbp-1 0x1.5816c736ae829p-2 -0x1.997d4d54ddcd6p-5
        -0x1.b6ab2e3cef350p-2 -0x1.7baf0b2c66bf4p-1 -0x1.e23ac160ea663p-1 -0x1.ff5c1f37190f2p-1
        -0x1.cea3d25432150p-1 -0x1.577ca865d7617p-1 -0x1.5814f6dee0c01p-2
    """.split(),
    "math.gamma": """
        0x1.cb81477381f35p-1 0x1.c5bf891b4ef6bp-1 0x1.0000000000000p+0 0x1.2aada1a4ae113p+0
        0x1.544fa6d47b391p+0 0x1.8b70881685bbep+0 0x1.0000000000000p+1 0x1.6281ee8add666p+0
        0x1.39b4e8b50f62dp+0 0x1.0000000000000p+0 0x1.ddb78a79df3e5p-1 0x1.d013fc47eeeecp-1
        0x1.c84500768e233p-1 0x1.c5bf891b4ef6bp-1
    """.split(),
    "math.exp": """
        0x1.d5ab83615f8b4p+1 0x1.446acbf6a3e8dp+1 0x1.c02c12aec73f0p+0 0x1.359161b2a3991p+0
        0x1.aba88982ab391p-1 0x1.2765f72e0901cp-1 0x1.981560212a428p-2 0x1.19e0958ba8c06p-2
        0x1.856795e9d8bb1p-3 0x1.0cf9a341164f9p-3 0x1.7394ab289bfc1p-4 0x1.00a9dfd11c091p-4
        0x1.62929b2efc7c6p-5 0x1.e9d4bf708193fp-6 0x1.5257d6b29d97ep-6 0x1.d369111221752p-7
    """.split(),
    "np.sin": """
        0x1.996dea2ff643cp-5 0x1.b6a970c1a81fap-2 0x1.7bae65cc7f767p-1 0x1.e23a6e8c08ea7p-1
        0x1.ff5c2b89816acp-1 0x1.cea43beda8d77p-1 0x1.577d5f32be1fbp-1 0x1.5816c736ae829p-2
        -0x1.997d4d54ddcd6p-5 -0x1.b6ab2e3cef350p-2 -0x1.7baf0b2c66bf4p-1 -0x1.e23ac160ea663p-1
        -0x1.ff5c1f37190f2p-1 -0x1.cea3d25432150p-1 -0x1.577ca865d7617p-1 -0x1.5814f6dee0c01p-2
    """.split(),
    "np.cos": """
        0x1.ff5c31b289258p-1 0x1.cea470ba3c01bp-1 0x1.577dba9913a32p-1 0x1.5817af62777a7p-2
        -0x1.99759bc275e6fp-5 -0x1.b6aa4f7f58605p-2 -0x1.7baeb87c7e1b1p-1 -0x1.e23a97f687a13p-1
        -0x1.ff5c25605c0e0p-1 -0x1.cea40720faddfp-1 -0x1.577d03cc54b45p-1 -0x1.5815df0ad1999p-2
        0x1.9984fee72df91p-5 0x1.b6ac0cfa6c9e8p-2 0x1.7baf5ddc3962bp-1 0x1.e23aeacb31394p-1
    """.split(),
    "np.sqrt": """
        0x1.6a09e667f3bcdp-3 0x1.3b33d2e189afep-2 0x1.99eb7cef346dep-2 0x1.e8af6689c6e67p-2
        0x1.17254a809b702p-1 0x1.36e93208ded54p-1 0x1.547d57fe55819p-1 0x1.7068a83104c9ep-1
        0x1.8b054131f503ep-1 0x1.a492b15956251p-1 0x1.bd3faa7236474p-1 0x1.d52f9834f3e50p-1
        0x1.ec7e0c0f405cep-1 0x1.01a077fd6b259p+0 0x1.0cc4ff662e3f9p+0 0x1.17b3e41a11638p+0
    """.split(),
    "np.hypot": """
        0x1.859b7e0ce94d6p+5 0x1.57b8b8e13dc03p+5 0x1.30a69d75aa445p+5 0x1.133d15c768087p+5
        0x1.02b8a2fa82b67p+5 0x1.01836a3701c55p+5 0x1.0fbed7d667b2cp+5 0x1.2b27ebe619734p+5
        0x1.507b1f9b2a31cp+5 0x1.7cc3ae2d64d85p+5 0x1.add0b200c530fp+5 0x1.e223d967b6f33p+5
        0x1.0c5f77db7c0aep+6 0x1.287c29aa219aap+6 0x1.452e7c98154c2p+6 0x1.624e9a4db319dp+6
    """.split(),
}


@pytest.mark.parametrize("name", list(PRIMITIVES))
def test_primitive_bits(name):
    assert [value.hex() for value in PRIMITIVES[name]()] == PINNED[name]
