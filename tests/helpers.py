"""Test helpers shared across modules (importable, unlike conftest)."""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Add, Conv2d, ReLU
from repro.nn.network import Network, NetworkBuilder
from repro.profiling.latency import CostTable


def make_table(f, g, cloud=None, name="synthetic") -> CostTable:
    """Construct a CostTable straight from arrays (test convenience)."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if cloud is None:
        cloud = np.linspace(0.0, 1e-3, len(f))
    return CostTable(
        model_name=name,
        positions=tuple(f"l{i}" for i in range(len(f))),
        f=f,
        g=g,
        cloud=np.asarray(cloud, dtype=float),
    )


def non_sp_network() -> Network:
    """A non-series-parallel net: one branch feeds two different merges."""
    b = NetworkBuilder("nonsp", input_shape=(3, 32, 32))
    a = b.add(Conv2d(32, kernel=3, padding="same"), name="conv_a")
    p = b.add(Conv2d(2, kernel=1), name="conv_p", inputs=(a,))
    q = b.add(Conv2d(2, kernel=1), name="conv_q", inputs=(a,))
    r = b.add(Add(), name="add_r", inputs=(p, q))
    t = b.add(ReLU(), name="relu_t", inputs=(p,))
    b.add(Add(), name="add_out", inputs=(r, t))
    return b.build()
