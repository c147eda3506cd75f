"""Tests of the benchmark's seeded input generator."""

import numpy as np
import pytest

from workloads import WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_generates_identical_inputs(name):
    wl = WORKLOADS[name]
    assert wl.inputs(7) == wl.inputs(7)
    assert wl.inputs(7) != wl.inputs(8)
    for param, lo, hi in wl.ranges:
        assert lo <= wl.inputs(7)[param] <= hi
    a, b = wl.build(wl.inputs(7)), wl.build(wl.inputs(7))
    for field in ("H", "Hu", "Hw"):
        assert np.array_equal(getattr(a.state0, field), getattr(b.state0, field))
    assert np.array_equal(a.bathy.zb, b.bathy.zb)
    assert a.bounds.hyperbolic_at(0.3) == b.bounds.hyperbolic_at(0.3)
