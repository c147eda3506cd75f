"""Tests of the benchmark's outside-in tracer.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
import nhswe
from tracer import STEP_SPAN, Tracer, patch_targets
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]

# Reduced copies of the workloads: same scenario, pair, integrator and
# boundary kinds, few nodes and steps.
SMALL = {
    "solitary_p1p0_euler_n100k": dict(n_nodes=401, t_end=0.05),
    "dingemans_p1isop2p1_euler_n10k": dict(n_nodes=401),
    "beach_p1p0_heun_n3k": dict(n_nodes=300, t_end=0.1),
}

# Calls per step derived by hand from timeloop.step_euler / step_heun.
EXPECTED_CALLS = {
    "euler": {
        "femops.assemble": 1,
        "projection.build_schur": 1,
        "core.velocities": 4,
        "hyperbolic.max_wave_speed": 2,
        "projection.resolve_projection_bcs": 2,
        "femops.apply_divergence": 3,
    },
    "heun": {
        "femops.assemble": 7,
        "projection.build_schur": 3,
        "core.velocities": 8,
        "hyperbolic.max_wave_speed": 3,
        "projection.resolve_projection_bcs": 6,
        "femops.apply_divergence": 9,
    },
}


def small(name):
    return dataclasses.replace(WORKLOADS[name], **SMALL[name])


def test_self_time_on_synthetic_nested_calls():
    # outer [0, 10] holds a [1, 3] and b [4, 8]; b holds step [5, 6]
    ticks = iter([0, 1, 3, 4, 5, 6, 8, 10])
    tr = Tracer(clock=lambda: next(ticks))
    a = tr.wrap("a", lambda: None)
    inner = tr.wrap(STEP_SPAN, lambda: None)
    b = tr.wrap("b", lambda: inner())
    outer = tr.wrap("outer", lambda: (a(), b()))
    outer()

    assert tr.names == ["outer", "a", "b", STEP_SPAN]
    assert tr.parent == [-1, 0, 0, 2]
    assert tr.step == [-1, -1, -1, 0]
    assert tr.self_ns().tolist() == [4, 2, 3, 1]
    summary = tr.summary()
    assert summary["outer"] == (1, 4)
    assert summary["b"] == (1, 3)
    # self times add up to the root span
    assert sum(ns for _, ns in summary.values()) == 10


def test_self_time_sums_repeated_calls():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: next(ticks))
    leaf = tr.wrap("leaf", lambda: None)
    root = tr.wrap("root", lambda: [leaf() for _ in range(3)])
    root()
    # root spans 0..7 with three children of one tick each
    assert tr.summary() == {"root": (1, 7 - 3), "leaf": (3, 3)}


def _bindings():
    return {(id(owner), attr): owner.__dict__[attr] for owner, attr, _ in patch_targets()}


def test_patch_and_restore_rebinds_every_name():
    before = _bindings()
    tr = Tracer()
    with tr.installed(patch_targets()):
        assert nhswe.timeloop.predict is not nhswe.hyperbolic.predict
        during = _bindings()
        assert all(during[k] is not v for k, v in before.items())
    assert all(_bindings()[k] is v for k, v in before.items())
    for owner, attr, _ in patch_targets():
        if not isinstance(owner, type):
            # a name imported from another module is again that module's object
            fn = getattr(owner, attr)
            assert getattr(sys.modules[fn.__module__], attr) is fn, (owner.__name__, attr)
    assert nhswe.timeloop.predict is nhswe.hyperbolic.predict
    assert nhswe.timeloop.assemble is nhswe.femops.assemble
    assert nhswe.timeloop.build_schur is nhswe.projection.build_schur
    assert nhswe.run is nhswe.timeloop.run


def test_restore_after_an_exception():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer().installed(patch_targets()):
            raise RuntimeError("boom")
    assert all(_bindings()[k] is v for k, v in before.items())


@pytest.fixture(scope="module", params=sorted(SMALL))
def traced_pair(request):
    """(workload, untraced (batch, final), traced (batch, final), tracer)
    on a small mesh."""
    wl = small(request.param)
    inputs = wl.inputs(3)
    plain = harness.run_batch(wl, inputs, harness.Checks())
    tr = Tracer()
    with tr.installed(patch_targets()):
        traced = harness.run_batch(wl, inputs, harness.Checks(), tr)
    return wl, plain, traced, tr


def test_traced_final_state_is_bit_identical(traced_pair):
    _, (plain, plain_final), (traced, traced_final), _ = traced_pair
    assert plain.steps == traced.steps > 1
    assert harness.same_state(plain_final, traced_final)


def test_calls_per_step_match_hand_derived_table(traced_pair):
    wl, _, (traced, _), tr = traced_pair
    metrics = harness.layer_metrics(tr, wl.n_nodes, peak_temp=0.0, overhead_frac=0.0)
    assert tr.summary()[STEP_SPAN][0] == traced.steps
    for name, calls in EXPECTED_CALLS[wl.integrator].items():
        assert metrics[f"{name}.calls_per_step"][0] == calls, name
    assert metrics["timeloop.step.calls_per_step"][0] == 1
    assert metrics["timeloop.run.calls_per_step"][0] == 1 / traced.steps
    gauges = metrics["scenarios.gauge_record.calls_per_step"][0]
    assert (gauges > 0) == (wl.maker == "make_dingemans")
    assert sum(metrics[f"{m}.self_share"][0] for m in harness.MODULES) == pytest.approx(1.0)


def test_benchmark_json_names_the_reported_metrics(traced_pair):
    wl, (plain, _), _, tr = traced_pair
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    e2e, _ = harness.end_to_end_metrics([plain], wl.n_nodes, setup_s=1.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: u for k, (_, u) in e2e.items()
    }
    layer = harness.layer_metrics(tr, wl.n_nodes, peak_temp=0.0, overhead_frac=0.0)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: u for k, (_, u) in layer.items()
    }


def test_measure_counts_a_final_state_mismatch(traced_pair):
    wl, (_, final), _, _ = traced_pair
    checks = harness.Checks()
    harness.measure(wl, wl.inputs(3), 0.0, checks, reference=final)
    assert checks.failures.get("final_state_bit_identical") is None
    wrong = final.copy()
    wrong.H[0] = np.nextafter(wrong.H[0], np.inf)
    harness.measure(wl, wl.inputs(3), 0.0, checks, reference=wrong)
    assert checks.failures.get("final_state_bit_identical") == 1
