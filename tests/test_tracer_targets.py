"""The benchmark imports nhswe: the tracer rebinds names on its modules and
classes, each workload calls a make_* factory with the inputs it draws, and
the harness calls cfl_dt(state0, mesh, params), calls the steppers
positionally and reads the fields of a step's result.  All must keep
working, or a benchmark run breaks."""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import nhswe

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(stem: str):
    name = f"perfbench_{stem}"
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def test_every_patch_target_is_defined_on_its_owner():
    targets = _load("tracer").patch_targets()
    assert targets
    missing = [
        (getattr(owner, "__name__", owner), attr)
        for owner, attr, _ in targets
        if attr not in owner.__dict__
    ]
    assert not missing


WORKLOADS = _load("workloads").WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_input_is_a_factory_parameter(name):
    wl = WORKLOADS[name]
    inspect.signature(getattr(nhswe, wl.maker)).bind(n_nodes=wl.n_nodes, **wl.inputs(1))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_cfl_dt_takes_what_the_harness_passes(name):
    sc = WORKLOADS[name].build(WORKLOADS[name].inputs(1))
    params = nhswe.PhysicalParams(h_eps=sc.h_eps)
    inspect.signature(nhswe.cfl_dt).bind(sc.state0, sc.mesh, params)
    assert nhswe.cfl_dt(sc.state0, sc.mesh, params) > 0.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_the_harness_steps_and_measures_every_workload(name, monkeypatch):
    # first_steps calls step_euler / step_heun(state, mesh, bathy, params,
    # bounds, pair) positionally, and computed_working_set runs vars() over
    # the step's state, operators, Schur system, BC plan and pressure
    monkeypatch.syspath_prepend(str(PERFBENCH))
    harness = importlib.import_module("harness")
    wl = WORKLOADS[name]
    res = next(harness.first_steps(harness.prepare(wl, wl.inputs(1)), wl.integrator, 1))
    assert res.state.t == res.report.dt > 0.0
    assert harness.computed_working_set(wl, wl.inputs(1))["bytes"] > 0
