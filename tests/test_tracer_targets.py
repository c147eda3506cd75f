"""The benchmark imports nhswe: the tracer rebinds names on its modules and
classes, each workload calls a make_* factory with the inputs it draws, and
the harness calls cfl_dt(state0, mesh, params), calls the steppers
positionally and reads the fields of a step's result.  All must keep
working, or a benchmark run breaks.  A step must also keep calling each
traced layer through the name the tracer rebinds, or that layer's time
moves unseen into its caller's."""

import ast
import dataclasses
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


def test_timeloop_imports_no_name_but_the_two_only_the_tracer_reads():
    # the project runs no linter: the names timeloop imports and never reads
    # must be exactly the two the tracer rebinds on it for spans no step
    # enters, so that no other dead name kept for the tracer comes back unseen
    tree = ast.parse(Path(nhswe.timeloop.__file__).read_text())
    imported = {
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported - read == {"cfl_dt", "total_energy"}


WORKLOADS = _load("workloads").WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_input_is_a_factory_parameter(name):
    wl = WORKLOADS[name]
    inspect.signature(getattr(nhswe, wl.maker)).bind(n_nodes=wl.n_nodes, **wl.inputs(1))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_builds_at_both_ends_of_its_input_ranges(name):
    # the factories check their inputs: every value a seed can draw is valid
    wl = WORKLOADS[name]
    for end in (1, 2):
        inputs = {param: bounds[end - 1] for param, *bounds in wl.ranges}
        getattr(nhswe, wl.maker)(n_nodes=101, **inputs)


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


# Reduced copies of the workloads, as in perfbench/tests: same scenario,
# pair, integrator and boundary kinds, few nodes and steps.
SMALL = {
    "solitary_p1p0_euler_n100k": dict(n_nodes=401, t_end=0.05),
    "dingemans_p1isop2p1_euler_n10k": dict(n_nodes=401),
    "beach_p1p0_heun_n3k": dict(n_nodes=300, t_end=0.1),
}

# The traced spans a run of each workload never enters.  No step calls
# cfl_dt or total_energy; the solitary wave's zero bottom takes the per-node
# flux, with no reconstruction and no kinetic_flux; only Dingemans has
# gauges.
_NEVER = {"core.total_energy", "hyperbolic.cfl_dt"}
UNCALLED = {
    "solitary_p1p0_euler_n100k": _NEVER | {
        "hyperbolic.hydrostatic_reconstruct", "hyperbolic.kinetic_flux",
        "scenarios.gauge_record"},
    "dingemans_p1isop2p1_euler_n10k": _NEVER,
    "beach_p1p0_heun_n3k": _NEVER | {"scenarios.gauge_record"},
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_traced_run_enters_every_layer_its_step_calls(name, monkeypatch):
    # per-layer figures are not gated: a layer called past its traced name
    # (projection.solve_pressure through its module, say) would read 0
    # calls, and its time would count as its caller's, with nothing failing
    monkeypatch.syspath_prepend(str(PERFBENCH))
    harness = importlib.import_module("harness")
    tracer = importlib.import_module("tracer")
    wl = dataclasses.replace(WORKLOADS[name], **SMALL[name])
    targets = tracer.patch_targets()
    tr = tracer.Tracer()
    with tr.installed(targets):
        batch, _ = harness.run_batch(wl, wl.inputs(3), harness.Checks(), tr)
    assert batch.steps > 1
    assert {span for _, _, span in targets} - set(tr.names) == UNCALLED[name]
