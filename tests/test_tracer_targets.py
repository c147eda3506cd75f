"""The benchmark imports nhswe: the tracer rebinds names on its modules and
classes, and each workload calls a make_* factory with the inputs it draws.
Both must keep working, or a benchmark run breaks."""

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
