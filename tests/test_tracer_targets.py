"""The benchmark tracer rebinds names on nhswe modules and classes; each one
it lists must still be defined there, or a traced run breaks."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_target_is_defined_on_its_owner():
    targets = _load_tracer().patch_targets()
    assert targets
    missing = [
        (getattr(owner, "__name__", owner), attr)
        for owner, attr, _ in targets
        if attr not in owner.__dict__
    ]
    assert not missing
