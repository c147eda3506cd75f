"""Every verify check, each run at its own mesh and asserted to pass.

Four checks carry the `slow` marker, which the default run deselects;
`python -m pytest -m slow` runs them (about two minutes on 2 vCPUs):
  * convergence_order and shape_preservation share the solitary-wave
    convergence table (five meshes up to N = 6495, about a minute);
  * wellbalanced_positivity (a 3000-node beach run plus 1000 random steps)
    and dam_break_plateau (N = 6000 to t = 45) take about 10 s each.
"""

import pytest

from nhswe import verify

FAST_CHECKS = (
    "operator_duality",
    "fd_equivalence",
    "schur_spd",
    "mass_conservation",
    "discrete_divergence",
    "solver_agreement",
    "heun_order",
)
SLOW_CHECKS = (
    "convergence_order",
    "shape_preservation",
    "wellbalanced_positivity",
    "dam_break_plateau",
)


def test_every_check_is_fast_or_named_slow():
    assert sorted(FAST_CHECKS + SLOW_CHECKS) == sorted(verify.CRITERIA)


def _assert_passes(name):
    result = verify.run_criterion(name)
    assert result.name == name
    assert result.passed, result.line()


@pytest.mark.parametrize("name", FAST_CHECKS)
def test_fast_check_passes(name):
    _assert_passes(name)


@pytest.mark.slow
@pytest.mark.parametrize("name", SLOW_CHECKS)
def test_slow_check_passes(name):
    _assert_passes(name)


def test_heun_order_fails_when_a_step_is_clipped(monkeypatch):
    real_step = verify.step_heun

    def clipped(*args, dt, **kwargs):
        return real_step(*args, dt=0.5 * dt, **kwargs)

    monkeypatch.setattr(verify, "step_heun", clipped)
    result = verify.run_criterion("heun_order")
    assert not result.passed
    assert "requested dt" in result.details
