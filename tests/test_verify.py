"""Every verify check, each run at its own mesh and asserted to pass.

All seven checks run in the default suite.  The costliest are
convergence_order and shape_preservation, which read one solitary-wave
convergence table per pair (five meshes up to N = 6495) that
verify.solitary_l2_errors builds once per process, then
wellbalanced_positivity (a 3000-node beach run plus 1000 random steps) and
dam_break_plateau (N = 6000 to t = 45).
"""

from collections import Counter

import numpy as np
import pytest

from nhswe import hyperbolic, projection, timeloop, verify
from nhswe.core import total_mass


def _assert_passes(name):
    result = verify.run_criterion(name)
    assert result.name == name
    assert result.passed, result.line()


@pytest.mark.parametrize("name", sorted(verify.CRITERIA))
def test_check_passes(name):
    _assert_passes(name)


@pytest.fixture
def empty_table_cache():
    verify.solitary_l2_errors.cache_clear()
    yield
    verify.solitary_l2_errors.cache_clear()


def test_both_convergence_checks_share_one_table_per_pair(monkeypatch, empty_table_cache):
    # each stubbed solitary run counts itself; its error 1/N passes both checks
    runs = Counter()

    def counted_run(sc, params, t_end, pair):
        runs[pair.tag] += 1

    monkeypatch.setattr(verify, "run", counted_run)
    monkeypatch.setattr(verify, "relative_l2_depth_error", lambda sc, out: 1.0 / sc.mesh.n_nodes)
    for name in ("convergence_order", "shape_preservation"):
        _assert_passes(name)
    n_meshes = len(verify.CONVERGENCE_MESHES)
    assert runs == {tag: n_meshes for tag in verify.PAIRS}
    assert not verify.solitary_l2_errors(verify.P1P0).flags.writeable


def test_heun_order_fails_when_a_step_is_clipped(monkeypatch):
    real_step = verify.step_heun

    def clipped(*args, dt, **kwargs):
        return real_step(*args, dt=0.5 * dt, **kwargs)

    monkeypatch.setattr(verify, "step_heun", clipped)
    result = verify.run_criterion("heun_order")
    assert not result.passed
    assert "requested dt" in result.details


def test_discrete_divergence_fails_when_the_pressure_is_not_solved(monkeypatch):
    # a zero pressure leaves the predicted divergence uncorrected: each run
    # raises DivergenceBoundError, which the check reports as a FAIL that
    # names the scenario
    monkeypatch.setattr(
        timeloop, "solve_pressure", lambda sys, rhs: projection.PressureField(np.zeros_like(rhs))
    )
    result = verify.run_criterion("discrete_divergence")
    assert not result.passed
    for name, *_ in verify._divergence_runs():
        assert f"{name} raised divergence bound violated" in result.details


def test_convergence_order_fails_with_the_correction_off(monkeypatch, empty_table_cache):
    # a hydrostatic run (no correction, and no divergence bound to miss)
    # does not converge to the dispersive solitary wave: its errors stay
    # near 5e-2 on the two coarsest meshes
    monkeypatch.setattr(timeloop, "correct_velocity", lambda sys, u, w, dt, p: (u, w))
    monkeypatch.setattr(timeloop, "divergence_residual", lambda sys, u, w: 0.0)
    monkeypatch.setattr(verify, "CONVERGENCE_MESHES", (603, 1023))
    result = verify.run_criterion("convergence_order")
    assert not result.passed
    for tag in verify.PAIRS:
        errors = verify.solitary_l2_errors(tag)
        assert errors.min() > 4e-2 and errors[1] >= errors[0]


def test_shape_preservation_fails_with_a_kick_that_does_not_fall_with_dx(
    monkeypatch, empty_table_cache
):
    # a depth kick of 1e-4 per step at every node: a finer mesh takes more
    # steps to the same time, so its kicks add up to a larger error where
    # first order wants a smaller one.  The check fails on the size of
    # e(1023), 0.122 against twice the first-order extrapolation of e(603),
    # 0.085, for both pairs
    real = timeloop.predict

    def kicked(*args):
        out = real(*args)
        out.H += 1e-4
        return out

    monkeypatch.setattr(timeloop, "predict", kicked)
    monkeypatch.setattr(verify, "CONVERGENCE_MESHES", (603, 1023))
    result = verify.run_criterion("shape_preservation")
    assert not result.passed
    for tag in verify.PAIRS:
        coarse, fine = verify.solitary_l2_errors(tag)
        assert fine > 2.0 * coarse * (603 / 1023)
        assert f"{tag} e(1023)={fine:.3e}" in result.details


def test_dam_break_plateau_fails_with_a_wrong_flux_wave_speed(monkeypatch):
    # an equilibrium support 0.9 times too wide keeps the flux consistent
    # for mass but scales its pressure by 0.81: the plateau's depth does
    # not depend on G, its velocity goes with sqrt(G) and misses by 10 %
    real = hyperbolic._equilibrium_support

    def slow_support(H):
        s, k = real(H)
        s *= 0.9
        k /= 0.9
        return s, k

    monkeypatch.setattr(hyperbolic, "_equilibrium_support", slow_support)
    result = verify.run_criterion("dam_break_plateau")
    assert not result.passed
    assert "(star 1.0750, dev 10.00%)" in result.details


def test_mass_conservation_fails_with_a_leak_of_one_ulp_per_step(monkeypatch):
    # each prediction loses one ulp of the total mass at the middle
    # interface: the node right of it receives that much less than the node
    # left of it gives.  The check compares its own prediction with the
    # step's, so both take the leaking one.  A step drifts 3.056e-16, far
    # below the per-step bound; the whole run drifts 50 times its bound
    real = timeloop.predict

    def leaking(state, u, w, mesh, *args):
        out = real(state, u, w, mesh, *args)
        k = state.n_nodes // 2
        out.H[k] -= np.spacing(total_mass(out, mesh)) / mesh.dual_widths[k]
        return out

    monkeypatch.setattr(timeloop, "predict", leaking)
    monkeypatch.setattr(verify, "predict", leaking)
    result = verify.run_criterion("mass_conservation")
    assert not result.passed
    assert "whole-run relative drift = 3.041e-14 (bound 4 ulp = 6.113e-16)" in result.details


def test_wellbalanced_positivity_fails_without_the_hydrostatic_reconstruction(monkeypatch):
    # interface depths taken as the nodal ones over the beach's sloping
    # bottom: the lake at rest starts to flow, and the check reports it
    monkeypatch.setattr(
        hyperbolic, "hydrostatic_reconstruct", lambda Hi, Hj, zbi, zbj: (Hi.copy(), Hj.copy())
    )
    result = verify.run_criterion("wellbalanced_positivity")
    assert not result.passed
    assert "lake-at-rest drift over 100 steps 2.08e-01" in result.details


def test_wellbalanced_positivity_fails_at_a_cfl_number_above_one(monkeypatch):
    # predict refuses a step beyond CFL 1 itself: every part raises a CFL
    # violation, which the check reports as a FAIL of that part
    monkeypatch.setattr(hyperbolic, "CFL", 1.5)
    result = verify.run_criterion("wellbalanced_positivity")
    assert not result.passed
    for part in ("lake at rest", "random steps", "beach run"):
        assert f"{part} raised CFL violation" in result.details
    # with that guard let through as well, random steps drive a depth below
    # 0, which predict raises on, rather than clip
    monkeypatch.setattr(hyperbolic, "cfl_admits", lambda dt, speed, mesh: True)
    result = verify.run_criterion("wellbalanced_positivity")
    assert not result.passed
    assert "random steps raised negative depth produced by the prediction step" in result.details
