"""Every verify check, each run at its own mesh and asserted to pass.

All seven checks run in the default suite.  The costliest are
convergence_order and shape_preservation, which read one solitary-wave
convergence table per pair (five meshes up to N = 6495) that
verify.solitary_l2_errors builds once per process, then
wellbalanced_positivity (a 3000-node beach run plus 1000 random steps) and
dam_break_plateau (N = 6000 to t = 45).
"""

from collections import Counter

import pytest

from nhswe import verify


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
