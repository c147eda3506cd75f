import numpy as np
import pytest

import nhswe as nh
from nhswe.femops import P1ISOP2P1, P1P0
from nhswe.projection import divergence_residual, resolve_projection_bcs
from nhswe.verify import SolverConvergenceError, _solve_cg, _solve_uzawa

from oracles import random_wet_setup

PAIRS = (P1P0, P1ISOP2P1)


def _random_system(rng, tag, bcs=(), n_min=7, n_max=13):
    mesh, H, zb = random_wet_setup(rng, n_min=n_min, n_max=n_max, odd=True)
    ops = nh.assemble(nh.ElementPair.from_tag(tag, mesh.n_nodes), mesh, H, zb)
    U = rng.standard_normal(2 * mesh.n_nodes)
    dt = 0.01 * (1.0 + rng.random())
    sys = nh.build_schur(ops, U, dt, bcs=bcs)
    return sys, ops, U, dt


def _dirichlet_both():
    return (nh.PressureBC("in", "dirichlet"), nh.PressureBC("out", "dirichlet"))


# -- build_schur -------------------------------------------------------------


def test_schur_n3_dense_hand_assembly():
    # P1/P0, N=3 uniform, H=1, zb=0, natural boundaries: the 2x2 system is
    # written out by hand from the interface stencils
    h = 0.5
    mesh = nh.Mesh1D.uniform(0.0, 1.0, 3)
    ops = nh.assemble(nh.ElementPair.p1p0(3), mesh, np.ones(3), np.zeros(3))
    U = np.array([0.3, -0.2, 0.1, 0.05, -0.4, 0.25])
    dt = 0.02
    sys = nh.build_schur(ops, U, dt)
    # divergence rows: (-u_l + u_{l+1}) + h (w_l + w_{l+1});
    # lumped mass: [h/2, h, h/2]
    a = np.array([h / 2.0, h, h / 2.0])
    D = np.array([
        [-1.0, 1.0, 0.0, h, h, 0.0],
        [0.0, -1.0, 1.0, 0.0, h, h],
    ])
    S_hand = D @ np.diag(1.0 / np.r_[a, a]) @ D.T
    rhs_hand = -(1.0 / dt) * D @ U
    assert np.allclose(sys.dense(), S_hand, atol=1e-13)
    assert np.allclose(sys.rhs, rhs_hand, atol=1e-13)


def test_schur_rhs_zero_for_divergence_free_data():
    mesh = nh.Mesh1D.uniform(0.0, 1.0, 9)
    ops = nh.assemble(nh.ElementPair.p1p0(9), mesh, np.ones(9), np.zeros(9))
    U = np.concatenate([0.7 * np.ones(9), np.zeros(9)])  # constant u, flat data
    sys = nh.build_schur(ops, U, 0.01)
    assert np.abs(sys.rhs).max() <= 1e-12
    p = nh.solve_pressure(sys)
    assert np.abs(p.values).max() == 0.0


@pytest.mark.parametrize("tag", PAIRS)
def test_schur_symmetry_random_wet_dirichlet(tag):
    rng = np.random.default_rng(12)
    for _ in range(50):
        sys, _, _, _ = _random_system(rng, tag, bcs=_dirichlet_both())
        S = sys.dense()
        assert np.abs(S - S.T).max() <= 1e-12 * max(1.0, np.abs(S).max())


@pytest.mark.parametrize("tag", PAIRS)
def test_schur_spd_random_wet_dirichlet(tag):
    rng = np.random.default_rng(21)
    for _ in range(25):
        sys, _, _, _ = _random_system(rng, tag, bcs=_dirichlet_both())
        eig = np.linalg.eigvalsh(sys.dense())
        assert eig.min() > 0.0


def test_schur_natural_system_nonsingular():
    rng = np.random.default_rng(4)
    sys, _, _, _ = _random_system(rng, P1P0)
    eig = np.linalg.eigvalsh(sys.dense())
    assert eig.min() > 0.0


def test_schur_bandwidth_structure():
    rng = np.random.default_rng(5)
    sys1, _, _, _ = _random_system(rng, P1P0)
    assert sys1.bandwidth == 1
    sys2, _, _, _ = _random_system(rng, P1ISOP2P1)
    assert sys2.bandwidth == 2
    S = sys2.dense()
    m = S.shape[0]
    for d in range(3, m):
        assert np.abs(np.diag(S, k=d)).max() == 0.0


@pytest.mark.parametrize("tag", PAIRS)
def test_schur_dense_equals_masked_operator_product(tag):
    # S = B A_H^-1 B^T from the dense operators, held and dry velocity dofs
    # masked out of A_H^-1, pinned pressure rows and columns replaced by the
    # identity; the lower band storage must reproduce it
    rng = np.random.default_rng(33)
    for bcs in (
        (nh.PressureBC("in", "dirichlet"),),
        (nh.PressureBC("out", "wall"),),
    ):
        mesh, H, zb = random_wet_setup(rng, n_min=15, n_max=21, odd=True)
        n = mesh.n_nodes
        H[n // 2 - 2 : n // 2 + 3] = 0.0  # a dry patch pins the dofs it supports
        ops = nh.assemble(nh.ElementPair.from_tag(tag, n), mesh, H, zb)
        sys = nh.build_schur(ops, rng.standard_normal(2 * n), 0.05, bcs=bcs)
        pinned = sys.plan.pinned
        assert pinned.any() and not pinned.all()
        free = np.r_[sys.plan.free_u, sys.plan.free_w]
        B = ops.dense_divergence()
        inv_mass = np.where(free, 1.0 / np.r_[ops.a_node, ops.a_node], 0.0)
        S = B @ np.diag(inv_mass) @ B.T
        S[pinned, :] = 0.0
        S[:, pinned] = 0.0
        S[pinned, pinned] = 1.0
        x = rng.standard_normal(ops.n_pressure)
        tol = 1e-12 * np.abs(S).max()
        assert np.allclose(sys.dense(), S, rtol=0.0, atol=tol)
        assert np.allclose(sys.matvec(x), S @ x, rtol=0.0, atol=tol * np.abs(x).sum())


def test_schur_rejects_bad_dt():
    rng = np.random.default_rng(6)
    mesh, H, zb = random_wet_setup(rng)
    ops = nh.assemble(nh.ElementPair.p1p0(mesh.n_nodes), mesh, H, zb)
    with pytest.raises(ValueError):
        nh.build_schur(ops, np.zeros(2 * mesh.n_nodes), 0.0)


# -- solve_pressure -----------------------------------------------------------


def test_zero_rhs_gives_zero_pressure_all_methods():
    rng = np.random.default_rng(9)
    sys, _, _, _ = _random_system(rng, P1P0)
    sys.rhs[:] = 0.0
    assert np.abs(nh.solve_pressure(sys).values).max() == 0.0
    for reference in (_solve_cg, _solve_uzawa):
        p, iterations = reference(sys, 1e-10)
        assert np.abs(p).max() == 0.0
        assert iterations == 0


def test_cg_agrees_with_direct():
    rng = np.random.default_rng(13)
    tol = 1e-10
    for tag in PAIRS:
        for _ in range(10):
            sys, _, _, _ = _random_system(rng, tag, bcs=_dirichlet_both())
            sys.rhs[:] = np.where(sys.plan.pinned, sys.rhs, rng.standard_normal(sys.n_pressure))
            p_direct = nh.solve_pressure(sys).values
            p_cg, _ = _solve_cg(sys, tol)
            rel = np.linalg.norm(p_cg - p_direct) / np.linalg.norm(p_direct)
            assert rel <= 10.0 * tol


def test_uzawa_agrees_with_direct():
    rng = np.random.default_rng(14)
    tol = 1e-6
    for tag in PAIRS:
        sys, ops, U, dt = _random_system(rng, tag, n_min=21, n_max=27)
        p_direct = nh.solve_pressure(sys).values
        p_uz, _ = _solve_uzawa(sys, tol)
        rel = np.linalg.norm(p_uz - p_direct) / max(np.linalg.norm(p_direct), 1e-300)
        assert rel <= 10.0 * tol


def test_direct_residual_reported():
    rng = np.random.default_rng(15)
    sys, _, _, _ = _random_system(rng, P1P0)
    p = nh.solve_pressure(sys)
    residual = np.linalg.norm(sys.dense() @ p.values - sys.rhs) / np.linalg.norm(sys.rhs)
    assert residual <= 1e-10


def test_uzawa_iteration_cap_error():
    # fine metric mesh -> large condition number: the fixed-relaxation
    # iteration cannot reach the target inside 10 M sweeps
    rng = np.random.default_rng(16)
    n = 81
    mesh = nh.Mesh1D.uniform(0.0, 0.4, n)
    ops = nh.assemble(nh.ElementPair.p1p0(n), mesh, np.ones(n), np.zeros(n))
    U = rng.standard_normal(2 * n)
    sys = nh.build_schur(ops, U, 0.01)
    with pytest.raises(SolverConvergenceError) as err:
        _solve_uzawa(sys, 1e-13)
    assert err.value.residual > 0.0
    assert err.value.iterations > 0


# -- correct_velocity ---------------------------------------------------------


def test_zero_pressure_identity():
    rng = np.random.default_rng(18)
    mesh, H, zb = random_wet_setup(rng)
    ops = nh.assemble(nh.ElementPair.p1p0(mesh.n_nodes), mesh, H, zb)
    U = rng.standard_normal(2 * mesh.n_nodes)
    out = nh.correct_velocity(U, np.zeros(ops.n_pressure), ops, 0.1)
    assert np.array_equal(out, U)


@pytest.mark.parametrize("tag", PAIRS)
def test_corrected_field_is_divergence_free(tag):
    rng = np.random.default_rng(19)
    for bcs in ((), _dirichlet_both()):
        sys, ops, U, dt = _random_system(rng, tag, bcs=bcs)
        p = nh.solve_pressure(sys)
        U_new = nh.correct_velocity(U, p.values, ops, dt, bcs=bcs)
        base = divergence_residual(sys, np.concatenate([sys.plan.u_base, sys.plan.w_base]))
        assert divergence_residual(sys, U_new) <= 1e-10 * base + 1e-12


@pytest.mark.parametrize("tag", PAIRS)
def test_projection_idempotence(tag):
    rng = np.random.default_rng(20)
    tol = 1e-10
    sys, ops, U, dt = _random_system(rng, tag)
    p1 = nh.solve_pressure(sys)
    U1 = nh.correct_velocity(U, p1.values, ops, dt)
    sys2 = nh.build_schur(ops, U1, dt)
    p2 = nh.solve_pressure(sys2)
    assert np.linalg.norm(p2.values) <= 10.0 * tol * max(np.linalg.norm(p1.values), 1.0)


# -- boundary handling --------------------------------------------------------


def test_dirichlet_value_enters_solution():
    # the Dirichlet value is 0: the pinned dof solves to exactly 0
    rng = np.random.default_rng(22)
    mesh, H, zb = random_wet_setup(rng)
    ops = nh.assemble(nh.ElementPair.p1p0(mesh.n_nodes), mesh, H, zb)
    U = rng.standard_normal(2 * mesh.n_nodes)
    bcs = (nh.PressureBC("in", "dirichlet"),)
    sys = nh.build_schur(ops, U, 0.05, bcs=bcs)
    p = nh.solve_pressure(sys)
    assert p.values[0] == 0.0
    assert np.abs(p.values[1:]).max() > 0.0
    # against a dense solve of the same eliminated system
    ref = np.linalg.solve(sys.dense(), sys.rhs)
    assert np.allclose(p.values, ref, atol=1e-10)


def test_neumann_pins_boundary_velocity():
    rng = np.random.default_rng(23)
    mesh, H, zb = random_wet_setup(rng)
    n = mesh.n_nodes
    ops = nh.assemble(nh.ElementPair.p1p0(n), mesh, H, zb)
    U = rng.standard_normal(2 * n)
    bcs = (nh.PressureBC("in", "wall"), nh.PressureBC("out", "neumann"))
    sys = nh.build_schur(ops, U, 0.05, bcs=bcs)
    p = nh.solve_pressure(sys)
    U_new = nh.correct_velocity(U, p.values, ops, 0.05, bcs=bcs)
    assert U_new[0] == 0.0
    assert U_new[n - 1] == U[n - 1]
    assert divergence_residual(sys, U_new) <= 1e-9


def test_pressure_bc_kinds_are_dirichlet_and_neumann():
    # "wall" is the Neumann condition with zero velocity; an imposed depth
    # closes as Neumann (its Robin coefficient lives in the depth-dependent
    # boundary entries of B and C), so no "mixed" kind exists
    with pytest.raises(ValueError):
        nh.PressureBC("out", "mixed")


def test_dry_pressure_dofs_pinned_to_zero():
    mesh = nh.Mesh1D.uniform(0.0, 1.0, 9)
    H = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    ops = nh.assemble(nh.ElementPair.p1p0(9), mesh, H, np.zeros(9), h_eps=1e-8)
    U = np.concatenate([np.zeros(9), np.where(H > 0, 0.3, 0.0)])
    sys = nh.build_schur(ops, U, 0.01)
    p = nh.solve_pressure(sys)
    assert np.all(p.values[ops.dry_pressure_dofs()] == 0.0)
    U_new = nh.correct_velocity(U, p.values, ops, 0.01)
    # dry velocities untouched
    assert np.array_equal(U_new[9 + 5:], U[9 + 5:])


def test_plan_masks():
    mesh = nh.Mesh1D.uniform(0.0, 1.0, 5)
    H = np.ones(5)
    ops = nh.assemble(nh.ElementPair.p1p0(5), mesh, H, np.zeros(5))
    U = np.arange(10.0)
    plan = resolve_projection_bcs(ops, (nh.PressureBC("in", "wall"),), U)
    assert not plan.free_u[0] and plan.free_u[1:].all()
    assert plan.free_w.all()
    assert plan.u_base[0] == 0.0
    assert np.array_equal(plan.u_base[1:], U[1:5])
