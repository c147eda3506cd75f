from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import nhswe as nh
from nhswe.femops import P1ISOP2P1, P1P0
from nhswe.projection import _cholesky, divergence_residual, resolve_projection_bcs

from oracles import (
    SolverConvergenceError,
    dense_divergence,
    float_bits,
    method_spread,
    random_wet_setup,
    schur_dense,
    schur_matvec,
    solve_cg,
    solve_uzawa,
    solveh_banded_lower,
)

PAIRS = (P1P0, P1ISOP2P1)
NEUMANN = ("neumann", "neumann")

# the default dry threshold
H_EPS = nh.PhysicalParams().h_eps


def _random_system(rng, tag, bcs, n_min=7, n_max=13):
    mesh, H, zb = random_wet_setup(rng, n_min=n_min, n_max=n_max, odd=True)
    ops = nh.assemble(nh.ElementPair(tag, mesh.n_nodes), mesh, H, nh.Bathymetry(zb), H_EPS)
    n = mesh.n_nodes
    U = rng.standard_normal(2 * n)
    dt = 0.01 * (1.0 + rng.random())
    return nh.build_schur(ops, bcs), ops, (U[:n], U[n:]), dt


def _pinned_mask(sys):
    """The pinned pressure dofs of a system as a mask."""
    pinned = np.zeros(sys.n_pressure, dtype=bool)
    pinned[sys.plan.pinned_dofs] = True
    return pinned


# -- build_schur -------------------------------------------------------------


def test_schur_n3_dense_hand_assembly():
    # P1/P0, N=3 uniform, H=1, zb=0, neumann boundaries: the 2x2 system is
    # written out by hand from the interface stencils
    h = 0.5
    mesh = nh.Mesh1D.uniform(0.0, 1.0, 3)
    ops = nh.assemble(nh.ElementPair(P1P0, 3), mesh, np.ones(3), nh.Bathymetry.flat(mesh), H_EPS)
    U = np.array([0.3, -0.2, 0.1, 0.05, -0.4, 0.25])
    dt = 0.02
    sys = nh.build_schur(ops, NEUMANN)
    _, _, rhs = sys.load(U[:3], U[3:], dt)
    # divergence rows: (-u_l + u_{l+1}) + h (w_l + w_{l+1});
    # lumped mass: [h/2, h, h/2]; the held end velocities u_0 and u_2 drop
    # out of A_H^-1 but keep their predicted values in the rhs
    a = np.array([h / 2.0, h, h / 2.0])
    D = np.array([
        [-1.0, 1.0, 0.0, h, h, 0.0],
        [0.0, -1.0, 1.0, 0.0, h, h],
    ])
    free = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 1.0])
    S_hand = D @ np.diag(free / np.r_[a, a]) @ D.T
    rhs_hand = -(1.0 / dt) * D @ U
    assert np.allclose(schur_dense(sys), S_hand, atol=1e-13)
    assert np.allclose(rhs, rhs_hand, atol=1e-13)


def test_schur_rhs_zero_for_divergence_free_data():
    mesh = nh.Mesh1D.uniform(0.0, 1.0, 9)
    ops = nh.assemble(nh.ElementPair(P1P0, 9), mesh, np.ones(9), nh.Bathymetry.flat(mesh), H_EPS)
    sys = nh.build_schur(ops, NEUMANN)
    _, _, rhs = sys.load(0.7 * np.ones(9), np.zeros(9), 0.01)  # constant u, flat data
    assert np.abs(rhs).max() <= 1e-12
    p = nh.solve_pressure(sys, rhs)
    assert np.abs(p.values).max() == 0.0


@pytest.mark.parametrize("tag", PAIRS)
def test_schur_symmetry_random_wet_dirichlet(tag):
    rng = np.random.default_rng(12)
    for _ in range(50):
        sys, _, _, _ = _random_system(rng, tag, bcs=("dirichlet", "dirichlet"))
        S = schur_dense(sys)
        assert np.abs(S - S.T).max() <= 1e-12 * max(1.0, np.abs(S).max())


@pytest.mark.parametrize("tag", PAIRS)
def test_schur_spd_random_wet_dirichlet(tag):
    rng = np.random.default_rng(21)
    for _ in range(25):
        sys, _, _, _ = _random_system(rng, tag, bcs=("dirichlet", "dirichlet"))
        eig = np.linalg.eigvalsh(schur_dense(sys))
        assert eig.min() > 0.0


def test_schur_spd_on_fifty_random_dirichlet_systems():
    # N 5-21 (odd), each system on a pair drawn at random, dt = 0.01
    rng = np.random.default_rng(4321)
    for _ in range(50):
        mesh, H, zb = random_wet_setup(rng, n_min=5, n_max=21, odd=True)
        n = mesh.n_nodes
        tag = PAIRS[int(rng.integers(0, 2))]
        ops = nh.assemble(nh.ElementPair(tag, n), mesh, H, nh.Bathymetry(zb), H_EPS)
        sys = nh.build_schur(ops, ("dirichlet", "dirichlet"))
        assert np.linalg.eigvalsh(schur_dense(sys)).min() > 0.0


def test_schur_bandwidth_structure():
    rng = np.random.default_rng(5)
    sys1, _, _, _ = _random_system(rng, P1P0, NEUMANN)
    assert sys1.bandwidth == 1
    sys2, _, _, _ = _random_system(rng, P1ISOP2P1, NEUMANN)
    assert sys2.bandwidth == 2
    S = schur_dense(sys2)
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
        ("dirichlet", "neumann"),
        ("neumann", "wall"),
    ):
        mesh, H, zb = random_wet_setup(rng, n_min=15, n_max=21, odd=True)
        n = mesh.n_nodes
        H[n // 2 - 2 : n // 2 + 3] = 0.0  # a dry patch pins the dofs it supports
        ops = nh.assemble(nh.ElementPair(tag, n), mesh, H, nh.Bathymetry(zb), H_EPS)
        sys = nh.build_schur(ops, bcs)
        pinned = _pinned_mask(sys)
        assert pinned.any() and not pinned.all()
        free = np.r_[sys.plan.free_u, ops.wet]
        B = dense_divergence(ops)
        inv_mass = np.where(free, 1.0 / np.r_[ops.a_node, ops.a_node], 0.0)
        S = B @ np.diag(inv_mass) @ B.T
        S[pinned, :] = 0.0
        S[:, pinned] = 0.0
        S[pinned, pinned] = 1.0
        x = rng.standard_normal(ops.n_pressure)
        tol = 1e-12 * np.abs(S).max()
        assert np.allclose(schur_dense(sys), S, rtol=0.0, atol=tol)
        assert np.allclose(schur_matvec(sys, x), S @ x, rtol=0.0,
                           atol=tol * np.abs(x).sum())


def _held_bits(sys):
    """Copies of every array a Schur system holds, floats as their bits."""
    floats = (sys.ab, sys.invA_u, sys.invA_w, *sys.factor)
    return [float_bits(a).copy() for a in floats] + [sys.plan.free_u.copy(),
                                                      sys.plan.pinned_dofs.copy()]


@pytest.mark.parametrize("tag", PAIRS)
def test_a_built_system_is_read_only_and_serves_every_load(tag):
    # a system is one depth and one closure: every array it holds is
    # read-only, and each load on it gives the bits of a load on a fresh
    # build, writes nothing into it and leaves the caller's velocity as it was
    rng = np.random.default_rng(5)
    bcs = ("wall", "dirichlet")
    sys, ops, (u, w), dt = _random_system(rng, tag, bcs=bcs)
    with pytest.raises(FrozenInstanceError):
        sys.factor = None
    for array in (sys.ab, sys.invA_u, sys.invA_w, sys.plan.free_u, sys.plan.pinned_dofs,
                  *sys.factor):
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 1.0
    held = _held_bits(sys)
    pinned = _pinned_mask(sys)
    assert pinned.any()
    extra = rng.standard_normal(sys.n_pressure)
    for load in ((u, w, dt), (-u, -w, 2.0 * dt), (u, w, dt, extra)):
        given = [float_bits(a).copy() for a in load]
        fresh = nh.build_schur(ops, bcs)
        got, want = [], []
        for system, out in ((sys, got), (fresh, want)):
            u_star, div, rhs = system.load(*load)
            p = nh.solve_pressure(system, rhs).values
            out += [u_star.copy(), div, rhs, p,
                    *nh.correct_velocity(system, u_star, load[1], load[2], p)]
        for a, b in zip(got, want):
            assert np.array_equal(float_bits(a), float_bits(b))
        assert all(np.array_equal(float_bits(a), b) for a, b in zip(load, given))
        assert all(np.array_equal(a, b) for a, b in zip(_held_bits(sys), held))
    # an added divergence enters B U* and the rhs alike; pinned rows stay 0
    _, div0, _ = sys.load(u, w, dt)
    _, div, rhs = sys.load(u, w, dt, extra)
    assert np.array_equal(div, div0 + extra)
    assert np.array_equal(rhs[pinned], np.zeros(pinned.sum()))
    assert np.allclose(rhs, np.where(pinned, 0.0, -div / dt),
                       rtol=1e-13, atol=1e-13 * np.abs(rhs).max())


def test_schur_rejects_bad_dt():
    rng = np.random.default_rng(6)
    mesh, H, zb = random_wet_setup(rng)
    ops = nh.assemble(nh.ElementPair(P1P0, mesh.n_nodes), mesh, H, nh.Bathymetry(zb), H_EPS)
    sys = nh.build_schur(ops, NEUMANN)
    # a NaN fails every comparison and an infinite dt loads a NaN or -0 rhs
    for dt in (0.0, -0.01, -1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="dt must be positive"):
            sys.load(np.zeros(mesh.n_nodes), np.zeros(mesh.n_nodes), dt)


# -- solve_pressure -----------------------------------------------------------


def test_zero_rhs_gives_zero_pressure_all_methods():
    # solve_pressure has no zero-rhs shortcut: the triangular solves on the
    # factor give +0.0 bits for a +0.0 rhs, on both pairs and with pinned
    # rows.  A velocity at rest loads the rhs -(1/dt) 0 = -0.0 on its free
    # rows, which solves to zeros of either sign.  CG and Uzawa take no
    # iteration.
    rng = np.random.default_rng(9)
    for tag in PAIRS:
        for bcs in (NEUMANN, ("dirichlet", "wall")):
            sys, _, _, dt = _random_system(rng, tag, bcs=bcs)
            assert (sys.plan.pinned_dofs.size > 0) == (bcs[0] == "dirichlet")
            zero_p, zero_u = np.zeros(sys.n_pressure), np.zeros(sys.ops.n_nodes)
            p = nh.solve_pressure(sys, zero_p).values
            assert np.array_equal(float_bits(p), float_bits(zero_p))
            rest = sys.load(zero_u, zero_u, dt)[2]
            assert np.signbit(rest).any()
            assert np.all(nh.solve_pressure(sys, rest).values == 0.0)
            for q, iterations in (solve_cg(sys, zero_p, 1e-10),
                                  solve_uzawa(sys, zero_u, zero_u, dt, 1e-10)):
                assert np.abs(q).max() == 0.0
                assert iterations == 0


@st.composite
def _banded_spd_case(draw):
    """(ab, rhs): a random diagonally dominant SPD band of bandwidth 1 or 2
    in the lower layout, with pinned rows eliminated as build_schur does
    (diagonal 1, off-diagonals 0, rhs 0); the rhs may be all zero."""
    bw = draw(st.sampled_from((1, 2)))
    m = draw(st.integers(bw + 1, 40))

    def band(size, lo, hi):
        return draw(arrays(float, size, elements=st.floats(lo, hi, allow_subnormal=False)))

    ab = np.zeros((bw + 1, m))
    for d in range(1, bw + 1):
        ab[d, : m - d] = band(m - d, -1.0, 1.0)
    dominance = np.zeros(m)
    for d in range(1, bw + 1):
        dominance[: m - d] += np.abs(ab[d, : m - d])
        dominance[d:] += np.abs(ab[d, : m - d])
    ab[0] = dominance + band(m, 0.01, 10.0)
    rhs = np.zeros(m) if draw(st.booleans()) else band(m, -1e3, 1e3)
    pinned = draw(arrays(bool, m))
    for d in range(1, bw + 1):
        ab[d, : m - d][pinned[d:] | pinned[: m - d]] = 0.0
    ab[0, pinned] = 1.0
    rhs[pinned] = 0.0
    return ab, rhs


_TRIDIAGONAL = np.array([[2.0, 3.0, 2.0], [-1.0, -1.0, 0.0]])
_PENTADIAGONAL = np.array([[4.0, 5.0, 5.0, 4.0], [-1.0, -1.0, -1.0, 0.0], [0.5, 0.5, 0.0, 0.0]])


@settings(max_examples=150, deadline=None)
@given(case=_banded_spd_case())
@example(case=(_TRIDIAGONAL, np.zeros(3)))
@example(case=(_PENTADIAGONAL, np.zeros(4)))
# entries below about 1e-162 square to 0, so their 2-norm is 0: a zero-norm
# test returned the zero pressure for them; they are solved
@example(case=(_TRIDIAGONAL, np.array([1e-170, 0.0, -1e-170])))
@example(case=(_PENTADIAGONAL, np.full(4, 1e-200)))
def test_solve_pressure_equals_scipy_banded_solve(case):
    ab, rhs = case
    # solve_pressure reads only the band and its factor; the factor is
    # build_schur's
    sys = nh.SchurSystem(ab=ab.copy(), ops=None, plan=None, invA_u=None, invA_w=None,
                         factor=_cholesky(ab))
    b = rhs.copy()
    p = nh.solve_pressure(sys, b).values
    assert np.array_equal(float_bits(p), float_bits(solveh_banded_lower(ab, rhs)))
    # the system and the rhs are left as they were
    assert np.array_equal(float_bits(sys.ab), float_bits(ab))
    assert np.array_equal(float_bits(b), float_bits(rhs))


def test_cg_agrees_with_direct():
    rng = np.random.default_rng(13)
    tol = 1e-10
    for tag in PAIRS:
        for _ in range(10):
            sys, _, _, _ = _random_system(rng, tag, bcs=("dirichlet", "dirichlet"))
            rhs = np.where(_pinned_mask(sys), 0.0, rng.standard_normal(sys.n_pressure))
            p_direct = nh.solve_pressure(sys, rhs).values
            p_cg, _ = solve_cg(sys, rhs, tol)
            rel = np.linalg.norm(p_cg - p_direct) / np.linalg.norm(p_direct)
            assert rel <= 10.0 * tol


def test_uzawa_agrees_with_direct():
    rng = np.random.default_rng(14)
    tol = 1e-6
    for tag in PAIRS:
        sys, _, (u, w), dt = _random_system(rng, tag, NEUMANN, n_min=21, n_max=27)
        p_direct = nh.solve_pressure(sys, sys.load(u, w, dt)[2]).values
        p_uz, _ = solve_uzawa(sys, u, w, dt, tol)
        rel = np.linalg.norm(p_uz - p_direct) / max(np.linalg.norm(p_direct), 1e-300)
        assert rel <= 10.0 * tol


def test_direct_residual_reported():
    rng = np.random.default_rng(15)
    sys, _, (u, w), dt = _random_system(rng, P1P0, NEUMANN)
    _, _, rhs = sys.load(u, w, dt)
    p = nh.solve_pressure(sys, rhs)
    residual = np.linalg.norm(schur_dense(sys) @ p.values - rhs)
    assert residual / np.linalg.norm(rhs) <= 1e-10


def test_uzawa_iteration_cap_error():
    # fine metric mesh -> large condition number: the fixed-relaxation
    # iteration cannot reach the target inside 10 M sweeps
    rng = np.random.default_rng(16)
    n = 81
    mesh = nh.Mesh1D.uniform(0.0, 0.4, n)
    ops = nh.assemble(nh.ElementPair(P1P0, n), mesh, np.ones(n), nh.Bathymetry.flat(mesh), H_EPS)
    U = rng.standard_normal(2 * n)
    with pytest.raises(SolverConvergenceError) as err:
        solve_uzawa(nh.build_schur(ops, NEUMANN), U[:n], U[n:], 0.01, 1e-13)
    assert err.value.residual > 0.0
    assert err.value.iterations > 0


def test_cg_and_uzawa_agree_with_the_direct_solve_on_dingemans(monkeypatch):
    # every 100th Schur system of a Dingemans run (N = 981, P1-iso-P2/P1,
    # to t = 25), loaded again with the step's predicted velocity and dt,
    # gives the step's pressure bit for bit by the direct solve, and CG and
    # Uzawa, run to the reference tolerance tol, give it to 10 tol
    tol, n = 1e-5, 981
    steps, spreads, loads = [], [], []
    load = nh.SchurSystem.load

    def recorded(sys, u, w, dt, extra=None):
        loads[:] = [(u, w, dt)]
        return load(sys, u, w, dt, extra)

    def sample(step):
        steps.append(step.report.t)
        if len(steps) % 100 == 0:
            u, w, dt = loads[0]
            p = nh.solve_pressure(step.schur, load(step.schur, u, w, dt)[2]).values
            assert np.array_equal(float_bits(p), float_bits(step.pressure.values))
            spreads.append(method_spread(step.schur, u, w, dt, p, tol))

    monkeypatch.setattr(nh.SchurSystem, "load", recorded)
    nh.run(nh.make_dingemans(n_nodes=n), nh.PhysicalParams(), t_end=25.0,
           pair=nh.ElementPair(P1ISOP2P1, n), on_step=sample)
    assert len(spreads) == len(steps) // 100 == 21
    assert max(spreads) <= 10.0 * tol


# -- correct_velocity ---------------------------------------------------------


def test_zero_pressure_identity():
    rng = np.random.default_rng(18)
    mesh, H, zb = random_wet_setup(rng)
    n = mesh.n_nodes
    ops = nh.assemble(nh.ElementPair(P1P0, n), mesh, H, nh.Bathymetry(zb), H_EPS)
    U = rng.standard_normal(2 * n)
    sys = nh.build_schur(ops, NEUMANN)
    u_star = sys.load(U[:n], U[n:], 0.1)[0]
    u, w = nh.correct_velocity(sys, u_star, U[n:], 0.1, np.zeros(ops.n_pressure))
    assert np.array_equal(u, U[:n]) and np.array_equal(w, U[n:])


def test_correct_velocity_rejects_a_pressure_of_the_wrong_size():
    rng = np.random.default_rng(21)
    for tag in PAIRS:
        sys, _, (u, w), dt = _random_system(rng, tag, NEUMANN)
        u_star = sys.load(u, w, dt)[0]
        for m in (sys.n_pressure - 1, sys.n_pressure + 1):
            with pytest.raises(ValueError, match="size mismatch"):
                nh.correct_velocity(sys, u_star, w, dt, np.zeros(m))


@pytest.mark.parametrize("tag", PAIRS)
def test_corrected_field_is_divergence_free(tag):
    rng = np.random.default_rng(19)
    for bcs in (NEUMANN, ("dirichlet", "dirichlet")):
        sys, ops, (u, w), dt = _random_system(rng, tag, bcs=bcs)
        u_star, _, rhs = sys.load(u, w, dt)
        p = nh.solve_pressure(sys, rhs)
        base = divergence_residual(sys, u_star, w)
        u_new, w_new = nh.correct_velocity(sys, u_star, w, dt, p.values)
        assert divergence_residual(sys, u_new, w_new) <= 1e-10 * base + 1e-12


@pytest.mark.parametrize("tag", PAIRS)
def test_projection_idempotence(tag):
    rng = np.random.default_rng(20)
    tol = 1e-10
    sys, ops, (u, w), dt = _random_system(rng, tag, NEUMANN)
    u_star, _, rhs = sys.load(u, w, dt)
    p1 = nh.solve_pressure(sys, rhs)
    u1, w1 = nh.correct_velocity(sys, u_star, w, dt, p1.values)
    p2 = nh.solve_pressure(sys, sys.load(u1, w1, dt)[2])
    assert np.linalg.norm(p2.values) <= 10.0 * tol * max(np.linalg.norm(p1.values), 1.0)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_correction_never_raises_the_kinetic_energy(data):
    # with walls the held velocities are 0 (at the walls and, through
    # FlowState.velocities, on dry nodes), so the correction is an
    # A_H-orthogonal projection and cannot raise sum a_node (u^2 + w^2).
    # The norm is the lumped mass A_H the projection is orthogonal in, not
    # total_energy's nodal one; dry means H < h_eps, as in the projection.
    tag = data.draw(st.sampled_from(PAIRS))
    n = 2 * data.draw(st.integers(3, 30)) + 1
    widths = data.draw(arrays(float, n - 1, elements=st.floats(0.05, 1.05)))
    mesh = nh.Mesh1D(np.concatenate(([0.0], np.cumsum(widths))))
    if data.draw(st.booleans()):
        zb = np.zeros(n)
    else:
        zb = data.draw(arrays(float, n, elements=st.floats(-1.0, 1.0)))
    H = data.draw(arrays(float, n, elements=st.one_of(st.just(0.0), st.floats(0.0, 2.0))))
    Hu = H * data.draw(arrays(float, n, elements=st.floats(-4.0, 4.0)))
    Hw = H * data.draw(arrays(float, n, elements=st.floats(-2.0, 2.0)))
    u, w = nh.FlowState(H, Hu, Hw).velocities(H >= H_EPS)
    dt = data.draw(st.floats(1e-4, 1.0))
    ops = nh.assemble(nh.ElementPair(tag, n), mesh, H, nh.Bathymetry(zb), H_EPS)
    sys = nh.build_schur(ops, ("wall", "wall"))
    u_star, _, rhs = sys.load(u, w, dt)
    before = np.sum(ops.a_node * (u_star**2 + w**2))
    u_c, w_c = nh.correct_velocity(sys, u_star, w, dt, nh.solve_pressure(sys, rhs).values)
    after = np.sum(ops.a_node * (u_c**2 + w_c**2))
    assert after <= before * (1.0 + 1e-12)


# -- boundary handling --------------------------------------------------------


def test_dirichlet_value_enters_solution():
    # the Dirichlet value is 0: the pinned dof solves to exactly 0
    rng = np.random.default_rng(22)
    mesh, H, zb = random_wet_setup(rng)
    ops = nh.assemble(nh.ElementPair(P1P0, mesh.n_nodes), mesh, H, nh.Bathymetry(zb), H_EPS)
    n = mesh.n_nodes
    U = rng.standard_normal(2 * n)
    bcs = ("dirichlet", "neumann")
    sys = nh.build_schur(ops, bcs)
    _, _, rhs = sys.load(U[:n], U[n:], 0.05)
    p = nh.solve_pressure(sys, rhs)
    assert p.values[0] == 0.0
    assert np.abs(p.values[1:]).max() > 0.0
    # against a dense solve of the same eliminated system
    ref = np.linalg.solve(schur_dense(sys), rhs)
    assert np.allclose(p.values, ref, atol=1e-10)


def test_neumann_pins_boundary_velocity():
    rng = np.random.default_rng(23)
    mesh, H, zb = random_wet_setup(rng)
    n = mesh.n_nodes
    ops = nh.assemble(nh.ElementPair(P1P0, n), mesh, H, nh.Bathymetry(zb), H_EPS)
    u, w = rng.standard_normal(2 * n).reshape(2, n)
    bcs = ("wall", "neumann")
    sys = nh.build_schur(ops, bcs)
    u_star, _, rhs = sys.load(u, w, 0.05)
    p = nh.solve_pressure(sys, rhs)
    u_new, w_new = nh.correct_velocity(sys, u_star, w, 0.05, p.values)
    assert u_new[0] == 0.0
    assert u_new[n - 1] == u[n - 1]
    assert divergence_residual(sys, u_new, w_new) <= 1e-9


def test_pressure_bc_kinds_are_dirichlet_and_neumann():
    # "wall" is the Neumann condition with zero velocity; an imposed depth
    # closes as Neumann (its Robin coefficient lives in the depth-dependent
    # boundary entries of B and C), so no "mixed" kind exists; every side
    # takes a kind, so a side left without one is rejected; a closure is a
    # (left, right) pair, so a lone kind is rejected too
    n = 5
    mesh = nh.Mesh1D.uniform(0.0, 1.0, n)
    ops = nh.assemble(nh.ElementPair(P1P0, n), mesh, np.ones(n), nh.Bathymetry.flat(mesh), H_EPS)
    for bcs in (("mixed", "neumann"), (None, "wall"), ("dirichlet",)):
        with pytest.raises(ValueError):
            nh.build_schur(ops, bcs)


def test_dry_pressure_dofs_pinned_to_zero():
    mesh = nh.Mesh1D.uniform(0.0, 1.0, 9)
    H = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    ops = nh.assemble(nh.ElementPair(P1P0, 9), mesh, H, nh.Bathymetry.flat(mesh), h_eps=1e-8)
    u, w = np.zeros(9), np.where(H > 0, 0.3, 0.0)
    sys = nh.build_schur(ops, NEUMANN)
    u_star, _, rhs = sys.load(u, w, 0.01)
    p = nh.solve_pressure(sys, rhs)
    assert np.all(p.values[ops.dry_pressure_dofs()] == 0.0)
    u_new, w_new = nh.correct_velocity(sys, u_star, w, 0.01, p.values)
    # dry velocities untouched
    assert np.array_equal(w_new[5:], w[5:])


@pytest.mark.parametrize("tag", PAIRS)
def test_the_plan_lists_its_pinned_dofs_once(tag):
    # the plan's free velocities are its own copy of the assembly's wet
    # mask, which a held side leaves as it was, and its pinned dofs are the
    # ascending indices of the dry dofs and of each Dirichlet end
    rng = np.random.default_rng(64)
    for bcs in (NEUMANN, ("dirichlet", "wall"), ("wall", "dirichlet")):
        mesh, H, zb = random_wet_setup(rng, n_min=15, n_max=21, odd=True)
        n = mesh.n_nodes
        H[n // 2 - 2 : n // 2 + 3] = 0.0
        ops = nh.assemble(nh.ElementPair(tag, n), mesh, H, nh.Bathymetry(zb), H_EPS)
        plan = resolve_projection_bcs(ops, bcs)
        assert plan.free_u is not ops.wet and not np.shares_memory(plan.free_u, ops.wet)
        assert np.array_equal(ops.wet, H >= 1e-8)
        assert np.array_equal(plan.free_u[1:-1], ops.wet[1:-1])
        assert plan.pinned_dofs.size > 0
        pinned = ops.dry_pressure_dofs()
        pinned[[0, -1]] |= np.array(bcs) == "dirichlet"
        assert np.array_equal(plan.pinned_dofs, np.flatnonzero(pinned))
        with pytest.raises(ValueError, match="read-only"):
            plan.pinned_dofs[0] = 0


def test_plan_masks():
    mesh = nh.Mesh1D.uniform(0.0, 1.0, 5)
    H = np.ones(5)
    ops = nh.assemble(nh.ElementPair(P1P0, 5), mesh, H, nh.Bathymetry.flat(mesh), H_EPS)
    u, w = np.arange(1.0, 6.0), np.arange(5.0, 10.0)
    plan = resolve_projection_bcs(ops, ("wall", "dirichlet"))
    assert not plan.free_u[0] and plan.free_u[1:].all()
    assert ops.wet.all()
    # the load holds u at the wall in a copy; the caller's u keeps its value
    u_star, _, _ = nh.build_schur(ops, ("wall", "dirichlet")).load(u, w, 0.01)
    assert u_star[0] == 0.0
    assert np.array_equal(u_star[1:], u[1:])
    assert u[0] == 1.0 and not np.shares_memory(u_star, u)
