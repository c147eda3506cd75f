from dataclasses import FrozenInstanceError
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import nhswe as nh
from nhswe import core
from nhswe.femops import P1ISOP2P1, P1P0
from nhswe.projection import _cholesky, divergence_residual, resolve_projection_bcs

from oracles import (
    SolverConvergenceError,
    dense_divergence,
    float_bits,
    free_velocity_mask,
    method_spread,
    random_wet_setup,
    schur_dense,
    schur_matvec,
    solve_cg,
    solve_uzawa,
    solveh_banded_lower,
)

PAIRS = (P1P0, P1ISOP2P1)

# the data of each hyperbolic kind; the projection reads the kinds only
_DATA = {"imposed_flux": {"q0": (0.1, 0.0)}, "imposed_depth": {"h_given": 1.0},
         "free_outflow": {}, "wall": {}}


def _closure(left, right):
    """The (left, right) pair of hyperbolic conditions of two kinds."""
    return tuple(nh.HyperbolicBC(kind, **_DATA[kind]) for kind in (left, right))


OUTFLOW = _closure("free_outflow", "free_outflow")
FLUX = _closure("imposed_flux", "imposed_flux")

# the default dry threshold
H_EPS = nh.PhysicalParams().h_eps


def _random_system(rng, tag, hyp, n_min=7, n_max=13):
    mesh, H, zb = random_wet_setup(rng, n_min=n_min, n_max=n_max, odd=True)
    ops = nh.assemble(nh.ElementPair(tag, mesh.n_nodes), mesh, H, nh.Bathymetry(zb), H_EPS)
    n = mesh.n_nodes
    U = rng.standard_normal(2 * n)
    dt = 0.01 * (1.0 + rng.random())
    return nh.build_schur(ops, hyp), ops, (U[:n], U[n:]), dt


def _pinned_mask(sys):
    """The pinned pressure dofs of a system as a mask."""
    pinned = np.zeros(sys.ops.n_pressure, dtype=bool)
    pinned[sys.plan.pinned_dofs] = True
    return pinned


# -- build_schur -------------------------------------------------------------


def test_schur_n3_dense_hand_assembly():
    # P1/P0, N=3 uniform, H=1, zb=0, free outflow at both ends (each
    # velocity held at its trace): the 2x2 system is
    # written out by hand from the interface stencils
    h = 0.5
    mesh = nh.Mesh1D.uniform(0.0, 1.0, 3)
    ops = nh.assemble(nh.ElementPair(P1P0, 3), mesh, np.ones(3), nh.Bathymetry.flat(mesh), H_EPS)
    U = np.array([0.3, -0.2, 0.1, 0.05, -0.4, 0.25])
    dt = 0.02
    sys = nh.build_schur(ops, OUTFLOW)
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
    sys = nh.build_schur(ops, OUTFLOW)
    _, _, rhs = sys.load(0.7 * np.ones(9), np.zeros(9), 0.01)  # constant u, flat data
    assert np.abs(rhs).max() <= 1e-12
    p = nh.solve_pressure(sys, rhs)
    assert np.abs(p.values).max() == 0.0


@pytest.mark.parametrize("tag", PAIRS)
def test_schur_symmetry_random_wet_dirichlet(tag):
    rng = np.random.default_rng(12)
    for _ in range(50):
        sys, _, _, _ = _random_system(rng, tag, hyp=FLUX)
        S = schur_dense(sys)
        assert np.abs(S - S.T).max() <= 1e-12 * max(1.0, np.abs(S).max())


@pytest.mark.parametrize("tag", PAIRS)
def test_schur_spd_random_wet_dirichlet(tag):
    rng = np.random.default_rng(21)
    for _ in range(25):
        sys, _, _, _ = _random_system(rng, tag, hyp=FLUX)
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
        sys = nh.build_schur(ops, FLUX)
        assert np.linalg.eigvalsh(schur_dense(sys)).min() > 0.0


def test_schur_bandwidth_structure():
    rng = np.random.default_rng(5)
    sys1, _, _, _ = _random_system(rng, P1P0, OUTFLOW)
    assert sys1.ops.bandwidth == 1 and sys1.ab.shape[0] == 2
    sys2, _, _, _ = _random_system(rng, P1ISOP2P1, OUTFLOW)
    assert sys2.ops.bandwidth == 2 and sys2.ab.shape[0] == 3
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
    for hyp in (
        _closure("imposed_flux", "free_outflow"),
        _closure("imposed_depth", "wall"),
    ):
        mesh, H, zb = random_wet_setup(rng, n_min=15, n_max=21, odd=True)
        n = mesh.n_nodes
        H[n // 2 - 2 : n // 2 + 3] = 0.0  # a dry patch pins the dofs it supports
        ops = nh.assemble(nh.ElementPair(tag, n), mesh, H, nh.Bathymetry(zb), H_EPS)
        sys = nh.build_schur(ops, hyp)
        pinned = _pinned_mask(sys)
        assert pinned.any() and not pinned.all()
        free = np.r_[free_velocity_mask(sys.plan, ops), ops.wet]
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
    return [float_bits(a).copy() for a in floats] + [sys.plan.held_u.copy(),
                                                      sys.plan.pinned_dofs.copy()]


@pytest.mark.parametrize("tag", PAIRS)
def test_a_built_system_is_read_only_and_serves_every_load(tag):
    # a system is one depth and one closure: every array it holds is
    # read-only, and each load on it gives the bits of a load on a fresh
    # build, writes nothing into it and leaves the caller's velocity as it was
    rng = np.random.default_rng(5)
    hyp = _closure("wall", "imposed_flux")
    sys, ops, (u, w), dt = _random_system(rng, tag, hyp=hyp)
    with pytest.raises(FrozenInstanceError):
        sys.factor = None
    for array in (sys.ab, sys.invA_u, sys.invA_w, sys.plan.held_u, sys.plan.pinned_dofs,
                  *sys.factor):
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 1.0
    held = _held_bits(sys)
    pinned = _pinned_mask(sys)
    assert pinned.any()
    extra = rng.standard_normal(sys.ops.n_pressure)
    for load in ((u, w, dt), (-u, -w, 2.0 * dt), (u, w, dt, extra)):
        given = [float_bits(a).copy() for a in load]
        fresh = nh.build_schur(ops, hyp)
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
    sys = nh.build_schur(ops, OUTFLOW)
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
        for hyp in (OUTFLOW, _closure("imposed_flux", "wall")):
            sys, _, _, dt = _random_system(rng, tag, hyp=hyp)
            assert (sys.plan.pinned_dofs.size > 0) == (hyp[0].kind == "imposed_flux")
            zero_p, zero_u = np.zeros(sys.ops.n_pressure), np.zeros(sys.ops.n_nodes)
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
            sys, _, _, _ = _random_system(rng, tag, hyp=FLUX)
            rhs = np.where(_pinned_mask(sys), 0.0, rng.standard_normal(sys.ops.n_pressure))
            p_direct = nh.solve_pressure(sys, rhs).values
            p_cg, _ = solve_cg(sys, rhs, tol)
            rel = np.linalg.norm(p_cg - p_direct) / np.linalg.norm(p_direct)
            assert rel <= 10.0 * tol


def test_uzawa_agrees_with_direct():
    rng = np.random.default_rng(14)
    tol = 1e-6
    for tag in PAIRS:
        sys, _, (u, w), dt = _random_system(rng, tag, OUTFLOW, n_min=21, n_max=27)
        p_direct = nh.solve_pressure(sys, sys.load(u, w, dt)[2]).values
        p_uz, _ = solve_uzawa(sys, u, w, dt, tol)
        rel = np.linalg.norm(p_uz - p_direct) / max(np.linalg.norm(p_direct), 1e-300)
        assert rel <= 10.0 * tol


def test_direct_residual_reported():
    rng = np.random.default_rng(15)
    sys, _, (u, w), dt = _random_system(rng, P1P0, OUTFLOW)
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
        solve_uzawa(nh.build_schur(ops, OUTFLOW), U[:n], U[n:], 0.01, 1e-13)
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
    sys = nh.build_schur(ops, OUTFLOW)
    u_star = sys.load(U[:n], U[n:], 0.1)[0]
    u, w = nh.correct_velocity(sys, u_star, U[n:], 0.1, np.zeros(ops.n_pressure))
    assert np.array_equal(u, U[:n]) and np.array_equal(w, U[n:])


def test_correct_velocity_rejects_a_pressure_of_the_wrong_size():
    rng = np.random.default_rng(21)
    for tag in PAIRS:
        sys, _, (u, w), dt = _random_system(rng, tag, OUTFLOW)
        u_star = sys.load(u, w, dt)[0]
        for m in (sys.ops.n_pressure - 1, sys.ops.n_pressure + 1):
            with pytest.raises(ValueError, match="size mismatch"):
                nh.correct_velocity(sys, u_star, w, dt, np.zeros(m))


@pytest.mark.parametrize("tag", PAIRS)
def test_corrected_field_is_divergence_free(tag):
    rng = np.random.default_rng(19)
    for hyp in (OUTFLOW, FLUX):
        sys, ops, (u, w), dt = _random_system(rng, tag, hyp=hyp)
        u_star, _, rhs = sys.load(u, w, dt)
        p = nh.solve_pressure(sys, rhs)
        base = divergence_residual(sys, u_star, w)
        u_new, w_new = nh.correct_velocity(sys, u_star, w, dt, p.values)
        assert divergence_residual(sys, u_new, w_new) <= 1e-10 * base + 1e-12


@pytest.mark.parametrize("tag", PAIRS)
def test_projection_idempotence(tag):
    rng = np.random.default_rng(20)
    tol = 1e-10
    sys, ops, (u, w), dt = _random_system(rng, tag, OUTFLOW)
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
    sys = nh.build_schur(ops, _closure("wall", "wall"))
    u_star, _, rhs = sys.load(u, w, dt)
    before = np.sum(ops.a_node * (u_star**2 + w**2))
    u_c, w_c = nh.correct_velocity(sys, u_star, w, dt, nh.solve_pressure(sys, rhs).values)
    after = np.sum(ops.a_node * (u_c**2 + w_c**2))
    assert after <= before * (1.0 + 1e-12)


# -- boundary handling --------------------------------------------------------


def test_dirichlet_value_enters_solution():
    # an imposed flux pins the pressure dof at its side to the Dirichlet
    # value 0: the pinned dof solves to exactly 0
    rng = np.random.default_rng(22)
    mesh, H, zb = random_wet_setup(rng)
    ops = nh.assemble(nh.ElementPair(P1P0, mesh.n_nodes), mesh, H, nh.Bathymetry(zb), H_EPS)
    n = mesh.n_nodes
    U = rng.standard_normal(2 * n)
    sys = nh.build_schur(ops, _closure("imposed_flux", "free_outflow"))
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
    sys = nh.build_schur(ops, _closure("wall", "free_outflow"))
    u_star, _, rhs = sys.load(u, w, 0.05)
    p = nh.solve_pressure(sys, rhs)
    u_new, w_new = nh.correct_velocity(sys, u_star, w, 0.05, p.values)
    assert u_new[0] == 0.0
    assert u_new[n - 1] == u[n - 1]
    assert divergence_residual(sys, u_new, w_new) <= 1e-9


def test_pressure_bc_kinds_are_dirichlet_and_neumann():
    # the projection closes on the hyperbolic kinds: an imposed flux pins
    # the pressure (Dirichlet), every other kind holds the velocity
    # (Neumann), at 0 for a wall.  An imposed depth closes like free
    # outflow (its Robin coefficient lives in the depth-dependent boundary
    # entries of B and C), so no "mixed" kind exists; every side takes a
    # kind, so a side left without one is rejected; a closure is a (left,
    # right) pair, so a lone condition is rejected too
    n = 5
    mesh = nh.Mesh1D.uniform(0.0, 1.0, n)
    ops = nh.assemble(nh.ElementPair(P1P0, n), mesh, np.ones(n), nh.Bathymetry.flat(mesh), H_EPS)
    for kinds in (("mixed", "free_outflow"), (None, "wall")):
        with pytest.raises(ValueError, match="unknown boundary kind"):
            nh.build_schur(ops, tuple(nh.HyperbolicBC(kind) for kind in kinds))
    with pytest.raises(ValueError):
        nh.build_schur(ops, _closure("imposed_flux", "wall")[:1])


def test_dry_pressure_dofs_pinned_to_zero():
    mesh = nh.Mesh1D.uniform(0.0, 1.0, 9)
    H = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    ops = nh.assemble(nh.ElementPair(P1P0, 9), mesh, H, nh.Bathymetry.flat(mesh), h_eps=1e-8)
    u, w = np.zeros(9), np.where(H > 0, 0.3, 0.0)
    sys = nh.build_schur(ops, OUTFLOW)
    u_star, _, rhs = sys.load(u, w, 0.01)
    p = nh.solve_pressure(sys, rhs)
    assert np.all(p.values[ops.dry_pressure_dofs()] == 0.0)
    u_new, w_new = nh.correct_velocity(sys, u_star, w, 0.01, p.values)
    # dry velocities untouched
    assert np.array_equal(w_new[5:], w[5:])


@pytest.mark.parametrize("tag", PAIRS)
def test_the_plan_lists_its_pinned_dofs_once(tag):
    # the plan's free velocities, the assembly's wet mask less the held
    # ends, are the wet mask inside the ends, and its pinned dofs are the
    # ascending indices of the dry dofs and of each imposed-flux end
    rng = np.random.default_rng(64)
    for hyp in (OUTFLOW, _closure("imposed_flux", "wall"), _closure("wall", "imposed_flux")):
        mesh, H, zb = random_wet_setup(rng, n_min=15, n_max=21, odd=True)
        n = mesh.n_nodes
        H[n // 2 - 2 : n // 2 + 3] = 0.0
        ops = nh.assemble(nh.ElementPair(tag, n), mesh, H, nh.Bathymetry(zb), H_EPS)
        plan = resolve_projection_bcs(ops, hyp)
        free_u = free_velocity_mask(plan, ops)
        assert not np.shares_memory(plan.held_u, ops.wet)
        assert np.array_equal(ops.wet, H >= 1e-8)
        assert np.array_equal(free_u[1:-1], ops.wet[1:-1])
        assert plan.pinned_dofs.size > 0
        pinned = ops.dry_pressure_dofs()
        pinned[[0, -1]] |= np.array([bc.kind for bc in hyp]) == "imposed_flux"
        assert np.array_equal(plan.pinned_dofs, np.flatnonzero(pinned))
        with pytest.raises(ValueError, match="read-only"):
            plan.pinned_dofs[0] = 0


def test_plan_masks():
    mesh = nh.Mesh1D.uniform(0.0, 1.0, 5)
    H = np.ones(5)
    ops = nh.assemble(nh.ElementPair(P1P0, 5), mesh, H, nh.Bathymetry.flat(mesh), H_EPS)
    u, w = np.arange(1.0, 6.0), np.arange(5.0, 10.0)
    hyp = _closure("wall", "imposed_flux")
    plan = resolve_projection_bcs(ops, hyp)
    free_u = free_velocity_mask(plan, ops)
    assert not free_u[0] and free_u[1:].all()
    assert ops.wet.all()
    # the load holds u at the wall in a copy; the caller's u keeps its value
    u_star, _, _ = nh.build_schur(ops, hyp).load(u, w, 0.01)
    assert u_star[0] == 0.0
    assert np.array_equal(u_star[1:], u[1:])
    assert u[0] == 1.0 and not np.shares_memory(u_star, u)


# -- the plan cache -------------------------------------------------------------


def _build_bits(sys):
    """Every array a Schur system holds, plan included, floats as their bits."""
    plan = sys.plan
    return [float_bits(a) for a in (sys.ab, sys.invA_u, sys.invA_w, *sys.factor)] + [
        plan.held_u, plan.pinned_dofs, plan.band_zeros]


@pytest.mark.parametrize("tag", PAIRS)
def test_the_plan_cache_serves_each_mask_and_closure(tag):
    # on one mesh, a depth with the wet mask of the last build under the
    # same closure gets that build's plan object; one node drying, or
    # another closure, resolves a plan of its own, and a mask that dries
    # and re-wets gets the re-wet mask's plan.  Every build has the bits of
    # a build on a fresh mesh, and the cache holds no writable array
    rng = np.random.default_rng(71)
    mesh, H, zb = random_wet_setup(rng, n_min=15, n_max=21, odd=True)
    n = mesh.n_nodes
    bathy, pair = nh.Bathymetry(zb), nh.ElementPair(tag, n)
    dried = H.copy()
    dried[n // 2 - 1 : n // 2 + 2] = 0.0

    def build(depth, hyp, on=mesh):
        return nh.build_schur(nh.assemble(pair, on, depth, bathy, H_EPS), hyp)

    flux_wall = _closure("imposed_flux", "wall")
    builds = []
    for depth, hyp in ((H, OUTFLOW), (1.5 * H, OUTFLOW), (dried, OUTFLOW), (H, OUTFLOW),
                       (H, flux_wall), (2.0 * H, OUTFLOW)):
        sys = build(depth, hyp)
        fresh = build(depth, hyp, nh.Mesh1D(mesh.nodes.copy()))
        for got, want in zip(_build_bits(sys), _build_bits(fresh)):
            assert np.array_equal(got, want)
        builds.append(sys.plan)
    wet, same, dry, rewet, flux, kept = builds
    assert same is wet
    assert dry is not wet and not np.array_equal(dry.pinned_dofs, wet.pinned_dofs)
    assert rewet is not dry and np.array_equal(rewet.pinned_dofs, wet.pinned_dofs)
    assert flux is not rewet
    # the cache keeps the last plan of each closure
    assert kept is rewet

    plans = build(H, OUTFLOW).ops.geometry.plans
    assert set(plans) == {("free_outflow", "free_outflow"), ("imposed_flux", "wall")}
    for mask, plan in plans.values():
        held = [mask] + [a for a in vars(plan).values() if isinstance(a, np.ndarray)]
        assert len(held) == 4 and not any(a.flags.writeable for a in held)


# -- blocked kernels ----------------------------------------------------------


class _BlockCase(NamedTuple):
    """A projection input as raw nodal arrays, its closure and the block
    size the kernels run at."""

    tag: str
    widths: np.ndarray
    H: np.ndarray
    zb: np.ndarray
    u: np.ndarray
    w: np.ndarray
    p: np.ndarray
    hyp: tuple
    block: int


_KINDS = st.sampled_from(sorted(_DATA))


@st.composite
def _block_cases(draw):
    tag = draw(st.sampled_from(PAIRS))
    n = draw(st.integers(5, 25))
    n += tag == P1ISOP2P1 and n % 2 == 0
    m = nh.ElementPair(tag, n).n_pressure
    values = lambda lo, hi: st.one_of(st.sampled_from([0.0, -0.0]), st.floats(lo, hi))
    return _BlockCase(
        tag=tag,
        widths=draw(arrays(float, n - 1, elements=st.floats(0.05, 1.05))),
        H=draw(arrays(float, n, elements=st.one_of(st.just(H_EPS), values(0.0, 2.0)))),
        zb=draw(st.one_of(st.just(np.zeros(n)), arrays(float, n, elements=values(-1.0, 1.0)))),
        u=draw(arrays(float, n, elements=values(-4.0, 4.0))),
        w=draw(arrays(float, n, elements=values(-2.0, 2.0))),
        p=draw(arrays(float, m, elements=values(-3.0, 3.0))),
        hyp=_closure(draw(_KINDS), draw(_KINDS)),
        block=draw(st.integers(1, m + 1)),
    )


def _block_layout(tag, n, block):
    """A fixed wet/dry case of n nodes at the block size block: the layouts
    that no draw has to find."""
    x = np.arange(n, dtype=float)
    H = 1.0 + 0.5 * np.sin(3.0 * x)
    H[n // 3 : n // 3 + 3] = 0.0
    m = nh.ElementPair(tag, n).n_pressure
    return _BlockCase(
        tag=tag, widths=0.3 + 0.1 * np.cos(x[:-1]), H=H, zb=0.2 * np.cos(1.7 * x),
        u=np.sin(2.3 * x) / 3.0, w=np.cos(1.1 * x) / 7.0, p=np.sin(1.7 * np.arange(m) + 0.8),
        hyp=_closure("imposed_flux", "wall"), block=block,
    )


def _projection_bits(case, block):
    """The lumped mass, Du, the Schur band, B (u, w), B^T p and the
    corrected (u, w) of case, run at the block size block on a mesh of its
    own (the layout is kept on the mesh), as IEEE bits."""
    mesh = nh.Mesh1D(np.concatenate(([0.0], np.cumsum(case.widths))))
    pair = nh.ElementPair(case.tag, mesh.n_nodes)
    with mock.patch.object(core, "_BLOCK", block):
        a = nh.lump_mass(case.H, mesh, H_EPS)
        ops = nh.assemble(pair, mesh, case.H, nh.Bathymetry(case.zb), H_EPS)
        sys = nh.build_schur(ops, case.hyp)
        u_star, _, rhs = sys.load(case.u, case.w, 0.1)
        p = nh.solve_pressure(sys, rhs).values
        out = (a, ops.Du, sys.ab, ops.apply_divergence(case.u, case.w),
               *ops.scatter_divergence_t(case.p), *nh.correct_velocity(sys, u_star, case.w, 0.1, p))
    return [float_bits(x) for x in out]


def _assert_blocks_give_the_one_block_bits(case):
    one_block = _projection_bits(case, len(case.H) + 1)
    blocked = _projection_bits(case, case.block)
    for name, got, want in zip(("a", "Du", "ab", "B", "BTu", "BTw", "u", "w"), blocked, one_block):
        assert np.array_equal(got, want), name


@settings(max_examples=200, deadline=None)
@given(case=_block_cases())
# one-row blocks (at either end among them), a one-row last block, one
# block of exactly M rows, and a block boundary at an even P1-iso-P2/P1
# node, which sums three contributions of B^T
@example(case=_block_layout(P1P0, 12, 1))
@example(case=_block_layout(P1P0, 12, 10))
@example(case=_block_layout(P1P0, 12, 11))
@example(case=_block_layout(P1ISOP2P1, 13, 1))
@example(case=_block_layout(P1ISOP2P1, 13, 6))
@example(case=_block_layout(P1ISOP2P1, 13, 7))
@example(case=_block_layout(P1ISOP2P1, 13, 4))
def test_the_blocked_kernels_give_the_one_block_bits(case):
    # every blocked kernel of the projection, on any block size, wet/dry
    # depth, bottom and closure (pinned dofs included), gives the bits of
    # one block, signed zeros included
    _assert_blocks_give_the_one_block_bits(case)


def test_a_scatter_blocked_by_rows_fails_the_block_property(monkeypatch):
    # B^T summed row block by row block adds an even P1-iso-P2/P1 node's
    # contributions from the lower block first: at a block boundary there
    # the node's bits change, and the property sees it
    def by_rows(self, p):
        du, dw = np.zeros(self.n_nodes), np.zeros(self.n_nodes)
        for block in self.geometry.row_blocks:
            for k, (rows, nodes) in enumerate(block.columns):
                du[nodes] += self.Du[rows, k] * p[rows]
                dw[nodes] += self.Dw[rows, k] * p[rows]
        return du, dw

    monkeypatch.setattr(nh.OperatorSet, "scatter_divergence_t", by_rows)
    with pytest.raises(AssertionError, match="BTu|BTw"):
        _assert_blocks_give_the_one_block_bits(_block_layout(P1ISOP2P1, 13, 4))
