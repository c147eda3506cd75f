from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import nhswe as nh
from nhswe.femops import P1ISOP2P1, P1P0
from nhswe.projection import _cholesky, divergence_residual, resolve_projection_bcs
from nhswe.verify import SolverConvergenceError, _solve_cg, _solve_uzawa

from oracles import float_bits, random_wet_setup, solveh_banded_lower

PAIRS = (P1P0, P1ISOP2P1)


def _random_system(rng, tag, bcs=(None, None), n_min=7, n_max=13):
    mesh, H, zb = random_wet_setup(rng, n_min=n_min, n_max=n_max, odd=True)
    ops = nh.assemble(nh.ElementPair.from_tag(tag, mesh.n_nodes), mesh, H, zb)
    n = mesh.n_nodes
    U = rng.standard_normal(2 * n)
    dt = 0.01 * (1.0 + rng.random())
    sys = nh.build_schur(ops, U[:n], U[n:], dt, bcs=bcs)
    return sys, ops, (U[:n], U[n:]), dt


# -- build_schur -------------------------------------------------------------


def test_schur_n3_dense_hand_assembly():
    # P1/P0, N=3 uniform, H=1, zb=0, natural boundaries: the 2x2 system is
    # written out by hand from the interface stencils
    h = 0.5
    mesh = nh.Mesh1D.uniform(0.0, 1.0, 3)
    ops = nh.assemble(nh.ElementPair.p1p0(3), mesh, np.ones(3), np.zeros(3))
    U = np.array([0.3, -0.2, 0.1, 0.05, -0.4, 0.25])
    dt = 0.02
    sys = nh.build_schur(ops, U[:3], U[3:], dt)
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
    sys = nh.build_schur(ops, 0.7 * np.ones(9), np.zeros(9), 0.01)  # constant u, flat data
    assert np.abs(sys.rhs).max() <= 1e-12
    p = nh.solve_pressure(sys)
    assert np.abs(p.values).max() == 0.0


@pytest.mark.parametrize("tag", PAIRS)
def test_schur_symmetry_random_wet_dirichlet(tag):
    rng = np.random.default_rng(12)
    for _ in range(50):
        sys, _, _, _ = _random_system(rng, tag, bcs=("dirichlet", "dirichlet"))
        S = sys.dense()
        assert np.abs(S - S.T).max() <= 1e-12 * max(1.0, np.abs(S).max())


@pytest.mark.parametrize("tag", PAIRS)
def test_schur_spd_random_wet_dirichlet(tag):
    rng = np.random.default_rng(21)
    for _ in range(25):
        sys, _, _, _ = _random_system(rng, tag, bcs=("dirichlet", "dirichlet"))
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
        ("dirichlet", None),
        (None, "wall"),
    ):
        mesh, H, zb = random_wet_setup(rng, n_min=15, n_max=21, odd=True)
        n = mesh.n_nodes
        H[n // 2 - 2 : n // 2 + 3] = 0.0  # a dry patch pins the dofs it supports
        ops = nh.assemble(nh.ElementPair.from_tag(tag, n), mesh, H, zb)
        U = rng.standard_normal(2 * n)
        sys = nh.build_schur(ops, U[:n], U[n:], 0.05, bcs=bcs)
        pinned = sys.plan.pinned
        assert pinned.any() and not pinned.all()
        free = np.r_[sys.plan.free_u, ops.wet_nodes()]
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


@pytest.mark.parametrize("tag", PAIRS)
def test_a_built_system_is_never_written(tag):
    # siblings share the band, masks and factor by identity, so a write into
    # one system would corrupt the others: every write raises instead
    rng = np.random.default_rng(5)
    sys, _, (u, w), dt = _random_system(rng, tag, bcs=("wall", "dirichlet"))
    with pytest.raises(FrozenInstanceError):
        sys.factor = None
    for array in (sys.ab, sys.rhs, sys.invA_u, sys.invA_w, sys.base_divergence,
                  sys.plan.free_u, sys.plan.pinned, sys.plan.u_base, *sys.factor):
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 1.0
    rhs = sys.rhs.copy()
    sibling = sys.with_velocity(-u, -w, dt)
    extra = rng.standard_normal(sys.n_pressure)
    shifted = sys.with_divergence(extra)
    for other in (sibling, shifted):
        assert other.ab is sys.ab and other.factor is sys.factor
        assert other.plan.pinned is sys.plan.pinned and other.invA_u is sys.invA_u
        assert not np.shares_memory(other.rhs, sys.rhs)
    assert np.array_equal(float_bits(sys.rhs), float_bits(rhs))
    assert np.array_equal(sibling.rhs, -rhs)
    # the added divergence enters the rhs and B U* alike; pinned rows stay 0
    pinned = sys.plan.pinned
    assert pinned.any()
    assert np.array_equal(shifted.rhs[pinned], np.zeros(pinned.sum()))
    assert np.allclose(shifted.rhs, np.where(pinned, 0.0, -shifted.base_divergence / dt),
                       rtol=1e-13, atol=1e-13 * np.abs(shifted.rhs).max())


def test_schur_rejects_bad_dt():
    rng = np.random.default_rng(6)
    mesh, H, zb = random_wet_setup(rng)
    ops = nh.assemble(nh.ElementPair.p1p0(mesh.n_nodes), mesh, H, zb)
    with pytest.raises(ValueError):
        nh.build_schur(ops, np.zeros(mesh.n_nodes), np.zeros(mesh.n_nodes), 0.0)


# -- solve_pressure -----------------------------------------------------------


def test_zero_rhs_gives_zero_pressure_all_methods():
    rng = np.random.default_rng(9)
    sys, _, _, _ = _random_system(rng, P1P0)
    sys = replace(sys, rhs=np.zeros(sys.n_pressure))
    assert np.abs(nh.solve_pressure(sys).values).max() == 0.0
    for reference in (_solve_cg, _solve_uzawa):
        p, iterations = reference(sys, 1e-10)
        assert np.abs(p).max() == 0.0
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
    # solve_pressure reads only the band, its factor and the rhs; the factor
    # is build_schur's
    sys = nh.SchurSystem(ab=ab.copy(), rhs=rhs.copy(), ops=None, dt=1.0, plan=None,
                         invA_u=None, invA_w=None, base_divergence=None,
                         factor=_cholesky(ab))
    p = nh.solve_pressure(sys).values
    assert np.array_equal(float_bits(p), float_bits(solveh_banded_lower(ab, rhs)))
    # the system is left as it was
    assert np.array_equal(float_bits(sys.ab), float_bits(ab))
    assert np.array_equal(float_bits(sys.rhs), float_bits(rhs))


def test_cg_agrees_with_direct():
    rng = np.random.default_rng(13)
    tol = 1e-10
    for tag in PAIRS:
        for _ in range(10):
            sys, _, _, _ = _random_system(rng, tag, bcs=("dirichlet", "dirichlet"))
            rhs = np.where(sys.plan.pinned, sys.rhs, rng.standard_normal(sys.n_pressure))
            sys = replace(sys, rhs=rhs)
            p_direct = nh.solve_pressure(sys).values
            p_cg, _ = _solve_cg(sys, tol)
            rel = np.linalg.norm(p_cg - p_direct) / np.linalg.norm(p_direct)
            assert rel <= 10.0 * tol


def test_uzawa_agrees_with_direct():
    rng = np.random.default_rng(14)
    tol = 1e-6
    for tag in PAIRS:
        sys, _, _, _ = _random_system(rng, tag, n_min=21, n_max=27)
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
    sys = nh.build_schur(ops, U[:n], U[n:], 0.01)
    with pytest.raises(SolverConvergenceError) as err:
        _solve_uzawa(sys, 1e-13)
    assert err.value.residual > 0.0
    assert err.value.iterations > 0


# -- correct_velocity ---------------------------------------------------------


def test_zero_pressure_identity():
    rng = np.random.default_rng(18)
    mesh, H, zb = random_wet_setup(rng)
    n = mesh.n_nodes
    ops = nh.assemble(nh.ElementPair.p1p0(n), mesh, H, zb)
    U = rng.standard_normal(2 * n)
    u, w = nh.correct_velocity(U[:n], U[n:], np.zeros(ops.n_pressure), ops, 0.1)
    assert np.array_equal(u, U[:n]) and np.array_equal(w, U[n:])


@pytest.mark.parametrize("tag", PAIRS)
def test_corrected_field_is_divergence_free(tag):
    rng = np.random.default_rng(19)
    for bcs in ((None, None), ("dirichlet", "dirichlet")):
        sys, ops, (u, w), dt = _random_system(rng, tag, bcs=bcs)
        p = nh.solve_pressure(sys)
        u_new, w_new = nh.correct_velocity(u, w, p.values, ops, dt, bcs=bcs)
        base = divergence_residual(sys, sys.plan.u_base, sys.plan.w_base)
        assert divergence_residual(sys, u_new, w_new) <= 1e-10 * base + 1e-12


@pytest.mark.parametrize("tag", PAIRS)
def test_projection_idempotence(tag):
    rng = np.random.default_rng(20)
    tol = 1e-10
    sys, ops, (u, w), dt = _random_system(rng, tag)
    p1 = nh.solve_pressure(sys)
    u1, w1 = nh.correct_velocity(u, w, p1.values, ops, dt)
    sys2 = nh.build_schur(ops, u1, w1, dt)
    p2 = nh.solve_pressure(sys2)
    assert np.linalg.norm(p2.values) <= 10.0 * tol * max(np.linalg.norm(p1.values), 1.0)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_correction_never_raises_the_kinetic_energy(data):
    # with walls the held velocities are 0 (at the walls and, through
    # FlowState.velocities, on dry nodes), so the correction is an
    # A_H-orthogonal projection and cannot raise sum a_node (u^2 + w^2).
    # The norm is the lumped mass A_H the projection is orthogonal in, not
    # total_energy's nodal one; dry means H < h_eps, as in the projection.
    params = nh.PhysicalParams()
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
    u, w = nh.FlowState(H, Hu, Hw).velocities(params.h_eps)
    dt = data.draw(st.floats(1e-4, 1.0))
    ops = nh.assemble(nh.ElementPair.from_tag(tag, n), mesh, H, zb, params.h_eps)
    sys = nh.build_schur(ops, u, w, dt, ("wall", "wall"))
    u_c, w_c = sys.corrected_velocity(nh.solve_pressure(sys).values)
    before = np.sum(ops.a_node * (sys.plan.u_base**2 + sys.plan.w_base**2))
    after = np.sum(ops.a_node * (u_c**2 + w_c**2))
    assert after <= before * (1.0 + 1e-12)


# -- boundary handling --------------------------------------------------------


def test_dirichlet_value_enters_solution():
    # the Dirichlet value is 0: the pinned dof solves to exactly 0
    rng = np.random.default_rng(22)
    mesh, H, zb = random_wet_setup(rng)
    ops = nh.assemble(nh.ElementPair.p1p0(mesh.n_nodes), mesh, H, zb)
    n = mesh.n_nodes
    U = rng.standard_normal(2 * n)
    bcs = ("dirichlet", None)
    sys = nh.build_schur(ops, U[:n], U[n:], 0.05, bcs=bcs)
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
    u, w = rng.standard_normal(2 * n).reshape(2, n)
    bcs = ("wall", "neumann")
    sys = nh.build_schur(ops, u, w, 0.05, bcs=bcs)
    p = nh.solve_pressure(sys)
    u_new, w_new = nh.correct_velocity(u, w, p.values, ops, 0.05, bcs=bcs)
    assert u_new[0] == 0.0
    assert u_new[n - 1] == u[n - 1]
    assert divergence_residual(sys, u_new, w_new) <= 1e-9


def test_pressure_bc_kinds_are_dirichlet_and_neumann():
    # "wall" is the Neumann condition with zero velocity; an imposed depth
    # closes as Neumann (its Robin coefficient lives in the depth-dependent
    # boundary entries of B and C), so no "mixed" kind exists; a closure is
    # a (left, right) pair, so a lone kind is rejected too
    n = 5
    mesh = nh.Mesh1D.uniform(0.0, 1.0, n)
    ops = nh.assemble(nh.ElementPair.p1p0(n), mesh, np.ones(n), np.zeros(n))
    for bcs in (("mixed", None), ("dirichlet",)):
        with pytest.raises(ValueError):
            nh.build_schur(ops, np.zeros(n), np.zeros(n), 0.05, bcs)


def test_dry_pressure_dofs_pinned_to_zero():
    mesh = nh.Mesh1D.uniform(0.0, 1.0, 9)
    H = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    ops = nh.assemble(nh.ElementPair.p1p0(9), mesh, H, np.zeros(9), h_eps=1e-8)
    u, w = np.zeros(9), np.where(H > 0, 0.3, 0.0)
    sys = nh.build_schur(ops, u, w, 0.01)
    p = nh.solve_pressure(sys)
    assert np.all(p.values[ops.dry_pressure_dofs()] == 0.0)
    u_new, w_new = nh.correct_velocity(u, w, p.values, ops, 0.01)
    # dry velocities untouched
    assert np.array_equal(w_new[5:], w[5:])


def test_plan_masks():
    mesh = nh.Mesh1D.uniform(0.0, 1.0, 5)
    H = np.ones(5)
    ops = nh.assemble(nh.ElementPair.p1p0(5), mesh, H, np.zeros(5))
    u, w = np.arange(5.0), np.arange(5.0, 10.0)
    plan = resolve_projection_bcs(ops, ("wall", None), u, w)
    assert not plan.free_u[0] and plan.free_u[1:].all()
    assert ops.wet_nodes().all()
    assert plan.u_base[0] == 0.0
    assert np.array_equal(plan.u_base[1:], u[1:])
    # only u is written (at the wall), so w is shared, not copied
    assert u[0] == 0.0 and plan.w_base is w
