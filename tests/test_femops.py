import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import nhswe as nh
from nhswe.femops import P1ISOP2P1, P1P0

from oracles import (
    boundary_entries,
    dense_boundary,
    dense_divergence,
    dense_gradient,
    depth_derivative_by_differencing,
    dry_pressure_dofs_by_support,
    gauss_divergence,
    gauss_gradient,
    gauss_lumped_mass,
    nodal_pressure_samples,
    random_wet_setup,
    staggered_stencil_divergence,
    staggered_stencil_gradient,
    u_windows_uncached,
    w_windows_uncached,
)

PAIRS = (P1P0, P1ISOP2P1)

# the default dry threshold
H_EPS = nh.PhysicalParams().h_eps


# -- lumped mass ------------------------------------------------------------


def test_lumped_mass_uniform_unit_depth():
    mesh = nh.Mesh1D.uniform(0.0, 1.0, 11)
    a = nh.lump_mass(np.ones(11), mesh, H_EPS)
    assert a[5] == pytest.approx(0.1, rel=1e-13)
    assert a[0] == pytest.approx(0.05, rel=1e-13)


def test_lumped_mass_linear_depth_exact_integral():
    mesh = nh.Mesh1D(np.array([0.0, 1.0]))
    a = nh.lump_mass(np.array([1.0, 0.0]), mesh, H_EPS)
    # node at the H=1 end: 1/4 (phi^2 part) + 1/12 (cross part)
    assert a[0] == pytest.approx(0.25 + 1.0 / 12.0, rel=1e-13)
    assert a[1] == pytest.approx(1.0 / 12.0 + 1.0 / 4.0 - 1.0 / 6.0, rel=1e-13)


def test_lumped_mass_dry_floor():
    mesh = nh.Mesh1D.uniform(0.0, 1.0, 11)
    a = nh.lump_mass(np.zeros(11), mesh, h_eps=1e-8)
    assert np.all(a > 0.0)
    assert a[5] == pytest.approx(1e-8 * 0.1, rel=1e-12)


def test_lumped_mass_scales_linearly_with_depth():
    rng = np.random.default_rng(3)
    mesh, H, _ = random_wet_setup(rng)
    a1 = nh.lump_mass(H, mesh, H_EPS)
    a3 = nh.lump_mass(3.0 * H, mesh, H_EPS)
    assert np.allclose(a3, 3.0 * a1, rtol=1e-13)


def test_lumped_mass_matches_quadrature():
    rng = np.random.default_rng(11)
    for _ in range(10):
        mesh, H, _ = random_wet_setup(rng)
        assert np.allclose(nh.lump_mass(H, mesh, H_EPS), gauss_lumped_mass(mesh, H), rtol=1e-12)


# -- assembly ---------------------------------------------------------------


def test_p1p0_divergence_of_constant_u_flat_data():
    mesh = nh.Mesh1D.uniform(0.0, 1.0, 9)
    ops = nh.assemble(nh.ElementPair(P1P0, 9), mesh, np.ones(9), nh.Bathymetry.flat(mesh), H_EPS)
    div = ops.apply_divergence(0.7 * np.ones(9), np.zeros(9))
    assert np.abs(div).max() <= 1e-14


@pytest.mark.parametrize(
    "args, names",
    [
        (("P2P1", 9), "P2P1"),  # unknown tag
        ((P1ISOP2P1, 8), P1ISOP2P1),  # even N
    ],
)
def test_element_pair_validates_itself(args, names):
    # built by hand, not through from_tag
    with pytest.raises(ValueError, match=names):
        nh.ElementPair(*args)


def test_element_pair_validation():
    with pytest.raises(ValueError):
        nh.ElementPair(P1ISOP2P1, 8)
    with pytest.raises(ValueError):
        nh.assemble(
            nh.ElementPair(P1P0, 9), nh.Mesh1D.uniform(0, 1, 7), np.ones(7),
            nh.Bathymetry(np.zeros(7)), H_EPS,
        )
    with pytest.raises(ValueError):
        nh.assemble(
            nh.ElementPair(P1P0, 7), nh.Mesh1D.uniform(0, 1, 7), -np.ones(7),
            nh.Bathymetry(np.zeros(7)), H_EPS,
        )


def _assert_interior_duality(ops):
    # Bt = -B^T on the rows of interior nodes, to 1e-12
    n = ops.n_nodes
    B = dense_divergence(ops)
    Bt = dense_gradient(ops)
    interior = np.r_[np.arange(1, n - 1), n + np.arange(1, n - 1)]
    assert np.abs(Bt[interior, :] + B[:, interior].T).max() <= 1e-12


@pytest.mark.parametrize("tag", PAIRS)
def test_duality_interior_restriction(tag):
    # 50 random fields
    rng = np.random.default_rng(2024)
    for _ in range(50):
        mesh, H, zb = random_wet_setup(rng, odd=True)
        pair = nh.ElementPair(tag, mesh.n_nodes)
        _assert_interior_duality(nh.assemble(pair, mesh, H, nh.Bathymetry(zb), H_EPS))


def test_interior_duality_of_both_pairs_on_fifty_meshes():
    # both pairs assembled on each of 50 random meshes (N 5-13, odd)
    rng = np.random.default_rng(1234)
    for _ in range(50):
        mesh, H, zb = random_wet_setup(rng, odd=True)
        for tag in PAIRS:
            pair = nh.ElementPair(tag, mesh.n_nodes)
            _assert_interior_duality(nh.assemble(pair, mesh, H, nh.Bathymetry(zb), H_EPS))


@pytest.mark.parametrize("tag", PAIRS)
def test_full_duality_identity_with_boundary_matrix(tag):
    # Bt - C = -B^T exactly, all rows
    rng = np.random.default_rng(5)
    mesh, H, zb = random_wet_setup(rng, odd=True)
    ops = nh.assemble(nh.ElementPair(tag, mesh.n_nodes), mesh, H, nh.Bathymetry(zb), H_EPS)
    lhs = dense_gradient(ops) - dense_boundary(ops)
    assert np.abs(lhs + dense_divergence(ops).T).max() <= 1e-12


@pytest.mark.parametrize("tag", PAIRS)
def test_quadrature_equivalence_divergence(tag):
    rng = np.random.default_rng(99)
    for _ in range(8):
        mesh, H, zb = random_wet_setup(rng, n_min=5, n_max=9, odd=True)
        ops = nh.assemble(nh.ElementPair(tag, mesh.n_nodes), mesh, H, nh.Bathymetry(zb), H_EPS)
        B = dense_divergence(ops)
        B_q = gauss_divergence(tag, mesh, H, zb)
        assert np.abs(B - B_q).max() <= 1e-12 * max(1.0, np.abs(B_q).max())


@pytest.mark.parametrize("tag", PAIRS)
def test_quadrature_equivalence_gradient(tag):
    rng = np.random.default_rng(100)
    for _ in range(8):
        mesh, H, zb = random_wet_setup(rng, n_min=5, n_max=9, odd=True)
        ops = nh.assemble(nh.ElementPair(tag, mesh.n_nodes), mesh, H, nh.Bathymetry(zb), H_EPS)
        Bt = dense_gradient(ops)
        # the oracle reads the gradient form directly; its by-parts boundary
        # terms cancel against C, so it matches Bt = -B^T + C as assembled
        Bt_q = gauss_gradient(tag, mesh, H, zb)
        assert np.abs(Bt - Bt_q).max() <= 1e-12 * max(1.0, np.abs(Bt_q).max())


def test_p1isop2_uniform_mesh_printed_divergence_stencil():
    # interior coarse row on a uniform mesh with flat bottom: the u part is
    # (1/4 H u)_{i+2} + (1/2 H u)_{i+1} - (1/2 H u)_{i-1} - (1/4 H u)_{i-2}
    n = 9
    mesh = nh.Mesh1D.uniform(0.0, 4.0, n)
    H = np.array([1.0, 1.3, 0.8, 1.1, 0.9, 1.4, 1.2, 1.0, 0.7])
    ops = nh.assemble(nh.ElementPair(P1ISOP2P1, n), mesh, H, nh.Bathymetry(np.full(n, 0.25)), H_EPS)
    B = dense_divergence(ops)
    j = 2  # coarse node at fine node 4
    c = 4
    # zeta terms vanish against the u coefficients only if zeta is constant,
    # so build that case explicitly
    zb = 0.5 * (2.0 - H)  # makes zeta = H + 2 zb = 2 constant
    ops_c = nh.assemble(nh.ElementPair(P1ISOP2P1, n), mesh, H, nh.Bathymetry(zb), H_EPS)
    B = dense_divergence(ops_c)
    assert B[j, c - 2] == pytest.approx(-0.25 * H[c - 2], rel=1e-13)
    assert B[j, c - 1] == pytest.approx(-0.5 * H[c - 1], rel=1e-13)
    assert B[j, c] == pytest.approx(0.0, abs=1e-13)
    assert B[j, c + 1] == pytest.approx(0.5 * H[c + 1], rel=1e-13)
    assert B[j, c + 2] == pytest.approx(0.25 * H[c + 2], rel=1e-13)


def test_p1isop2_uniform_gradient_first_term():
    # interior coarse node: first gradient component carries H_i (p_{j+1} - p_{j-1}) / 4
    n = 9
    mesh = nh.Mesh1D.uniform(0.0, 4.0, n)
    H = 1.0 + 0.1 * np.arange(n)
    zb = 0.5 * (2.0 - H)  # constant zeta kills the slope terms
    ops = nh.assemble(nh.ElementPair(P1ISOP2P1, n), mesh, H, nh.Bathymetry(zb), H_EPS)
    Bt = dense_gradient(ops)
    i = 4  # fine node of coarse dof j=2
    assert Bt[i, 3] == pytest.approx(H[i] / 4.0, rel=1e-13)
    assert Bt[i, 1] == pytest.approx(-H[i] / 4.0, rel=1e-13)
    assert Bt[i, 2] == pytest.approx(0.0, abs=1e-13)


# -- finite-difference equivalence (P1/P0) -----------------------------------


def _assert_p1p0_matches_stencils(mesh, H, zb):
    # every coefficient of B, w-columns (+-h) included, and of Bt on every
    # row but the two boundary u-rows equals the stencil exactly; on the
    # boundary u-rows the entries of C cancel the depth terms to round-off
    n = mesh.n_nodes
    ops = nh.assemble(nh.ElementPair(P1P0, n), mesh, H, nh.Bathymetry(zb), H_EPS)
    assert np.array_equal(dense_divergence(ops), staggered_stencil_divergence(mesh, H, zb))
    Bt = dense_gradient(ops)
    Bt_fd = staggered_stencil_gradient(mesh, H, zb)
    inner = np.r_[1 : n - 1, n : 2 * n]
    assert np.array_equal(Bt[inner], Bt_fd[inner])
    ends = [0, n - 1]
    assert np.abs(Bt[ends] - Bt_fd[ends]).max() <= 1e-14 * max(1.0, np.abs(Bt_fd).max())


def test_p1p0_matches_staggered_stencils_coefficientwise():
    rng = np.random.default_rng(31)
    for _ in range(50):
        _assert_p1p0_matches_stencils(*random_wet_setup(rng))


def test_p1p0_stencils_exact_on_fifty_meshes_from_four_nodes():
    rng = np.random.default_rng(77)
    for _ in range(50):
        _assert_p1p0_matches_stencils(*random_wet_setup(rng, n_min=4))


# -- depth scaling -----------------------------------------------------------


@pytest.mark.parametrize("tag", PAIRS)
def test_depth_scaling_against_quadrature(tag):
    rng = np.random.default_rng(17)
    mesh, H, zb = random_wet_setup(rng, n_min=5, n_max=9, odd=True)
    lam = 2.5
    ops = nh.assemble(nh.ElementPair(tag, mesh.n_nodes), mesh, lam * H, nh.Bathymetry(zb), H_EPS)
    assert np.allclose(ops.a_node, lam * nh.lump_mass(H, mesh, H_EPS), rtol=1e-13)
    B_q = gauss_divergence(tag, mesh, lam * H, zb)
    assert np.abs(dense_divergence(ops) - B_q).max() <= 1e-12 * max(
        1.0, np.abs(B_q).max()
    )


# -- misc -------------------------------------------------------------------


def test_boundary_matrix_entries():
    mesh = nh.Mesh1D.uniform(0.0, 1.0, 5)
    H = np.array([1.5, 1.0, 1.0, 1.0, 2.5])
    ops = nh.assemble(nh.ElementPair(P1P0, 5), mesh, H, nh.Bathymetry.flat(mesh), H_EPS)
    (r0, c0, v0), (r1, c1, v1) = boundary_entries(ops)
    assert (r0, c0, v0) == (0, 0, -1.5)
    assert (r1, c1, v1) == (4, 3, 2.5)


def test_schur_bandwidth_tags():
    mesh = nh.Mesh1D.uniform(0.0, 1.0, 9)
    flat = nh.Bathymetry.flat(mesh)
    assert nh.assemble(nh.ElementPair(P1P0, 9), mesh, np.ones(9), flat, H_EPS).bandwidth == 1
    assert (
        nh.assemble(nh.ElementPair(P1ISOP2P1, 9), mesh, np.ones(9), flat, H_EPS).bandwidth == 2
    )


def test_windowed_apply_matches_dense():
    rng = np.random.default_rng(8)
    for tag in PAIRS:
        mesh, H, zb = random_wet_setup(rng, odd=True)
        n = mesh.n_nodes
        ops = nh.assemble(nh.ElementPair(tag, n), mesh, H, nh.Bathymetry(zb), H_EPS)
        B = dense_divergence(ops)
        u = rng.standard_normal(n)
        w = rng.standard_normal(n)
        p = rng.standard_normal(ops.n_pressure)
        assert np.allclose(ops.apply_divergence(u, w), B @ np.r_[u, w], atol=1e-13)
        du, dw = ops.scatter_divergence_t(p)
        ref = B.T @ p
        assert np.allclose(np.r_[du, dw], ref, atol=1e-13)


# -- dry dofs and nodal pressure output ---------------------------------------


def _random_dry_setup(rng, tag):
    """Random non-uniform mesh whose depth has dry nodes and dry patches."""
    mesh, H, zb = random_wet_setup(rng, n_min=5, n_max=25, odd=tag == P1ISOP2P1)
    n = mesh.n_nodes
    H[rng.random(n) < 0.25] = 0.0
    start = int(rng.integers(0, n))
    H[start : start + int(rng.integers(1, 6))] = 0.0
    return mesh, H, zb


@pytest.mark.parametrize("tag", PAIRS)
def test_dry_pressure_dofs_match_their_supports(tag):
    rng = np.random.default_rng(61)
    h_eps = 1e-8
    for _ in range(40):
        mesh, H, zb = _random_dry_setup(rng, tag)
        ops = nh.assemble(nh.ElementPair(tag, mesh.n_nodes), mesh, H, nh.Bathymetry(zb), h_eps)
        ref = dry_pressure_dofs_by_support(tag, mesh, H, h_eps)
        assert np.array_equal(ops.dry_pressure_dofs(), ref)


@pytest.mark.parametrize("tag", PAIRS)
def test_the_assembly_wet_mask_is_read_only(tag):
    # computed once per assembly and read by the dry dofs, the boundary plan,
    # the masked inverse mass and the projected velocities
    rng = np.random.default_rng(63)
    h_eps = 1e-3
    mesh, H, zb = _random_dry_setup(rng, tag)
    H[rng.random(mesh.n_nodes) < 0.2] = 0.5 * h_eps
    ops = nh.assemble(nh.ElementPair(tag, mesh.n_nodes), mesh, H, nh.Bathymetry(zb), h_eps)
    assert ops.wet.dtype == bool and np.array_equal(ops.wet, H >= h_eps)
    assert ops.wet.any() and not ops.wet.all()
    with pytest.raises(ValueError, match="read-only"):
        ops.wet[0] = not ops.wet[0]


@pytest.mark.parametrize("tag", PAIRS)
def test_nodal_pressure_samples_match_pointwise_interpolation(tag):
    rng = np.random.default_rng(62)
    for _ in range(40):
        mesh, H, zb = _random_dry_setup(rng, tag)
        ops = nh.assemble(nh.ElementPair(tag, mesh.n_nodes), mesh, H, nh.Bathymetry(zb), H_EPS)
        p = rng.standard_normal(ops.n_pressure)
        got = ops.interpolate_pressure_to_nodes(p)
        ref = nodal_pressure_samples(tag, mesh, p)
        if tag == P1P0:
            assert np.array_equal(got, ref)
        else:
            assert np.allclose(got, ref, rtol=1e-14, atol=1e-14 * np.abs(p).max())


# -- depth derivative of the divergence ---------------------------------------


@st.composite
def _depth_derivative_case(draw, tag):
    n = draw(st.integers(5, 15))
    if tag == P1ISOP2P1 and n % 2 == 0:
        n += 1

    def field(lo, hi):
        return draw(arrays(float, n, elements=st.floats(lo, hi, allow_subnormal=False)))

    mesh = nh.Mesh1D(np.cumsum(field(0.1, 2.0)))
    return mesh, field(0.0, 3.0), field(-1.0, 1.0), field(-5.0, 5.0), field(-3.0, 3.0)


@pytest.mark.parametrize("tag", PAIRS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_depth_derivative_matches_differenced_assemblies(tag, data):
    mesh, H, zb, T_H, u = data.draw(_depth_derivative_case(tag))
    pair = nh.ElementPair(tag, mesh.n_nodes)
    w = np.linspace(-1.0, 1.0, mesh.n_nodes)
    got = nh.assemble(pair, mesh, H, nh.Bathymetry(zb), H_EPS).apply_depth_derivative(T_H, u)
    ref = depth_derivative_by_differencing(pair, mesh, zb, T_H, u, w)
    # the difference cancels coefficients of size |shift + T_H| + |d zeta|
    scale = (2.0 * np.abs(T_H).max() + 1.0 + 4.0 * np.abs(zb).max()) * (np.abs(u).max() + 1.0)
    assert np.allclose(got, ref, rtol=0.0, atol=64 * np.finfo(float).eps * scale)


# -- mesh-only geometry, built once per (mesh, pair) ----------------------------


@pytest.mark.parametrize("tag", PAIRS)
def test_assemblies_on_one_mesh_share_read_only_geometry(tag):
    rng = np.random.default_rng(41)
    mesh, H, zb = random_wet_setup(rng, odd=True)
    pair = nh.ElementPair(tag, mesh.n_nodes)
    first = nh.assemble(pair, mesh, H, nh.Bathymetry(zb), H_EPS)
    second = nh.assemble(pair, mesh, 2.0 * H, nh.Bathymetry(-zb), H_EPS)
    assert second.Dw is first.Dw
    assert second.geometry is first.geometry
    assert not first.Dw.flags.writeable
    with pytest.raises(ValueError):
        first.Dw[0, 0] = 1.0
    for term in first.geometry.schur_terms[0]:
        assert not term[-1].flags.writeable


def test_meshes_never_share_geometry():
    # equal node arrays on two meshes still give two geometries, and each
    # pair on one mesh has its own
    nodes = np.linspace(0.0, 1.0, 9)
    mesh_a, mesh_b = nh.Mesh1D(nodes), nh.Mesh1D(nodes.copy())
    geoms = []
    for mesh in (mesh_a, mesh_b):
        for tag in PAIRS:
            ops = nh.assemble(
                nh.ElementPair(tag, 9), mesh, np.ones(9), nh.Bathymetry.flat(mesh), H_EPS
            )
            geoms.append(ops.geometry)
    assert len({id(g) for g in geoms}) == 4
    assert np.array_equal(geoms[0].Dw, geoms[2].Dw)
    assert geoms[0].Dw is not geoms[2].Dw


@pytest.mark.parametrize("tag", PAIRS)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_cached_windows_equal_an_uncached_build(tag, data):
    mesh, H, zb, _, _ = data.draw(_depth_derivative_case(tag))
    pair = nh.ElementPair(tag, mesh.n_nodes)
    # fills the cache
    nh.assemble(pair, mesh, np.ones(mesh.n_nodes), nh.Bathymetry.flat(mesh), H_EPS)
    ops = nh.assemble(pair, mesh, H, nh.Bathymetry(zb), H_EPS)
    assert np.array_equal(ops.Du, u_windows_uncached(pair, mesh, H, zb))
    assert np.array_equal(ops.Dw, w_windows_uncached(pair, mesh))
