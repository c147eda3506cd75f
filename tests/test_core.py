import dataclasses

import numpy as np
import pytest

import nhswe as nh
from nhswe.core import G
from nhswe.hyperbolic import prediction_inputs
from nhswe.scenarios import SolitaryWaveParams, solitary_wave

# frozen golden values: high-resolution midpoint quadrature of the solitary
# initial condition (a=0.4, H0=1, d=1, 45 m domain, crest at 11 m)
SOLITARY_MASS = 46.49665125871972
SOLITARY_ENERGY = 239.57888188756024

# the default dry threshold
H_EPS = nh.PhysicalParams().h_eps


def test_total_mass_constant_field():
    mesh = nh.Mesh1D.uniform(0.0, 10.0, 51)
    state = nh.FlowState(np.ones(51), np.zeros(51), np.zeros(51))
    assert nh.total_mass(state, mesh) == pytest.approx(10.0, rel=1e-14)


def test_total_mass_dry_domain():
    mesh = nh.Mesh1D.uniform(0.0, 10.0, 21)
    state = nh.FlowState(np.zeros(21), np.zeros(21), np.zeros(21))
    assert nh.total_mass(state, mesh) == 0.0


def test_total_mass_solitary_golden():
    mesh = nh.Mesh1D.uniform(0.0, 45.0, 20001)
    params = SolitaryWaveParams()
    H, u, w, _ = solitary_wave(mesh.nodes - 11.0, 0.0, params)
    state = nh.FlowState(H, H * u, H * w)
    assert nh.total_mass(state, mesh) == pytest.approx(SOLITARY_MASS, abs=1e-6)


def test_total_mass_size_mismatch():
    mesh = nh.Mesh1D.uniform(0.0, 1.0, 11)
    state = nh.FlowState(np.ones(5), np.zeros(5), np.zeros(5))
    with pytest.raises(ValueError):
        nh.total_mass(state, mesh)


def test_total_energy_lake_at_rest():
    mesh = nh.Mesh1D.uniform(0.0, 7.0, 29)
    bathy = nh.Bathymetry.flat(mesh)
    state = nh.FlowState(np.ones(29), np.zeros(29), np.zeros(29))
    assert nh.total_energy(state, mesh, bathy, H_EPS) == pytest.approx(G * 7.0 / 2.0, rel=1e-13)


def test_total_energy_direct_formula():
    mesh = nh.Mesh1D.uniform(0.0, 1.0, 11)
    bathy = nh.Bathymetry.flat(mesh)
    state = nh.FlowState(2.0 * np.ones(11), np.zeros(11), np.zeros(11))
    # E = G H (eta + zb) / 2 = G * 2 * 2 / 2 per unit length
    assert nh.total_energy(state, mesh, bathy, H_EPS) == pytest.approx(2.0 * G, rel=1e-13)


def test_total_energy_solitary_golden():
    mesh = nh.Mesh1D.uniform(0.0, 45.0, 20001)
    bathy = nh.Bathymetry.flat(mesh)
    params = SolitaryWaveParams()
    H, u, w, _ = solitary_wave(mesh.nodes - 11.0, 0.0, params)
    state = nh.FlowState(H, H * u, H * w)
    energy = nh.total_energy(state, mesh, bathy, H_EPS)
    assert energy == pytest.approx(SOLITARY_ENERGY, abs=1e-5)


def test_dry_nodes_contribute_no_kinetic_energy():
    mesh = nh.Mesh1D.uniform(0.0, 1.0, 3)
    bathy = nh.Bathymetry.flat(mesh)
    state = nh.FlowState(np.array([0.0, 1.0, 0.0]), np.zeros(3), np.zeros(3))
    e = nh.total_energy(state, mesh, bathy, H_EPS)
    assert np.isfinite(e)
    assert e == pytest.approx(G / 2.0 * mesh.dual_widths[1], rel=1e-13)


def test_a_node_below_h_eps_contributes_no_kinetic_energy():
    # the energy reads the scheme's dry rule H < h_eps, where the scheme's
    # velocities are 0: a thin node's discharge adds no kinetic energy (a
    # mask H > 0 would add (1e-6)^2 / 1e-12 / 2 * 0.25 = 0.125)
    mesh = nh.Mesh1D.uniform(0.0, 1.0, 5)
    bathy = nh.Bathymetry.flat(mesh)
    H = np.array([1.0, 1.0, 1e-12, 0.0, 0.0])
    state = nh.FlowState(H, np.array([0.0, 0.0, 1e-6, 0.0, 0.0]), np.zeros(5))
    assert nh.total_energy(state, mesh, bathy, H_EPS) == 1.839375
    # the wet nodes keep the bits of the mask H > 0, which a threshold
    # below every positive depth gives
    moving = nh.FlowState(H, np.array([0.3, -0.2, 0.0, 0.0, 0.0]),
                          np.array([0.1, 0.0, 0.0, 0.0, 0.0]))
    energy = nh.total_energy(moving, mesh, bathy, H_EPS)
    assert energy == nh.total_energy(moving, mesh, bathy, 1e-300)


def test_mesh_invariants():
    x = np.array([0.0, 0.5, 2.0, 2.5])
    mesh = nh.Mesh1D(x)
    assert np.allclose(mesh.element_widths, [0.5, 1.5, 0.5])
    assert mesh.min_width == 0.5
    assert np.allclose(mesh.dual_widths, [0.25, 1.0, 1.0, 0.25])
    assert mesh.dual_widths.sum() == pytest.approx(mesh.nodes[-1] - mesh.nodes[0], rel=1e-15)
    with pytest.raises(ValueError):
        nh.Mesh1D(np.array([0.0, 1.0, 1.0]))
    # a NaN passes the "<= 0" width test, and an infinite end gives an
    # infinite width
    for bad in ([0.0, np.nan, 2.0], [0.0, 1.0, np.inf], [-np.inf, 0.0, 1.0]):
        with pytest.raises(ValueError, match="nodes must be finite"):
            nh.Mesh1D(bad)


def test_bathymetry_rejects_non_finite_values():
    mesh = nh.Mesh1D.uniform(0.0, 1.0, 3)
    for bad in ([0.0, np.nan, 0.0], [np.inf, 0.0, 0.0], [0.0, 0.0, -np.inf]):
        with pytest.raises(ValueError, match="zb must be finite"):
            nh.Bathymetry(bad)
        with pytest.raises(ValueError, match="zb must be finite"):
            nh.Bathymetry.from_nodal(mesh, bad)


def test_bathymetry_keeps_read_only_terms_on_itself():
    # zb is the bathymetry's own copy, and its bottom-only terms are built
    # on first use and kept: a write into any of them raises instead of
    # leaving a kept term stale
    zb = np.array([0.0, 0.25, -0.5, 1.0])
    bathy = nh.Bathymetry(zb)
    zb[0] = 7.0
    assert bathy.zb[0] == 0.0
    assert bathy.nonzero
    assert not nh.Bathymetry(np.zeros(4)).nonzero
    assert not nh.Bathymetry(np.full(4, -0.0)).nonzero
    assert np.array_equal(bathy.two_zb, 2.0 * bathy.zb)
    assert np.array_equal(bathy.zbe, [0.0, 0.0, 0.25, -0.5, 1.0, 1.0])
    assert bathy.two_zb is bathy.two_zb and bathy.zbe is bathy.zbe
    for term in (bathy.zb, bathy.two_zb, bathy.zbe):
        with pytest.raises(ValueError, match="read-only"):
            term[1] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        bathy.zb = np.zeros(4)


def test_velocities_given_the_state_own_wet_mask_are_the_same_bits():
    # the caller computes H >= h_eps once and passes it; dry nodes, depths of
    # either zero sign and depths at the threshold take the mask's branch:
    # Hu / H and Hw / H on the wet nodes, +0.0 on the others
    rng = np.random.default_rng(3)
    h_eps = 1e-6
    H = rng.uniform(0.0, 2.0, 40)
    H[::5] = 0.0
    H[1::7] = -0.0
    H[2::9] = h_eps
    H[3::11] = np.nextafter(h_eps, 0.0)
    state = nh.FlowState(H, rng.standard_normal(40), rng.standard_normal(40))
    wet = state.H >= h_eps
    for got, Hv in zip(state.velocities(wet), (state.Hu, state.Hw), strict=True):
        want = np.zeros(40)
        want[wet] = Hv[wet] / state.H[wet]
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_physical_params_validation():
    # gravity, the CFL number and the divergence tolerance are constants,
    # not parameters: the dry threshold is the only field
    assert [f.name for f in dataclasses.fields(nh.PhysicalParams)] == ["h_eps"]
    for knob in ({"g": 9.0}, {"cfl": 0.8}, {"tol": 1e-5}):
        with pytest.raises(TypeError):
            nh.PhysicalParams(**knob)
    # a NaN passes every "<= 0" test, so h_eps is checked for finiteness
    for bad in (np.nan, np.inf, -np.inf, 0.0, -1e-8):
        with pytest.raises(ValueError, match="h_eps"):
            nh.PhysicalParams(h_eps=bad)


def test_mass_invariant_under_walled_stepping():
    sc = nh.make_solitary(201)
    params = nh.PhysicalParams()
    state = sc.state0
    m_prev = nh.total_mass(state, sc.mesh)
    for _ in range(20):
        res = nh.step_euler(state, sc.mesh, sc.bathy, params, sc.bounds)
        state = res.state
        m = res.report.mass
        assert abs(m - m_prev) <= 1e-12 * m_prev
        m_prev = m


def test_correction_step_never_changes_mass():
    sc = nh.make_solitary(101)
    params = nh.PhysicalParams()
    res = nh.step_euler(sc.state0, sc.mesh, sc.bathy, params, sc.bounds)
    # H after the full step equals H after the hyperbolic half step exactly
    bc_l, bc_r = sc.bounds.hyperbolic_at(0.0)
    u, w, _, speed = prediction_inputs(sc.state0, sc.mesh, sc.state0.H >= params.h_eps)
    half = nh.predict(sc.state0, u, w, sc.mesh, sc.bathy, bc_l, bc_r, res.report.dt, speed)
    assert np.array_equal(res.state.H, half.H)
