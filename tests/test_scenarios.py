import numpy as np
import pytest

import nhswe as nh
from nhswe.core import G
from nhswe.hyperbolic import prediction_inputs
from nhswe.scenarios import (
    DINGEMANS_GAUGES,
    GaugeSet,
    SolitaryWaveParams,
    sine_flux_wavemaker,
    solitary_wave,
)

from oracles import riemann_star_bisection

# frozen after cross-checking the package Newton iteration against the
# independent bisection oracle (both to 1e-12)
RIEMANN_HSTAR_18_10 = 1.3689772648345202
RIEMANN_USTAR_18_10 = 1.074982617121092


# -- solitary wave ------------------------------------------------------------


def test_solitary_crest_values():
    p = SolitaryWaveParams(a=0.4)
    H, u, w, pnh = solitary_wave(0.0, 0.0, p)
    assert H == pytest.approx(1.4, rel=1e-14)
    assert w == pytest.approx(0.0, abs=1e-14)


def test_solitary_far_field():
    p = SolitaryWaveParams()
    H, u, w, pnh = solitary_wave(200.0, 0.0, p)
    assert H == pytest.approx(1.0, abs=1e-14)
    assert u == pytest.approx(0.0, abs=1e-12)
    assert w == pytest.approx(0.0, abs=1e-14)
    assert pnh == pytest.approx(0.0, abs=1e-12)


def test_solitary_speed_and_length_formulas():
    p = SolitaryWaveParams(a=0.4)
    assert p.length_scale == pytest.approx(np.sqrt(3.5), rel=1e-14)
    assert p.celerity == pytest.approx(
        np.sqrt(3.5) * np.sqrt(G / 2.5), rel=1e-14
    )
    assert p.celerity == pytest.approx(3.7059411760037424, rel=1e-13)


def test_solitary_satisfies_divergence_constraint():
    # d(Hu)/dx - u dH/dx + 2 w = 0 pointwise with analytic derivatives
    p = SolitaryWaveParams()
    rng = np.random.default_rng(77)
    c0, l = p.celerity, p.length_scale
    for _ in range(1000):
        x = 90.0 * rng.random() - 45.0
        t = 6.0 * rng.random()
        H, u, w, _ = solitary_wave(x, t, p)
        th = (x - c0 * t) / l
        dH = -2.0 * p.a / l * (1.0 / np.cosh(th)) ** 2 * np.tanh(th)
        dHu = c0 * dH  # Hu = c0 (H - d)
        residual = dHu - u * dH + 2.0 * w
        assert abs(residual) <= 1e-8


def test_solitary_wave_translates():
    p = SolitaryWaveParams()
    H0, u0, w0, p0 = solitary_wave(1.0, 0.0, p)
    H1, u1, w1, p1 = solitary_wave(1.0 + p.celerity * 2.5, 2.5, p)
    assert H1 == pytest.approx(H0, rel=1e-13)
    assert u1 == pytest.approx(u0, rel=1e-13)


# -- dam break -----------------------------------------------------------------


def test_dam_break_no_jump():
    x = np.linspace(0, 10, 11)
    H = nh.dam_break_init(x, 1.3, 1.3, 5.0, 0.1)
    assert np.allclose(H, 1.3, atol=1e-15)


def test_dam_break_limits():
    x = np.array([-1e3, 300.0, 1e3])
    H = nh.dam_break_init(x, 1.8, 1.0, 300.0, 1e-4)
    assert H[0] == pytest.approx(1.8, abs=1e-12)
    assert H[1] == pytest.approx(1.4, abs=1e-12)
    assert H[2] == pytest.approx(1.0, abs=1e-12)


def test_dam_break_limit_tolerance_window():
    eps = 0.5
    xd = 10.0
    x = np.array([xd - 10 * eps, xd + 10 * eps])
    H = nh.dam_break_init(x, 1.8, 1.0, xd, eps)
    mid, a = 1.4, 0.4
    assert abs(H[0] - (mid + a)) <= 1e-8
    assert abs(H[1] - (mid - a)) <= 1e-8


def test_dam_break_rejects_bad_input():
    with pytest.raises(ValueError):
        nh.dam_break_init(np.zeros(3), -1.0, 1.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        nh.dam_break_init(np.zeros(3), 1.0, 1.0, 0.0, -0.1)


def test_scenario_inputs_are_checked_at_construction():
    # each of these built a scenario that ran wrong or failed late: a NaN
    # or negative beach amplitude gave the lake at rest, a NaN solitary
    # amplitude passed and an infinite one divided by zero, a NaN dam-break
    # depth gave an all-NaN profile, a zero wavemaker period divided by
    # zero at its first call, and a NaN period or a negative depth failed
    # at the first step
    cases = (
        (lambda: nh.make_beach(101, amplitude=np.nan), "amplitude"),
        (lambda: nh.make_beach(101, amplitude=-0.2), "amplitude"),
        (lambda: nh.make_beach(101, pulse_period=0.0), "pulse_period"),
        (lambda: nh.make_solitary(101, a=np.nan), "amplitude a"),
        (lambda: nh.make_solitary(101, a=np.inf), "amplitude a"),
        (lambda: nh.make_solitary(101, x_start=np.nan), "x_start"),
        (lambda: SolitaryWaveParams(a=-0.1), "amplitude a"),
        (lambda: nh.dam_break_init(np.zeros(3), np.nan, 1.0, 0.0, 0.1), "h_left"),
        (lambda: nh.dam_break_init(np.zeros(3), 1.0, np.inf, 0.0, 0.1), "h_right"),
        (lambda: nh.dam_break_init(np.zeros(3), 1.0, 1.0, np.nan, 0.1), "x_dam"),
        (lambda: nh.dam_break_init(np.zeros(3), 1.0, 1.0, 0.0, np.nan), "eps"),
        (lambda: sine_flux_wavemaker(0.02, 0.4, 0.0), "period"),
        (lambda: sine_flux_wavemaker(0.02, 0.4, np.nan), "period"),
        (lambda: sine_flux_wavemaker(0.02, -0.4, 2.0), "depth"),
        (lambda: sine_flux_wavemaker(np.inf, 0.4, 2.0), "amplitude"),
        (lambda: nh.make_dingemans(101, period=0.0), "period"),
        (lambda: nh.make_dingemans(101, amplitude=np.nan), "amplitude"),
    )
    for build, name in cases:
        with pytest.raises(ValueError, match=name):
            build()
    # amplitude 0 keeps giving the lake at rest, with a still inflow
    left = nh.make_beach(101, amplitude=0.0).bounds.left
    assert left == nh.HyperbolicBC("imposed_flux", q0=(0.0, 0.0))


# -- exact Riemann solution ----------------------------------------------------


def test_riemann_constant_state():
    sol = nh.exact_sw_riemann(1.3, 0.4, 1.3, 0.4)
    assert sol.h_star == pytest.approx(1.3, rel=1e-12)
    assert sol.u_star == pytest.approx(0.4, rel=1e-12)


def test_riemann_symmetric_collision():
    sol = nh.exact_sw_riemann(1.0, 0.5, 1.0, -0.5)
    assert sol.u_star == pytest.approx(0.0, abs=1e-12)
    assert sol.h_star > 1.0


def test_riemann_dam_break_golden():
    sol = nh.exact_sw_riemann(1.8, 0.0, 1.0, 0.0)
    assert sol.h_star == pytest.approx(RIEMANN_HSTAR_18_10, abs=1e-10)
    assert sol.u_star == pytest.approx(RIEMANN_USTAR_18_10, abs=1e-10)
    # two independent root finders agree
    hb, ub = riemann_star_bisection(1.8, 0.0, 1.0, 0.0, G)
    assert sol.h_star == pytest.approx(hb, abs=1e-10)
    assert sol.u_star == pytest.approx(ub, abs=1e-10)


def test_riemann_rankine_hugoniot_across_shock():
    sol = nh.exact_sw_riemann(1.8, 0.0, 1.0, 0.0)
    assert sol.right_is_shock()
    s = sol.right_shock_speed()
    jump_mass = sol.h_star * sol.u_star - 1.0 * 0.0
    jump_mom = (
        sol.h_star * sol.u_star**2
        + 0.5 * G * sol.h_star**2
        - (0.0 + 0.5 * G * 1.0**2)
    )
    assert s * (sol.h_star - 1.0) == pytest.approx(jump_mass, abs=1e-10)
    assert s * (sol.h_star * sol.u_star - 0.0) == pytest.approx(jump_mom, abs=1e-10)


def test_riemann_vacuum_rejected():
    with pytest.raises(ValueError):
        nh.exact_sw_riemann(1.0, -20.0, 1.0, 20.0)
    with pytest.raises(ValueError):
        nh.exact_sw_riemann(0.0, 0.0, 1.0, 0.0)


# -- beach / dingemans ----------------------------------------------------------


def test_beach_initial_state_is_lake_at_rest():
    sc = nh.make_beach(n_nodes=301)
    eta = sc.state0.H + sc.bathy.zb
    wet = sc.state0.H > 0
    assert np.allclose(eta[wet], 1.0, atol=1e-12)
    assert np.any(sc.state0.H == 0.0)  # the beach top is dry
    bc_l, bc_r = sc.bounds.hyperbolic_at(0.0)
    u, w, dt, speed = prediction_inputs(sc.state0, sc.mesh, sc.state0.H >= sc.h_eps)
    out = nh.predict(sc.state0, u, w, sc.mesh, sc.bathy, bc_l, bc_r, dt, speed)
    assert np.abs(out.H - sc.state0.H).max() <= 1e-13


def test_dingemans_gauge_count_and_positions():
    sc = nh.make_dingemans(n_nodes=491)
    assert len(sc.gauges.records) == 6
    assert tuple(r.position for r in sc.gauges.records) == DINGEMANS_GAUGES


def test_dingemans_bathymetry_profile():
    sc = nh.make_dingemans(n_nodes=4901)
    x = sc.mesh.nodes
    zb = sc.bathy.zb
    assert zb[np.searchsorted(x, 3.0)] == 0.0
    assert zb[np.searchsorted(x, 13.0)] == pytest.approx(0.3)
    assert zb[np.searchsorted(x, 30.0)] == 0.0
    # crest sits 0.1 m under the still water line
    assert (0.4 - zb.max()) == pytest.approx(0.1)


def test_wavemaker_sign_convention():
    # surface signal eta - eta0 = A sin(2 pi t / T) implies q = A sqrt(g H0) sin(.)
    A, H0, T = 0.02, 0.4, 2.02
    q = sine_flux_wavemaker(A, H0, T)
    bc = q(T / 4.0)
    assert bc.q0[0] / np.sqrt(G * H0) == pytest.approx(A, rel=1e-12)
    bc = q(3.0 * T / 4.0)
    assert bc.q0[0] / np.sqrt(G * H0) == pytest.approx(-A, rel=1e-12)


def test_gauges_lake_at_rest_series():
    mesh = nh.Mesh1D.uniform(0.0, 10.0, 21)
    bathy = nh.Bathymetry.flat(mesh)
    gauges = GaugeSet.at(mesh, bathy, [2.5])
    state = nh.FlowState(np.ones(21), np.zeros(21), np.zeros(21), t=0.0)
    for t in (0.0, 1.0, 2.0):
        state.t = t
        gauges.record(state)
    assert gauges.records[0].eta == [1.0, 1.0, 1.0]
    assert gauges.records[0].times == [0.0, 1.0, 2.0]


def test_gauge_interpolation_rules():
    mesh = nh.Mesh1D.uniform(0.0, 1.0, 3)  # nodes at 0, 0.5, 1
    bathy = nh.Bathymetry.flat(mesh)
    gauges = GaugeSet.at(mesh, bathy, [0.5, 0.25])
    state = nh.FlowState(np.array([1.0, 2.0, 3.0]), np.zeros(3), np.zeros(3))
    gauges.record(state)
    assert gauges.records[0].eta[0] == 2.0  # exact nodal value
    assert gauges.records[1].eta[0] == pytest.approx(1.5)  # midpoint mean


def test_gauge_outside_domain_rejected():
    mesh = nh.Mesh1D.uniform(0.0, 1.0, 3)
    bathy = nh.Bathymetry.flat(mesh)
    with pytest.raises(ValueError):
        GaugeSet.at(mesh, bathy, [2.0])
