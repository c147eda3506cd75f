import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import nhswe as nh
from nhswe import hyperbolic, timeloop
from nhswe.core import G, TorrentialBoundaryError
from nhswe.timeloop import project_state
from nhswe.hyperbolic import (
    GhostState,
    _equilibrium_support,
    _half_flux,
    apply_hyperbolic_bc,
    hydrostatic_reconstruct,
    kinetic_flux,
    max_wave_speed,
)

from oracles import (
    float_bits,
    half_flux_minus_where,
    half_flux_plus_where,
    imposed_flux_ghost_numpy,
    kinetic_flux_discharge,
    max_wave_speed_gather,
    predict_reconstructed,
    prediction_inputs,
    rusanov_step,
)

# the default dry threshold
H_EPS = nh.PhysicalParams().h_eps


# -- kinetic flux -----------------------------------------------------------


def _states(*values):
    """Each value as a 1-element float array (one interface)."""
    return tuple(np.array([v], dtype=float) for v in values)


def test_flux_consistency_still_water():
    (F_H,), (F_Hu,) = kinetic_flux(_states(1.0, 0.0), _states(1.0, 0.0))
    assert F_H == pytest.approx(0.0, abs=1e-14)
    assert F_Hu == pytest.approx(G / 2.0, rel=1e-13)


def test_flux_dry_dry():
    # a dry state's velocity is not masked: its support height is 0
    for u in (0.0, 3.0, -3.0):
        (F_H,), (F_Hu,) = kinetic_flux(_states(0.0, u), _states(0.0, -u))
        assert (F_H, F_Hu) == (0.0, 0.0)


def test_flux_consistency_moving():
    (F_H,), (F_Hu,) = kinetic_flux(_states(1.0, 1.0), _states(1.0, 1.0))
    assert F_H == pytest.approx(1.0, rel=1e-13)
    assert F_Hu == pytest.approx(1.0 + G / 2.0, rel=1e-13)


def test_flux_consistency_random_states():
    rng = np.random.default_rng(7)
    for _ in range(100):
        H = 0.05 + 3.0 * rng.random()
        u = 4.0 * rng.standard_normal()
        (F_H,), (F_Hu,) = kinetic_flux(_states(H, u), _states(H, u))
        scale = H * (abs(u) + np.sqrt(G * H)) ** 2 + 1.0
        assert abs(F_H - H * u) <= 1e-12 * scale
        assert abs(F_Hu - (H * u**2 + 0.5 * G * H**2)) <= 1e-12 * scale


def test_flux_rejects_negative_depth():
    with pytest.raises(ValueError):
        kinetic_flux(_states(-0.1, 0.0), _states(1.0, 0.0))


def test_flux_conservative_orientation():
    # exchanging the states and flipping velocities flips the mass flux
    (F_H,), _ = kinetic_flux(_states(2.0, 0.5), _states(1.0, 0.5))
    (F_H_rev,), _ = kinetic_flux(_states(1.0, -0.5), _states(2.0, -0.5))
    assert F_H == pytest.approx(-F_H_rev, rel=1e-13)


# -- hydrostatic reconstruction ---------------------------------------------


def test_reconstruct_flat_bottom_identity():
    (HL,), (HR,) = hydrostatic_reconstruct(*_states(1.2, 0.7, 0.3, 0.3))
    assert (HL, HR) == (1.2, 0.7)


def test_reconstruct_step_up():
    (HL,), (HR,) = hydrostatic_reconstruct(*_states(1.0, 1.0, 0.0, 0.5))
    assert HL == pytest.approx(0.5)
    assert HR == pytest.approx(1.0)


def test_reconstruct_dry_uphill():
    (HL,), (HR,) = hydrostatic_reconstruct(*_states(0.2, 0.0, 0.0, 1.0))
    assert HL == 0.0 and HR == 0.0


# -- CFL --------------------------------------------------------------------


def test_cfl_dt_value():
    mesh = nh.Mesh1D.uniform(0.0, 10.0, 101)
    state = nh.FlowState(np.ones(101), np.zeros(101), np.zeros(101))
    params = nh.PhysicalParams()
    assert nh.cfl_dt(state, mesh, params) == pytest.approx(0.5 * 0.1 / np.sqrt(G), rel=1e-12)


def test_cfl_wave_speed_scaling():
    mesh = nh.Mesh1D.uniform(0.0, 10.0, 101)
    params = nh.PhysicalParams()
    s1 = nh.FlowState(np.ones(101), np.zeros(101), np.zeros(101))
    s4 = nh.FlowState(4.0 * np.ones(101), np.zeros(101), np.zeros(101))
    assert nh.cfl_dt(s4, mesh, params) == pytest.approx(
        0.5 * nh.cfl_dt(s1, mesh, params), rel=1e-13
    )


def test_cfl_dry_domain_raises():
    mesh = nh.Mesh1D.uniform(0.0, 1.0, 11)
    state = nh.FlowState(np.zeros(11), np.zeros(11), np.zeros(11))
    with pytest.raises(nh.DryDomainError):
        nh.cfl_dt(state, mesh, nh.PhysicalParams())
    # dry depths below h_eps, one rounded below 0, and moving
    H = np.array([0.0, -1e-20, 5e-9])
    with pytest.raises(nh.DryDomainError):
        max_wave_speed(H, np.array([0.0, 1.0, -2.0]), H >= 1e-8)


# -- boundary closures ------------------------------------------------------


def test_wall_mirror():
    ghost = apply_hyperbolic_bc(nh.HyperbolicBC("wall"), "in", 1.0, 0.3, 0.0)
    assert ghost == GhostState(1.0, -0.3, 0.0)
    # the side is checked where it is given
    with pytest.raises(ValueError, match="side"):
        apply_hyperbolic_bc(nh.HyperbolicBC("wall"), "left", 1.0, 0.3, 0.0)


def test_free_outflow_copy():
    ghost = apply_hyperbolic_bc(nh.HyperbolicBC("free_outflow"), "out", 2.0, 0.5, 0.25)
    assert ghost == GhostState(2.0, 0.5, 0.25)


def test_wall_ghost_of_a_sub_threshold_node_has_zero_velocity():
    # 0 < H < h_eps with a nonzero discharge: the ghost takes the node's
    # velocity from FlowState.velocities, which is 0 on a dry node, so the
    # ghost and the flux agree on which nodes are dry
    h_eps = 1e-6
    mesh = nh.Mesh1D.uniform(0.0, 1.0, 11)
    H = np.full(11, 0.5)
    H[0] = 5e-7
    Hu = np.zeros(11)
    Hu[0] = 3e-7
    state = nh.FlowState(H, Hu, np.zeros(11))
    u, w, dt, speed = prediction_inputs(state, mesh, h_eps)
    assert u[0] == 0.0
    ghost = apply_hyperbolic_bc(nh.HyperbolicBC("wall"), "in", H[0], u[0], w[0])
    assert ghost == GhostState(5e-7, 0.0, 0.0)
    # predict builds its ghosts the same way: the mirrored dry node carries
    # no discharge, so the left wall passes no mass
    bathy = nh.Bathymetry.flat(mesh)
    walls = nh.BoundarySpec.walls()
    out = nh.predict(state, u, w, mesh, bathy, h_eps, walls.left, walls.right, 0.5 * dt, speed)
    assert np.isclose(nh.total_mass(out, mesh), nh.total_mass(state, mesh), rtol=0.0, atol=1e-15)


def test_imposed_flux_zero_recovers_rest():
    bc = nh.HyperbolicBC("imposed_flux", q0=(0.0, 0.0))
    ghost = apply_hyperbolic_bc(bc, "in", 1.0, 0.0, 0.0)
    assert ghost.H == pytest.approx(1.0, abs=1e-11)
    assert ghost.u == pytest.approx(0.0, abs=1e-11)


def test_imposed_flux_against_bisection_oracle():
    q = 0.35
    bc = nh.HyperbolicBC("imposed_flux", q0=(q, 0.1))
    ghost = apply_hyperbolic_bc(bc, "in", 1.0, 0.2, 0.0)
    # independent bisection of q/H - 2 sqrt(gH) = u1 - 2 sqrt(g H1)
    R = 0.2 - 2.0 * np.sqrt(G)
    lo, hi = 1e-8, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if q / mid - 2.0 * np.sqrt(G * mid) - R > 0.0:
            lo = mid
        else:
            hi = mid
    assert ghost.H == pytest.approx(0.5 * (lo + hi), abs=1e-9)
    assert ghost.u == pytest.approx(q / ghost.H, rel=1e-12)
    assert ghost.w == pytest.approx(0.1 / ghost.H, rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(
    H=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
    froude=st.floats(-1.2, 1.2),
    q01=st.one_of(st.just(0.0), st.floats(-20.0, 20.0)),
    q02=st.floats(-5.0, 5.0),
    side=st.sampled_from(["in", "out"]),
)
# a flux so small that the sonic-depth bracket underflows to 0
@example(H=1.0, froude=0.0, q01=5e-324, q02=0.0, side="out")
@example(H=1.0, froude=0.5, q01=-5e-324, q02=0.0, side="in")
def test_imposed_flux_ghost_matches_numpy_scalar_closure(H, froude, q01, q02, side):
    # the closure on Python floats reproduces the numpy-scalar one bit for
    # bit, and raises in exactly the same cases
    ub = float(froude * np.sqrt(G * H))
    bc = nh.HyperbolicBC("imposed_flux", q0=(q01, q02))
    try:
        ref = imposed_flux_ghost_numpy(H, ub, 0.1, side, q01, q02, G)
    except TorrentialBoundaryError:
        with pytest.raises(TorrentialBoundaryError):
            apply_hyperbolic_bc(bc, side, H, ub, 0.1)
        return
    ghost = apply_hyperbolic_bc(bc, side, H, ub, 0.1)
    assert np.array_equal(float_bits(ghost), float_bits(ref))


_depths = st.one_of(st.just(0.0), st.floats(0.0, 10.0))
_velocities = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-30.0, 30.0))
_half_flux_states = st.integers(1, 40).flatmap(
    lambda n: st.tuples(arrays(float, n, elements=_depths),
                        arrays(float, n, elements=_velocities)))


@settings(max_examples=200, deadline=None)
@given(state=_half_flux_states)
# a dry state at rest (s = 0, u = +-0) lies in both one-sided patches, so
# each side's patch order decides its zero signs
@example(state=(np.array([0.0]), np.array([0.0])))
@example(state=(np.array([0.0]), np.array([-0.0])))
def test_half_fluxes_match_where_formulation(state):
    # one-sided supports (dry nodes, |u| >= sqrt(3 g H / 2)) are patched by
    # masked assignment; values and zero signs equal the np.where patches
    H, u = state
    for sign, ref in ((1, half_flux_plus_where), (-1, half_flux_minus_where)):
        for got, want in zip(_half_flux(H, u, *_equilibrium_support(H), sign),
                             ref(H, u, G)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def _round_trips(H, u):
    """Where a dry state or the discharge round trip (H u) / H gives back u."""
    with np.errstate(invalid="ignore"):
        return (H == 0.0) | ((H * u) / H == u)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_flux_on_velocities_matches_discharge_formulation(data):
    # zero depths of either sign, signed zero velocities and |u| beyond the
    # support sqrt(3 g H / 2); the velocity flux equals the (H, Hu) flux
    # wherever both states' velocities survive the division it removed
    n = data.draw(st.integers(1, 40))
    depths = st.one_of(_depths, st.just(-0.0))
    HL, HR = (data.draw(arrays(float, n, elements=depths)) for _ in range(2))
    uL, uR = (data.draw(arrays(float, n, elements=_velocities)) for _ in range(2))
    got = kinetic_flux((HL, uL), (HR, uR))
    want = kinetic_flux_discharge((HL, HL * uL), (HR, HR * uR), G)
    same = _round_trips(HL, uL) & _round_trips(HR, uR)
    for g_part, w_part in zip(got, want):
        assert np.array_equal(g_part[same], w_part[same])


# with h_eps = 1e-8: wet depths, and dry ones that include a depth rounded below 0
_wet_or_dry_depths = st.one_of(
    st.floats(1e-8, 10.0),
    st.sampled_from([0.0, -0.0, -1e-20]),
    st.floats(0.0, 1e-8, exclude_max=True),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_max_wave_speed_matches_gather_formulation(data):
    h_eps = 1e-8
    n = data.draw(st.integers(1, 40))
    H = data.draw(arrays(float, n, elements=_wet_or_dry_depths))
    u = data.draw(arrays(float, n, elements=_velocities))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ref = max_wave_speed_gather(H, u, G, h_eps)
        except nh.DryDomainError:
            with pytest.raises(nh.DryDomainError):
                max_wave_speed(H, u, H >= h_eps)
            return
        got = max_wave_speed(H, u, H >= h_eps)
    assert np.array_equal(float_bits([got]), float_bits([ref]))


def test_imposed_depth_outflow():
    bc = nh.HyperbolicBC("imposed_depth", h_given=0.9)
    ghost = apply_hyperbolic_bc(bc, "out", 1.0, 0.1, 0.0)
    expect_u = 0.1 + 2.0 * np.sqrt(G) - 2.0 * np.sqrt(G * 0.9)
    assert ghost.H == 0.9
    assert ghost.u == pytest.approx(expect_u, rel=1e-12)


def test_torrential_inflow_rejected():
    bc = nh.HyperbolicBC("imposed_flux", q0=(1.0, 0.0))
    with pytest.raises(TorrentialBoundaryError):
        apply_hyperbolic_bc(bc, "in", 1.0, 12.0, 0.0)


def test_bc_validation():
    with pytest.raises(ValueError):
        nh.HyperbolicBC("imposed_flux")  # missing q0
    with pytest.raises(ValueError):
        nh.HyperbolicBC("imposed_depth")  # missing depth
    with pytest.raises(ValueError):
        nh.HyperbolicBC("slip")
    # boundary data is checked at construction, not on the first step
    for depth in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="h_given"):
            nh.HyperbolicBC("imposed_depth", h_given=depth)
    for q0 in ((float("nan"), 0.0), (0.0, float("nan"))):
        with pytest.raises(ValueError, match="q0"):
            nh.HyperbolicBC("imposed_flux", q0=q0)
    # a kind takes no data it never reads
    for kind in ("wall", "free_outflow"):
        with pytest.raises(ValueError, match="q0"):
            nh.HyperbolicBC(kind, q0=(1.0, 0.0))
        with pytest.raises(ValueError, match="h_given"):
            nh.HyperbolicBC(kind, h_given=0.9)
    with pytest.raises(ValueError, match="q0"):
        nh.HyperbolicBC("imposed_depth", h_given=0.9, q0=(1.0, 0.0))
    with pytest.raises(ValueError, match="h_given"):
        nh.HyperbolicBC("imposed_flux", q0=(1.0, 0.0), h_given=0.9)


def test_bc_side_is_not_a_field():
    # the slot a condition fills is its side; a positional second argument
    # is rejected instead of being bound to the boundary data
    with pytest.raises(TypeError):
        nh.HyperbolicBC("wall", "out")
    with pytest.raises(TypeError):
        nh.HyperbolicBC("imposed_flux", "in", (1.0, 0.0))
    assert not hasattr(nh.HyperbolicBC("wall"), "side")


# -- predict ----------------------------------------------------------------


def _walls():
    return nh.HyperbolicBC("wall"), nh.HyperbolicBC("wall")


def test_predict_lake_at_rest_with_topography():
    mesh = nh.Mesh1D.uniform(0.0, 35.0, 301)
    zb = np.maximum(0.0, 0.15 * (mesh.nodes - 25.0))
    bathy = nh.Bathymetry.from_nodal(mesh, zb)
    H = np.maximum(1.0 - zb, 0.0)
    state = nh.FlowState(H, np.zeros_like(H), np.zeros_like(H))
    bc_in, bc_out = _walls()
    _, _, dt, _ = prediction_inputs(state, mesh, H_EPS)
    out = state
    for _ in range(100):
        u, w, _, speed = prediction_inputs(out, mesh, H_EPS)
        out = nh.predict(out, u, w, mesh, bathy, H_EPS, bc_in, bc_out, dt, speed)
    assert np.abs(out.H - H).max() <= 1e-12
    assert np.abs(out.Hu).max() <= 1e-12


def test_predict_constant_state_unchanged():
    mesh = nh.Mesh1D.uniform(0.0, 5.0, 51)
    bathy = nh.Bathymetry.flat(mesh)
    state = nh.FlowState(np.full(51, 2.0), np.zeros(51), np.zeros(51))
    bc_in, bc_out = _walls()
    u, w, _, speed = prediction_inputs(state, mesh, H_EPS)
    out = nh.predict(state, u, w, mesh, bathy, H_EPS, bc_in, bc_out, 1e-3, speed)
    assert np.array_equal(out.H, state.H)
    assert np.abs(out.Hu).max() == 0.0


def test_predict_against_rusanov_oracle():
    # one step of a smoothed dam break on 20 nodes: total mass updates agree
    # (both schemes are conservative) and the cellwise updates are close
    mesh = nh.Mesh1D.uniform(0.0, 20.0, 20)
    bathy = nh.Bathymetry.flat(mesh)
    H = nh.dam_break_init(mesh.nodes, 1.8, 1.0, 10.0, 0.5)
    state = nh.FlowState(H, np.zeros_like(H), np.zeros_like(H))
    u, w, dt, speed = prediction_inputs(state, mesh, H_EPS)
    bc_in, bc_out = _walls()
    out = nh.predict(state, u, w, mesh, bathy, H_EPS, bc_in, bc_out, dt, speed)
    H_r, Hu_r, _ = rusanov_step(state.H, state.Hu, state.Hw, mesh, G, dt)
    m_kin = np.sum(mesh.dual_widths * out.H)
    m_rus = np.sum(mesh.dual_widths * H_r)
    assert abs(m_kin - m_rus) <= 1e-2
    assert np.abs(out.H - H_r).max() <= 0.2  # qualitative flux consistency
    assert np.abs(out.Hu - Hu_r).max() <= 0.5


def test_predict_positivity_random_states():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(8, 40))
        x = np.cumsum(0.05 + rng.random(n))
        mesh = nh.Mesh1D(x)
        zb = 0.5 * rng.standard_normal(n)
        bathy = nh.Bathymetry.from_nodal(mesh, zb)
        H = np.where(rng.random(n) < 0.2, 0.0, 2.0 * rng.random(n))
        if not np.any(H >= H_EPS):
            H[0] = 1.0
        u = np.where(H > 0, 2.0 * rng.standard_normal(n), 0.0)
        w = np.where(H > 0, rng.standard_normal(n), 0.0)
        state = nh.FlowState(H, H * u, H * w)
        u, w, dt, speed = prediction_inputs(state, mesh, H_EPS)
        out = nh.predict(state, u, w, mesh, bathy, H_EPS, *_walls(), dt, speed)
        assert out.H.min() >= 0.0


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_predict_positivity_property(data):
    # one step at cfl_dt, the fixed CFL number, from a random wet/dry state
    # on an uneven mesh, a flat or random bottom and walled, open or mixed
    # ends: it never raises and never gives a negative depth
    n = data.draw(st.integers(3, 40))
    widths = data.draw(arrays(float, n - 1, elements=st.floats(0.05, 1.05)))
    mesh = nh.Mesh1D(np.concatenate(([0.0], np.cumsum(widths))))
    if data.draw(st.booleans()):
        bathy = nh.Bathymetry.flat(mesh)
    else:
        bathy = nh.Bathymetry(data.draw(arrays(float, n, elements=st.floats(-1.0, 1.0))))
    H = data.draw(arrays(float, n, elements=st.one_of(st.just(0.0), st.floats(0.0, 2.0))))
    assume(np.any(H >= H_EPS))
    u = data.draw(arrays(float, n, elements=st.floats(-8.0, 8.0)))
    w = data.draw(arrays(float, n, elements=st.floats(-4.0, 4.0)))
    state = nh.FlowState(H, H * u, H * w)
    kinds = st.sampled_from(["wall", "free_outflow"])
    bc_in, bc_out = (nh.HyperbolicBC(data.draw(kinds)) for _ in range(2))
    u, w, dt, speed = prediction_inputs(state, mesh, H_EPS)
    out = nh.predict(state, u, w, mesh, bathy, H_EPS, bc_in, bc_out, dt, speed)
    assert out.H.min() >= 0.0


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_heun_steps_stay_admissible_and_positive(data):
    # three Heun steps from a projected random walled wet/dry state on an
    # uneven mesh and a flat or random bottom: no CFLViolationError (a stage
    # state too fast for the step's dt restarts it at the stage's CFL step)
    # and no negative depth, in the stage states either; the second stage
    # starts from exactly the depth the first stage's prediction returned
    params = nh.PhysicalParams()
    n = data.draw(st.integers(8, 59))
    widths = data.draw(arrays(float, n - 1, elements=st.floats(0.05, 1.05)))
    mesh = nh.Mesh1D(np.concatenate(([0.0], np.cumsum(widths))))
    if data.draw(st.booleans()):
        bathy = nh.Bathymetry.flat(mesh)
    else:
        bathy = nh.Bathymetry(data.draw(arrays(float, n, elements=st.floats(-1.0, 1.0))))
    H = data.draw(arrays(float, n, elements=st.one_of(st.just(0.0), st.floats(0.0, 2.0))))
    # enough water that the walled basin cannot dry out entirely
    assume(H.max() >= 0.1)
    u = data.draw(arrays(float, n, elements=st.floats(-4.0, 4.0)))
    w = data.draw(arrays(float, n, elements=st.floats(-2.0, 2.0)))
    bounds = nh.BoundarySpec.walls()
    state = project_state(nh.FlowState(H, H * u, H * w), mesh, bathy, params, bounds)
    calls = []  # (input depth, output depth) of each prediction of a step
    predict = timeloop.predict

    def recording(state, *args, **kwargs):
        pred = predict(state, *args, **kwargs)
        calls.append((state.H.copy(), pred.H.copy()))
        return pred

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(timeloop, "predict", recording)
        for _ in range(3):
            calls.clear()
            state = nh.step_heun(state, mesh, bathy, params, bounds).state
            assert state.H.min() >= 0.0
            assert min(H_in.min() for H_in, _ in calls) >= 0.0
            # a retry restarts stage 1, so only the last pair is a stage chain
            (_, first_out), (second_in, _) = calls[-2:]
            assert np.array_equal(second_in, first_out)


_zero_bottom_depths = st.one_of(
    st.floats(0.0, 3.0),
    st.sampled_from([0.0, -0.0, -1e-20, -5e-324]),  # dry, signed and tiny negative
)
_BC_DATA = {
    "wall": st.just({}),
    "free_outflow": st.just({}),
    "imposed_depth": st.fixed_dictionaries({"h_given": st.floats(0.05, 3.0)}),
    "imposed_flux": st.fixed_dictionaries(
        {"q0": st.tuples(st.floats(-2.0, 2.0), st.floats(-1.0, 1.0))}),
}


def _any_bc(data):
    kind = data.draw(st.sampled_from(sorted(_BC_DATA)))
    return nh.HyperbolicBC(kind, **data.draw(_BC_DATA[kind]))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_zero_bottom_predict_matches_reconstructed_oracle(data):
    # the per-node flux on a zero bottom gives the bits of the reconstructed
    # path: dry and signed-zero depths, tiny negative (stage) depths, flows
    # supersonic either way, every boundary kind
    n = data.draw(st.integers(2, 30))
    widths = data.draw(arrays(float, n - 1, elements=st.floats(0.05, 1.05)))
    mesh = nh.Mesh1D(np.concatenate(([0.0], np.cumsum(widths))))
    bathy = nh.Bathymetry.flat(mesh)
    H = data.draw(arrays(float, n, elements=_zero_bottom_depths))
    assume(np.any(H >= H_EPS))
    u = data.draw(arrays(float, n, elements=st.one_of(
        st.floats(-30.0, 30.0), st.sampled_from([0.0, -0.0]))))
    w = data.draw(arrays(float, n, elements=st.floats(-4.0, 4.0)))
    state = nh.FlowState(H, H * u, H * w)
    u, w, dt, speed = prediction_inputs(state, mesh, H_EPS)
    bc_in, bc_out = _any_bc(data), _any_bc(data)
    dt *= data.draw(st.floats(0.1, 1.0))
    args = (state, u, w, mesh, bathy, H_EPS, bc_in, bc_out, dt, speed)
    try:
        want = predict_reconstructed(*args)
    except (TorrentialBoundaryError, RuntimeError) as err:
        with pytest.raises(type(err)):
            nh.predict(*args)
        return
    got = nh.predict(*args)
    for name in ("H", "Hu", "Hw"):
        assert np.array_equal(float_bits(getattr(got, name)),
                              float_bits(getattr(want, name)))
    assert got.t == want.t


def test_flat_bottom_at_nonzero_height_is_reconstructed(monkeypatch):
    # H + z - z need not be H, so only a bottom that is zero everywhere takes
    # the per-node path
    mesh = nh.Mesh1D.uniform(0.0, 1.0, 11)
    state = nh.FlowState(np.linspace(0.5, 1.0, 11), np.zeros(11), np.zeros(11))
    u, w, dt, speed = prediction_inputs(state, mesh, H_EPS)
    calls = []
    reconstruct = hyperbolic.hydrostatic_reconstruct
    monkeypatch.setattr(hyperbolic, "hydrostatic_reconstruct",
                        lambda *a: calls.append(1) or reconstruct(*a))
    for zb, expected in ((0.0, 0), (-0.0, 0), (0.3, 1)):
        bathy = nh.Bathymetry(np.full(11, zb))
        nh.predict(state, u, w, mesh, bathy, H_EPS, *_walls(), dt, speed)
        assert len(calls) == expected
        calls.clear()


def test_predict_conservation_with_walls():
    sc = nh.make_solitary(401)
    state = sc.state0
    m0 = nh.total_mass(state, sc.mesh)
    bc_in, bc_out = _walls()
    for _ in range(50):
        u, w, dt, speed = prediction_inputs(state, sc.mesh, H_EPS)
        state = nh.predict(state, u, w, sc.mesh, sc.bathy, H_EPS, bc_in, bc_out, dt, speed)
    assert abs(nh.total_mass(state, sc.mesh) - m0) <= 1e-12 * m0


def test_predict_rejects_a_dt_that_is_not_finite_and_positive():
    # a negative dt stepped backward in time and a zero dt returned the
    # input; a NaN was reported as a CFL violation.  Each is a ValueError
    # before the CFL guard, and a stepper's dt raises it before any work
    sc = nh.make_dam_break(101)
    params = nh.PhysicalParams()
    u, w, _, speed = prediction_inputs(sc.state0, sc.mesh, params.h_eps)
    bcs = sc.bounds.hyperbolic_at(0.0)
    for dt in (-0.05, 0.0, -0.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            nh.predict(sc.state0, u, w, sc.mesh, sc.bathy, params.h_eps, *bcs, dt, speed)
    for stepper in (nh.step_euler, nh.step_heun):
        for dt in (-0.05, np.nan):
            with pytest.raises(ValueError, match="dt must be finite and positive"):
                stepper(sc.state0, sc.mesh, sc.bathy, params, sc.bounds, dt=dt)


def test_predict_cfl_assertion():
    mesh = nh.Mesh1D.uniform(0.0, 1.0, 11)
    bathy = nh.Bathymetry.flat(mesh)
    state = nh.FlowState(np.ones(11), np.zeros(11), np.zeros(11))
    u, w, _, speed = prediction_inputs(state, mesh, H_EPS)
    with pytest.raises(nh.CFLViolationError):
        nh.predict(state, u, w, mesh, bathy, H_EPS, *_walls(), dt=1.0, speed=speed)
