import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import nhswe as nh
from nhswe import core, hyperbolic, projection, timeloop
from nhswe.hyperbolic import prediction_inputs

from oracles import (
    depth_derivative_by_differencing,
    float_bits,
    free_velocity_mask,
    masked_increments,
    masked_inverse_mass,
    masked_velocities,
    max_wave_speed_gather,
)

# the default dry threshold
H_EPS = nh.PhysicalParams().h_eps


def _lake(n=41, L=10.0):
    mesh = nh.Mesh1D.uniform(0.0, L, n)
    bathy = nh.Bathymetry.flat(mesh)
    state = nh.FlowState(np.ones(n), np.zeros(n), np.zeros(n))
    return mesh, bathy, state


def test_euler_lake_at_rest_fixed_point():
    mesh, bathy, state = _lake()
    params = nh.PhysicalParams()
    cur = state
    for _ in range(25):
        res = nh.step_euler(cur, mesh, bathy, params, nh.BoundarySpec.walls())
        cur = res.state
    assert np.abs(cur.H - state.H).max() <= 1e-12
    assert np.abs(cur.Hu).max() <= 1e-12
    assert np.abs(cur.Hw).max() <= 1e-12


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_lake_at_rest_on_random_wet_dry_bathymetry(data):
    # a flat free surface over a random bottom, dry where the bottom rises
    # above it, on an uneven mesh with walled or open ends: three Euler and
    # three Heun steps, both pairs, keep the depth and leave no velocity
    params = nh.PhysicalParams()
    tag = data.draw(st.sampled_from(["P1P0", "P1isoP2P1"]))
    n = data.draw(st.integers(7, 61))
    if tag == "P1isoP2P1":
        n |= 1
    widths = data.draw(arrays(float, n - 1, elements=st.floats(0.05, 1.05)))
    mesh = nh.Mesh1D(np.concatenate(([0.0], np.cumsum(widths))))
    zb = data.draw(arrays(float, n, elements=st.floats(-1.0, 1.0)))
    eta = data.draw(st.floats(-0.5, 0.5))
    H = np.maximum(eta - zb, 0.0)
    assume(np.any(H >= params.h_eps))
    kinds = st.sampled_from(["wall", "free_outflow"])
    bounds = nh.BoundarySpec(*(nh.HyperbolicBC(data.draw(kinds)) for _ in range(2)))
    bathy, pair = nh.Bathymetry(zb), nh.ElementPair(tag, n)
    state0 = nh.FlowState(H, np.zeros(n), np.zeros(n))
    for stepper in (nh.step_euler, nh.step_heun):
        state, last = state0, None
        for _ in range(3):
            kwargs = {"_last": last} if stepper is nh.step_heun else {}
            last = stepper(state, mesh, bathy, params, bounds, pair, **kwargs)
            state = last.state
            assert np.abs(state.H - H).max() <= 1e-12
            assert np.abs(state.Hu).max() <= 1e-12
            assert np.abs(state.Hw).max() <= 1e-12


def test_heun_lake_at_rest_fixed_point():
    mesh, bathy, state = _lake()
    params = nh.PhysicalParams()
    res = nh.step_heun(state, mesh, bathy, params, nh.BoundarySpec.walls())
    assert np.abs(res.state.H - state.H).max() <= 1e-12
    assert np.abs(res.state.Hu).max() <= 1e-12


def test_euler_kills_vertical_velocity_perturbation():
    mesh, bathy, state = _lake()
    params = nh.PhysicalParams()
    state = nh.FlowState(state.H, state.Hu, 0.3 * state.H)
    res = nh.step_euler(state, mesh, bathy, params, nh.BoundarySpec.walls())
    assert res.report.div_residual <= res.report.div_bound


def test_step_report_fields():
    mesh, bathy, state = _lake()
    params = nh.PhysicalParams()
    res = nh.step_euler(state, mesh, bathy, params, nh.BoundarySpec.walls())
    r = res.report
    assert r.dt > 0 and r.t == pytest.approx(r.dt)
    assert r.mass == pytest.approx(10.0, rel=1e-13)
    assert np.isfinite(nh.total_energy(res.state, mesh, bathy, params.h_eps))
    assert r.div_residual <= r.div_bound


def test_heun_euler_second_order_agreement():
    # one step from the same well-prepared smooth state: |heun - euler| is
    # O(dt^2), so the difference must shrink by >= 3.5 per dt halving
    sc = nh.make_solitary(401)
    params = nh.PhysicalParams()
    from nhswe.timeloop import project_state

    state = project_state(sc.state0, sc.mesh, sc.bathy, params, sc.bounds)
    dt0 = nh.cfl_dt(state, sc.mesh, params)
    diffs = []
    for k in range(5):
        dt = dt0 / 2**k
        e = nh.step_euler(state, sc.mesh, sc.bathy, params, sc.bounds, dt=dt)
        h = nh.step_heun(state, sc.mesh, sc.bathy, params, sc.bounds, dt=dt)
        d = (
            np.linalg.norm(e.state.Hu - h.state.Hu)
            + np.linalg.norm(e.state.Hw - h.state.Hw)
            + np.linalg.norm(e.state.H - h.state.H)
        )
        diffs.append(d)
    for k in range(4):
        assert diffs[k] / diffs[k + 1] >= 3.5


def test_run_t_end_zero_returns_initial_state():
    sc = nh.make_solitary(101)
    out = nh.run(sc, nh.PhysicalParams(), t_end=0.0)
    assert len(out.snapshots) == 1
    assert out.snapshots[0].t == 0.0
    assert np.array_equal(out.snapshots[0].state.H, sc.state0.H)


def test_a_rerun_records_the_gauges_of_a_fresh_scenario():
    # every run starts its scenario's gauge records afresh; the records of
    # the run before are replaced, not emptied
    params = nh.PhysicalParams()
    sc = nh.make_dingemans(n_nodes=201)
    nh.run(sc, params, t_end=0.25, output_times=(0.15,))
    first = sc.gauges.records
    nh.run(sc, params, t_end=0.3, output_times=(0.1, 0.2))
    fresh = nh.make_dingemans(n_nodes=201)
    nh.run(fresh, params, t_end=0.3, output_times=(0.1, 0.2))
    for got, want, old in zip(sc.gauges.records, fresh.gauges.records, first, strict=True):
        assert got.times == want.times == [0.1, 0.2, 0.3]
        assert np.array_equal(float_bits(got.eta), float_bits(want.eta))
        assert old.times == [0.15, 0.25] and len(old.eta) == 2


def test_run_lands_exactly_on_output_times():
    sc = nh.make_solitary(101)
    times = (0.05, 0.11, 0.2)
    out = nh.run(sc, nh.PhysicalParams(), t_end=0.25, output_times=times)
    got = [s.t for s in out.snapshots]
    assert got == [0.05, 0.11, 0.2, 0.25]


def test_run_rejects_params_that_drop_the_scenario_h_eps():
    sc = nh.make_beach(n_nodes=301)
    assert sc.h_eps != nh.PhysicalParams().h_eps
    with pytest.raises(ValueError, match="h_eps"):
        nh.run(sc, nh.PhysicalParams(), t_end=0.05)
    out = nh.run(sc, nh.PhysicalParams(h_eps=sc.h_eps), t_end=0.05)
    assert out.final.t == 0.05


def test_run_rejects_a_non_finite_end_or_output_time():
    # no run can land on a NaN or infinite time, so none is silently taken
    # as a run of no step or dropped from the output times
    sc = nh.make_solitary(101)
    for t_end in (np.nan, np.inf):
        with pytest.raises(ValueError, match="t_end"):
            nh.run(sc, nh.PhysicalParams(), t_end=t_end)
    for times in ((0.05, np.nan), (np.inf,), (-np.inf, 0.1)):
        with pytest.raises(ValueError, match="output times"):
            nh.run(sc, nh.PhysicalParams(), t_end=0.1, output_times=times)


def test_run_rejects_a_negative_initial_depth_or_an_output_time_outside_the_run():
    # a negative initial depth was reported as one the prediction made, and
    # output times outside [0, t_end] were dropped without a word
    sc = nh.make_solitary(101)
    for times in ((-1.0, 0.2, 7.0), (0.2, 0.5000001), (-1e-300,)):
        with pytest.raises(ValueError, match="output times must lie in"):
            nh.run(sc, nh.PhysicalParams(), t_end=0.5, output_times=times)
    out = nh.run(sc, nh.PhysicalParams(), t_end=0.1, output_times=(0.0, 0.05, 0.1))
    assert [s.t for s in out.snapshots] == [0.0, 0.05, 0.1]
    assert np.array_equal(out.snapshots[0].state.H, sc.state0.H)
    H = sc.state0.H.copy()
    H[7] = -1e-3
    sc.state0 = nh.FlowState(H, sc.state0.Hu, sc.state0.Hw)
    with pytest.raises(ValueError, match="initial depth must be non-negative"):
        nh.run(sc, nh.PhysicalParams(), t_end=0.1)


def test_run_never_rewinds_the_clock():
    # a run marches from its initial state's time t0: an end or an output
    # time before t0 once gave a snapshot of the initial state relabelled
    sc = nh.make_solitary(101)
    sc.state0.t = 1.0
    params = nh.PhysicalParams()
    for t_end, times in ((0.5, (0.2,)), (0.5, ()), (1.2, (0.2,)), (1.2, (1.1, 0.999))):
        with pytest.raises(ValueError, match="t0 = 1.0"):
            nh.run(sc, params, t_end=t_end, output_times=times)
    out = nh.run(sc, params, t_end=1.2, output_times=(1.0, 1.1))
    assert [s.t for s in out.snapshots] == [1.0, 1.1, 1.2]
    assert np.array_equal(out.snapshots[0].state.H, sc.state0.H)
    assert out.reports and all(r.t > 1.0 for r in out.reports)


def test_a_still_basin_stays_still_with_zero_pressure():
    # at rest on a flat bottom every load is the rhs -(1/dt) 0: the
    # triangular solves give a pressure that is 0 in value, and every step
    # keeps the depth and the +0.0 discharges bit for bit
    mesh, bathy, state = _lake(41)
    sc = nh.Scenario(mesh, bathy, state, nh.BoundarySpec.walls())
    for tag in ("P1P0", "P1isoP2P1"):
        for integrator in ("euler", "heun"):
            out = nh.run(sc, nh.PhysicalParams(), t_end=0.3, output_times=(0.1, 0.2),
                         pair=nh.ElementPair(tag, 41), integrator=integrator)
            assert len(out.reports) > 3
            for snap in out.snapshots:
                assert np.array_equal(float_bits(snap.state.H), float_bits(state.H))
                for discharge in (snap.state.Hu, snap.state.Hw):
                    assert np.array_equal(float_bits(discharge), float_bits(np.zeros(41)))
                assert np.all(snap.p_nodes == 0.0)


def test_run_rejects_unknown_integrator():
    sc = nh.make_solitary(51)
    with pytest.raises(ValueError):
        nh.run(sc, nh.PhysicalParams(), t_end=0.1, integrator="rk4")


def test_energy_never_grows_on_closed_domain():
    sc = nh.make_solitary(301)
    params = nh.PhysicalParams()
    energies = []
    out = nh.run(
        sc, params, t_end=0.5,
        on_step=lambda step: energies.append(
            nh.total_energy(step.state, sc.mesh, sc.bathy, params.h_eps)
        ),
    )
    assert len(energies) == len(out.reports)
    for e_prev, e_next in zip(energies, energies[1:]):
        assert e_next <= e_prev * (1.0 + 1e-10)


def test_energy_dissipation_decreases_under_refinement():
    params = nh.PhysicalParams()
    drifts = []
    for n in (151, 301):
        sc = nh.make_solitary(n)
        e0 = nh.total_energy(sc.state0, sc.mesh, sc.bathy, params.h_eps)
        out = nh.run(sc, params, t_end=1.0)
        e1 = nh.total_energy(out.final, sc.mesh, sc.bathy, params.h_eps)
        drifts.append(abs(e1 - e0) / e0)
    assert drifts[1] < drifts[0]
    assert drifts[0] < 0.05


def test_non_finite_abort():
    mesh, bathy, state = _lake(21)
    bad = nh.FlowState(state.H, state.Hu, state.Hw)
    bad.Hu[3] = np.nan

    class Sc:
        pass

    sc = Sc()
    sc.mesh, sc.bathy, sc.state0, sc.bounds, sc.gauges, sc.h_eps = (
        mesh,
        bathy,
        bad,
        nh.BoundarySpec.walls(),
        None,
        nh.PhysicalParams().h_eps,
    )
    with pytest.raises(RuntimeError):
        nh.run(sc, nh.PhysicalParams(), t_end=0.5)


@pytest.mark.parametrize("field", ["Hu", "Hw"])
def test_in_loop_guard_checks_each_discharge(field, monkeypatch):
    # the NaN is written after the projection, so nothing spreads it into
    # another field before the guard reads the step's state
    project = timeloop._project
    calls = []

    def poisoned(*args):
        result = project(*args)
        calls.append(result.state.t)
        if len(calls) == 2:
            getattr(result.state, field)[5] = np.nan
        return result

    monkeypatch.setattr(timeloop, "_project", poisoned)
    with pytest.raises(RuntimeError, match="non-finite field values at t") as err:
        nh.run(nh.make_solitary(101), nh.PhysicalParams(), t_end=0.5)
    # raised at the poisoned step, before a third projection
    assert len(calls) == 2
    assert f"t = {calls[1]:.6g};" in str(err.value)


@pytest.mark.parametrize("field", ["H", "Hu", "Hw"])
def test_on_step_cannot_write_the_step_state(field):
    # the next Heun step may reuse the Schur band built on the reported
    # depth, which a write into the state would leave stale
    sc = nh.make_beach(n_nodes=301)

    def scale(step):
        getattr(step.state, field)[...] *= 1.01

    with pytest.raises(ValueError, match="read-only"):
        nh.run(sc, nh.PhysicalParams(h_eps=sc.h_eps), t_end=0.05, integrator="heun",
               on_step=scale)


def test_divergence_bound_enforced_every_step():
    sc = nh.make_solitary(201)
    params = nh.PhysicalParams()
    out = nh.run(sc, params, t_end=0.3)
    for r in out.reports:
        assert r.div_residual <= r.div_bound


def test_heun_shares_dt_across_substeps():
    sc = nh.make_solitary(201)
    params = nh.PhysicalParams()
    res = nh.step_heun(sc.state0, sc.mesh, sc.bathy, params, sc.bounds)
    assert res.state.t == pytest.approx(res.report.dt)


# -- divergence bound ---------------------------------------------------------


@pytest.mark.parametrize("stepper", [nh.step_euler, nh.step_heun])
def test_divergence_bound_violation_raises(stepper, monkeypatch):
    mesh, bathy, state = _lake()
    state = nh.FlowState(state.H, state.Hu, 0.3 * state.H)

    def no_pressure(sys, rhs):
        return nh.PressureField(np.zeros(sys.ops.n_pressure))

    monkeypatch.setattr(timeloop, "solve_pressure", no_pressure)
    with pytest.raises(nh.DivergenceBoundError):
        stepper(state, mesh, bathy, nh.PhysicalParams(), nh.BoundarySpec.walls())


# one Euler step of the solitary wave at N = 100,001, whose StepReport is
# printed as the hex of its five float64 fields
_SOLITARY_STEP_REPORT = """
import struct
from dataclasses import astuple
import nhswe as nh
sc = nh.make_solitary(n_nodes=100001)
step = nh.step_euler(sc.state0, sc.mesh, sc.bathy, nh.PhysicalParams(h_eps=sc.h_eps), sc.bounds)
print(struct.pack("<5d", *astuple(step.report)).hex())
"""


def test_step_reports_do_not_depend_on_the_blas_thread_count():
    # the reported residuals are sums over 100,000 rows: a BLAS dot product
    # splits them among its threads, which changes their bits with the count
    src = str(Path(nh.__file__).resolve().parents[1])
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", _SOLITARY_STEP_REPORT], env=env,
                             capture_output=True, text=True, check=True)
        reports.append(out.stdout)
    assert len(reports[0]) == 81 and reports[0] == reports[1]


def test_near_dry_step_is_held_to_the_round_off_of_its_solve():
    # depths at h_eps give lumped masses near 1e-8 and a Schur matrix of
    # condition about 1e8: the first Heun step's final solve misses
    # TOL |rhs| by round-off, 1.02e-9 against 7.08e-10, and is held to
    # solve_round_off, 1.01e-7 (1.4e-8 of the uncorrected residual)
    params = nh.PhysicalParams()
    mesh = nh.Mesh1D(np.arange(8.0))
    bathy = nh.Bathymetry.flat(mesh)
    H = np.array([1.0, 1e-8, 1e-8, 1e-8, 2.0, 1e-8, 1e-8, 1e-8])
    bounds = nh.BoundarySpec.walls()
    state = timeloop.project_state(nh.FlowState(H, 0.0 * H, 0.0 * H), mesh, bathy, params,
                                   bounds)
    report = nh.step_heun(state, mesh, bathy, params, bounds).report
    assert report.div_residual <= report.div_bound < 1e-6


# -- work per step ------------------------------------------------------------

# Calls per step: one assembly, one Schur system and one BC plan per
# projection (Euler: the correction; Heun: two stage rates and the final
# correction).  Velocities: once per distinct state, counted on
# FlowState.velocities itself so that no helper can recompute them unseen
# (Euler: the initial and the predicted state; Heun: the initial, the stage
# and the averaged state).  The wave speed: once per state a prediction
# starts from (Euler: the initial state; Heun: the initial and the stage
# state), shared by its CFL step and predict's guard.  Divergences: the rhs
# of each Schur system and the corrected residual.  The beach's bottom is
# reconstructed at each interface; the solitary wave's is zero, so its
# prediction takes the per-node flux and neither reconstructs nor calls
# kinetic_flux.  predict calls kinetic_flux and hydrostatic_reconstruct
# once per block of core._BLOCK nodes, which is once on these meshes, below
# _BLOCK nodes; the projection's kernels loop over their blocks inside one
# call each.  Each projection and each stage solves its Schur system once
# and corrects once.  The energy is telemetry, computed by no step.
WORK_PER_STEP = {
    "euler": {"assemble": 1, "build_schur": 1, "resolve_projection_bcs": 1,
              "solve_pressure": 1, "correct_velocity": 1,
              "velocities": 2, "apply_divergence": 2,
              "predict": 1, "kinetic_flux": 1, "max_wave_speed": 1,
              "hydrostatic_reconstruct": 1, "total_energy": 0},
    "heun": {"assemble": 3, "build_schur": 3, "resolve_projection_bcs": 3,
             "solve_pressure": 3, "correct_velocity": 3,
             "velocities": 3, "apply_divergence": 4,
             "predict": 2, "kinetic_flux": 2, "max_wave_speed": 2,
             "hydrostatic_reconstruct": 2, "total_energy": 0},
    "euler_zero_bottom": {"assemble": 1, "build_schur": 1, "resolve_projection_bcs": 1,
                          "solve_pressure": 1, "correct_velocity": 1,
                          "velocities": 2, "apply_divergence": 2,
                          "predict": 1, "kinetic_flux": 0, "max_wave_speed": 1,
                          "hydrostatic_reconstruct": 0, "total_energy": 0},
}


def _count_calls(monkeypatch, targets):
    """Wrap each (owner, name) so that its calls are counted; returns the
    counts by name."""
    calls = {}
    for owner, name in targets:
        calls[name] = 0

        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def _run_steps(row, steps):
    """The states of `steps` steps of the workload row on a fresh scenario."""
    sc = nh.make_solitary(301) if row.endswith("zero_bottom") else nh.make_beach(n_nodes=300)
    stepper = nh.step_heun if row == "heun" else nh.step_euler
    params = nh.PhysicalParams(h_eps=sc.h_eps)
    states = [sc.state0]
    for _ in range(steps):
        states.append(stepper(states[-1], sc.mesh, sc.bathy, params, sc.bounds).state)
    return states[1:]


@pytest.mark.parametrize("row", sorted(WORK_PER_STEP))
def test_work_per_step(row, monkeypatch):
    # also at blocks of 64 nodes (five predict blocks, five row blocks):
    # only predict's per-block flux calls multiply, and the states keep
    # the one-block bits
    steps = 3
    want = _run_steps(row, steps)
    for block, blocks in ((None, 1), (64, 5)):
        with monkeypatch.context() as m:
            if block is not None:
                m.setattr(core, "_BLOCK", block)
            calls = _count_calls(m, [
                (timeloop, "assemble"), (timeloop, "build_schur"),
                (projection, "resolve_projection_bcs"), (timeloop, "solve_pressure"),
                (timeloop, "correct_velocity"), (nh.FlowState, "velocities"),
                (nh.OperatorSet, "apply_divergence"), (timeloop, "predict"),
                (hyperbolic, "kinetic_flux"), (hyperbolic, "max_wave_speed"),
                (hyperbolic, "hydrostatic_reconstruct"), (timeloop, "total_energy"),
            ])
            got = _run_steps(row, steps)
        per_block = ("kinetic_flux", "hydrostatic_reconstruct")
        assert {k: v / steps for k, v in calls.items()} == {
            k: v * blocks if k in per_block else v for k, v in WORK_PER_STEP[row].items()
        }
        for a, b in zip(got, want):
            for x, y in zip((a.H, a.Hu, a.Hw), (b.H, b.Hu, b.Hw)):
                assert np.array_equal(float_bits(x), float_bits(y))


def test_run_reuses_the_last_projection_in_heun_stage_one(monkeypatch):
    # after the first step, each Heun step's first stage takes the previous
    # final projection's assembly and factor: 3 -> 2 assemblies, Schur
    # builds and factorizations; every projection solves once
    calls = _count_calls(monkeypatch, [
        (timeloop, "assemble"), (timeloop, "build_schur"),
        (projection, "dpttrf"), (projection, "dpttrs"),
    ])
    per_step = []
    sc = nh.make_beach(n_nodes=300)
    out = nh.run(sc, nh.PhysicalParams(h_eps=sc.h_eps), t_end=0.1, integrator="heun",
                 on_step=lambda step: per_step.append(dict(calls)))
    assert len(out.reports) >= 4
    assert per_step[0] == {"assemble": 3, "build_schur": 3, "dpttrf": 3, "dpttrs": 3}
    for before, after in zip(per_step, per_step[1:]):
        assert {k: after[k] - before[k] for k in calls} == {
            "assemble": 2, "build_schur": 2, "dpttrf": 2, "dpttrs": 3}


def _bits_of(step):
    """The IEEE bits of a step's fields, pressure and report."""
    r = step.report
    return [float_bits(a) for a in (step.state.H, step.state.Hu, step.state.Hw,
                                    step.pressure.values,
                                    [r.t, r.dt, r.div_residual, r.div_bound, r.mass])]


@pytest.mark.parametrize("tag", ["P1P0", "P1isoP2P1"])
def test_heun_stage_one_reuse_equals_a_fresh_build(tag, monkeypatch):
    # the reused band and factor give the bits of a fresh assembly, Schur
    # build and factorization
    sc = nh.make_beach(n_nodes=301)
    params = nh.PhysicalParams(h_eps=sc.h_eps)
    pair = nh.ElementPair(tag, sc.mesh.n_nodes)
    prev = None
    for _ in range(4):
        state = sc.state0 if prev is None else prev.state
        prev = nh.step_heun(state, sc.mesh, sc.bathy, params, sc.bounds, pair, _last=prev)
    assert prev.schur.factor is not None
    builds = _count_calls(monkeypatch, [(timeloop, "build_schur")])

    def step(state, bounds=sc.bounds, last=None):
        builds["build_schur"] = 0
        res = nh.step_heun(state, sc.mesh, sc.bathy, params, bounds, pair, _last=last)
        return res, builds["build_schur"]

    fresh, fresh_builds = step(prev.state)
    assert fresh_builds == 3
    # equal contents suffice: the depth need not be the same array
    for state in (prev.state, nh.FlowState(prev.state.H.copy(), prev.state.Hu,
                                           prev.state.Hw, prev.state.t)):
        reused, reused_builds = step(state, last=prev)
        assert reused_builds == 2
        for got, want in zip(_bits_of(reused), _bits_of(fresh)):
            assert np.array_equal(got, want)

    # a depth one ulp away, or another closure kind, is built afresh
    H = prev.state.H.copy()
    H[5] = np.nextafter(H[5], 2.0)
    nudged = nh.FlowState(H, prev.state.Hu, prev.state.Hw, prev.state.t)
    walls = nh.BoundarySpec(nh.HyperbolicBC("wall"), sc.bounds.right)
    for state, bounds in ((nudged, sc.bounds), (prev.state, walls)):
        refused, refused_builds = step(state, bounds, last=prev)
        assert refused_builds == 3
        for got, want in zip(_bits_of(refused), _bits_of(step(state, bounds)[0])):
            assert np.array_equal(got, want)


def test_a_refused_heun_try_reuses_the_first_stage_system(monkeypatch):
    # a retry restarts stage 1 from the same depth and closure, so it
    # corrects on the same Schur system: three assemblies and Schur builds
    # (stage 1, stage 2 and the final projection), not one more per try
    sc = nh.make_beach(n_nodes=300)
    refused = []
    admits = timeloop.cfl_admits

    def refuse_once(dt, speed, mesh):
        if not refused:
            refused.append(dt)
            return False
        return admits(dt, speed, mesh)

    monkeypatch.setattr(timeloop, "cfl_admits", refuse_once)
    calls = _count_calls(monkeypatch, [
        (timeloop, "assemble"), (timeloop, "build_schur"), (timeloop, "predict"),
    ])
    nh.step_heun(sc.state0, sc.mesh, sc.bathy, nh.PhysicalParams(h_eps=sc.h_eps), sc.bounds)
    assert refused
    assert calls == {"assemble": 3, "build_schur": 3, "predict": 3}


# A step's peak temporary memory, B/node above what was live before it (its
# input state and the last result), traced by tracemalloc over the steps
# after a first one, at N = 20,001.  Each bound holds the current level
# with 2-4 B/node to spare, so one more float64 array alive at the peak
# (8 B/node) fails it: a step lets each N-size array go once it has read it.
STEP_TEMP_BYTES_PER_NODE = {
    ("solitary", "P1P0", "euler"): 135.0,
    ("solitary", "P1isoP2P1", "euler"): 125.0,
    ("beach", "P1P0", "heun"): 222.0,
}


@pytest.mark.parametrize("row", sorted(STEP_TEMP_BYTES_PER_NODE), ids="-".join)
def test_a_step_holds_its_temporaries_to_the_bound(row):
    name, tag, integrator = row
    n = 20001
    sc = getattr(nh, f"make_{name}")(n_nodes=n)
    params, pair = nh.PhysicalParams(h_eps=sc.h_eps), nh.ElementPair(tag, n)
    stepper = nh.step_euler if integrator == "euler" else nh.step_heun
    step = stepper(sc.state0, sc.mesh, sc.bathy, params, sc.bounds, pair)
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(3):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            step = stepper(step.state, sc.mesh, sc.bathy, params, sc.bounds, pair)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert max(peaks) / n <= STEP_TEMP_BYTES_PER_NODE[row]


def _seen(state):
    """What a caller sees of a state: its time, its field arrays and their
    bits and flags."""
    fields = (state.H, state.Hu, state.Hw)
    return (state.t, fields, [float_bits(x).copy() for x in fields],
            [(x.flags.writeable, x.flags.owndata, x.flags.c_contiguous) for x in fields])


@pytest.mark.parametrize("writeable", [True, False])
@pytest.mark.parametrize("entry", ["project_state", "step_euler", "step_heun", "step_heun_last"])
def test_an_entry_point_leaves_the_state_it_is_handed_intact(entry, writeable):
    # a step lets each array go once read, and the projection consumes the
    # FlowState it is handed: only a wrapper the entry point made, never
    # the caller's state, which run() hands down read-only
    sc = nh.make_beach(n_nodes=301)
    params = nh.PhysicalParams(h_eps=sc.h_eps)
    last = nh.step_heun(sc.state0, sc.mesh, sc.bathy, params, sc.bounds)
    state = last.state
    for x in (state.H, state.Hu, state.Hw):
        x.flags.writeable = writeable
    seen = _seen(state)
    args = (state, sc.mesh, sc.bathy, params, sc.bounds)
    if entry == "project_state":
        out = timeloop.project_state(*args)
    elif entry == "step_euler":
        out = nh.step_euler(*args).state
    else:
        out = nh.step_heun(*args, _last=last if entry == "step_heun_last" else None).state
    t, fields, bits, flags = _seen(state)
    assert t == seen[0]
    assert all(a is b for a, b in zip(fields, seen[1]))
    assert all(np.array_equal(a, b) for a, b in zip(bits, seen[2]))
    assert flags == seen[3]
    assert not any(np.shares_memory(a, b) for a in fields for b in (out.H, out.Hu, out.Hw))


def _near_threshold_basin(seed, h_eps):
    """A projected walled basin whose depths include dry nodes and nodes
    just above h_eps, so that some wet nodes fall below it in one stage."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 40))
    mesh = nh.Mesh1D(np.cumsum(0.05 + rng.random(n)))
    bathy = nh.Bathymetry(0.3 * rng.standard_normal(n)) if seed % 2 else nh.Bathymetry.flat(mesh)
    H = np.where(rng.random(n) < 0.25, 0.0, 2.0 * rng.random(n))
    H = np.where(rng.random(n) < 0.3, h_eps * (1.0 + 0.05 * rng.random(n)), H)
    H[0] = 1.0
    u, w = 2.0 * rng.standard_normal(n), rng.standard_normal(n)
    params, bounds = nh.PhysicalParams(h_eps=h_eps), nh.BoundarySpec.walls()
    state = timeloop.project_state(nh.FlowState(H, H * u, H * w), mesh, bathy, params, bounds)
    return state, mesh, bathy, params, bounds


def test_no_step_output_carries_a_discharge_below_the_dry_threshold():
    # predict reads no dry threshold, but the projection reads velocities on
    # its wet mask: an Euler or Heun output has H u = H w = 0 wherever
    # H < h_eps, as predict's output had before it dropped the threshold
    h_eps = 1e-3
    dry_nodes = 0
    for seed in range(40):
        args = _near_threshold_basin(seed, h_eps)
        for stepper in (nh.step_euler, nh.step_heun):
            out = stepper(*args).state
            dry = out.H < h_eps
            dry_nodes += int(dry.sum())
            assert not out.Hu[dry].any() and not out.Hw[dry].any()
    assert dry_nodes > 0


def _bits_of_state(state):
    return [float_bits(a) for a in (state.H, state.Hu, state.Hw)]


def test_a_heun_stage_zeroes_its_prediction_below_the_dry_threshold(monkeypatch):
    # the stage, not predict, drops the discharge of a predicted depth below
    # h_eps, before the increments read it: a prediction that leaves any
    # discharge there gives the same stage bits, the stage's mask is
    # H >= h_eps of its depth, and the step's output is unchanged
    h_eps = 1e-3
    predict, stage = timeloop.predict, timeloop._stage
    fallen = 0  # wet nodes of a stage's start that its prediction dries

    def soiled(state, *args):
        pred = predict(state, *args)
        nonlocal fallen
        fallen += int(np.sum((pred.H < h_eps) & (state.H >= h_eps)))
        pred.Hu[pred.H < h_eps] = 1e3
        pred.Hw[pred.H < h_eps] = -1e3
        return pred

    def recorded(stages):
        def run_stage(*args):
            state, wet = stage(*args)
            assert np.array_equal(wet, state.H >= h_eps)
            stages.append(_bits_of_state(state))
            return state, wet
        return run_stage

    for seed in range(40):
        args = _near_threshold_basin(seed, h_eps)
        results = []
        for patch in (False, True):
            stages = []
            with monkeypatch.context() as mp:
                mp.setattr(timeloop, "_stage", recorded(stages))
                if patch:
                    mp.setattr(timeloop, "predict", soiled)
                results.append((stages, _bits_of(nh.step_heun(*args))))
        (clean_stages, clean), (soiled_stages, out) = results
        assert len(clean_stages) == len(soiled_stages) >= 2
        for got, want in zip(sum(soiled_stages, []) + out, sum(clean_stages, []) + clean):
            assert np.array_equal(got, want)
    assert fallen > 0


# -- divisions on every node, the dry nodes zeroed after -----------------------

# a dry depth whose quotients overflow, and the largest one below the threshold
_SUBNORMAL_H = 2.2e-311
_BELOW_H_EPS = float(np.nextafter(H_EPS, 0.0))


@st.composite
def _walled_wet_dry_cases(draw):
    """(tag, widths, H, fields): a walled mesh's element widths, a depth with
    zero, subnormal and just-dry nodes, and six discharge fields, (Hu, Hw)
    of the state and of its prediction and the carried (u dH, w dH), with
    discharge on dry nodes and signed zeros in every field.  Nonzero
    discharges stay above 1e-3, so no quotient on a wet node underflows."""
    tag = draw(st.sampled_from(["P1P0", "P1isoP2P1"]))
    n = draw(st.integers(5, 17))
    n += tag == "P1isoP2P1" and n % 2 == 0
    zeros = st.sampled_from([0.0, -0.0])
    depth = st.one_of(zeros, st.sampled_from([_SUBNORMAL_H, _BELOW_H_EPS, H_EPS]),
                      st.floats(H_EPS, 2.0))
    discharge = st.one_of(zeros, st.floats(1e-3, 5.0), st.floats(-5.0, -1e-3))
    return (
        tag,
        draw(arrays(float, n - 1, elements=st.floats(0.05, 1.05))),
        draw(arrays(float, n, elements=depth)),
        [draw(arrays(float, n, elements=discharge)) for _ in range(6)],
    )


_DRY_EXAMPLE = (
    "P1isoP2P1",
    np.full(8, 0.5),
    np.array([0.0, _SUBNORMAL_H, _BELOW_H_EPS, -0.0, H_EPS, 1.0, 1.5, 0.0, 2.0]),
    [np.array([2.0, -3.0, 1e-3, -0.0, 0.0, 4.0, -1.0, 5.0, 0.5]) * (k + 1) / 6.0
     for k in range(6)],
)


@settings(max_examples=150, deadline=None)
@given(case=_walled_wet_dry_cases())
@example(case=_DRY_EXAMPLE)
@example(case=("P1P0", *_DRY_EXAMPLE[1:]))
def test_the_unmasked_divisions_give_the_masked_bits(case):
    # FlowState.velocities, build_schur's inverse masses and a Heun stage's
    # velocity increments divide on every node and zero the dry ones after:
    # the bits of divisions masked to the wet nodes, signed zeros included,
    # with every floating-point warning not silenced in the kernels raised.
    # Underflow is numpy's one condition ignored by default, and the
    # subnormal depth underflows in the lumped mass and the Schur band.
    # prediction_inputs hands predict those velocities, the wave speed over
    # the gathered wet nodes and the CFL step of that speed
    tag, widths, H, (Hu, Hw, pred_Hu, pred_Hw, u_dH, w_dH) = case
    mesh = nh.Mesh1D(np.concatenate(([0.0], np.cumsum(widths))))
    pair = nh.ElementPair(tag, mesh.n_nodes)
    with np.errstate(all="raise", under="ignore"):
        y = nh.FlowState(H, Hu, Hw)
        wet = H >= H_EPS
        sys = nh.build_schur(nh.assemble(pair, mesh, H, nh.Bathymetry.flat(mesh), H_EPS),
                             nh.BoundarySpec.walls().hyperbolic_at(0.0))
        pred = nh.FlowState(H, pred_Hu.copy(), pred_Hw.copy())
        got = (*y.velocities(wet), sys.invA_u, sys.invA_w,
               *timeloop._increments(pred, y, u_dH, w_dH, wet))
        want = (*masked_velocities(y, wet), *masked_inverse_mass(sys.ops, sys.plan),
                *masked_increments(pred_Hu, pred_Hw, y, u_dH, w_dH, wet))
    names = ("u", "w", "invA_u", "invA_w", "du", "dw")
    for name, a, b in zip(names, got, want):
        assert np.array_equal(float_bits(a), float_bits(b)), name

    if not wet.any():
        with pytest.raises(nh.DryDomainError):
            prediction_inputs(y, mesh, wet)
        return
    with np.errstate(all="raise", under="ignore"):
        u, w, dt, speed = prediction_inputs(y, mesh, wet)
    for a, b in zip((u, w), want):
        assert np.array_equal(float_bits(a), float_bits(b))
    assert speed == max_wave_speed_gather(H, want[0], core.G, H_EPS)
    assert dt == hyperbolic.CFL * mesh.min_width / speed


# -- stage boundary closure ----------------------------------------------------


def _stage(bounds):
    """The solitary scenario, its initial velocities, one stage and its dt."""
    sc = nh.make_solitary(201)
    pair = nh.ElementPair("P1P0", sc.mesh.n_nodes)
    hyp = bounds.hyperbolic_at(sc.state0.t)
    ops = nh.assemble(pair, sc.mesh, sc.state0.H, sc.bathy, H_EPS)
    sys = nh.build_schur(ops, hyp)
    u, w, dt, speed = prediction_inputs(sc.state0, sc.mesh, sc.state0.H >= H_EPS)
    stage, _ = timeloop._stage(sc.state0, sys, u, w, speed, dt, sc.mesh, sc.bathy, H_EPS, hyp)
    return sc, (u, w), stage, dt


def test_stage_follows_the_boundary_kind():
    # an imposed flux pins the pressure increment to 0 and corrects the
    # boundary velocity; a wall holds it, so the two closures give different
    # stages (bounds are the rate bounds times dt)
    walls = nh.BoundarySpec.walls()
    sc, (u, _), stage, dt = _stage(walls)
    flux = nh.BoundarySpec(nh.HyperbolicBC("imposed_flux", q0=(0.0, 0.0)), walls.right)
    _, _, stage_f, _ = _stage(flux)
    y = sc.state0
    assert abs(stage_f.Hu[0] - y.Hu[0] - u[0] * (stage_f.H[0] - y.H[0])) > 1e-6 * dt
    assert not np.allclose(stage.Hu, stage_f.Hu, rtol=0.0, atol=1e-9 * dt)
    assert not np.allclose(stage.Hw, stage_f.Hw, rtol=0.0, atol=1e-9 * dt)


def test_stage_holds_an_imposed_boundary_velocity():
    sc, (u, _), stage, _ = _stage(nh.BoundarySpec.walls())
    y = sc.state0
    # a wall holds the velocity at 0, so its increment is 0 and only the
    # depth change moves H u there
    assert stage.Hu[0] == y.Hu[0] + u[0] * (stage.H[0] - y.H[0])
    assert stage.Hu[-1] == y.Hu[-1] + u[-1] * (stage.H[-1] - y.H[-1])
    # free outflow keeps the predicted trace, whose increment is not held
    _, _, kept, _ = _stage(nh.BoundarySpec.open())
    assert kept.Hu[-1] != y.Hu[-1] + u[-1] * (kept.H[-1] - y.H[-1])


_HYPERBOLIC_DATA = {
    "imposed_flux": {"q0": (0.1, 0.0)},
    "wall": {},
    "imposed_depth": {"h_given": 1.0},
    "free_outflow": {},
}


@pytest.mark.parametrize("side", ["in", "out"])
@pytest.mark.parametrize("kind", sorted(_HYPERBOLIC_DATA))
def test_pressure_closure_of_each_hyperbolic_kind(kind, side):
    # imposed flux: pressure pinned to 0, velocity free; wall: velocity held
    # at 0; free outflow and imposed depth: velocity held at its trace
    n = 9
    mesh = nh.Mesh1D.uniform(0.0, 1.0, n)
    ops = nh.assemble(nh.ElementPair("P1P0", n), mesh, np.ones(n), nh.Bathymetry.flat(mesh), H_EPS)
    U = np.random.default_rng(7).standard_normal(2 * n)
    node, pdof = (0, 0) if side == "in" else (n - 1, ops.n_pressure - 1)
    other_node, other_pdof = (n - 1, ops.n_pressure - 1) if side == "in" else (0, 0)
    assert U[node] != 0.0
    closed = nh.HyperbolicBC(kind, **_HYPERBOLIC_DATA[kind])
    other = nh.HyperbolicBC("free_outflow")
    hyp = (closed, other) if side == "in" else (other, closed)
    u, w = U[:n], U[n:]
    # the slot is the side: the closed kind acts at its own side only, and
    # the free outflow side holds its node and pins no dof
    plan = projection.resolve_projection_bcs(ops, hyp)
    assert (pdof in plan.pinned_dofs) == (kind == "imposed_flux")
    assert (node in plan.held_u) == (kind != "imposed_flux")
    assert free_velocity_mask(plan, ops)[node] == (kind == "imposed_flux")
    assert other_pdof not in plan.pinned_dofs and other_node in plan.held_u
    sys = nh.build_schur(ops, hyp)
    assert np.array_equal(sys.plan.pinned_dofs, plan.pinned_dofs)
    u_star, _, rhs = sys.load(u, w, 0.05)
    assert u_star[node] == (0.0 if kind == "wall" else U[node])
    assert u_star[other_node] == U[other_node]
    if kind == "imposed_flux":
        assert rhs[pdof] == 0.0 and sys.ab[0, pdof] == 1.0


def test_stage_keeps_the_divergence_constant():
    # the stage's increments keep the linearized divergence:
    # B(H^n) du + (dB/dH)[dH] u vanishes (bounds are the rate bounds times dt)
    sc, (u, w), stage, dt = _stage(nh.BoundarySpec.walls())
    y = sc.state0
    pair = nh.ElementPair("P1P0", sc.mesh.n_nodes)
    dH = stage.H - y.H
    du = (stage.Hu - y.Hu - u * dH) / y.H
    dw = (stage.Hw - y.Hw - w * dH) / y.H
    B_du = nh.assemble(pair, sc.mesh, y.H, sc.bathy, H_EPS).apply_divergence(du, dw)
    dB_u = depth_derivative_by_differencing(pair, sc.mesh, sc.bathy.zb, dH, u, w)
    assert np.abs(dB_u).max() > 1e-6 * dt
    assert np.abs(B_du + dB_u).max() <= 1e-9 * np.abs(dB_u).max()


@pytest.mark.parametrize("tag", ["P1P0", "P1isoP2P1"])
def test_the_step_path_calls_no_python_level_numpy_helper(tag, monkeypatch):
    # at small N a Python-level numpy helper costs more than the ufunc or
    # method it wraps: an Euler step and two Heun steps, the second reusing
    # the Schur system the first ended on, over a bottom with an imposed-flux
    # side, run with every such helper refused and give the bits of an
    # unpatched run, also with every blocked kernel at blocks of 6
    n = 41
    nodes = np.linspace(0.0, 10.0, n) + 0.05 * np.sin(np.arange(n))
    zb = 0.2 * np.cos(nodes)
    bathy, pair, params = nh.Bathymetry(zb), nh.ElementPair(tag, n), nh.PhysicalParams()
    H = 1.0 - zb
    state = nh.FlowState(H, 0.1 * H, np.zeros(n))
    bounds = nh.BoundarySpec(
        nh.HyperbolicBC("imposed_flux", q0=(0.2, 0.0)), nh.HyperbolicBC("free_outflow")
    )

    def steps(mesh):
        euler = nh.step_euler(state, mesh, bathy, params, bounds, pair)
        first = nh.step_heun(euler.state, mesh, bathy, params, bounds, pair)
        second = nh.step_heun(first.state, mesh, bathy, params, bounds, pair, _last=first)
        return [float_bits(x) for step in (euler, first, second)
                for x in (step.state.H, step.state.Hu, step.state.Hw, step.pressure.values)]

    want = steps(nh.Mesh1D(nodes))

    def refused(*args, **kwargs):
        raise AssertionError("a Python-level numpy helper was called on the step path")

    for block in (None, 6):
        with monkeypatch.context() as m:
            if block is not None:
                m.setattr(core, "_BLOCK", block)
            mesh = nh.Mesh1D(nodes)  # its block layout is built at its first assembly
            for name in ("diff", "zeros_like", "sum", "array_equal", "flatnonzero", "size",
                         "shape"):
                m.setattr(np, name, refused)
            m.setattr(np.linalg, "norm", refused)
            got = steps(mesh)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
