"""Time integration: prediction + correction splitting with adaptive steps.

A first-order step advances the hydrostatic subsystem explicitly, then
re-assembles the depth-dependent operators on the predicted depth and
projects the velocity onto the discretely divergence-free space (the depth
itself is untouched by the correction).  The second-order step is SSP-RK2
in Shu-Osher form: two stages at a shared dt, averaged with the initial
state,

    X^{n+1} = (X^n + stage(stage(X^n))) / 2,

and the average projected once.  A stage is the Euler prediction plus one
correction (_stage): its depth is the predicted depth, bit for bit, and the
prediction's velocity increment is corrected at the stage's initial depth
so that the linearized divergence stays constant.  Each
stage therefore inherits predict's non-negative depth exactly, and so does
the average (H^n + H^2) / 2.  A stage costs one prediction and one Schur
solve, plus one assembly and Schur build unless it reuses the last
projection's (below); the depth derivative of the divergence is applied
exactly from the assembly at the stage's initial depth.  Every projection
resolves its boundary plan once, in build_schur, and corrects the velocity
with that plan; both steppers raise DivergenceBoundError when the
corrected velocity misses its divergence bound.

The velocities of each state are evaluated once per step and passed along
(Euler: the initial and the predicted state; Heun: the initial, the stage
and the averaged state).  The initial state's serve its CFL step, its
prediction and, in Heun, its stage correction; velocities travel as (u, w)
pairs through the projection.  So does the wave speed of each state a
prediction starts from: the CFL step is taken from it and predict's CFL
guard reads it (Euler: the initial state; Heun: the initial and the stage
state).  Each state's wet mask H >= h_eps is computed once too and serves
its velocities, its wave speed and, in Heun, its stage's velocity
increments; a projected state takes its mask from the assembly
(OperatorSet.wet).  The entry points (run, step_euler, step_heun,
project_state and hyperbolic.cfl_dt) read the dry threshold params.h_eps
once; every layer below takes the h_eps, wet mask or wave speed it reads
as a required argument.  A stage forms the depth increment's momenta u dH
and w dH once, for its velocity increments and its stage momenta alike, and
the arithmetic of a step writes its temporaries in place, each result
evaluated in the order of its formula, so the bits do not depend on it.

Heun's stages are both admissible: when the stage state is faster than the
step's dt allows, the step restarts at the stage state's CFL step (at most
_HEUN_ATTEMPTS tries, then CFLViolationError), since SSP-RK2 keeps the
positivity of its Euler stages only when each meets the CFL bound.

Heun's first stage is corrected at the initial state's depth, which is the
depth of the previous step's final projection.  run() hands each Heun step
the previous StepResult, and when the depth has equal contents and the
pressure closure the same kinds, the stage loads its velocity into that
projection's Schur system as it is, for the same bits as a fresh build:
under run(), a Heun step after the first makes two assemblies and Schur
builds, not three.

A step computes only what the step and its checks need.  Its StepReport
carries t, dt, the divergence residual with its bound, and the mass, which
run() and the benchmark's per-step conservation check read.  The discrete
energy is a diagnostic, not part of the scheme: a caller that wants it
computes total_energy(step.state, mesh, bathy) itself, in an on_step
callback or from the final state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import (
    Bathymetry,
    CFLViolationError,
    DivergenceBoundError,
    FlowState,
    Mesh1D,
    PhysicalParams,
    total_mass,
)
# cfl_dt and total_energy are not called here; they stay imported because
# perfbench/tracer.py rebinds these names on this module
from .core import total_energy  # noqa: F401
from .femops import P1P0, ElementPair, OperatorSet, assemble
from .hyperbolic import HyperbolicBC, cfl_admits, cfl_dt, cfl_step, predict  # noqa: F401
from .projection import (
    PressureField,
    SchurSystem,
    build_schur,
    correct_velocity,
    divergence_residual,
    solve_pressure,
    solve_round_off,
)

HyperbolicSide = HyperbolicBC | Callable[[float], HyperbolicBC]


@dataclass
class BoundarySpec:
    """Per-side hyperbolic condition; the pressure condition follows its kind.

    The slot is the side: left closes the first node ("in") and right the
    last one ("out"), for the hyperbolic ghost and the pressure closure
    alike.  The hyperbolic entry may be a callable of time (wavemakers).
    Each projection, and each stage of step_heun, closes the pressure
    problem with the (left, right) pair of kinds the hyperbolic kinds
    induce (_PRESSURE_KIND).
    """

    left: HyperbolicSide
    right: HyperbolicSide

    def hyperbolic_at(self, t: float) -> tuple[HyperbolicBC, HyperbolicBC]:
        bl = self.left(t) if callable(self.left) else self.left
        br = self.right(t) if callable(self.right) else self.right
        return bl, br

    @classmethod
    def walls(cls) -> "BoundarySpec":
        return cls(HyperbolicBC("wall"), HyperbolicBC("wall"))

    @classmethod
    def open(cls) -> "BoundarySpec":
        return cls(HyperbolicBC("free_outflow"), HyperbolicBC("free_outflow"))


# pressure closure induced by each hyperbolic kind: an imposed flux pins the
# pressure to 0, a wall holds the velocity at 0, free outflow and an imposed
# depth keep the predicted velocity trace
_PRESSURE_KIND = {
    "imposed_flux": "dirichlet",
    "wall": "wall",
    "imposed_depth": "neumann",
    "free_outflow": "neumann",
}


def _pressure_bcs(hyp: tuple[HyperbolicBC, HyperbolicBC]) -> tuple[str, str]:
    """(left, right) pressure condition kinds induced by the hyperbolic kinds."""
    return _PRESSURE_KIND[hyp[0].kind], _PRESSURE_KIND[hyp[1].kind]


@dataclass
class StepReport:
    """Per-step diagnostics: the time t after the step, its dt, the
    divergence residual of the corrected velocity and its bound, and the
    total mass.

    The report holds plain floats and no reference to the state.  The
    energy is not computed by the step: take
    total_energy(step.state, mesh, bathy) where it is wanted.
    """

    t: float
    dt: float
    div_residual: float
    div_bound: float
    mass: float


@dataclass
class StepResult:
    state: FlowState
    report: StepReport
    pressure: PressureField
    ops: OperatorSet
    schur: SchurSystem


# divergence tolerance of every projection: the corrected residual may not
# exceed TOL times the predicted one (plus 1e-12).  The banded Cholesky
# solve is exact up to round-off, so no run needs a looser value
TOL = 1e-10


def _project(
    state: FlowState,
    mesh: Mesh1D,
    bathy: Bathymetry,
    h_eps: float,
    pair: ElementPair,
    hyp: tuple[HyperbolicBC, HyperbolicBC],
    dt: float,
) -> StepResult:
    """Correct the velocity of `state` onto B U = 0 at its own depth, a
    node being dry where H < h_eps.

    The state's velocities are evaluated here, once, on the assembly's wet
    mask, and carried through the projection as the pair (u, w).  The
    corrected state shares state.H.
    Raises DivergenceBoundError when the corrected residual exceeds both
    TOL times the uncorrected one plus 1e-12 and solve_round_off.
    """
    ops = assemble(pair, mesh, state.H, bathy, h_eps)
    u, w = state.velocities(ops.wet)
    sys = build_schur(ops, _pressure_bcs(hyp))
    u, div, rhs = sys.load(u, w, dt)
    pressure = solve_pressure(sys, rhs)
    u, w = correct_velocity(sys, u, w, dt, pressure.values)

    residual = divergence_residual(sys, u, w)
    bound = TOL * sys.enforced_norm(div) + 1e-12
    if residual > bound:
        bound = max(bound, solve_round_off(sys, pressure.values, dt))
    if residual > bound:
        raise DivergenceBoundError(
            f"divergence bound violated after correction: {residual:.3e} > {bound:.3e}"
        )

    # u is load's copy and w correct_velocity's new array: H u and H w are
    # formed in them
    new = FlowState(
        state.H, np.multiply(state.H, u, out=u), np.multiply(state.H, w, out=w), state.t
    )
    report = StepReport(
        t=new.t,
        dt=dt,
        div_residual=residual,
        div_bound=bound,
        mass=total_mass(new, mesh),
    )
    return StepResult(new, report, pressure, ops, sys)


def project_state(
    state: FlowState,
    mesh: Mesh1D,
    bathy: Bathymetry,
    params: PhysicalParams,
    bounds: BoundarySpec,
    pair: ElementPair | None = None,
) -> FlowState:
    """Project a state onto the discretely divergence-free space.

    Useful to prepare initial data: sampled analytic fields satisfy the
    constraint only up to discretization error, and removing that component
    up front avoids an impulsive correction on the first step.  The
    projection is time-step independent (the dt factors cancel), so a unit
    dt is used internally.  Like the steppers, it raises
    DivergenceBoundError when the projected velocity misses its bound.
    """
    pair = pair or ElementPair(P1P0, mesh.n_nodes)
    hyp = bounds.hyperbolic_at(state.t)
    new = _project(state, mesh, bathy, params.h_eps, pair, hyp, 1.0).state
    return FlowState(state.H.copy(), new.Hu, new.Hw, new.t)


def step_euler(
    state: FlowState,
    mesh: Mesh1D,
    bathy: Bathymetry,
    params: PhysicalParams,
    bounds: BoundarySpec,
    pair: ElementPair | None = None,
    dt: float | None = None,
) -> StepResult:
    """One prediction + correction step; dt caps the internal CFL step.

    The initial state's velocities and wave speed give both the CFL step
    and the prediction.
    """
    pair = pair or ElementPair(P1P0, mesh.n_nodes)
    h_eps = params.h_eps
    wet = state.H >= h_eps
    u, w = state.velocities(wet)
    dt_cfl, speed = cfl_step(state.H, u, mesh, wet)
    dt = dt_cfl if dt is None else min(dt, dt_cfl)
    hyp = bounds.hyperbolic_at(state.t)
    half = predict(state, u, w, mesh, bathy, h_eps, *hyp, dt, speed)
    return _project(half, mesh, bathy, h_eps, pair, hyp, dt)


def _stage(
    y: FlowState,
    wet: np.ndarray,
    u: np.ndarray,
    w: np.ndarray,
    speed: float,
    dt: float,
    mesh: Mesh1D,
    bathy: Bathymetry,
    h_eps: float,
    bounds: BoundarySpec,
    pair: ElementPair,
    last: SchurSystem | None = None,
) -> FlowState:
    """One Heun stage from the constrained state y: its Euler prediction,
    with the velocity increment corrected to keep B u constant.

    wet is y's mask H >= h_eps, (u, w) are y's velocities and speed their
    max_wave_speed, evaluated once by the stepper and shared with the
    prediction.  last, if given, is the Schur system of an earlier
    projection on the same mesh, bathymetry, h_eps and pair; it serves in
    place of a new assembly and Schur build when its depth equals y.H and
    its closure has the kinds of this one.

    The stage depth is the predicted depth.  The predicted momentum splits
    into the depth increment dH carrying u and the velocity increment du at
    frozen depth (0 on dry nodes), and the pressure increment cancels the
    linearized change of the divergence,

        S p = -(B du + (dB/dH)[dH] u),

    with (dB/dH)[dH] u applied exactly from the assembly at y's depth
    (OperatorSet.apply_depth_derivative) and added to B du by the load
    (SchurSystem.load).  The system is linear in
    (du, dH), so it is solved at unit dt.  The step's pressure conditions
    close it: a velocity held at 0 has increment 0, and a kept trace or a
    pressure pinned to 0 carries over as is.
    """
    hyp = bounds.hyperbolic_at(y.t)
    pred = predict(y, u, w, mesh, bathy, h_eps, *hyp, dt, speed)
    dH = pred.H - y.H
    # the depth increment's momenta u dH and w dH, formed once: the
    # velocity increments exclude them and the stage state adds them back
    u_dH, w_dH = u * dH, w * dH

    def increment(d_momentum, old_momentum, carried):
        d_momentum -= old_momentum
        d_momentum -= carried
        return np.divide(d_momentum, y.H, out=np.zeros_like(y.H), where=wet)

    # predict's momenta are its own new arrays
    du = increment(pred.Hu, y.Hu, u_dH)
    dw = increment(pred.Hw, y.Hw, w_dH)

    bcs = _pressure_bcs(hyp)
    if last is not None and last.plan.bcs == bcs and np.array_equal(last.ops.H, y.H):
        sys = last
    else:
        sys = build_schur(assemble(pair, mesh, y.H, bathy, h_eps), bcs)
    du, _, rhs = sys.load(du, dw, 1.0, sys.ops.apply_depth_derivative(dH, u))
    du_c, dw_c = correct_velocity(sys, du, dw, 1.0, solve_pressure(sys, rhs).values)

    def momentum(d_velocity, old_momentum, carried):
        # old + (H d_velocity + carried), in the velocity's own array
        np.multiply(y.H, d_velocity, out=d_velocity)
        d_velocity += carried
        d_velocity += old_momentum
        return d_velocity

    return FlowState(pred.H, momentum(du_c, y.Hu, u_dH), momentum(dw_c, y.Hw, w_dH), pred.t)


# tries of a Heun step, each after the first at the CFL step of the stage
# state of the try before
_HEUN_ATTEMPTS = 3


def step_heun(
    state: FlowState,
    mesh: Mesh1D,
    bathy: Bathymetry,
    params: PhysicalParams,
    bounds: BoundarySpec,
    pair: ElementPair | None = None,
    dt: float | None = None,
    *,
    _last: StepResult | None = None,
) -> StepResult:
    """Second-order step: two stages at a shared dt, each an Euler
    prediction plus one correction (_stage), the Heun average with the
    initial state, and a final projection restoring B u = 0 exactly.

    Each stage's depth is its prediction's depth, so every stage depth and
    the average's are non-negative wherever predict's are.  dt caps the
    internal CFL step; when the stage state is too fast for it, the step
    restarts at the stage state's CFL step (module docstring), so the
    report's dt may be smaller.  _last is the previous step's result, which
    run() passes so that the first stage can reuse its projection (module
    docstring); callers leave it out.

    Projecting each stage end-state instead (the first-order splitting
    recipe applied twice) looks natural but measures first order: the
    stage projections depend on the evolving depth and their curvature
    injects an O(dt) defect the averaging cannot remove.  Correcting the
    stage's velocity increment against the linearized constraint instead
    makes each stage a smooth state function (classical second-order theory
    applies) and the end-of-step projection keeps the result on the
    constraint manifold without order loss.
    """
    pair = pair or ElementPair(P1P0, mesh.n_nodes)
    h_eps = params.h_eps
    wet = state.H >= h_eps
    u, w = state.velocities(wet)
    dt_cfl, speed = cfl_step(state.H, u, mesh, wet)
    dt = dt_cfl if dt is None else min(dt, dt_cfl)
    last = None if _last is None else _last.schur
    args = (mesh, bathy, h_eps, bounds, pair)
    for _ in range(_HEUN_ATTEMPTS):
        first = _stage(state, wet, u, w, speed, dt, *args, last)
        wet1 = first.H >= h_eps
        u1, w1 = first.velocities(wet1)
        dt_stage, speed1 = cfl_step(first.H, u1, mesh, wet1)
        if cfl_admits(dt, speed1, mesh):
            break
        dt = dt_stage
    else:
        raise CFLViolationError(
            f"no Heun step with both stages admissible after {_HEUN_ATTEMPTS} tries"
        )
    second = _stage(first, wet1, u1, w1, speed1, dt, *args)
    # the average (X^n + X^2) / 2, formed in the second stage's own arrays
    for x_n, x_2 in ((state.H, second.H), (state.Hu, second.Hu), (state.Hw, second.Hw)):
        x_2 += x_n
        x_2 *= 0.5
    avg = FlowState(second.H, second.Hu, second.Hw, state.t + dt)

    # restore div_sw u = 0 on the averaged state (operators at its own depth)
    hyp = bounds.hyperbolic_at(avg.t)
    return _project(avg, mesh, bathy, h_eps, pair, hyp, dt)


@dataclass
class Snapshot:
    t: float
    state: FlowState
    p_nodes: np.ndarray


@dataclass
class RunResult:
    mesh: Mesh1D
    bathy: Bathymetry
    snapshots: list[Snapshot] = field(default_factory=list)
    reports: list[StepReport] = field(default_factory=list)

    @property
    def final(self) -> FlowState:
        return self.snapshots[-1].state


def run(
    scenario,
    params: PhysicalParams,
    t_end: float,
    output_times=(),
    pair: ElementPair | None = None,
    integrator: str = "euler",
    on_step: Callable | None = None,
) -> RunResult:
    """March a scenario to t_end, landing exactly on every output time.

    Steps are CFL-adaptive with the last step of each segment clipped, so
    snapshots are taken at the exact requested times (and at t_end).  The
    run marches from the initial state's time t0 = scenario.state0.t and
    never rewinds the clock: t_end must be finite, non-negative and not
    before t0, and the output times finite and in [t0, t_end], else
    ValueError.  Gauge records attached to the
    scenario are sampled at the same times, in fresh records for each run
    (GaugeSet.reset).  The dry threshold is the scenario's: params.h_eps
    must equal scenario.h_eps, else ValueError.

    Each step's StepReport is appended to result.reports, and on_step, if
    given, is called with the StepResult (a per-step energy is
    total_energy(step.state, mesh, bathy)), whose H, Hu and Hw are
    read-only: the next Heun step may reuse the Schur band of that depth.
    A non-finite field raises RuntimeError: in the initial state, and after
    each step when the mass, max H or any entry of Hu or Hw is not finite.
    A negative initial depth raises ValueError.
    """
    if not (np.isfinite(t_end) and t_end >= 0.0):
        raise ValueError(f"t_end must be finite and non-negative, got {t_end!r}")
    t0 = scenario.state0.t
    if not t_end >= t0:
        raise ValueError(f"t_end = {t_end!r} lies before the initial time t0 = {t0!r}")
    times = [float(t) for t in output_times]
    if not np.isfinite(times).all():
        raise ValueError(f"output times must be finite, got {times!r}")
    if times and not t0 <= min(times) <= max(times) <= t_end:
        raise ValueError(
            f"output times must lie in [t0 = {t0!r}, t_end = {t_end!r}], got {times!r}"
        )
    if params.h_eps != scenario.h_eps:
        raise ValueError(
            f"params.h_eps = {params.h_eps:g} differs from the scenario's "
            f"h_eps = {scenario.h_eps:g}; pass PhysicalParams(h_eps=scenario.h_eps)"
        )
    mesh, bathy = scenario.mesh, scenario.bathy
    pair = pair or ElementPair(P1P0, mesh.n_nodes)
    if integrator not in ("euler", "heun"):
        raise ValueError(f"unknown integrator {integrator!r}")

    state = scenario.state0.copy()
    if not (
        np.isfinite(state.H).all()
        and np.isfinite(state.Hu).all()
        and np.isfinite(state.Hw).all()
    ):
        raise RuntimeError("non-finite field values in the initial state")
    if state.H.min() < 0.0:
        raise ValueError(f"initial depth must be non-negative, min {state.H.min():.3e}")
    events = sorted({t for t in times if t < t_end})
    events.append(float(t_end))

    result = RunResult(mesh=mesh, bathy=bathy)
    if scenario.gauges is not None:
        scenario.gauges.reset()

    def emit(st: FlowState, step: StepResult | None):
        if step is not None:
            p_nodes = step.ops.interpolate_pressure_to_nodes(step.pressure.values)
        else:
            p_nodes = np.zeros(mesh.n_nodes)
        result.snapshots.append(Snapshot(st.t, st.copy(), p_nodes))
        if scenario.gauges is not None:
            scenario.gauges.record(st)

    step = None
    for target in events:
        while state.t < target - 1e-12 * max(1.0, target):
            args = (state, mesh, bathy, params, scenario.bounds, pair)
            if integrator == "euler":
                # an Euler step reads nothing of the last result: let it go
                # before the step allocates
                step = None
                step = step_euler(*args, dt=target - state.t)
            else:
                step = step_heun(*args, dt=target - state.t, _last=step)
            state = step.state
            # the next Heun step may reuse the Schur band built on this depth
            for values in (state.H, state.Hu, state.Hw):
                values.flags.writeable = False
            result.reports.append(step.report)
            if not (
                np.isfinite(step.report.mass)
                and np.isfinite(state.H.max())
                and np.isfinite(state.Hu).all()
                and np.isfinite(state.Hw).all()
            ):
                raise RuntimeError(
                    f"non-finite field values at t = {state.t:.6g}; aborting"
                )
            if on_step is not None:
                on_step(step)
        state.t = target
        emit(state, step)
    return result
