"""Time integration: prediction + correction splitting with adaptive steps.

step_euler advances the hydrostatic subsystem explicitly (predict), then
projects the velocity onto the discretely divergence-free space with the
operators assembled at the predicted depth, closed by the prediction's
hyperbolic conditions (_project, BoundarySpec), which leaves the depth
untouched.  step_heun is SSP-RK2 in Shu-Osher form,

    X^{n+1} = (X^n + stage(stage(X^n))) / 2,

with the average projected once.

A step computes only what it and its checks need (StepReport), and its
arithmetic writes its temporaries in place, each result evaluated in the
order of its formula, so the bits do not depend on it.
"""

from __future__ import annotations

import math
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
from .hyperbolic import HyperbolicBC, cfl_admits, cfl_dt, predict, prediction_inputs  # noqa: F401
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
    """Per-side hyperbolic condition, which closes the projection too.

    The slot is the side: left closes the first node ("in") and right the
    last one ("out").  An entry may be a callable of time (wavemakers).
    Each projection, and each stage of step_heun, closes on the pair that
    closed its prediction, by their kinds (projection module docstring).
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


@dataclass
class StepReport:
    """Per-step diagnostics as plain floats: the time t after the step, its
    dt, the divergence residual of the corrected velocity and its bound,
    and the total mass.  A step computes no energy: take
    total_energy(step.state, mesh, bathy, params.h_eps) where it is
    wanted."""

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
    corrected state shares state.H.  state is the projection's own
    FlowState, which it consumes: it drops its discharges once the
    velocities are formed, so a caller hands it one nobody else reads
    (project_state wraps its caller's arrays afresh).  B U* and rhs go once
    the bound and the solve have read them.
    Raises DivergenceBoundError when the corrected residual exceeds both
    TOL times the uncorrected one plus 1e-12 and solve_round_off.
    """
    ops = assemble(pair, mesh, state.H, bathy, h_eps)
    u, w = state.velocities(ops.wet)
    # the predicted discharges are read: the wrapper lets them go
    del state.Hu, state.Hw
    sys = build_schur(ops, hyp)
    u, div, rhs = sys.load(u, w, dt)
    bound = TOL * sys.enforced_norm(div) + 1e-12
    pressure = solve_pressure(sys, rhs)
    # B U* and rhs are read: they go before the correction allocates
    del div, rhs
    u, w = correct_velocity(sys, u, w, dt, pressure.values)

    residual = divergence_residual(sys, u, w)
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
    report = StepReport(new.t, dt, residual, bound, total_mass(new, mesh))
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
    The projection consumes a fresh FlowState of state's arrays, which it
    never writes, so state and its arrays are left as they were.
    """
    pair = pair or ElementPair(P1P0, mesh.n_nodes)
    hyp = bounds.hyperbolic_at(state.t)
    own = FlowState(state.H, state.Hu, state.Hw, state.t)
    new = _project(own, mesh, bathy, params.h_eps, pair, hyp, 1.0).state
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
    u, w, dt_cfl, speed = prediction_inputs(state, mesh, state.H >= h_eps)
    dt = dt_cfl if dt is None else min(dt, dt_cfl)
    hyp = bounds.hyperbolic_at(state.t)
    half = predict(state, u, w, mesh, bathy, *hyp, dt, speed)
    # the initial velocities are read: they go before the projection allocates
    del u, w
    return _project(half, mesh, bathy, h_eps, pair, hyp, dt)


def _stage(
    y: FlowState,
    sys: SchurSystem,
    u: np.ndarray,
    w: np.ndarray,
    speed: float,
    dt: float,
    mesh: Mesh1D,
    bathy: Bathymetry,
    h_eps: float,
    hyp: tuple[HyperbolicBC, HyperbolicBC],
) -> tuple[FlowState, np.ndarray]:
    """One Heun stage from the constrained state y: its Euler prediction,
    with the velocity increment corrected to keep B u constant.  Returns
    the stage state and its wet mask H >= h_eps.

    sys is the Schur system of y's depth and closure (step_heun), and y's
    wet mask is sys.ops.wet.  (u, w, speed) are y's prediction_inputs on
    that mask, shared with the prediction, which hyp closes.

    The stage depth is the predicted depth.  The prediction's nodes below
    h_eps lose their discharge first, so the stage's mask is formed here,
    once.  The correction, made on y's mask, can give such a node
    discharge again, so a stage state can carry one below h_eps; a step's
    output cannot, its velocities being +0.0 on its dry nodes (_project).
    The predicted momentum then splits into the depth increment dH
    carrying u and the velocity increment du at frozen depth (0 on dry
    nodes), and the pressure increment cancels the linearized change of
    the divergence,

        S p = -(B du + (dB/dH)[dH] u),

    with (dB/dH)[dH] u applied exactly from the assembly at y's depth
    (OperatorSet.apply_depth_derivative) and added to B du by the load
    (SchurSystem.load).  The system is linear in (du, dH), so it is solved
    at unit dt.  A velocity held at 0 has increment 0, and a kept trace or
    a pressure pinned to 0 carries over as is.

    Each N-size array goes once the stage has read it: pred's momenta, in
    which the increments are formed, dH, B du and rhs before the correction
    allocates.
    """
    pred = predict(y, u, w, mesh, bathy, *hyp, dt, speed)
    wet = pred.H >= h_eps
    dry = ~wet
    pred.Hu[dry] = 0.0
    pred.Hw[dry] = 0.0
    dH = pred.H - y.H
    # the depth increment's momenta u dH and w dH, formed once: the
    # velocity increments exclude them and the stage state adds them back
    u_dH, w_dH = u * dH, w * dH

    # predict's momenta are its own new arrays: pred lets them go, so each
    # dies once read
    du, dw = _increments(pred, y, u_dH, w_dH, sys.ops.wet)
    del pred.Hu, pred.Hw

    du, div, rhs = sys.load(du, dw, 1.0, sys.ops.apply_depth_derivative(dH, u))
    pressure = solve_pressure(sys, rhs)
    del dH, div, rhs
    du_c, dw_c = correct_velocity(sys, du, dw, 1.0, pressure.values)

    def momentum(d_velocity, old_momentum, carried):
        # old + (H d_velocity + carried), in the velocity's own array
        np.multiply(y.H, d_velocity, out=d_velocity)
        d_velocity += carried
        d_velocity += old_momentum
        return d_velocity

    stage = FlowState(pred.H, momentum(du_c, y.Hu, u_dH), momentum(dw_c, y.Hw, w_dH), pred.t)
    return stage, wet


def _increments(
    pred: FlowState, y: FlowState, u_dH: np.ndarray, w_dH: np.ndarray, wet: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The velocity increments (du, dw) of a Heun stage at y's frozen depth,
    formed in pred's momenta: (pred.Hu - y.Hu - u_dH) / y.H and its w
    counterpart, +0.0 on the nodes outside y's wet mask wet."""
    dry = ~wet
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for d_momentum, old_momentum, carried in ((pred.Hu, y.Hu, u_dH), (pred.Hw, y.Hw, w_dH)):
            d_momentum -= old_momentum
            d_momentum -= carried
            d_momentum /= y.H
            d_momentum[dry] = 0.0
    return pred.Hu, pred.Hw


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

    The step picks each stage's Schur system.  The first stage's is
    _last.schur when its depth has the contents of state.H and its closure
    the same kinds, else one built here: the reused system has the bits of
    a fresh build, and a step after the first assembles twice, not three
    times.  It also gives the initial wet mask, and serves every try.  The
    second stage's is built at the first stage's depth once that stage is
    admitted.  _last is the previous step's result, which run() passes;
    callers leave it out.

    Each stage's depth is its prediction's depth, so every stage depth and
    the average's are non-negative wherever predict's are, as long as each
    stage meets the CFL bound.  dt caps the internal CFL step; when the
    first stage's state is too fast for it, the step restarts at that
    state's CFL step, so the report's dt may be smaller, and raises
    CFLViolationError after _HEUN_ATTEMPTS tries.

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
    hyp = bounds.hyperbolic_at(state.t)
    sys = None if _last is None else _last.schur
    reuse = sys is not None and sys.plan.kinds == (hyp[0].kind, hyp[1].kind)
    if not (reuse and (sys.ops.H is state.H or np.array_equal(sys.ops.H, state.H))):
        sys = build_schur(assemble(pair, mesh, state.H, bathy, h_eps), hyp)
    u, w, dt_cfl, speed = prediction_inputs(state, mesh, sys.ops.wet)
    dt = dt_cfl if dt is None else min(dt, dt_cfl)
    for _ in range(_HEUN_ATTEMPTS):
        first, wet1 = _stage(state, sys, u, w, speed, dt, mesh, bathy, h_eps, hyp)
        u1, w1, dt_stage, speed1 = prediction_inputs(first, mesh, wet1)
        if cfl_admits(dt, speed1, mesh):
            break
        dt = dt_stage
    else:
        raise CFLViolationError(
            f"no Heun step with both stages admissible after {_HEUN_ATTEMPTS} tries"
        )
    # the initial velocities and the first stage's system are read: they go
    # before the second stage allocates
    del u, w, sys
    # the second stage and the final projection close at t + dt
    hyp = bounds.hyperbolic_at(first.t)
    sys = build_schur(assemble(pair, mesh, first.H, bathy, h_eps), hyp)
    second = _stage(first, sys, u1, w1, speed1, dt, mesh, bathy, h_eps, hyp)[0]
    # the average (X^n + X^2) / 2 at t + dt, formed in the second stage's
    # own arrays and state, which the final projection consumes
    for x_n, x_2 in ((state.H, second.H), (state.Hu, second.Hu), (state.Hw, second.Hw)):
        x_2 += x_n
        x_2 *= 0.5
    second.t = first.t
    # the first stage and the second stage's system are read, and x_2 is
    # second.Hw, which the projection lets go: they go before it allocates
    del first, wet1, u1, w1, sys, x_2

    # restore div_sw u = 0 on the averaged state (operators at its own depth)
    return _project(second, mesh, bathy, h_eps, pair, hyp, dt)


@dataclass
class Snapshot:
    t: float
    state: FlowState
    p_nodes: np.ndarray


@dataclass
class RunResult:
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
    ValueError.  Gauge records attached to the scenario are sampled at the
    same times, in fresh records for each run (GaugeSet.reset).  The dry
    threshold is the scenario's: params.h_eps must equal scenario.h_eps,
    else ValueError.

    Each step's StepReport is appended to result.reports, and on_step, if
    given, is called with the StepResult, whose H, Hu and Hw are
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
    if not all(np.isfinite(x).all() for x in (state.H, state.Hu, state.Hw)):
        raise RuntimeError("non-finite field values in the initial state")
    if state.H.min() < 0.0:
        raise ValueError(f"initial depth must be non-negative, min {state.H.min():.3e}")
    events = sorted({t for t in times if t < t_end})
    events.append(float(t_end))

    result = RunResult()
    if scenario.gauges is not None:
        scenario.gauges.reset()

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
                math.isfinite(step.report.mass)
                and math.isfinite(state.H.max())
                and np.isfinite(state.Hu).all()
                and np.isfinite(state.Hw).all()
            ):
                raise RuntimeError(
                    f"non-finite field values at t = {state.t:.6g}; aborting"
                )
            if on_step is not None:
                on_step(step)
        state.t = target
        p_nodes = (np.zeros(mesh.n_nodes) if step is None
                   else step.ops.interpolate_pressure_to_nodes(step.pressure.values))
        result.snapshots.append(Snapshot(state.t, state.copy(), p_nodes))
        if scenario.gauges is not None:
            scenario.gauges.record(state)
    return result
