"""Checks of the paper's claims, each runnable by name (run_criterion).

Each check reproduces one claim of Aissiouene, Bristeau, Godlewski and
Sainte-Marie (NHM 11(1), 2016): convergence_order, first-order L2
convergence of the depth on the solitary wave for P1/P0 and P1-iso-P2/P1;
shape_preservation, that wave's error falling under refinement as first
order predicts; discrete_divergence, B U = 0 after every correction;
wellbalanced_positivity, lake at rest and non-negative depth on a wet/dry
beach; dam_break_plateau, the plateau of the exact Riemann solution;
heun_order, second order in time for Heun (SSP-RK2); mass_conservation,
mass kept in a closed basin and a correction that leaves the depth as is.

Every check returns a CheckResult and prints nothing; the callers decide
how to report.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import timeloop
from .core import (
    G,
    Bathymetry,
    DivergenceBoundError,
    FlowState,
    Mesh1D,
    PhysicalParams,
    total_mass,
)
from .femops import P1ISOP2P1, P1P0, ElementPair
from .hyperbolic import cfl_dt, predict, prediction_inputs
from .scenarios import (
    DAM_BREAK,
    exact_sw_riemann,
    make_beach,
    make_dam_break,
    make_dingemans,
    make_solitary,
)
from .timeloop import BoundarySpec, project_state, run, step_heun

PAIRS = (P1P0, P1ISOP2P1)

CONVERGENCE_MESHES = (603, 1023, 2047, 4095, 6495)
SOLITARY_T_END = 5.9025


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.details}"


def relative_l2_depth_error(scenario, result) -> float:
    mesh = scenario.mesh
    state = result.final
    H_exact, _, _, _ = scenario.exact(mesh.nodes, state.t)
    num = np.sqrt(np.sum(mesh.dual_widths * (state.H - H_exact) ** 2))
    den = np.sqrt(np.sum(mesh.dual_widths * H_exact**2))
    return float(num / den)


@functools.cache
def solitary_l2_errors(pair_tag: str) -> np.ndarray:
    """Relative L2 depth errors of the traveling solitary wave on each of
    CONVERGENCE_MESHES at SOLITARY_T_END.

    Computed once per pair and process, as convergence_order and
    shape_preservation both read it; every caller gets the same read-only
    array.
    """
    params = PhysicalParams()
    errors = []
    for n in CONVERGENCE_MESHES:
        sc = make_solitary(n)
        pair = ElementPair(pair_tag, n)
        out = run(sc, params, t_end=SOLITARY_T_END, pair=pair)
        errors.append(relative_l2_depth_error(sc, out))
    errors = np.asarray(errors)
    errors.flags.writeable = False
    return errors


# -- criteria -----------------------------------------------------------------


def check_convergence_order() -> CheckResult:
    details = []
    ok = True
    for tag in PAIRS:
        errs = solitary_l2_errors(tag)
        # the least-squares slope of log error against log N, sign-flipped
        rate = -float(np.polyfit(np.log(CONVERGENCE_MESHES), np.log(errs), 1)[0])
        ok &= 0.8 <= rate <= 1.2
        details.append(f"{tag} rate {rate:.3f}")
    return CheckResult(
        "convergence_order",
        ok,
        "; ".join(details) + " (required in [0.8, 1.2] for both pairs)",
    )


def check_shape_preservation() -> CheckResult:
    ok = True
    details = []
    n_coarse, n_fine = CONVERGENCE_MESHES[-2], CONVERGENCE_MESHES[-1]
    for tag in PAIRS:
        errs = solitary_l2_errors(tag)
        predicted = errs[-2] * (n_coarse / n_fine)
        ok &= errs[-1] <= 2.0 * predicted
        ok &= bool(np.all(np.diff(errs) < 0.0))
        details.append(
            f"{tag} e({n_fine})={errs[-1]:.3e} vs 2x first-order "
            f"extrapolation {2.0 * predicted:.3e}"
        )
    return CheckResult("shape_preservation", ok, "; ".join(details))


def _divergence_runs():
    yield "solitary", make_solitary(501), 1.0, P1P0
    yield "dam_break", make_dam_break(1201), 5.0, P1P0
    yield "beach", make_beach(n_nodes=801), 4.0, P1P0
    yield "dingemans", make_dingemans(n_nodes=981), 4.0, P1ISOP2P1


def check_discrete_divergence() -> CheckResult:
    # a step whose correction misses its bound raises DivergenceBoundError
    # before its report exists: each such run is a FAIL named here
    worst = 0.0
    total = 0
    raised = []
    for name, sc, t_end, tag in _divergence_runs():
        pair = ElementPair(tag, sc.mesh.n_nodes)
        try:
            out = run(sc, PhysicalParams(h_eps=sc.h_eps), t_end=t_end, pair=pair)
        except DivergenceBoundError as err:
            raised.append(f"{name} raised {err}")
            continue
        total += len(out.reports)
        for r in out.reports:
            worst = max(worst, r.div_residual / r.div_bound)
    details = f"{total} steps over four scenarios, worst residual/bound = {worst:.3e}"
    return CheckResult(
        "discrete_divergence",
        worst <= 1.0 and not raised,
        "; ".join([details, *raised]),
    )


def check_wellbalanced_positivity() -> CheckResult:
    def lake_at_rest():
        # over the beach bathymetry: 1e-12 fixed point for 100 steps
        sc = make_beach(n_nodes=3000, amplitude=0.0)
        params = PhysicalParams(h_eps=sc.h_eps)
        state = sc.state0.copy()
        for _ in range(100):
            state = timeloop.step_euler(state, sc.mesh, sc.bathy, params, sc.bounds).state
        moved = (state.H - sc.state0.H, state.Hu, state.Hw)
        drift = max(float(np.abs(x).max()) for x in moved)
        return drift <= 1e-12, f"lake-at-rest drift over 100 steps {drift:.2e}"

    def random_steps():
        # positivity in 1000 random CFL steps
        rng = np.random.default_rng(2718)
        bl, br = BoundarySpec.walls().hyperbolic_at(0.0)
        h_eps = PhysicalParams().h_eps
        min_h = np.inf
        for _ in range(1000):
            n = int(rng.integers(8, 40))
            mesh = Mesh1D(np.cumsum(0.05 + rng.random(n)))
            bathy = Bathymetry.from_nodal(mesh, 0.5 * rng.standard_normal(n))
            H = np.where(rng.random(n) < 0.2, 0.0, 2.0 * rng.random(n))
            if not np.any(H >= h_eps):
                H[0] = 1.0
            u = np.where(H > 0, 2.0 * rng.standard_normal(n), 0.0)
            w = np.where(H > 0, rng.standard_normal(n), 0.0)
            st = FlowState(H, H * u, H * w)
            u, w, dt, speed = prediction_inputs(st, mesh, H >= h_eps)
            out = predict(st, u, w, mesh, bathy, bl, br, dt, speed)
            min_h = min(min_h, float(out.H.min()))
        return min_h >= 0.0, f"min depth over 1000 random steps {min_h:.2e}"

    def beach_run():
        # full wet/dry beach run (35 m, 3000 nodes, 0.2 m wave)
        sc = make_beach(n_nodes=3000, amplitude=0.2)
        mins = []
        run(sc, PhysicalParams(h_eps=sc.h_eps), t_end=10.5,
            on_step=lambda step: mins.append(float(step.state.H.min())))
        return min(mins) >= 0.0, f"min depth in the beach run {min(mins):.2e}"

    # predict clips a depth at 0 and raises RuntimeError on one below its
    # round-off, and a step beyond the CFL bound raises: a raise fails the part
    parts = []
    for part in (lake_at_rest, random_steps, beach_run):
        try:
            parts.append(part())
        except (RuntimeError, ValueError) as err:
            parts.append((False, f"{part.__name__.replace('_', ' ')} raised {err}"))
    ok = all(passed for passed, _ in parts)
    return CheckResult("wellbalanced_positivity", ok, "; ".join(note for _, note in parts))


def check_dam_break_plateau() -> CheckResult:
    n_nodes = 6000
    sc = make_dam_break(n_nodes)
    params = PhysicalParams()
    t_end = 45.0
    out = run(sc, params, t_end=t_end)
    h_left, h_right, x_dam = DAM_BREAK
    star = exact_sw_riemann(h_left, 0.0, h_right, 0.0)
    # center the 20 m window between the rarefaction tail and the shock
    tail = star.u_star - np.sqrt(G * star.h_star)
    shock = star.right_shock_speed()
    center = x_dam + 0.5 * (tail + shock) * t_end
    x = sc.mesh.nodes
    window = (x >= center - 10.0) & (x <= center + 10.0)
    state = out.final
    H_mean = float(state.H[window].mean())
    u = state.Hu[window] / state.H[window]
    u_mean = float(u.mean())
    dh = abs(H_mean - star.h_star) / star.h_star
    du = abs(u_mean - star.u_star) / abs(star.u_star)
    ok = dh <= 0.03 and du <= 0.03
    return CheckResult(
        "dam_break_plateau",
        ok,
        f"windowed means H {H_mean:.4f} (star {star.h_star:.4f}, dev {dh:.2%}), "
        f"u {u_mean:.4f} (star {star.u_star:.4f}, dev {du:.2%}) at N={n_nodes}",
    )


def check_heun_order() -> CheckResult:
    # temporal self-convergence on the solitary wave at a fixed fine mesh
    n = 601
    sc = make_solitary(n)
    params = PhysicalParams()
    state0 = project_state(sc.state0, sc.mesh, sc.bathy, params, sc.bounds)
    dt0 = 0.8 * cfl_dt(state0, sc.mesh, params)
    n_steps0 = 32
    # the ladder is only valid if every step takes exactly the dt it asks for
    dt_taken = True

    def march(dt, steps):
        nonlocal dt_taken
        st = state0.copy()
        for _ in range(steps):
            res = step_heun(st, sc.mesh, sc.bathy, params, sc.bounds, dt=dt)
            if res.report.dt != dt:
                dt_taken = False
            st = res.state
        return st

    # reference at one eighth of the finest ladder step
    ref = march(dt0 / 32.0, 32 * n_steps0)
    errors = []
    dts = []
    for k in range(3):
        dt = dt0 / 2**k
        st = march(dt, n_steps0 * 2**k)
        err = np.sqrt(
            np.sum(
                sc.mesh.dual_widths
                * ((st.H - ref.H) ** 2 + (st.Hu - ref.Hu) ** 2 + (st.Hw - ref.Hw) ** 2)
            )
        )
        errors.append(err)
        dts.append(dt)
    slope = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])
    ok = dt_taken and 1.7 <= slope <= 2.2
    details = f"self-convergence order {slope:.3f} (required in [1.7, 2.2])"
    if not dt_taken:
        details += "; a step_heun call did not take the requested dt"
    return CheckResult("heun_order", ok, details)


def check_mass_conservation() -> CheckResult:
    sc = make_solitary(501)
    params = PhysicalParams()
    state = sc.state0.copy()
    m0 = m_prev = total_mass(state, sc.mesh)
    worst = 0.0
    correction_exact = True
    for k in range(200):
        res = timeloop.step_euler(state, sc.mesh, sc.bathy, params, sc.bounds)
        worst = max(worst, abs(res.report.mass - m_prev) / m_prev)
        if k == 0:
            bc_l, bc_r = sc.bounds.hyperbolic_at(state.t)
            u, w, _, speed = prediction_inputs(state, sc.mesh, state.H >= params.h_eps)
            half = predict(state, u, w, sc.mesh, sc.bathy, bc_l, bc_r, res.report.dt, speed)
            correction_exact = bool(np.array_equal(res.state.H, half.H))
        state = res.state
        m_prev = res.report.mass
    # a leak of one ulp per step passes the per-step bound, not the run's
    drift, bound = abs(m_prev - m0) / m0, 4.0 * np.spacing(m0) / m0
    ok = worst <= 1e-12 and drift <= bound and correction_exact
    return CheckResult(
        "mass_conservation",
        ok,
        f"max per-step relative mass drift over 200 walled steps = {worst:.3e}; "
        f"whole-run relative drift = {drift:.3e} (bound 4 ulp = {bound:.3e}); "
        f"correction leaves the depth bit-identical: {correction_exact}",
    )


CRITERIA = {
    "convergence_order": check_convergence_order,
    "shape_preservation": check_shape_preservation,
    "discrete_divergence": check_discrete_divergence,
    "wellbalanced_positivity": check_wellbalanced_positivity,
    "dam_break_plateau": check_dam_break_plateau,
    "heun_order": check_heun_order,
    "mass_conservation": check_mass_conservation,
}


def run_criterion(name: str) -> CheckResult:
    if name not in CRITERIA:
        raise KeyError(f"unknown criterion {name!r}; known: {sorted(CRITERIA)}")
    return CRITERIA[name]()
