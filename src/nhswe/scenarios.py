"""Validation scenarios: analytic solutions, initializers, gauges.

The solitary wave is an exact traveling solution of the dispersive model
(on a flat bottom): a sech^2 depth profile of amplitude a over depth H0,

    H = H0 + a sech^2(theta),   theta = (x - c0 t) / l,
    u = c0 (1 - d / H),
    w = a c0 d / (l H) sech^2(theta) tanh(theta),
    p = a c0^2 d^2 / (2 l^2 H^2) ((2 H0 - H) sech'^2 + H sech sech''),

with l = sqrt(H0^3 / a + H0^2) and c0 = (l / d) sqrt(G H0^3 / (l^2 - H0^2)).
Dispersion balances nonlinearity, so the profile translates unchanged --
the scheme's shape preservation and convergence are measured against it.

The four make_* factories build the paper's fixed set-ups, all at the
flux's gravity G; only the values the benchmark and `verify` vary are
parameters.  An exact hydrostatic Riemann solver gives the dam-break star
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import G, Bathymetry, FlowState, Mesh1D, PhysicalParams
from .hyperbolic import HyperbolicBC
from .timeloop import BoundarySpec

# dam-break set-up: (h_left, h_right, x_dam)
DAM_BREAK = (1.8, 1.0, 300.0)
# solitary-wave reference depth H0 and scale depth d: the paper's 1 m, the
# same in every caller
SOLITARY_H0 = 1.0
SOLITARY_D = 1.0


def _check_input(name: str, value: float, rule: str = "finite and positive"):
    """Raise ValueError naming the scenario input unless value meets rule."""
    meets = {
        "finite": True,
        "finite and positive": value > 0.0,
        "finite and non-negative": value >= 0.0,
    }[rule]
    # a NaN fails every comparison, so finiteness is tested on its own
    if not (math.isfinite(value) and meets):
        raise ValueError(f"{name} must be {rule}, got {value!r}")


@dataclass(frozen=True)
class SolitaryWaveParams:
    """Amplitude a over the reference depth SOLITARY_H0, with scale depth
    SOLITARY_D (gravity G)."""

    a: float = 0.4

    def __post_init__(self):
        _check_input("amplitude a", self.a)

    @property
    def length_scale(self) -> float:
        return float(np.sqrt(SOLITARY_H0**3 / self.a + SOLITARY_H0**2))

    @property
    def celerity(self) -> float:
        l = self.length_scale
        return float(l / SOLITARY_D * np.sqrt(G * SOLITARY_H0**3 / (l**2 - SOLITARY_H0**2)))


def solitary_wave(x, t: float, params: SolitaryWaveParams):
    """Evaluate (H, u, w, p) of the solitary wave at positions x and time t."""
    x = np.asarray(x, dtype=float)
    l = params.length_scale
    c0 = params.celerity
    theta = (x - c0 * t) / l
    sech = 1.0 / np.cosh(theta)
    tanh = np.tanh(theta)
    H = SOLITARY_H0 + params.a * sech**2
    u = c0 * (1.0 - SOLITARY_D / H)
    sech_p = -sech * tanh
    sech_pp = sech - 2.0 * sech**3
    w = -params.a * c0 * SOLITARY_D / (l * H) * sech * sech_p
    p = (
        params.a
        * c0**2
        * SOLITARY_D**2
        / (2.0 * l**2 * H**2)
        * ((2.0 * SOLITARY_H0 - H) * sech_p**2 + H * sech * sech_pp)
    )
    return H, u, w, p


def dam_break_init(x, h_left: float, h_right: float, x_dam: float, eps: float):
    """Smoothed dam-break depth profile.

    H(x) = (h_left + h_right)/2 - (h_left - h_right)/2 * tanh((x - x_dam)/eps),
    which tends to h_left far left and h_right far right.
    """
    _check_input("h_left", h_left)
    _check_input("h_right", h_right)
    _check_input("x_dam", x_dam, "finite")
    _check_input("smoothing width eps", eps)
    x = np.asarray(x, dtype=float)
    s = np.tanh((x - x_dam) / eps)
    mid = 0.5 * (h_left + h_right)
    amp = 0.5 * (h_left - h_right)
    return mid - amp * s


# ---------------------------------------------------------------------------
# exact hydrostatic Riemann solution (acceptance oracle)
# ---------------------------------------------------------------------------


def _depth_fn(h: float, h_k: float) -> float:
    """Velocity jump absorbed by a wave connecting depth h_k to h."""
    if h <= h_k:
        return 2.0 * (np.sqrt(G * h) - np.sqrt(G * h_k))
    return (h - h_k) * np.sqrt(0.5 * G * (h + h_k) / (h * h_k))


@dataclass
class RiemannSolution:
    """Two-wave exact solution of the hydrostatic dam-break problem."""

    h_right: float
    u_right: float
    h_star: float
    u_star: float

    def right_is_shock(self) -> bool:
        return self.h_star > self.h_right

    def right_shock_speed(self) -> float:
        if not self.right_is_shock():
            raise ValueError("right wave is a rarefaction")
        return (self.h_star * self.u_star - self.h_right * self.u_right) / (
            self.h_star - self.h_right
        )


def exact_sw_riemann(h_left: float, u_left: float, h_right: float,
                     u_right: float) -> RiemannSolution:
    """Exact two-wave solution: the star depth is the root of the increasing
    sum of the two depth functions, found by Brent's method.

    Wet-wet data only; vacuum-forming data are rejected.
    """
    # scipy.optimize takes several times as long to import as nhswe itself,
    # so it is imported only here
    from scipy.optimize import brentq

    if h_left <= 0.0 or h_right <= 0.0:
        raise ValueError("exact_sw_riemann needs wet states on both sides")
    if u_right - u_left >= 2.0 * (np.sqrt(G * h_left) + np.sqrt(G * h_right)):
        raise ValueError("data produce a vacuum region")

    def phi(h):
        return _depth_fn(h, h_left) + _depth_fn(h, h_right) + u_right - u_left

    # phi(0) < 0 without vacuum; double hi until it brackets the root
    hi = max(h_left, h_right)
    while phi(hi) < 0.0:
        hi *= 2.0
    # the relative tolerance alone ends the iteration
    h = brentq(phi, 0.0, hi, xtol=np.finfo(float).tiny)
    u_star = 0.5 * (u_left + u_right) + 0.5 * (
        _depth_fn(h, h_right) - _depth_fn(h, h_left)
    )
    return RiemannSolution(h_right, u_right, float(h), float(u_star))


# ---------------------------------------------------------------------------
# gauges
# ---------------------------------------------------------------------------


@dataclass
class GaugeRecord:
    """Free-surface time series at one position."""

    position: float
    times: list[float] = field(default_factory=list)
    eta: list[float] = field(default_factory=list)


@dataclass
class GaugeSet:
    """Gauges bound to a mesh/bathymetry with linear interpolation of eta."""

    mesh: Mesh1D
    bathy: Bathymetry
    records: list[GaugeRecord]

    @classmethod
    def at(cls, mesh: Mesh1D, bathy: Bathymetry, positions) -> "GaugeSet":
        x0, x1 = mesh.nodes[0], mesh.nodes[-1]
        recs = []
        for p in positions:
            if not x0 <= p <= x1:
                raise ValueError(f"gauge position {p} outside [{x0}, {x1}]")
            recs.append(GaugeRecord(float(p)))
        return cls(mesh, bathy, recs)

    def reset(self):
        """Start every record afresh: empty series at the same positions.
        The old records are replaced, not emptied."""
        self.records = [GaugeRecord(rec.position) for rec in self.records]

    def record(self, state: FlowState):
        eta = state.H + self.bathy.zb
        for rec in self.records:
            rec.times.append(state.t)
            rec.eta.append(float(np.interp(rec.position, self.mesh.nodes, eta)))


# ---------------------------------------------------------------------------
# scenario bundles
# ---------------------------------------------------------------------------


@dataclass
class Scenario:
    """Everything a run needs: mesh, bottom, initial state, boundaries."""

    mesh: Mesh1D
    bathy: Bathymetry
    state0: FlowState
    bounds: BoundarySpec
    gauges: GaugeSet | None = None
    exact: Callable | None = None
    h_eps: float = PhysicalParams.h_eps


def sine_flux_wavemaker(amplitude: float, depth: float, period: float,
                        pulse: bool = False):
    """Inflow discharge from linear wave theory, q(t) = A sqrt(G H0) sin(2 pi t / T).

    The corresponding surface signal is eta(t) = eta0 + A sin(2 pi t / T).
    With pulse=True only the first positive half period is emitted.
    """
    _check_input("amplitude", amplitude, "finite")
    _check_input("depth", depth)
    _check_input("period", period)
    scale = amplitude * np.sqrt(G * depth)

    def q_of_t(t: float) -> HyperbolicBC:
        phase = 2.0 * np.pi * t / period
        q1 = scale * np.sin(phase)
        if pulse and t >= 0.5 * period:
            q1 = 0.0
        return HyperbolicBC("imposed_flux", q0=(q1, 0.0))

    return q_of_t


def make_solitary(n_nodes: int, x_start: float = 11.0, a: float = 0.4) -> Scenario:
    """Solitary wave of amplitude a, crest at x_start, in a closed 45 m basin.

    Flat bottom, H0 = d = 1 m, walls at both ends; exact solution attached.
    """
    _check_input("x_start", x_start, "finite")
    mesh = Mesh1D.uniform(0.0, 45.0, n_nodes)
    bathy = Bathymetry.flat(mesh)
    params = SolitaryWaveParams(a)
    # the crest starts at x_start: evaluate the profile in shifted coordinates
    H, u, w, _ = solitary_wave(mesh.nodes - x_start, 0.0, params)
    state = FlowState(H, H * u, H * w, 0.0)

    def exact_shifted(x, t):
        return solitary_wave(np.asarray(x, dtype=float) - x_start, t, params)

    return Scenario(
        mesh=mesh,
        bathy=bathy,
        state0=state,
        bounds=BoundarySpec.walls(),
        exact=exact_shifted,
    )


def make_dam_break(n_nodes: int) -> Scenario:
    """Dam break DAM_BREAK (1.8 | 1.0 m at x = 300 m) on a flat 600 m channel.

    The jump is smoothed over 1e-4 m; both ends are free outflows.
    """
    mesh = Mesh1D.uniform(0.0, 600.0, n_nodes)
    bathy = Bathymetry.flat(mesh)
    H = dam_break_init(mesh.nodes, *DAM_BREAK, 1e-4)
    state = FlowState(H, np.zeros_like(H), np.zeros_like(H), 0.0)
    return Scenario(
        mesh=mesh,
        bathy=bathy,
        state0=state,
        bounds=BoundarySpec.open(),
    )


def make_beach(
    n_nodes: int = 3000, amplitude: float = 0.2, pulse_period: float = 4.0
) -> Scenario:
    """Wave running up a plane beach with a wet/dry shoreline.

    35 m flume, 1 m offshore depth, a 0.15 slope rising from x = 25 m and
    h_eps = 1e-6; the left wavemaker sends a single pulse of surface
    amplitude `amplitude` (zero amplitude gives the lake at rest), the right
    end is a free outflow.
    """
    _check_input("amplitude", amplitude, "finite and non-negative")
    _check_input("pulse_period", pulse_period)
    mesh = Mesh1D.uniform(0.0, 35.0, n_nodes)
    zb = np.maximum(0.0, 0.15 * (mesh.nodes - 25.0))
    bathy = Bathymetry.from_nodal(mesh, zb)
    H = np.maximum(1.0 - zb, 0.0)
    state = FlowState(H, np.zeros_like(H), np.zeros_like(H), 0.0)
    if amplitude > 0.0:
        left = sine_flux_wavemaker(amplitude, 1.0, pulse_period, pulse=True)
    else:
        left = HyperbolicBC("imposed_flux", q0=(0.0, 0.0))
    bounds = BoundarySpec(left=left, right=HyperbolicBC("free_outflow"))
    return Scenario(
        mesh=mesh,
        bathy=bathy,
        state0=state,
        bounds=bounds,
        h_eps=1e-6,
    )


DINGEMANS_GAUGES = (10.5, 12.5, 13.5, 14.5, 15.7, 17.3)


def make_dingemans(
    n_nodes: int = 15001, period: float = 2.02, amplitude: float = 0.02
) -> Scenario:
    """Small-amplitude wave over a submerged trapezoidal bar with gauges.

    49 m flume, still water 0.4 m deep.  The bar has its toe at 6 m, a 1:20
    front slope up to a 0.3 m high crest (0.1 m below the still water line)
    from 12 to 14 m, and a 1:10 back slope down to 17 m.  A sinusoidal
    wavemaker (period, amplitude) runs at the left boundary and the right
    boundary is a free outflow.
    """
    mesh = Mesh1D.uniform(0.0, 49.0, n_nodes)
    x = mesh.nodes
    x0, x1, x2, x3 = 6.0, 12.0, 14.0, 17.0
    zb = np.zeros_like(x)
    up = (x >= x0) & (x < x1)
    zb[up] = 0.3 * (x[up] - x0) / (x1 - x0)
    zb[(x >= x1) & (x <= x2)] = 0.3
    down = (x > x2) & (x < x3)
    zb[down] = 0.3 * (x3 - x[down]) / (x3 - x2)
    bathy = Bathymetry.from_nodal(mesh, zb)
    H = np.maximum(0.4 - zb, 0.0)
    state = FlowState(H, np.zeros_like(H), np.zeros_like(H), 0.0)
    bounds = BoundarySpec(
        left=sine_flux_wavemaker(amplitude, 0.4, period),
        right=HyperbolicBC("free_outflow"),
    )
    gauges = GaugeSet.at(mesh, bathy, DINGEMANS_GAUGES)
    return Scenario(
        mesh=mesh,
        bathy=bathy,
        state0=state,
        bounds=bounds,
        gauges=gauges,
    )
