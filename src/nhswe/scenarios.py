"""Validation scenarios: analytic solutions, initializers, gauges.

The solitary wave is an exact traveling solution of the dispersive model
(on a flat bottom): a sech^2 depth profile of amplitude a over depth H0,

    H = H0 + a sech^2(theta),   theta = (x - c0 t) / l,
    u = c0 (1 - d / H),
    w = a c0 d / (l H) sech^2(theta) tanh(theta),
    p = a c0^2 d^2 / (2 l^2 H^2) ((2 H0 - H) sech'^2 + H sech sech''),

with l = sqrt(H0^3 / a + H0^2) and c0 = (l / d) sqrt(g H0^3 / (l^2 - H0^2)).
Dispersion balances nonlinearity, so the profile translates unchanged --
the scheme's shape preservation and convergence are measured against it.

The dam-break, sloping-beach and submerged-bar (wave flume) set-ups plus
an exact hydrostatic Riemann solver (test oracle) complete the suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import Bathymetry, FlowState, Mesh1D
from .hyperbolic import HyperbolicBC
from .timeloop import BoundarySpec

DEFAULT_G = 9.81


@dataclass(frozen=True)
class SolitaryWaveParams:
    """Amplitude a, reference depth H0, scale depth d, gravity g."""

    a: float = 0.4
    h0: float = 1.0
    d: float = 1.0
    g: float = DEFAULT_G

    def __post_init__(self):
        if self.a <= 0.0 or self.h0 <= 0.0:
            raise ValueError("amplitude and reference depth must be positive")

    @property
    def length_scale(self) -> float:
        return float(np.sqrt(self.h0**3 / self.a + self.h0**2))

    @property
    def celerity(self) -> float:
        l = self.length_scale
        return float(l / self.d * np.sqrt(self.g * self.h0**3 / (l**2 - self.h0**2)))


def solitary_wave(x, t: float, params: SolitaryWaveParams):
    """Evaluate (H, u, w, p) of the solitary wave at positions x and time t."""
    x = np.asarray(x, dtype=float)
    l = params.length_scale
    c0 = params.celerity
    theta = (x - c0 * t) / l
    sech = 1.0 / np.cosh(theta)
    tanh = np.tanh(theta)
    H = params.h0 + params.a * sech**2
    u = c0 * (1.0 - params.d / H)
    sech_p = -sech * tanh
    sech_pp = sech - 2.0 * sech**3
    w = -params.a * c0 * params.d / (l * H) * sech * sech_p
    p = (
        params.a
        * c0**2
        * params.d**2
        / (2.0 * l**2 * H**2)
        * ((2.0 * params.h0 - H) * sech_p**2 + H * sech * sech_pp)
    )
    return H, u, w, p


def dam_break_init(x, h_left: float, h_right: float, x_dam: float, eps: float):
    """Smoothed dam-break depth profile.

    H(x) = (h_left + h_right)/2 - (h_left - h_right)/2 * tanh((x - x_dam)/eps),
    which tends to h_left far left and h_right far right.
    """
    if h_left <= 0.0 or h_right <= 0.0:
        raise ValueError("dam-break depths must be positive")
    if eps <= 0.0:
        raise ValueError("smoothing width must be positive")
    x = np.asarray(x, dtype=float)
    s = np.tanh((x - x_dam) / eps)
    mid = 0.5 * (h_left + h_right)
    amp = 0.5 * (h_left - h_right)
    return mid - amp * s


# ---------------------------------------------------------------------------
# exact hydrostatic Riemann solution (acceptance oracle)
# ---------------------------------------------------------------------------


def _depth_fn(h: float, h_k: float, g: float) -> float:
    """Velocity jump absorbed by a wave connecting depth h_k to h."""
    if h <= h_k:
        return 2.0 * (np.sqrt(g * h) - np.sqrt(g * h_k))
    return (h - h_k) * np.sqrt(0.5 * g * (h + h_k) / (h * h_k))


@dataclass
class RiemannSolution:
    """Two-wave exact solution of the hydrostatic dam-break problem."""

    h_left: float
    u_left: float
    h_right: float
    u_right: float
    g: float
    h_star: float
    u_star: float

    def left_is_shock(self) -> bool:
        return self.h_star > self.h_left

    def right_is_shock(self) -> bool:
        return self.h_star > self.h_right

    def right_shock_speed(self) -> float:
        if not self.right_is_shock():
            raise ValueError("right wave is a rarefaction")
        return (self.h_star * self.u_star - self.h_right * self.u_right) / (
            self.h_star - self.h_right
        )

    def left_shock_speed(self) -> float:
        if not self.left_is_shock():
            raise ValueError("left wave is a rarefaction")
        return (self.h_star * self.u_star - self.h_left * self.u_left) / (
            self.h_star - self.h_left
        )

    def sample(self, xi):
        """State (H, u) along rays x/t = xi."""
        xi = np.asarray(xi, dtype=float)
        g = self.g
        H = np.empty_like(xi)
        u = np.empty_like(xi)
        cl = np.sqrt(g * self.h_left)
        cr = np.sqrt(g * self.h_right)
        cs = np.sqrt(g * self.h_star)

        if self.left_is_shock():
            sl = self.left_shock_speed()
            left_zone = xi < sl
            star_left = ~left_zone
        else:
            head = self.u_left - cl
            tail = self.u_star - cs
            left_zone = xi < head
            fan = (xi >= head) & (xi < tail)
            star_left = xi >= tail
            u[fan] = (self.u_left + 2.0 * cl + 2.0 * xi[fan]) / 3.0
            cfan = u[fan] - xi[fan]
            H[fan] = cfan**2 / g
        if self.right_is_shock():
            sr = self.right_shock_speed()
            right_zone = xi >= sr
            star_right = ~right_zone
        else:
            head = self.u_right + cr
            tail = self.u_star + cs
            right_zone = xi >= head
            fan = (xi >= tail) & (xi < head)
            star_right = xi < tail
            u[fan] = (self.u_right - 2.0 * cr + 2.0 * xi[fan]) / 3.0
            cfan = xi[fan] - u[fan]
            H[fan] = cfan**2 / g

        H[left_zone] = self.h_left
        u[left_zone] = self.u_left
        H[right_zone] = self.h_right
        u[right_zone] = self.u_right
        star = star_left & star_right
        H[star] = self.h_star
        u[star] = self.u_star
        return H, u


def exact_sw_riemann(
    h_left: float, u_left: float, h_right: float, u_right: float, g: float = DEFAULT_G
) -> RiemannSolution:
    """Exact two-wave solution by Newton iteration on the depth functions.

    Wet-wet data only; vacuum-forming data are rejected.
    """
    if h_left <= 0.0 or h_right <= 0.0:
        raise ValueError("exact_sw_riemann needs wet states on both sides")
    if u_right - u_left >= 2.0 * (np.sqrt(g * h_left) + np.sqrt(g * h_right)):
        raise ValueError("data produce a vacuum region")

    def phi(h):
        return _depth_fn(h, h_left, g) + _depth_fn(h, h_right, g) + u_right - u_left

    # two-rarefaction estimate, then safeguarded Newton
    h = (0.25 * (np.sqrt(g * h_left) + np.sqrt(g * h_right) - 0.5 * (u_right - u_left)) ** 2) / g * 4.0
    h = max(h, 1e-12)
    lo, hi = 1e-14, max(4.0 * max(h_left, h_right), h * 4.0)
    while phi(hi) < 0.0:
        hi *= 2.0
    for _ in range(100):
        f = phi(h)
        if f > 0.0:
            hi = min(hi, h)
        else:
            lo = max(lo, h)
        df = (phi(h * (1.0 + 1e-8)) - f) / (h * 1e-8)
        step = f / df if df != 0.0 else 0.0
        h_new = h - step
        if not lo < h_new < hi:
            h_new = 0.5 * (lo + hi)
        if abs(h_new - h) <= 1e-14 * h_new:
            h = h_new
            break
        h = h_new
    u_star = 0.5 * (u_left + u_right) + 0.5 * (
        _depth_fn(h, h_right, g) - _depth_fn(h, h_left, g)
    )
    return RiemannSolution(h_left, u_left, h_right, u_right, g, float(h), float(u_star))


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

    def record(self, state: FlowState):
        eta = state.H + self.bathy.zb
        for rec in self.records:
            value = float(np.interp(rec.position, self.mesh.nodes, eta))
            if rec.times and state.t <= rec.times[-1]:
                continue
            rec.times.append(state.t)
            rec.eta.append(value)


# ---------------------------------------------------------------------------
# scenario bundles
# ---------------------------------------------------------------------------


@dataclass
class Scenario:
    """Everything a run needs: mesh, bottom, initial state, boundaries."""

    name: str
    mesh: Mesh1D
    bathy: Bathymetry
    state0: FlowState
    bounds: BoundarySpec
    gauges: GaugeSet | None = None
    exact: Callable | None = None
    h_eps: float = 1e-8


def sine_flux_wavemaker(amplitude: float, depth: float, period: float,
                        g: float = DEFAULT_G, pulse: bool = False):
    """Inflow discharge from linear wave theory, q(t) = A sqrt(g H0) sin(2 pi t / T).

    The corresponding surface signal is eta(t) = eta0 + A sin(2 pi t / T).
    With pulse=True only the first positive half period is emitted.
    """
    scale = amplitude * np.sqrt(g * depth)

    def q_of_t(t: float) -> HyperbolicBC:
        phase = 2.0 * np.pi * t / period
        q1 = scale * np.sin(phase)
        if pulse and t >= 0.5 * period:
            q1 = 0.0
        return HyperbolicBC("imposed_flux", "in", q0=(q1, 0.0))

    return q_of_t


def make_solitary(
    n_nodes: int,
    length: float = 45.0,
    x_start: float = 11.0,
    a: float = 0.4,
    h0: float = 1.0,
    d: float = 1.0,
    g: float = DEFAULT_G,
) -> Scenario:
    """Solitary wave in a closed basin; exact solution attached."""
    mesh = Mesh1D.uniform(0.0, length, n_nodes)
    bathy = Bathymetry.flat(mesh)
    params = SolitaryWaveParams(a, h0, d, g)
    # the crest starts at x_start: evaluate the profile in shifted coordinates
    H, u, w, _ = solitary_wave(mesh.nodes - x_start, 0.0, params)
    state = FlowState(H, H * u, H * w, 0.0)

    def exact_shifted(x, t):
        return solitary_wave(np.asarray(x, dtype=float) - x_start, t, params)

    return Scenario(
        name="solitary_wave",
        mesh=mesh,
        bathy=bathy,
        state0=state,
        bounds=BoundarySpec.walls(),
        exact=exact_shifted,
    )


def make_dam_break(
    n_nodes: int,
    length: float = 600.0,
    h_left: float = 1.8,
    h_right: float = 1.0,
    x_dam: float = 300.0,
    eps: float = 1e-4,
) -> Scenario:
    """Smoothed dam break on a flat bottom, free outflow far boundaries."""
    mesh = Mesh1D.uniform(0.0, length, n_nodes)
    bathy = Bathymetry.flat(mesh)
    H = dam_break_init(mesh.nodes, h_left, h_right, x_dam, eps)
    state = FlowState(H, np.zeros_like(H), np.zeros_like(H), 0.0)
    return Scenario(
        name="dam_break",
        mesh=mesh,
        bathy=bathy,
        state0=state,
        bounds=BoundarySpec.open(),
    )


def make_beach(
    n_nodes: int = 3000,
    length: float = 35.0,
    h0: float = 1.0,
    amplitude: float = 0.2,
    toe: float = 25.0,
    slope: float = 0.15,
    pulse_period: float = 4.0,
    g: float = DEFAULT_G,
    h_eps: float = 1e-6,
) -> Scenario:
    """Wave running up a plane beach with a wet/dry shoreline.

    Offshore depth h0, linear beach starting at `toe`; the left wavemaker
    sends a single pulse of surface amplitude `amplitude` (zero amplitude
    gives the lake at rest).
    """
    mesh = Mesh1D.uniform(0.0, length, n_nodes)
    zb = np.maximum(0.0, slope * (mesh.nodes - toe))
    bathy = Bathymetry.from_nodal(mesh, zb)
    H = np.maximum(h0 - zb, 0.0)
    state = FlowState(H, np.zeros_like(H), np.zeros_like(H), 0.0)
    if amplitude > 0.0:
        left = sine_flux_wavemaker(amplitude, h0, pulse_period, g, pulse=True)
    else:
        left = HyperbolicBC("imposed_flux", "in", q0=(0.0, 0.0))
    bounds = BoundarySpec(left=left, right=HyperbolicBC("free_outflow", "out"))
    return Scenario(
        name="beach",
        mesh=mesh,
        bathy=bathy,
        state0=state,
        bounds=bounds,
        h_eps=h_eps,
    )


DINGEMANS_GAUGES = (10.5, 12.5, 13.5, 14.5, 15.7, 17.3)


def make_dingemans(
    n_nodes: int = 15001,
    length: float = 49.0,
    eta0: float = 0.4,
    period: float = 2.02,
    amplitude: float = 0.02,
    bar_geometry: tuple[float, float, float, float] = (6.0, 12.0, 14.0, 17.0),
    crest_height: float = 0.3,
    g: float = DEFAULT_G,
) -> Scenario:
    """Small-amplitude wave over a submerged trapezoidal bar with gauges.

    Default bar: toe at 6 m, 1:20 front slope up to a crest 0.1 m below the
    still water line, 1:10 back slope (geometry configurable).  A sinusoidal
    wavemaker (T, A) runs at the left boundary and the right boundary is a
    free outflow.
    """
    x0, x1, x2, x3 = bar_geometry
    if not 0.0 < x0 < x1 <= x2 < x3 < length:
        raise ValueError("bar geometry must be ordered inside the domain")
    mesh = Mesh1D.uniform(0.0, length, n_nodes)
    x = mesh.nodes
    zb = np.zeros_like(x)
    up = (x >= x0) & (x < x1)
    zb[up] = crest_height * (x[up] - x0) / (x1 - x0)
    zb[(x >= x1) & (x <= x2)] = crest_height
    down = (x > x2) & (x < x3)
    zb[down] = crest_height * (x3 - x[down]) / (x3 - x2)
    bathy = Bathymetry.from_nodal(mesh, zb)
    H = np.maximum(eta0 - zb, 0.0)
    state = FlowState(H, np.zeros_like(H), np.zeros_like(H), 0.0)
    bounds = BoundarySpec(
        left=sine_flux_wavemaker(amplitude, eta0, period, g),
        right=HyperbolicBC("free_outflow", "out"),
    )
    gauges = GaugeSet.at(mesh, bathy, DINGEMANS_GAUGES)
    return Scenario(
        name="dingemans",
        mesh=mesh,
        bathy=bathy,
        state0=state,
        bounds=bounds,
        gauges=gauges,
    )
