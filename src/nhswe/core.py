"""Meshes, flow state, bathymetry and conservation diagnostics.

State variables live at the mesh nodes: water depth H, horizontal
discharge Hu and vertical discharge Hw.  Finite-volume cells are node
centered (dual cells); the two boundary cells are half elements so the
dual widths sum to the domain length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


# gravity (m/s^2) of the flux, the energy and every scenario
G = 9.81


class DryDomainError(ValueError):
    """Raised when an operation needs at least one wet cell and finds none."""


class TorrentialBoundaryError(ValueError):
    """Raised when a boundary closure is requested in a supercritical regime."""


class CFLViolationError(ValueError):
    """Raised when a time step exceeds the CFL bound of the state it advances."""


class DivergenceBoundError(RuntimeError):
    """Raised when a corrected velocity misses its divergence residual bound."""


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return arr


def _read_only(a):
    """Lock an array against in-place writes (scalars pass through)."""
    if isinstance(a, np.ndarray):
        a.setflags(write=False)
    return a


def _finite_array(values, name: str) -> np.ndarray:
    arr = _as_float_array(values, name)
    # a NaN passes every "<= 0" test, so finiteness is checked on its own
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass
class Mesh1D:
    """1D node mesh with element widths and node-centered dual cells.

    ``element_widths[i] = nodes[i+1] - nodes[i]`` and the dual width of an
    interior node is the mean of its two element widths; boundary nodes get
    half an element, so the dual widths sum to ``nodes[-1] - nodes[0]``.
    ``min_width`` is the smallest element width, the length scale of every
    CFL step on the mesh.  The operator geometry of each element pair on
    this mesh is built on first use and kept in ``_geometry`` (owned by
    femops), so it lives as long as the mesh.
    """

    nodes: np.ndarray
    element_widths: np.ndarray = field(init=False)
    dual_widths: np.ndarray = field(init=False)
    min_width: float = field(init=False)
    _geometry: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.nodes = _finite_array(self.nodes, "nodes")
        if self.nodes.size < 2:
            raise ValueError("mesh needs at least two nodes")
        widths = np.diff(self.nodes)
        if np.any(widths <= 0.0):
            raise ValueError("node coordinates must be strictly increasing")
        self.element_widths = widths
        self.min_width = float(widths.min())
        dual = np.empty(self.nodes.size)
        dual[0] = 0.5 * widths[0]
        dual[-1] = 0.5 * widths[-1]
        dual[1:-1] = 0.5 * (widths[:-1] + widths[1:])
        self.dual_widths = dual

    @classmethod
    def uniform(cls, x_min: float, x_max: float, n_nodes: int) -> "Mesh1D":
        return cls(np.linspace(x_min, x_max, n_nodes))

    @property
    def n_nodes(self) -> int:
        return self.nodes.size


@dataclass
class FlowState:
    """Nodal conserved variables (H, Hu, Hw) at time t."""

    H: np.ndarray
    Hu: np.ndarray
    Hw: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.H = _as_float_array(self.H, "H")
        self.Hu = _as_float_array(self.Hu, "Hu")
        self.Hw = _as_float_array(self.Hw, "Hw")
        if not (self.H.size == self.Hu.size == self.Hw.size):
            raise ValueError("H, Hu, Hw must have equal lengths")

    @property
    def n_nodes(self) -> int:
        return self.H.size

    def copy(self) -> "FlowState":
        return FlowState(self.H.copy(), self.Hu.copy(), self.Hw.copy(), self.t)

    def velocities(self, wet: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(u, w) with the nodes outside wet forced to zero velocity.

        wet is this state's own mask H >= h_eps, which the caller computes
        once and reads elsewhere too.
        """
        u = np.zeros_like(self.H)
        w = np.zeros_like(self.H)
        np.divide(self.Hu, self.H, out=u, where=wet)
        np.divide(self.Hw, self.H, out=w, where=wet)
        return u, w


@dataclass(frozen=True, eq=False)
class Bathymetry:
    """Nodal bottom elevation zb, finite everywhere.

    zb is the bathymetry's own read-only copy, and the bottom-only terms of
    a step are kept on the bathymetry, each built on first use: `nonzero`
    (some zb is not 0), `two_zb` (2 zb, the bottom part of zeta = H + 2 zb)
    and `zbe` (zb extended by one ghost node per side).  They are read-only
    and the dataclass is frozen, so no write can leave a kept term stale.
    Two bathymetries are equal only if they are the same object.
    """

    zb: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "zb", _read_only(_finite_array(self.zb, "zb").copy()))

    @cached_property
    def nonzero(self) -> bool:
        return bool(self.zb.any())

    @cached_property
    def two_zb(self) -> np.ndarray:
        return _read_only(2.0 * self.zb)

    @cached_property
    def zbe(self) -> np.ndarray:
        """zb with a ghost node per side that copies the edge value, so the
        reconstruction at a boundary interface is the identity."""
        zb = self.zb
        return _read_only(np.concatenate(([zb[0]], zb, [zb[-1]])))

    @classmethod
    def flat(cls, mesh: Mesh1D) -> "Bathymetry":
        return cls(np.zeros(mesh.n_nodes))

    @classmethod
    def from_nodal(cls, mesh: Mesh1D, zb) -> "Bathymetry":
        bathy = cls(zb)
        if bathy.zb.size != mesh.n_nodes:
            raise ValueError("bathymetry/mesh size mismatch")
        return bathy


@dataclass
class PhysicalParams:
    """The dry threshold: a node with H < h_eps is dry."""

    h_eps: float = 1e-8

    def __post_init__(self):
        # a NaN fails every comparison, so test finiteness first
        if not (math.isfinite(self.h_eps) and self.h_eps > 0.0):
            raise ValueError(f"h_eps must be finite and positive, got {self.h_eps!r}")


def _check_sizes(state: FlowState, mesh: Mesh1D):
    if state.n_nodes != mesh.n_nodes:
        raise ValueError(
            f"state has {state.n_nodes} nodes, mesh has {mesh.n_nodes}"
        )


def total_mass(state: FlowState, mesh: Mesh1D) -> float:
    """Water area sum(dx_i * H_i), the conserved quantity of the depth equation."""
    _check_sizes(state, mesh)
    return float(np.sum(mesh.dual_widths * state.H))


def total_energy(state: FlowState, mesh: Mesh1D, bathy: Bathymetry) -> float:
    """Discrete total energy sum(dx_i * E_i).

    E = H (u^2 + w^2) / 2 + G H (eta + zb) / 2 with eta = H + zb, so the
    potential part reads G H (H + 2 zb) / 2.  Dry nodes contribute no
    kinetic energy.
    """
    _check_sizes(state, mesh)
    if bathy.zb.size != state.n_nodes:
        raise ValueError("bathymetry/state size mismatch")
    wet = state.H > 0.0
    kinetic = np.zeros_like(state.H)
    np.divide(state.Hu**2 + state.Hw**2, state.H, out=kinetic, where=wet)
    density = 0.5 * kinetic + 0.5 * G * state.H * (state.H + bathy.two_zb)
    return float(np.sum(mesh.dual_widths * density))
