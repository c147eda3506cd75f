"""Explicit hydrostatic prediction step.

Finite-volume update of the Saint-Venant subsystem

    dH/dt  + d(Hu)/dx                     = 0
    dHu/dt + d(Hu^2 + G H^2 / 2)/dx       = -G H dzb/dx
    dHw/dt + d(Hw u)/dx                   = 0

on node-centered dual cells, with gravity G.  Interface fluxes come from a
kinetic solver with a compactly supported equilibrium,

    M(xi) = H / (2 sqrt(3) c) for |xi - u| <= sqrt(3) c,  c = sqrt(G H / 2),

whose half-space moments are closed-form polynomials in (u, c).  Topography
enters through hydrostatic reconstruction of the interface depths, which
keeps the lake at rest exact and the depths non-negative under the CFL
condition; the CFL number is the constant CFL.  The vertical discharge Hw
rides along as a passive scalar upwinded by the sign of the mass flux.

The flux takes each interface state as (H, u): the reconstructed depth and
the nodal velocity of the node it was reconstructed from.  Reconstruction
changes the depth, not the velocity, so no discharge H u is formed only to
be divided back out.  A dry state (H = 0) needs no velocity mask: its
support has height k = 0, and each half flux it enters is either 0 or its
exact-flux patch H u = 0, whatever its u (as long as u^2 is finite).  The
height k = H / max(2 sqrt(3) c, 1e-300) needs no mask either: the floor
only ever meets a dry state (see _equilibrium_support).

On a bottom that is zero everywhere, the reconstruction max(0, H + 0 - 0)
is max(0, H): the interface states are the extended nodes' own states, so
predict evaluates each node's support once and lets it serve both of the
node's interfaces, and one nodal G H^2 / 2 serves both correction terms.
It builds no interface depths there and calls neither
hydrostatic_reconstruct nor kinetic_flux; the bits are those of the
reconstructed path.  A flat bottom at a nonzero height z keeps the
reconstructed path: H + z - z is not H exactly in floating point.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    G,
    Bathymetry,
    CFLViolationError,
    DryDomainError,
    FlowState,
    Mesh1D,
    PhysicalParams,
    TorrentialBoundaryError,
)

_SQRT3 = np.sqrt(3.0)


@dataclass(frozen=True)
class HyperbolicBC:
    """Boundary condition for the hydrostatic step.

    kind: "imposed_flux" (carries finite q0=(q01, q02)), "imposed_depth"
    (carries a finite h_given > 0), "free_outflow", or "wall".  The data
    are keyword-only and a kind takes no data it does not read.  The
    condition holds no side: the slot it fills (BoundarySpec.left/right,
    predict's bc_in/bc_out) is its side.  Boundary data is checked here,
    once.
    """

    kind: str
    _: KW_ONLY
    q0: tuple[float, float] | None = None
    h_given: float | None = None

    def __post_init__(self):
        if self.kind not in ("imposed_flux", "imposed_depth", "free_outflow", "wall"):
            raise ValueError(f"unknown boundary kind {self.kind!r}")
        if self.kind == "imposed_flux":
            if self.q0 is None or len(self.q0) != 2:
                raise ValueError("imposed_flux requires both components of q0")
            if not all(math.isfinite(q) for q in self.q0):
                raise ValueError(f"q0 must be finite, got {self.q0!r}")
        elif self.q0 is not None:
            raise ValueError(f"q0 is imposed_flux data, not {self.kind} data")
        if self.kind == "imposed_depth":
            if self.h_given is None:
                raise ValueError("imposed_depth requires h_given")
            if not (math.isfinite(self.h_given) and self.h_given > 0.0):
                raise ValueError(f"h_given must be finite and positive, got {self.h_given!r}")
        elif self.h_given is not None:
            raise ValueError(f"h_given is imposed_depth data, not {self.kind} data")


class GhostState(NamedTuple):
    H: float
    u: float
    w: float


def _equilibrium_support(H):
    """Half-width s = sqrt(3) c of the equilibrium's support and its height k.

    The floor on the divisor only acts on a dry state, where it gives k = 0:
    since G >= 1, for any H > 0, even the smallest subnormal, 0.5 G H does
    not underflow, so 2 sqrt(3) c >= ~5e-162 lies far above 1e-300.
    """
    c = np.multiply(0.5 * G, H)
    np.sqrt(c, out=c)
    k = np.multiply(2.0 * _SQRT3, c)
    np.maximum(k, 1e-300, out=k)
    np.divide(H, k, out=k)
    c *= _SQRT3
    return c, k


def _half_flux(H, u, s, k, sign):
    """F+ (sign 1) or F- (sign -1) = (F_H, F_Hu), the sign xi > 0 moments of
    the kinetic equilibrium of the states (H, u) with support (s, k) =
    _equilibrium_support(H).

    F- is F+ mirrored, F-(H, u) = (-F+_H, F+_Hu)(H, -u), and F+ + F- equals
    the exact flux (Hu, Hu^2 + G H^2 / 2).  sign is a scalar; no array is
    multiplied by it.
    """
    b = u + s if sign > 0 else u - s  # the support's edge on the sign side
    # the support's other edge, in the buffer f_Hu takes below
    f_Hu = np.subtract(u, s) if sign > 0 else np.add(u, s)
    # a support wholly on the sign side gives the exact flux, one wholly on
    # the other side none.  A dry state at rest (s = 0, u = +-0) is both:
    # F+ ends on the zero patch and F- on H u, which keeps the sign of u
    if sign > 0:
        patches = ((f_Hu >= 0.0, True), (b <= 0.0, False))
    else:
        patches = ((b >= 0.0, False), (f_Hu <= 0.0, True))
    # generic subsonic expression; the one-sided-support cases are patched
    f_H = np.multiply(0.5 * sign, k)
    f_H *= b
    f_H *= b
    np.multiply(f_H, b, out=f_Hu)
    f_Hu *= 2.0 / 3.0
    for mask, exact in patches:
        if not mask.any():
            continue
        if exact:
            Hm, um = H[mask], u[mask]
            q = Hm * um
            f_H[mask] = q
            q *= um
            q += 0.5 * G * Hm * Hm
            f_Hu[mask] = q
        else:
            f_H[mask] = f_Hu[mask] = 0.0
    return f_H, f_Hu


def kinetic_flux(xl, xr):
    """Kinetic interface flux F+(XL) + F-(XR) for states given as (H, u).

    Each component is a float array with one entry per interface; u is a
    velocity, not a discharge.  Consistent (equal states reproduce the
    exact flux (Hu, Hu^2 + G H^2 / 2)) and conservative.  A dry state
    (H = 0) contributes zero flux whatever its u (u^2 finite), because its
    support height k is 0, so callers pass velocities unmasked.
    """
    HL, uL = xl
    HR, uR = xr
    if HL.min() < 0.0 or HR.min() < 0.0:
        raise ValueError("kinetic_flux requires non-negative depths")
    F_H, F_Hu = _half_flux(HL, uL, *_equilibrium_support(HL), 1)
    fm_H, fm_Hu = _half_flux(HR, uR, *_equilibrium_support(HR), -1)
    F_H += fm_H
    F_Hu += fm_Hu
    return F_H, F_Hu


def _node_flux(H, u):
    """Kinetic flux F+(node i) + F-(node i + 1) between consecutive node
    states (H, u), non-negative depths with one support per node: the
    interfaces of a zero bottom (module docstring)."""
    s, k = _equilibrium_support(H)
    F_H, F_Hu = _half_flux(H[:-1], u[:-1], s[:-1], k[:-1], 1)
    fm_H, fm_Hu = _half_flux(H[1:], u[1:], s[1:], k[1:], -1)
    F_H += fm_H
    F_Hu += fm_Hu
    return F_H, F_Hu


def hydrostatic_reconstruct(Hi, Hj, zbi, zbj):
    """Interface depths seen from both sides after raising the bottom.

    H*_L = max(0, Hi + zbi - max(zbi, zbj)) and symmetrically for the right
    state, on float arrays with one entry per interface; both are
    non-negative and the reconstruction is the identity on a flat bottom.
    """
    z_star = np.maximum(zbi, zbj)
    HL = np.add(Hi, zbi)
    HL -= z_star
    HR = np.add(Hj, zbj)
    HR -= z_star
    return np.maximum(0.0, HL, out=HL), np.maximum(0.0, HR, out=HR)


def max_wave_speed(H: np.ndarray, u: np.ndarray, wet: np.ndarray) -> float:
    """max(|u| + sqrt(G H)) over the wet nodes of a depth H and its
    velocities u, wet its mask H >= h_eps; DryDomainError if all are dry."""
    if not wet.any():
        raise DryDomainError("no wet cell: no admissible wave speed")
    speed = G * H
    # a dry depth that rounded below 0 must not reach the sqrt
    np.maximum(speed, 0.0, out=speed)
    np.sqrt(speed, out=speed)
    speed += np.abs(u)
    # speeds are >= 0, so zeroed dry nodes leave the wet maximum unchanged
    np.copyto(speed, 0.0, where=~wet)
    return float(speed.max())


# CFL number of every step: the scheme keeps depths non-negative only under
# a CFL condition, and random wet/dry steps already break it at 0.6
CFL = 0.5


def cfl_step(
    H: np.ndarray, u: np.ndarray, mesh: Mesh1D, wet: np.ndarray
) -> tuple[float, float]:
    """(dt, speed): the adaptive time step CFL * min(dx) / speed of a depth H
    and its velocities u (those of FlowState.velocities(wet)), and the speed
    max_wave_speed(H, u, wet) it was taken from."""
    speed = max_wave_speed(H, u, wet)
    return CFL * mesh.min_width / speed, speed


def cfl_admits(dt: float, speed: float, mesh: Mesh1D) -> bool:
    """Whether predict accepts dt on a state of max wave speed `speed`: dt
    within min(dx) / speed, the CFL bound at CFL number 1, up to a relative
    1e-9."""
    return dt <= mesh.min_width / speed * (1.0 + 1e-9)


def cfl_dt(state: FlowState, mesh: Mesh1D, params: PhysicalParams) -> float:
    """The cfl_step of a state, its wet mask and velocities evaluated here."""
    wet = state.H >= params.h_eps
    u, _ = state.velocities(wet)
    return cfl_step(state.H, u, mesh, wet)[0]


def _bisect(fun, lo: float, hi: float, flo: float, fhi: float, rtol: float = 1e-12) -> float:
    """Root of fun in [lo, hi], given flo = fun(lo) and fhi = fun(hi)."""
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError("root not bracketed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = fun(mid)
        if fmid == 0.0 or (hi - lo) <= rtol * (1.0 + abs(mid)):
            return mid
        if flo * fmid <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def apply_hyperbolic_bc(
    bc: HyperbolicBC, side: str, Hb: float, ub: float, wb: float
) -> GhostState:
    """Ghost state closing the boundary Riemann problem on side "in" (left)
    or "out" (right).

    (Hb, ub, wb) are the depth and velocities of the end node on that side,
    the velocities those of FlowState.velocities (0 on a dry node).
    Subcritical imposed conditions are closed with the outgoing invariant
    u -+ 2 sqrt(G H); walls mirror the interior state with negated u and
    free outflow copies it.
    """
    if side not in ("in", "out"):
        raise ValueError(f"side must be 'in' or 'out', got {side!r}")
    if bc.kind == "wall":
        return GhostState(Hb, -ub, wb)
    if bc.kind == "free_outflow":
        return GhostState(Hb, ub, wb)

    if Hb <= 0.0:
        raise TorrentialBoundaryError(
            f"{bc.kind} boundary on a dry node is not supported"
        )
    froude = abs(ub) / math.sqrt(G * Hb)
    if froude >= 1.0:
        raise TorrentialBoundaryError(
            f"torrential regime at {side} boundary (Fr = {froude:.3f}); "
            "only fluvial boundaries are supported"
        )

    # outgoing Riemann invariant seen from the interior
    sign = -1.0 if side == "in" else 1.0
    invariant = ub + sign * 2.0 * math.sqrt(G * Hb)

    if bc.kind == "imposed_depth":
        h0 = float(bc.h_given)
        u0 = invariant - sign * 2.0 * math.sqrt(G * h0)
        return GhostState(h0, u0, wb)

    q01, q02 = float(bc.q0[0]), float(bc.q0[1])

    def residual(h):
        return q01 / h + sign * 2.0 * math.sqrt(G * h) - invariant

    # For inflow-directed q01 the residual is monotone in h and the root is
    # unique.  For outflow-directed q01 there are two roots; the subcritical
    # one lies on h >= h_sonic, where h_sonic is the depth with Fr = 1.
    if sign * q01 > 0.0:
        lo = (sign * q01 / math.sqrt(G)) ** (2.0 / 3.0)
    else:
        lo = 1e-12 * max(Hb, 1.0)
    hi = max(4.0 * Hb, 2.0 * lo, invariant**2 / G, 1.0)
    # a flux below the float range of lo underflows it to 0, where the
    # residual is infinite with the sign of q01
    flo = residual(lo) if lo > 0.0 else math.copysign(math.inf, q01)
    fhi = residual(hi)
    grow = 0
    while flo * fhi > 0.0 and grow < 60:
        hi *= 2.0
        fhi = residual(hi)
        grow += 1
    if flo * fhi > 0.0:
        raise TorrentialBoundaryError(
            "no subcritical boundary depth matches the imposed flux"
        )
    h0 = _bisect(residual, lo, hi, flo, fhi)
    u0 = q01 / h0
    if abs(u0) / math.sqrt(G * h0) >= 1.0:
        raise TorrentialBoundaryError(
            "imposed flux leads to a torrential boundary state"
        )
    return GhostState(h0, u0, q02 / h0)


def predict(
    state: FlowState,
    u: np.ndarray,
    w: np.ndarray,
    mesh: Mesh1D,
    bathy: Bathymetry,
    h_eps: float,
    bc_in: HyperbolicBC,
    bc_out: HyperbolicBC,
    dt: float,
    speed: float,
) -> FlowState:
    """One explicit finite-volume step of the hydrostatic subsystem.

    (u, w) are the state's velocities, state.velocities(wet) for its wet
    mask H >= h_eps, and speed is their max_wave_speed(state.H, u, wet):
    the stepper evaluates all three once, takes its CFL step from
    cfl_step, which returns the speed with the step, and shares the
    velocities with the projection.  The boundary ghosts are built from
    the velocities' end values, so a dry end node enters a ghost with zero
    velocity.  bc_in closes the left end and bc_out the right one.  Returns
    the predicted state at t + dt, whose nodes with H < h_eps carry no
    discharge.  A dt that is not finite and positive raises ValueError, and
    one beyond the CFL bound of speed raises CFLViolationError.  At CFL
    times that bound depth stays non-negative, as a property test pins; a
    negative depth beyond round-off raises RuntimeError.

    A bottom that is zero everywhere takes the per-node path of the module
    docstring; any other bottom is reconstructed at each interface.
    """
    n = mesh.n_nodes
    if state.n_nodes != n or bathy.zb.size != n or u.size != n or w.size != n:
        raise ValueError("state/velocity/mesh/bathymetry size mismatch")
    # a NaN fails every comparison, so test finiteness first
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    if not cfl_admits(dt, speed, mesh):
        raise CFLViolationError(
            f"CFL violation: dt = {dt:.3e} exceeds admissible {mesh.min_width / speed:.3e}"
        )

    # each ghost sees its end node through the shared velocities
    ghost_l, ghost_r = (
        apply_hyperbolic_bc(bc, side, float(state.H[i]), float(u[i]), float(w[i]))
        for bc, side, i in ((bc_in, "in", 0), (bc_out, "out", -1))
    )

    # extended arrays with one ghost node per side
    He = np.concatenate(([ghost_l.H], state.H, [ghost_r.H]))
    ue = np.concatenate(([ghost_l.u], u, [ghost_r.u]))
    we = np.concatenate(([ghost_l.w], w, [ghost_r.w]))

    half_g = 0.5 * G
    if bathy.nonzero:
        zbe = bathy.zbe
        HLs, HRs = hydrostatic_reconstruct(He[:-1], He[1:], zbe[:-1], zbe[1:])
        F_H, F_Hu = kinetic_flux((HLs, ue[:-1]), (HRs, ue[1:]))
        # the pressure of the reconstructed depth on each side of a node
        p_left = np.square(HLs[1:], out=HLs[1:])
        p_left *= half_g
        p_right = np.square(HRs[:-1], out=HRs[:-1])
        p_right *= half_g
    else:
        # max(H, 0.0) gives +0.0 for -0.0, as max(0, H + 0 - 0) does
        Hp = np.maximum(He, 0.0, out=He)
        F_H, F_Hu = _node_flux(Hp, ue)
        p_left = p_right = np.square(Hp[1:-1], out=Hp[1:-1])
        p_left *= half_g
    F_Hw = np.where(F_H >= 0.0, we[:-1], we[1:])
    F_Hw *= F_H

    # each update forms its increment in a fresh difference array, scales it
    # by sigma and subtracts it from the old value into the same array
    sigma = dt / mesh.dual_widths
    dF = np.subtract(F_H[1:], F_H[:-1])
    dF *= sigma
    H_new = np.subtract(state.H, dF, out=dF)
    # hydrostatic-reconstruction corrections make the momentum balance exact
    # on the lake at rest
    dF = np.subtract(F_Hu[1:], p_left)
    dF -= F_Hu[:-1]
    dF += p_right
    dF *= sigma
    Hu_new = np.subtract(state.Hu, dF, out=dF)
    dF = np.subtract(F_Hw[1:], F_Hw[:-1])
    dF *= sigma
    Hw_new = np.subtract(state.Hw, dF, out=dF)

    floor = -1e-12 * max(1.0, float(state.H.max()))
    if H_new.min() < floor:
        raise RuntimeError(
            f"negative depth produced by the prediction step (min {H_new.min():.3e})"
        )
    np.maximum(H_new, 0.0, out=H_new)
    dry = H_new < h_eps
    Hu_new[dry] = 0.0
    Hw_new[dry] = 0.0
    return FlowState(H_new, Hu_new, Hw_new, state.t + dt)
