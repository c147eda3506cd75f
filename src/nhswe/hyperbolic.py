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
be divided back out.  Only the entry point cfl_dt reads the dry threshold
h_eps; the prediction reads none (predict).
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass
from typing import NamedTuple

import numpy as np

from . import core
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
    interfaces of a zero bottom (_predict_block)."""
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
    # speeds are >= 0, so the initial 0 leaves the wet maximum unchanged
    return float(speed.max(where=wet, initial=0.0))


# CFL number of every step: the scheme keeps depths non-negative only under
# a CFL condition, and random wet/dry steps already break it at 0.6
CFL = 0.5


def prediction_inputs(
    state: FlowState, mesh: Mesh1D, wet: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(u, w, dt, speed): what predict reads of a state, formed once.  (u, w)
    are state.velocities(wet), wet the state's mask H >= h_eps; speed is
    their max_wave_speed and dt the adaptive step CFL * min(dx) / speed."""
    u, w = state.velocities(wet)
    speed = max_wave_speed(state.H, u, wet)
    return u, w, CFL * mesh.min_width / speed, speed


def cfl_admits(dt: float, speed: float, mesh: Mesh1D) -> bool:
    """Whether predict accepts dt on a state of max wave speed `speed`: dt
    within min(dx) / speed, the CFL bound at CFL number 1, up to a relative
    1e-9."""
    return dt <= mesh.min_width / speed * (1.0 + 1e-9)


def cfl_dt(state: FlowState, mesh: Mesh1D, params: PhysicalParams) -> float:
    """The CFL step of a state (prediction_inputs), its wet mask formed here."""
    return prediction_inputs(state, mesh, state.H >= params.h_eps)[2]


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

    # h0 is the root of the residual q01 / h + sign 2 sqrt(G h) - invariant.
    # For inflow-directed q01 it is monotone in h and the root is unique.
    # For outflow-directed q01 there are two roots; the subcritical one lies
    # on h >= h_sonic, where h_sonic is the depth with Fr = 1.
    if sign * q01 > 0.0:
        lo = (sign * q01 / math.sqrt(G)) ** (2.0 / 3.0)
    else:
        lo = 1e-12 * max(Hb, 1.0)
    hi = max(4.0 * Hb, 2.0 * lo, invariant**2 / G, 1.0)
    # the residual at both ends: a flux below the float range of lo
    # underflows it to 0, where the residual is infinite with the sign of q01
    flo, fhi = (q01 / h + sign * 2.0 * math.sqrt(G * h) - invariant if h > 0.0
                else math.copysign(math.inf, q01) for h in (lo, hi))
    # no bracket: the residual has at most two roots, and a root beyond hi
    # lies above invariant^2 / G, where every ghost state is torrential
    if flo * fhi > 0.0:
        raise TorrentialBoundaryError(
            "no subcritical boundary depth matches the imposed flux"
        )
    # bisect [lo, hi] to a relative 1e-12, the midpoint's residual written
    # out: a call per midpoint would cost more than its arithmetic
    h0 = lo if flo == 0.0 else hi
    if flo != 0.0 and fhi != 0.0:
        for _ in range(200):
            h0 = 0.5 * (lo + hi)
            fmid = q01 / h0 + sign * 2.0 * math.sqrt(G * h0) - invariant
            if fmid == 0.0 or (hi - lo) <= 1e-12 * (1.0 + abs(h0)):
                break
            if flo * fmid <= 0.0:
                hi = h0
            else:
                lo, flo = h0, fmid
        else:
            h0 = 0.5 * (lo + hi)
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
    bc_in: HyperbolicBC,
    bc_out: HyperbolicBC,
    dt: float,
    speed: float,
) -> FlowState:
    """One explicit finite-volume step of the hydrostatic subsystem; bc_in
    closes the left end and bc_out the right one.

    (u, w, speed) are the state's prediction_inputs, which the stepper
    forms once with its CFL step.  A dry end node enters its ghost with
    zero velocity.  Returns the state at t + dt, the raw update with its
    depth clipped at 0.  No dry threshold is read: the kinetic update
    handles H = 0 exactly, and the discharge it leaves on a node below
    h_eps is its caller's to drop.  A dt that is not finite and positive
    raises ValueError, one beyond the CFL bound of speed
    CFLViolationError, and a negative depth beyond round-off RuntimeError.

    The update runs over blocks of core._BLOCK nodes.  Each output is a
    node's update, elementwise in the fluxes of its two interfaces: an
    interface two blocks share is computed by both from the same inputs,
    and the negative-depth test takes each block's minimum against one
    floor set by the whole state, so the bits do not depend on the block
    size.  One block writes into its own difference arrays, more fill
    three outputs.
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
    args = (
        state, u, w, mesh.dual_widths, bathy.zbe if bathy.nonzero else None,
        ghost_l, ghost_r, dt, -1e-12 * max(1.0, float(state.H.max())),
    )
    block = core._BLOCK
    if n <= block:
        return FlowState(*_predict_block(*args, 0, n, None), state.t + dt)
    out = (np.empty(n), np.empty(n), np.empty(n))
    for a in range(0, n, block):
        _predict_block(*args, a, min(a + block, n), out)
    return FlowState(*out, state.t + dt)


def _extended(x, a, b, left, right):
    """The nodes a - 1 ... b of x extended by the ghost values left and
    right at the nodes -1 and n: a view of x inside the mesh, a copy with
    the ghost at either end."""
    n = x.size
    if a == 0:
        if b == n:
            return np.concatenate(([left], x, [right]))
        return np.concatenate(([left], x[: b + 1]))
    if b == n:
        return np.concatenate((x[a - 1 :], [right]))
    return x[a - 1 : b + 1]


def _predict_block(state, u, w, dual_widths, zbe, ghost_l, ghost_r, dt, floor, a, b, out):
    """predict's (H, Hu, Hw) at t + dt on the nodes a ... b - 1, written
    into the slices a:b of the three arrays out, or into the block's own
    difference arrays if out is None.

    zbe is bathy.zbe, or None on a bottom that is zero everywhere.  There
    the reconstruction max(0, H + 0 - 0) is max(0, H), so the interface
    states are the extended nodes' own: each node's support serves both of
    its interfaces (_node_flux) and one nodal G H^2 / 2 both correction
    terms, with the bits of the reconstructed path.  A flat bottom at a
    nonzero height z keeps the reconstructed path: H + z - z is not H
    exactly in floating point.  A depth below floor raises RuntimeError.
    """
    # the interfaces a ... b read the nodes a - 1 ... b of the extended
    # arrays (_extended)
    He = _extended(state.H, a, b, ghost_l.H, ghost_r.H)
    ue = _extended(u, a, b, ghost_l.u, ghost_r.u)
    we = _extended(w, a, b, ghost_l.w, ghost_r.w)

    half_g = 0.5 * G
    if zbe is not None:
        HLs, HRs = hydrostatic_reconstruct(He[:-1], He[1:], zbe[a : b + 1], zbe[a + 1 : b + 2])
        F_H, F_Hu = kinetic_flux((HLs, ue[:-1]), (HRs, ue[1:]))
        # the pressure of the reconstructed depth on each side of a node
        p_left = np.square(HLs[1:], out=HLs[1:])
        p_left *= half_g
        p_right = np.square(HRs[:-1], out=HRs[:-1])
        p_right *= half_g
    else:
        # max(H, 0.0) gives +0.0 for -0.0, as max(0, H + 0 - 0) does; an
        # end block writes its own copy, an inner block not the state's view
        Hp = np.maximum(He, 0.0, out=He if a == 0 or b == state.n_nodes else None)
        F_H, F_Hu = _node_flux(Hp, ue)
        p_left = p_right = np.square(Hp[1:-1], out=Hp[1:-1])
        p_left *= half_g
    F_Hw = np.where(F_H >= 0.0, we[:-1], we[1:])
    F_Hw *= F_H

    # each update forms its increment in a fresh difference array, scales it
    # by sigma and subtracts it from the old value into its output
    if out is None:  # the one block: the whole mesh
        H, Hu, Hw, dx = state.H, state.Hu, state.Hw, dual_widths
        H_out = Hu_out = Hw_out = None
    else:
        H, Hu, Hw, dx, H_out, Hu_out, Hw_out = (
            x[a:b] for x in (state.H, state.Hu, state.Hw, dual_widths, *out))
    sigma = np.divide(dt, dx)
    dF = np.subtract(F_H[1:], F_H[:-1])
    dF *= sigma
    H_new = np.subtract(H, dF, out=dF if H_out is None else H_out)
    # hydrostatic-reconstruction corrections make the momentum balance exact
    # on the lake at rest
    dF = np.subtract(F_Hu[1:], p_left)
    dF -= F_Hu[:-1]
    dF += p_right
    dF *= sigma
    Hu_new = np.subtract(Hu, dF, out=dF if Hu_out is None else Hu_out)
    dF = np.subtract(F_Hw[1:], F_Hw[:-1])
    dF *= sigma
    Hw_new = np.subtract(Hw, dF, out=dF if Hw_out is None else Hw_out)

    if H_new.min() < floor:
        raise RuntimeError(
            f"negative depth produced by the prediction step (min {H_new.min():.3e})"
        )
    np.maximum(H_new, 0.0, out=H_new)
    return H_new, Hu_new, Hw_new
