"""Pressure correction step.

The prediction leaves a velocity field U* = (u*, w*) that violates the
depth-averaged incompressibility constraint B U = 0.  Correcting with the
discrete pressure gradient,

    A_H U = A_H U* - dt (Bt - C) P,      Bt - C = -B^T,

and eliminating U gives the symmetric positive definite Schur system

    (B A_H^-1 B^T) P = -(1/dt) B U*,

a banded Sturm-Liouville-type problem (tridiagonal for P1/P0,
pentadiagonal for P1-iso-P2/P1).  The lumped mass makes A_H diagonal so
the elimination is exact and the corrected velocity is

    U = U* + dt A_H^-1 B^T P.

Boundary handling: a closure is the (left, right) pair of pressure
condition kinds, the side of each given by its slot; every side takes one
of the three kinds below, and every condition holds its data at 0 or at
the predicted trace.
  * "dirichlet": the boundary pressure dof is pinned to 0 (row/column
    eliminated symmetrically, which keeps the matrix SPD); the boundary
    velocity is corrected like any interior dof.
  * "wall" and "neumann": the boundary horizontal velocity is held, at 0
    for a wall and at its predicted trace for neumann; its column is
    masked out of the Schur operator and the held value enters the
    right-hand side through B U*.  An imposed depth closes as neumann: its
    Robin coefficient dH/dn needs no kind of its own, because the
    depth-dependent boundary entries of B and C already carry it.

Velocity dofs on dry nodes (H < h_eps) are excluded from the correction and
pressure dofs with an entirely dry support are pinned to zero.  The
boundary plan reads the wet mask the assembly computed (OperatorSet.wet)
and lists the pinned dofs once as an index array, by which the band's
elimination, the load's zeroed rows and the enforced residual norm take
them, with no scan of a boolean mask.

A Schur system is a depth and a closure; the load is per call.
build_schur(ops, bcs) resolves the boundary plan, assembles the band,
factors it once (banded Cholesky, dpttrf for bandwidth 1 and dpbtrf for
bandwidth 2) and marks every array it made read-only.  Nothing writes into
a system afterwards, so one system serves every velocity and dt at its
depth and closure.  A correction is then three calls:
SchurSystem.load(u, w, dt) holds the predicted velocity's boundary values
in a copy u* and returns it with B U* and the right-hand side;
solve_pressure(sys, rhs) runs only the triangular solves on the factor;
and correct_velocity(sys, u*, w, dt, p) adds the correction into u* with
the plan and the masked A_H^-1 that built the band, so the pressure and
the correction cannot disagree on which dofs are held.  Velocities enter
and leave as (u, w) pairs of nodal arrays, the two blocks of U that B acts
on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs, dpttrf, dpttrs

from .core import _read_only
from .femops import OperatorSet


@dataclass
class PressureField:
    """Pressure coefficients on the pressure space of one element pair."""

    values: np.ndarray


@dataclass(frozen=True)
class _BCPlan:
    free_u: np.ndarray  # bool mask over nodes, each u corrected
    pinned_dofs: np.ndarray  # the pressure dofs held at 0, ascending
    bcs: tuple  # the (left, right) pair of kinds the plan resolves


def resolve_projection_bcs(ops: OperatorSet, bcs) -> _BCPlan:
    """The read-only velocity mask and pinned indices of one projection
    under the (left, right) pair of pressure condition kinds bcs."""
    if len(bcs) != 2:
        raise ValueError(f"bcs must be a (left, right) pair of kinds, got {bcs!r}")
    free_u = ops.wet.copy()
    pinned = ops.dry_pressure_dofs()
    for kind, end in zip(bcs, (0, -1)):  # the first or last node and dof
        if kind == "dirichlet":
            pinned[end] = True
        elif kind in ("wall", "neumann"):
            free_u[end] = False
        else:
            raise ValueError(f"unknown pressure BC kind {kind!r}")
    return _BCPlan(_read_only(free_u), _read_only(np.flatnonzero(pinned)), tuple(bcs))


@dataclass(frozen=True)
class SchurSystem:
    """Banded SPD pressure system of one depth and one closure.

    ab holds the symmetric band in scipy's lower=True layout, bandwidth + 1
    rows: ab[0] is the diagonal and ab[d, :m-d] the d-th off-diagonal,
    ab[d, l] = S[l + d, l] = S[l, l + d].  LAPACK's banded Cholesky
    factors this layout faster than the upper one.  The operator set, the
    BC plan and the masked inverse mass are kept so that each load and
    correction stays consistent with the band.  factor is the band's
    Cholesky factor (_cholesky).
    """

    ab: np.ndarray
    ops: OperatorSet
    plan: _BCPlan
    invA_u: np.ndarray
    invA_w: np.ndarray
    factor: tuple = field(repr=False, compare=False)

    @property
    def n_pressure(self) -> int:
        return self.ab.shape[1]

    @property
    def bandwidth(self) -> int:
        return self.ab.shape[0] - 1

    def load(self, u, w, dt: float, extra=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u*, B U*, rhs) of the predicted velocity (u, w) and dt.

        u* is a copy of u with the velocity at each wall side set to 0, and
        w* is w.  B U* has the divergence extra added, if given, and
        rhs = -(1/dt) B U* is 0 on the pinned rows.  The caller's arrays
        are left as they were.  A dt that is not finite and positive
        raises ValueError.
        """
        # a NaN fails every comparison, so test finiteness first
        if not (math.isfinite(dt) and dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {dt!r}")
        n = self.ops.n_nodes
        u_star = np.array(u, dtype=float)
        if u_star.shape != (n,) or np.shape(w) != (n,):
            raise ValueError(f"u and w need one entry per node ({n})")
        for kind, node in zip(self.plan.bcs, (0, -1)):
            if kind == "wall":
                u_star[node] = 0.0
        div = self.ops.apply_divergence(u_star, w)
        rhs = -(1.0 / dt) * div
        if extra is not None:
            # subtracted apart: -(1/dt) (a + e) can differ from
            # -(1/dt) a - (1/dt) e in the sign of a zero
            div += extra
            rhs -= (1.0 / dt) * extra
        rhs[self.plan.pinned_dofs] = 0.0
        return u_star, div, rhs

    def enforced_norm(self, div: np.ndarray) -> float:
        """2-norm of div over the enforced constraint rows (pinned rows
        carry no discrete equation and are excluded)."""
        pinned = self.plan.pinned_dofs
        # with no pinned row the norm is over div itself: no masked copy
        if pinned.size:
            div = div.copy()
            div[pinned] = 0.0
        return float(np.linalg.norm(div))


def build_schur(ops: OperatorSet, bcs) -> SchurSystem:
    """Assemble and factor the banded Schur complement of the operators ops,
    closed by the (left, right) pair of pressure condition kinds bcs (module
    docstring).  The boundary plan is resolved once, here."""
    plan = resolve_projection_bcs(ops, bcs)
    m = ops.n_pressure
    bw = ops.bandwidth
    Du = ops.Du

    # diagonal A_H^-1 on the (u, w) blocks, zero on the held and dry dofs
    # (the free w-dofs are the wet nodes)
    inv_a = 1.0 / ops.a_node
    invA_u = np.where(plan.free_u, inv_a, 0.0)
    invA_w = np.where(ops.wet, inv_a, 0.0)

    # S = B A_H^-1 B^T band by band, in the lower layout (see SchurSystem);
    # the geometry lists the window products that meet inside the mesh
    ab = np.zeros((bw + 1, m))
    for d, terms in enumerate(ops.geometry.schur_terms):
        band = ab[d, : m - d]
        for k, k_d, rows, rows_d, nodes, w_factor in terms:
            term = Du[rows, k] * Du[rows_d, k_d]
            term *= invA_u[nodes]
            term += w_factor * invA_w[nodes]
            band[rows] += term

    # symmetric elimination of the pinned dofs (Dirichlet sides and dry
    # supports), each held at 0; load zeroes their rhs.  Entry l of band d
    # couples dofs l and l + d
    pinned = plan.pinned_dofs
    for d in range(1, bw + 1):
        ab[d, pinned[pinned < m - d]] = 0.0
        ab[d, pinned[pinned >= d] - d] = 0.0
    ab[0, pinned] = 1.0

    if ab[0].min() <= 0.0:
        raise ValueError(
            "Schur diagonal is not positive: the pressure problem is fully "
            "determined, so a singular assembly indicates a bug"
        )
    return SchurSystem(
        _read_only(ab), ops, plan, _read_only(invA_u), _read_only(invA_w), _cholesky(ab)
    )


def _cholesky(ab: np.ndarray) -> tuple:
    """The read-only Cholesky factor of the lower band ab: (d, e) of
    L D L^T for bandwidth 1 (dpttrf), (c,) for bandwidth 2 (dpbtrf): the
    factorizations scipy.linalg.solveh_banded runs before its solve."""
    if ab.shape[0] == 2:
        *factor, info = dpttrf(ab[0], ab[1, :-1])
    else:
        *factor, info = dpbtrf(ab, lower=1)
    if info != 0:  # pragma: no cover - assembly bug guard
        raise ValueError(f"indefinite pivot in the banded factorization (LAPACK info {info})")
    return tuple(_read_only(f) for f in factor)


def solve_pressure(sys: SchurSystem, rhs: np.ndarray) -> PressureField:
    """Solve the Schur system for the right-hand side rhs with the
    triangular solves on its factor.

    The system is SPD with bandwidth 1 (P1/P0) or 2 (P1-iso-P2/P1), so the
    solve is exact up to round-off in O(M) work: dpttrs (L D L^T) or dpbtrs
    on sys.factor, the second half of scipy.linalg.solveh_banded, for its
    bits.
    """
    if sys.bandwidth == 1:
        p, _ = dpttrs(*sys.factor, rhs)
    else:
        p, _ = dpbtrs(*sys.factor, rhs, lower=1)
    return PressureField(p)


def correct_velocity(
    sys: SchurSystem, u_star: np.ndarray, w: np.ndarray, dt: float, p: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(u, w) = (u*, w) + dt A_H^-1 B^T p with the masks of sys: u* is
    sys.load's own copy, so its correction is added in place; the caller's
    w stays as it was, and the corrected w is new."""
    if np.size(p) != sys.n_pressure:
        raise ValueError("pressure/operator size mismatch")
    du, dw = sys.ops.scatter_divergence_t(p)
    # (dt A_H^-1) B^T p, each product formed in place in the scattered array
    du *= dt * sys.invA_u
    u_star += du
    dw *= dt * sys.invA_w
    return u_star, np.add(w, dw, out=dw)


def divergence_residual(sys: SchurSystem, u: np.ndarray, w: np.ndarray) -> float:
    """2-norm of B (u; w) over the enforced constraint rows."""
    return sys.enforced_norm(sys.ops.apply_divergence(u, w))


def solve_round_off(sys: SchurSystem, p: np.ndarray, dt: float) -> float:
    """Round-off floor 8 eps dt |(|S| |p|)| of divergence_residual after the
    correction at dt by the solution p: B U = dt (S p - rhs) on the enforced
    rows, and a banded Cholesky solve meets S p = rhs only to about
    eps |S| |p|, which tiny lumped masses at near-dry nodes can raise above
    TOL |rhs|."""
    m, q, ab = sys.n_pressure, np.abs(p), np.abs(sys.ab)
    y = ab[0] * q
    for d in range(1, sys.bandwidth + 1):
        y[:-d] += ab[d, : m - d] * q[d:]
        y[d:] += ab[d, : m - d] * q[:-d]
    return 8.0 * np.finfo(float).eps * dt * sys.enforced_norm(y)
