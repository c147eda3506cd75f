"""Pressure correction step.

The prediction leaves a velocity U* = (u*, w*) that violates the
depth-averaged incompressibility constraint B U = 0.  Correcting with the
discrete pressure gradient, A_H U = A_H U* - dt (Bt - C) P with
Bt - C = -B^T, and eliminating U gives the symmetric positive definite
Schur system

    (B A_H^-1 B^T) P = -(1/dt) B U*,

banded: tridiagonal for P1/P0, pentadiagonal for P1-iso-P2/P1.  The
lumped mass makes A_H diagonal, so the elimination is exact and
U = U* + dt A_H^-1 B^T P.  Velocities enter and leave as (u, w) pairs of
nodal arrays, the two blocks of U that B acts on.

The projection closes on the (left, right) pair of hyperbolic conditions
that closed the prediction (hyperbolic.HyperbolicBC), each side's by its
slot, and reads their kinds:
  * "imposed_flux" pins the boundary pressure dof to 0 (row and column
    eliminated symmetrically, which keeps the matrix SPD); the boundary
    velocity is corrected like any interior dof.
  * every other kind holds the boundary horizontal velocity, at 0 for
    "wall" and at its predicted trace otherwise; its column leaves the
    Schur operator and the held value enters the right-hand side through
    B U*.  An imposed depth's Robin coefficient dH/dn already lives in the
    depth-dependent boundary entries of B and C.
Velocity dofs on dry nodes (H < h_eps, OperatorSet.wet) are not corrected,
and pressure dofs with an entirely dry support are pinned to 0.  A
correction is SchurSystem.load, solve_pressure and correct_velocity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs, dpttrf, dpttrs

from .core import _read_only
from .femops import OperatorSet
from .hyperbolic import HyperbolicBC


@dataclass
class PressureField:
    """Pressure coefficients on the pressure space of one element pair."""

    values: np.ndarray


@dataclass(frozen=True)
class _BCPlan:
    held_u: np.ndarray  # the end nodes whose u is held, ascending
    pinned_dofs: np.ndarray  # the pressure dofs held at 0, ascending
    band_zeros: np.ndarray  # flat indices of the band entries they zero
    kinds: tuple  # the (left, right) pair of hyperbolic kinds it resolves


def resolve_projection_bcs(ops: OperatorSet, hyp: tuple[HyperbolicBC, HyperbolicBC]) -> _BCPlan:
    """The read-only held end nodes and pinned dofs of one projection closed
    by the pair of hyperbolic conditions hyp (module docstring).

    The geometry keeps the last plan of each pair of kinds with the wet mask
    it was resolved on (_Geometry.plans), and returns it while ops.wet equals
    that mask by content: the mask of a run changes in few projections.
    """
    left, right = hyp
    kinds = (left.kind, right.kind)
    plans = ops.geometry.plans
    cached = plans.get(kinds)
    if cached is not None and not (cached[0] != ops.wet).any():
        return cached[1]
    held = []
    pinned = ops.dry_pressure_dofs()
    for kind, end, node in zip(kinds, (0, -1), (0, ops.n_nodes - 1)):
        if kind == "imposed_flux":
            pinned[end] = True
        else:
            held.append(node)
    pinned = pinned.nonzero()[0]
    # symmetric elimination: entry l of band d, flat index d m + l of the
    # lower layout (SchurSystem), couples dofs l and l + d
    m = ops.n_pressure
    band_zeros = np.concatenate([d * m + entries for d in range(1, ops.bandwidth + 1)
                                 for entries in (pinned[pinned < m - d], pinned[pinned >= d] - d)])
    plan = _BCPlan(_read_only(np.array(held, dtype=np.intp)), _read_only(pinned),
                   _read_only(band_zeros), kinds)
    plans[kinds] = (ops.wet, plan)
    return plan


@dataclass(frozen=True)
class SchurSystem:
    """Banded SPD pressure system of one depth and one closure.

    ab holds the symmetric band in scipy's lower=True layout, bandwidth + 1
    rows: ab[0] is the diagonal and ab[d, :m-d] the d-th off-diagonal,
    ab[d, l] = S[l + d, l] = S[l, l + d].  LAPACK's banded Cholesky
    factors this layout faster than the upper one.  factor is the band's
    Cholesky factor (_cholesky).

    build_schur resolves the plan and factors the band once, and every
    array the system holds is read-only, so one system serves every
    velocity and dt at its depth and closure.  Each load and correction
    reads the plan and the masked inverse mass that built the band, so the
    pressure and the correction cannot disagree on which dofs are held.
    """

    ab: np.ndarray
    ops: OperatorSet
    plan: _BCPlan
    invA_u: np.ndarray
    invA_w: np.ndarray
    factor: tuple = field(repr=False, compare=False)

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
        if u_star.shape != (n,) or w.shape != (n,):
            raise ValueError(f"u and w need one entry per node ({n})")
        for kind, node in zip(self.plan.kinds, (0, -1)):
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
        carry no discrete equation and are excluded).  The sum is numpy's
        pairwise one, not a BLAS dot product, whose bits depend on its
        thread count."""
        squares = np.square(div)
        squares[self.plan.pinned_dofs] = 0.0
        return math.sqrt(np.add.reduce(squares))


def build_schur(ops: OperatorSet, hyp: tuple[HyperbolicBC, HyperbolicBC]) -> SchurSystem:
    """Assemble and factor the banded Schur complement of the operators ops,
    closed by the (left, right) pair of hyperbolic conditions hyp (module
    docstring)."""
    plan = resolve_projection_bcs(ops, hyp)
    m = ops.n_pressure
    bw = ops.bandwidth
    Du = ops.Du

    # diagonal A_H^-1 on the (u, w) blocks, zero on the dry dofs and on
    # the held ends' u; lump_mass floors every mass above 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        invA_w = 1.0 / ops.a_node
    invA_w[~ops.wet] = 0.0
    invA_u = invA_w.copy()
    invA_u[plan.held_u] = 0.0

    # S = B A_H^-1 B^T in the lower layout (see SchurSystem), row block by row
    # block and band by band, from the window products the geometry lists
    ab = np.zeros((bw + 1, m))
    for block in ops.geometry.row_blocks:
        for band, terms in zip(ab, block.schur_terms):
            for k, k_d, rows, rows_d, nodes, w_factor in terms:
                term = Du[rows, k] * Du[rows_d, k_d]
                term *= invA_u[nodes]
                term += w_factor * invA_w[nodes]
                band[rows] += term

    # symmetric elimination of the pinned dofs (imposed-flux sides and dry
    # supports), each held at 0; load zeroes their rhs
    ab.put(plan.band_zeros, 0.0)
    ab[0, plan.pinned_dofs] = 1.0

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
    """Solve the Schur system for rhs, exact up to round-off in O(M) work:
    dpttrs or dpbtrs on sys.factor, the second half of
    scipy.linalg.solveh_banded, for its bits."""
    if sys.ab.shape[0] == 2:
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
    if p.size != sys.ops.n_pressure:
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
    m, q, ab = sys.ops.n_pressure, np.abs(p), np.abs(sys.ab)
    y = ab[0] * q
    for d in range(1, sys.ops.bandwidth + 1):
        y[:-d] += ab[d, : m - d] * q[d:]
        y[d:] += ab[d, : m - d] * q[:-d]
    return 8.0 * np.finfo(float).eps * dt * sys.enforced_norm(y)
