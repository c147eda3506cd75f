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
condition kinds, the side of each given by its slot; None leaves that side
without a condition.  Every condition holds its data at 0 or at the
predicted trace.
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
pressure dofs with an entirely dry support are pinned to zero.

The correction has one code path, SchurSystem.corrected_velocity: it uses
the boundary plan and masked inverse mass that build_schur resolved for
the system, so the pressure and the correction cannot disagree on which
dofs are held.  correct_velocity is its entry point for a caller with a
pressure but no system; it builds that system first.

Velocities enter and leave as (u, w) pairs of nodal arrays, the two blocks
of U that B acts on: build_schur takes the predicted (u*, w*), the
correction returns the corrected (u, w), and divergence_residual measures a
pair.  Only u is written by a boundary condition (held at 0 at a wall), so
the base velocity copies u and shares w with the caller, who must not write
into w while the system is in use.

A Schur system is finished when build_schur returns it: build_schur
factors the band once (banded Cholesky, dpttrf for bandwidth 1 and dpbtrf
for bandwidth 2) and marks every array it made read-only, and nothing
writes into a system afterwards; solve_pressure runs only the triangular
solves on that factor.  The band, the masks, A_H^-1 and the factor depend
on the depth and the closure, not on the velocity or dt, so a sibling
system shares them by identity: SchurSystem.with_velocity is the system of
another predicted velocity at the same depth and closure, and
SchurSystem.with_divergence the system whose rhs also carries an added
divergence.  Each sibling builds only its own base velocity, B U* and rhs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs, dpttrf, dpttrs

from .femops import OperatorSet, _read_only


@dataclass
class PressureField:
    """Pressure coefficients on the pressure space of one element pair."""

    values: np.ndarray


@dataclass(frozen=True)
class _BCPlan:
    free_u: np.ndarray
    u_base: np.ndarray
    w_base: np.ndarray
    pinned: np.ndarray  # bool mask over pressure dofs, each held at 0
    bcs: tuple  # the (left, right) pair of kinds the plan resolves


def _wall_base(bcs, u: np.ndarray) -> np.ndarray:
    """A read-only copy of u with the velocity at each wall side set to 0."""
    u_base = u.copy()
    for kind, node in zip(bcs, (0, -1)):
        if kind == "wall":
            u_base[node] = 0.0
    return _read_only(u_base)


def resolve_projection_bcs(ops: OperatorSet, bcs, u: np.ndarray, w: np.ndarray) -> _BCPlan:
    """The masks and base velocity (u*, w*) of one projection under the
    (left, right) pair of pressure condition kinds bcs.

    u_base is a copy of u with the wall values set; w_base is w itself.
    The masks and u_base are read-only.
    """
    if len(bcs) != 2:
        raise ValueError(f"bcs must be a (left, right) pair of kinds, got {bcs!r}")
    n = ops.n_nodes
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    if u.shape != (n,) or w.shape != (n,):
        raise ValueError(f"u and w need one entry per node ({n})")
    free_u = ops.wet_nodes()
    pinned = ops.dry_pressure_dofs()
    for kind, node, pdof in zip(bcs, (0, n - 1), (0, ops.n_pressure - 1)):
        if kind == "dirichlet":
            pinned[pdof] = True
        elif kind in ("wall", "neumann"):
            free_u[node] = False
        elif kind is not None:
            raise ValueError(f"unknown pressure BC kind {kind!r}")
    return _BCPlan(_read_only(free_u), _wall_base(bcs, u), w, _read_only(pinned), tuple(bcs))


@dataclass(frozen=True)
class SchurSystem:
    """Banded SPD pressure system with its saddle-point context.

    ab holds the symmetric band in scipy's lower=True layout, bandwidth + 1
    rows: ab[0] is the diagonal and ab[d, :m-d] the d-th off-diagonal,
    ab[d, l] = S[l + d, l] = S[l, l + d].  LAPACK's banded Cholesky
    factors this layout faster than the upper one.  rhs is the eliminated
    right-hand side.  The operator set, the BC plan (with the base velocity
    (u*, w*)) and the masked inverse mass are kept so the correction stays
    consistent with the system that produced the pressure.

    base_divergence is the B U* the rhs was formed from, kept as the scale
    of the post-correction residual.  factor is the band's Cholesky factor
    (_cholesky).
    """

    ab: np.ndarray
    rhs: np.ndarray
    ops: OperatorSet
    dt: float
    plan: _BCPlan
    invA_u: np.ndarray
    invA_w: np.ndarray
    base_divergence: np.ndarray
    factor: tuple = field(repr=False, compare=False)

    @property
    def n_pressure(self) -> int:
        return self.rhs.size

    @property
    def base_residual(self) -> float:
        """divergence_residual of the uncorrected velocity U*."""
        return _enforced_norm(self, self.base_divergence)

    @property
    def bandwidth(self) -> int:
        return self.ab.shape[0] - 1

    def matvec(self, x: np.ndarray) -> np.ndarray:
        m = self.n_pressure
        y = self.ab[0] * x
        for d in range(1, self.bandwidth + 1):
            band = self.ab[d, : m - d]
            y[:-d] += band * x[d:]
            y[d:] += band * x[:-d]
        return y

    def corrected_velocity(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(u, w) = (u*, w*) + dt A_H^-1 B^T p with this system's BC plan and
        masks; both arrays are new."""
        du, dw = self.ops.scatter_divergence_t(p)
        u = self.plan.u_base + self.dt * self.invA_u * du
        w = self.plan.w_base + self.dt * self.invA_w * dw
        return u, w

    def with_velocity(self, u: np.ndarray, w: np.ndarray, dt: float) -> "SchurSystem":
        """The system of the predicted velocity (u*, w*) = (u, w) and dt at
        this system's depth and closure."""
        plan = replace(self.plan, u_base=_wall_base(self.plan.bcs, u), w_base=w)
        return _system(self.ops, plan, self.ab, self.factor, self.invA_u, self.invA_w, dt)

    def with_divergence(self, extra: np.ndarray) -> "SchurSystem":
        """This system with the divergence extra added to B U*: the rhs
        becomes rhs - (1/dt) extra on the enforced rows (pinned rows stay 0)."""
        rhs = self.rhs - (1.0 / self.dt) * np.where(self.plan.pinned, 0.0, extra)
        div = self.base_divergence + extra
        return replace(self, rhs=_read_only(rhs), base_divergence=_read_only(div))

    def dense(self) -> np.ndarray:
        m = self.n_pressure
        out = np.diag(self.ab[0].copy())
        for d in range(1, self.bandwidth + 1):
            band = self.ab[d, : m - d]
            out += np.diag(band, k=d) + np.diag(band, k=-d)
        return out


def build_schur(
    ops: OperatorSet,
    u: np.ndarray,
    w: np.ndarray,
    dt: float,
    bcs=(None, None),
) -> SchurSystem:
    """Assemble the banded Schur complement and its right-hand side for the
    predicted velocity (u*, w*) = (u, w), closed by the (left, right) pair
    of pressure condition kinds bcs (module docstring).

    The boundary plan is resolved once, here; the system keeps it (and w
    itself, see the module docstring) for the correction.
    """
    plan = resolve_projection_bcs(ops, bcs, u, w)
    m = ops.n_pressure
    bw = ops.bandwidth
    Du = ops.Du

    # diagonal A_H^-1 on the (u, w) blocks, zero on the held and dry dofs
    # (the free w-dofs are the wet nodes)
    inv_a = 1.0 / ops.a_node
    invA_u = np.where(plan.free_u, inv_a, 0.0)
    invA_w = np.where(ops.wet_nodes(), inv_a, 0.0)

    # S = B A_H^-1 B^T band by band, in the lower layout (see SchurSystem);
    # the geometry lists the window products that meet inside the mesh
    ab = np.zeros((bw + 1, m))
    for d, terms in enumerate(ops.geometry.schur_terms):
        band = ab[d, : m - d]
        for k, k_d, rows, rows_d, nodes, w_factor in terms:
            band[rows] += (
                Du[rows, k] * Du[rows_d, k_d] * invA_u[nodes] + w_factor * invA_w[nodes]
            )

    # symmetric elimination of the pinned dofs (Dirichlet sides and dry
    # supports), each held at 0; _system zeroes their rhs
    if plan.pinned.any():
        for d in range(1, bw + 1):
            ab[d, : m - d][plan.pinned[d:] | plan.pinned[: m - d]] = 0.0
        ab[0, plan.pinned] = 1.0

    if ab[0].min() <= 0.0:
        raise ValueError(
            "Schur diagonal is not positive: the pressure problem is fully "
            "determined, so a singular assembly indicates a bug"
        )
    return _system(
        ops, plan, _read_only(ab), _cholesky(ab), _read_only(invA_u), _read_only(invA_w), dt
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


def _system(ops, plan, ab, factor, invA_u, invA_w, dt) -> SchurSystem:
    """The system of the band ab and its factor with the rhs of the plan's
    base velocity and dt."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    base_divergence = ops.apply_divergence(plan.u_base, plan.w_base)
    rhs = -(1.0 / dt) * base_divergence
    if plan.pinned.any():
        rhs[plan.pinned] = 0.0
    return SchurSystem(
        ab=ab,
        rhs=_read_only(rhs),
        ops=ops,
        dt=dt,
        plan=plan,
        invA_u=invA_u,
        invA_w=invA_w,
        base_divergence=_read_only(base_divergence),
        factor=factor,
    )


def solve_pressure(sys: SchurSystem) -> PressureField:
    """Solve the Schur system with the triangular solves on its factor.

    The system is SPD with bandwidth 1 (P1/P0) or 2 (P1-iso-P2/P1), so the
    solve is exact up to round-off in O(M) work: dpttrs (L D L^T) or dpbtrs
    on sys.factor, the second half of scipy.linalg.solveh_banded, for its
    bits.  A right-hand side without a nonzero entry returns the zero
    pressure.
    """
    if not sys.rhs.any():
        return PressureField(np.zeros(sys.n_pressure))
    if sys.bandwidth == 1:
        p, _ = dpttrs(*sys.factor, sys.rhs)
    else:
        p, _ = dpbtrs(*sys.factor, sys.rhs, lower=1)
    return PressureField(p)


def correct_velocity(
    u: np.ndarray,
    w: np.ndarray,
    P: np.ndarray,
    ops: OperatorSet,
    dt: float,
    bcs=(None, None),
) -> tuple[np.ndarray, np.ndarray]:
    """The corrected pair (u, w) = (u*, w*) + dt A_H^-1 B^T P on the free dofs.

    (u*, w*) = (u, w) is the predicted velocity.  The entry point for a
    caller that holds a pressure but no Schur system: it builds the system
    of (u, w) under the (left, right) pair of kinds bcs and applies
    SchurSystem.corrected_velocity, so bcs must be those that produced P.
    No step calls it; it is kept because the benchmark tracer wraps this
    name on timeloop.
    """
    P = np.asarray(P, dtype=float)
    if P.size != ops.n_pressure:
        raise ValueError("pressure/operator size mismatch")
    return build_schur(ops, u, w, dt, bcs).corrected_velocity(P)


def divergence_residual(sys: SchurSystem, u: np.ndarray, w: np.ndarray) -> float:
    """2-norm of B (u; w) over the enforced constraint rows (pinned rows
    carry no discrete equation and are excluded)."""
    return _enforced_norm(sys, sys.ops.apply_divergence(u, w))


def _enforced_norm(sys: SchurSystem, div: np.ndarray) -> float:
    pinned = sys.plan.pinned
    # with no pinned row the norm is over div itself: no masked copy
    return float(np.linalg.norm(np.where(pinned, 0.0, div) if pinned.any() else div))
