"""Pressure correction step.

The prediction leaves a velocity field U* that violates the depth-averaged
incompressibility constraint B U = 0.  Correcting with the discrete
pressure gradient,

    A_H U = A_H U* - dt (Bt - C) P,      Bt - C = -B^T,

and eliminating U gives the symmetric positive definite Schur system

    (B A_H^-1 B^T) P = -(1/dt) B U*,

a banded Sturm-Liouville-type problem (tridiagonal for P1/P0,
pentadiagonal for P1-iso-P2/P1).  The lumped mass makes A_H diagonal so
the elimination is exact and the corrected velocity is

    U = U* + dt A_H^-1 B^T P.

Boundary handling: every boundary condition holds its data at 0 or at the
predicted trace.
  * dirichlet: the boundary pressure dof is pinned to 0 (row/column
    eliminated symmetrically, which keeps the matrix SPD); the boundary
    velocity is corrected like any interior dof.
  * wall and neumann: the boundary horizontal velocity is held, at 0 for
    a wall and at its predicted trace for neumann; its column is masked
    out of the Schur operator and the held value enters the right-hand
    side through B U*.  An imposed depth closes as neumann: its Robin
    coefficient dH/dn needs no kind of its own, because the
    depth-dependent boundary entries of B and C already carry it.

Velocity dofs on dry nodes (H < h_eps) are excluded from the correction and
pressure dofs with an entirely dry support are pinned to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .femops import OperatorSet


@dataclass(frozen=True)
class PressureBC:
    """Pressure boundary condition induced by the hyperbolic closure.

    kind: "dirichlet" (boundary pressure 0), "wall" (horizontal boundary
    velocity held at 0) or "neumann" (horizontal boundary velocity held at
    its predicted trace).
    """

    side: str
    kind: str

    def __post_init__(self):
        if self.side not in ("in", "out"):
            raise ValueError(f"side must be 'in' or 'out', got {self.side!r}")
        if self.kind not in ("dirichlet", "wall", "neumann"):
            raise ValueError(f"unknown pressure BC kind {self.kind!r}")


@dataclass
class PressureField:
    """Pressure coefficients on the pressure space of one element pair."""

    values: np.ndarray


@dataclass
class _BCPlan:
    free_u: np.ndarray
    free_w: np.ndarray
    u_base: np.ndarray
    w_base: np.ndarray
    pinned: np.ndarray  # bool mask over pressure dofs, each held at 0


def resolve_projection_bcs(ops: OperatorSet, bcs, U_predicted: np.ndarray) -> _BCPlan:
    n = ops.n_nodes
    U_predicted = np.asarray(U_predicted, dtype=float)
    if U_predicted.size != 2 * n:
        raise ValueError("U must stack (u_1..u_N, w_1..w_N)")
    u_base = U_predicted[:n].copy()
    w_base = U_predicted[n:].copy()
    wet = ops.wet_nodes()
    free_u = wet.copy()
    free_w = wet.copy()
    m = ops.n_pressure
    pinned = ops.dry_pressure_dofs()
    for bc in bcs:
        if bc.kind == "dirichlet":
            pinned[0 if bc.side == "in" else m - 1] = True
            continue
        node = 0 if bc.side == "in" else n - 1
        free_u[node] = False
        if bc.kind == "wall":
            u_base[node] = 0.0
    return _BCPlan(free_u, free_w, u_base, w_base, pinned)


def _inverse_mass(ops: OperatorSet, plan: _BCPlan) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal A_H^-1 on the (u, w) blocks, zero on the held and dry dofs."""
    inv_a = 1.0 / ops.a_node
    invA_u = np.where(plan.free_u, inv_a, 0.0)
    invA_w = np.where(plan.free_w, inv_a, 0.0)
    return invA_u, invA_w


def _corrected(
    ops: OperatorSet, plan: _BCPlan, invA_u: np.ndarray, invA_w: np.ndarray, dt: float, p
) -> tuple[np.ndarray, np.ndarray]:
    """(u, w) = U* + dt A_H^-1 B^T p, U* being the plan's base velocity."""
    du, dw = ops.scatter_divergence_t(p)
    u = plan.u_base + dt * invA_u * du
    w = plan.w_base + dt * invA_w * dw
    return u, w


@dataclass
class SchurSystem:
    """Banded SPD pressure system with its saddle-point context.

    ab holds the symmetric band in scipy's lower=True layout, bandwidth + 1
    rows: ab[0] is the diagonal and ab[d, :m-d] the d-th off-diagonal,
    ab[d, l] = S[l + d, l] = S[l, l + d].  LAPACK's banded Cholesky
    factors this layout faster than the upper one.  rhs is the eliminated
    right-hand side.  The operator set, the BC plan (with the base velocity
    U*) and the masked inverse mass are kept so the correction stays
    consistent with the system that produced the pressure.

    base_divergence is the B U* the rhs was formed from, kept as the scale
    of the post-correction residual.
    """

    ab: np.ndarray
    rhs: np.ndarray
    ops: OperatorSet
    dt: float
    plan: _BCPlan
    invA_u: np.ndarray
    invA_w: np.ndarray
    base_divergence: np.ndarray

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
        """(u, w) = U* + dt A_H^-1 B^T p with this system's BC plan and masks."""
        return _corrected(self.ops, self.plan, self.invA_u, self.invA_w, self.dt, p)

    def dense(self) -> np.ndarray:
        m = self.n_pressure
        out = np.diag(self.ab[0].copy())
        for d in range(1, self.bandwidth + 1):
            band = self.ab[d, : m - d]
            out += np.diag(band, k=d) + np.diag(band, k=-d)
        return out


def build_schur(
    ops: OperatorSet,
    U_predicted: np.ndarray,
    dt: float,
    bcs=(),
) -> SchurSystem:
    """Assemble the banded Schur complement and its right-hand side."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    plan = resolve_projection_bcs(ops, bcs, U_predicted)
    m = ops.n_pressure
    bw = ops.bandwidth
    Du = ops.Du

    invA_u, invA_w = _inverse_mass(ops, plan)

    # S = B A_H^-1 B^T band by band, in the lower layout (see SchurSystem);
    # the geometry lists the window products that meet inside the mesh
    ab = np.zeros((bw + 1, m))
    for d, terms in enumerate(ops.geometry.schur_terms):
        band = ab[d, : m - d]
        for k, k_d, rows, rows_d, nodes, w_factor in terms:
            band[rows] += (
                Du[rows, k] * Du[rows_d, k_d] * invA_u[nodes] + w_factor * invA_w[nodes]
            )

    base_divergence = ops.apply_divergence(plan.u_base, plan.w_base)
    rhs = -(1.0 / dt) * base_divergence

    # symmetric elimination of the pinned dofs (Dirichlet sides and dry
    # supports), each held at 0
    if np.any(plan.pinned):
        for d in range(1, bw + 1):
            ab[d, : m - d][plan.pinned[d:] | plan.pinned[: m - d]] = 0.0
        ab[0, plan.pinned] = 1.0
        rhs[plan.pinned] = 0.0

    if np.any(ab[0] <= 0.0):
        raise ValueError(
            "Schur diagonal is not positive: the pressure problem is fully "
            "determined, so a singular assembly indicates a bug"
        )

    return SchurSystem(
        ab=ab,
        rhs=rhs,
        ops=ops,
        dt=dt,
        plan=plan,
        invA_u=invA_u,
        invA_w=invA_w,
        base_divergence=base_divergence,
    )


def solve_pressure(sys: SchurSystem) -> PressureField:
    """Solve the Schur system by banded Cholesky factorization.

    The system is SPD with bandwidth 1 (P1/P0) or 2 (P1-iso-P2/P1), so the
    solve is exact up to round-off in O(M) work.  The band is stored lower
    (SchurSystem), the layout LAPACK's banded Cholesky runs fastest.  A zero
    right-hand side returns the zero pressure without factoring.
    """
    if float(np.linalg.norm(sys.rhs)) == 0.0:
        return PressureField(np.zeros(sys.n_pressure))
    try:
        p = scipy.linalg.solveh_banded(sys.ab, sys.rhs, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - assembly bug guard
        raise ValueError(f"indefinite pivot in the banded factorization: {exc}") from exc
    return PressureField(p)


def correct_velocity(
    U_predicted: np.ndarray,
    P: np.ndarray,
    ops: OperatorSet,
    dt: float,
    bcs=(),
) -> np.ndarray:
    """Apply U = U* + dt A_H^-1 B^T P on the free dofs (U stacked (u, w)).

    Must be called with the same boundary conditions that built the Schur
    system so the masked dofs match.  When that system is at hand,
    SchurSystem.corrected_velocity applies the same correction without
    resolving the boundary conditions again.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    P = np.asarray(P, dtype=float)
    if P.size != ops.n_pressure:
        raise ValueError("pressure/operator size mismatch")
    plan = resolve_projection_bcs(ops, bcs, U_predicted)
    invA_u, invA_w = _inverse_mass(ops, plan)
    return np.concatenate(_corrected(ops, plan, invA_u, invA_w, dt, P))


def divergence_residual(sys: SchurSystem, U: np.ndarray) -> float:
    """2-norm of B U over the enforced constraint rows (pinned rows carry no
    discrete equation and are excluded)."""
    n = sys.ops.n_nodes
    return _enforced_norm(sys, sys.ops.apply_divergence(U[:n], U[n:]))


def _enforced_norm(sys: SchurSystem, div: np.ndarray) -> float:
    return float(np.linalg.norm(np.where(sys.plan.pinned, 0.0, div)))
