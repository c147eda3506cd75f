"""Discrete shallow-water operators for the two mixed element pairs.

Velocity components are continuous piecewise-linear on the fine mesh.  The
pressure is either constant per fine element (P1/P0) or continuous
piecewise-linear on the coarse mesh made of fine-element pairs
(P1-iso-P2/P1, odd node count).  The operators discretize

    grad_sw f = ( H df/dx + f d(H + 2 zb)/dx , -2 f )
    div_sw v  = d(H v1)/dx - v1 d(H + 2 zb)/dx + 2 v2

with zeta = H + 2 zb interpolated linearly from nodal values and the
depth-weighted product interpolated nodally, (H v)_h = sum_i H_i v_i phi_i.
Every element integral is then an exact polynomial and is assembled in
closed form.  The gradient matrix is the boundary-corrected transpose of
the divergence matrix, Bt = -B^T + C, which makes the duality relation

    v^T Bt q = -(B v)^T q        (v vanishing on the boundary)

hold to round-off for any depth and bottom.

Velocity degrees of freedom are stacked U = (u_1..u_N, w_1..w_N).  Each
pressure row only touches a contiguous window of velocity nodes, so the
divergence is stored as per-row windows (dense M x K blocks with uniform
window starts), which keeps per-step assembly and products O(N) in plain
numpy.  The u-coefficients of the windows are linear in (H, dzeta), with
dzeta the element increments of zeta, and the w-coefficients depend on the
mesh alone.  The derivative of B along a depth direction T_H is therefore
the u-part of B built from (T_H, diff(T_H)), which
OperatorSet.apply_depth_derivative applies exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Mesh1D

P1P0 = "P1P0"
P1ISOP2P1 = "P1isoP2P1"


@dataclass(frozen=True)
class ElementPair:
    """Velocity/pressure space pairing: tag, N velocity nodes, M pressure dofs."""

    tag: str
    n_velocity: int
    n_pressure: int

    @classmethod
    def p1p0(cls, n_nodes: int) -> "ElementPair":
        if n_nodes < 2:
            raise ValueError("P1/P0 needs at least two nodes")
        return cls(P1P0, n_nodes, n_nodes - 1)

    @classmethod
    def p1isop2p1(cls, n_nodes: int) -> "ElementPair":
        if n_nodes % 2 == 0:
            raise ValueError("P1-iso-P2/P1 requires an odd number of nodes")
        if n_nodes < 5:
            raise ValueError("P1-iso-P2/P1 needs at least five nodes")
        return cls(P1ISOP2P1, n_nodes, (n_nodes - 1) // 2 + 1)

    @classmethod
    def from_tag(cls, tag: str, n_nodes: int) -> "ElementPair":
        if tag == P1P0:
            return cls.p1p0(n_nodes)
        if tag == P1ISOP2P1:
            return cls.p1isop2p1(n_nodes)
        raise ValueError(f"unknown element pair {tag!r}")


def lump_mass(H, mesh: Mesh1D, h_eps: float = 1e-8) -> np.ndarray:
    """Row-sum lumped depth-weighted mass, a_i = integral(H_h phi_i).

    H is interpolated linearly, so an interior entry is
    h_l (H_{i-1}/6 + H_i/3) + h_r (H_i/3 + H_{i+1}/6).  Entries are floored
    at h_eps * dx_i so the matrix stays invertible on dry nodes.
    """
    H = np.asarray(H, dtype=float)
    if H.size != mesh.n_nodes:
        raise ValueError("H/mesh size mismatch")
    if np.any(H < 0.0):
        raise ValueError("negative depth in mass assembly")
    h = mesh.element_widths
    a = np.zeros(mesh.n_nodes)
    a[:-1] += h * (H[:-1] / 3.0 + H[1:] / 6.0)
    a[1:] += h * (H[:-1] / 6.0 + H[1:] / 3.0)
    return np.maximum(a, h_eps * mesh.dual_widths)


@dataclass
class OperatorSet:
    """Assembled operators of one pair on one (H, zb) configuration.

    The divergence matrix B (M x 2N) is held as per-row windows: row l
    touches velocity nodes starts[l] .. starts[l]+K-1 with u-coefficients
    Du[l] and w-coefficients Dw[l].  Window starts are the arithmetic
    sequence starts[l] = s0 + stride*l (clipped coefficients are zero, so
    negative starts are harmless).  The boundary matrix C has exactly two
    entries, (u_0, first pressure dof) = -H_0 and
    (u_{N-1}, last pressure dof) = +H_{N-1}.
    """

    pair: ElementPair
    mesh: Mesh1D
    H: np.ndarray
    zb: np.ndarray
    a_node: np.ndarray
    starts_base: int
    stride: int
    Du: np.ndarray
    Dw: np.ndarray
    h_eps: float
    pad: int = field(init=False)

    def __post_init__(self):
        self.pad = max(0, -self.starts_base)

    # -- basic shapes -------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.mesh.n_nodes

    @property
    def n_pressure(self) -> int:
        return self.pair.n_pressure

    @property
    def window(self) -> int:
        return self.Du.shape[1]

    @property
    def bandwidth(self) -> int:
        """Schur bandwidth in pressure dofs (1 tridiagonal, 2 pentadiagonal)."""
        return 1 if self.pair.tag == P1P0 else 2

    @property
    def boundary_entries(self) -> tuple[tuple[int, int, float], tuple[int, int, float]]:
        """C as (row, col, value) triplets in (2N, M) indexing."""
        n = self.n_nodes
        return (
            (0, 0, -float(self.H[0])),
            (n - 1, self.n_pressure - 1, float(self.H[-1])),
        )

    # -- wet/dry masks ------------------------------------------------------

    def wet_nodes(self) -> np.ndarray:
        return self.H >= self.h_eps

    def wet_elements(self) -> np.ndarray:
        wet = self.wet_nodes()
        return wet[:-1] & wet[1:]

    def dry_pressure_dofs(self) -> np.ndarray:
        """Pressure dofs whose supporting elements are all dry."""
        wet_el = self.wet_elements()
        if self.pair.tag == P1P0:
            return ~wet_el
        m = self.n_pressure
        # coarse element j pairs fine elements 2j and 2j+1
        coarse_wet = wet_el[0::2] | wet_el[1::2]
        any_wet = np.zeros(m, dtype=bool)
        any_wet[1:] |= coarse_wet
        any_wet[:-1] |= coarse_wet
        return ~any_wet

    # -- padded window helpers ---------------------------------------------

    def _padded(self, vec: np.ndarray) -> np.ndarray:
        if self.pad == 0:
            return vec
        out = np.zeros(vec.size + 2 * self.pad)
        out[self.pad:self.pad + vec.size] = vec
        return out

    def _offset_slice(self, k: int, count: int) -> slice:
        base = self.starts_base + self.pad + k
        return slice(base, base + self.stride * count, self.stride)

    def apply_divergence(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        """B (u; w): the divergence tested against every pressure basis function."""
        up = self._padded(u)
        wp = self._padded(w)
        m = self.n_pressure
        out = np.zeros(m)
        for k in range(self.window):
            sl = self._offset_slice(k, m)
            out += self.Du[:, k] * up[sl] + self.Dw[:, k] * wp[sl]
        return out

    def apply_depth_derivative(self, T_H: np.ndarray, u: np.ndarray) -> np.ndarray:
        """(dB/dH)[T_H] (u; w): the derivative of B along the depth direction T_H.

        Du is linear in (H, dzeta) and Dw does not depend on H, so the
        derivative is the u-part of B built from (T_H, diff(T_H)) applied
        to u; it is exact and independent of w.
        """
        dDu = _u_windows(self.pair, self.mesh, T_H, np.diff(T_H))
        up = self._padded(u)
        m = self.n_pressure
        out = np.zeros(m)
        for k in range(self.window):
            out += dDu[:, k] * up[self._offset_slice(k, m)]
        return out

    def scatter_divergence_t(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """B^T p accumulated on the (u, w) blocks."""
        n = self.n_nodes
        up = np.zeros(n + 2 * self.pad)
        wp = np.zeros(n + 2 * self.pad)
        m = self.n_pressure
        for k in range(self.window):
            sl = self._offset_slice(k, m)
            up[sl] += self.Du[:, k] * p
            wp[sl] += self.Dw[:, k] * p
        if self.pad:
            return up[self.pad:self.pad + n], wp[self.pad:self.pad + n]
        return up, wp

    # -- dense views (tests, dumps, small systems) ---------------------------

    def dense_divergence(self) -> np.ndarray:
        """B as a dense (M, 2N) matrix."""
        n, m = self.n_nodes, self.n_pressure
        out = np.zeros((m, 2 * n))
        for l in range(m):
            s = self.starts_base + self.stride * l
            for k in range(self.window):
                col = s + k
                if 0 <= col < n:
                    out[l, col] += self.Du[l, k]
                    out[l, n + col] += self.Dw[l, k]
        return out

    def dense_boundary(self) -> np.ndarray:
        """C as a dense (2N, M) matrix."""
        out = np.zeros((2 * self.n_nodes, self.n_pressure))
        for row, col, val in self.boundary_entries:
            out[row, col] = val
        return out

    def dense_gradient(self) -> np.ndarray:
        """Bt = -B^T + C as a dense (2N, M) matrix."""
        return -self.dense_divergence().T + self.dense_boundary()

    def interpolate_pressure_to_nodes(self, p: np.ndarray) -> np.ndarray:
        """Nodal pressure samples for output (element means or coarse traces)."""
        p = np.asarray(p, dtype=float)
        n = self.n_nodes
        out = np.empty(n)
        if self.pair.tag == P1P0:
            out[0] = p[0]
            out[-1] = p[-1]
            out[1:-1] = 0.5 * (p[:-1] + p[1:])
        else:
            out[0::2] = p
            # linear interpolation at the interior fine nodes
            xc = self.mesh.nodes[0::2]
            xm = self.mesh.nodes[1::2]
            t = (xm - xc[:-1]) / (xc[1:] - xc[:-1])
            out[1::2] = (1.0 - t) * p[:-1] + t * p[1:]
        return out


def _coarse_traces(mesh: Mesh1D):
    """Coarse hat values at the interior fine nodes of each coarse element."""
    x = mesh.nodes
    xc = x[0::2]
    xm = x[1::2]
    # fraction of the coarse element to the right of its interior fine node
    right_frac = (xc[1:] - xm) / (xc[1:] - xc[:-1])
    left_frac = (xm - xc[:-1]) / (xc[1:] - xc[:-1])
    return left_frac, right_frac


def _p1isop2_elements(mesh: Mesh1D):
    """Fine elements under the coarse pressure hats, in accumulation order.

    Each entry is (rows, e0, window offset of the element's left node,
    pressure trace at its left node, pressure trace at its right node):
    row j + 1 (left coarse element) or row j (right coarse element) takes
    fine element e0 + 2 j, for j = 0 .. M - 2.
    """
    left_frac, right_frac = _coarse_traces(mesh)
    rows_l, rows_r = slice(1, None), slice(None, -1)
    return (
        # left coarse element [2j-2, 2j] of row j: rises 0 -> left_frac -> 1
        (rows_l, 0, 0, 0.0, left_frac),
        (rows_l, 1, 1, left_frac, 1.0),
        # right coarse element [2j, 2j+2] of row j: falls 1 -> right_frac -> 0
        (rows_r, 0, 2, 1.0, right_frac),
        (rows_r, 1, 3, right_frac, 0.0),
    )


def _u_windows(pair: ElementPair, mesh: Mesh1D, H: np.ndarray, dzeta: np.ndarray) -> np.ndarray:
    """u-coefficients Du of the divergence windows, linear in (H, dzeta).

    dzeta holds the per-element increments of zeta = H + 2 zb.  Exact
    integrals over each fine element against the pressure trace on it.
    """
    if pair.tag == P1P0:
        # row l covers element l = [x_l, x_{l+1}]; pressure basis is 1 there
        return np.column_stack([-H[:-1] - 0.5 * dzeta, H[1:] - 0.5 * dzeta])
    Du = np.zeros((pair.n_pressure, 5))
    for rows, e0, off, pl, pr in _p1isop2_elements(mesh):
        el = slice(e0, None, 2)
        dz = dzeta[el]
        Du[rows, off] += -H[:-1][el] * 0.5 * (pl + pr) - dz * (pl / 3.0 + pr / 6.0)
        Du[rows, off + 1] += H[1:][el] * 0.5 * (pl + pr) - dz * (pl / 6.0 + pr / 3.0)
    return Du


def _w_windows(pair: ElementPair, mesh: Mesh1D) -> np.ndarray:
    """w-coefficients Dw of the divergence windows (mesh only, no depth)."""
    h = mesh.element_widths
    if pair.tag == P1P0:
        return np.column_stack([h, h])
    Dw = np.zeros((pair.n_pressure, 5))
    for rows, e0, off, pl, pr in _p1isop2_elements(mesh):
        he = h[e0::2]
        Dw[rows, off] += he * (2.0 * pl + pr) / 3.0
        Dw[rows, off + 1] += he * (pl + 2.0 * pr) / 3.0
    return Dw


def assemble(pair: ElementPair, mesh: Mesh1D, H, zb, h_eps: float = 1e-8) -> OperatorSet:
    """Assemble the lumped mass, divergence windows and boundary data.

    Exact closed-form element integrals; see the module docstring for the
    interpolation conventions.
    """
    H = np.asarray(H, dtype=float)
    zb = np.asarray(zb, dtype=float)
    n = mesh.n_nodes
    if pair.n_velocity != n:
        raise ValueError("element pair/mesh size mismatch")
    if H.size != n or zb.size != n:
        raise ValueError("H/zb size mismatch")
    if np.any(H < 0.0):
        raise ValueError("negative depth in assembly")
    if pair.tag != P1P0 and n % 2 == 0:
        raise ValueError("P1-iso-P2/P1 requires an odd number of nodes")

    dzeta = np.diff(H + 2.0 * zb)
    starts_base, stride = (0, 1) if pair.tag == P1P0 else (-2, 2)
    return OperatorSet(
        pair=pair,
        mesh=mesh,
        H=H,
        zb=zb,
        a_node=lump_mass(H, mesh, h_eps),
        starts_base=starts_base,
        stride=stride,
        Du=_u_windows(pair, mesh, H, dzeta),
        Dw=_w_windows(pair, mesh),
        h_eps=h_eps,
    )


def write_triplets(path, matrix: np.ndarray, threshold: float = 0.0):
    """Dump a dense matrix as "row col value" lines (for offline inspection)."""
    matrix = np.asarray(matrix)
    with open(path, "w") as fh:
        for (i, j), v in np.ndenumerate(matrix):
            if abs(v) > threshold:
                fh.write(f"{i} {j} {v:.17g}\n")
