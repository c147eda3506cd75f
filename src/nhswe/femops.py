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

Everything that depends on the mesh alone is built once per (mesh, element
pair) and reused by every assembly on that mesh: the w-coefficients Dw, the
coarse-trace fractions at the interior fine nodes (P1-iso-P2/P1), the
trace factors that turn (H, dzeta) into the u-coefficients, the table of
the rows and nodes each window column reaches inside the mesh, and the
Dw x Dw factors of the Schur bands.  This geometry is kept on the mesh
(Mesh1D._geometry, keyed by pair tag), so it lives as long as the mesh and
is never shared between meshes.  Its arrays are read-only: an in-place
write raises instead of corrupting later steps.
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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class _Geometry:
    """Mesh-only part of one element pair's operators on one mesh.

    columns[k] = (rows, nodes): the pressure rows whose window column k lies
    inside the mesh, and the velocity nodes it lies on (the clipped entries
    of a window are zero, so products skip them).  Dw holds the
    w-coefficients of the windows (M x K).  u_terms are the fine-element
    terms of the P1-iso-P2/P1 u-coefficients, each (rows, el, off, c_H,
    c_left, c_right) with c_H = (pl + pr) / 2, c_left = pl/3 + pr/6 and
    c_right = pl/6 + pr/3 from the pressure traces pl, pr at the element's
    ends.  left_frac holds the position of each interior fine node in its
    coarse element, the weight that interpolates the coarse pressure there
    (None for P1/P0).  schur_terms[d] lists band d of
    B diag(a_u, a_w) B^T as (k, k_d, rows, rows_d, nodes, w_factor): entry
    l of the band sums Du[l, k] Du[l + d, k_d] a_u[node] + w_factor a_w[node]
    over the terms, w_factor = Dw[rows, k] Dw[rows_d, k_d].

    Built once by _geometry and kept on the mesh; every array is read-only.
    """

    columns: tuple
    Dw: np.ndarray
    u_terms: tuple
    left_frac: np.ndarray | None
    schur_terms: tuple


@dataclass
class OperatorSet:
    """Assembled operators of one pair on one (H, zb) configuration.

    The divergence matrix B (M x 2N) is held as per-row windows: row l
    touches velocity nodes starts[l] .. starts[l]+K-1 with u-coefficients
    Du[l] and w-coefficients Dw[l].  Window starts are the arithmetic
    sequence starts[l] = s0 + stride*l (s0 = 0, stride 1 for P1/P0; s0 = -2,
    stride 2 for P1-iso-P2/P1); coefficients falling outside the mesh are
    zero and geometry.columns skips them.  Du is built from the
    depth on every assembly; Dw and the rest of the mesh-only data are the
    read-only geometry shared by every assembly on the same mesh (see the
    module docstring).  The boundary matrix C has exactly two entries,
    (u_0, first pressure dof) = -H_0 and (u_{N-1}, last pressure dof) =
    +H_{N-1}.
    """

    pair: ElementPair
    mesh: Mesh1D
    H: np.ndarray
    a_node: np.ndarray
    Du: np.ndarray
    h_eps: float
    geometry: _Geometry = field(repr=False)

    # -- basic shapes -------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.mesh.n_nodes

    @property
    def n_pressure(self) -> int:
        return self.pair.n_pressure

    @property
    def Dw(self) -> np.ndarray:
        return self.geometry.Dw

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

    # -- windowed products ----------------------------------------------------

    def apply_divergence(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        """B (u; w): the divergence tested against every pressure basis function."""
        out = np.zeros(self.n_pressure)
        Du, Dw = self.Du, self.Dw
        for k, (rows, nodes) in enumerate(self.geometry.columns):
            out[rows] += Du[rows, k] * u[nodes] + Dw[rows, k] * w[nodes]
        return out

    def apply_depth_derivative(self, T_H: np.ndarray, u: np.ndarray) -> np.ndarray:
        """(dB/dH)[T_H] (u; w): the derivative of B along the depth direction T_H.

        Du is linear in (H, dzeta) and Dw does not depend on H, so the
        derivative is the u-part of B built from (T_H, diff(T_H)) applied
        to u; it is exact and independent of w.
        """
        dDu = _u_windows(self.pair, self.geometry, T_H, np.diff(T_H))
        out = np.zeros(self.n_pressure)
        for k, (rows, nodes) in enumerate(self.geometry.columns):
            out[rows] += dDu[rows, k] * u[nodes]
        return out

    def scatter_divergence_t(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """B^T p accumulated on the (u, w) blocks."""
        n = self.n_nodes
        du = np.zeros(n)
        dw = np.zeros(n)
        Du, Dw = self.Du, self.Dw
        for k, (rows, nodes) in enumerate(self.geometry.columns):
            pk = p[rows]
            du[nodes] += Du[rows, k] * pk
            dw[nodes] += Dw[rows, k] * pk
        return du, dw

    # -- dense views (tests, small systems) ----------------------------------

    def dense_divergence(self) -> np.ndarray:
        """B as a dense (M, 2N) matrix."""
        n, m = self.n_nodes, self.n_pressure
        out = np.zeros((m, 2 * n))
        row_ids, node_ids = np.arange(m), np.arange(n)
        for k, (rows, nodes) in enumerate(self.geometry.columns):
            r, c = row_ids[rows], node_ids[nodes]
            out[r, c] += self.Du[rows, k]
            out[r, n + c] += self.Dw[rows, k]
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
            t = self.geometry.left_frac
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


def _p1isop2_elements(left_frac: np.ndarray, right_frac: np.ndarray):
    """Fine elements under the coarse pressure hats, in accumulation order.

    Each entry is (rows, e0, window offset of the element's left node,
    pressure trace at its left node, pressure trace at its right node):
    row j + 1 (left coarse element) or row j (right coarse element) takes
    fine element e0 + 2 j, for j = 0 .. M - 2.
    """
    rows_l, rows_r = slice(1, None), slice(None, -1)
    return (
        # left coarse element [2j-2, 2j] of row j: rises 0 -> left_frac -> 1
        (rows_l, 0, 0, 0.0, left_frac),
        (rows_l, 1, 1, left_frac, 1.0),
        # right coarse element [2j, 2j+2] of row j: falls 1 -> right_frac -> 0
        (rows_r, 0, 2, 1.0, right_frac),
        (rows_r, 1, 3, right_frac, 0.0),
    )


def _window_columns(s0: int, stride: int, K: int, m: int, n: int) -> tuple:
    """(rows, nodes) of every window column k: rows l whose node
    s0 + stride*l + k lies in [0, n), and those nodes."""
    columns = []
    for k in range(K):
        first = s0 + k  # node of row 0
        r0 = max(0, -(first // stride))
        r1 = min(m, (n - 1 - first) // stride + 1)
        start = first + stride * r0
        columns.append((slice(r0, r1), slice(start, start + stride * (r1 - r0), stride)))
    return tuple(columns)


def _schur_terms(columns: tuple, Dw: np.ndarray, stride: int, bandwidth: int) -> tuple:
    """The terms of each band d of B diag(a_u, a_w) B^T (see _Geometry).

    Rows l and l + d share a node where window column k of row l meets
    column k - d*stride of row l + d.
    """
    m = Dw.shape[0]
    bands = []
    for d in range(bandwidth + 1):
        delta = d * stride
        terms = []
        for k in range(delta, Dw.shape[1]):
            rows_k, nodes_k = columns[k]
            r0, r1 = rows_k.start, min(rows_k.stop, m - d)
            rows, rows_d = slice(r0, r1), slice(r0 + d, r1 + d)
            nodes = slice(nodes_k.start, nodes_k.start + stride * (r1 - r0), stride)
            w_factor = _read_only(Dw[rows, k] * Dw[rows_d, k - delta])
            terms.append((k, k - delta, rows, rows_d, nodes, w_factor))
        bands.append(tuple(terms))
    return tuple(bands)


def _build_geometry(pair: ElementPair, mesh: Mesh1D) -> _Geometry:
    n, m = mesh.n_nodes, pair.n_pressure
    h = mesh.element_widths
    if pair.tag == P1P0:
        # row l covers element l = [x_l, x_{l+1}]; pressure basis is 1 there
        s0, stride, bandwidth = 0, 1, 1
        Dw = np.empty((m, 2), order="F")
        Dw[:, 0] = h
        Dw[:, 1] = h
        u_terms, left_frac = (), None
    else:
        # row j is the coarse hat at fine node 2j, reaching nodes 2j-2 .. 2j+2
        s0, stride, bandwidth = -2, 2, 2
        left_frac, right_frac = _coarse_traces(mesh)
        _read_only(left_frac)
        Dw = np.zeros((m, 5), order="F")
        u_terms = []
        for rows, e0, off, pl, pr in _p1isop2_elements(left_frac, right_frac):
            el = slice(e0, None, 2)
            he = h[el]
            Dw[rows, off] += he * (2.0 * pl + pr) / 3.0
            Dw[rows, off + 1] += he * (pl + 2.0 * pr) / 3.0
            coefs = (0.5 * (pl + pr), pl / 3.0 + pr / 6.0, pl / 6.0 + pr / 3.0)
            u_terms.append((rows, el, off, *(_read_only(c) for c in coefs)))
        u_terms = tuple(u_terms)
    _read_only(Dw)
    columns = _window_columns(s0, stride, Dw.shape[1], m, n)
    return _Geometry(
        columns=columns,
        Dw=Dw,
        u_terms=u_terms,
        left_frac=left_frac,
        schur_terms=_schur_terms(columns, Dw, stride, bandwidth),
    )


def _geometry(pair: ElementPair, mesh: Mesh1D) -> _Geometry:
    """The mesh-only operator data of `pair` on `mesh`, built on first use
    and kept on the mesh for every later assembly."""
    geom = mesh._geometry.get(pair.tag)
    if geom is None:
        geom = mesh._geometry[pair.tag] = _build_geometry(pair, mesh)
    return geom


def _u_windows(pair: ElementPair, geom: _Geometry, H: np.ndarray, dzeta: np.ndarray) -> np.ndarray:
    """u-coefficients Du of the divergence windows, linear in (H, dzeta).

    dzeta holds the per-element increments of zeta = H + 2 zb.  Exact
    integrals over each fine element against the pressure trace on it,
    whose mesh-only factors come from the geometry.
    """
    if pair.tag == P1P0:
        Du = np.empty((pair.n_pressure, 2), order="F")
        half_dz = 0.5 * dzeta
        np.subtract(-H[:-1], half_dz, out=Du[:, 0])
        np.subtract(H[1:], half_dz, out=Du[:, 1])
        return Du
    Du = np.zeros((pair.n_pressure, 5), order="F")
    for rows, el, off, c_H, c_left, c_right in geom.u_terms:
        dz = dzeta[el]
        Du[rows, off] += -H[:-1][el] * c_H - dz * c_left
        Du[rows, off + 1] += H[1:][el] * c_H - dz * c_right
    return Du


def assemble(pair: ElementPair, mesh: Mesh1D, H, zb, h_eps: float = 1e-8) -> OperatorSet:
    """Assemble the lumped mass, divergence windows and boundary data.

    Exact closed-form element integrals; see the module docstring for the
    interpolation conventions.  The mesh-only part is taken from the
    mesh's geometry cache (built on the first assembly of this pair).
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

    geom = _geometry(pair, mesh)
    dzeta = np.diff(H + 2.0 * zb)
    return OperatorSet(
        pair=pair,
        mesh=mesh,
        H=H,
        a_node=lump_mass(H, mesh, h_eps),
        Du=_u_windows(pair, geom, H, dzeta),
        h_eps=h_eps,
        geometry=geom,
    )
