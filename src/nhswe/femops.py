"""Discrete shallow-water operators for the two mixed element pairs.

Velocity components are continuous piecewise-linear on the fine mesh.  The
pressure is either constant per fine element (P1/P0) or continuous
piecewise-linear on the coarse mesh made of fine-element pairs
(P1-iso-P2/P1, odd node count).  The operators discretize

    grad_sw f = ( H df/dx + f d(H + 2 zb)/dx , -2 f )
    div_sw v  = d(H v1)/dx - v1 d(H + 2 zb)/dx + 2 v2

with zeta = H + 2 zb interpolated linearly from nodal values and the
depth-weighted product nodally, (H v)_h = sum_i H_i v_i phi_i, so every
element integral is exact and assembled in closed form.  The gradient
matrix Bt = -B^T + C makes the duality relation

    v^T Bt q = -(B v)^T q        (v vanishing on the boundary)

hold to round-off for any depth and bottom.  Both pairs are one table of
fine-element terms (_RowBlock); only _build_geometry tells them apart.
The kernels of a step run over blocks of core._BLOCK pressure rows or
nodes, and no output depends on the block size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import core
from .core import Bathymetry, Mesh1D, _read_only

P1P0 = "P1P0"
P1ISOP2P1 = "P1isoP2P1"


@dataclass(frozen=True)
class ElementPair:
    """Velocity/pressure space pairing: tag, N velocity nodes, M pressure
    dofs.  Validated on construction: a known tag and a node count the pair
    admits (P1/P0 at least 2, P1-iso-P2/P1 odd and at least 5)."""

    tag: str
    n_velocity: int

    def __post_init__(self):
        n = self.n_velocity
        if self.tag not in (P1P0, P1ISOP2P1):
            raise ValueError(f"unknown element pair {self.tag!r}")
        if self.tag == P1P0 and n < 2:
            raise ValueError(f"P1P0 needs at least two nodes, got {n}")
        if self.tag == P1ISOP2P1 and (n % 2 == 0 or n < 5):
            raise ValueError(f"P1isoP2P1 needs an odd number of nodes, at least five, got {n}")

    @property
    def n_pressure(self) -> int:
        """M: one dof per element (P1/P0) or per coarse node (P1-iso-P2/P1)."""
        n = self.n_velocity
        return n - 1 if self.tag == P1P0 else (n - 1) // 2 + 1

    # the same as ElementPair(tag, n_nodes); kept because the benchmark's
    # workloads build their pairs through it
    @classmethod
    def from_tag(cls, tag: str, n_nodes: int) -> "ElementPair":
        return cls(tag, n_nodes)


def lump_mass(H, mesh: Mesh1D, h_eps: float) -> np.ndarray:
    """Row-sum lumped depth-weighted mass, a_i = integral(H_h phi_i).

    H is linear, so an interior entry is h_r (H_i/3 + H_{i+1}/6) +
    h_l (H_{i-1}/6 + H_i/3), summed in this order, and floored at
    h_eps * dx_i.  Every entry is at least h_eps dx_i > 0, so the
    reciprocal runs on every node, and a node's entry is at least
    (2/3) dx_i H_i, so the floor binds only on a node thinner than 1.5 h_eps
    beside shallow or dry ones: it caps that node's inverse mass at
    1/(h_eps dx_i).  Each block of core._BLOCK nodes reads one more node at
    either end.
    """
    H = np.asarray(H, dtype=float)
    n = mesh.n_nodes
    if H.size != n:
        raise ValueError("H/mesh size mismatch")
    h, dx, block = mesh.element_widths, mesh.dual_widths, core._BLOCK
    a = np.empty(n)
    for b0 in range(0, n, block):
        b1 = min(b0 + block, n)
        lo = max(b0 - 1, 0)  # x[i - lo] = H_i
        x = H[lo : b1 + 1]
        if x.min() < 0.0:
            raise ValueError("negative depth in mass assembly")
        third, sixth = x / 3.0, x / 6.0
        # elements b0 .. e1 - 1 give their left node h_e (H_e/3 + H_{e+1}/6)
        e1 = min(b1, n - 1)
        left = np.add(third[b0 - lo : e1 - lo], sixth[b0 + 1 - lo : e1 + 1 - lo], out=a[b0:e1])
        left *= h[b0:e1]
        if b1 == n:
            a[-1] = 0.0
        # elements s1 - 1 .. b1 - 2 give their right node h_e (H_e/6 + H_{e+1}/3),
        # formed in the thirds' buffer
        s1 = max(b0, 1)
        right = third[s1 - lo : b1 - lo]
        np.add(sixth[s1 - 1 - lo : b1 - 1 - lo], right, out=right)
        right *= h[s1 - 1 : b1 - 1]
        a[s1:b1] += right
        np.maximum(a[b0:b1], h_eps * dx[b0:b1], out=a[b0:b1])
    return a


class _RowBlock(NamedTuple):
    """The window columns and terms of the pressure rows of one block.

    columns[k] = (rows, nodes): the rows whose window column k lies inside
    the mesh, and the velocity nodes it lies on (clipped entries are zero
    and skipped).  u_terms are the fine-element terms (rows, el, off, c_H,
    c_left, c_right): rows take fine elements el at window offsets off and
    off + 1, with c_H = (pl + pr) / 2, c_left = pl/3 + pr/6, c_right =
    pl/6 + pr/3 from the pressure traces pl, pr at the element's ends.
    P1/P0's one term (row l, element l) has unit traces and stores c_H = 1
    and c_right = c_left = 1/2 as None; P1-iso-P2/P1 has four (a coarse
    hat's two fine elements either side of its node).  schur_terms[d] lists
    band d of B diag(a_u, a_w) B^T as (k, k_d, rows, rows_d, nodes,
    w_factor): entry l sums Du[l, k] Du[l + d, k_d] a_u[node] + w_factor
    a_w[node] over them, w_factor = Dw[rows, k] Dw[rows_d, k_d].
    """

    columns: tuple
    u_terms: tuple
    schur_terms: tuple


@dataclass(frozen=True)
class _Geometry:
    """Mesh-only part of one element pair's operators on one mesh; every
    array is read-only.

    Dw holds the windows' w-coefficients (M x K).  nodal = (dof_nodes,
    dofs, mixed, t): nodes dof_nodes carry dofs, a node of mixed takes
    (1 - t) p_l + t p_{l+1}.  row_blocks holds a _RowBlock per block of
    core._BLOCK pressure rows, node_blocks the columns cut to each block of
    _BLOCK nodes (_within).  plans is the boundary plan cache of
    projection.resolve_projection_bcs: keyed by the closure, the (left,
    right) pair of hyperbolic kinds, it holds the last wet mask resolved
    under that closure and its plan.
    """

    Dw: np.ndarray
    nodal: tuple
    row_blocks: tuple
    node_blocks: tuple
    plans: dict = field(default_factory=dict, repr=False, compare=False)


@dataclass
class OperatorSet:
    """Assembled operators of one pair on one (H, zb) configuration.

    B (M x 2N, on U = (u, w)) is held as per-row windows: row l touches
    nodes s0 + stride*l + k, k < K (s0 = 0, stride 1 for P1/P0; s0 = -2,
    stride 2 for P1-iso-P2/P1), with u-coefficients Du[l] from the depth
    and w-coefficients Dw[l] from the geometry.  The projection uses only
    Bt - C = -B^T, so C is not built; the test oracles build it from its two
    entries, (u_0, first dof) = -H_0 and (u_{N-1}, last dof) = +H_{N-1}.
    wet is the read-only mask H >= h_eps, computed once for every reader.
    """

    pair: ElementPair
    mesh: Mesh1D
    H: np.ndarray
    wet: np.ndarray
    a_node: np.ndarray
    Du: np.ndarray
    geometry: _Geometry = field(repr=False)

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
        return len(self.geometry.row_blocks[0].schur_terms) - 1

    def dry_pressure_dofs(self) -> np.ndarray:
        """Pressure dofs whose supporting fine elements all have a dry end."""
        wet = self.wet
        wet_el = wet[:-1] & wet[1:]
        any_wet = np.zeros(self.n_pressure, dtype=bool)
        for block in self.geometry.row_blocks:
            for rows, el, *_ in block.u_terms:
                any_wet[rows] |= wet_el[el]
        return ~any_wet

    def apply_divergence(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        """B (u; w): the divergence tested against every pressure basis function."""
        out = np.zeros(self.n_pressure)
        Du, Dw = self.Du, self.Dw
        for block in self.geometry.row_blocks:
            for k, (rows, nodes) in enumerate(block.columns):
                out[rows] += Du[rows, k] * u[nodes] + Dw[rows, k] * w[nodes]
        return out

    def apply_depth_derivative(self, T_H: np.ndarray, u: np.ndarray) -> np.ndarray:
        """(dB/dH)[T_H] (u; w), exact and independent of w: B's u-coefficients
        are linear in (H, dzeta), dzeta the element increments of zeta, and
        its w-coefficients depend on the mesh alone, so this is the u-part of
        B built from (T_H, diff(T_H)) applied to u."""
        dDu = _u_windows(self.geometry, T_H, np.subtract(T_H[1:], T_H[:-1]))
        out = np.zeros(self.n_pressure)
        for block in self.geometry.row_blocks:
            for k, (rows, nodes) in enumerate(block.columns):
                out[rows] += dDu[rows, k] * u[nodes]
        return out

    def scatter_divergence_t(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """B^T p accumulated on the (u, w) blocks, node block by node block: a
        node sums up to three contributions (an even P1-iso-P2/P1 node) in
        the order of the window columns, which sets its bits and which row
        blocks would break at a block boundary."""
        n = self.n_nodes
        du = np.zeros(n)
        dw = np.zeros(n)
        Du, Dw = self.Du, self.Dw
        for columns in self.geometry.node_blocks:
            for k, (rows, nodes) in enumerate(columns):
                pk = p[rows]
                du[nodes] += Du[rows, k] * pk
                dw[nodes] += Dw[rows, k] * pk
        return du, dw

    def interpolate_pressure_to_nodes(self, p: np.ndarray) -> np.ndarray:
        """Nodal pressure samples for output: a dof's value on the node that
        carries it, the linear mix of the two neighbouring dofs elsewhere."""
        p = np.asarray(p, dtype=float)
        dof_nodes, dofs, mixed, t = self.geometry.nodal
        out = np.empty(self.n_nodes)
        out[dof_nodes] = p[dofs]
        out[mixed] = (1.0 - t) * p[:-1] + t * p[1:]
        return out


def _schur_terms(columns: tuple, Dw: np.ndarray, stride: int, bandwidth: int) -> tuple:
    """The terms of each band d of B diag(a_u, a_w) B^T (_RowBlock): rows l
    and l + d share a node where column k of row l meets column
    k - d*stride of row l + d."""
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


def _within(entries: tuple, at: int, lo: int, hi: int) -> tuple:
    """Each column or term cut to the positions whose index in its slice
    entry[at] lies in lo .. hi - 1: its slices narrowed (start and stop
    given), its arrays as views."""
    cut = []
    for entry in entries:
        s = entry[at]
        step, count = s.step or 1, len(range(s.start, s.stop, s.step or 1))
        i0 = min(max(-((s.start - lo) // step), 0), count)
        i1 = max(min(-((s.start - hi) // step), count), i0)
        cut.append(tuple(
            slice(x.start + (x.step or 1) * i0, x.start + (x.step or 1) * i1, x.step)
            if isinstance(x, slice) else x[i0:i1] if isinstance(x, np.ndarray) else x
            for x in entry
        ))
    return tuple(cut)


def _build_geometry(pair: ElementPair, mesh: Mesh1D) -> _Geometry:
    n, m = mesh.n_nodes, pair.n_pressure
    h = mesh.element_widths
    # the pair's fine-element table: windows start at s0 + stride*l and are K
    # nodes wide; each term (rows, el, off, coefs, w_left, w_right) gives rows
    # the fine elements el at window offset off, with the u-factors coefs of
    # _RowBlock and w-coefficients w_left, w_right at the element's two ends
    if pair.tag == P1P0:
        # row l covers element l = [x_l, x_{l+1}], where its basis is 1 (unit traces)
        s0, stride, K = 0, 1, 2
        every = slice(None)
        table = ((every, every, 0, (None, 0.5, None), h, h),)
        # the end nodes carry the end elements' values, the others the mean of two
        nodal = ([0, -1], [0, -1], slice(1, -1), 0.5)
    else:
        # row j is the coarse hat at fine node 2j, reaching nodes 2j-2 .. 2j+2;
        # each coarse element pairs fine elements 2j and 2j+1, whose shared
        # node sits at left_frac (right_frac from the right) of the element
        s0, stride, K = -2, 2, 5
        xc, xm = mesh.nodes[0::2], mesh.nodes[1::2]
        right_frac = (xc[1:] - xm) / (xc[1:] - xc[:-1])
        left_frac = _read_only((xm - xc[:-1]) / (xc[1:] - xc[:-1]))
        rows_l, rows_r = slice(1, None), slice(None, -1)
        table = []
        for rows, e0, off, pl, pr in (
            # left coarse element [2j-2, 2j] of row j: rises 0 -> left_frac -> 1
            (rows_l, 0, 0, 0.0, left_frac),
            (rows_l, 1, 1, left_frac, 1.0),
            # right coarse element [2j, 2j+2] of row j: falls 1 -> right_frac -> 0
            (rows_r, 0, 2, 1.0, right_frac),
            (rows_r, 1, 3, right_frac, 0.0),
        ):
            el = slice(e0, None, 2)
            he = h[el]
            w_left, w_right = he * (2.0 * pl + pr) / 3.0, he * (pl + 2.0 * pr) / 3.0
            coefs = (0.5 * (pl + pr), pl / 3.0 + pr / 6.0, pl / 6.0 + pr / 3.0)
            table.append((rows, el, off, coefs, w_left, w_right))
        # the coarse nodes carry their dofs
        nodal = (slice(0, None, 2), slice(None), slice(1, None, 2), left_frac)

    Dw = np.zeros((m, K), order="F")
    u_terms = []
    for rows, el, off, coefs, w_left, w_right in table:
        Dw[rows, off] += w_left
        Dw[rows, off + 1] += w_right
        rows, el = slice(*rows.indices(m)), slice(*el.indices(n - 1))
        u_terms.append((rows, el, off, *(_read_only(c) for c in coefs)))
    _read_only(Dw)
    # window column k of row l lies on node s0 + stride*l + k, if in the mesh
    columns = _within(tuple((slice(0, m), slice(s0 + k, s0 + k + stride * m, stride))
                            for k in range(K)), 1, 0, n)
    schur_terms = _schur_terms(columns, Dw, stride, (K - 1) // stride)
    block = core._BLOCK
    return _Geometry(
        Dw=Dw,
        nodal=nodal,
        row_blocks=tuple(
            _RowBlock(
                _within(columns, 0, r0, r0 + block),
                _within(u_terms, 0, r0, r0 + block),
                tuple(_within(terms, 2, r0, r0 + block) for terms in schur_terms),
            )
            for r0 in range(0, m, block)
        ),
        node_blocks=tuple(_within(columns, 1, a, a + block) for a in range(0, n, block)),
    )


def _geometry(pair: ElementPair, mesh: Mesh1D) -> _Geometry:
    """The mesh-only operator data of `pair` on `mesh`, built on first use
    and kept on the mesh (keyed by pair tag, never shared between meshes)
    for every later assembly."""
    geom = mesh._geometry.get(pair.tag)
    if geom is None:
        geom = mesh._geometry[pair.tag] = _build_geometry(pair, mesh)
    return geom


def _u_windows(geom: _Geometry, H: np.ndarray, dzeta: np.ndarray) -> np.ndarray:
    """u-coefficients Du of the windows, linear in (H, dzeta), dzeta the
    element increments of zeta: from zeros, each term integrates exactly
    over its elements, subtracting into its left end, adding into its right."""
    Du = np.zeros(geom.Dw.shape, order="F")
    for block in geom.row_blocks:
        for rows, el, off, c_H, c_left, c_right in block.u_terms:
            H_l, H_r = H[:-1][el], H[1:][el]
            if c_H is not None:
                H_l, H_r = H_l * c_H, H_r * c_H
            dz_l = dzeta[el] * c_left
            dz_r = dz_l if c_right is None else dzeta[el] * c_right
            Du[rows, off] -= H_l + dz_l
            Du[rows, off + 1] += H_r - dz_r
    return Du


def assemble(
    pair: ElementPair, mesh: Mesh1D, H, bathy: Bathymetry, h_eps: float
) -> OperatorSet:
    """The wet mask H >= h_eps, lumped mass and divergence windows of the
    depth H over the bottom bathy, in closed form (module docstring), with
    the mesh's geometry (built at the pair's first assembly) and 2 zb."""
    n = mesh.n_nodes
    if pair.n_velocity != n:
        raise ValueError("element pair/mesh size mismatch")
    if bathy.zb.size != n:
        raise ValueError("zb/mesh size mismatch")

    H = np.asarray(H, dtype=float)
    a_node = lump_mass(H, mesh, h_eps)  # rejects a wrong size or a negative depth
    geom = _geometry(pair, mesh)
    zeta = H + bathy.two_zb
    dzeta = np.subtract(zeta[1:], zeta[:-1])
    return OperatorSet(
        pair=pair,
        mesh=mesh,
        H=H,
        wet=_read_only(H >= h_eps),
        a_node=a_node,
        Du=_u_windows(geom, H, dzeta),
        geometry=geom,
    )
