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

Both pairs are one table of fine-element terms: a term gives a set of rows
one fine element each, at a fixed window offset, with the pressure traces
at the element's two ends.  P1/P0 has a single term (row l takes element l
with traces 1, 1); P1-iso-P2/P1 has four (each coarse hat takes the two
fine elements on either side of its node).  Only the table builder tells
the pairs apart; assembly, the dry-dof test and the Schur bands loop over
the terms.

Everything that depends on the mesh alone (_Geometry) is built once per
(mesh, element pair) and kept on the mesh (Mesh1D._geometry, keyed by pair
tag), so it lives as long as the mesh and is never shared between meshes.
Its arrays are read-only: an in-place write raises instead of corrupting
later steps.  The bottom-only term 2 zb is likewise kept on the
Bathymetry, and the depth-only wet mask on the OperatorSet
(OperatorSet.wet), so an assembly computes each once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Bathymetry, Mesh1D, _read_only

P1P0 = "P1P0"
P1ISOP2P1 = "P1isoP2P1"


@dataclass(frozen=True)
class ElementPair:
    """Velocity/pressure space pairing: tag, N velocity nodes, M pressure dofs.

    Validated on construction: a known tag and a node count the pair admits
    (P1/P0 at least 2, P1-iso-P2/P1 odd and at least 5).  M follows from
    the two.
    """

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

    H is interpolated linearly, so an interior entry is
    h_l (H_{i-1}/6 + H_i/3) + h_r (H_i/3 + H_{i+1}/6).  Entries are floored
    at h_eps * dx_i, h_eps the run's dry threshold, so the matrix stays
    invertible on dry nodes.
    """
    H = np.asarray(H, dtype=float)
    if H.size != mesh.n_nodes:
        raise ValueError("H/mesh size mismatch")
    if H.min() < 0.0:
        raise ValueError("negative depth in mass assembly")
    h = mesh.element_widths
    third, sixth = H / 3.0, H / 6.0
    # an interior entry sums h_r (H_i/3 + H_{i+1}/6) + h_l (H_{i-1}/6 + H_i/3)
    # in this order; the second terms are formed in the thirds' buffer
    a = np.empty(mesh.n_nodes)
    left = np.add(third[:-1], sixth[1:], out=a[:-1])
    left *= h
    a[-1] = 0.0
    right = np.add(sixth[:-1], third[1:], out=third[1:])
    right *= h
    a[1:] += right
    return np.maximum(a, h_eps * mesh.dual_widths, out=a)


@dataclass(frozen=True)
class _Geometry:
    """Mesh-only part of one element pair's operators on one mesh.

    columns[k] = (rows, nodes): the pressure rows whose window column k lies
    inside the mesh, and the velocity nodes it lies on (the clipped entries
    of a window are zero, so products skip them).  Dw holds the
    w-coefficients of the windows (M x K).  u_terms are the pair's
    fine-element terms (see the module docstring), each (rows, el, off,
    c_H, c_left, c_right): rows take fine elements el at window offsets off
    and off + 1, with c_H = (pl + pr) / 2, c_left = pl/3 + pr/6 and
    c_right = pl/6 + pr/3 from the pressure traces pl, pr at the element's
    ends; _u_windows accumulates the terms into zeros.  P1/P0's traces are
    1, so its one term stores c_H = 1 as None (H enters unscaled) and
    c_right = c_left = 1/2 as None (dzeta/2 is formed once).
    nodal = (dof_nodes, dofs, mixed, t) lays out the nodal pressure output:
    nodes dof_nodes carry dofs, and a node of mixed takes
    (1 - t) p_l + t p_{l+1} from its two neighbouring dofs (t = 1/2 for
    P1/P0, the node's position in its coarse element for P1-iso-P2/P1).
    schur_terms[d] lists band d of
    B diag(a_u, a_w) B^T as (k, k_d, rows, rows_d, nodes, w_factor): entry
    l of the band sums Du[l, k] Du[l + d, k_d] a_u[node] + w_factor a_w[node]
    over the terms, w_factor = Dw[rows, k] Dw[rows_d, k_d].

    Built once by _geometry and kept on the mesh; every array is read-only.
    """

    columns: tuple
    Dw: np.ndarray
    u_terms: tuple
    nodal: tuple
    schur_terms: tuple


@dataclass
class OperatorSet:
    """Assembled operators of one pair on one (H, zb) configuration.

    The divergence matrix B (M x 2N) is held as per-row windows: row l
    touches velocity nodes starts[l] .. starts[l]+K-1 with u-coefficients
    Du[l] and w-coefficients Dw[l].  Window starts are the arithmetic
    sequence starts[l] = s0 + stride*l (s0 = 0, stride 1 for P1/P0; s0 = -2,
    stride 2 for P1-iso-P2/P1); coefficients falling outside the mesh are
    zero and geometry.columns skips them.  Du is built from the depth on
    every assembly (_u_windows); Dw is the mesh's read-only geometry.  The
    projection uses only Bt - C = -B^T, so C is not built here; the test
    oracles build it from its two entries, (u_0, first pressure dof) = -H_0
    and (u_{N-1}, last pressure dof) = +H_{N-1}.

    wet is the read-only mask H >= h_eps of the assembly's depth, computed
    once: the dry pressure dofs, the projection's boundary plan and masked
    inverse mass, and the velocities of the state it projects all read it.
    """

    pair: ElementPair
    mesh: Mesh1D
    H: np.ndarray
    wet: np.ndarray
    a_node: np.ndarray
    Du: np.ndarray
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
        return len(self.geometry.schur_terms) - 1

    # -- wet/dry masks ------------------------------------------------------

    def dry_pressure_dofs(self) -> np.ndarray:
        """Pressure dofs whose supporting fine elements all have a dry end."""
        wet = self.wet
        wet_el = wet[:-1] & wet[1:]
        any_wet = np.zeros(self.n_pressure, dtype=bool)
        for rows, el, *_ in self.geometry.u_terms:
            any_wet[rows] |= wet_el[el]
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
        dDu = _u_windows(self.geometry, T_H, np.subtract(T_H[1:], T_H[:-1]))
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

    def interpolate_pressure_to_nodes(self, p: np.ndarray) -> np.ndarray:
        """Nodal pressure samples for output: a dof's value on the node that
        carries it, the linear mix of the two neighbouring dofs elsewhere."""
        p = np.asarray(p, dtype=float)
        dof_nodes, dofs, mixed, t = self.geometry.nodal
        out = np.empty(self.n_nodes)
        out[dof_nodes] = p[dofs]
        out[mixed] = (1.0 - t) * p[:-1] + t * p[1:]
        return out


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
    # the pair's fine-element table: windows start at s0 + stride*l and are K
    # nodes wide; each term (rows, el, off, coefs, w_left, w_right) gives rows
    # the fine elements el at window offset off, with the u-factors coefs of
    # _Geometry and w-coefficients w_left, w_right at the element's two ends
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
        u_terms.append((rows, el, off, *(_read_only(c) for c in coefs)))
    _read_only(Dw)
    columns = _window_columns(s0, stride, K, m, n)
    return _Geometry(
        columns=columns,
        Dw=Dw,
        u_terms=tuple(u_terms),
        nodal=nodal,
        schur_terms=_schur_terms(columns, Dw, stride, (K - 1) // stride),
    )


def _geometry(pair: ElementPair, mesh: Mesh1D) -> _Geometry:
    """The mesh-only operator data of `pair` on `mesh`, built on first use
    and kept on the mesh for every later assembly."""
    geom = mesh._geometry.get(pair.tag)
    if geom is None:
        geom = mesh._geometry[pair.tag] = _build_geometry(pair, mesh)
    return geom


def _u_windows(geom: _Geometry, H: np.ndarray, dzeta: np.ndarray) -> np.ndarray:
    """u-coefficients Du of the divergence windows, linear in (H, dzeta).

    dzeta holds the per-element increments of zeta = H + 2 zb.  Exact
    integrals over each fine element against the pressure trace on it,
    whose mesh-only factors come from the geometry (None as _Geometry
    states).  The terms accumulate into zeros, each subtracting its left
    end and adding its right end.
    """
    Du = np.zeros(geom.Dw.shape, order="F")
    for rows, el, off, c_H, c_left, c_right in geom.u_terms:
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
    """Assemble the wet mask, lumped mass and divergence windows of the
    depth H over the bottom bathy; a node is wet where H >= h_eps.

    Exact closed-form element integrals; see the module docstring for the
    interpolation conventions.  The mesh-only part is taken from the
    mesh's geometry cache (built on the first assembly of this pair), and
    2 zb from the bathymetry's.
    """
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
