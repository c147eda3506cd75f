"""Independent reference implementations used only by the test suite.

Everything here is deliberately written on a different code path from the
package: quadrature assembly loops over basis functions evaluated
pointwise, the staggered stencil oracle codes the finite-difference
formulas literally, the Rusanov step and the bisection Riemann solver are
self-contained.  The depth derivative of the divergence is taken here by
differencing two package assemblies, against the package's exact
derivative that builds no second assembly.

The dense views of the windowed divergence, the boundary matrix C, the
gradient Bt = -B^T + C and the banded Schur matrix live here, not on the
package's classes, since no step reads them.  So do the iterative
reference pressure solvers (conjugate gradients and Uzawa), which tests
hold against the package's direct banded solve.

Some routines are kept here in an earlier, slower formulation that the
package replaced by one with the same arithmetic: the divergence window
coefficients built from the mesh on every call, the kinetic half fluxes
patched with np.where, the kinetic flux on (H, Hu) states, the wave speed
over gathered wet nodes, the imposed-flux boundary closure on numpy
scalars, and the prediction that reconstructs every interface whatever the
bottom.  Tests require the package to match them bit for bit, or in value
where the package's arithmetic differs only by a round trip it removed.

One helper is not a reference: prediction_inputs gathers a state's
velocities and CFL step the way a stepper hands them to predict.
"""

import numpy as np
import scipy.linalg

# 4-point Gauss-Legendre nodes/weights on [0, 1]
_GP = 0.5 * (1.0 + np.array([
    -0.8611363115940526, -0.3399810435848563,
    0.3399810435848563, 0.8611363115940526,
]))
_GW = 0.5 * np.array([
    0.3478548451374538, 0.6521451548625461,
    0.6521451548625461, 0.3478548451374538,
])


def _hat(nodes, k, x):
    """Fine P1 hat function at node k evaluated at x (scalar or array)."""
    x = np.asarray(x, dtype=float)
    val = np.zeros_like(x)
    if k > 0:
        left = (x >= nodes[k - 1]) & (x <= nodes[k])
        val[left] = (x[left] - nodes[k - 1]) / (nodes[k] - nodes[k - 1])
    if k < nodes.size - 1:
        right = (x >= nodes[k]) & (x <= nodes[k + 1])
        val[right] = (nodes[k + 1] - x[right]) / (nodes[k + 1] - nodes[k])
    return val


def _hat_deriv(nodes, k, el):
    """Slope of hat k on element el (constant per element)."""
    if el == k - 1:
        return 1.0 / (nodes[k] - nodes[k - 1])
    if el == k:
        return -1.0 / (nodes[k + 1] - nodes[k])
    return 0.0


def _pressure_basis(pair_tag, nodes, l):
    """Pressure basis l as a callable plus its per-fine-element derivative."""
    n_el = nodes.size - 1
    if pair_tag == "P1P0":
        def value(x):
            x = np.asarray(x, dtype=float)
            inside = (x >= nodes[l]) & (x <= nodes[l + 1])
            return np.where(inside, 1.0, 0.0)

        def deriv(el):
            return 0.0

        return value, deriv
    coarse = nodes[0::2]
    weights = np.zeros(coarse.size)
    weights[l] = 1.0

    def value(x):
        return np.interp(np.asarray(x, dtype=float), coarse, weights)

    def deriv(el):
        # coarse element containing fine element el
        j = el // 2
        return (weights[j + 1] - weights[j]) / (coarse[j + 1] - coarse[j])

    return value, deriv


def gauss_divergence(pair_tag, mesh, H, zb):
    """Dense (M, 2N) divergence matrix by per-element Gauss quadrature.

    Integrates d((H v1)_h)/dx * psi - v1 zeta_h' psi + 2 v2 psi with the
    nodal product interpolation (H v)_h = sum H_k v_k phi_k.
    """
    nodes = mesh.nodes
    n = nodes.size
    n_el = n - 1
    zeta = np.asarray(H) + 2.0 * np.asarray(zb)
    m = n_el if pair_tag == "P1P0" else (n - 1) // 2 + 1
    D = np.zeros((m, 2 * n))
    for l in range(m):
        psi, _ = _pressure_basis(pair_tag, nodes, l)
        for el in range(n_el):
            a, b = nodes[el], nodes[el + 1]
            h = b - a
            xq = a + h * _GP
            wq = h * _GW
            chi = (zeta[el + 1] - zeta[el]) / h
            for k in (el, el + 1):
                phi = _hat(nodes, k, xq)
                dphi = _hat_deriv(nodes, k, el)
                D[l, k] += np.sum(wq * (H[k] * dphi - chi * phi) * psi(xq))
                D[l, n + k] += np.sum(wq * 2.0 * phi * psi(xq))
    return D


def gauss_gradient(pair_tag, mesh, H, zb):
    """Dense (2N, M) gradient matrix by quadrature.

    First component: integral of H_i phi_i psi_l' + zeta' psi_l phi_i; for
    the element-constant pressure the psi' part is the sum of interior
    nodal jumps (boundary jumps belong to the boundary matrix C).  Second
    component: -2 integral of psi_l phi_i.
    """
    nodes = mesh.nodes
    n = nodes.size
    n_el = n - 1
    zeta = np.asarray(H) + 2.0 * np.asarray(zb)
    m = n_el if pair_tag == "P1P0" else (n - 1) // 2 + 1
    G = np.zeros((2 * n, m))
    for l in range(m):
        psi, dpsi = _pressure_basis(pair_tag, nodes, l)
        if pair_tag == "P1P0":
            # interior nodal jumps of the element indicator
            for i in range(1, n - 1):
                jump = 0.0
                if i == l:
                    jump += 1.0
                if i == l + 1:
                    jump -= 1.0
                G[i, l] += H[i] * jump
        for el in range(n_el):
            a, b = nodes[el], nodes[el + 1]
            h = b - a
            xq = a + h * _GP
            wq = h * _GW
            chi = (zeta[el + 1] - zeta[el]) / h
            for i in (el, el + 1):
                phi = _hat(nodes, i, xq)
                if pair_tag != "P1P0":
                    G[i, l] += np.sum(wq * H[i] * phi * dpsi(el))
                G[i, l] += np.sum(wq * chi * psi(xq) * phi)
                G[n + i, l] += np.sum(wq * (-2.0) * psi(xq) * phi)
    return G


def gauss_lumped_mass(mesh, H):
    """Row sums of the depth-weighted P1 mass matrix by quadrature."""
    nodes = mesh.nodes
    n = nodes.size
    a_vec = np.zeros(n)
    for el in range(n - 1):
        a, b = nodes[el], nodes[el + 1]
        h = b - a
        xq = a + h * _GP
        wq = h * _GW
        Hq = np.interp(xq, nodes, H)
        for i in (el, el + 1):
            a_vec[i] += np.sum(wq * Hq * _hat(nodes, i, xq))
    return a_vec


def staggered_stencil_divergence(mesh, H, zb):
    """Literal staggered finite-difference stencil (pressure at midpoints).

    Row j couples q = H u at the element's end nodes, the depth/bottom
    difference of zeta = H + 2 zb against the node mean of u, and the
    trapezoid of 2 w.
    """
    nodes = mesh.nodes
    n = nodes.size
    zeta = np.asarray(H) + 2.0 * np.asarray(zb)
    D = np.zeros((n - 1, 2 * n))
    for j in range(n - 1):
        h = nodes[j + 1] - nodes[j]
        dz = zeta[j + 1] - zeta[j]
        D[j, j] = -H[j] - 0.5 * dz
        D[j, j + 1] = H[j + 1] - 0.5 * dz
        D[j, n + j] = h
        D[j, n + j + 1] = h
    return D


def staggered_stencil_gradient(mesh, H, zb):
    """Literal staggered gradient stencil at the nodes (interior rows)."""
    nodes = mesh.nodes
    n = nodes.size
    zeta = np.asarray(H) + 2.0 * np.asarray(zb)
    G = np.zeros((2 * n, n - 1))
    for i in range(n):
        if i > 0:
            h = nodes[i] - nodes[i - 1]
            dz = zeta[i] - zeta[i - 1]
            if i < n - 1:
                G[i, i - 1] += -H[i] + 0.5 * dz
            else:
                G[i, i - 1] += 0.5 * dz  # boundary: jump term moves to C
            G[n + i, i - 1] += -h
        if i < n - 1:
            dz = zeta[i + 1] - zeta[i]
            h = nodes[i + 1] - nodes[i]
            if i > 0:
                G[i, i] += H[i] + 0.5 * dz
            else:
                G[i, i] += 0.5 * dz
            G[n + i, i] += -h
    return G


def rusanov_step(state_H, state_Hu, state_Hw, mesh, g, dt):
    """First-order Rusanov update on the dual cells, wall boundaries, flat bottom."""
    H = np.asarray(state_H, dtype=float)
    Hu = np.asarray(state_Hu, dtype=float)
    Hw = np.asarray(state_Hw, dtype=float)
    u = np.where(H > 1e-12, Hu / np.maximum(H, 1e-300), 0.0)
    w = np.where(H > 1e-12, Hw / np.maximum(H, 1e-300), 0.0)

    He = np.concatenate(([H[0]], H, [H[-1]]))
    ue = np.concatenate(([-u[0]], u, [-u[-1]]))
    we = np.concatenate(([w[0]], w, [w[-1]]))

    def flux(Hv, uv, wv):
        return np.array([Hv * uv, Hv * uv**2 + 0.5 * g * Hv**2, Hv * uv * wv])

    F = np.zeros((3, He.size - 1))
    for e in range(He.size - 1):
        FL = flux(He[e], ue[e], we[e])
        FR = flux(He[e + 1], ue[e + 1], we[e + 1])
        lam = max(
            abs(ue[e]) + np.sqrt(g * He[e]),
            abs(ue[e + 1]) + np.sqrt(g * He[e + 1]),
        )
        UL = np.array([He[e], He[e] * ue[e], He[e] * we[e]])
        UR = np.array([He[e + 1], He[e + 1] * ue[e + 1], He[e + 1] * we[e + 1]])
        F[:, e] = 0.5 * (FL + FR) - 0.5 * lam * (UR - UL)

    sigma = dt / mesh.dual_widths
    H_new = H - sigma * (F[0, 1:] - F[0, :-1])
    Hu_new = Hu - sigma * (F[1, 1:] - F[1, :-1])
    Hw_new = Hw - sigma * (F[2, 1:] - F[2, :-1])
    return H_new, Hu_new, Hw_new


def riemann_star_bisection(h_left, u_left, h_right, u_right, g, tol=1e-12):
    """Exact star state by pure bisection (independent of the package path)."""

    def branch(h, h_k):
        if h <= h_k:
            return 2.0 * (np.sqrt(g * h) - np.sqrt(g * h_k))
        return (h - h_k) * np.sqrt(0.5 * g * (h + h_k) / (h * h_k))

    def f(h):
        return branch(h, h_left) + branch(h, h_right) + u_right - u_left

    lo, hi = 1e-14, max(h_left, h_right)
    while f(hi) < 0.0:
        hi *= 2.0
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol * hi:
            break
    h_star = 0.5 * (lo + hi)
    u_star = 0.5 * (u_left + u_right) + 0.5 * (branch(h_star, h_right) - branch(h_star, h_left))
    return h_star, u_star


def random_wet_setup(rng, n_min=5, n_max=13, odd=False):
    """Random strictly increasing mesh with positive depth and bottom."""
    n = int(rng.integers(n_min, n_max + 1))
    if odd and n % 2 == 0:
        n += 1
    x = np.cumsum(0.2 + rng.random(n))
    from nhswe import Mesh1D

    mesh = Mesh1D(x)
    H = 0.2 + 2.0 * rng.random(n)
    zb = rng.standard_normal(n) * 0.3
    return mesh, H, zb


def dry_pressure_dofs_by_support(pair_tag, mesh, H, h_eps):
    """Dofs whose every supporting fine element has a dry end.

    The support of basis l is read off its value at the midpoint of each
    fine element; an element is wet only when both its ends are.
    """
    nodes = mesh.nodes
    wet = np.asarray(H) >= h_eps
    n = nodes.size
    m = n - 1 if pair_tag == "P1P0" else (n - 1) // 2 + 1
    dry = np.ones(m, dtype=bool)
    for l in range(m):
        psi, _ = _pressure_basis(pair_tag, nodes, l)
        for el in range(n - 1):
            mid = 0.5 * (nodes[el] + nodes[el + 1])
            if psi(mid) > 0.0 and wet[el] and wet[el + 1]:
                dry[l] = False
    return dry


def nodal_pressure_samples(pair_tag, mesh, p):
    """Pressure sampled at the fine nodes, one node at a time.

    P1/P0: an end node takes its element's value, an interior node the mean
    of its two elements.  P1-iso-P2/P1: the coarse interpolant evaluated at
    the node's position.
    """
    nodes = mesh.nodes
    n = nodes.size
    out = np.empty(n)
    for i in range(n):
        if pair_tag != "P1P0":
            out[i] = np.interp(nodes[i], nodes[0::2], p)
        elif i == 0 or i == n - 1:
            out[i] = p[min(i, n - 2)]
        else:
            out[i] = (p[i - 1] + p[i]) / 2.0
    return out


def depth_derivative_by_differencing(pair, mesh, zb, T_H, u, w, h_eps=1e-8):
    """(dB/dH)[T_H] (u; w) as B(s + T_H) U - B(s) U at a uniform depth s.

    The divergence coefficients are affine in H, so the difference of two
    assemblies is the directional derivative; the shift s keeps both
    depths non-negative.
    """
    from nhswe import Bathymetry, assemble

    shift = float(np.abs(T_H).max()) + 1.0
    hi = assemble(pair, mesh, shift + T_H, Bathymetry(zb), h_eps)
    lo = assemble(pair, mesh, np.full(mesh.n_nodes, shift), Bathymetry(zb), h_eps)
    return hi.apply_divergence(u, w) - lo.apply_divergence(u, w)


# -- divergence windows built from scratch on every call ----------------------


def _coarse_traces(nodes):
    xc = nodes[0::2]
    xm = nodes[1::2]
    right_frac = (xc[1:] - xm) / (xc[1:] - xc[:-1])
    left_frac = (xm - xc[:-1]) / (xc[1:] - xc[:-1])
    return left_frac, right_frac


def _p1isop2_elements(nodes):
    left_frac, right_frac = _coarse_traces(nodes)
    rows_l, rows_r = slice(1, None), slice(None, -1)
    return (
        (rows_l, 0, 0, 0.0, left_frac),
        (rows_l, 1, 1, left_frac, 1.0),
        (rows_r, 0, 2, 1.0, right_frac),
        (rows_r, 1, 3, right_frac, 0.0),
    )


def u_windows_uncached(pair, mesh, H, zb):
    """Du of the divergence windows from the per-element formulas."""
    dzeta = np.diff(H + 2.0 * zb)
    if pair.tag == "P1P0":
        return np.column_stack([-H[:-1] - 0.5 * dzeta, H[1:] - 0.5 * dzeta])
    Du = np.zeros((pair.n_pressure, 5))
    for rows, e0, off, pl, pr in _p1isop2_elements(mesh.nodes):
        el = slice(e0, None, 2)
        dz = dzeta[el]
        Du[rows, off] += -H[:-1][el] * 0.5 * (pl + pr) - dz * (pl / 3.0 + pr / 6.0)
        Du[rows, off + 1] += H[1:][el] * 0.5 * (pl + pr) - dz * (pl / 6.0 + pr / 3.0)
    return Du


def w_windows_uncached(pair, mesh):
    """Dw of the divergence windows from the per-element formulas."""
    h = np.diff(mesh.nodes)
    if pair.tag == "P1P0":
        return np.column_stack([h, h])
    Dw = np.zeros((pair.n_pressure, 5))
    for rows, e0, off, pl, pr in _p1isop2_elements(mesh.nodes):
        he = h[e0::2]
        Dw[rows, off] += he * (2.0 * pl + pr) / 3.0
        Dw[rows, off + 1] += he * (pl + 2.0 * pr) / 3.0
    return Dw


# -- kinetic half fluxes, one-sided cases patched with np.where ---------------


def _equilibrium_support(H, g):
    c = np.sqrt(0.5 * g * H)
    k = np.zeros_like(H)
    np.divide(H, 2.0 * np.sqrt(3.0) * c, out=k, where=c > 0.0)
    return np.sqrt(3.0) * c, k


def half_flux_plus_where(H, u, g):
    s, k = _equilibrium_support(H, g)
    b = u + s
    f_H = 0.5 * k * b * b
    f_Hu = f_H * b * (2.0 / 3.0)
    sup_right = u - s >= 0.0
    if sup_right.any():
        f_H = np.where(sup_right, H * u, f_H)
        f_Hu = np.where(sup_right, H * u * u + 0.5 * g * H * H, f_Hu)
    sup_left = b <= 0.0
    if sup_left.any():
        f_H = np.where(sup_left, 0.0, f_H)
        f_Hu = np.where(sup_left, 0.0, f_Hu)
    return f_H, f_Hu


def half_flux_minus_where(H, u, g):
    s, k = _equilibrium_support(H, g)
    a = u - s
    f_H = -0.5 * k * a * a
    f_Hu = f_H * a * (2.0 / 3.0)
    sup_right = a >= 0.0
    if sup_right.any():
        f_H = np.where(sup_right, 0.0, f_H)
        f_Hu = np.where(sup_right, 0.0, f_Hu)
    sup_left = u + s <= 0.0
    if sup_left.any():
        f_H = np.where(sup_left, H * u, f_H)
        f_Hu = np.where(sup_left, H * u * u + 0.5 * g * H * H, f_Hu)
    return f_H, f_Hu


def kinetic_flux_discharge(xl, xr, g):
    """Kinetic flux F+(XL) + F-(XR) on states given as (H, Hu): velocities
    recovered by a division masked to H > 0, and 0 on dry states."""
    HL, HuL = xl
    HR, HuR = xr
    uL = np.zeros_like(HL)
    uR = np.zeros_like(HR)
    np.divide(HuL, HL, out=uL, where=HL > 0.0)
    np.divide(HuR, HR, out=uR, where=HR > 0.0)
    fp_H, fp_Hu = half_flux_plus_where(HL, uL, g)
    fm_H, fm_Hu = half_flux_minus_where(HR, uR, g)
    return fp_H + fm_H, fp_Hu + fm_Hu


# -- wave speed over gathered wet nodes ----------------------------------------


def max_wave_speed_gather(H, u, g, h_eps):
    """max(|u| + sqrt(g H)) over the nodes with H >= h_eps, gathered by a
    boolean index; DryDomainError if there are none."""
    from nhswe import DryDomainError

    wet = H >= h_eps
    if not wet.any():
        raise DryDomainError("no wet cell")
    return float(np.max(np.abs(u[wet]) + np.sqrt(g * H[wet])))


# -- imposed-flux boundary closure on numpy scalars ---------------------------


def _bisect_numpy(fun, lo, hi, rtol=1e-12):
    flo = fun(lo)
    fhi = fun(hi)
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


def imposed_flux_ghost_numpy(Hb, ub, wb, side, q01, q02, g):
    """Ghost (H, u, w) of an imposed-flux boundary, evaluated on numpy
    scalars with every bracket residual re-evaluated; raises
    TorrentialBoundaryError where no fluvial closure exists."""
    from nhswe import TorrentialBoundaryError

    if Hb <= 0.0:
        raise TorrentialBoundaryError("dry boundary node")
    if abs(ub) / np.sqrt(g * Hb) >= 1.0:
        raise TorrentialBoundaryError("torrential boundary")
    sign = -1.0 if side == "in" else 1.0
    invariant = ub + sign * 2.0 * np.sqrt(g * Hb)

    def residual(h):
        # a flux below the float range of lo underflows it to 0, where the
        # residual is infinite with the sign of q01
        if h == 0.0:
            return np.copysign(np.inf, q01)
        return q01 / h + sign * 2.0 * np.sqrt(g * h) - invariant

    if sign * q01 > 0.0:
        lo = (sign * q01 / np.sqrt(g)) ** (2.0 / 3.0)
    else:
        lo = 1e-12 * max(Hb, 1.0)
    hi = max(4.0 * Hb, 2.0 * lo, invariant**2 / g, 1.0)
    grow = 0
    while residual(lo) * residual(hi) > 0.0 and grow < 60:
        hi *= 2.0
        grow += 1
    if residual(lo) * residual(hi) > 0.0:
        raise TorrentialBoundaryError("no subcritical depth")
    h0 = _bisect_numpy(residual, lo, hi)
    u0 = q01 / h0
    if abs(u0) / np.sqrt(g * h0) >= 1.0:
        raise TorrentialBoundaryError("torrential boundary state")
    return h0, u0, q02 / h0


# -- prediction reconstructed at every interface ------------------------------


def prediction_inputs(state, mesh, h_eps):
    """(u, w, dt, speed) of a state as a stepper hands them to predict: its
    velocities on its wet mask H >= h_eps, and its CFL step with the wave
    speed the step was taken from."""
    from nhswe.hyperbolic import cfl_step

    wet = state.H >= h_eps
    u, w = state.velocities(wet)
    return (u, w, *cfl_step(state.H, u, mesh, wet))


def predict_reconstructed(state, u, w, mesh, bathy, h_eps, bc_in, bc_out, dt, speed):
    """hyperbolic.predict as it was before its zero-bottom path: hydrostatic
    reconstruction and the kinetic flux at every interface, on any bottom."""
    from nhswe import FlowState
    from nhswe.core import G, CFLViolationError
    from nhswe.hyperbolic import (
        apply_hyperbolic_bc,
        hydrostatic_reconstruct,
        kinetic_flux,
    )

    admissible = mesh.min_width / speed
    if not dt <= admissible * (1.0 + 1e-9):
        raise CFLViolationError(f"dt = {dt:.3e} exceeds admissible {admissible:.3e}")
    ghost_l, ghost_r = (
        apply_hyperbolic_bc(bc, side, float(state.H[i]), float(u[i]), float(w[i]))
        for bc, side, i in ((bc_in, "in", 0), (bc_out, "out", -1))
    )
    He = np.concatenate(([ghost_l.H], state.H, [ghost_r.H]))
    ue = np.concatenate(([ghost_l.u], u, [ghost_r.u]))
    we = np.concatenate(([ghost_l.w], w, [ghost_r.w]))
    zbe = np.concatenate(([bathy.zb[0]], bathy.zb, [bathy.zb[-1]]))

    HLs, HRs = hydrostatic_reconstruct(He[:-1], He[1:], zbe[:-1], zbe[1:])
    F_H, F_Hu = kinetic_flux((HLs, ue[:-1]), (HRs, ue[1:]))
    F_Hw = F_H * np.where(F_H >= 0.0, we[:-1], we[1:])

    sigma = dt / mesh.dual_widths
    half_g = 0.5 * G
    H_new = state.H - sigma * (F_H[1:] - F_H[:-1])
    Hu_new = state.Hu - sigma * (
        F_Hu[1:] - half_g * HLs[1:] ** 2 - F_Hu[:-1] + half_g * HRs[:-1] ** 2
    )
    Hw_new = state.Hw - sigma * (F_Hw[1:] - F_Hw[:-1])

    floor = -1e-12 * max(1.0, float(state.H.max()))
    if H_new.min() < floor:
        raise RuntimeError(f"negative depth (min {H_new.min():.3e})")
    np.maximum(H_new, 0.0, out=H_new)
    dry = H_new < h_eps
    Hu_new[dry] = 0.0
    Hw_new[dry] = 0.0
    return FlowState(H_new, Hu_new, Hw_new, state.t + dt)


def solveh_banded_lower(ab, rhs):
    """scipy's banded SPD solve of the lower band ab: the reference that
    projection.solve_pressure must reproduce bit for bit."""
    return scipy.linalg.solveh_banded(ab, rhs, lower=True, check_finite=False)


def float_bits(values):
    """The IEEE bit patterns of a sequence of floats (signed zeros differ)."""
    return np.asarray(values, dtype=float).view(np.int64)


# -- dense views of the windowed operators and the banded Schur system ---------


def boundary_entries(ops):
    """The two entries of the boundary matrix C as (row, col, value)
    triplets in (2N, M) indexing: (u_0, first dof) = -H_0 and
    (u_{N-1}, last dof) = +H_{N-1}."""
    n = ops.n_nodes
    return (
        (0, 0, -float(ops.H[0])),
        (n - 1, ops.n_pressure - 1, float(ops.H[-1])),
    )


def dense_divergence(ops):
    """B as a dense (M, 2N) matrix, scattered from the operator's windows."""
    n, m = ops.n_nodes, ops.n_pressure
    out = np.zeros((m, 2 * n))
    row_ids, node_ids = np.arange(m), np.arange(n)
    for k, (rows, nodes) in enumerate(ops.geometry.columns):
        r, c = row_ids[rows], node_ids[nodes]
        out[r, c] += ops.Du[rows, k]
        out[r, n + c] += ops.Dw[rows, k]
    return out


def dense_boundary(ops):
    """C as a dense (2N, M) matrix."""
    out = np.zeros((2 * ops.n_nodes, ops.n_pressure))
    for row, col, val in boundary_entries(ops):
        out[row, col] = val
    return out


def dense_gradient(ops):
    """Bt = -B^T + C as a dense (2N, M) matrix."""
    return -dense_divergence(ops).T + dense_boundary(ops)


def schur_dense(sys):
    """The Schur matrix of sys as a dense (M, M) matrix, from its lower band."""
    m = sys.n_pressure
    out = np.diag(sys.ab[0].copy())
    for d in range(1, sys.bandwidth + 1):
        band = sys.ab[d, : m - d]
        out += np.diag(band, k=d) + np.diag(band, k=-d)
    return out


def schur_matvec(sys, x):
    """S x from the lower band of sys."""
    m = sys.n_pressure
    y = sys.ab[0] * x
    for d in range(1, sys.bandwidth + 1):
        band = sys.ab[d, : m - d]
        y[:-d] += band * x[d:]
        y[d:] += band * x[:-d]
    return y


# -- iterative reference pressure solvers -------------------------------------

# the iterative solves stop below this fraction of the nominal tolerance so
# they agree with the direct solve well inside 10*tol
_STOP_SAFETY = 0.05


class SolverConvergenceError(RuntimeError):
    """An iterative reference pressure solve diverged or hit its iteration cap.

    Attributes:
        residual: relative residual when the solve stopped.
        iterations: number of iterations performed.
    """

    def __init__(self, message, residual, iterations):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


def solve_cg(sys, rhs, tol):
    """Conjugate gradients on the Schur system sys with the right-hand side
    rhs: (pressure, iterations).

    Stops at |S p - rhs| <= max(_STOP_SAFETY tol, 1e-14) |rhs| and raises
    SolverConvergenceError when the cap of 4 M + 100 iterations leaves the
    residual above tol |rhs|.
    """
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return np.zeros_like(rhs), 0
    target = max(_STOP_SAFETY * tol, 1e-14) * rhs_norm
    x = np.zeros_like(rhs)
    r = rhs.copy()
    d = r.copy()
    rr = float(r @ r)
    cap = 4 * sys.n_pressure + 100
    for it in range(1, cap + 1):
        Sd = schur_matvec(sys, d)
        alpha = rr / float(d @ Sd)
        x += alpha * d
        r -= alpha * Sd
        rr_new = float(r @ r)
        if np.sqrt(rr_new) <= target:
            return x, it
        d = r + (rr_new / rr) * d
        rr = rr_new
    achieved = float(np.linalg.norm(rhs - schur_matvec(sys, x)))
    if achieved <= tol * rhs_norm:
        return x, cap
    raise SolverConvergenceError(
        f"conjugate gradient hit the iteration cap ({cap}) at relative "
        f"residual {achieved / rhs_norm:.3e}",
        residual=achieved / rhs_norm,
        iterations=cap,
    )


def solve_uzawa(sys, u, w, dt, tol):
    """Fixed-relaxation Uzawa iteration on the saddle form of the system sys
    loaded with the predicted velocity (u, w) and dt: (pressure, iterations).

    Each pass corrects the velocity with the current pressure and feeds the
    remaining constraint residual back, P <- P + alpha (-(1/dt) B U(P)),
    with alpha = 1 / max|diag(S)| and an iteration cap of 10 M.  Stops like
    solve_cg and raises SolverConvergenceError on divergence or at the cap.
    """
    from nhswe import correct_velocity

    m = sys.n_pressure
    u_star, _, rhs = sys.load(u, w, dt)
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return np.zeros(m), 0
    target = max(_STOP_SAFETY * tol, 1e-14) * rhs_norm
    alpha = 1.0 / float(np.max(sys.ab[0]))  # ab[0]: the diagonal
    pinned = sys.plan.pinned_dofs
    p = np.zeros(m)
    cap = 10 * m
    r0 = None
    for it in range(1, cap + 1):
        u_p, w_p = correct_velocity(sys, u_star.copy(), w, dt, p)
        r = -(1.0 / dt) * sys.ops.apply_divergence(u_p, w_p)
        # pinned rows carry no equation; with P fixed there this equals the
        # residual of the eliminated system on the free rows
        r[pinned] = 0.0
        res = float(np.linalg.norm(r))
        if r0 is None:
            r0 = res
        if res <= target:
            return p, it
        if not np.isfinite(res) or res > 1e6 * max(r0, rhs_norm):
            raise SolverConvergenceError(
                f"Uzawa iteration diverged (residual {res:.3e})",
                residual=res / max(rhs_norm, 1e-300),
                iterations=it,
            )
        p = p + alpha * r
    achieved = float(np.linalg.norm(rhs - schur_matvec(sys, p)))
    if achieved <= tol * rhs_norm:
        return p, cap
    raise SolverConvergenceError(
        f"Uzawa hit the iteration cap ({cap}) at relative residual "
        f"{achieved / rhs_norm:.3e}",
        residual=achieved / rhs_norm,
        iterations=cap,
    )


def method_spread(sys, u, w, dt, p, tol):
    """Re-solve the system sys loaded with (u, w) and dt by solve_cg and
    solve_uzawa; the largest deviation from the direct pressure p, relative
    to its norm."""
    scale = max(float(np.linalg.norm(p)), 1e-300)
    spread = 0.0
    for q, _ in (solve_cg(sys, sys.load(u, w, dt)[2], tol), solve_uzawa(sys, u, w, dt, tol)):
        spread = max(spread, float(np.linalg.norm(q - p)) / scale)
    return spread
