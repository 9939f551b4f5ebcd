"""Fixed-pattern assembly and explicit transport against the formulas they
replaced.

The reference builders below assemble every flow and heat matrix the way
the solver did before its patterns were held: metric-free stencils scaled
by sparse diagonal products, and a per-cell loop over the 4x4 element
entries. The held patterns sum in another order, so entries agree to
rounding, not bitwise. The transport references write the source once per
staggering, the temperature's through grad_calA built from b, A, K and 1/H.
"""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp

from contactflow import equilibrium as eq
from contactflow import flow as fl
from contactflow import geometry as geo
from contactflow import heat as ht

REL = 1e-14


def _problem(params, jump, nx, ny):
    params = dataclasses.replace(params, gamma_jump=jump)
    surface = eq.solve_equilibrium(params, 1.0)
    grid = geo.make_grid(surface, nx, ny, params.depth)
    return fl.CoupledProblem(params=params, surface=surface, grid=grid)


def _displaced_fields(grid):
    eta = (1e-2 * np.cos(math.pi * grid.xc / grid.ell)
           + 3e-3 * np.sin(2.3 * grid.xc))
    zdot = 1e-2 * np.sin(math.pi * grid.xc / grid.ell)
    return geo.build_geometry(grid, eta - eta.mean(), zdot - zdot.mean())


def _assert_entries_match(got, want):
    got, want = got.toarray(), want.toarray()
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= REL * np.max(np.abs(want))


# ------------------------------------------------------------
# reference flow assembly: stencils times diagonal metric products
# ------------------------------------------------------------

def _reference_stencils(grid, beta):
    """The stencil members the row and flux patterns replace."""
    nx, ny, hx, hs = grid.nx, grid.ny, grid.hx, grid.hs
    n1, n2 = (nx + 1) * ny, nx * (ny + 1)
    Ix, Iy = sp.eye(nx), sp.eye(ny)

    def on_u1(M):
        return sp.hstack([M, sp.csr_matrix((M.shape[0], n2))], "csr")

    def on_u2(M):
        return sp.hstack([sp.csr_matrix((M.shape[0], n1)), M], "csr")

    st = {"G11": on_u1(sp.kron(fl._diff(nx, hx), Iy)),
          "G21": on_u1(sp.kron(fl._mean(nx), fl._cdiff(ny, hs))),
          "G12": on_u2(sp.kron(fl._cdiff(nx, hx), fl._mean(ny))),
          "G22": on_u2(sp.kron(Ix, fl._diff(ny, hs)))}
    avg_s = sp.vstack([sp.csr_matrix((1, ny)), fl._mean(ny - 1),
                       fl._ends(ny)[1]])
    st["Y1"] = on_u1(sp.vstack([sp.eye(n1), sp.kron(fl._mean(nx), avg_s)]))
    st["Y2"] = on_u2(sp.vstack([sp.csr_matrix((n1, n2)), sp.eye(n2)]))
    st["top"] = n1 + np.arange(nx) * (ny + 1) + ny
    Tb = on_u1(sp.kron(sp.eye(nx - 1, nx + 1, 1), fl._ends(ny)[0]))
    A_slip = beta * (Tb.T @ sp.diags(np.full(nx - 1, hx)) @ Tb)
    wwall = np.full(ny, hs)
    wwall[-1] *= 0.5
    for side, x in ((0, -grid.ell), (1, grid.ell)):
        Hw = grid.depth + float(grid.zeta0_fn(x))
        Tw = on_u2(sp.kron(fl._ends(nx)[side], sp.eye(ny, ny + 1, 1)))
        A_slip = A_slip + beta * (Tw.T @ sp.diags(wwall * Hw) @ Tw)
    st["A_slip"] = A_slip
    return st


def _reference_flow(problem, fields, dt):
    """(A_dof, B_dof, Div, Ztop) by the product formulas, on the dofs."""
    mac = problem.stencils
    st = _reference_stencils(problem.grid, problem.params.beta)
    params = problem.params
    hx, hs = problem.grid.hx, problem.grid.hs
    met_c = fields.at("centers")
    c12 = sp.diags(met_c["c12"].ravel())
    c22 = sp.diags(met_c["c22"].ravel())
    T11 = 2.0 * (st["G11"] + c12 @ st["G21"])
    T22 = 2.0 * (c22 @ st["G22"])
    T12 = c22 @ st["G21"] + st["G12"] + c12 @ st["G22"]
    Wc = sp.diags(met_c["Jvol"].ravel() * hx * hs)
    A_visc = 0.5 * params.mu * (T11.T @ Wc @ T11 + 2.0 * (T12.T @ Wc @ T12)
                                + T22.T @ Wc @ T22)
    met_xf, met_yf = fields.at("xfaces"), fields.at("yfaces")
    w2 = met_yf["Jvol"] * hx * hs
    w2[:, -1] *= 0.5
    mass = np.concatenate([(met_xf["Jvol"] * hx * hs).ravel(), w2.ravel()])
    zw = np.concatenate([met_xf["Jvol"].ravel(),
                         (met_yf["Jvol"] * met_yf["b"] - met_yf["A"]).ravel()])
    Z = sp.diags(zw) @ st["Y1"] + st["Y2"]
    Div = st["G11"] @ Z + st["G22"] @ Z
    Ztop = Z[st["top"]]
    DxZ = mac.Dx @ Ztop
    K_curv = params.sigma1 * (dt + problem.eps) * (
        DxZ.T @ sp.diags(hx * mac.inv32_in) @ DxZ)
    K_grav = params.g * dt * (Ztop.T @ sp.diags(np.full(mac.nx, hx)) @ Ztop)
    ends = (mac.ends @ Ztop).tocsr()
    K_contact = params.kappa * (ends[0].T @ ends[0] + ends[1].T @ ends[1])
    A_full = (sp.diags(mass) / dt + A_visc + st["A_slip"] + K_curv + K_grav
              + K_contact)
    P = mac.P
    return (P.T @ A_full @ P, (-hx * hs) * (Div @ P), Div @ P, Ztop @ P)


@pytest.mark.parametrize("jump", [0.0, 0.3, -0.5])
def test_flow_matrices_match_product_formulas(params, jump):
    problem = _problem(params, jump, 24, 16)
    fields = _displaced_fields(problem.grid)
    ops = fl.FlowOperators(problem, fields, 0.02)
    want = _reference_flow(problem, fields, 0.02)
    for got, ref in zip((ops.A_dof, ops.B_dof, ops.Div, ops.Ztop), want):
        _assert_entries_match(got, ref)


def _array_bytes(obj):
    """Bytes of every array held by obj, its members and their members."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if sp.issparse(obj):
        return sum(getattr(obj, name).nbytes
                   for name in ("data", "indices", "indptr", "offsets",
                                "row", "col") if hasattr(obj, name))
    if isinstance(obj, (tuple, list)):
        return sum(_array_bytes(item) for item in obj)
    if isinstance(obj, dict):
        return sum(_array_bytes(item) for item in obj.values())
    if hasattr(obj, "__dict__"):
        return _array_bytes(vars(obj))
    return 0


def test_row_and_flux_patterns_hold_no_more_than_the_stencils(params):
    problem = _problem(params, 0.3, 48, 32)
    mac = problem.stencils
    kept = ("P", "free", "Dx", "ends", "s0_in", "inv32_in")
    plan = _array_bytes({name: value for name, value in vars(mac).items()
                         if name not in kept})
    replaced = _array_bytes(_reference_stencils(problem.grid,
                                                problem.params.beta))
    assert plan <= replaced


def test_filled_matrices_cannot_rewrite_the_held_patterns(params):
    # a filled matrix shares its pattern's index arrays: summing the
    # duplicate slots of R in place raises instead of changing every later
    # fill of the pattern
    problem = _problem(params, 0.3, 24, 16)
    met = _displaced_fields(problem.grid).at("centers")
    mac = problem.stencils
    want = mac.rows(met["c12"], met["c22"]).toarray()
    R = mac.rows(met["c12"], met["c22"])
    with pytest.raises(ValueError):
        R.sum_duplicates()
    assert np.array_equal(mac.rows(met["c12"], met["c22"]).toarray(), want)


# ------------------------------------------------------------
# reference heat assembly: per-cell 4x4 element loop
# ------------------------------------------------------------

def _reference_heat(fields, k_cond):
    """(M, B) on all nodes by the element loop and COO sums."""
    grid = fields.grid
    nx, ny, hx, hs = grid.nx, grid.ny, grid.hx, grid.hs
    nn = (nx + 1) * (ny + 1)
    gp = ht._GP
    dx = hx * (np.array(gp) - 0.5)
    dz = hs * (np.array(gp) - 0.5)
    xg = (grid.xc[:, None] + dx[None, :]).ravel()
    met = fields.sample_metric(xg, (grid.sc[:, None] + dz[None, :]).ravel())
    srf = fields.surface_metric(xg)
    ci, cj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    corners = [ci * (ny + 1) + cj, (ci + 1) * (ny + 1) + cj,
               ci * (ny + 1) + cj + 1, (ci + 1) * (ny + 1) + cj + 1]
    Kloc = np.zeros((4, 4, nx, ny))
    Mloc = np.zeros((4, 4, nx, ny))
    w = hx * hs / 4.0
    for gx in range(2):
        for gz in range(2):
            xi, ze = gp[gx], gp[gz]
            Na = np.array([(1 - xi) * (1 - ze), xi * (1 - ze),
                           (1 - xi) * ze, xi * ze])
            dNx = np.array([-(1 - ze), (1 - ze), -ze, ze]) / hx
            dNs = np.array([-(1 - xi), -xi, (1 - xi), xi]) / hs
            jv = met["Jvol"][gx::2, gz::2]
            c12 = met["c12"][gx::2, gz::2]
            c22 = met["c22"][gx::2, gz::2]
            d11, d12 = k_cond * jv, k_cond * jv * c12
            d22 = k_cond * jv * (c12 ** 2 + c22 ** 2)
            for a in range(4):
                for b in range(4):
                    Kloc[a, b] += w * (dNx[a] * dNx[b] * d11
                                       + (dNx[a] * dNs[b]
                                          + dNs[a] * dNx[b]) * d12
                                       + dNs[a] * dNs[b] * d22)
                    Mloc[a, b] += w * Na[a] * Na[b] * jv
    pairs = [(a, b) for a in range(4) for b in range(4)]
    rows = np.concatenate([corners[a].ravel() for a, _ in pairs])
    cols = np.concatenate([corners[b].ravel() for _, b in pairs])
    M = sp.csr_matrix((np.concatenate([Mloc[a, b].ravel() for a, b in pairs]),
                       (rows, cols)), (nn, nn))
    K = sp.csr_matrix((np.concatenate([Kloc[a, b].ravel() for a, b in pairs]),
                       (rows, cols)), (nn, nn))
    segs = [np.arange(nx) * (ny + 1) + ny, (np.arange(nx) + 1) * (ny + 1) + ny]
    Sloc = np.zeros((2, 2, nx))
    for g in range(2):
        N1 = np.array([1 - gp[g], gp[g]])
        for a in range(2):
            for b in range(2):
                Sloc[a, b] += 0.5 * hx * N1[a] * N1[b] * srf["abs_n"][g::2]
    pairs = [(a, b) for a in range(2) for b in range(2)]
    S = sp.csr_matrix((np.concatenate([Sloc[a, b] for a, b in pairs]),
                       (np.concatenate([segs[a] for a, _ in pairs]),
                        np.concatenate([segs[b] for _, b in pairs]))),
                      (nn, nn))
    return M, (K + S).tocsr()


@pytest.mark.parametrize("jump", [0.0, 0.3, -0.5])
def test_heat_matrices_match_element_loop(params, jump):
    grid = _problem(params, jump, 24, 16).grid
    fields = _displaced_fields(grid)
    ops = ht.HeatOperators(fields, params.k)
    M, B = _reference_heat(fields, params.k)
    free = ops.free
    for got, ref in ((ops.M, M), (ops.B, B)):
        assert got.shape == (free.size, free.size)
        _assert_entries_match(got, ref[free][:, free])


# ------------------------------------------------------------
# explicit transport: one formula per staggering
# ------------------------------------------------------------

def _reference_advection(fields, u1, u2):
    grid = fields.grid
    hx, hs = grid.hx, grid.hs
    met_xf = fields.at("xfaces")
    met_yf = fields.at("yfaces")
    u2c = 0.5 * (u2[:, :-1] + u2[:, 1:])
    u2_xf = np.empty_like(u1)
    u2_xf[1:-1] = 0.5 * (u2c[:-1] + u2c[1:])
    u2_xf[0] = u2c[0]
    u2_xf[-1] = u2c[-1]
    gx1 = np.gradient(u1, hx, axis=0, edge_order=2)
    gs1 = np.gradient(u1, hs, axis=1, edge_order=2)
    conv1 = u1 * (gx1 + met_xf["c12"] * gs1) + u2_xf * (met_xf["c22"] * gs1)
    adv1 = (met_xf["dt_eta_bar"] * met_xf["W"] * met_xf["K"]
            * met_xf["invH"][:, None] * gs1) - conv1
    u1c = 0.5 * (u1[:-1] + u1[1:])
    u1_yf = np.empty_like(u2)
    u1_yf[:, 1:-1] = 0.5 * (u1c[:, :-1] + u1c[:, 1:])
    u1_yf[:, 0] = u1c[:, 0]
    u1_yf[:, -1] = u1c[:, -1]
    gx2 = np.gradient(u2, hx, axis=0, edge_order=2)
    gs2 = np.gradient(u2, hs, axis=1, edge_order=2)
    conv2 = u1_yf * (gx2 + met_yf["c12"] * gs2) + u2 * (met_yf["c22"] * gs2)
    adv2 = (met_yf["dt_eta_bar"] * met_yf["W"] * met_yf["K"]
            * met_yf["invH"][:, None] * gs2) - conv2
    return adv1, adv2


def _reference_transport_nodes(fields, theta, u_nodes):
    met = fields.at("nodes")
    grid = fields.grid
    ds = np.gradient(theta, grid.hs, axis=1, edge_order=2)
    out = met["dt_eta_bar"] * met["W"] * met["K"] * met["invH"][:, None] * ds
    g = geo.omega_gradient(met, theta, grid.hx, grid.hs)
    grad = np.array([g[0] - met["A"] * met["K"] * g[1], met["K"] * g[1]])
    return out - (u_nodes[0] * grad[0] + u_nodes[1] * grad[1])


def _assert_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(want)) > 0.0
    assert np.max(np.abs(got - want)) <= REL * np.max(np.abs(want))


@pytest.mark.parametrize("jump", [0.3, -0.5])
def test_transport_source_matches_per_staggering_formulas(params, jump):
    grid = _problem(params, jump, 24, 16).grid
    fields = _displaced_fields(grid)
    assert np.any(fields.at("nodes")["dt_eta_bar"])
    X1, S1 = np.meshgrid(grid.xf, grid.sc, indexing="ij")
    X2, S2 = np.meshgrid(grid.xc, grid.sf, indexing="ij")
    u1 = 1e-2 * np.sin(2.0 * X1) * np.cos(S1)
    u2 = 1e-2 * np.cos(1.3 * X2) * S2 ** 2
    for got, want in zip(fl._advection(fields, u1, u2),
                         _reference_advection(fields, u1, u2)):
        _assert_close(got, want)
    Xn, Sn = np.meshgrid(grid.xf, grid.sf, indexing="ij")
    theta = np.sin(1.7 * Xn + 0.4) * Sn
    u_nodes = fl.velocity_at_nodes(u1, u2)
    _assert_close(geo.transport_source(fields.at("nodes"), theta, u_nodes,
                                       grid.hx, grid.hs),
                  _reference_transport_nodes(fields, theta, u_nodes))
