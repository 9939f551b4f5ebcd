"""Temperature transport on the flattened domain.

The heat problem is posed in weak form against nodal bilinear elements on
the reference rectangle: find theta vanishing on walls and bottom with

    (d/dt theta, psi)_J + k (grad_calA theta, grad_calA psi)_J
        + <theta, psi |N|>_Sigma = (F8, psi)_J + <F9, psi>_Sigma
        + (transport terms, psi)_J

where (.,.)_J carries the volume weight Jvol = J H of the composed
flattening and <.,.>_Sigma is the top-edge line integral (the Robin weight
|N| sits in the operator; inhomogeneous Robin data F9 pairs against the
flat measure). The conduction tensor at a quadrature point is
k Jvol c^T c with c the effective cofactor matrix, so the stiffness is
symmetric positive definite by construction and Crank-Nicolson stepping
satisfies a discrete energy identity on static geometry.

Transport (u . grad_calA theta and the mesh-motion term
dt(etabar) W K d2 theta) is explicit with two-level extrapolation, keeping
the implicit part linear and symmetric.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import geometry


# ============================================================
# operator assembly
# ============================================================

_GP = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))


class HeatOperators:
    """Mass, conduction + Robin stiffness and surface load matrices."""

    def __init__(self, fields, k_cond):
        grid = fields.grid
        nx, ny = grid.nx, grid.ny
        hx, hs = grid.hx, grid.hs
        self.grid = grid
        nn = (nx + 1) * (ny + 1)

        # tensor grid of 2x2 Gauss stations, cell (i, j) owns [2i+gx, 2j+gz]
        dx = hx * (np.array(_GP) - 0.5)
        xg = (grid.xc[:, None] + dx[None, :]).ravel()
        dz = hs * (np.array(_GP) - 0.5)
        sg = (grid.sc[:, None] + dz[None, :]).ravel()
        met = fields.sample_metric(xg, sg)
        srf = fields.surface_metric(xg)

        ci, cj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
        corners = [ci * (ny + 1) + cj, (ci + 1) * (ny + 1) + cj,
                   ci * (ny + 1) + cj + 1, (ci + 1) * (ny + 1) + cj + 1]

        Kloc = np.zeros((4, 4, nx, ny))
        Mloc = np.zeros((4, 4, nx, ny))
        w = hx * hs / 4.0
        for gx in range(2):
            for gz in range(2):
                xi, ze = _GP[gx], _GP[gz]
                Na = np.array([(1 - xi) * (1 - ze), xi * (1 - ze),
                               (1 - xi) * ze, xi * ze])
                dNx = np.array([-(1 - ze), (1 - ze), -ze, ze]) / hx
                dNs = np.array([-(1 - xi), -xi, (1 - xi), xi]) / hs
                jv = met["Jvol"][gx::2, gz::2]
                c12 = met["c12"][gx::2, gz::2]
                c22 = met["c22"][gx::2, gz::2]
                d11 = k_cond * jv
                d12 = k_cond * jv * c12
                d22 = k_cond * jv * (c12 ** 2 + c22 ** 2)
                for a in range(4):
                    for b in range(4):
                        Kloc[a, b] += w * (dNx[a] * dNx[b] * d11
                                           + (dNx[a] * dNs[b]
                                              + dNs[a] * dNx[b]) * d12
                                           + dNs[a] * dNs[b] * d22)
                        Mloc[a, b] += w * Na[a] * Na[b] * jv

        rows, cols, kv, mv = [], [], [], []
        for a in range(4):
            for b in range(4):
                rows.append(corners[a].ravel())
                cols.append(corners[b].ravel())
                kv.append(Kloc[a, b].ravel())
                mv.append(Mloc[a, b].ravel())
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        self.M = sp.csr_matrix((np.concatenate(mv), (rows, cols)), (nn, nn))
        K = sp.csr_matrix((np.concatenate(kv), (rows, cols)), (nn, nn))

        # top edge: 1D linear elements, Robin weight |N|, flat-load variant
        seg_l = np.arange(nx) * (ny + 1) + ny
        seg_r = (np.arange(nx) + 1) * (ny + 1) + ny
        segs = [seg_l, seg_r]
        Sloc = np.zeros((2, 2, nx))
        Floc = np.zeros((2, 2, nx))
        for g in range(2):
            xi = _GP[g]
            N1 = np.array([1 - xi, xi])
            absn = srf["abs_n"][g::2]
            for a in range(2):
                for b in range(2):
                    Sloc[a, b] += 0.5 * hx * N1[a] * N1[b] * absn
                    Floc[a, b] += 0.5 * hx * N1[a] * N1[b]
        rows, cols, sv, fv = [], [], [], []
        for a in range(2):
            for b in range(2):
                rows.append(segs[a])
                cols.append(segs[b])
                sv.append(Sloc[a, b])
                fv.append(Floc[a, b])
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        self.S_robin = sp.csr_matrix((np.concatenate(sv), (rows, cols)),
                                     (nn, nn))
        self.S_flat = sp.csr_matrix((np.concatenate(fv), (rows, cols)),
                                    (nn, nn))
        self.B = (K + self.S_robin).tocsr()

        free = np.zeros((nx + 1, ny + 1), bool)
        free[1:nx, 1:] = True
        self.free = np.flatnonzero(free.ravel())
        self.M_ff = self.M[self.free][:, self.free].tocsc()
        self.B_ff = self.B[self.free][:, self.free].tocsc()

    def embed(self, vec_free):
        nn = self.M.shape[0]
        out = np.zeros(nn)
        out[self.free] = vec_free
        return out


def heat_operators(fields, k_cond):
    key = ("heat_ops", float(k_cond))
    if key not in fields._cache:
        fields._cache[key] = HeatOperators(fields, k_cond)
    return fields._cache[key]


# ============================================================
# state
# ============================================================

@dataclass
class HeatState:
    theta: np.ndarray               # (nx+1, ny+1) node samples
    time: float = 0.0
    dt: float = 0.0
    levels: list = field(default_factory=list)  # previous thetas, newest first

    def dtheta_dt(self):
        if not self.levels or self.dt == 0.0:
            return np.zeros_like(self.theta)
        return (self.theta - self.levels[0]) / self.dt

    def d2theta_dt2(self):
        if len(self.levels) < 2 or self.dt == 0.0:
            return np.zeros_like(self.theta)
        return (self.theta - 2.0 * self.levels[0] + self.levels[1]) / self.dt ** 2

    def advanced(self, theta_new, dt):
        levels = [self.theta] + self.levels[:2]
        return HeatState(theta=theta_new, time=self.time + dt, dt=dt,
                         levels=levels)


def _transport_nodes(fields, theta, u_nodes):
    """Explicit transport sources: mesh motion plus advection by u."""
    met = fields.at("nodes")
    grid = fields.grid
    out = np.zeros_like(theta)
    if np.any(fields.deta_dt):
        ds = np.gradient(theta, grid.hs, axis=1, edge_order=2)
        out += met["dt_eta_bar"] * met["W"] * met["K"] * met["invH"][:, None] * ds
    if u_nodes is not None:
        g = geometry.grad_a(fields, theta)
        out -= u_nodes[0] * g[0] + u_nodes[1] * g[1]
    return out


def _load_vector(ops, f8, f9):
    nn = ops.M.shape[0]
    load = np.zeros(nn)
    if f8 is not None:
        load += ops.M @ np.asarray(f8, float).ravel()
    if f9 is not None:
        grid = ops.grid
        full = np.zeros((grid.nx + 1, grid.ny + 1))
        full[:, -1] = np.asarray(f9, float)
        load += ops.S_flat @ full.ravel()
    return load


# ============================================================
# time stepping
# ============================================================

def step_fd(fields, k_cond, state, dt, solver, transport=None, f8=None,
            f9=None):
    """One Crank-Nicolson step of the nodal scheme.

    solver: the flow.LaggedLU of the run. It factors the first step's
    matrix and reuses that factor for later steps, exactly on frozen
    geometry and as a GMRES preconditioner on moving geometry.
    transport: node-sampled velocity (2, nx+1, ny+1) or None. Advection and
    mesh motion are treated explicitly with the two-level extrapolant
    1.5 theta^n - 0.5 theta^{n-1} so the implicit matrix stays symmetric.
    """
    ops = heat_operators(fields, k_cond)
    th = state.theta.ravel()
    that = state.theta
    if state.levels:
        that = 1.5 * state.theta - 0.5 * state.levels[0]

    rhs = ops.M @ th / dt - 0.5 * (ops.B @ th)
    rhs += _load_vector(ops, f8, f9)
    adv = _transport_nodes(fields, that, transport)
    if np.any(adv):
        rhs += ops.M @ adv.ravel()

    mat = ops.M_ff / dt + ops.B_ff * 0.5
    sol = solver.solve(spla, mat.tocsc(), rhs[ops.free], dt)
    theta_new = ops.embed(sol).reshape(state.theta.shape)
    return state.advanced(theta_new, dt)


# ============================================================
# conduction spectrum
# ============================================================

def build_basis(fields, k_cond, m):
    """Lowest m eigenpairs of (B, M) on the free nodes, frozen at the given
    fields, by shift-invert Lanczos. Returns (eigenvalues, M-orthonormal
    eigenvectors as columns), ascending. The fixed start vector makes
    repeated calls bitwise equal."""
    ops = heat_operators(fields, k_cond)
    lam, vecs = spla.eigsh(ops.B_ff, k=m, M=ops.M_ff, sigma=0.0,
                           v0=np.ones(ops.free.size))
    order = np.argsort(lam)
    return lam[order], vecs[:, order]


def lowest_eigenvalues(fields, k_cond, m=6):
    """Smallest generalized eigenvalues of (B, M) on the free nodes."""
    return build_basis(fields, k_cond, m)[0]
