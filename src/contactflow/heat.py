"""Temperature transport on the flattened domain.

The heat problem is posed in weak form against nodal bilinear elements on
the reference rectangle: find theta vanishing on walls and bottom with

    (d/dt theta, psi)_J + k (grad_calA theta, grad_calA psi)_J
        + <theta, psi |N|>_Sigma = (transport terms, psi)_J

for every psi vanishing there, where (.,.)_J carries the volume weight
Jvol = J H of the composed flattening and <.,.>_Sigma is the top-edge line
integral with the Robin weight |N|. The conduction tensor at a quadrature
point is k Jvol c^T c with c the effective cofactor matrix, so the
stiffness is symmetric positive definite by construction and
Crank-Nicolson stepping satisfies a discrete energy identity on static
geometry. Since theta and psi vanish on the fixed nodes, the mass and
stiffness matrices are held on the free nodes only.

Between steps only the quadrature weights change. HeatPattern holds, once
per grid, the free-node pattern, which is the 9-point stencil built as a
Kronecker product of two tridiagonal patterns, and the slot of each element
and Robin edge entry in it, found pair by pair. HeatOperators keeps three
Gauss-point fields of the metric (Jvol, c12, c22), maps them to element
entries and sums them into that pattern. HeatOperators also holds the
Crank-Nicolson matrix M/dt + B/2 of its last dt, so on frozen geometry
(conduction-only runs) it is built once per run, and on moving geometry
once per step. The step solves it with flow.LaggedLU, the held-factor
solver of the flow step, in double precision and in SuperLU's
minimum-degree order: unlike the flow's 7 x 7 stencil, the 9-point stencil
gains nothing from a nested dissection of the nodes, whose LU solved each
heat step 5-8 % slower at 96x64.

Transport (u . grad_calA theta and the mesh-motion term
dt(etabar) W K d2 theta) is explicit with two-level extrapolation, keeping
the implicit part linear and symmetric. It is geometry.transport_source on
the nodes, the operator that also carries the velocity.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import geometry
from .flow import BandedCholesky, StateHistory


# ============================================================
# operator assembly
# ============================================================

_GP = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))


def _element_maps(hx, hs):
    """Local bilinear-element maps from Gauss-point weights to the 16
    entries (a, b) of the element matrices, a the row corner.

    K: (16, 12) from (d11, d12, d22) at the four Gauss points (gx, gz),
    gx major; M: (16, 4) from Jvol at the same points; S: (4, 2) from the
    Robin weight |N| at the two Gauss points of a top edge.
    """
    w = hx * hs / 4.0
    kmap = np.zeros((4, 4, 3, 4))
    mmap = np.zeros((4, 4, 4))
    for gx in range(2):
        for gz in range(2):
            xi, ze = _GP[gx], _GP[gz]
            Na = np.array([(1 - xi) * (1 - ze), xi * (1 - ze),
                           (1 - xi) * ze, xi * ze])
            dNx = np.array([-(1 - ze), (1 - ze), -ze, ze]) / hx
            dNs = np.array([-(1 - xi), -xi, (1 - xi), xi]) / hs
            g = 2 * gx + gz
            kmap[:, :, 0, g] = w * np.outer(dNx, dNx)
            kmap[:, :, 1, g] = w * (np.outer(dNx, dNs) + np.outer(dNs, dNx))
            kmap[:, :, 2, g] = w * np.outer(dNs, dNs)
            mmap[:, :, g] = w * np.outer(Na, Na)
    smap = np.zeros((2, 2, 2))
    for g in range(2):
        N1 = np.array([1 - _GP[g], _GP[g]])
        smap[:, :, g] = 0.5 * hx * np.outer(N1, N1)
    return kmap.reshape(16, 12), mmap.reshape(16, 4), smap.reshape(4, 2)


class HeatPattern:
    """The fixed structure of the heat matrices on one grid.

    The matrices are held on the free nodes only (walls and bottom carry
    theta = 0), in CSC form over the free nodes in x-major order. Two free
    nodes couple exactly when they share a cell, so the pattern is the
    9-point stencil kron(tri(nx - 1), tri(ny)), a band matrix of half-width
    ny + 1, and the Robin edges add no entry to it. `slot` places every
    element entry (a, b) of every cell, then every Robin entry of every top
    edge, in its data, a the row corner: each pair's slots are one
    searchsorted of its (col, row) keys in the pattern's sorted keys.
    Entries with a fixed row or column go to the extra slot nnz, which is
    dropped.
    """

    def __init__(self, grid):
        nx, ny = grid.nx, grid.ny
        self.kmap, self.mmap, self.smap = _element_maps(grid.hx, grid.hs)
        free = np.zeros((nx + 1, ny + 1), bool)
        free[1:nx, 1:] = True
        self.free = np.flatnonzero(free.ravel())
        self.nodes = free.size
        nf = self.free.size
        rank = np.full(self.nodes, nf)     # fixed nodes rank past the end
        rank[self.free] = np.arange(nf)

        def tri(n):
            return sp.diags([1.0, 1.0, 1.0], [-1, 0, 1], shape=(n, n))

        stencil = sp.kron(tri(nx - 1), tri(ny), format="csc")
        self.nnz = stencil.nnz
        self.indices = stencil.indices.astype(np.int32)
        self.indptr = stencil.indptr.astype(np.int32)
        keys = np.repeat(np.arange(nf, dtype=np.int64) * nf,
                         np.diff(self.indptr)) + self.indices

        ci, cj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
        corners = rank[np.array([ci * (ny + 1) + cj, (ci + 1) * (ny + 1) + cj,
                                 ci * (ny + 1) + cj + 1,
                                 (ci + 1) * (ny + 1) + cj + 1]).reshape(4, -1)]
        top = rank[np.arange(nx + 1) * (ny + 1) + ny]
        edges = np.array([top[:-1], top[1:]])
        pairs = [(corners[a], corners[b]) for a in range(4) for b in range(4)]
        pairs += [(edges[a], edges[b]) for a in range(2) for b in range(2)]
        self.slot = np.full(sum(row.size for row, _ in pairs), self.nnz,
                            np.int32)
        start = 0
        for row, col in pairs:
            kept = np.flatnonzero((row < nf) & (col < nf))
            self.slot[start + kept] = np.searchsorted(
                keys, col[kept].astype(np.int64) * nf + row[kept])
            start += row.size

    def matrix(self, data):
        """The free-node matrix with this pattern and data."""
        nf = self.free.size
        return sp.csc_matrix((data, self.indices, self.indptr), shape=(nf, nf))


def heat_pattern(grid):
    if "heat_pattern" not in grid._cache:
        grid._cache["heat_pattern"] = HeatPattern(grid)
    return grid._cache["heat_pattern"]


class HeatOperators:
    """Mass M and conduction + Robin stiffness B on the free nodes.

    Each step samples the metric at the 2x2 Gauss points of every cell and
    keeps only Jvol, c12 and c22 of that sample. It maps the weights
    k Jvol, k Jvol c12, k Jvol (c12^2 + c22^2) and Jvol to the element
    entries with one matmul each; np.bincount sums them, with the Robin edge
    entries, into the held pattern of HeatPattern.

    cn_system(dt) builds the Crank-Nicolson matrix M/dt + B/2 and holds it
    for that dt, so every step on these operators hands the solver the same
    matrix object.
    """

    def __init__(self, fields, k_cond):
        grid = fields.grid
        nx, ny, hx, hs = grid.nx, grid.ny, grid.hx, grid.hs
        pat = heat_pattern(grid)
        self.free, self.nodes = pat.free, pat.nodes

        # tensor grid of 2x2 Gauss stations, cell (i, j) owns [2i+gx, 2j+gz]
        dx = hx * (np.array(_GP) - 0.5)
        xg = (grid.xc[:, None] + dx[None, :]).ravel()
        dz = hs * (np.array(_GP) - 0.5)
        sg = (grid.sc[:, None] + dz[None, :]).ravel()
        srf = fields.surface_metric(xg)

        def at_gauss(f):
            """(4, ncell) Gauss-point samples of f, point 2 gx + gz, copied
            out of the tensor-grid sample."""
            return f.reshape(nx, 2, ny, 2).transpose(1, 3, 0, 2).reshape(4, -1)

        # the other fields of the sample are not read, so none outlives it
        met = fields.sample_metric(xg, sg)
        jv, c12, c22 = (at_gauss(met[name]) for name in ("Jvol", "c12", "c22"))
        del met
        d11 = k_cond * jv
        weights = np.concatenate([d11, d11 * c12,
                                  d11 * (c12 ** 2 + c22 ** 2)])
        robin = pat.smap @ srf["abs_n"].reshape(nx, 2).T
        stiff = np.concatenate([(pat.kmap @ weights).ravel(), robin.ravel()])
        nk = 16 * nx * ny
        self.M = pat.matrix(np.bincount(
            pat.slot[:nk], (pat.mmap @ jv).ravel(), minlength=pat.nnz + 1)[:-1])
        self.B = pat.matrix(np.bincount(
            pat.slot, stiff, minlength=pat.nnz + 1)[:-1])
        self._cn = (None, None)       # (dt, M/dt + B/2)

    def cn_system(self, dt):
        """The Crank-Nicolson matrix M/dt + B/2, held per dt."""
        if self._cn[0] != dt:
            M = self.M
            self._cn = (dt, sp.csc_matrix(
                (M.data / dt + self.B.data * 0.5, M.indices, M.indptr),
                shape=M.shape))
        return self._cn[1]

    def embed(self, vec_free):
        out = np.zeros(self.nodes)
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
class HeatState(StateHistory):
    theta: np.ndarray               # (nx+1, ny+1) node samples
    time: float = 0.0
    dt: float = 0.0
    levels: list = field(default_factory=list)  # previous states, newest first


# ============================================================
# time stepping
# ============================================================

def step_fd(fields, k_cond, state, dt, solver, transport=None):
    """One Crank-Nicolson step of the nodal scheme.

    Only the free nodes' theta enters; the step returns theta = 0 on the
    walls and bottom, whatever values the state held there.
    solver: the float64 flow.LaggedLU of the run. It factors the first
    step's matrix and reuses that factor for later steps, also after a
    change of dt: exactly on frozen geometry and as a CG preconditioner
    otherwise (the matrix is SPD). The matrix is the operators' held
    cn_system(dt). A zero load returns zeros without factoring.
    transport: node-sampled velocity (2, nx+1, ny+1), or None for no
    advection. Advection and mesh motion are treated explicitly with the
    two-level extrapolant 1.5 theta^n - 0.5 theta^{n-1} so the implicit
    matrix stays symmetric. A zero theta with a zero newest level loads
    nothing and builds no operators.
    """
    if not np.any(state.theta) and \
            not (state.levels and np.any(state.levels[0].theta)):
        return state.advanced(theta=np.zeros_like(state.theta),
                              time=state.time + dt, dt=dt)
    ops = heat_operators(fields, k_cond)
    th = state.theta.ravel()[ops.free]
    rhs = ops.M @ th / dt - 0.5 * (ops.B @ th)
    if transport is not None or np.any(fields.deta_dt):
        that = state.theta
        if state.levels:
            that = 1.5 * state.theta - 0.5 * state.levels[0].theta
        adv = geometry.transport_source(
            fields.at("nodes"), that,
            (0.0, 0.0) if transport is None else transport,
            fields.grid.hx, fields.grid.hs)
        if np.any(adv):
            rhs += ops.M @ adv.ravel()[ops.free]

    # a zero load keeps the rest state an exact fixed point
    sol = solver.solve(spla, ops.cn_system(dt), rhs) if np.any(rhs) \
        else np.zeros_like(rhs)
    return state.advanced(theta=ops.embed(sol).reshape(state.theta.shape),
                          time=state.time + dt, dt=dt)


# ============================================================
# conduction spectrum
# ============================================================

def build_basis(fields, k_cond, m):
    """Lowest m eigenpairs of (B, M) on the free nodes, frozen at the given
    fields, by shift-invert Lanczos. Returns (eigenvalues, M-orthonormal
    eigenvectors as columns), ascending. The fixed start vector makes
    repeated calls bitwise equal.

    The shift is 0, so each Lanczos step solves with B itself. B is
    symmetric positive definite (conduction plus Robin) and a band matrix
    of half-width ny + 1, so the solves use its BandedCholesky, factored in
    place, and no sparse LU of B is built."""
    ops = heat_operators(fields, k_cond)
    B_inv = spla.LinearOperator(ops.B.shape, dtype=float,
                                matvec=BandedCholesky(ops.B).solve)
    lam, vecs = spla.eigsh(ops.B, k=m, M=ops.M, sigma=0.0,
                           OPinv=B_inv, v0=np.ones(ops.free.size))
    order = np.argsort(lam)
    return lam[order], vecs[:, order]


def lowest_eigenvalues(fields, k_cond, m=6):
    """Smallest generalized eigenvalues of (B, M) on the free nodes."""
    return build_basis(fields, k_cond, m)[0]
