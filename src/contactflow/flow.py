"""Velocity-pressure-surface dynamics with moving contact points.

One step solves the saddle system

    [ M/dt + A_visc + A_slip + K_srf ,  G ] [u]   [loads]
    [ G^T                            ,  0 ] [p] = [0    ]

on MAC-staggered reference-rectangle unknowns: u1 on x faces, u2 on y
faces, p in cells. The pieces:

  * A_visc = (mu/2) sum_cells D_calA(u) : D_calA(v) Jvol, with velocity
    gradients reconstructed at cell centers (cross terms face-averaged), so
    the matrix is symmetric positive semidefinite by construction.
  * A_slip: Navier friction beta (u.tau)(v.tau) on bottom and walls, traces
    extrapolated from the first two interior layers. u.nu = 0 is strong
    (wall u1 and bottom u2 eliminated).
  * G^T u = flux-form divergence: (Jvol div_calA u)_cell = div_ref Z with
    Z1 = Jvol u1 and Z2 = (Jvol b - A) ubar1 + u2. The top value of Z2 is
    exactly u.N, so sum_cells of the divergence telescopes to the surface
    flux and discrete volume bookkeeping is exact to solver precision.
  * K_srf: the traction integral int T (v.N) after integrating the
    curvature flux by parts. Substituting eta~ = eta^n + dt zdot and the
    contact law at the endpoints gives symmetric positive blocks
    sigma1 (dt+eps) int d1 zdot d1(v.N) / (1+zeta0'^2)^{3/2}
    + g dt int zdot (v.N) + kappa zdot(+-ell)(v.N)(+-ell); the remaining
    surface pieces (curvature remainder, cubic contact response, thermal
    tension correction) load the right-hand side explicitly.

Every implicit operator is a fixed stencil weighted by the metric: the
velocity block is the Gram matrix R^T diag(w) R of a row operator R whose
values are linear in the cell coefficients c12 and c22, and the divergence
and its top row are linear in the face weights (Jvol, Jvol b - A). Their
stencils are Kronecker products of 1-D stencils, and MacStencils builds the
sparsity patterns of R, Div and Ztop on the free dofs once per problem;
FlowOperators fills them with each step's metric and forms the one Gram
product.

Advection, buoyancy and the mesh-motion term are explicit, so the overall
splitting is first order in dt and each step is one linear saddle solve.
Advection and mesh motion are geometry.transport_source on each velocity
component's face grid, the operator that also carries the temperature.
The kinematic update eta += dt Ztop u reuses the same Z2 top row, which
closes the energy bookkeeping: the implicit surface blocks are exactly the
discrete gradients of the surface energies.

The saddle matrix is never assembled or factored whole: its zero pressure
block forces off-diagonal pivots and a large fill. The step is solved in a
discrete stream function instead, the null-space method for saddle systems
(Benzi, Golub & Liesen, Acta Numerica 14 (2005), section 6). psi lives on
the nodes and vanishes on the walls and the bottom; the fluxes Z1 = d_s psi
and Z2 = -d_x psi have zero flux divergence identically, and the stream map
T takes psi to u1 = Z1/Jvol, u2 = Z2 - (Jvol b - A) ubar1, so B T = 0 and
Div u stay at rounding level. The step solves the SPD system K psi = T^T f,
K = T^T A T, on the (nx - 1) ny free nodes, and takes the pressure from this
step's pressure Laplacian, p = L_p^-1 B M^-1 (f - A u) with L_p = B M^-1 B^T
(a BandedCholesky, the in-place LAPACK band factor that also serves the
heat spectrum), in FlowOperators.solve. Near rest K moves by O(|eta|) from
one step to the next, so a run factors the first step's K once, in float32,
and preconditions conjugate gradients (`_pcg`) with that LU on later steps;
the heat solve holds a float64 LU through the same LaggedLU. Refinement
sweeps K dpsi = T^T r, u += T dpsi bring the full saddle residual r to
LAG_RTOL ||f|| (projected CG: Gould, Hribar & Nocedal, SIAM J. Sci.
Comput. 23 (2001)).

The curvature remainder

    R(s0, s) = f(s0+s) - f(s0) - f'(s0) s,  f(z) = z/sqrt(1+z^2)

collects everything beyond the linearization of the exact flux; the contact
law kappa(dt_eta + W(dt_eta)) = -+ sigma1 (flux at +-ell) closes the system
at the moving contact points, with W(z) = w3 z^3.
"""

import functools
import math
import typing
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import geometry
from .params import select_exponents


class StabilityError(RuntimeError):
    """CFL violation, folded flattening map or solver breakdown."""


class SpillError(RuntimeError):
    """Free surface left the admissible channel (0, big_l]."""


# ============================================================
# curvature remainder
# ============================================================

def curvature_flux(z):
    """f(z) = z / sqrt(1 + z^2), the exact surface-slope flux."""
    return z / np.sqrt(1.0 + z * z)


def remainder_r(s0, s):
    """R(s0, s) = f(s0+s) - f(s0) - f'(s0) s with f'(s0) = (1+s0^2)^{-3/2}."""
    s0 = np.asarray(s0, float)
    s = np.asarray(s, float)
    return (curvature_flux(s0 + s) - curvature_flux(s0)
            - s / (1.0 + s0 * s0) ** 1.5)


# ============================================================
# lagged factorizations
# ============================================================

LAG_RTOL = 1e-13      # accepted residual ||b - A x|| / ||b|| of a lagged solve
# CG stops a decade below LAG_RTOL: its recursively updated residual keeps
# falling below the rounding level of the true one, and this margin brings
# the accepted residuals to the level of a direct solve
CG_AIM = 1e-14
CG_MAXITER = 40       # iterations of one CG solve before it counts as a miss
REFINE_SWEEPS = 3     # refinement sweeps of one stream-function solve


class LaggedLU:
    """Solves nearby SPD systems K x = b with the sparse LU of the first K
    held as a CG preconditioner (`_pcg`).

    The LU is built in dtype, with minimum degree on K^T + K and diagonal
    pivots: float64 for the heat Crank-Nicolson matrix, which it solves with
    no CG iteration on frozen geometry, and float32 for the flow's K, where
    its rounding costs iterations, not accuracy, and an L+U entry holds 8
    bytes against 12. solve() returns attempt(cg), None being a miss;
    cg(g, atol) corrects the factor's solution of K x = g by CG and returns
    (x, iterations), x None after CG_MAXITER iterations. A miss with a
    factor held from an earlier solve drops it and refactors, so two
    factors never coexist; a miss with a fresh factor raises
    StabilityError. linalg is the caller's scipy.sparse.linalg handle, so
    every sparse LU is made through the calling module's own `spla`.
    """

    def __init__(self, dtype):
        self.dtype = dtype
        self._precondition = None     # held preconditioner y -> P^-1 y
        self.factor_nnz = 0           # entries held in the factor
        self.factorizations = 0
        self.reused_solves = 0        # solves with a factor of an earlier step
        self.cg_iterations = 0        # summed over all CG solves
        self.max_cg_iterations = 0    # the most of any one CG solve
        self.fallbacks = 0

    def counts(self):
        return {"factorizations": self.factorizations,
                "reused_solves": self.reused_solves,
                "cg_iterations": self.cg_iterations,
                "max_cg_iterations": self.max_cg_iterations,
                "fallbacks": self.fallbacks}

    def solve(self, linalg, K, b, attempt=None):
        """attempt(cg), by default the x with ||b - K x|| <= LAG_RTOL ||b||;
        raises StabilityError on a non-finite b."""
        if not np.all(np.isfinite(b)):
            raise StabilityError("non-finite right-hand side")
        attempt = attempt or functools.partial(_solve_to_bound, K, b)
        cg = functools.partial(self._cg, K)
        if self._precondition is not None:
            x = attempt(cg)
            if x is not None:
                self.reused_solves += 1
                return x
            self.fallbacks += 1
            self._precondition = None
        lu = linalg.splu(K.astype(self.dtype), permc_spec="MMD_AT_PLUS_A",
                         diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
        # SuperLU takes a right-hand side only in the factor's dtype
        self._precondition = lambda r: lu.solve(
            r.astype(self.dtype, copy=False)).astype(float, copy=False)
        self.factor_nnz = lu.nnz
        self.factorizations += 1
        x = attempt(cg)
        if x is None:
            raise StabilityError("solve with a fresh factor returned non-finite"
                                 " values or missed its residual bound")
        return x

    def _cg(self, K, b, atol):
        x = self._precondition(b)
        dx, iterations = _pcg(K, self._precondition, b - K @ x, atol)
        self.cg_iterations += iterations
        self.max_cg_iterations = max(self.max_cg_iterations, iterations)
        x += dx
        return (x if iterations < CG_MAXITER else None), iterations


def _solve_to_bound(K, b, cg):
    """The default attempt of LaggedLU.solve: one CG solve, kept when its
    explicit residual is at most LAG_RTOL ||b||."""
    x, iterations = cg(b, CG_AIM * np.linalg.norm(b))
    if x is None or not np.all(np.isfinite(x)):
        return None
    # with no iteration, _pcg already held the residual that cg formed to
    # CG_AIM ||b||, below the bound
    if iterations and \
            np.linalg.norm(b - K @ x) > LAG_RTOL * np.linalg.norm(b):
        return None
    return x


def _pcg(A, precondition, b, atol):
    """(x, iterations): preconditioned conjugate gradients for A x = b from
    x = 0 (Hestenes & Stiefel, J. Res. Nat. Bur. Standards 49 (1952)),
    stopped once the recursively updated residual is at most atol or after
    CG_MAXITER iterations, and at once on a non-finite residual; x is 0.0
    when b itself meets atol. A direction of non-positive curvature d^T A d,
    where A or the preconditioner is not positive definite, raises
    StabilityError.
    """
    if not np.linalg.norm(b) > atol:
        return 0.0, 0
    x = np.zeros_like(b)
    r = b.copy()
    d = rho = None
    for k in range(1, CG_MAXITER + 1):
        z = precondition(r)
        rho, rho_prev = r @ z, rho
        d = z if d is None else z + (rho / rho_prev) * d
        q = A @ d
        curvature = d @ q
        if not curvature > 0.0:
            raise StabilityError("CG direction of non-positive curvature %g"
                                 % curvature)
        alpha = rho / curvature
        x += alpha * d
        r -= alpha * q
        if not np.linalg.norm(r) > atol:
            return x, k
    return x, CG_MAXITER


class BandedCholesky:
    """Cholesky factor of a sparse symmetric positive definite band matrix S.

    Only the upper triangle of S is read. It fills a Fortran-ordered LAPACK
    upper band, which cholesky_banded factors in place, so the band is held
    once; a matrix whose entries lie at most bw places from the diagonal
    factors with no fill outside the band. Raises StabilityError when S is
    not positive definite. `nnz` counts the band's upper-triangle entries.
    """

    def __init__(self, S):
        U = sp.triu(S).tocoo()
        bw = int(np.max(U.col - U.row))
        band = np.zeros((bw + 1, U.shape[0]), order="F")
        band[bw + U.row - U.col, U.col] = U.data
        try:
            self._chol = scipy.linalg.cholesky_banded(
                band, overwrite_ab=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise StabilityError("banded Cholesky: matrix is not positive "
                                 "definite") from exc
        self.nnz = band.size - bw * (bw + 1) // 2

    def solve(self, g):
        return scipy.linalg.cho_solve_banded((self._chol, False), g,
                                             check_finite=False)


# ============================================================
# state
# ============================================================

class StateHistory:
    """Time levels of a state dataclass with fields `levels` and `dt`.

    `levels` holds the previous two states, newest first, each a bare
    snapshot with no levels of its own, so histories never nest. The time
    derivatives of a field are its backward differences over them; a
    history too short for one reads zero.
    """

    def advanced(self, **kw):
        """This state with the fields in kw replaced, itself the newest
        level."""
        return replace(self, levels=[replace(self, levels=[])]
                       + self.levels[:1], **kw)

    def dt_field(self, name):
        if not self.levels or self.dt == 0.0:
            return np.zeros_like(getattr(self, name))
        return (getattr(self, name) - getattr(self.levels[0], name)) / self.dt

    def d2t_field(self, name):
        if len(self.levels) < 2 or self.dt == 0.0:
            return np.zeros_like(getattr(self, name))
        return (getattr(self, name) - 2.0 * getattr(self.levels[0], name)
                + getattr(self.levels[1], name)) / self.dt ** 2


@dataclass
class FlowState(StateHistory):
    u1: np.ndarray                 # (nx+1, ny) x-face samples
    u2: np.ndarray                 # (nx, ny+1) y-face samples
    p: np.ndarray                  # (nx, ny) cell samples
    eta: np.ndarray                # (nx,) top-center surface displacement
    zdot: np.ndarray               # (nx,) kinematic speed u.N at top centers
    time: float = 0.0
    dt: float = 0.0
    levels: list = field(default_factory=list)   # previous states, newest first
    recenter_log: float = 0.0
    div_residual: float = 0.0
    contact_speeds: tuple = (0.0, 0.0)


def zero_flow_state(grid):
    return FlowState(u1=np.zeros((grid.nx + 1, grid.ny)),
                     u2=np.zeros((grid.nx, grid.ny + 1)),
                     p=np.zeros((grid.nx, grid.ny)),
                     eta=np.zeros(grid.nx),
                     zdot=np.zeros(grid.nx))


@dataclass
class CoupledProblem:
    params: object
    surface: object
    grid: object
    eps: float = 0.0
    w3: float = 1.0
    # lagged factorizations of the stream-function and heat systems, one
    # per problem
    saddle_solver: LaggedLU = field(
        default_factory=lambda: LaggedLU(np.float32), init=False,
        repr=False, compare=False)
    heat_solver: LaggedLU = field(
        default_factory=lambda: LaggedLU(np.float64), init=False,
        repr=False, compare=False)

    @functools.cached_property
    def stencils(self):
        """MacStencils of the grid, built on first use."""
        return MacStencils(self.grid, self.params.beta)

    @functools.cached_property
    def exps(self):
        """Regularity exponents of the rest contact angle."""
        return select_exponents(self.surface.omega)


# ============================================================
# MAC stencils
# ============================================================

def _diff(n, h):
    """(n, n+1) neighbour difference: end values -> interval slopes."""
    return sp.diags([-1.0 / h, 1.0 / h], [0, 1], shape=(n, n + 1))


def _mean(n):
    """(n, n+1) neighbour mean."""
    return sp.diags([0.5, 0.5], [0, 1], shape=(n, n + 1))


def _cdiff(n, h):
    """(n, n) central difference, one-sided at both ends."""
    D = sp.diags([-0.5 / h, 0.5 / h], [-1, 1], shape=(n, n), format="lil")
    D[0, :2] = D[n - 1, n - 2:] = [[-1.0 / h, 1.0 / h]]
    return D


def _ends(n):
    """(2, n) linear extrapolation of cell values to the two ends."""
    E = sp.lil_matrix((2, n))
    E[0, :2] = [[1.5, -0.5]]
    E[1, n - 2:] = [[-0.5, 1.5]]
    return E


class _Slots(typing.NamedTuple):
    """A 1-D stencil held row by row: row r has value vals[r, k] in column
    cols[r, k]; rows shorter than the widest are padded with column -1."""
    cols: np.ndarray
    vals: np.ndarray
    ncols: int


def _slots(M, cols=None):
    """Slot table of the stencil M, on its own entries or, given cols, on
    those slot columns (M must have no entry outside them)."""
    M = sp.csr_matrix(M)
    if cols is None:
        counts = np.diff(M.indptr)
        rows = np.repeat(np.arange(M.shape[0]), counts)
        cols = np.full((M.shape[0], max(counts.max(), 1)), -1)
        cols[rows, np.arange(M.nnz) - M.indptr[rows]] = M.indices
    vals = M.toarray()[np.arange(M.shape[0])[:, None], cols]
    return _Slots(cols, np.where(cols >= 0, vals, 0.0), M.shape[1])


class _SlotColumns:
    """Reads a slot description as its pattern: the column of every slot,
    -1 where a stencil has no entry. Scales do not move the pattern."""

    @staticmethod
    def kron(X, Y, offset, scale):
        cols = (offset + X.cols[:, None, :, None] * Y.ncols
                + Y.cols[None, :, None, :])
        empty = (X.cols < 0)[:, None, :, None] | (Y.cols < 0)[None, :, None, :]
        return np.where(empty, -1, cols).reshape(cols.shape[0] * cols.shape[1],
                                                 -1)

    @staticmethod
    def add(first, *rest):
        """Terms laid out on the same slots share their columns."""
        return first


class _SlotValues:
    """Reads a slot description as its values."""

    @staticmethod
    def kron(X, Y, offset, scale):
        """diag(scale) kron(X, Y); scale is a scalar, one value per row
        shaped (rows of X, rows of Y), or one per slot shaped (rows of X,
        rows of Y, slots of X, slots of Y)."""
        scale = np.asarray(scale)
        if scale.ndim < 4:
            scale = scale[..., None, None]
        vals = scale * (X.vals[:, None, :, None] * Y.vals[None, :, None, :])
        return vals.reshape(vals.shape[0] * vals.shape[1], -1)

    @staticmethod
    def add(*terms):
        return sum(terms)


class _SlotPattern:
    """Fixed CSR pattern of a matrix on the free dofs whose rows are blocks
    of Kronecker slot tables.

    A block lists segments that share its rows and sit side by side; a row
    keeps every slot of every segment, so columns may repeat within a row
    (sparse products and matvecs sum them). The slots with no entry or on
    an eliminated dof are dropped once, here; fill() then only gathers the
    kept slot values of the same description. Every filled matrix shares
    the read-only `indices` and `indptr`, so an in-place operation on one
    (sum_duplicates, sort_indices) raises ValueError instead of rewriting
    the pattern of every later fill.
    """

    def __init__(self, blocks, dof_of, ndof):
        dof = [np.where(c >= 0, dof_of[c], -1)
               for c in (np.hstack(b) for b in blocks)]
        self.keep = np.concatenate([d.ravel() >= 0 for d in dof])
        self.indices = np.concatenate([d[d >= 0] for d in dof]).astype(np.int32)
        counts = np.concatenate([np.sum(d >= 0, axis=1) for d in dof])
        self.indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
        self.indices.flags.writeable = self.indptr.flags.writeable = False
        self.shape = (counts.size, ndof)

    def fill(self, blocks):
        vals = np.concatenate([np.hstack(b).ravel() for b in blocks])
        return sp.csr_matrix((vals[self.keep], self.indices, self.indptr),
                             shape=self.shape)


class MacStencils:
    """The metric-free structure of the MAC saddle system on one grid.

    A full velocity vector is u1 (x faces, (nx+1, ny)) then u2 (y faces,
    (nx, ny+1)), each flattened x-major, so every 2-D stencil is a Kronecker
    product of an x stencil with an s stencil. The dofs are the free faces
    (wall u1 and bottom u2 are eliminated, u.nu = 0): P embeds them.

    Each metric-weighted matrix is a stack of such stencils whose rows are
    scaled by one metric coefficient, so its values are linear in the
    metric and its pattern is fixed. Built once per problem:

      * the row operator R on the dofs: the viscous rows T11 = 2(G11 +
        c12 G21), T12 = c22 G21 + G12 + c12 G22 and T22 = 2 c22 G22 of each
        cell, with G_ab the gradient of u_b along a reference axis a, the
        slip rows on the bottom and walls and an identity row per dof for
        the mass. A_visc + A_slip + M/dt = R^T diag(w) R;
      * the flux divergence Div and its top row Ztop, linear in
        zw = (Jvol, Jvol b - A) of the faces;
      * the stream map T from the free nodes (psi = 0 on the walls and the
        bottom) to the dofs, u1 = d_s psi / Jvol and u2 = -d_x psi -
        (Jvol b - A) ubar1, whose ubar1 slots carry the 1/Jvol of the x face
        they read.

    rows(), flux() and stream() fill these patterns from each step's
    metric.
    """

    def __init__(self, grid, beta):
        nx, ny, hx, hs = grid.nx, grid.ny, grid.hx, grid.hs
        self.nx, self.ny = nx, ny
        self.n1 = (nx + 1) * ny

        # 1-D stencils: x stencils over faces (nx+1) or cells (nx), s
        # stencils over faces (ny+1) or cells (ny)
        self._dx, self._ds = _slots(_diff(nx, hx)), _slots(_diff(ny, hs))
        self._mx, self._ms = _slots(_mean(nx)), _slots(_mean(ny))
        self._cx, self._cs = _slots(_cdiff(nx, hx)), _slots(_cdiff(ny, hs))
        self._ix, self._iy = _slots(sp.eye(nx)), _slots(sp.eye(ny))
        # the free x faces, the free s faces and the top s face
        self._fx = _slots(sp.eye(nx - 1, nx + 1, 1))
        self._fs = _slots(sp.eye(ny, ny + 1, 1))
        self._top = _slots(sp.eye(1, ny + 1, ny))
        # extrapolation to the walls, the bottom and the top
        self._walls = _slots(_ends(nx)[0]), _slots(_ends(nx)[1])
        self._bottom, self._top_avg = _slots(_ends(ny)[0]), _slots(_ends(ny)[1])
        # the u1 columns of a cell's flux divergence: faces i, i+1 (the
        # slots of dx and mx) by cells j-1, j, j+1. On them sit u1 itself
        # (mid), u1 averaged to the y face below the cell (lo) and above it
        # (hi): zero at the bottom, extrapolated to the top
        j = np.arange(ny)[:, None] + np.arange(-1, 2)
        j[(j < 0) | (j >= ny)] = -1
        avg = sp.vstack([sp.csr_matrix((1, ny)), _mean(ny - 1), _ends(ny)[1]],
                        "csr")
        self._mid = _slots(sp.eye(ny), j)
        self._lo, self._hi = _slots(avg[:-1], j), _slots(avg[1:], j)
        # ubar1 on the free y faces from d_s psi: the node columns of each
        # cell's d_s, and the cell that each slot reads
        faces = _slots(avg[1:])
        self._ubar = _Slots(
            self._ds.cols[faces.cols].reshape(ny, -1),
            (faces.vals[:, :, None]
             * self._ds.vals[faces.cols]).reshape(ny, -1), ny + 1)
        self._ubar_cell = np.repeat(faces.cols, 2, axis=1)

        # slip friction on the bottom and walls, traces extrapolated from
        # the first two interior layers; the wall measure carries the rest
        # column height (the J-correction of the moving wall is higher
        # order and left to the explicit terms)
        wwall = np.full(ny, hs)
        wwall[-1] *= 0.5
        self.slip_weights = beta * np.concatenate(
            [np.full(nx - 1, hx), wwall * (grid.depth + grid.zeta0_f[0]),
             wwall * (grid.depth + grid.zeta0_f[-1])])

        # surface stations: slopes between top centers, rest slope and the
        # curvature weight at the interior x faces, wall extrapolation
        self.Dx = _diff(nx - 1, hx).tocsr()
        self.s0_in = grid.dzeta0_f[1:-1]
        self.inv32_in = (1.0 + self.s0_in ** 2) ** -1.5
        self.ends = _ends(nx).tocsr()

        # dof embedding: wall u1 and bottom u2 are eliminated (u.nu = 0)
        self.P = sp.block_diag([sp.kron(sp.eye(nx + 1, nx - 1, -1), sp.eye(ny)),
                                sp.kron(sp.eye(nx), sp.eye(ny + 1, ny, -1))],
                               "csr")
        self.free = self.P.tocsc().indices
        dof_of = np.full(self.P.shape[0], -1)
        dof_of[self.free] = np.arange(self.free.size)

        zero1, zero2 = np.zeros((nx + 1, ny)), np.zeros((nx, ny + 1))
        self._rows = _SlotPattern(self._row_blocks(_SlotColumns, 0.0, 0.0),
                                  dof_of, self.free.size)
        div, ztop = self._flux_blocks(_SlotColumns, zero1, zero2)
        self._div = _SlotPattern(div, dof_of, self.free.size)
        self._ztop = _SlotPattern(ztop, dof_of, self.free.size)
        # the free nodes of psi: between the walls, above the bottom
        node_of = np.full((nx + 1, ny + 1), -1)
        node_of[1:nx, 1:] = np.arange((nx - 1) * ny).reshape(nx - 1, ny)
        self._stream = _SlotPattern(
            self._stream_blocks(_SlotColumns, 1.0 + zero1, zero2),
            node_of.ravel(), (nx - 1) * ny)

    def _row_blocks(self, t, c12, c22):
        """Row blocks of R, read by t: T11, T12, T22 per cell, bottom and
        wall slip, then the identity on the u1 and u2 dofs."""
        n1 = self.n1
        return [
            [t.kron(self._dx, self._iy, 0, 2.0),
             t.kron(self._mx, self._cs, 0, 2.0 * c12)],
            [t.kron(self._mx, self._cs, 0, c22),
             t.kron(self._cx, self._ms, n1, 1.0),
             t.kron(self._ix, self._ds, n1, c12)],
            [t.kron(self._ix, self._ds, n1, 2.0 * c22)],
            [t.kron(self._fx, self._bottom, 0, 1.0)],
            [t.kron(self._walls[0], self._fs, n1, 1.0)],
            [t.kron(self._walls[1], self._fs, n1, 1.0)],
            [t.kron(self._fx, self._iy, 0, 1.0)],
            [t.kron(self._ix, self._fs, n1, 1.0)],
        ]

    def _flux_blocks(self, t, zw1, zw2):
        """Row blocks of Div and of Ztop, read by t.

        The flux is Z1 = zw1 u1 on the x faces and Z2 = zw2 ubar1 + u2 on
        the y faces; (Div u)_cell is its difference across the cell and
        Ztop u is Z2 on the top faces, exactly u.N.
        """
        dx, ds = self._dx, self._ds.vals
        left = _Slots(dx.cols, dx.vals * [1.0, 0.0], dx.ncols)
        right = _Slots(dx.cols, dx.vals * [0.0, 1.0], dx.ncols)
        div = [t.add(t.kron(left, self._mid, 0, zw1[:-1]),
                     t.kron(right, self._mid, 0, zw1[1:]),
                     t.kron(self._mx, self._lo, 0, ds[:, 0] * zw2[:, :-1]),
                     t.kron(self._mx, self._hi, 0, ds[:, 1] * zw2[:, 1:])),
               t.kron(self._ix, self._ds, self.n1, 1.0)]
        ztop = [t.kron(self._mx, self._top_avg, 0, zw2[:, -1:]),
                t.kron(self._ix, self._top, self.n1, 1.0)]
        return [div], [ztop]

    def _stream_blocks(self, t, zw1, zw2):
        """Row blocks of T, read by t: u1 on the free x faces, then u2 on
        the free y faces, from Z1 = d_s psi and Z2 = -d_x psi."""
        inv1 = 1.0 / zw1
        ubar = -zw2[:, 1:, None, None] * inv1[self._mx.cols[:, None, :, None],
                                              self._ubar_cell[None, :, None, :]]
        return [[t.kron(self._fx, self._ds, 0, inv1[1:-1])],
                [t.kron(self._dx, self._fs, 0, -1.0),
                 t.kron(self._mx, self._ubar, 0, ubar)]]

    def rows(self, c12, c22):
        """R on the dofs for cell-center coefficients c12, c22 (nx, ny)."""
        return self._rows.fill(self._row_blocks(_SlotValues, c12, c22))

    def flux(self, zw1, zw2):
        """(Div, Ztop) on the dofs for the face weights zw1 = Jvol on the x
        faces and zw2 = Jvol b - A on the y faces."""
        div, ztop = self._flux_blocks(_SlotValues, zw1, zw2)
        return self._div.fill(div), self._ztop.fill(ztop)

    def stream(self, zw1, zw2):
        """T on the free nodes and dofs for the face weights of flux()."""
        # neighbouring ubar1 slots read the same nodes: sum them in a copy,
        # as the filled matrix shares the held pattern's read-only indices
        T = self._stream.fill(self._stream_blocks(_SlotValues, zw1, zw2)).copy()
        T.sum_duplicates()
        return T

    def full_vector(self, u1, u2):
        return np.concatenate([u1.ravel(), u2.ravel()])

    def split_full(self, vec):
        return (vec[:self.n1].reshape(self.nx + 1, self.ny),
                vec[self.n1:].reshape(self.nx, self.ny + 1))


# ============================================================
# MAC operator assembly
# ============================================================

class FlowOperators:
    """The metric-dependent pieces of one momentum solve, all on the dofs:
    the patterns of problem.stencils filled with c12, c22, Jvol and
    Jvol b - A of fields.

    The velocity block is one Gram product A_dof = R^T diag(w) R. Below the
    bulk rows of R (viscous, slip, mass) sit the O(nx) surface rows DxZ,
    Ztop and the two contact rows, whose Gram blocks are the implicit
    curvature, gravity and contact-law blocks K_srf. The stream map T, K =
    T^T A_dof T and the pressure Laplacian are built on first use: a zero
    load and the compatibility check build none of them, the initial
    projection only the pressure Laplacian.
    """

    def __init__(self, problem, fields, dt):
        mac = problem.stencils
        params = problem.params
        hx, hs = problem.grid.hx, problem.grid.hs
        met_c = fields.at("centers")
        met_xf = fields.at("xfaces")
        met_yf = fields.at("yfaces")

        # -------- volume weights --------
        self.cell_measure = met_c["Jvol"].ravel() * hx * hs
        w2 = met_yf["Jvol"] * hx * hs
        w2[:, -1] *= 0.5                       # top faces own half cells
        self.mass_diag = np.concatenate([(met_xf["Jvol"] * hx * hs).ravel(),
                                         w2.ravel()])
        self.mass = self.mass_diag[mac.free]
        # a folded map has non-positive volume weights: its blocks are
        # indefinite, and no solve of them means anything
        low_cell, low_mass = np.min(self.cell_measure), np.min(self.mass_diag)
        if not (low_cell > 0.0 and low_mass > 0.0):
            raise StabilityError("flattening map folds: smallest cell "
                                 "measure %.3g, smallest velocity mass %.3g"
                                 % (low_cell, low_mass))

        # -------- flux divergence and surface rows --------
        zw2 = met_yf["Jvol"] * met_yf["b"] - met_yf["A"]
        self.Div, self.Ztop = mac.flux(met_xf["Jvol"], zw2)
        self._stream = functools.partial(mac.stream, met_xf["Jvol"], zw2)
        self.B_dof = sp.csr_matrix((self.Div.data * (-hx * hs),
                                    self.Div.indices, self.Div.indptr),
                                   shape=self.Div.shape)
        self.DxZ = mac.Dx @ self.Ztop
        self.ends = mac.ends @ self.Ztop

        # -------- velocity block --------
        R = sp.vstack([mac.rows(met_c["c12"], met_c["c22"]), self.DxZ,
                       self.Ztop, self.ends], format="csr")
        visc = params.mu * self.cell_measure
        w = np.concatenate([
            0.5 * visc, visc, 0.5 * visc, mac.slip_weights,
            self.mass / dt,
            params.sigma1 * (dt + problem.eps) * hx * mac.inv32_in,
            np.full(mac.nx, params.g * dt * hx),
            np.full(2, params.kappa)])
        wR = sp.csr_matrix((R.data * np.repeat(w, np.diff(R.indptr)),
                            R.indices, R.indptr), shape=R.shape)
        self.A_dof = R.T.tocsr() @ wR

    @functools.cached_property
    def T(self):
        """The stream map of MacStencils.stream: B_dof T = 0 to rounding."""
        return self._stream()

    @functools.cached_property
    def K(self):
        return (self.T.T @ (self.A_dof @ self.T)).tocsc()

    @functools.cached_property
    def lap(self):
        """BandedCholesky of L_p = B_dof diag(mass)^-1 B_dof^T.

        In the x-major cell order a cell couples only to cells at most
        ny + 2 places away, so L_p is a band matrix. It is positive definite
        without a shift: B^T has no constant null vector because the top
        flux is free.
        """
        return BandedCholesky(self.B_dof @ sp.diags(1.0 / self.mass)
                              @ self.B_dof.T)

    def solve(self, solver, f):
        """[u, p] of the saddle system [[A, B^T], [B, 0]] [u; p] = [f; 0],
        A = A_dof and B = B_dof, on the divergence-free velocities u = T psi.

        solver, a LaggedLU, solves K psi = T^T f; sweeps K dpsi = T^T r,
        u += T dpsi, with r the saddle residual and p = L_p^-1 B M^-1
        (f - A u), repeat until that residual meets LAG_RTOL ||f||, at most
        REFINE_SWEEPS times. A zero load returns zeros without factoring.
        """
        if not np.any(f):
            # keeps the rest state an exact fixed point
            return np.zeros(f.size + self.B_dof.shape[0])
        A, B, T = self.A_dof, self.B_dof, self.T

        def sweeps(cg):
            bound = LAG_RTOL * np.linalg.norm(f)
            u, g = np.zeros_like(f), T.T @ f
            # every sweep aims at the first solve's tolerance: a sweep
            # corrects rounding, so a few digits of its own right-hand side
            # suffice
            atol = CG_AIM * np.linalg.norm(g)
            for _ in range(REFINE_SWEEPS + 1):
                dpsi, _ = cg(g, atol)
                if dpsi is None:
                    return None
                u = u + T @ dpsi
                r = f - A @ u
                p = self.lap.solve(B @ (r / self.mass))
                r = r - B.T @ p
                if math.hypot(np.linalg.norm(r),
                              np.linalg.norm(B @ u)) <= bound:
                    return np.concatenate([u, p])
                g = T.T @ r
            return None

        return solver.solve(spla, self.K, f, sweeps)


# ============================================================
# explicit terms
# ============================================================

def _face_means(c, axis):
    """Cell values to the faces between and around them along axis:
    neighbour means inside, the end cell's value copied at each end."""
    c = np.moveaxis(c, axis, 0)
    out = np.concatenate([c[:1], 0.5 * (c[:-1] + c[1:]), c[-1:]])
    return np.moveaxis(out, 0, axis)


def _advection(fields, u1, u2):
    """Explicit transport sources of u1 on the x faces and u2 on the y
    faces (geometry.transport_source), the other component averaged
    through the cells onto each face grid."""
    hx, hs = fields.grid.hx, fields.grid.hs
    u2_xf = _face_means(0.5 * (u2[:, :-1] + u2[:, 1:]), 0)
    u1_yf = _face_means(0.5 * (u1[:-1] + u1[1:]), 1)
    return (geometry.transport_source(fields.at("xfaces"), u1, (u1, u2_xf),
                                      hx, hs),
            geometry.transport_source(fields.at("yfaces"), u2, (u1_yf, u2),
                                      hx, hs))


# ============================================================
# time stepping
# ============================================================

CFL_LIMIT = 0.9      # largest advective CFL number a step accepts


def _check_surface(problem, eta):
    """SpillError unless the surface zeta0 + eta lies in (0, big_l]."""
    zeta = problem.grid.zeta0_c + eta
    if not (0.0 < np.min(zeta) and np.max(zeta) <= problem.params.big_l):
        raise SpillError("surface range [%g, %g] outside (0, big_l]"
                         % (np.min(zeta), np.max(zeta)))


def momentum_step(problem, fields, state, theta=None, *, dt):
    """One implicit momentum/pressure/surface step of size dt.

    theta: node temperatures driving buoyancy and the thermal tension
    correction (None for isothermal runs). FlowOperators.solve solves the
    saddle system in the stream function with problem.saddle_solver, which
    preconditions CG with the float32 LU of an earlier step's K and
    refactors only when a solve misses its residual bound. Returns the
    advanced FlowState; raises StabilityError on CFL violation (a NaN
    velocity counts as one), a folded flattening map or a failed solve, and
    SpillError when the surface, given or advanced, leaves the channel.
    """
    params = problem.params
    grid = problem.grid
    nx = grid.nx

    # a spilled surface has non-positive column heights, and so an
    # indefinite velocity block that no SPD factorization can take
    _check_surface(problem, state.eta)
    speed = (np.max(np.abs(state.u1)) / grid.hx
             + np.max(np.abs(state.u2)) / grid.hs)
    if not speed * dt <= CFL_LIMIT:
        raise StabilityError("advective CFL %.3g exceeds %.2f"
                             % (speed * dt, CFL_LIMIT))

    ops = FlowOperators(problem, fields, dt)
    mac = problem.stencils
    ufull = mac.full_vector(state.u1, state.u2)
    rhs = ops.mass_diag * ufull / dt

    # buoyancy
    if theta is not None:
        theta = np.asarray(theta, float)
        th_yf = 0.5 * (theta[:-1, :] + theta[1:, :])
        w2 = ops.mass_diag[mac.n1:]
        rhs[mac.n1:] += -params.g * th_yf.ravel() * w2

    # explicit advection + mesh motion
    adv1, adv2 = _advection(fields, state.u1, state.u2)
    rhs += ops.mass_diag * np.concatenate([adv1.ravel(), adv2.ravel()])
    rhs = rhs[mac.free]

    # explicit surface loads: linear curvature of eta^n, remainder, gravity
    inv32 = mac.inv32_in
    dxe = mac.Dx @ state.eta
    rem = remainder_r(mac.s0_in, dxe)
    v_expl = params.sigma1 * grid.hx * (dxe * inv32 + rem)
    rhs -= ops.DxZ.T @ v_expl
    rhs -= ops.Ztop.T @ (params.g * grid.hx * state.eta)

    # explicit contact response W(z) = w3 z^3 at the two contact points
    z = mac.ends @ state.zdot
    cubic = problem.w3 * z ** 3
    rhs -= ops.ends.T @ (params.kappa * cubic)

    # thermal tension correction, fully lagged
    if theta is not None and params.sigma2 != 0.0:
        dxz = mac.Dx @ state.zdot
        flux_nodes = np.empty(nx + 1)
        flux_nodes[1:-1] = (dxe + problem.eps * dxz) * inv32 + rem
        wL = params.kappa * (z[0] + cubic[0])
        wR = params.kappa * (z[1] + cubic[1])
        flux_nodes[0] = wL / params.sigma1
        flux_nodes[-1] = -wR / params.sigma1
        dflux_c = np.diff(flux_nodes) / grid.hx
        rhs -= ops.Ztop.T @ (grid.hx * params.sigma2 * th_yf[:, -1] * dflux_c)

    sol = ops.solve(problem.saddle_solver, rhs)
    u_new = sol[:mac.free.size]
    p_new = sol[mac.free.size:].reshape(nx, grid.ny)

    u1_new, u2_new = mac.split_full(mac.P @ u_new)
    zdot = ops.Ztop @ u_new
    div_res = float(np.max(np.abs(ops.Div @ u_new)))

    eta_new = state.eta + dt * zdot
    drift = float(np.sum(eta_new) * grid.hx / (2.0 * grid.ell))
    eta_new = eta_new - drift

    _check_surface(problem, eta_new)
    return state.advanced(u1=u1_new, u2=u2_new, p=p_new, eta=eta_new,
                          zdot=zdot, time=state.time + dt, dt=dt,
                          recenter_log=abs(drift), div_residual=div_res,
                          contact_speeds=tuple(float(z)
                                               for z in mac.ends @ zdot))


def velocity_at_nodes(u1, u2):
    """Interpolate MAC face velocities to the node grid."""
    return np.array([geometry.to_nodes(u1, 1), geometry.to_nodes(u2, 0)])


def coupled_step(problem, fields, flow, heat_state, dt):
    """Heat then momentum on fields, the geometry of the given state.

    Returns the new flow and heat states and the geometry of the new state,
    which the next step and the new state's energy report both use.
    """
    from . import heat as heat_mod
    u_nodes = velocity_at_nodes(flow.u1, flow.u2)
    heat_new = heat_mod.step_fd(fields, problem.params.k, heat_state, dt,
                                transport=u_nodes,
                                solver=problem.heat_solver)
    flow_new = momentum_step(problem, fields, flow, theta=heat_new.theta,
                             dt=dt)
    return flow_new, heat_new, geometry.build_geometry(
        problem.grid, flow_new.eta, flow_new.zdot)


# ============================================================
# initial data
# ============================================================

def construct_flow_initial_data(problem, eta0, u1_raw=None, u2_raw=None):
    """Project raw velocity data onto the discrete divergence-free space.

    The mass-weighted projection [[M, B^T], [B, 0]] has the exact Schur
    complement L_p = B M^-1 B^T, so one pressure Laplacian solve projects:
    p = L_p^-1 B u_raw, u = u_raw - M^-1 B^T p. eta0 is recentered to exact
    zero mean and the kinematic speed is seeded from the projected field,
    so the t = 0 state satisfies the same discrete constraints the stepper
    preserves.
    """
    grid = problem.grid
    eta0 = np.asarray(eta0, float).copy()
    eta0 -= np.mean(eta0)
    state = zero_flow_state(grid)
    if u1_raw is not None or u2_raw is not None:
        u1 = np.zeros((grid.nx + 1, grid.ny)) if u1_raw is None \
            else np.asarray(u1_raw, float)
        u2 = np.zeros((grid.nx, grid.ny + 1)) if u2_raw is None \
            else np.asarray(u2_raw, float)
        fields = geometry.build_geometry(grid, eta0)
        ops = FlowOperators(problem, fields, 1.0)
        mac = problem.stencils
        u = mac.full_vector(u1, u2)[mac.free]
        p = ops.lap.solve(ops.B_dof @ u)
        u = u - (ops.B_dof.T @ p) / ops.mass
        u1n, u2n = mac.split_full(mac.P @ u)
        state = FlowState(u1=u1n, u2=u2n, p=np.zeros((grid.nx, grid.ny)),
                          eta=eta0, zdot=ops.Ztop @ u)
    else:
        state.eta = eta0
    return state


def check_compatibility(problem, fields, state):
    """Discrete residuals of the constraints the stepper enforces
    structurally: divergence and kinematic trace of the free faces, wall
    flux and zero mean."""
    grid = problem.grid
    mac = problem.stencils
    ops = FlowOperators(problem, fields, 1.0)
    u = mac.full_vector(state.u1, state.u2)[mac.free]
    return {
        "div": float(np.max(np.abs(ops.Div @ u))),
        "wall_flux": float(max(np.max(np.abs(state.u1[0])),
                               np.max(np.abs(state.u1[-1])))),
        "kinematic": float(np.max(np.abs(ops.Ztop @ u - state.zdot))),
        "mean_eta": abs(float(np.sum(state.eta) * grid.hx)),
    }
