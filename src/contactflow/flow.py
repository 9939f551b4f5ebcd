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
The kinematic update eta += dt Ztop u reuses the same Z2 top row, which
closes the energy bookkeeping: the implicit surface blocks are exactly the
discrete gradients of the surface energies.

The saddle matrix is never assembled or factored whole: its zero pressure
block forces off-diagonal pivots and a large fill. LaggedBlockSaddle holds two
SPD factorizations instead, the sparse LU of the velocity block A and the
banded Cholesky factor of the pressure Laplacian L_p = B M^-1 B^T, and solves
by GMRES right-preconditioned with the block-triangular [[A, B^T], [0, -S]].
S^-1 = L_p^-1 / dt + mu M_p^-1, with M_p = diag(Jvol hx hs), is the
Cahouet-Chabard approximation of the Schur complement of unsteady Stokes
(Cahouet & Chabard, Int. J. Numer. Meth. Fluids 8 (1988); Elman, Silvester &
Wathen, Finite Elements and Fast Iterative Solvers, on the unsteady Stokes
problem). Near rest the blocks move by O(|eta|) from one step to the next,
so a run builds the factors once and reuses them for later steps,
refactoring only when a solve misses a 1e-13 relative residual; the heat
solve reuses one LU the same way (LaggedLU). See Benzi, Golub & Liesen, Acta
Numerica 14 (2005) on block and lagged-factorization preconditioners. The
Krylov cycle is written here (`_gmres_cycle`): it keeps the preconditioned
directions, so its update needs no preconditioner solve of its own. The
saddle solution also moves by O(dt) per step near rest, so each cycle starts
from the linear extrapolation of the last two solutions.

The velocity-block LU is held in single precision. It only preconditions:
the lagged factor is already approximate after the first step, and because
the cycle keeps the preconditioned directions it is flexible GMRES, which
with a single-precision LU preconditioner still reaches double-precision
backward error (Arioli & Duff, ETNA 33 (2009)). Every Krylov vector,
residual and the LAG_RTOL acceptance stay in double precision, as do the
pressure Laplacian factor and the heat LU. A float32 factor holds 8 bytes
per L+U entry (value and row index) against 12, and each of a step's
(GMRES iterations + at most 1) velocity solves reads the whole factor.

The curvature remainder

    R(s0, s) = f(s0+s) - f(s0) - f'(s0) s,  f(z) = z/sqrt(1+z^2)

collects everything beyond the linearization of the exact flux; the contact
law kappa(dt_eta + W(dt_eta)) = -+ sigma1 (flux at +-ell) closes the system
at the moving contact points, with W(z) = w3 z^3.
"""

import functools
import math
import typing
from dataclasses import dataclass, field

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
LAG_RESTART = 40      # Krylov dimension of the single GMRES cycle
# GMRES stops a decade below LAG_RTOL: in a saddle solve the last digits of
# the residual sit in the continuity rows, and this margin brings the
# divergence residual down to the level of a direct solve
GMRES_AIM = 1e-14


class _LaggedSolver:
    """Solves a sequence of nearby linear systems with factors held from
    the first of them.

    The first system, and any whose shape or dt differ from the held
    factors', has its factors built (`_factor`, one count in
    `factorizations`); every solve is then one GMRES cycle
    (`_gmres_cycle`) right-preconditioned by the held factors, started
    from the first iterate that `_start` gives: by default the
    preconditioned right-hand side, which is exact when the held factors
    are those of the system. A result is kept only when it is finite and
    its explicitly computed residual is at most LAG_RTOL ||b||. A miss with
    factors held from an earlier step drops them before refactoring, so two
    factor sets never coexist; a miss with fresh factors raises
    StabilityError. A zero right-hand side returns zeros without factoring.

    Each solve takes the caller's scipy.sparse.linalg handle, so every
    sparse LU is made through the calling module's own `spla`.
    """

    def __init__(self):
        self._precondition = None     # held right preconditioner
        self._key = None
        self.factor_nnz = 0           # entries held in the factors
        self.factorizations = 0
        self.reused_solves = 0        # solves with factors of an earlier step
        self.gmres_iterations = 0     # summed over all solves
        self.max_gmres_iterations = 0
        self.fallbacks = 0

    def counts(self):
        return {"factorizations": self.factorizations,
                "reused_solves": self.reused_solves,
                "gmres_iterations": self.gmres_iterations,
                "max_gmres_iterations": self.max_gmres_iterations,
                "fallbacks": self.fallbacks}

    def solve(self, linalg, system, b, dt):
        """x with system @ x = b; raises StabilityError on NaN/inf."""
        if not np.all(np.isfinite(b)):
            raise StabilityError("non-finite right-hand side")
        if not np.any(b):
            return np.zeros_like(b)   # keeps the rest state an exact fixed point
        key = (system.shape, dt)
        if self._precondition is not None and self._key == key:
            x = self._cycle(system, b)
            if x is not None:
                self.reused_solves += 1
                return x
            self.fallbacks += 1
            self._precondition = None
        self._precondition, self.factor_nnz = self._factor(linalg, system, dt)
        self._key = key
        self.factorizations += 1
        x = self._cycle(system, b)
        if x is None:
            raise StabilityError("solve with fresh factors returned non-finite"
                                 " values or missed its residual bound")
        return x

    def _factor(self, linalg, system, dt):
        """(preconditioner y -> P^-1 y, entries held) built from system."""
        raise NotImplementedError

    def _start(self, system, b):
        """First iterate x and its residual b - system @ x."""
        x = self._precondition(b)
        return x, b - system @ x

    def _cycle(self, system, b):
        """One preconditioned GMRES cycle; None unless it meets LAG_RTOL."""
        bnorm = np.linalg.norm(b)
        x, r = self._start(system, b)
        res = np.linalg.norm(r)
        if np.isfinite(res) and res > GMRES_AIM * bnorm:
            dx, iterations = _gmres_cycle(system, self._precondition, r,
                                          GMRES_AIM * bnorm)
            self.gmres_iterations += iterations
            self.max_gmres_iterations = max(self.max_gmres_iterations,
                                            iterations)
            x = x + dx
            res = np.linalg.norm(b - system @ x)
        if res <= LAG_RTOL * bnorm and np.all(np.isfinite(x)):
            return x
        return None


def _gmres_cycle(system, precondition, r, atol):
    """(dx, iterations): one GMRES(LAG_RESTART) cycle for system @ dx = r
    from dx = 0, right-preconditioned, stopped once the Arnoldi residual is
    at most atol (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7 (1986)).

    The basis is orthogonalized by classical Gram-Schmidt applied twice,
    each pass two matrix-vector products with the basis, and the
    Hessenberg columns are reduced by Givens rotations as they come. The
    preconditioned directions Z are kept, as in flexible GMRES (Saad, SIAM
    J. Sci. Comput. 14 (1993)), so dx = Z y costs no further preconditioner
    application. The basis arrays are allocated empty and only the rows a
    cycle reaches are written.
    """
    m = min(LAG_RESTART, r.size)
    V = np.empty((m + 1, r.size))
    Z = np.empty((m, r.size))
    R = np.zeros((m, m))                # the rotated Hessenberg matrix
    rotations = []                      # (cos, sin) of each Givens rotation
    g = [float(np.linalg.norm(r))]      # rotated residual coordinates
    V[0] = r / g[0]
    for j in range(m):
        Z[j] = precondition(V[j])
        w = system @ Z[j]
        basis = V[:j + 1]
        h = basis @ w
        w -= h @ basis
        h2 = basis @ w
        w -= h2 @ basis
        col = (h + h2).tolist()
        below = float(np.linalg.norm(w))
        for i, (c, s) in enumerate(rotations):
            col[i], col[i + 1] = (c * col[i] + s * col[i + 1],
                                  c * col[i + 1] - s * col[i])
        # an exactly singular column gives NaN, which the caller's finite
        # check rejects
        rho = math.hypot(col[j], below) or math.nan
        c, s = col[j] / rho, below / rho
        rotations.append((c, s))
        col[j] = rho
        R[:j + 1, j] = col
        g.append(-s * g[j])
        g[j] *= c
        if abs(g[j + 1]) <= atol or j + 1 == m:
            break
        V[j + 1] = w / below
    k = j + 1
    y = scipy.linalg.solve_triangular(R[:k, :k], g[:k], check_finite=False)
    return y @ Z[:k], k


class LaggedLU(_LaggedSolver):
    """Lagged solver whose held factor is the sparse LU of the first matrix
    (the heat Crank-Nicolson solve); `system` is a CSC matrix.

    The columns are ordered by minimum degree on A^T + A, which suits the
    symmetric pattern of the heat matrix and at 96x64 cuts the L+U entries
    from 0.54M (COLAMD) to 0.35M; partial pivoting is kept, so a matrix
    with no symmetric structure still factors stably. The factor stays in
    double precision: on frozen geometry it solves every step exactly,
    with no GMRES iteration.
    """

    def _factor(self, linalg, A, dt):
        lu = linalg.splu(A, permc_spec="MMD_AT_PLUS_A")
        return lu.solve, lu.nnz


class PressureLaplacian:
    """Cholesky factor of L_p = B diag(mass)^-1 B^T.

    In the x-major cell order a cell couples only to cells at most ny + 2
    places away, so L_p is a band matrix and LAPACK's banded Cholesky
    factors it with no fill outside the band. L_p is positive definite
    without a shift: B^T has no constant null vector because the top flux
    is free.
    """

    def __init__(self, B, mass):
        L = sp.triu(B @ sp.diags(1.0 / mass) @ B.T).tocoo()
        bw = int(np.max(L.col - L.row))
        band = np.zeros((bw + 1, L.shape[0]))
        band[bw + L.row - L.col, L.col] = L.data
        try:
            self._chol = scipy.linalg.cholesky_banded(band,
                                                      check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise StabilityError("pressure Laplacian is not positive "
                                 "definite") from exc
        self.nnz = band.size - bw * (bw + 1) // 2

    def solve(self, g):
        return scipy.linalg.cho_solve_banded((self._chol, False), g,
                                             check_finite=False)


class SaddleSystem:
    """The saddle matrix [[A, B^T], [B, 0]] kept as its blocks.

    A: SPD velocity block on the free dofs; B: (ncell, ndof) divergence;
    mass: the velocity mass diagonal on the free dofs; cell_measure: the
    pressure mass diagonal Jvol hx hs; mu: the viscosity. `@` applies the
    whole matrix, so the saddle matrix itself is never assembled.
    """

    def __init__(self, A, B, mass, cell_measure, mu):
        self.A, self.B = A, B
        self.BT = B.T.tocsr()
        self.mass, self.cell_measure, self.mu = mass, cell_measure, mu
        n = A.shape[0] + B.shape[0]
        self.shape = (n, n)

    def __matmul__(self, x):
        u, p = x[:self.A.shape[0]], x[self.A.shape[0]:]
        return np.concatenate([self.A @ u + self.BT @ p, self.B @ u])


class LaggedBlockSaddle(_LaggedSolver):
    """Lagged saddle solver holding the velocity-block LU and the pressure
    Laplacian Cholesky factor; `system` is a SaddleSystem.

    The right preconditioner is the block-triangular [[A, B^T], [0, -S]]
    with the Cahouet-Chabard Schur inverse S^-1 = L_p^-1 / dt + mu M_p^-1:
    the first term is exact when A = M/dt, the second is spectrally
    equivalent to the Schur complement of the viscous block. One count in
    `factorizations` is one build of the pair, and `factor_nnz` counts the
    LU's L+U entries plus the Cholesky band.

    The velocity block is factored in `factor_dtype`, single precision: the
    factor only preconditions a flexible GMRES cycle whose vectors and
    residuals are double, so its rounding costs accuracy in the
    preconditioner, not in the accepted solution. On the benchmark systems
    it takes as many iterations as a double factor and reads two thirds
    of the bytes per solve. The pressure Laplacian stays double, since
    construct_flow_initial_data uses it as an exact projection.

    Near rest the solution moves by O(dt) from step to step, so a cycle
    starts from the linear extrapolation 2 x_n - x_n-1 of the last two
    accepted solutions, kept while the key (shape, dt) is unchanged. A
    start whose residual is not below ||b|| is replaced by the
    preconditioned right-hand side.
    """

    factor_dtype = np.float32         # precision of the velocity-block LU

    def __init__(self):
        super().__init__()
        self._accepted = []           # the last two accepted solutions
        self._accepted_key = None     # the key they were solved under

    def _factor(self, linalg, saddle, dt):
        # A is SPD: a symmetric fill-reducing ordering and diagonal pivots
        lu = linalg.splu(saddle.A.tocsc().astype(self.factor_dtype),
                         permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
        lap = PressureLaplacian(saddle.B, saddle.mass)
        BT, nu = saddle.BT, saddle.A.shape[0]
        viscous = saddle.mu / saddle.cell_measure

        def precondition(r):
            g = r[nu:]
            p = -(lap.solve(g) / dt + viscous * g)
            # SuperLU takes a right-hand side only in the factor's dtype
            u = lu.solve((r[:nu] - BT @ p).astype(self.factor_dtype))
            return np.concatenate([u, p])

        return precondition, lu.nnz + lap.nnz

    def _start(self, saddle, b):
        if self._accepted_key == self._key and len(self._accepted) == 2:
            x = 2.0 * self._accepted[1] - self._accepted[0]
            r = b - saddle @ x
            if np.linalg.norm(r) < np.linalg.norm(b):
                return x, r
        return super()._start(saddle, b)

    def _cycle(self, saddle, b):
        x = super()._cycle(saddle, b)
        if x is not None:
            if self._accepted_key != self._key:
                self._accepted, self._accepted_key = [], self._key
            self._accepted = self._accepted[-1:] + [x]
        return x


# ============================================================
# state
# ============================================================

@dataclass
class FlowState:
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

    def _lvl(self, n, name):
        return getattr(self.levels[n], name)

    def dt_field(self, name):
        if not self.levels or self.dt == 0.0:
            return np.zeros_like(getattr(self, name))
        return (getattr(self, name) - self._lvl(0, name)) / self.dt

    def d2t_field(self, name):
        if len(self.levels) < 2 or self.dt == 0.0:
            return np.zeros_like(getattr(self, name))
        return (getattr(self, name) - 2.0 * self._lvl(0, name)
                + self._lvl(1, name)) / self.dt ** 2

    def _bare(self):
        """Snapshot carrying the arrays only; histories never nest."""
        return FlowState(u1=self.u1, u2=self.u2, p=self.p, eta=self.eta,
                         zdot=self.zdot, time=self.time, dt=self.dt)

    def advanced(self, **kw):
        lev = [self._bare()] + self.levels[:2]
        prev = {k: getattr(self, k) for k in
                ("u1", "u2", "p", "eta", "zdot", "time", "dt")}
        prev.update(kw)
        prev["levels"] = lev
        return FlowState(**prev)


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
    # lagged factorizations of the saddle and heat systems, one per problem
    saddle_solver: LaggedBlockSaddle = field(
        default_factory=LaggedBlockSaddle, init=False, repr=False,
        compare=False)
    heat_solver: LaggedLU = field(default_factory=LaggedLU, init=False,
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
        """diag(scale) kron(X, Y); scale is a scalar or one value per row,
        shaped (rows of X, rows of Y)."""
        vals = np.asarray(scale)[..., None, None] * (
            X.vals[:, None, :, None] * Y.vals[None, :, None, :])
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
    kept slot values of the same description.
    """

    def __init__(self, blocks, dof_of, ndof):
        dof = [np.where(c >= 0, dof_of[c], -1)
               for c in (np.hstack(b) for b in blocks)]
        self.keep = np.concatenate([d.ravel() >= 0 for d in dof])
        self.indices = np.concatenate([d[d >= 0] for d in dof]).astype(np.int32)
        counts = np.concatenate([np.sum(d >= 0, axis=1) for d in dof])
        self.indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
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
        zw = (Jvol, Jvol b - A) of the faces.

    rows() and flux() fill these patterns from each step's metric.
    """

    def __init__(self, grid, beta):
        nx, ny, hx, hs = grid.nx, grid.ny, grid.hx, grid.hs
        self.nx, self.ny = nx, ny
        self.n1 = (nx + 1) * ny
        self.ncell = nx * ny

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

        # slip friction on the bottom and walls, traces extrapolated from
        # the first two interior layers; the wall measure carries the rest
        # column height (the J-correction of the moving wall is higher
        # order and left to the explicit terms)
        wwall = np.full(ny, hs)
        wwall[-1] *= 0.5
        self.slip_weights = beta * np.concatenate(
            [np.full(nx - 1, hx)]
            + [wwall * (grid.depth + float(grid.zeta0_fn(x)))
               for x in (-grid.ell, grid.ell)])

        # surface stations: slopes between top centers, rest slope and the
        # curvature weight at the interior x faces, wall extrapolation
        self.Dx = _diff(nx - 1, hx).tocsr()
        self.s0_in = np.asarray(grid.dzeta0_fn(grid.xf[1:-1]), float)
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

    def rows(self, c12, c22):
        """R on the dofs for cell-center coefficients c12, c22 (nx, ny)."""
        return self._rows.fill(self._row_blocks(_SlotValues, c12, c22))

    def flux(self, zw1, zw2):
        """(Div, Ztop) on the dofs for the face weights zw1 = Jvol on the x
        faces and zw2 = Jvol b - A on the y faces."""
        div, ztop = self._flux_blocks(_SlotValues, zw1, zw2)
        return self._div.fill(div), self._ztop.fill(ztop)

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
    curvature, gravity and contact-law blocks K_srf.
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
        # a folded map has non-positive volume weights: its blocks are
        # indefinite, and no solve of them means anything
        low_cell, low_mass = np.min(self.cell_measure), np.min(self.mass_diag)
        if not (low_cell > 0.0 and low_mass > 0.0):
            raise StabilityError("flattening map folds: smallest cell "
                                 "measure %.3g, smallest velocity mass %.3g"
                                 % (low_cell, low_mass))

        # -------- flux divergence and surface rows --------
        self.Div, self.Ztop = mac.flux(
            met_xf["Jvol"], met_yf["Jvol"] * met_yf["b"] - met_yf["A"])
        self.B_dof = sp.csr_matrix((self.Div.data * (-hx * hs),
                                    self.Div.indices, self.Div.indptr),
                                   shape=self.Div.shape)
        self.DxZ = mac.Dx @ self.Ztop
        ends = mac.ends @ self.Ztop
        self.EL, self.ER = ends[0], ends[1]

        # -------- velocity block --------
        R = sp.vstack([mac.rows(met_c["c12"], met_c["c22"]), self.DxZ,
                       self.Ztop, ends], format="csr")
        visc = params.mu * self.cell_measure
        w = np.concatenate([
            0.5 * visc, visc, 0.5 * visc, mac.slip_weights,
            self.mass_diag[mac.free] / dt,
            params.sigma1 * (dt + problem.eps) * hx * mac.inv32_in,
            np.full(mac.nx, params.g * dt * hx),
            np.full(2, params.kappa)])
        wR = sp.csr_matrix((R.data * np.repeat(w, np.diff(R.indptr)),
                            R.indices, R.indptr), shape=R.shape)
        self.A_dof = R.T.tocsr() @ wR


# ============================================================
# explicit terms
# ============================================================

def _advection(fields, u1, u2):
    """Explicit transport sources at the velocity faces.

    adv = dt(etabar) W K d2 u - u . grad_calA u, reconstructed per component
    on its own face grid.
    """
    grid = fields.grid
    hx, hs = grid.hx, grid.hs
    met_xf = fields.at("xfaces")
    met_yf = fields.at("yfaces")

    # u2 interpolated to x faces (cells first, then horizontal average)
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


def _theta_at_yfaces(theta):
    return 0.5 * (theta[:-1, :] + theta[1:, :])


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


def momentum_step(problem, fields, state, theta=None, dt=None):
    """One implicit momentum/pressure/surface step.

    theta: node temperatures driving buoyancy and the thermal tension
    correction (None for isothermal runs). The saddle system is solved by
    problem.saddle_solver, which reuses the block factors of an earlier
    step as a GMRES preconditioner and refactors only when that misses its
    residual bound. Returns the advanced FlowState; raises StabilityError
    on CFL violation (a NaN velocity counts as one), a folded flattening
    map or a failed solve, and SpillError when the surface, given or
    advanced, leaves the channel.
    """
    if dt is None:
        raise ValueError("dt is required")
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
        th_yf = _theta_at_yfaces(np.asarray(theta, float))
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
    rhs -= np.asarray(ops.EL.T @ [params.kappa * cubic[0]]).ravel()
    rhs -= np.asarray(ops.ER.T @ [params.kappa * cubic[1]]).ravel()

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
        th_top_c = 0.5 * (theta[:-1, -1] + theta[1:, -1])
        rhs -= ops.Ztop.T @ (grid.hx * params.sigma2 * th_top_c * dflux_c)

    saddle = SaddleSystem(ops.A_dof, ops.B_dof, ops.mass_diag[mac.free],
                          ops.cell_measure, params.mu)
    rhs_dof = np.concatenate([rhs, np.zeros(mac.ncell)])
    sol = problem.saddle_solver.solve(spla, saddle, rhs_dof, dt)
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
    nxp, ny = u1.shape
    u1n = np.empty((nxp, ny + 1))
    u1n[:, 1:-1] = 0.5 * (u1[:, :-1] + u1[:, 1:])
    u1n[:, 0] = 1.5 * u1[:, 0] - 0.5 * u1[:, 1]
    u1n[:, -1] = 1.5 * u1[:, -1] - 0.5 * u1[:, -2]
    nx = u2.shape[0]
    u2n = np.empty((nx + 1, ny + 1))
    u2n[1:-1] = 0.5 * (u2[:-1] + u2[1:])
    u2n[0] = 1.5 * u2[0] - 0.5 * u2[1]
    u2n[-1] = 1.5 * u2[-1] - 0.5 * u2[-2]
    return np.array([u1n, u2n])


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
        mass = ops.mass_diag[mac.free]
        p = PressureLaplacian(ops.B_dof, mass).solve(ops.B_dof @ u)
        u = u - (ops.B_dof.T @ p) / mass
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
