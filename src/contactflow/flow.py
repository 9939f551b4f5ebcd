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

Advection, buoyancy and the mesh-motion term are explicit, so the overall
splitting is first order in dt and each step is one linear saddle solve.
The kinematic update eta += dt Ztop u reuses the same Z2 top row, which
closes the energy bookkeeping: the implicit surface blocks are exactly the
discrete gradients of the surface energies.

Near rest the saddle matrix moves by O(|eta|) from one step to the next, so
a run factors it once and solves later steps by GMRES right-preconditioned
with that lagged LU (LaggedLU), refactoring only when the GMRES result misses
a 1e-13 relative residual; see Benzi, Golub & Liesen, Acta Numerica 14
(2005) on lagged-factorization preconditioners.

The curvature remainder

    R(s0, s) = f(s0+s) - f(s0) - f'(s0) s,  f(z) = z/sqrt(1+z^2)

collects everything beyond the linearization of the exact flux; the contact
law kappa(dt_eta + W(dt_eta)) = -+ sigma1 (flux at +-ell) closes the system
at the moving contact points, with W(z) = w3 z^3 by default.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import geometry


class StabilityError(RuntimeError):
    """CFL violation or solver breakdown."""


class SpillError(RuntimeError):
    """Free surface left the admissible channel (0, big_l]."""


# ============================================================
# curvature remainder and contact law
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


@dataclass(frozen=True)
class ContactModel:
    kappa: float
    sigma1: float
    w3: float = 1.0          # cubic response coefficient of W(z) = w3 z^3

    def response(self, z):
        return self.w3 * np.asarray(z, float) ** 3


def _solve_contact_scalar(model, rhs):
    """Root of kappa (z + w3 z^3) = rhs; monotone, bisection to roundoff.

    For w3 >= 0 the root is bounded by |rhs|/kappa, so that bracket always
    contains it (including the linear limit w3 = 0).
    """
    rhs = np.asarray(rhs, float)
    scale = np.abs(rhs) / model.kappa
    hi = scale + 1.0
    lo = -hi
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        f = model.kappa * (mid + model.response(mid)) - rhs
        neg = f < 0
        lo = np.where(neg, mid, lo)
        hi = np.where(neg, hi, mid)
    return 0.5 * (lo + hi)


def apply_contact_law(model, slopes, dslopes, eps, wall_slopes=(0.0, 0.0)):
    """Endpoint speeds from the contact law.

    slopes/dslopes: (left, right) values of d1 eta and d1 dt_eta at the
    walls; wall_slopes are the rest slopes zeta0'(-+ell). Solves

        kappa (z + W(z)) = -+ sigma1 [ (d1 eta + eps d1 dt_eta)
                                       / (1+zeta0'^2)^{3/2} + R ]

    and returns (z_left, z_right).
    """
    out = []
    for side, sign in ((0, +1.0), (1, -1.0)):
        s0 = wall_slopes[side]
        flux = ((slopes[side] + eps * dslopes[side])
                / (1.0 + s0 * s0) ** 1.5
                + float(remainder_r(s0, slopes[side])))
        out.append(float(_solve_contact_scalar(model, sign * model.sigma1 * flux)))
    return tuple(out)


def _extrap_end(c, side):
    """Linear extrapolation of a cell-center sequence to the wall."""
    c = np.asarray(c, float)
    return float(1.5 * c[0] - 0.5 * c[1]) if side == 0 \
        else float(1.5 * c[-1] - 0.5 * c[-2])


# ============================================================
# lagged factorization
# ============================================================

LAG_RTOL = 1e-13      # accepted residual ||b - A x|| / ||b|| of a reused LU
LAG_RESTART = 20      # Krylov dimension of the single GMRES cycle


class LaggedLU:
    """Solves a sequence of nearby sparse systems with one held LU.

    The first system, and any whose shape or dt differ from the held
    factor's, is factored and solved directly. Later systems get one GMRES
    cycle right-preconditioned by the held LU, started from its solution;
    the result is kept only when it is finite and its explicitly computed
    residual is at most LAG_RTOL ||b||. Otherwise the held factor is
    dropped before refactoring, so two factors never coexist.

    Each solve takes the caller's scipy.sparse.linalg handle, so every
    factorization is made through the calling module's own `spla`.
    """

    def __init__(self):
        self._lu = None
        self._key = None
        self.factorizations = 0
        self.reused_solves = 0
        self.max_gmres_iterations = 0
        self.fallbacks = 0

    def counts(self):
        return {"factorizations": self.factorizations,
                "reused_solves": self.reused_solves,
                "max_gmres_iterations": self.max_gmres_iterations,
                "fallbacks": self.fallbacks}

    def solve(self, linalg, A, b, dt):
        """x with A x = b (A in CSC form); raises StabilityError on NaN/inf."""
        if not np.all(np.isfinite(b)):
            raise StabilityError("non-finite right-hand side")
        if not np.any(b):
            return np.zeros_like(b)   # keeps the rest state an exact fixed point
        key = (A.shape, dt)
        x = None
        if self._lu is not None and self._key == key:
            x = self._gmres(linalg, A, b)
            if x is None:
                self.fallbacks += 1
                self._lu = None
            else:
                self.reused_solves += 1
        if x is None:
            self._lu = linalg.splu(A)
            self._key = key
            self.factorizations += 1
            x = self._lu.solve(b)
            if not np.all(np.isfinite(x)):
                raise StabilityError("sparse solve returned non-finite values")
        return x

    def _gmres(self, linalg, A, b):
        """One preconditioned GMRES cycle; None unless it meets LAG_RTOL."""
        lu = self._lu
        x0 = lu.solve(b)
        target = LAG_RTOL * np.linalg.norm(b)
        residuals = []        # one entry per inner GMRES iteration
        preconditioned = linalg.LinearOperator(
            A.shape, dtype=float, matvec=lambda y: A @ lu.solve(y))
        y, _ = linalg.gmres(preconditioned, b - A @ x0, atol=target,
                            rtol=0.0, restart=LAG_RESTART, maxiter=1,
                            callback=residuals.append,
                            callback_type="pr_norm")
        self.max_gmres_iterations = max(self.max_gmres_iterations,
                                        len(residuals))
        x = x0 + lu.solve(y)
        if np.all(np.isfinite(x)) and np.linalg.norm(b - A @ x) <= target:
            return x
        return None


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
    eps_dissipation: float = 0.0   # sigma1 eps |d1 zdot|^2 weighted sum, >= 0

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

    def dt_eta(self):
        return self.zdot

    def d2t_eta(self):
        return self.dt_field("zdot")

    def d3t_eta(self):
        """Backward second difference of the stored speeds; O(dt) only."""
        return self.d2t_field("zdot")

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
    recenter: bool = True
    exps: object = None
    cfl: float = 0.9
    # lagged factorizations of the saddle and heat systems, one per problem
    saddle_solver: LaggedLU = field(default_factory=LaggedLU, init=False,
                                    repr=False, compare=False)
    heat_solver: LaggedLU = field(default_factory=LaggedLU, init=False,
                                  repr=False, compare=False)

    def contact_model(self):
        return ContactModel(kappa=self.params.kappa,
                            sigma1=self.params.sigma1, w3=self.w3)


# ============================================================
# MAC operator assembly
# ============================================================

def _coo(rows, cols, vals, shape):
    return sp.csr_matrix((np.concatenate([np.ravel(v) for v in vals]),
                          (np.concatenate([np.ravel(r) for r in rows]),
                           np.concatenate([np.ravel(c) for c in cols]))),
                         shape=shape)


class FlowOperators:
    """All sparse pieces of one momentum solve for given geometry fields."""

    def __init__(self, fields, params, eps, dt):
        grid = fields.grid
        nx, ny = grid.nx, grid.ny
        hx, hs = grid.hx, grid.hs
        self.grid, self.fields = grid, fields
        self.params, self.eps, self.dt = params, eps, dt
        n1 = (nx + 1) * ny
        n2 = nx * (ny + 1)
        nfull = n1 + n2
        ncell = nx * ny
        self.n1, self.n2, self.nfull, self.ncell = n1, n2, nfull, ncell

        def f1(i, j):
            return i * ny + j

        def f2(i, j):
            return n1 + i * (ny + 1) + j

        def fc(i, j):
            return i * ny + j

        ic, jc = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")

        # -------- gradient reconstructions at cell centers --------
        G11 = _coo([fc(ic, jc)] * 2, [f1(ic + 1, jc), f1(ic, jc)],
                   [np.full(ic.shape, 1.0 / hx), np.full(ic.shape, -1.0 / hx)],
                   (ncell, nfull))

        # vertical derivative of u1 at x faces, then averaged to centers
        i_f, j_f = np.meshgrid(np.arange(nx + 1), np.arange(ny), indexing="ij")
        rows, cols, vals = [], [], []
        mid = (j_f >= 1) & (j_f <= ny - 2)
        rows += [f1(i_f[mid], j_f[mid])] * 2
        cols += [f1(i_f[mid], j_f[mid] + 1), f1(i_f[mid], j_f[mid] - 1)]
        vals += [np.full(mid.sum(), 0.5 / hs), np.full(mid.sum(), -0.5 / hs)]
        lo = j_f == 0
        rows += [f1(i_f[lo], 0)] * 2
        cols += [f1(i_f[lo], 1), f1(i_f[lo], 0)]
        vals += [np.full(lo.sum(), 1.0 / hs), np.full(lo.sum(), -1.0 / hs)]
        hib = j_f == ny - 1
        rows += [f1(i_f[hib], ny - 1)] * 2
        cols += [f1(i_f[hib], ny - 1), f1(i_f[hib], ny - 2)]
        vals += [np.full(hib.sum(), 1.0 / hs), np.full(hib.sum(), -1.0 / hs)]
        Dv1 = _coo(rows, cols, vals, (n1, nfull))
        AvgF = _coo([fc(ic, jc)] * 2, [f1(ic, jc), f1(ic + 1, jc)],
                    [np.full(ic.shape, 0.5)] * 2, (ncell, n1))
        G21 = AvgF @ Dv1

        # horizontal derivative of u2 at y faces, then averaged to centers
        i_y, j_y = np.meshgrid(np.arange(nx), np.arange(ny + 1), indexing="ij")
        rows, cols, vals = [], [], []
        mid = (i_y >= 1) & (i_y <= nx - 2)
        rows += [f2(i_y[mid], j_y[mid]) - n1] * 2
        cols += [f2(i_y[mid] + 1, j_y[mid]), f2(i_y[mid] - 1, j_y[mid])]
        vals += [np.full(mid.sum(), 0.5 / hx), np.full(mid.sum(), -0.5 / hx)]
        lo = i_y == 0
        rows += [f2(i_y[lo], j_y[lo]) - n1] * 2
        cols += [f2(1, j_y[lo]), f2(0, j_y[lo])]
        vals += [np.full(lo.sum(), 1.0 / hx), np.full(lo.sum(), -1.0 / hx)]
        hib = i_y == nx - 1
        rows += [f2(i_y[hib], j_y[hib]) - n1] * 2
        cols += [f2(nx - 1, j_y[hib]), f2(nx - 2, j_y[hib])]
        vals += [np.full(hib.sum(), 1.0 / hx), np.full(hib.sum(), -1.0 / hx)]
        Dh2 = _coo(rows, cols, vals, (n2, nfull))
        AvgY = _coo([fc(ic, jc)] * 2,
                    [f2(ic, jc) - n1, f2(ic, jc + 1) - n1],
                    [np.full(ic.shape, 0.5)] * 2, (ncell, n2))
        G12 = AvgY @ Dh2

        G22 = _coo([fc(ic, jc)] * 2, [f2(ic, jc + 1), f2(ic, jc)],
                   [np.full(ic.shape, 1.0 / hs), np.full(ic.shape, -1.0 / hs)],
                   (ncell, nfull))

        # -------- viscous form --------
        met_c = fields.at("centers")
        c12 = sp.diags(met_c["c12"].ravel())
        c22 = sp.diags(met_c["c22"].ravel())
        T11 = 2.0 * (G11 + c12 @ G21)
        T22 = 2.0 * (c22 @ G22)
        T12 = c22 @ G21 + G12 + c12 @ G22
        Wc = sp.diags(met_c["Jvol"].ravel() * hx * hs)
        self.A_visc = 0.5 * params.mu * (T11.T @ Wc @ T11
                                         + 2.0 * (T12.T @ Wc @ T12)
                                         + T22.T @ Wc @ T22)

        # -------- mass --------
        met_xf = fields.at("xfaces")
        met_yf = fields.at("yfaces")
        w1 = met_xf["Jvol"] * hx * hs
        w2 = met_yf["Jvol"] * hx * hs
        w2 = w2.copy()
        w2[:, -1] *= 0.5                       # top faces own half cells
        self.mass_diag = np.concatenate([w1.ravel(), w2.ravel()])
        self.Mmat = sp.diags(self.mass_diag)

        # -------- flux divergence --------
        Z1 = sp.diags(met_xf["Jvol"].ravel()) \
            @ sp.eye(n1, nfull, 0, format="csr")
        w2c = met_yf["Jvol"] * met_yf["b"] - met_yf["A"]
        rows, cols, vals = [], [], []
        mid = (j_y >= 1) & (j_y <= ny - 1)
        for di, wgt in ((0, 0.25), (1, 0.25)):
            rows += [f2(i_y[mid], j_y[mid]) - n1] * 2
            cols += [f1(i_y[mid] + di, j_y[mid] - 1), f1(i_y[mid] + di, j_y[mid])]
            vals += [np.full(mid.sum(), wgt)] * 2
        top = j_y == ny
        for di in (0, 1):
            rows += [f2(i_y[top], ny) - n1] * 2
            cols += [f1(i_y[top] + di, ny - 1), f1(i_y[top] + di, ny - 2)]
            vals += [np.full(top.sum(), 0.75), np.full(top.sum(), -0.25)]
        Avg1Y = _coo(rows, cols, vals, (n2, nfull))
        Z2 = sp.diags(w2c.ravel()) @ Avg1Y \
            + sp.eye(n2, nfull, n1, format="csr")
        DX = _coo([fc(ic, jc)] * 2, [f1(ic + 1, jc), f1(ic, jc)],
                  [np.full(ic.shape, 1.0 / hx), np.full(ic.shape, -1.0 / hx)],
                  (ncell, n1))
        DS = _coo([fc(ic, jc)] * 2,
                  [f2(ic, jc + 1) - n1, f2(ic, jc) - n1],
                  [np.full(ic.shape, 1.0 / hs), np.full(ic.shape, -1.0 / hs)],
                  (ncell, n2))
        self.Div = DX @ Z1 + DS @ Z2
        self.Ztop = Z2[np.arange(nx) * (ny + 1) + ny]

        # -------- slip friction --------
        i_in = np.arange(1, nx)
        Tb = _coo([np.arange(nx - 1)] * 2, [f1(i_in, 0), f1(i_in, 1)],
                  [np.full(nx - 1, 1.5), np.full(nx - 1, -0.5)],
                  (nx - 1, nfull))
        self.A_slip = params.beta * (Tb.T @ sp.diags(np.full(nx - 1, hx)) @ Tb)
        j_in = np.arange(1, ny + 1)
        wwall = np.full(ny, hs)
        wwall[-1] *= 0.5
        # wall measure carries the rest column height; the J-correction of
        # the moving wall is higher order and left to the explicit terms
        Hl = grid.depth + float(grid.zeta0_fn(-grid.ell))
        Hr = grid.depth + float(grid.zeta0_fn(grid.ell))
        for i0, i1, Hw in ((0, 1, Hl), (nx - 1, nx - 2, Hr)):
            Tw = _coo([np.arange(ny)] * 2, [f2(i0, j_in), f2(i1, j_in)],
                      [np.full(ny, 1.5), np.full(ny, -0.5)], (ny, nfull))
            self.A_slip = self.A_slip \
                + params.beta * (Tw.T @ sp.diags(wwall * Hw) @ Tw)

        # -------- surface blocks --------
        xf_in = grid.xf[1:-1]
        dz0_in = np.asarray(grid.dzeta0_fn(xf_in), float)
        self.inv32_in = (1.0 + dz0_in ** 2) ** -1.5
        rows = np.repeat(np.arange(nx - 1), 2)
        cols = np.stack([np.arange(1, nx), np.arange(nx - 1)], axis=1).ravel()
        vals = np.tile([1.0 / hx, -1.0 / hx], nx - 1)
        self.Dx = sp.csr_matrix((vals, (rows, cols)), shape=(nx - 1, nx))
        DxZ = self.Dx @ self.Ztop
        Wk = sp.diags(hx * self.inv32_in)
        self.K_curv = params.sigma1 * (dt + eps) * (DxZ.T @ Wk @ DxZ)
        self.K_grav = params.g * dt * (self.Ztop.T
                                       @ sp.diags(np.full(nx, hx))
                                       @ self.Ztop)
        EL = 1.5 * self.Ztop[0] - 0.5 * self.Ztop[1]
        ER = 1.5 * self.Ztop[nx - 1] - 0.5 * self.Ztop[nx - 2]
        self.EL, self.ER = EL.tocsr(), ER.tocsr()
        self.K_contact = params.kappa * (EL.T @ EL + ER.T @ ER)
        self.DxZ = DxZ

        # -------- dof embedding --------
        mask1 = np.zeros((nx + 1, ny), bool)
        mask1[1:nx, :] = True
        mask2 = np.zeros((nx, ny + 1), bool)
        mask2[:, 1:] = True
        free = np.concatenate([mask1.ravel(), mask2.ravel()])
        self.free = np.flatnonzero(free)
        self.P = sp.csr_matrix((np.ones(self.free.size),
                                (self.free, np.arange(self.free.size))),
                               shape=(nfull, self.free.size))

        A_full = (self.Mmat / dt + self.A_visc + self.A_slip
                  + self.K_curv + self.K_grav + self.K_contact)
        self.A_dof = (self.P.T @ A_full @ self.P).tocsr()
        self.B_dof = (-hx * hs) * (self.Div @ self.P)

    def full_vector(self, u1, u2):
        return np.concatenate([u1.ravel(), u2.ravel()])

    def split_full(self, vec):
        grid = self.grid
        return (vec[:self.n1].reshape(grid.nx + 1, grid.ny),
                vec[self.n1:].reshape(grid.nx, grid.ny + 1))


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

def momentum_step(problem, fields, state, theta=None, dt=None,
                  body_force=None):
    """One implicit momentum/pressure/surface step.

    theta: node temperatures driving buoyancy and the thermal tension
    correction (None for isothermal runs). The saddle system is solved by
    problem.saddle_solver, which reuses the LU of an earlier step as a
    GMRES preconditioner and refactors only when that misses its residual
    bound. Returns the advanced FlowState; raises StabilityError on CFL
    violation (a NaN velocity counts as one) or a non-finite solve, and
    SpillError when the surface leaves the channel.
    """
    if dt is None:
        raise ValueError("dt is required")
    params = problem.params
    grid = problem.grid
    nx = grid.nx

    speed = (np.max(np.abs(state.u1)) / grid.hx
             + np.max(np.abs(state.u2)) / grid.hs)
    if not speed * dt <= problem.cfl:
        raise StabilityError("advective CFL %.3g exceeds %.2f"
                             % (speed * dt, problem.cfl))

    ops = FlowOperators(fields, params, problem.eps, dt)
    ufull = ops.full_vector(state.u1, state.u2)
    rhs = ops.mass_diag * ufull / dt

    # buoyancy and body forces
    if theta is not None:
        th_yf = _theta_at_yfaces(np.asarray(theta, float))
        w2 = ops.mass_diag[ops.n1:]
        rhs[ops.n1:] += -params.g * th_yf.ravel() * w2
    if body_force is not None:
        rhs[:ops.n1] += np.ravel(body_force[0]) * ops.mass_diag[:ops.n1]
        rhs[ops.n1:] += np.ravel(body_force[1]) * ops.mass_diag[ops.n1:]

    # explicit advection + mesh motion
    adv1, adv2 = _advection(fields, state.u1, state.u2)
    rhs += ops.mass_diag * np.concatenate([adv1.ravel(), adv2.ravel()])

    # explicit surface loads: linear curvature of eta^n, remainder, gravity
    dz0_in = ops.inv32_in
    dxe = ops.Dx @ state.eta
    xf_in = grid.xf[1:-1]
    s0_in = np.asarray(grid.dzeta0_fn(xf_in), float)
    rem = remainder_r(s0_in, dxe)
    v_expl = params.sigma1 * grid.hx * (dxe * dz0_in + rem)
    rhs -= ops.DxZ.T @ v_expl
    rhs -= ops.Ztop.T @ (params.g * grid.hx * state.eta)

    # explicit contact response
    model = problem.contact_model()
    zL, zR = _extrap_end(state.zdot, 0), _extrap_end(state.zdot, 1)
    rhs -= np.asarray(ops.EL.T @ [params.kappa * float(model.response(zL))]).ravel()
    rhs -= np.asarray(ops.ER.T @ [params.kappa * float(model.response(zR))]).ravel()

    # thermal tension correction, fully lagged
    if theta is not None and params.sigma2 != 0.0:
        dxz = ops.Dx @ state.zdot
        flux_nodes = np.empty(nx + 1)
        flux_nodes[1:-1] = (dxe + problem.eps * dxz) * dz0_in + rem
        wL = model.kappa * (zL + float(model.response(zL)))
        wR = model.kappa * (zR + float(model.response(zR)))
        flux_nodes[0] = wL / params.sigma1
        flux_nodes[-1] = -wR / params.sigma1
        dflux_c = np.diff(flux_nodes) / grid.hx
        th_top_c = 0.5 * (theta[:-1, -1] + theta[1:, -1])
        rhs -= ops.Ztop.T @ (grid.hx * params.sigma2 * th_top_c * dflux_c)

    sys = sp.bmat([[ops.A_dof, ops.B_dof.T], [ops.B_dof, None]],
                  format="csc")
    rhs_dof = np.concatenate([ops.P.T @ rhs, np.zeros(ops.ncell)])
    sol = problem.saddle_solver.solve(spla, sys, rhs_dof, dt)
    ndof = ops.free.size
    ufull_new = ops.P @ sol[:ndof]
    p_new = sol[ndof:].reshape(nx, grid.ny)

    u1_new, u2_new = ops.split_full(ufull_new)
    zdot = np.asarray(ops.Ztop @ ufull_new).ravel()
    div_res = float(np.max(np.abs(ops.Div @ ufull_new)))

    eta_new = state.eta + dt * zdot
    drift = float(np.sum(eta_new) * grid.hx / (2.0 * grid.ell))
    if problem.recenter:
        eta_new = eta_new - drift

    zeta = grid.zeta0_c + eta_new
    if not (0.0 < np.min(zeta) and np.max(zeta) <= params.big_l):
        raise SpillError("surface range [%g, %g] outside (0, big_l]"
                         % (np.min(zeta), np.max(zeta)))

    dxz_new = ops.Dx @ zdot
    eps_diss = float(params.sigma1 * problem.eps * grid.hx
                     * np.sum(dxz_new ** 2 * ops.inv32_in))
    return state.advanced(u1=u1_new, u2=u2_new, p=p_new, eta=eta_new,
                          zdot=zdot, time=state.time + dt, dt=dt,
                          recenter_log=abs(drift), div_residual=div_res,
                          contact_speeds=(_extrap_end(zdot, 0),
                                          _extrap_end(zdot, 1)),
                          eps_dissipation=eps_diss)


def velocity_at_nodes(state):
    """Interpolate MAC velocities to the node grid (for heat transport)."""
    u1, u2 = state.u1, state.u2
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


def coupled_step(problem, flow, heat_state, dt):
    """Heat then momentum, geometry frozen at the step start."""
    from . import heat as heat_mod
    fields = geometry.build_geometry(problem.grid, flow.eta, flow.zdot)
    u_nodes = velocity_at_nodes(flow)
    heat_new = heat_mod.step_fd(fields, problem.params.k, heat_state, dt,
                                transport=u_nodes,
                                solver=problem.heat_solver)
    flow_new = momentum_step(problem, fields, flow, theta=heat_new.theta,
                             dt=dt)
    return flow_new, heat_new, fields


# ============================================================
# initial data
# ============================================================

def construct_flow_initial_data(problem, eta0, u1_raw=None, u2_raw=None):
    """Project raw velocity data onto the discrete divergence-free space.

    Solves the mass-weighted saddle projection, recenters eta0 to exact
    zero mean and seeds the kinematic speed from the projected field, so
    the t = 0 state satisfies the same discrete constraints the stepper
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
        ops = FlowOperators(fields, problem.params, problem.eps, 1.0)
        ufull = ops.full_vector(u1, u2)
        Mdof = (ops.P.T @ ops.Mmat @ ops.P).tocsr()
        sys = sp.bmat([[Mdof, ops.B_dof.T], [ops.B_dof, None]], format="csc")
        rhs = np.concatenate([ops.P.T @ (ops.mass_diag * ufull),
                              np.zeros(ops.ncell)])
        sol = spla.splu(sys).solve(rhs)
        unew = ops.P @ sol[:ops.free.size]
        u1n, u2n = ops.split_full(unew)
        state = FlowState(u1=u1n, u2=u2n, p=np.zeros((grid.nx, grid.ny)),
                          eta=eta0,
                          zdot=np.asarray(ops.Ztop @ unew).ravel())
    else:
        state.eta = eta0
    return state


def check_compatibility(problem, fields, state):
    """Discrete residuals of the constraints the stepper enforces
    structurally: divergence, wall flux, kinematic trace and zero mean."""
    grid = problem.grid
    ops = FlowOperators(fields, problem.params, problem.eps, 1.0)
    ufull = ops.full_vector(state.u1, state.u2)
    return {
        "div": float(np.max(np.abs(ops.Div @ ufull))),
        "wall_flux": float(max(np.max(np.abs(state.u1[0])),
                               np.max(np.abs(state.u1[-1])))),
        "kinematic": float(np.max(np.abs(
            np.asarray(ops.Ztop @ ufull).ravel() - state.zdot))),
        "mean_eta": abs(float(np.sum(state.eta) * grid.hx)),
    }
