"""Flattening map, separable surface extension and geometric operator fields.

The moving domain under x2 = zeta0(x1) + eta(t, x1) is pulled back to the
fixed equilibrium domain by

    Phi(x) = (x1, x2 + (phi(x2)/zeta0(x1)) * etabar(x))

where etabar is a bounded smooth bulk extension of eta and phi is a quintic
smoothstep cutoff: phi = 0 below (1/4) min zeta0, phi(z) = z above
(1/2) min zeta0, so the map is the identity near the bottom and walls below
the cutoff band and matches the full surface displacement at x2 = zeta0.

The extension is one real cosine series. eta on (-ell, ell) reflected
evenly about both walls is a period-4ell function of x1 + ell (cell-center
samples make the reflection seamless), so its nx cell samples carry nx
cosine modes w_k = k pi/(2 ell), with the DCT-II of the samples as
coefficients. Each mode is extended downward with the decay factor
exp(w_k Hbar (s - 1)), s the reference height and Hbar = depth + zeta0(0)
one column height. This separable extension is exact at the surface and
bounded; where zeta0 is constant it is harmonic.

With W = phi/zeta0,

    A = W d1(etabar) - (phi/zeta0^2) zeta0' etabar
    J = 1 + (phi'/zeta0) etabar + W d2(etabar),      K = 1/J
    calA = [[1, -A K], [0, K]]

and the Piola identity d_j(J calA_ij) = 0 holds row-wise (row 2 exactly,
row 1 because d1 J = d2 A analytically).

For assembly everything is composed with the equilibrium flattening of the
rest domain onto the reference rectangle [-ell, ell] x [0, 1]:
x2 = -depth + s H(x1), H = depth + zeta0. The chain matrix is
B = [[1, -s zeta0'/H], [0, 1/H]], the effective cofactor matrix
c = calA B = [[1, c12], [0, c22]] stays upper triangular, and the composed
volume weight is Jvol = J H. Flux components Z = Jvol c^T X satisfy
(Jvol) div_calA X = div_ref Z with the exact endpoint values

    Z1 = Jvol X1 (wall flux, vanishes with X1),
    Z2|s=1 = X . N  (N = (-d1 zeta, 1), the kinematic flux),
    Z2|s=0 = X2 (bottom flux),

which is what makes discrete volume bookkeeping telescope exactly.

Velocity and temperature are carried by the same operator,
dt(etabar) W K d2 f - u . grad_calA f, and transport_source is its one
discrete form: flow and heat both take their explicit transport from it.
"""

import functools
from dataclasses import dataclass, field

import numpy as np


# ============================================================
# cutoff profile and surface reflection
# ============================================================

def phi_cutoff(x2, zmin):
    """Quintic-smoothstep vertical cutoff; returns (phi, phi')."""
    x2 = np.asarray(x2, float)
    a, b = 0.25 * zmin, 0.5 * zmin
    t = np.clip((x2 - a) / (b - a), 0.0, 1.0)
    s = t * t * t * (10.0 + t * (-15.0 + 6.0 * t))
    ds = 30.0 * t * t * (1.0 - t) ** 2 / (b - a)
    phi = x2 * s
    dphi = s + x2 * ds
    # below the band both vanish identically
    return np.where(x2 <= a, 0.0, phi), np.where(x2 <= a, 0.0, dphi)


def extend_surface(eta):
    """Even periodic extension of cell-center surface samples.

    eta holds nx samples at x = -ell + (i + 1/2) hx. The even reflection
    about +ell is the reversed array, giving 2 nx samples of a period-4ell
    function; the center staggering makes the reflection about -ell implicit
    in the periodicity.
    """
    eta = np.asarray(eta, float)
    return np.concatenate([eta, eta[::-1]])


# ============================================================
# separable mode extension
# ============================================================

@functools.cache
def _dct_table(n):
    """(2/n) cos(w_k (x_j + ell)), (j, k) over n cell centers and n modes,
    read-only: the DCT-II matrix of _ModeSampler, built once per n."""
    k = np.arange(n)
    # w_k (x_j + ell) = (2j + 1) k pi/(2n), reduced mod 2 pi exactly
    dct = np.cos(np.outer(2 * k + 1, k) % (4 * n) * (np.pi / (2 * n)))
    table = dct * (2.0 / n)
    table.flags.writeable = False
    return table


class _ModeSampler:
    """Evaluates the cosine-series extension of stacked surface rows.

    rows (r, n) holds r surface fields at the n cell centers. Row i extends
    to sum_k a_ik cos(w_k (x1 + ell)) exp(w_k d) at depth offset d <= 0
    below the surface, with w_k = k pi/(2 ell), k < n, and the DCT-II
    coefficients a_ik = (2/n) sum_j rows_ij cos(w_k (x_j + ell)), a_i0
    halved. The even reflection's Nyquist mode vanishes at the cell
    centers, so these n modes are the whole extension.
    """

    def __init__(self, rows, ell):
        rows = np.atleast_2d(np.asarray(rows, float))
        n = rows.shape[1]
        self.ell = ell
        self.w = np.arange(n) * (np.pi / (2.0 * ell))
        self.coef = rows @ _dct_table(n)
        self.coef[:, 0] *= 0.5

    def sample_triple(self, x1, depth):
        """On the tensor grid x1 (n1,) x depth (ns,): the value of every
        row, (r, n1, ns), and d/dx1 and d/d depth of row 0, each (n1, ns).

        One (modes, ns) decay table serves all three, so they take r + 2
        (n1, modes) @ (modes, ns) products. Only row 0, etabar, needs its
        derivatives.
        """
        arg = np.multiply.outer(np.asarray(x1, float) + self.ell, self.w)
        cos, sin = np.cos(arg), np.sin(arg)
        ed = np.exp(np.multiply.outer(self.w, np.asarray(depth, float)))
        c0 = self.coef[0]
        return ((self.coef[:, None, :] * cos) @ ed,
                (c0 * (sin * -self.w)) @ ed,
                (c0 * (cos * self.w)) @ ed)


# ============================================================
# reference grid
# ============================================================

@dataclass
class Grid:
    """MAC staggering on the reference rectangle [-ell, ell] x [0, 1].

    Pressure and temperature-forcing cells are (nx, ny); horizontal velocity
    lives on x faces (nx+1, ny), vertical velocity on y faces (nx, ny+1),
    nodal scalars on (nx+1, ny+1). The top row s = 1 is the free surface,
    s = 0 the bottom, x = +-ell the walls.
    """
    nx: int
    ny: int
    ell: float
    depth: float
    zeta0_fn: object = field(repr=False)
    dzeta0_fn: object = field(repr=False)
    # structures built once per grid, such as the heat assembly pattern
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        self.hx = 2.0 * self.ell / self.nx
        self.hs = 1.0 / self.ny
        self.xf = np.linspace(-self.ell, self.ell, self.nx + 1)
        self.xc = 0.5 * (self.xf[1:] + self.xf[:-1])
        self.sf = np.linspace(0.0, 1.0, self.ny + 1)
        self.sc = 0.5 * (self.sf[1:] + self.sf[:-1])
        self.zeta0_c = np.asarray(self.zeta0_fn(self.xc), float)
        self.zeta0_f = np.asarray(self.zeta0_fn(self.xf), float)
        self.dzeta0_f = np.asarray(self.dzeta0_fn(self.xf), float)
        self.zmin = float(min(self.zeta0_c.min(), self.zeta0_f.min()))
        self.hbar = self.depth + float(self.zeta0_fn(0.0))  # H when flat
        if self.zmin <= 0:
            raise ValueError("rest surface must stay above the bottom corner")


def make_grid(surface, nx, ny, depth):
    zfn, dfn = surface.interpolators()
    return Grid(nx=nx, ny=ny, ell=surface.ell, depth=depth,
                zeta0_fn=zfn, dzeta0_fn=dfn)


# ============================================================
# geometry fields
# ============================================================

_STAGGER = {
    "nodes": ("xf", "sf"),
    "centers": ("xc", "sc"),
    "xfaces": ("xf", "sc"),
    "yfaces": ("xc", "sf"),
}


class GeometryFields:
    """All metric fields of the flattening map for one (eta, d/dt eta) pair.

    One _ModeSampler holds both as stacked rows: row 0 gives etabar and its
    derivatives, row 1 the mesh velocity d/dt etabar. Fields on each
    staggering come from at(where) and nodal surface traces from surface();
    both are sampled on first use and cached. Arrays are laid out
    (n_x1, n_s).
    """

    def __init__(self, grid, eta, deta_dt=None):
        self.grid = grid
        self.eta = np.asarray(eta, float)
        if self.eta.size != grid.nx:
            raise ValueError("eta must hold nx cell-center samples")
        self.deta_dt = (np.zeros(grid.nx) if deta_dt is None
                        else np.asarray(deta_dt, float))
        self._samp = _ModeSampler([self.eta, self.deta_dt], grid.ell)
        self._cache = {}

    # -------------------- sampling --------------------

    def sample_metric(self, x1, s):
        """Metric dictionary on the tensor grid x1 (n1,) x s (ns,)."""
        g = self.grid
        x1 = np.asarray(x1, float)
        s = np.asarray(s, float)
        z0 = np.asarray(g.zeta0_fn(x1), float)
        dz0 = np.asarray(g.dzeta0_fn(x1), float)
        H = g.depth + z0
        x2 = -g.depth + np.multiply.outer(H, s)
        phi, dphi = phi_cutoff(x2, g.zmin)
        W = phi / z0[:, None]

        out = {"x1": x1, "s": s, "zeta0": z0, "dzeta0": dz0, "H": H,
               "x2": x2, "phi": phi, "dphi": dphi, "W": W,
               "invH": 1.0 / H, "b": -np.multiply.outer(dz0 / H, s)}

        # etabar = F(x1, Hbar (s - 1)) with s = (x2 + depth)/H(x1), so at
        # fixed x2: d2 = F_depth Hbar/H and d1 = F_x1 - s zeta0' d2
        depth_off = g.hbar * (s - 1.0)
        value, dx1, dd = self._samp.sample_triple(x1, depth_off)
        eb = value[0]
        d2 = dd * (g.hbar / H)[:, None]
        d1 = dx1 - s * dz0[:, None] * d2
        A = W * d1 - (phi * (dz0 / z0 ** 2)[:, None]) * eb
        J = 1.0 + ((dphi / z0[:, None]) * eb + W * d2)
        K = 1.0 / J
        out.update(eta_bar=eb, A=A, J=J, K=K)
        # d/dt etabar carries the mesh motion of the transport terms
        out["dt_eta_bar"] = value[1]
        out["c12"] = out["b"] - A * K / H[:, None]
        out["c22"] = K / H[:, None]
        out["Jvol"] = J * H[:, None]
        return out

    def at(self, where):
        if where not in self._cache:
            g = self.grid
            xname, sname = _STAGGER[where]
            self._cache[where] = self.sample_metric(getattr(g, xname),
                                                    getattr(g, sname))
        return self._cache[where]

    def surface_metric(self, x1):
        """Surface traces at stations x1: d1 eta (exact tangential
        derivative of the trace), the slope d1 zeta and |N| of the normal
        N = (-d1 zeta, 1)."""
        x1 = np.asarray(x1, float)
        dz0 = np.asarray(self.grid.dzeta0_fn(x1), float)
        d1_eta = self._samp.sample_triple(x1, [0.0])[1][:, 0]
        slope = dz0 + d1_eta
        return {"x1": x1, "dzeta0": dz0, "d1_eta": d1_eta, "slope": slope,
                "abs_n": np.sqrt(1.0 + slope ** 2)}

    def surface(self):
        if "surface" not in self._cache:
            self._cache["surface"] = self.surface_metric(self.grid.xf)
        return self._cache["surface"]


def build_geometry(grid, eta, deta_dt=None):
    return GeometryFields(grid, eta, deta_dt)


# ============================================================
# collocated differential operators
# ============================================================

def ref_gradient(f, hx, hs):
    """(d/dx1, d/ds) by centered differences, one-sided 2nd order at edges.

    f: node array, or a stack of them along leading axes.
    """
    return (np.gradient(f, hx, axis=-2, edge_order=2),
            np.gradient(f, hs, axis=-1, edge_order=2))


def omega_gradient(met, f, hx, hs):
    """Physical-domain gradient through the reference chain B."""
    gx, gs = ref_gradient(f, hx, hs)
    return np.array([gx + met["b"] * gs, met["invH"][:, None] * gs])


def transport_source(met, f, u, hx, hs):
    """Explicit transport of f on one staggering: the mesh motion
    dt(etabar) W K d2 f minus the advection u . grad_calA f.

    met is the metric on f's own samples and u = (u1, u2) the velocity
    there. In the reference frame d2 = (1/H) d/ds and grad_calA f =
    (d/dx1 f + c12 d/ds f, c22 d/ds f), so the cofactors c12 and c22 of met
    serve as they are.
    """
    gx, gs = ref_gradient(f, hx, hs)
    return (met["dt_eta_bar"] * met["W"] * met["K"] * met["invH"][:, None] * gs
            - (u[0] * (gx + met["c12"] * gs) + u[1] * (met["c22"] * gs)))


def to_nodes(a, axis):
    """Samples between nodes (cells or faces) along axis to the nodes:
    neighbour means inside, the linear extrapolation 1.5 a0 - 0.5 a1 at
    each end."""
    a = np.moveaxis(np.asarray(a, float), axis, 0)
    out = np.concatenate([1.5 * a[:1] - 0.5 * a[1:2], 0.5 * (a[:-1] + a[1:]),
                          1.5 * a[-1:] - 0.5 * a[-2:-1]])
    return np.moveaxis(out, 0, axis)


def piola_residual(fields):
    """max |d_j (J calA_ij)| over node samples.

    Row 2 is J K = 1 identically; row 1 tests the discrete derivative
    operators against the exact identity d1 J = d2 A and should shrink at
    second order under grid refinement.
    """
    met = fields.at("nodes")
    hx, hs = fields.grid.hx, fields.grid.hs
    r1 = (omega_gradient(met, met["J"], hx, hs)[0]
          + omega_gradient(met, -met["A"], hx, hs)[1])
    r2 = omega_gradient(met, met["J"] * met["K"], hx, hs)[1]
    return float(max(np.max(np.abs(r1)), np.max(np.abs(r2))))
