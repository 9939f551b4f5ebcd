"""Norms, energy/dissipation bookkeeping and decay-rate fits.

Surface fractional norms are computed on the even periodic extension of the
top-boundary samples (the same extension the geometry uses), with the
Gagliardo double sum

    [g]_{sigma,q}^q = hx^2 sum_{k != 0} sum_i |g_{i+k} - g_i|^q / d_k^{1+sigma q}

over one period, d_k the wrapped grid distance. For q = 2 the sum is
calibrated by the exact line constant 2 pi / (Gamma(1+2 sigma) sin(pi sigma))
so a pure Fourier mode of circular frequency w carries weight |w|^{2 sigma}
per unit length, matching the Fourier-side H^sigma seminorm; for q != 2 the
raw sum is used (equivalent norm, no canonical constant). Orders s = m +
sigma stack m centered periodic differences before the double sum and add
the L^q masses of the lower derivatives. Working on the extension counts
the interval twice; all consumers are ratios, so the constant factor is
irrelevant, and the oracle tests use the same convention.

Bulk fractional orders use the log-convex interpolation surrogate
||f||_{m+t} = ||f||_m^{1-t} ||f||_{m+1}^t between integer flattened-gradient
norms; integer orders sum reference-rectangle finite differences composed
with the flattening gradient, weighted by the volume Jacobian.

The energy and dissipation reports expose every constituent under a frozen
ASCII key so CSV columns never move between runs.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .flow import FlowState, velocity_at_nodes


# ============================================================
# surface norms
# ============================================================

def gs_calibration(sigma):
    """Line constant making the q=2 double integral match |w|^{2 sigma}."""
    if not 0.0 < sigma < 1.0:
        raise ValueError("sigma must lie in (0, 1)")
    return 2.0 * math.pi / (math.gamma(1.0 + 2.0 * sigma)
                            * math.sin(math.pi * sigma))


def gs_seminorm(samples, hx, sigma, q=2.0):
    """Gagliardo double sum of periodic samples, q-th root applied.

    Calibrated for q = 2 (see module docstring); raw otherwise.
    """
    g = np.asarray(samples, float)
    n = g.size
    k = np.arange(1, n)
    # row k - 1 holds the wrapped differences g[(i + k) mod n] - g[i]
    diff = np.abs(g[(np.arange(n) + k[:, None]) % n] - g)
    d = hx * np.minimum(k, n - k)
    acc = hx * hx * np.sum(np.sum(diff ** q, axis=1) / d ** (1.0 + sigma * q))
    if q == 2.0:
        acc /= gs_calibration(sigma)
    return acc ** (1.0 / q)


def _periodic_diff(g, hx):
    return (np.roll(g, -1) - np.roll(g, 1)) / (2.0 * hx)


def _split_order(s):
    """(m, fraction) of an order s = m + fraction, fraction in [0, 1)."""
    m = int(math.floor(s + 1e-12))
    frac = s - m
    return m, (frac if frac >= 1e-12 else 0.0)


def surface_norm(values, orders, ell):
    """W^{s,q} norms of top-boundary cell samples via the even extension.

    orders: sequence of (s, q); one norm per pair, in the order given. For
    s = m + sigma with integer m >= 0 and sigma in [0, 1): L^q masses of the
    first m centered periodic derivatives, plus the Gagliardo seminorm of
    the m-th derivative when sigma > 0. The derivative chain is taken once
    for all orders, and each distinct q sums its masses once.
    """
    values = np.asarray(values, float)
    g = geometry.extend_surface(values)
    hx = 2.0 * ell / values.size
    splits = [_split_order(s) for s, _ in orders]
    chain = [g]
    for _ in range(max(m for m, _ in splits)):
        chain.append(_periodic_diff(chain[-1], hx))
    # masses[q][j]: L^q mass of derivatives 0..j, summed in order
    masses = {q: np.cumsum([np.sum(np.abs(d) ** q) * hx for d in chain])
              for q in {q for _, q in orders}}
    out = []
    for (m, sigma), (_, q) in zip(splits, orders):
        total = masses[q][m]
        if sigma > 0.0:
            total += gs_seminorm(chain[m], hx, sigma, q) ** q
        out.append(total ** (1.0 / q))
    return out


# ============================================================
# bulk norms
# ============================================================

def _trapezoid(n, h):
    """Trapezoid weights of n + 1 equispaced nodes h apart."""
    w = np.full(n + 1, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _node_weights(fields):
    grid = fields.grid
    return fields.at("nodes")["Jvol"] * np.outer(_trapezoid(grid.nx, grid.hx),
                                                 _trapezoid(grid.ny, grid.hs))


def bulk_norm(fields, f, orders):
    """W^{s,q} norms on the flattened domain; components summed for vectors.

    orders: sequence of (s, q); one norm per pair, in the order given.
    Fractional s interpolates between the neighboring integer norms
    (log-convex surrogate). f: node array, or tuple/stacked array of node
    components. The flattened-derivative stack is built once for all
    orders, and each distinct q sums its masses once.
    """
    grid = fields.grid
    met = fields.at("nodes")
    w = _node_weights(fields)
    splits = [_split_order(s) for s, _ in orders]
    # stack[j]: every flattened derivative component of order j
    stack = [np.asarray(f, float).reshape((-1,) + w.shape)]
    for _ in range(max(m + (t > 0.0) for m, t in splits)):
        layer = geometry.omega_gradient(met, stack[-1], grid.hx, grid.hs)
        stack.append(layer.reshape((-1,) + w.shape))
    masses = {q: np.cumsum([np.sum(np.abs(a) ** q * w) for a in stack])
              for q in {q for _, q in orders}}
    out = []
    for (m, t), (_, q) in zip(splits, orders):
        norm = masses[q][m] ** (1.0 / q)
        if t > 0.0:
            hi = masses[q][m + 1] ** (1.0 / q)
            norm = (0.0 if norm == 0.0 or hi == 0.0
                    else norm ** (1.0 - t) * hi ** t)
        out.append(norm)
    return out


def trace_norm_slip(fields, u):
    """L^2 norm of stacked node components u (2, nx+1, ny+1) on bottom and
    walls (physical arc measure: the walls carry their rest column
    heights)."""
    grid = fields.grid
    wb, ww = _trapezoid(grid.nx, grid.hx), _trapezoid(grid.ny, grid.hs)
    hl, hr = grid.depth + grid.zeta0_f[0], grid.depth + grid.zeta0_f[-1]
    sq = np.asarray(u, float) ** 2
    return math.sqrt(np.sum(sq[:, :, 0] * wb) + hl * np.sum(sq[:, 0] * ww)
                     + hr * np.sum(sq[:, -1] * ww))


def trace_norm_surface(fields, g):
    """L^2 norm of node data on the top boundary, weighted by |N|."""
    w = _trapezoid(fields.grid.nx, fields.grid.hx)
    return math.sqrt(np.sum(np.asarray(g, float) ** 2
                            * fields.surface()["abs_n"] * w))


def bracket_term(kappa, values):
    """kappa-weighted squared endpoint bracket of top cell-center data."""
    left, right = geometry.to_nodes(values, 0)[[0, -1]]
    return kappa * (left * left + right * right)


# ============================================================
# energy / dissipation reports
# ============================================================

ENERGY_KEYS = (
    "E_u_W2qp", "E_dtu_Hfrac", "E_u_L2", "E_dtu_L2", "E_d2u_L2",
    "E_p_W1qp", "E_dtp_L2",
    "E_eta_W3qp", "E_dteta_Hhi", "E_eta_H1", "E_dteta_H1", "E_d2eta_H1",
    "E_th_W2qp", "E_dtth_Hfrac", "E_th_L2", "E_dtth_L2", "E_d2th_L2",
)

DISS_KEYS = (
    "D_u_W2qp", "D_dtu_W2qm",
    "D_u_H1", "D_dtu_H1", "D_d2u_H1",
    "D_u_L2slip", "D_dtu_L2slip", "D_d2u_L2slip",
    "D_p_W1qp", "D_dtp_W1qm",
    "D_eta_W3qp", "D_dteta_W3qm",
    "D_eta_Hma", "D_dteta_Hma", "D_d2eta_Hma",
    "D_br_dteta", "D_br_d2eta", "D_br_d3eta",
    "D_d3eta_Hlo",
    "D_th_W2qp", "D_dtth_W2qm",
    "D_th_H1", "D_dtth_H1", "D_d2th_H1",
    "D_th_L2srf", "D_dtth_L2srf", "D_d2th_L2srf",
)

EPS_ENERGY_KEYS = ("Eeps_dteta_W3qp", "Eeps_eta_Hma", "Eeps_dteta_Hma",
                   "Eeps_d2eta_Hma")
EPS_DISS_KEYS = ("Deps_dteta_W3qp", "Deps_d2eta_W3qm", "Deps_eta_H1",
                 "Deps_dteta_H1", "Deps_d2eta_H1")

ALL_KEYS = ENERGY_KEYS + DISS_KEYS + EPS_ENERGY_KEYS + EPS_DISS_KEYS

SERIES_COLUMNS = ("t", "E_total", "D_total", "E_eps", "D_eps") \
    + tuple(sorted(ALL_KEYS))


@dataclass
class EnergyReport:
    time: float
    terms: dict

    @property
    def energy(self):
        return sum(self.terms[k] for k in ENERGY_KEYS)

    @property
    def dissipation(self):
        return sum(self.terms[k] for k in DISS_KEYS)

    @property
    def energy_eps(self):
        return self.energy + sum(self.terms[k] for k in EPS_ENERGY_KEYS)

    @property
    def dissipation_eps(self):
        return self.dissipation + sum(self.terms[k] for k in EPS_DISS_KEYS)

    def row(self):
        vals = {"t": self.time, "E_total": self.energy,
                "D_total": self.dissipation, "E_eps": self.energy_eps,
                "D_eps": self.dissipation_eps}
        vals.update(self.terms)
        return [vals[c] for c in SERIES_COLUMNS]


def energy_report(problem, fields, flow, heat_state=None):
    """Full energy/dissipation constituent table for one time level.

    Time derivatives come from the state histories by backward differences;
    entries whose history is too short report zero. eta lives at top cell
    centers, everything else at nodes. Each field's norms come from one
    call; a field that is absent (no heat state) or all zero has zero norms
    of every order and is neither interpolated to the nodes nor measured:
    a conduction-only run's resting flow costs no work.
    """
    params = problem.params
    ell = problem.grid.ell
    exps = problem.exps
    qp, qm, al = exps.q_plus, exps.q_minus, exps.alpha
    em = exps.eps_minus
    eps = problem.eps

    def top_trace(f, _):
        return [trace_norm_surface(fields, f[:, -1])]

    def at_nodes(interpolate, *data):
        """interpolate(*data), or None (a zero field) for all-zero data."""
        return interpolate(*data) if any(map(np.any, data)) else None

    un = at_nodes(velocity_at_nodes, flow.u1, flow.u2)
    dun = at_nodes(velocity_at_nodes, flow.dt_field("u1"),
                   flow.dt_field("u2"))
    d2un = at_nodes(velocity_at_nodes, flow.d2t_field("u1"),
                    flow.d2t_field("u2"))
    pn = at_nodes(_cells_to_nodes, flow.p)
    dpn = at_nodes(_cells_to_nodes, flow.dt_field("p"))
    eta, deta = flow.eta, flow.zdot
    d2eta = flow.dt_field("zdot")
    d3eta = flow.d2t_field("zdot")   # backward difference of speeds: O(dt)
    th = dth = d2th = None
    if heat_state is not None:
        th = heat_state.theta
        dth = heat_state.dt_field("theta")
        d2th = heat_state.d2t_field("theta")

    # (norms, field, {key: (s, q)}): each key gets the squared norm of one
    # order; the Eeps/Deps keys get raw squares, scaled by eps below
    bulk = functools.partial(bulk_norm, fields)
    surface = functools.partial(surface_norm, ell=ell)
    L2, H1, Hma = (0, 2.0), (1, 2.0), (1.5 - al, 2.0)
    Hfrac = (1.0 + em / 2.0, 2.0)
    W3qp, W3qm = (3.0 - 1.0 / qp, qp), (3.0 - 1.0 / qm, qm)
    measured = (
        (bulk, un, {"E_u_W2qp": (2, qp), "E_u_L2": L2, "D_u_H1": H1}),
        (bulk, dun, {"E_dtu_Hfrac": Hfrac, "E_dtu_L2": L2,
                     "D_dtu_W2qm": (2, qm), "D_dtu_H1": H1}),
        (bulk, d2un, {"E_d2u_L2": L2, "D_d2u_H1": H1}),
        (bulk, pn, {"E_p_W1qp": (1, qp)}),
        (bulk, dpn, {"E_dtp_L2": L2, "D_dtp_W1qm": (1, qm)}),
        (bulk, th, {"E_th_W2qp": (2, qp), "E_th_L2": L2, "D_th_H1": H1}),
        (bulk, dth, {"E_dtth_Hfrac": Hfrac, "E_dtth_L2": L2,
                     "D_dtth_W2qm": (2, qm), "D_dtth_H1": H1}),
        (bulk, d2th, {"E_d2th_L2": L2, "D_d2th_H1": H1}),
        (surface, eta, {"E_eta_W3qp": W3qp, "E_eta_H1": H1,
                        "D_eta_Hma": Hma}),
        (surface, deta, {"E_dteta_Hhi": (1.5 + (em - al) / 2.0, 2.0),
                         "E_dteta_H1": H1, "D_dteta_W3qm": W3qm,
                         "D_dteta_Hma": Hma, "Eeps_dteta_W3qp": W3qp}),
        (surface, d2eta, {"E_d2eta_H1": H1, "D_d2eta_Hma": Hma,
                          "Deps_d2eta_W3qm": W3qm}),
        (surface, d3eta, {"D_d3eta_Hlo": (0.5 - al, 2.0)}),
        (top_trace, th, {"D_th_L2srf": None}),
        (top_trace, dth, {"D_dtth_L2srf": None}),
        (top_trace, d2th, {"D_d2th_L2srf": None}),
    )
    t = {}
    for norms, f, orders in measured:
        if f is None or not np.any(f):
            t.update(dict.fromkeys(orders, 0.0))
        else:
            t.update(zip(orders, (n ** 2 for n in
                                  norms(f, list(orders.values())))))

    t["D_u_W2qp"] = t["E_u_W2qp"]
    t["D_p_W1qp"] = t["E_p_W1qp"]
    t["D_eta_W3qp"] = t["E_eta_W3qp"]
    t["D_th_W2qp"] = t["E_th_W2qp"]
    for key, f in (("D_u_L2slip", un), ("D_dtu_L2slip", dun),
                   ("D_d2u_L2slip", d2un)):
        t[key] = 0.0 if f is None else trace_norm_slip(fields, f) ** 2
    t["D_br_dteta"] = bracket_term(params.kappa, deta)
    t["D_br_d2eta"] = bracket_term(params.kappa, d2eta)
    t["D_br_d3eta"] = bracket_term(params.kappa, d3eta)

    t["Eeps_dteta_W3qp"] *= eps * eps
    t["Eeps_eta_Hma"] = eps * t["D_eta_Hma"]
    t["Eeps_dteta_Hma"] = eps * t["D_dteta_Hma"]
    t["Eeps_d2eta_Hma"] = eps * t["D_d2eta_Hma"]
    t["Deps_dteta_W3qp"] = t["Eeps_dteta_W3qp"]
    t["Deps_d2eta_W3qm"] *= eps * eps
    t["Deps_eta_H1"] = eps * t["E_eta_H1"]
    t["Deps_dteta_H1"] = eps * t["E_dteta_H1"]
    t["Deps_d2eta_H1"] = eps * t["E_d2eta_H1"]

    when = flow.time
    if heat_state is not None and heat_state.time > when:
        when = heat_state.time  # conduction-only runs keep the flow frozen
    return EnergyReport(time=when, terms=t)


def _cells_to_nodes(c):
    """Bilinear cell-to-node interpolation with linear boundary extension."""
    return geometry.to_nodes(geometry.to_nodes(c, 0), 1)


# ============================================================
# decay fits and bookkeeping
# ============================================================

@dataclass
class DecayFit:
    lam: float          # fitted rate: values ~ exp(-lam t)
    log_c: float
    r2: float
    n_used: int


def fit_decay(times, values, skip=0):
    """Least-squares exponential fit of a positive decaying series."""
    times = np.asarray(times, float)[skip:]
    values = np.asarray(values, float)[skip:]
    keep = values > 0.0
    times, values = times[keep], np.log(values[keep])
    if times.size < 3:
        return DecayFit(lam=math.nan, log_c=math.nan, r2=0.0,
                        n_used=int(times.size))
    A = np.stack([times, np.ones_like(times)], axis=1)
    coef, *_ = np.linalg.lstsq(A, values, rcond=None)
    fitted = A @ coef
    ss_res = float(np.sum((values - fitted) ** 2))
    ss_tot = float(np.sum((values - values.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DecayFit(lam=-float(coef[0]), log_c=float(coef[1]), r2=r2,
                    n_used=int(times.size))


def cumulative_bound(times, energies, dissipations):
    """sup_t (E(t) + int_0^t D) / E(0), trapezoidal in time."""
    times = np.asarray(times, float)
    E = np.asarray(energies, float)
    D = np.asarray(dissipations, float)
    cum = np.concatenate([[0.0], np.cumsum(
        0.5 * (D[1:] + D[:-1]) * np.diff(times))])
    if E[0] <= 0.0:
        return math.inf
    return float(np.max((E + cum) / E[0]))


def flow_difference(a, b):
    """Componentwise difference of two flow states, histories paired."""
    lev = [flow_difference(x, y) for x, y in zip(a.levels, b.levels)]
    out = FlowState(u1=a.u1 - b.u1, u2=a.u2 - b.u2, p=a.p - b.p,
                    eta=a.eta - b.eta, zdot=a.zdot - b.zdot,
                    time=a.time, dt=a.dt)
    out.levels = lev
    return out
