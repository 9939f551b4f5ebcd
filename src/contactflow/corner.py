"""Corner singularity bookkeeping: angular spectra and Sobolev-growth probes.

Near a contact point the stationary problem reduces, in polar coordinates
centered at the corner of opening omega, to the angular eigenproblem

    v'' + lambda^2 v = 0   on the angular arc,
    v = 0   on the fluid-surface side (Dirichlet),
    v' = 0  on the rigid side (Neumann, "mixed"), or v = 0 (pure Dirichlet).

Mixed eigenvalues are (2n+1) pi / (2 omega), pure-Dirichlet ones n pi/omega;
both spectra are computed here by RK4 shooting, not from the closed forms, so
the closed forms stay available as independent cross-checks. The pencil and
its lambda-derivative form a linear system with constant coefficients, so an
RK4 step is one 4x4 step matrix and a shot is a matrix power. The smallest
eigenvalue gamma sets the integrability threshold of second derivatives,

    q_star = 2/(2 - gamma)  (capped at 2 once gamma >= 1):

solutions lie in W^{2,q} for q < q_star and generically not beyond. The
wedge probe solves an actual mixed Poisson problem on a truncated wedge with
smooth data and measures the discrete L^q norm of the Hessian under grid
refinement: bounded for q below the threshold, visibly growing above it.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


@dataclass
class PencilSpectrum:
    omega: float
    boundary: str             # "mixed" or "dirichlet"
    eigenvalues: np.ndarray   # ascending
    residuals: np.ndarray     # shooting endpoint residuals


# ============================================================
# angular eigenvalues by shooting
# ============================================================

def _shoot_end(lams, omega, nsteps, boundary):
    """RK4-integrate v'' = -lam^2 v with v(0)=0, v'(0)=1 across (0, omega),
    vectorized over lams. Returns the endpoint residual (v' for mixed, v for
    Dirichlet) and its derivative in lambda.

    The state y = (v, v', dv/dlam, dv'/dlam) obeys y' = M y with constant
    M; the lambda pair carries the extra -2 lam v source. One RK4 step of a
    linear constant-coefficient system is exactly y -> P y with
    P = I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24, so nsteps steps are P^nsteps.
    """
    lams = np.asarray(lams, float)
    h = omega / nsteps
    hm = np.zeros(lams.shape + (4, 4))
    hm[..., 0, 1] = hm[..., 2, 3] = h
    hm[..., 1, 0] = hm[..., 3, 2] = -h * lams * lams
    hm[..., 3, 0] = -2.0 * h * lams
    step = np.eye(4)
    for k in (4, 3, 2, 1):                  # Horner's rule for P
        step = np.eye(4) + hm @ step / k
    # y(0) = (0, 1, 0, 0) picks column 1 of P^nsteps
    end = np.linalg.matrix_power(step, nsteps)[..., :, 1]
    i = 1 if boundary == "mixed" else 0
    return end[..., i], end[..., i + 2]


def angular_eigenvalues(omega, count=6, boundary="mixed"):
    """First `count` eigenvalues of the angular pencil by shooting.

    Every shot raises the RK4 step matrix of `_shoot_end`, one per lambda,
    to the step count, and reads the endpoint residual and its lambda
    derivative off the result. A coarse scan at 600 steps brackets sign
    changes of the residual, 25 bisections tighten them, and 5 Newton steps
    converge the residual to roundoff at a step count chosen so the RK4
    phase error stays below ~1e-10 in lambda.
    """
    if boundary not in ("mixed", "dirichlet"):
        raise ValueError("boundary must be 'mixed' or 'dirichlet'")
    if not 0.0 < omega < math.pi:
        raise ValueError("omega must lie in (0, pi)")

    # enough headroom for `count` roots of either spectrum
    lam_hi = (2.0 * count + 2.0) * math.pi / (2.0 * omega)
    n_coarse = 600
    step = math.pi / (8.0 * omega)
    grid = np.arange(1e-6, lam_hi + step, step)
    res = _shoot_end(grid, omega, n_coarse, boundary)[0]
    flip = np.nonzero(np.sign(res[:-1]) * np.sign(res[1:]) < 0)[0][:count]
    if flip.size < count:
        raise RuntimeError("scan found only %d roots" % flip.size)
    lo, hi = grid[flip].copy(), grid[flip + 1].copy()
    flo = res[flip].copy()
    for _ in range(25):
        mid = 0.5 * (lo + hi)
        fm = _shoot_end(mid, omega, n_coarse, boundary)[0]
        left = np.sign(fm) == np.sign(flo)
        lo = np.where(left, mid, lo)
        flo = np.where(left, fm, flo)
        hi = np.where(left, hi, mid)

    lam = 0.5 * (lo + hi)
    # RK4 phase drift per unit length ~ lam^5 h^4 / 120; pick nsteps so the
    # eigenvalue shift stays ~1e-10
    lam_max = float(np.max(lam))
    n_fine = max(800, int(omega * (lam_max ** 5 / (120.0 * 1e-10)) ** 0.25) + 1)
    for _ in range(5):
        f, df = _shoot_end(lam, omega, n_fine, boundary)
        lam = lam - f / df
    resid = _shoot_end(lam, omega, n_fine, boundary)[0]
    order = np.argsort(lam)
    return PencilSpectrum(omega=omega, boundary=boundary,
                          eigenvalues=lam[order], residuals=resid[order])


def regularity_threshold(spectrum):
    """q_star = 2/(2 - gamma) from the smallest eigenvalue, capped at 2."""
    gamma = float(spectrum.eigenvalues[0])
    if gamma >= 1.0:
        return 2.0
    return 2.0 / (2.0 - gamma)


# ============================================================
# wedge Poisson probe
# ============================================================

@dataclass
class WedgeProbeReport:
    omega: float
    q: float
    n_list: list
    norms: list
    growth_rate: float      # d log(norm) / d log(n); positive = divergence
    verdict: str            # "bounded" / "divergent" / "inconclusive"


WEDGE_RADIUS = 2.0     # outer radius of the truncated wedge


def _bump_source(r, r0=0.9):
    out = np.zeros_like(r)
    inside = r < r0
    t = (r[inside] / r0) ** 2
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - t))
    return out


def _wedge_solve(omega, n):
    """Mixed Poisson solve on the truncated wedge, polar FD, graded radius.

    r_i = WEDGE_RADIUS (i/n)^2 concentrates nodes at the vertex where the
    singular mode lives. Dirichlet on rho = 0, the outer arc and the vertex;
    Neumann (mirror ghost) on rho = omega.
    """
    nr = na = n
    r = WEDGE_RADIUS * (np.arange(nr + 1) / nr) ** 2
    drho = omega / na
    # interior radial index 1..nr-1, angular 1..na (na is the Neumann edge)
    ii, jj = np.meshgrid(np.arange(1, nr), np.arange(1, na + 1), indexing="ij")
    idx = (ii - 1) * na + (jj - 1)
    nunk = (nr - 1) * na

    rp = 0.5 * (r[ii] + r[ii + 1])
    rm = 0.5 * (r[ii] + r[ii - 1])
    drp = r[ii + 1] - r[ii]
    drm = r[ii] - r[ii - 1]
    dri = 0.5 * (r[ii + 1] - r[ii - 1])

    cp = rp / (drp * dri * r[ii])          # couples to (i+1, j)
    cm = rm / (drm * dri * r[ii])          # couples to (i-1, j)
    ca = 1.0 / (r[ii] * drho) ** 2         # couples to (i, j +- 1)

    rows, cols, vals = [], [], []

    def add(rw, cl, vl):
        rows.append(rw.ravel())
        cols.append(cl.ravel())
        vals.append(vl.ravel())

    # diagonal: angular part doubles nothing at the Neumann edge; the mirror
    # ghost theta_{na+1} = theta_{na-1} doubles the lower coupling instead
    add(idx, idx, cp + cm + 2.0 * ca)
    m = ii < nr - 1
    add(idx[m], idx[m] + na, -cp[m])
    m = ii > 1
    add(idx[m], idx[m] - na, -cm[m])
    m = jj < na
    add(idx[m], idx[m] + 1, -ca[m])
    m = jj > 1
    add(idx[m], idx[m] - 1, -ca[m])
    m = jj == na                            # mirror ghost doubles (i, na-1)
    add(idx[m], idx[m] - 1, -ca[m])

    lap = sp.csr_matrix((np.concatenate(vals),
                         (np.concatenate(rows), np.concatenate(cols))),
                        shape=(nunk, nunk))
    rhs = np.broadcast_to(_bump_source(r[1:nr])[:, None], (nr - 1, na)).ravel()
    theta = spla.spsolve(lap, rhs.copy())
    return r, drho, theta.reshape(nr - 1, na)


def _hessian_lq(r, drho, th, qs):
    """Discrete L^q norms of the Cartesian Hessian from polar derivatives,
    one per q in qs."""
    nr = r.size - 1
    na = th.shape[1]
    # pad with boundary values: rho=0 Dirichlet zero, Neumann mirror at top,
    # zero at vertex ring and outer arc
    full = np.zeros((nr + 1, na + 2))
    full[1:nr, 1:na + 1] = th
    full[:, na + 1] = full[:, na - 1]      # Neumann mirror ghost

    ri = r[1:nr]
    drp = (r[2:] - r[1:-1])[:, None]
    drm = (r[1:-1] - r[:-2])[:, None]
    up = full[2:, 1:na + 1]
    u0 = full[1:nr, 1:na + 1]
    um = full[0:nr - 1, 1:na + 1]
    th_r = (drm / (drp * (drm + drp))) * up \
        + ((drp - drm) / (drp * drm)) * u0 \
        - (drp / (drm * (drm + drp))) * um
    th_rr = 2.0 * (drm * up - (drp + drm) * u0 + drp * um) \
        / (drp * drm * (drp + drm))
    th_a = (full[1:nr, 2:] - full[1:nr, :na]) / (2.0 * drho)
    th_aa = (full[1:nr, 2:] - 2.0 * u0 + full[1:nr, :na]) / drho ** 2

    # mixed derivative of the angular slope needs th_a at radial neighbors
    th_a_full = (full[:, 2:] - full[:, :na]) / (2.0 * drho)
    ta_p = th_a_full[2:, :]
    ta_0 = th_a_full[1:nr, :]
    ta_m = th_a_full[0:nr - 1, :]
    ta_r = (drm / (drp * (drm + drp))) * ta_p \
        + ((drp - drm) / (drp * drm)) * ta_0 \
        - (drp / (drm * (drm + drp))) * ta_m

    rcol = ri[:, None]
    H_rr = th_rr
    H_ra = ta_r / rcol - th_a / rcol ** 2
    H_aa = th_aa / rcol ** 2 + th_r / rcol
    mag2 = H_rr ** 2 + 2.0 * H_ra ** 2 + H_aa ** 2

    dri = 0.5 * (r[2:] - r[:-2])[:, None]
    w = rcol * dri * drho
    return [float(np.sum(mag2 ** (q / 2.0) * w) ** (1.0 / q)) for q in qs]


def wedge_poisson_probe(omega, qs, n, refine=(1.0, 1.5, 2.0, 3.0)):
    """Refinement study of ||Hessian||_{L^q} for the mixed wedge problem,
    one WedgeProbeReport per q in qs.

    The wedge solution does not depend on q, so each geometrically refined
    graded grid is solved once and its Hessian measured in every L^q norm.
    A report holds the sequence of discrete norms, the log-log growth rate
    against n and a bounded/divergent verdict (thresholds 0.05 and 0.1 on
    the rate).
    """
    ns, norms = [], []
    for fac in refine:
        ni = int(round(n * fac))
        r, drho, th = _wedge_solve(omega, ni)
        ns.append(ni)
        norms.append(_hessian_lq(r, drho, th, qs))
    reports = []
    for q, qnorms in zip(qs, map(list, zip(*norms))):
        slope = float(np.polyfit(np.log(ns), np.log(qnorms), 1)[0])
        if slope < 0.05:
            verdict = "bounded"
        elif slope > 0.1:
            verdict = "divergent"
        else:
            verdict = "inconclusive"
        reports.append(WedgeProbeReport(omega=omega, q=q, n_list=list(ns),
                                        norms=qnorms, growth_rate=slope,
                                        verdict=verdict))
    return reports
