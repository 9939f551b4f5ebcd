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
refinement: bounded for q below the threshold, visibly growing above it,
like n^(4 (1/q_star - 1/q)) on the graded grid of size n. The discrete wedge
operator separates in angle (Buzbee, Golub & Nielson, SIAM J. Numer. Anal.
7, 1970): its angular stencil has closed-form sine modes, so a solve is one
radial tridiagonal system per mode, all solved in one banded LAPACK call,
with no 2-D sparse factorization.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
# unused here; perfbench's tracer wraps every module's spla handle
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


def _angular_modes(n):
    """Closed-form eigenbasis of the wedge's angular stencil.

    The stencil (-1, 2, -1) on j = 1..n, with theta_0 = 0 and the mirror
    ghost theta_{n+1} = theta_{n-1}, has the eigenvectors
    V[j-1, k-1] = sin(a_k j), a_k = (2k - 1) pi / (2n), with eigenvalues
    2 - 2 cos a_k = 4 sin^2(a_k / 2), and V^-1 = (2/n) V^T diag(1, ..., 1, 1/2).
    Returns (V, eigenvalues, V^-1).
    """
    a = (2.0 * np.arange(1, n + 1) - 1.0) * math.pi / (2.0 * n)
    V = np.sin(np.outer(np.arange(1, n + 1), a))
    weight = np.ones(n)
    weight[-1] = 0.5
    return V, 4.0 * np.sin(0.5 * a) ** 2, (2.0 / n) * V.T * weight


def _wedge_solve(omega, n):
    """Mixed Poisson solve on the truncated wedge, polar FD, graded radius.

    r_i = WEDGE_RADIUS (i/n)^2 concentrates nodes at the vertex where the
    singular mode lives. Dirichlet on rho = 0, the outer arc and the vertex;
    Neumann (mirror ghost) on rho = omega.

    The unknowns are the interior radii i = 1..n-1 and the angles j = 1..n
    (n is the Neumann edge), so the operator is
    kron(radial, I) + kron(diag(1/(r_i drho)^2), angular) with the
    conservative radial stencil (-cm, cp + cm, -cp) and the angular
    (-1, 2, -1), whose last row couples twice to j = n-1 through the mirror
    ghost theta_{n+1} = theta_{n-1}. It separates in angle (the fast Poisson
    solvers of Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7, 1970): with
    the closed-form modes of `_angular_modes`, angular = V diag(lam) V^-1 and
    theta = (V c)^T, where mode k solves the radial tridiagonal
    (radial + lam_k diag(1/(r_i drho)^2)) c_k = (V^-1 1)_k bump, the source
    being constant in angle. The n mode systems sit mode-major in one
    tridiagonal band, uncoupled across block edges, and one
    `scipy.linalg.solve_banded` call (LAPACK gtsv) solves them all.
    Returns theta radius-major, shaped (n - 1, n).
    """
    r = WEDGE_RADIUS * (np.arange(n + 1) / n) ** 2
    drho = omega / n
    ri = r[1:n]
    dri = 0.5 * (r[2:] - r[:-2])
    cp = 0.5 * (ri + r[2:]) / ((r[2:] - ri) * dri * ri)     # to (i+1, j)
    cm = 0.5 * (ri + r[:-2]) / ((ri - r[:-2]) * dri * ri)   # to (i-1, j)
    V, lam, vinv = _angular_modes(n)
    band = np.zeros((3, n, n - 1))
    band[0, :, 1:] = -cp[:-1]
    band[1] = cp + cm + lam[:, None] / (ri * drho) ** 2
    band[2, :, :-1] = -cm[1:]
    rhs = np.outer(vinv.sum(axis=1), _bump_source(ri))
    c = scipy.linalg.solve_banded((1, 1), band.reshape(3, -1), rhs.ravel())
    return r, drho, (V @ c.reshape(n, n - 1)).T


def _radial(w, f):
    """Three-point radial stencil w = (plus, centre, minus) applied at the
    interior radii to f, whose rows run over every radius."""
    return w[0] * f[2:] + w[1] * f[1:-1] + w[2] * f[:-2]


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

    # graded-radius weights of d/dr and d^2/dr^2 at the interior radii
    drp = (r[2:] - r[1:-1])[:, None]
    drm = (r[1:-1] - r[:-2])[:, None]
    span = drp + drm
    d_r = (drm / (drp * span), (drp - drm) / (drp * drm), -drp / (drm * span))
    d_rr = (2.0 / (drp * span), -2.0 / (drp * drm), 2.0 / (drm * span))

    u = full[:, 1:na + 1]
    u0 = u[1:nr]
    th_r = _radial(d_r, u)
    th_rr = _radial(d_rr, u)
    # the angular slope at every radius, for its radial derivative
    th_a_full = (full[:, 2:] - full[:, :na]) / (2.0 * drho)
    th_a = th_a_full[1:nr]
    th_aa = (full[1:nr, 2:] - 2.0 * u0 + full[1:nr, :na]) / drho ** 2
    ta_r = _radial(d_r, th_a_full)

    rcol = r[1:nr, None]
    H_rr = th_rr
    H_ra = ta_r / rcol - th_a / rcol ** 2
    H_aa = th_aa / rcol ** 2 + th_r / rcol
    mag2 = H_rr ** 2 + 2.0 * H_ra ** 2 + H_aa ** 2

    w = rcol * (0.5 * span) * drho
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
