"""Capillary equilibrium of the free surface in a rectangular vessel.

The rest surface x2 = zeta0(x1) on (-ell, ell) balances hydrostatic pressure
against surface tension,

    P0 = g*zeta0 - sigma1 * H(zeta0),
    H(z) = d/dx1 ( z' / sqrt(1 + z'^2) ),

with the contact-angle conditions at the walls

    sigma1 * zeta0'(+-ell) / sqrt(1 + zeta0'(+-ell)^2) = +-gamma_jump

and a prescribed mean height (1/2ell) * int zeta0 = h_mean. P0 is the
constant rest value of the modified pressure (gravity potential folded into
the pressure), which is why the equilibrium is an exact steady state of the
dynamical scheme rather than one up to discretization error.

Solved by shooting: integrate the curvature ODE left to right with RK4,
augmenting the state with the running integral of zeta0 so the mean-height
constraint is part of the shooting residual, and Newton-iterate on the two
unknowns (P0, zeta0(-ell)). Between the nodes the surface is sampled from
the piecewise quintic Hermite interpolant of zeta0, zeta0' and zeta0'', the
last read from the ODE itself, so the sampled slope is the exact derivative
of the sampled height.
"""

import math
from dataclasses import dataclass

import numpy as np


class EquilibriumError(RuntimeError):
    """Shooting iteration failed or produced an inadmissible surface."""


@dataclass
class EquilibriumSurface:
    x: np.ndarray        # nodes from -ell to ell
    zeta0: np.ndarray    # surface height at nodes
    dzeta0: np.ndarray   # surface slope at nodes
    d2zeta0: np.ndarray  # surface second derivative at nodes, from the ODE
    p0: float            # rest modified pressure
    omega: float         # corner angle at the right wall
    mean_height: float
    ell: float
    newton_residual: float
    newton_iters: int

    def interpolators(self):
        """Callables (zeta0, dzeta0) for off-node sampling: the piecewise
        quintic Hermite interpolant of (zeta0, zeta0', zeta0'') on the
        shooting nodes and its exact derivative. Constant node data give
        constant callables exactly, since every higher coefficient is 0."""
        return _quintic_hermite(self.x, self.zeta0, self.dzeta0, self.d2zeta0)


def _quintic_hermite(x, z, dz, d2z):
    """(value, derivative) callables of the C2 piecewise quintic through
    (z, z', z'') at the uniform nodes x.

    On [x_i, x_i+1] the quintic is sum_k a_k t^k in t = (x - x_i)/h; a0..a2
    are the Taylor data at x_i and a3..a5 match the data at x_i+1. Each row
    of the coefficient tables belongs to one interval and is evaluated by
    Horner in t. A last row holds the data of the right end node, so every
    node, x = ell included, reads back its own value and slope exactly.
    """
    h = x[1] - x[0]
    a0, a1, a2 = z[:-1], h * dz[:-1], 0.5 * h * h * d2z[:-1]
    d = z[1:] - a0 - a1 - a2
    e = h * dz[1:] - a1 - 2.0 * a2
    f = h * h * d2z[1:] - 2.0 * a2
    a3 = 10.0 * d - 4.0 * e + 0.5 * f
    a4 = -15.0 * d + 7.0 * e - f
    a5 = 6.0 * d - 3.0 * e + 0.5 * f
    end = [[z[-1], h * dz[-1], 0.5 * h * h * d2z[-1], 0.0, 0.0, 0.0]]
    value = np.vstack([np.column_stack([a0, a1, a2, a3, a4, a5]), end])
    # derivative in x, led by the node slope itself rather than (h z')/h
    slope = np.column_stack([dz, value[:, 2:] * (np.arange(2.0, 6.0) / h)])
    value, slope = value.T.copy(), slope.T.copy()   # (degree + 1, rows)
    inner = x[1:]

    def evaluate(coef, q):
        q = np.asarray(q, float)
        # row i for x_i <= q < x_i+1; q below -ell reads row 0, q = ell
        # the end row
        i = np.searchsorted(inner, q, side="right")
        t = (q - x[i]) / h
        c = coef.take(i, axis=1)
        out = c[-1].copy()
        for k in range(coef.shape[0] - 2, -1, -1):
            out *= t
            out += c[k]
        return out

    return (lambda q: evaluate(value, q), lambda q: evaluate(slope, q))


def _wall_slope(params):
    """Slope at -ell from sigma1 * s / sqrt(1+s^2) = -gamma_jump."""
    a = -params.gamma_jump / params.sigma1
    return a / math.sqrt(1.0 - a * a)


def _shoot(params, p0, z_left, n):
    """RK4 integrate (zeta, slope, integral) across the vessel.

    Returns node arrays of zeta, slope and the final running integral.
    """
    ell, g, sig = params.ell, params.g, params.sigma1
    h = 2.0 * ell / n
    z = np.empty(n + 1)
    s = np.empty(n + 1)
    z[0], s[0] = z_left, _wall_slope(params)
    m = 0.0

    def rhs(zi, si):
        return si, (1.0 + si * si) ** 1.5 * (g * zi - p0) / sig, zi

    cap = 10.0 * (abs(z_left) + params.big_l + 1.0)
    zi, si = z[0], s[0]
    for i in range(n):
        if not (abs(zi) < cap and abs(si) < 1e3):
            # runaway trajectory: freeze the tail so the residual stays
            # finite and large, letting the damped Newton reject the step
            z[i + 1:] = zi if math.isfinite(zi) else math.copysign(cap, zi)
            s[i + 1:] = si if math.isfinite(si) else math.copysign(1e3, si)
            m += z[-1] * h * (n - i)
            return z, s, m
        k1 = rhs(zi, si)
        k2 = rhs(zi + 0.5 * h * k1[0], si + 0.5 * h * k1[1])
        k3 = rhs(zi + 0.5 * h * k2[0], si + 0.5 * h * k2[1])
        k4 = rhs(zi + h * k3[0], si + h * k3[1])
        zi = zi + h / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        si = si + h / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        m = m + h / 6.0 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        z[i + 1], s[i + 1] = zi, si
    return z, s, m


def _residual(params, mean_height, p0, z_left, n):
    z, s, m = _shoot(params, p0, z_left, n)
    sr = s[-1]
    r1 = params.sigma1 * sr / math.sqrt(1.0 + sr * sr) - params.gamma_jump
    r2 = m / (2.0 * params.ell) - mean_height
    return np.array([r1, r2]), z, s


def solve_equilibrium(params, mean_height, n=400, tol=1e-12, max_iter=60):
    """Shooting + Newton solve of the equilibrium surface.

    The Jacobian of the 2-vector residual (right contact angle, mean height)
    with respect to (P0, zeta0(-ell)) is taken by forward differences; for a
    flat rest state (gamma_jump = 0) the initial guess is already the exact
    root and the solver returns immediately.
    """
    params.require_valid()
    if not 0.0 < mean_height <= params.big_l:
        raise EquilibriumError("mean height %g outside (0, big_l]" % mean_height)
    # start from the small-slope closed form: eta = A cosh(m x) + C with
    # A = a/(m sinh(m ell)), C = -a/(m^2 ell), a = gamma_jump/sigma1, so
    # P0 = g*hbar - a*sigma1/ell and zeta(-ell) = hbar + A cosh(m ell) + C.
    # Exact when gamma_jump = 0; close enough to converge undamped
    # otherwise.
    a = params.gamma_jump / params.sigma1
    mfreq = math.sqrt(params.g / params.sigma1)
    ell = params.ell
    A = a / (mfreq * math.sinh(mfreq * ell))
    p0 = params.g * mean_height - a * params.sigma1 / ell
    z_left = mean_height + A * math.cosh(mfreq * ell) - a / (mfreq ** 2 * ell)
    r, z, s = _residual(params, mean_height, p0, z_left, n)
    it = 0
    while np.max(np.abs(r)) > tol:
        it += 1
        if it > max_iter:
            raise EquilibriumError(
                "shooting Newton stalled at residual %g" % np.max(np.abs(r)))
        dp = 1e-7 * max(1.0, abs(p0))
        dz = 1e-7 * max(1.0, abs(z_left))
        rp = _residual(params, mean_height, p0 + dp, z_left, n)[0]
        rz = _residual(params, mean_height, p0, z_left + dz, n)[0]
        jac = np.column_stack([(rp - r) / dp, (rz - r) / dz])
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            raise EquilibriumError("singular shooting Jacobian")
        # damped update, halve until the residual decreases
        lam = 1.0
        for _ in range(30):
            r_new, z, s = _residual(params, mean_height,
                                    p0 + lam * step[0], z_left + lam * step[1], n)
            if np.max(np.abs(r_new)) < np.max(np.abs(r)):
                break
            lam *= 0.5
        p0 += lam * step[0]
        z_left += lam * step[1]
        r = r_new

    if np.min(z) <= 0.0 or np.max(z) > params.big_l:
        raise EquilibriumError("equilibrium surface leaves (0, big_l]: "
                               "range [%g, %g]" % (np.min(z), np.max(z)))
    x = np.linspace(-params.ell, params.ell, n + 1)
    omega = math.pi / 2.0 + math.atan(s[-1])
    # the curvature ODE gives zeta0'' at the nodes without differencing
    d2z = (1.0 + s * s) ** 1.5 * (params.g * z - p0) / params.sigma1
    return EquilibriumSurface(x=x, zeta0=z, dzeta0=s, d2zeta0=d2z,
                              p0=float(p0),
                              omega=float(omega), mean_height=float(mean_height),
                              ell=params.ell,
                              newton_residual=float(np.max(np.abs(r))),
                              newton_iters=it)


def ode_residual(surface, params):
    """Pointwise defect P0 - g*zeta0 + sigma1*H(zeta0) on interior nodes.

    Curvature is evaluated by centered differences of the stored slope, so a
    grid refinement halving h should shrink this by about 4 (the shooting
    trajectory itself is 4th-order accurate; the measurement here is the
    2nd-order bottleneck).
    """
    x, z, s = surface.x, surface.zeta0, surface.dzeta0
    h = x[1] - x[0]
    flux = s / np.sqrt(1.0 + s * s)
    curv = (flux[2:] - flux[:-2]) / (2.0 * h)
    res = surface.p0 - params.g * z[1:-1] + params.sigma1 * curv
    return float(np.max(np.abs(res)))


def export_surface_csv(surface, path):
    """Write (x, zeta0, dzeta0) rows; floats as shortest round-trip reprs."""
    with open(path, "w") as fh:
        fh.write("x,zeta0,dzeta0\n")
        for xi, zi, si in zip(surface.x, surface.zeta0, surface.dzeta0):
            fh.write("%r,%r,%r\n" % (float(xi), float(zi), float(si)))
