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

Solved by shooting. The vessel is symmetric, so zeta0 is even, and P0
enters only through u = zeta0 - P0/g. RK4 integrates u from the left wall
to the centre node, and Newton on the one unknown u(-ell) drives u'(0) to
zero. The half is mirrored to the right wall, and the running integral of
u gives P0 = g (h_mean - mean u). Between the nodes the surface is sampled
from the piecewise quintic Hermite interpolant of zeta0, zeta0' and
zeta0'', the last read from the ODE itself, so the sampled slope is the
exact derivative of the sampled height.
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


def _shoot(params, u_left, n):
    """RK4 integrate u = zeta0 - P0/g from the left wall to the centre.

    u obeys u'' = (1 + u'^2)^(3/2) g u / sigma1, which holds no P0. The
    state (u, u', w, w', m) carries w = du/du(-ell) by the variational
    equation and the running integral m of u. Returns node arrays of u and
    u' on [-ell, 0], the centre value of w' = d u'(0)/d u(-ell), and m.
    """
    c = params.g / params.sigma1
    half = n // 2
    h = 2.0 * params.ell / n
    u = np.empty(half + 1)
    s = np.empty(half + 1)
    u[0], s[0] = u_left, _wall_slope(params)
    y = (u[0], s[0], 1.0, 0.0, 0.0)

    def rhs(y):
        ui, si, wi, vi, _ = y
        q = 1.0 + si * si
        f = math.sqrt(q) * c
        return si, q * f * ui, vi, f * (q * wi + 3.0 * si * ui * vi), ui

    cap = 10.0 * (abs(u_left) + params.big_l + 1.0)
    for i in range(1, half + 1):
        k1 = rhs(y)
        k2 = rhs([a + 0.5 * h * b for a, b in zip(y, k1)])
        k3 = rhs([a + 0.5 * h * b for a, b in zip(y, k2)])
        k4 = rhs([a + h * b for a, b in zip(y, k3)])
        y = [a + h / 6.0 * (b1 + 2 * b2 + 2 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        if not (abs(y[0]) < cap and abs(y[1]) < 1e3):
            # runaway trajectory: freeze the tail inside the guard's bounds
            # (NaN to the bound), so the residual stays finite and at most
            # 1e3, and the damped Newton rejects the step
            u[i:] = math.copysign(min(cap, abs(y[0])), y[0])
            s[i:] = math.copysign(min(1e3, abs(y[1])), y[1])
            return u, s, y[3], y[4] + u[-1] * h * (half - i)
        u[i], s[i] = y[0], y[1]
    return u, s, y[3], y[4]


def solve_equilibrium(params, mean_height, n=400, tol=1e-12, max_iter=60):
    """Shooting + Newton solve of the equilibrium surface on n + 1 nodes.

    The vessel is symmetric, so the surface is even. Newton drives the
    centre slope u'(0) of the half shot to zero in the one unknown
    u(-ell), with the derivative from the variational equation; the
    reported newton_residual is the final |u'(0)|. The half is mirrored
    to the right wall and P0 = g (hbar - mean u) sets the mean height.
    n must be even so that the centre is a node. For a flat rest state
    (gamma_jump = 0) the initial guess is already the exact root and the
    solver returns immediately.
    """
    params.require_valid()
    if not 0.0 < mean_height <= params.big_l:
        raise EquilibriumError("mean height %g outside (0, big_l]" % mean_height)
    if n % 2:
        raise ValueError("n = %d must be even so the centre is a node" % n)
    # start from the small-slope closed form u = A cosh(m x1) with
    # A = a/(m sinh(m ell)), a = gamma_jump/sigma1, so u(-ell) =
    # a/(m tanh(m ell)). Exact when gamma_jump = 0; close enough to
    # converge undamped otherwise.
    a = params.gamma_jump / params.sigma1
    mfreq = math.sqrt(params.g / params.sigma1)
    u_left = a / (mfreq * math.tanh(mfreq * params.ell))
    u, s, ds, m = _shoot(params, u_left, n)
    it = 0
    # "not <=" keeps iterating on a NaN residual until the stall error
    while not abs(s[-1]) <= tol:
        it += 1
        if it > max_iter:
            raise EquilibriumError(
                "shooting Newton stalled at residual %g" % abs(s[-1]))
        step = -s[-1] / ds
        # damped update, halve until the residual decreases
        lam = 1.0
        for _ in range(30):
            shot = _shoot(params, u_left + lam * step, n)
            if abs(shot[1][-1]) < abs(s[-1]):
                break
            lam *= 0.5
        u_left += lam * step
        u, s, ds, m = shot

    # mirror the left half: zeta0 and zeta0'' even, zeta0' odd
    residual, s[-1] = abs(s[-1]), 0.0
    u = np.concatenate([u, u[-2::-1]])
    s = np.concatenate([s, -s[-2::-1]])
    shift = mean_height - m / params.ell     # P0/g: mean u is m/ell
    z = u + shift
    if np.min(z) <= 0.0 or np.max(z) > params.big_l:
        raise EquilibriumError("equilibrium surface leaves (0, big_l]: "
                               "range [%g, %g]" % (np.min(z), np.max(z)))
    x = np.linspace(-params.ell, params.ell, n + 1)
    omega = math.pi / 2.0 + math.atan(s[-1])
    # the curvature ODE gives zeta0'' at the nodes without differencing
    d2z = (1.0 + s * s) ** 1.5 * params.g * u / params.sigma1
    return EquilibriumSurface(x=x, zeta0=z, dzeta0=s, d2zeta0=d2z,
                              p0=float(params.g * shift),
                              omega=float(omega), mean_height=float(mean_height),
                              ell=params.ell, newton_residual=float(residual),
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
