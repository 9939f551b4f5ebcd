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

Solved in closed form. The vessel is symmetric, so zeta0 is even, and P0
enters only through u = zeta0 - P0/g, with u'' = c (1 + u'^2)^(3/2) u and
c = g/sigma1. Its first integral is cos(phi) = 1 - (c/2)(u^2 - u(0)^2) for
the inclination phi. With sin(phi/2) = q = k sinh(tau), k = sqrt(c)|u(0)|/2,
u = sign(gamma_jump) (2k/sqrt(c)) cosh(tau) at the distance from the centre

    xi(tau) = (1/sqrt(c)) int_0^tau (1 - 2q^2)/sqrt(1 - q^2) dt,

integrated by Gauss-Legendre on panels graded toward the integrand's
singularity at q = 1, which a steep, thin meniscus puts just beyond the
wall (`_xi_rule`). The wall angle fixes tau_w,
and xi(tau_w) = ell is one equation in k. Integrating g u = sigma1 (sin
phi)' gives mean u = gamma_jump/(g ell), so P0 = g h_mean - gamma_jump/ell
exactly. Off the nodes the surface is the quintic Hermite interpolant of
zeta0, zeta0' and zeta0'' (from the ODE), whose slope is the exact
derivative of its height.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np


class EquilibriumError(RuntimeError):
    """The wall-condition root failed or the surface is inadmissible."""


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
        quintic Hermite interpolant of the exact (zeta0, zeta0', zeta0'')
        at the nodes and its exact derivative. Constant node data give
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


@functools.cache
def _gauss_legendre(n=16):
    """n-point Gauss-Legendre rule on [0, 1], by Newton on P_n from Tricomi's
    guesses (four steps converge; ten are taken), not by an eigensolve."""
    t = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(10):
        p0, p1 = np.ones_like(t), t
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * t * p1 - (j - 1) * p0) / j
        dp = n * (t * p1 - p0) / (t * t - 1.0)
        t = t - p1 / dp
    return 0.5 * (1.0 - t), 1.0 / ((1.0 - t * t) * dp * dp)


def _integrand(q):
    """(1 - 2q^2)/sqrt(1 - q^2) = sqrt(c) dxi/dtau."""
    return (1.0 - 2.0 * q * q) / np.sqrt(1.0 - q * q)


def _xi_rule(tau, k):
    """(t, w) with int_0^tau f(t) dt ~ f(t) @ w for each entry of tau: a
    16-point rule on each of J panels of [0, tau], graded geometrically in
    the distance to tau_s = asinh(1/k), where q = k sinh(t) reaches 1.

    Every singularity of the integrand has real part +-tau_s, so a panel
    no longer than its distance to tau_s has Bernstein ratio at least
    3 + sqrt(8), and its rule errs by about (3 + sqrt(8))^-32 = 3e-25. J is
    the fewest panels with that property for the largest tau: from each
    panel end to the next, the distance to tau_s at most doubles.
    """
    tau = np.asarray(tau, float)[..., None]
    ts = math.asinh(1.0 / k)
    near = ts - tau
    panels = max(1, math.ceil(math.log2(ts / np.min(near))))
    ends = ts - near * (ts / near) ** (np.arange(panels + 1) / panels)
    ends[..., 0], ends[..., -1] = tau[..., 0], 0.0
    v, w = _gauss_legendre()
    width = (ends[..., :-1] - ends[..., 1:])[..., None]
    t = ends[..., 1:, None] + width * v
    return (t.reshape(*tau.shape[:-1], -1),
            (width * w).reshape(*tau.shape[:-1], -1))


def _wall_root(qw, rc, ell):
    """(k, |gap|, iters) for gap = xi(tau_w) - ell with k sinh(tau_w) = qw:
    Newton on log k in a bisection bracket, from the small-slope root. The
    gap falls strictly in log k (tau_w at the rate tanh(tau_w), the
    integrand at q^2 (3 - 2q^2)/(1 - q^2)^(3/2)), so the root is unique."""
    y = rc * ell
    logk = math.log(2.0 * qw) - y - math.log1p(-math.exp(-2.0 * y))
    lo, hi = -math.inf, math.inf
    try:
        for it in range(1, 100):
            k = math.exp(logk)
            tw = math.asinh(qw / k)
            t, w = _xi_rule(tw, k)
            q = k * np.sinh(t)
            gap = float(_integrand(q) @ w) / rc - ell
            dq = (q * q * (3.0 - 2.0 * q * q) / (1.0 - q * q) ** 1.5) @ w
            nxt = logk + gap * rc / (dq + _integrand(qw) * math.tanh(tw))
            lo, hi = (logk, hi) if gap > 0.0 else (lo, logk)
            if nxt != logk and not lo < nxt < hi:
                nxt = 0.5 * (lo + hi)
            if nxt == logk:
                return k, abs(gap), it
            logk = nxt
    except ArithmeticError:     # k under- or overflowed
        pass
    raise EquilibriumError("wall condition root failed at log k = %g" % logk)


def solve_equilibrium(params, mean_height, n=400):
    """Closed-form equilibrium surface on n + 1 uniform nodes (n even).

    newton_residual and newton_iters report the k root. The left half's
    nodes solve xi(tau) = |x1| by Newton from sqrt(c)|x1|, where xi <= |x1|;
    xi is concave, so the iterates rise to the root. The half is mirrored.
    """
    params.require_valid()
    if not 0.0 < mean_height <= params.big_l:
        raise EquilibriumError("mean height %g outside (0, big_l]" % mean_height)
    if n % 2:
        raise ValueError("n = %d must be even so the centre is a node" % n)
    x = np.linspace(-params.ell, params.ell, n + 1)
    u, s = np.zeros(n // 2 + 1), np.zeros(n // 2 + 1)
    residual, it = 0.0, 0
    a = params.gamma_jump / params.sigma1
    if a != 0.0:
        rc = math.sqrt(params.g / params.sigma1)
        qw = math.sin(0.5 * math.asin(abs(a)))
        k, residual, it = _wall_root(qw, rc, params.ell)
        d = -x[:n // 2 + 1]               # distance from the centre
        tau = rc * d
        for _ in range(100):
            # sqrt(c) (xi(tau) - |x1|); its tau-derivative is the integrand
            t, w = _xi_rule(tau, k)
            res = np.sum(_integrand(k * np.sinh(t)) * w, axis=-1) - rc * d
            tau = tau - res / _integrand(k * np.sinh(tau))
            if not np.max(np.abs(res)) > 1e-14 * rc * params.ell:
                break
        tau[0], tau[-1] = math.asinh(qw / k), 0.0
        q = k * np.sinh(tau)
        u = math.copysign(2.0 * k / rc, a) * np.cosh(tau)
        s = math.copysign(2.0, -a) * q * np.sqrt(1.0 - q * q) / (1 - 2 * q * q)
        # the walls take sigma1 s / sqrt(1 + s^2) = -+gamma_jump exactly
        s[0], s[-1] = -a / math.sqrt(1.0 - a * a), 0.0

    # mirror the left half: zeta0 and zeta0'' even, zeta0' odd
    u = np.concatenate([u, u[-2::-1]])
    s = np.concatenate([s, -s[-2::-1]])
    # mean u = gamma_jump/(g ell), from integrating g u = sigma1 (sin phi)'
    shift = mean_height - params.gamma_jump / (params.g * params.ell)
    z = u + shift
    if not (np.min(z) > 0.0 and np.max(z) <= params.big_l):
        raise EquilibriumError("equilibrium surface leaves (0, big_l]: "
                               "range [%g, %g]" % (np.min(z), np.max(z)))
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

    Curvature is evaluated by centered differences of the exact node slopes,
    so a grid refinement halving h should shrink this by about 4.
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
