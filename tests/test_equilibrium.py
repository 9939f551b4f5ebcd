import csv
import dataclasses
import math

import numpy as np
import pytest

from contactflow.params import PhysicalParams
from contactflow import equilibrium as eq
from contactflow import geometry as geo
from contactflow import heat as ht

from _reference import LIN_EQ


def _with_jump(params, jump):
    return dataclasses.replace(params, gamma_jump=jump)


def test_flat_surface_is_exact(flat_surface, params):
    assert np.all(flat_surface.zeta0 == 1.0)
    assert np.all(flat_surface.dzeta0 == 0.0)
    assert flat_surface.p0 == params.g * 1.0
    assert flat_surface.omega == math.pi / 2.0
    assert flat_surface.newton_iters == 0
    assert eq.ode_residual(flat_surface, params) < 1e-12


def test_flat_interpolators_constant(flat_surface, params):
    # the quintic interpolant of flat data is exactly constant: at the
    # 96x64 cell centres, faces and heat Gauss points as well as off-grid
    zfn, dzfn = flat_surface.interpolators()
    grid = geo.make_grid(flat_surface, 96, 64, params.depth)
    gauss = grid.hx * (np.array(ht._GP) - 0.5)
    x = np.concatenate([np.linspace(-1.0, 1.0, 7), grid.xc, grid.xf,
                        (grid.xc[:, None] + gauss).ravel()])
    assert np.all(zfn(x) == 1.0)
    assert np.all(dzfn(x) == 0.0)
    assert np.all(grid.zeta0_c == 1.0) and np.all(grid.dzeta0_f == 0.0)


@pytest.mark.parametrize("jump", [0.3, -0.5])
def test_quintic_interpolators_reproduce_nodes_and_derivatives(params, jump):
    s = eq.solve_equilibrium(_with_jump(params, jump), 1.0)
    zfn, dzfn = s.interpolators()
    assert np.array_equal(zfn(s.x), s.zeta0)
    assert np.array_equal(dzfn(s.x), s.dzeta0)
    # off the nodes dzeta0 is the derivative of zeta0, and at the nodes the
    # slope changes at the rate zeta0'' that the ODE gives
    h = 1e-5
    x = np.linspace(-s.ell + 2 * h, s.ell - 2 * h, 1001)
    fd = (zfn(x + h) - zfn(x - h)) / (2.0 * h)
    assert np.max(np.abs(fd - dzfn(x))) <= 1e-7 * np.max(np.abs(dzfn(x)))
    nodes = s.x[1:-1]
    fd2 = (dzfn(nodes + h) - dzfn(nodes - h)) / (2.0 * h)
    assert np.max(np.abs(fd2 - s.d2zeta0[1:-1])) \
        <= 1e-6 * np.max(np.abs(s.d2zeta0))


@pytest.mark.parametrize("jump", [0.3, -0.5])
def test_quintic_interpolators_match_cubic_splines(params, jump):
    from scipy.interpolate import CubicSpline
    s = eq.solve_equilibrium(_with_jump(params, jump), 1.0)
    zfn, dzfn = s.interpolators()
    x = np.linspace(-s.ell, s.ell, 4001)
    assert np.max(np.abs(zfn(x) - CubicSpline(s.x, s.zeta0)(x))) <= 1e-8
    assert np.max(np.abs(dzfn(x) - CubicSpline(s.x, s.dzeta0)(x))) <= 1e-8


@pytest.mark.parametrize("jump", [1e-3, 1e-2, 0.3, -0.25])
def test_pressure_identity(params, jump):
    s = eq.solve_equilibrium(_with_jump(params, jump), 1.0)
    # P0 = g hbar - jump/ell holds exactly for the solved pair
    assert abs(s.p0 - (params.g * 1.0 - jump / params.ell)) < 1e-11


@pytest.mark.parametrize("jump", [1e-2, 0.3, -0.25, 0.9])
def test_contact_angle_closed_form(params, jump):
    s = eq.solve_equilibrium(_with_jump(params, jump), 1.0)
    assert abs(s.omega - (math.pi / 2.0 + math.asin(jump / params.sigma1))) < 1e-12


@pytest.mark.parametrize("jump", [1e-3, 1e-2, 0.3, 0.99, -0.99])
def test_slope_boundary_conditions(params, jump):
    s = eq.solve_equilibrium(_with_jump(params, jump), 1.0)
    for sl, sign in ((s.dzeta0[-1], 1.0), (s.dzeta0[0], -1.0)):
        assert abs(sign * params.sigma1 * sl / math.hypot(1.0, sl) - jump) < 1e-10


@pytest.mark.parametrize("jump", [0.3, -0.5, 0.9])
def test_rest_surface_is_even(params, jump):
    # the left half is mirrored, so in the symmetric vessel the rest state
    # is even to the last bit and its slope odd
    s = eq.solve_equilibrium(_with_jump(params, jump), 1.0)
    assert np.array_equal(s.zeta0, s.zeta0[::-1])
    assert np.array_equal(s.dzeta0, -s.dzeta0[::-1])
    assert np.array_equal(s.d2zeta0, s.d2zeta0[::-1])


def test_rejects_odd_node_count(params):
    # the centre, where the mirrored halves meet, must be a node
    with pytest.raises(ValueError):
        eq.solve_equilibrium(_with_jump(params, 0.3), 1.0, n=401)


@pytest.mark.parametrize("jump,eta0,eta_ell", LIN_EQ)
def test_small_slope_profile(params, jump, eta0, eta_ell):
    s = eq.solve_equilibrium(_with_jump(params, jump), 1.0)
    mid = s.x.size // 2
    assert s.x[mid] == 0.0
    # full profile agrees with the frozen linearized values to O(jump^2)
    tol = 5.0 * jump * jump
    assert abs((s.zeta0[mid] - 1.0) - eta0) < tol
    assert abs((s.zeta0[-1] - 1.0) - eta_ell) < tol


def test_mean_height_constraint(params):
    # re-check the constraint with an independent quadrature; trapezoid is
    # only O(h^2) so the defect must shrink 4x per refinement toward 1.2
    p = _with_jump(params, 0.3)
    errs = []
    for n in (400, 800):
        s = eq.solve_equilibrium(p, 1.2, n=n)
        errs.append(abs(np.trapezoid(s.zeta0, s.x) / (2.0 * params.ell) - 1.2))
    assert errs[0] < 1e-5
    assert errs[0] / errs[1] > 3.5


def test_ode_residual_second_order(params):
    p = _with_jump(params, 0.3)
    res = [eq.ode_residual(eq.solve_equilibrium(p, 1.0, n=n), p)
           for n in (100, 200, 400)]
    assert res[0] / res[1] > 3.5
    assert res[1] / res[2] > 3.5


def test_rejects_supercritical_jump(params):
    with pytest.raises(Exception):
        eq.solve_equilibrium(_with_jump(params, 1.5), 1.0)


@pytest.mark.parametrize("mean_height,low,high",
                         [(1.0, 0.8239, 1.6096), (0.3, 0.1239, 0.9096)])
def test_steep_meniscus_is_solved(params, mean_height, low, high):
    # at gamma_jump = 0.999 the wall slope is -22.3439 at the left wall
    s = eq.solve_equilibrium(_with_jump(params, 0.999), mean_height)
    assert abs(np.min(s.zeta0) - low) < 5e-5
    assert abs(np.max(s.zeta0) - high) < 5e-5
    assert abs(s.dzeta0[0] + 22.3439) < 5e-5


ORACLE_CASES = [{"gamma_jump": j} for j in (1e-6, 1e-3, 0.3, -0.5, 0.9,
                                             0.999)] \
    + [{"g": 10.0, "sigma1": 0.2, "sigma2": 0.0, "gamma_jump": 1e-3}]


@pytest.mark.parametrize("change", ORACLE_CASES, ids=lambda c: ",".join(
    "%s=%g" % kv for kv in c.items()))
def test_closed_form_oracles(params, change):
    p = dataclasses.replace(params, **change)
    s = eq.solve_equilibrium(p, 1.0)
    jump, c = p.gamma_jump, p.g / p.sigma1
    # integrating g u = sigma1 (sin phi)' over the vessel fixes P0
    assert abs(s.p0 - (p.g * 1.0 - jump / p.ell)) <= 1e-14
    wall = jump / math.sqrt(p.sigma1 ** 2 - jump ** 2)
    assert abs(s.dzeta0[-1] - wall) <= 1e-13 * abs(wall)
    assert abs(s.dzeta0[0] + wall) <= 1e-13 * abs(wall)
    # the first integral cos(phi) = 1 - (c/2)(u^2 - u(0)^2) at every node
    u = s.zeta0 - s.p0 / p.g
    mid = s.x.size // 2
    cos_phi = 1.0 / np.sqrt(1.0 + s.dzeta0 ** 2)
    first = cos_phi - 1.0 + 0.5 * c * (u * u - u[mid] ** 2)
    assert np.max(np.abs(first)) <= 1e-14
    # the root k = sqrt(c)|u(0)|/2 meets the wall, by a 200-point rule
    assert s.newton_residual <= 1e-14
    rc = math.sqrt(c)
    qw = math.sin(0.5 * math.asin(abs(jump) / p.sigma1))
    k = eq._wall_root(qw, rc, p.ell)[0]
    assert abs(u[mid] - math.copysign(2.0 * k / rc, jump)) <= 1e-14
    tw = math.asinh(qw / k)
    t, wt = np.polynomial.legendre.leggauss(200)
    q = k * np.sinh(0.5 * tw * (1.0 + t))
    xi = 0.5 * tw * np.sum(wt * (1.0 - 2.0 * q * q) / np.sqrt(1.0 - q * q))
    assert abs(xi / rc - p.ell) <= 1e-14


@pytest.mark.parametrize("jump", [0.3, -0.5, 0.9])
def test_agrees_with_integration_from_the_wall(params, jump):
    from scipy.integrate import solve_ivp
    p = _with_jump(params, jump)
    s = eq.solve_equilibrium(p, 1.0)
    c = p.g / p.sigma1
    u = s.zeta0 - s.p0 / p.g
    sol = solve_ivp(lambda x, y: [y[1], c * (1.0 + y[1] ** 2) ** 1.5 * y[0]],
                    (s.x[0], s.x[-1]), [u[0], s.dzeta0[0]], t_eval=s.x,
                    method="DOP853", rtol=1e-12, atol=1e-14)
    assert np.max(np.abs(sol.y[0] - u)) <= 1e-11 * np.max(np.abs(u))
    assert np.max(np.abs(sol.y[1] - s.dzeta0)) \
        <= 1e-11 * np.max(np.abs(s.dzeta0))


@pytest.mark.parametrize("g", [2500.0, 1e4])
def test_steep_thin_meniscus_meets_adaptive_quadrature(params, g):
    # gamma_jump = 0.99: xi's integrand is singular where q = 1, about 0.4
    # beyond tau_w = 50 (g = 2500) or 100 (g = 1e4); the wall root and
    # every node of the left half match scipy's adaptive quadrature
    from scipy.integrate import quad
    p = dataclasses.replace(params, g=g, gamma_jump=0.99)
    s = eq.solve_equilibrium(p, 1.0)
    rc = math.sqrt(g / p.sigma1)
    qw = math.sin(0.5 * math.asin(p.gamma_jump / p.sigma1))
    k = eq._wall_root(qw, rc, p.ell)[0]

    def xi(tau):
        # q = k sinh(t) rises from 0 to qw within the last few units
        layer = [t for t in (tau - 4.0, tau - 2.0, tau - 1.0) if t > 0.0]
        return quad(lambda t: (1.0 - 2.0 * (k * math.sinh(t)) ** 2)
                    / math.sqrt(1.0 - (k * math.sinh(t)) ** 2), 0.0, tau,
                    points=layer or None, limit=200, epsabs=1e-13,
                    epsrel=1e-13)[0] / rc

    assert abs(xi(math.asinh(qw / k)) - p.ell) <= 1e-12
    # a node's tau from its slope tan(phi), as sin(phi/2) = k sinh(tau)
    half = s.x.size // 2 + 1
    q = np.sin(0.5 * np.arctan(np.abs(s.dzeta0[:half])))
    for x, tau in zip(s.x[:half:10], np.arcsinh(q[::10] / k)):
        assert abs(xi(tau) + x) <= 1e-12


def test_unresolvable_boundary_layer_is_an_equilibrium_error(params):
    # at g/sigma1 = 1e6 the small-slope start puts k below the smallest
    # double; the root fails with a reason, not with a ZeroDivisionError
    with pytest.raises(eq.EquilibriumError, match="root failed"):
        eq.solve_equilibrium(dataclasses.replace(params, g=1e6,
                                                 gamma_jump=0.3), 1.0)


def test_rejects_bad_mean_height(params):
    with pytest.raises(eq.EquilibriumError):
        eq.solve_equilibrium(params, 0.0)
    with pytest.raises(eq.EquilibriumError):
        eq.solve_equilibrium(params, params.big_l + 0.1)


def test_surface_csv_round_trip(tmp_path, params):
    s = eq.solve_equilibrium(_with_jump(params, 0.1), 1.0, n=50)
    path = tmp_path / "surface.csv"
    eq.export_surface_csv(s, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == s.x.size
    x = np.array([float(r["x"]) for r in rows])
    z = np.array([float(r["zeta0"]) for r in rows])
    assert np.array_equal(x, s.x)
    assert np.array_equal(z, s.zeta0)
