import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contactflow import equilibrium as eq
from contactflow import geometry as geo

from _reference import J_PROBES


def _single_mode_fields(grid, amp=1e-3, k=1):
    eta = amp * np.cos(k * math.pi * grid.xc / grid.ell)
    return geo.build_geometry(grid, eta - eta.mean())


def _rest_grid(params, jump):
    surf = eq.solve_equilibrium(
        dataclasses.replace(params, gamma_jump=jump), 1.0)
    return geo.make_grid(surf, 24, 16, params.depth)


@pytest.fixture(scope="module", params=[0.0, 0.3], ids=["flat", "curved"])
def rest_grid(request, params):
    """24x16 grids on the flat and on a gamma_jump = 0.3 rest state."""
    return _rest_grid(params, request.param)


# ------------------------------------------------------------
# frozen-oracle and exact-identity checks
# ------------------------------------------------------------

def test_metric_probes_match_symbolic_composition(flat_surface, params):
    grid = geo.make_grid(flat_surface, 16, 12, params.depth)
    fields = geo.build_geometry(grid, 1e-3 * np.cos(math.pi * grid.xc))
    met = fields.at("nodes")
    for (i, j), J, A in J_PROBES:
        assert met["J"][i, j] == pytest.approx(J, abs=1e-15)
        assert met["A"][i, j] == pytest.approx(A, abs=1e-14)


def test_rest_map_is_identity(zero_fields):
    met = zero_fields.at("nodes")
    assert np.all(met["eta_bar"] == 0.0)
    assert np.all(met["A"] == 0.0)
    assert np.all(met["J"] == 1.0)
    assert np.all(met["K"] == 1.0)


def test_inverse_metric_identity(rest_grid):
    fields = _single_mode_fields(rest_grid, amp=5e-3)
    for where in ("nodes", "centers"):
        met = fields.at(where)
        assert np.max(np.abs(met["J"] * met["K"] - 1.0)) < 1e-13


def test_surface_trace_reconstructs_single_mode(rest_grid):
    # a single cosine is band limited, so the mode extension evaluated back
    # at the surface (zero decay) must reproduce it to roundoff
    fields = _single_mode_fields(rest_grid, amp=1e-3, k=2)
    met = fields.at("nodes")
    want = 1e-3 * np.cos(2 * math.pi * rest_grid.xf / rest_grid.ell)
    assert np.max(np.abs(met["eta_bar"][:, -1] - want)) < 1e-15


def test_map_is_identity_below_band(grid):
    fields = _single_mode_fields(grid, amp=5e-3)
    met = fields.at("nodes")
    below = met["x2"] <= grid.zmin / 4.0
    assert below.any()
    assert np.all(met["J"][below] == 1.0)
    assert np.all(met["A"][below] == 0.0)


def test_piola_residual_second_order(params):
    surf = eq.solve_equilibrium(params, 2.0)
    res = []
    for nx, ny in ((48, 36), (96, 72), (192, 144)):
        grid = geo.make_grid(surf, nx, ny, params.depth)
        fields = _single_mode_fields(grid, amp=2e-3)
        res.append(geo.piola_residual(fields))
    assert res[0] / res[1] > 3.2
    assert res[1] / res[2] > 3.2


# ------------------------------------------------------------
# extension and sampler mechanics
# ------------------------------------------------------------

def test_extension_is_even_reflection():
    rng = np.random.default_rng(7)
    eta = rng.normal(size=12)
    f_ext = geo.extend_surface(eta)
    assert f_ext.size == 24
    assert np.array_equal(f_ext[:12], eta)
    assert np.array_equal(f_ext[12:], eta[::-1])


def test_sample_triple_matches_single_samples(grid):
    # a cos(xi x) with xi = pi/ell and b cos(2 xi x) are single modes of the
    # even cosine series, so their extensions are a cos(xi x) e^{xi d} and
    # b cos(2 xi x) e^{2 xi d} exactly; stacked rows sample independently
    amp, xi, amp2 = 1e-3, math.pi, 2e-3
    xc = -1.0 + (np.arange(20) + 0.5) * 0.1
    samp = geo._ModeSampler([amp * np.cos(xi * xc),
                             amp2 * np.cos(2.0 * xi * xc)], 1.0)
    x1 = np.linspace(-1.0, 1.0, 9)
    depth = np.linspace(-0.8, 0.0, 5)
    v, d1, d2 = samp.sample_triple(x1, depth)
    for row, (a, k) in enumerate(((amp, xi), (amp2, 2.0 * xi))):
        decay = a * np.exp(k * depth)
        assert np.allclose(v[row], np.cos(k * x1)[:, None] * decay,
                           rtol=0.0, atol=1e-17)
    # the derivatives are row 0's only
    decay = amp * np.exp(xi * depth)
    assert np.allclose(d1, -xi * np.sin(xi * x1)[:, None] * decay,
                       rtol=0.0, atol=1e-16)
    assert np.allclose(d2, xi * np.cos(xi * x1)[:, None] * decay,
                       rtol=0.0, atol=1e-16)
    # the surface slope is the exact derivative of the eta row alone
    fields = geo.build_geometry(grid, amp2 * np.cos(2.0 * xi * grid.xc),
                                amp * np.cos(xi * grid.xc))
    srf = fields.surface_metric(x1)
    assert np.allclose(srf["d1_eta"], -2.0 * xi * amp2 * np.sin(2.0 * xi * x1),
                       rtol=0.0, atol=1e-16)


@pytest.mark.parametrize("jump", [0.3, -0.5])
def test_extension_derivatives_match_finite_differences(params, jump):
    # on a curved rest state the extension decays in the reference height s,
    # so its physical derivatives come from the chain rule through s(x1, x2);
    # recover them from A and J above the band (phi = x2, phi' = 1) and
    # difference etabar at fixed physical x2 and at fixed x1
    grid = _rest_grid(params, jump)
    x = grid.xc / grid.ell
    eta = 2e-3 * np.cos(math.pi * x) + 1e-3 * np.sin(0.5 * math.pi * x)
    fields = geo.build_geometry(grid, eta - eta.mean())

    def metric(x1, x2):
        s = (x2 + grid.depth) / (grid.depth + float(grid.zeta0_fn(x1)))
        return fields.sample_metric([x1], [s])

    h = 1e-5
    got, want = [], []
    for x1 in (-0.8, -0.3, 0.1, 0.6):
        for drop in (0.05, 0.2, 0.35):
            x2 = float(grid.zeta0_fn(x1)) - drop
            assert x2 - h > grid.zmin / 2.0
            met = {k: np.asarray(v).ravel()[0]
                   for k, v in metric(x1, x2).items()}
            W, z0, eb = met["W"], met["zeta0"], met["eta_bar"]
            got.append(((met["A"] + x2 * met["dzeta0"] / z0 ** 2 * eb) / W,
                        (met["J"] - 1.0 - eb / z0) / W))
            want.append(((metric(x1 + h, x2)["eta_bar"][0, 0]
                          - metric(x1 - h, x2)["eta_bar"][0, 0]) / (2 * h),
                         (metric(x1, x2 + h)["eta_bar"][0, 0]
                          - metric(x1, x2 - h)["eta_bar"][0, 0]) / (2 * h)))
    got, want = np.array(got), np.array(want)
    for c in range(2):
        err = np.max(np.abs(got[:, c] - want[:, c]))
        assert err < 1e-7 * np.max(np.abs(got[:, c]))


# ------------------------------------------------------------
# cutoff profile
# ------------------------------------------------------------

def test_phi_cutoff_plateaus():
    z = np.array([0.0, 0.1, 0.25, 0.5, 0.75, 1.0])
    phi, dphi = geo.phi_cutoff(z, 1.0)
    assert np.all(phi[z <= 0.25] == 0.0)
    assert np.all(dphi[z <= 0.25] == 0.0)
    upper = z >= 0.5
    assert np.array_equal(phi[upper], z[upper])
    assert np.all(dphi[upper] == 1.0)


@given(st.floats(min_value=0.01, max_value=1.99))
@settings(max_examples=60, deadline=None)
def test_phi_cutoff_derivative_consistent(z):
    h = 1e-6
    phi_m, _ = geo.phi_cutoff(z - h, 2.0)
    phi_p, _ = geo.phi_cutoff(z + h, 2.0)
    _, dphi = geo.phi_cutoff(z, 2.0)
    assert abs((phi_p - phi_m) / (2 * h) - dphi) < 5e-5


# ------------------------------------------------------------
# differential operators on the rest map
# ------------------------------------------------------------

def test_gradient_exact_on_linear_function(zero_fields):
    met = zero_fields.at("nodes")
    f = 2.0 * met["x1"][:, None] + 3.0 * met["x2"]
    hx, hs = zero_fields.grid.hx, zero_fields.grid.hs
    # at rest the source is -u . grad_calA f: u = -e_i reads component i
    g = [geo.transport_source(met, f, u, hx, hs)
         for u in ((-1.0, 0.0), (0.0, -1.0))]
    # centered/one-sided differences are exact on affine data
    assert np.max(np.abs(g[0] - 2.0)) < 1e-12
    assert np.max(np.abs(g[1] - 3.0)) < 1e-12


# ------------------------------------------------------------
# property sweeps
# ------------------------------------------------------------

@given(st.lists(st.floats(min_value=-0.01, max_value=0.01),
                min_size=6, max_size=6))
@settings(max_examples=25, deadline=None)
def test_metric_stays_invertible(grid, coeffs):
    # smooth perturbations: three cosine and three sine modes
    x = grid.xc / grid.ell
    eta = sum(c * np.cos((k + 1) * math.pi * x) for k, c in enumerate(coeffs[:3]))
    eta = eta + sum(c * np.sin((k + 1) * math.pi * x)
                    for k, c in enumerate(coeffs[3:]))
    eta = np.asarray(eta, float) - np.mean(eta)
    fields = geo.build_geometry(grid, eta)
    for where in ("nodes", "centers"):
        met = fields.at(where)
        assert np.min(met["J"]) > 0.5
        assert np.max(np.abs(met["J"] * met["K"] - 1.0)) < 1e-12
